"""Structured pass/fail reports shared by the verification entry points.

JSON schema (written by to_json_obj):

    {
      "command": str,
      "metadata": {...},                     # command echo: pair, budgets, ...
      "records": [
        {"name": str, "residual": float, "residual_str": str,
         "tolerance": float, "passed": bool},
        ...
      ],
      "seed": int | null,
      "precision_bits": int,
      "wall_time_s": float,
      "passed": bool
    }

A report passes iff it holds a record and residual < tolerance for every record.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import mpmath as mp

__all__ = ["CheckRecord", "VerificationReport"]


def _as_float(value) -> float:
    try:
        return float(value)
    except (OverflowError, ValueError):
        return float("inf")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    passed: bool
    residual_str: str = ""

    @classmethod
    def make(cls, name: str, residual, tolerance: float) -> "CheckRecord":
        res_str = mp.nstr(mp.mpf(residual), 10) if isinstance(residual, (mp.mpf, mp.mpc)) else repr(residual)
        res = _as_float(abs(residual)) if isinstance(residual, (mp.mpf, mp.mpc, complex)) else _as_float(residual)
        return cls(name=name, residual=res, tolerance=float(tolerance), passed=res < float(tolerance),
                   residual_str=res_str)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "residual_str": self.residual_str,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    command: str
    metadata: dict = field(default_factory=dict)
    records: tuple = ()
    seed: int | None = None
    precision_bits: int = 128
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.records) and all(r.passed for r in self.records)

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "metadata": self.metadata,
            "records": [r.to_json_obj() for r in self.records],
            "seed": self.seed,
            "precision_bits": self.precision_bits,
            "wall_time_s": self.wall_time_s,
            "passed": self.passed,
        }

    def dump_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_obj(), fh, indent=2)

    def summary_lines(self) -> list[str]:
        lines = [f"== {self.command} " + " ".join(f"{k}={v}" for k, v in sorted(self.metadata.items())
                                                  if isinstance(v, (str, int, float)))]
        width = max((len(r.name) for r in self.records), default=10)
        for r in self.records:
            status = "ok" if r.passed else "FAIL"
            lines.append(f"  {r.name:<{width}}  residual={r.residual_str or r.residual:<14}  "
                         f"tol={r.tolerance:g}  {status}")
        lines.append(f"  -> {'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.records)} checks, {self.wall_time_s:.2f}s, {self.precision_bits}-bit)")
        return lines
