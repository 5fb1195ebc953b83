"""The benchmark's workloads: inputs generated from a seed, calls into adet, checks.

Each workload builds its task list from the seed; every pass of a run issues
the same list, so repeated passes differ only by the machine's noise.  A task
calls adet's public API or its CLI in process and then checks what came
back.  Checks come in two kinds: a *value* check fails when the program
produced a wrong value (a record over its tolerance, a wrong count, a series
mismatch) and makes the run incorrect; a *completeness* check fails when the
program missed something it should have found (a solution the multistart
search did not reach).  Both count as failed operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath as mp
import numpy as np

from adet import bloch, cli, dynkin, qseries, solver, verify, ysystem
from adet.precision import PrecisionContext

from tracing import patched

CTX = {bits: PrecisionContext(mantissa_bits=bits) for bits in (128, 256)}
ACCEPT_PAIRS = ("A1,A1", "A1,T1", "A1,T2", "A2,A1", "A2,T1", "A1,A2", "A3,A1", "T1,T1")


@dataclass
class Outcome:
    """Check tally of a run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    headroom: float = math.inf  # the smallest log10(tolerance / residual)
    headroom_at: str = ""
    family_headroom: dict = field(default_factory=dict)  # check family -> its smallest headroom
    failures: Counter = field(default_factory=Counter)

    def check(self, name: str, ok: bool, completeness: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += not completeness
            self.failures[name] += 1
        return ok

    def residual(self, name: str, residual, tolerance, family: str | None = None) -> bool:
        """Value check residual < tolerance; nonzero residuals set the headroom.

        `family` groups the checks of one kind (default: the check's name).
        """
        residual, tolerance = float(residual), float(tolerance)
        if 0 < residual < math.inf:
            digits = math.log10(tolerance / residual)
            family = family or name
            self.family_headroom[family] = min(digits, self.family_headroom.get(family, math.inf))
            if digits < self.headroom:
                self.headroom, self.headroom_at = digits, name
        return self.check(name, residual < tolerance)

    def crash(self, name: str, expected: int, reason: str) -> None:
        """A task that raised or exited nonzero fails every check it owes."""
        self.attempted += expected
        self.failed += expected
        self.wrong += 1
        self.failures[f"{name}: {reason}"] += 1


@dataclass
class Task:
    name: str
    expected: int  # checks the task makes when the program runs to completion
    call: Callable[[Outcome], None]


def pair(label: str):
    left, right = label.split(",")
    return dynkin.pair_indexing(dynkin.parse_diagram(left), dynkin.parse_diagram(right))


def all_pairs_up_to(max_product: int) -> list[str]:
    """Every ordered supported pair with rank product <= max_product."""
    names = []
    for n in range(1, max_product + 1):
        names += [f"A{n}", f"T{n}"] + ([f"D{n}"] if n >= 2 else []) + ([f"E{n}"] if n in (6, 7, 8) else [])
    rank = {name: dynkin.parse_diagram(name).rank for name in names}
    return [f"{a},{b}" for a in names for b in names if rank[a] * rank[b] <= max_product]


def near_positive_point(p, rng, noise=0.1):
    """Positive reals plus imaginary noise: the CLI's evaluation-point distribution."""
    re = rng.uniform(0.5, 2.0, p.n)
    im = noise * rng.uniform(-1.0, 1.0, p.n)
    return [complex(a, b) for a, b in zip(re, im)]


def warm_mpmath() -> None:
    """Fill mpmath's lazy caches (pi, log constants, Bernoulli numbers) at the
    precisions the workloads use, touching every li2 branch region."""
    for ctx in CTX.values():
        for z in (0.3 + 0.1j, 3 + 1j, 0.9 + 0.1j, 0.5 + 0.7j, 3.0, 0.4):
            bloch.li2(z, ctx)


class Workload:
    """Set-up (timed as setup_s) in __init__; untimed references in prepare().

    `scratch` is a directory the workload may write to.
    """

    pairs: tuple = ()

    def __init__(self, scratch: Path):
        self.scratch = scratch
        # cli.run builds its own parser per call; this one pays argparse's
        # first-use cost in set-up rather than in the first task
        self.parser = cli.build_parser()
        self.pair = {label: pair(label) for label in self.pairs}
        self.matrix = {label: dynkin.nahm_matrix(p.x, p.xp) for label, p in self.pair.items()}
        warm_mpmath()

    def prepare(self) -> None:
        pass

    def tasks(self, seed: int) -> list[Task]:
        raise NotImplementedError


# --- pair_reports -----------------------------------------------------------

REPORT_STARTS, REPORT_POINTS, REPORT_SEEDS = 200, 3, 3
SOLVE_STARTS = 200


class PairReports(Workload):
    commands = (("report", "A1,T1"), ("report", "A2,T1"), ("report", "E6,A1"), ("solve", "D4,A1"))
    pairs = tuple(label for _, label in commands)

    def prepare(self) -> None:
        self.positive = {label: solver.solve_positive(p, CTX[128]) for label, p in self.pair.items()}
        self.json_path = self.scratch / "cli-report.json"

    def tasks(self, seed):
        cli_seed = str(seed)
        out = []
        for command, label in self.commands:
            if command == "report":
                argv = ["report", "--pair", label, "--starts", str(REPORT_STARTS),
                        "--points", str(REPORT_POINTS), "--seeds", str(REPORT_SEEDS)]
                # records besides one torsion record per solution: positive
                # residual, central charge, periodicity per seed, wedge and
                # dilog sum per point, and the three five-term maxima
                fixed = 2 + REPORT_SEEDS + 2 * REPORT_POINTS + 3
            else:
                argv = ["solve", "--all", "--pair", label, "--starts", str(SOLVE_STARTS)]
                fixed = 0
            argv += ["--seed", cli_seed, "--json", str(self.json_path)]
            # three structural checks plus the records of a run with one solution
            out.append(Task(f"{command} {label}", 3 + fixed + 1,
                            lambda o, argv=argv, label=label, fixed=fixed: self._run_cli(o, argv, label, fixed)))
        return out

    def _run_cli(self, out: Outcome, argv, label, fixed) -> None:
        name = f"{argv[0]} {label}"
        found = []

        def capture(fn):
            def wrapper(*args, **kwargs):
                found.append(fn(*args, **kwargs))
                return found[-1]
            return wrapper

        self.json_path.unlink(missing_ok=True)
        with patched({"solver.solve_all": capture}), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.run(argv)
        if code != 0:
            raise CliExit(f"exit {code}: {err.getvalue().strip()[:160]}")
        report = json.loads(self.json_path.read_text())
        for rec in report["records"]:
            # one family per kind of record, across commands
            family = re.sub(r"( vs .*|(,| for)? (seed|point|solution) \d+)$", "", rec["name"])
            out.residual(f"{name}: {rec['name']}", rec["residual"], rec["tolerance"], family)
        solutions = found[-1].solutions if found else ()
        out.check(f"{name}: record count", len(report["records"]) == fixed + len(solutions))
        out.check(f"{name}: solution set is nonempty", len(solutions) > 0, completeness=True)
        out.check(f"{name}: solution set holds the positive solution",
                  _holds(solutions, self.positive[label]), completeness=True)


class CliExit(Exception):
    """The CLI returned a nonzero exit code."""


def _holds(solutions, reference) -> bool:
    with mp.workprec(160):
        return any(max(abs(a - b) for a, b in zip(s.x, reference.x)) < solver.DEDUP_TOL for s in solutions)


# --- ysystem_sweep ----------------------------------------------------------

SIGN_PAIRS = ACCEPT_PAIRS + ("D4,A1", "A2,A2", "E6,A1", "E7,A1", "D4,A2")
WEDGE_PAIRS = ACCEPT_PAIRS + ("D4,A1", "E6,A1")
WEDGE_TOL = 1e-18
PROBE_TOL = 1e-20


class YsystemSweep(Workload):
    pairs = tuple(dict.fromkeys(all_pairs_up_to(8) + list(SIGN_PAIRS) + list(WEDGE_PAIRS)))
    periodic = tuple(all_pairs_up_to(8))

    def tasks(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for label in self.periodic:
            for bits in CTX:
                p = self.pair[label]
                y = list(rng.uniform(0.5, 2.0, p.n))
                out.append(Task(f"periodicity {label} {bits}", 1,
                                lambda o, p=p, y=y, bits=bits: _periodicity(o, p, y, CTX[bits])))
        for label in SIGN_PAIRS:
            out.append(Task(f"signs {label}", 2, lambda o, p=self.pair[label]: _signs(o, p)))
        for label in WEDGE_PAIRS:
            p = self.pair[label]
            pt = near_positive_point(p, rng)
            out.append(Task(f"wedge {label}", 1, lambda o, p=p, pt=pt: o.residual(
                f"wedge {p.label}", verify.wedge_form_residual(p, pt, CTX[128]).residual, WEDGE_TOL, "wedge")))
        return out


def _periodicity(out, p, y, ctx):
    traj = ysystem.iterate(p, y, 2 * p.period, ctx)
    rec = ysystem.check_periodicity(traj, ctx).records[0]
    out.residual(f"periodicity {p.label} {ctx.mantissa_bits}", rec.residual, rec.tolerance,
                 f"periodicity {ctx.mantissa_bits}")


def _signs(out, p):
    ctx = CTX[128]
    signs = [ysystem.monomial_sign(p, k, u, ctx) for k, u in p.S_plus()]
    probe = bloch.central_charge_probe(p, ctx)
    per_index = len(signs) // p.n
    out.check(f"signs {p.label}: negative monomials per index = central charge",
              Fraction(signs.count(-1), per_index) == probe.rational)
    out.residual(f"signs {p.label}: central-charge probe", probe.error, PROBE_TOL, "central-charge probe")


# --- qseries_exact ----------------------------------------------------------


def andrews_gordon_matrix(k: int):
    """2 * C(T_k)^{-1}: the Nahm matrix of the pair (A1, T_k)."""
    return [[2 * min(i, j) + 2 for j in range(k)] for i in range(k)]


def product_exponent(modulus: int, a: int) -> Fraction:
    """Modular exponent C of prod_{n != 0, +-a mod M} (1 - q^n)^{-1}:
    q^C times the product is a modular function (Jacobi triple product)."""
    return Fraction((modulus - 2 * a) ** 2, 8 * modulus) - Fraction(1, 24)


# name, A, B, modulus, excluded residue a (product over n != 0, +-a), order
IDENTITIES = (
    ("rr1", [[2]], [0], 5, 2, 600),
    ("rr2", [[2]], [1], 5, 1, 600),
    ("ag2", andrews_gordon_matrix(2), [0, 0], 7, 3, 250),
    ("ag3", andrews_gordon_matrix(3), [0, 0, 0], 9, 4, 120),
    ("ag4", andrews_gordon_matrix(4), [0, 0, 0, 0], 11, 5, 24),
)


class QseriesExact(Workload):
    """Seed-independent: the identities and orders are fixed."""

    pairs = tuple(f"A1,T{len(a)}" for _, a, b, *_ in IDENTITIES if not any(b))

    def tasks(self, seed):
        return [Task(name, 4 if not any(b) else 2,
                     lambda o, args=(name, a, b, m, ex, order): self._identity(o, *args))
                for name, a, b, m, ex, order in IDENTITIES]

    def _identity(self, out, name, a, b, modulus, excluded, order):
        c = product_exponent(modulus, excluded)
        residues = [r for r in range(1, modulus) if r not in (excluded, modulus - excluded)]
        lhs = qseries.f_abc(a, b, c, order)
        rhs = qseries.eta_like_product(residues, modulus, order, prefactor_exp=c)
        for rec in qseries.compare_series(lhs, rhs).records:
            out.residual(f"{name}: {rec.name}", rec.residual, rec.tolerance)
        if any(b):
            return
        # Nahm's conjecture for B = 0: the sum side is modular with C = -c/24,
        # c the dilogarithm central charge of the pair whose Nahm matrix is A.
        label = f"A1,T{len(a)}"
        out.check(f"{name}: A is the Nahm matrix of {label}",
                  self.matrix[label].to_nested() == [[Fraction(v) for v in row] for row in a])
        probe = bloch.central_charge_probe(self.pair[label], CTX[128])
        with CTX[128].workprec():
            gap = abs(probe.value + 24 * mp.mpf(c.numerator) / c.denominator)
        out.residual(f"{name}: central charge = -24 C", gap, PROBE_TOL)


WORKLOADS = {
    "pair_reports": PairReports,
    "ysystem_sweep": YsystemSweep,
    "qseries_exact": QseriesExact,
}


def make(name: str, scratch: Path) -> Workload:
    return WORKLOADS[name](scratch)
