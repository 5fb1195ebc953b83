"""Working-precision plumbing shared by the numeric modules.

All high-precision arithmetic goes through mpmath; a PrecisionContext fixes
the mantissa size and the tolerances used by equality and residual checks.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import mpmath as mp
from mpmath import libmp

__all__ = ["PrecisionContext", "DEFAULT_CONTEXT"]

# Extra bits carried internally so results round correctly at the requested size.
GUARD_BITS = 16


@dataclass(frozen=True)
class PrecisionContext:
    """Mantissa size plus the tolerances derived checks compare against.

    tau_res also guards Y in {0, -1} during trajectory steps.
    """

    mantissa_bits: int = 128
    tau_eq: float = 1e-25
    tau_res: float = 1e-20

    def __post_init__(self):
        # below about 80 bits correct pairs miss the default gates; 96 leaves a margin
        if self.mantissa_bits < 96:
            raise ValueError("mantissa_bits must be at least 96, where correct pairs still meet "
                             "the default tolerances tau_eq = 1e-25 and tau_res = 1e-20")
        if not (self.tau_eq > 0 and self.tau_res > 0):
            raise ValueError("tolerances must be positive")

    def workprec(self, extra: int = 0):
        """Context manager setting mpmath precision to mantissa_bits (+ guard)."""
        return mp.workprec(self.mantissa_bits + GUARD_BITS + extra)


DEFAULT_CONTEXT = PrecisionContext()


def to_mpc(value):
    """Coerce ints/floats/complex/numpy scalars to mpmath numbers.

    mp types pass through unchanged: re-wrapping them in mp.mpc would round
    at the ambient precision and silently destroy high-precision mantissas.
    An int is read exactly, whatever its width, for the same reason.
    """
    if isinstance(value, (mp.mpc, mp.mpf)):
        return value
    if isinstance(value, complex):
        return mp.mpc(value.real, value.imag)
    if isinstance(value, float):
        return mp.mpf(value)
    if isinstance(value, numbers.Integral):  # ints and numpy integer scalars
        return mp.make_mpf(libmp.from_int(int(value)))
    # other numpy scalars and anything with __complex__
    c = complex(value)
    return mp.mpf(c.real) if c.imag == 0 else mp.mpc(c.real, c.imag)


def raw_mpc(v) -> tuple:
    """The raw libmp (re, im) of an mpf or mpc; an mpf x becomes (x, 0)."""
    return v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_, libmp.fzero)
