"""Exception types shared across the toolkit."""


class AdetError(Exception):
    """Base class for all toolkit errors."""


class InvalidDiagram(AdetError, ValueError):
    """Family/rank combination outside the supported ADET families."""


class DegenerateStep(AdetError, ArithmeticError):
    """A Y-system seed is 0 within tolerance or not finite, or a step's factor
    1 + Y or 1 + 1/Y is 0 within tolerance."""

    def __init__(self, message, index=None, u=None):
        super().__init__(message)
        self.index = index
        self.u = u


class DegenerateInput(AdetError, ValueError):
    """An input value sits on a forbidden locus (0 or -1 components, 1 - xy = 0, ...)."""


class DegeneratePoint(AdetError, ValueError):
    """An evaluation point produced a degenerate trajectory."""


class PoleInput(AdetError, ValueError):
    """Input hits a pole of the x <-> y change of variables."""


class WindowTooShort(AdetError, ValueError):
    """Trajectory window does not cover a full period."""


class NoConvergence(AdetError, RuntimeError):
    """Newton iteration exhausted its budget without converging."""


class NonIntegralExponent(AdetError, ValueError):
    """A lattice point contributes a non-integer power of q to a series."""
