"""ADET Dynkin-pair toolkit.

Builds Kronecker matrices C(X) (x) C(X')^{-1} from pairs of A/D/E/T Dynkin
diagrams, solves the Nahm equation x = (1-x)^A through the equivalent
constant Y-system, and certifies the numerically checkable consequences:
Y-system periodicity, monomial sign structure, the constancy (wedge)
condition, dilogarithm-sum vanishing (the Bloch-group torsion criterion),
central-charge rationals, and the Rogers-Ramanujan / Andrews-Gordon q-series
identities with exact integer coefficients.

The package exports exactly the names each module lists in its own __all__,
plus the `errors` module.
"""
from . import bloch, dynkin, errors, precision, qseries, report, solver, verify, ysystem
from .bloch import *  # noqa: F401,F403
from .dynkin import *  # noqa: F401,F403
from .precision import *  # noqa: F401,F403
from .qseries import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .ysystem import *  # noqa: F401,F403

__all__ = [
    *bloch.__all__,
    *dynkin.__all__,
    *precision.__all__,
    *qseries.__all__,
    *report.__all__,
    *solver.__all__,
    *verify.__all__,
    *ysystem.__all__,
    "errors",
]

__version__ = "0.1.0"
