"""ADET Dynkin-pair toolkit.

Builds Kronecker matrices C(X) (x) C(X')^{-1} from pairs of A/D/E/T Dynkin
diagrams, solves the Nahm equation x = (1-x)^A through the equivalent
constant Y-system, and certifies the numerically checkable consequences:
Y-system periodicity, monomial sign structure, the constancy (wedge)
condition, dilogarithm-sum vanishing (the Bloch-group torsion criterion),
central-charge rationals, and the Rogers-Ramanujan / Andrews-Gordon q-series
identities with exact integer coefficients.
"""
from .bloch import (
    CentralChargeProbe,
    TORSION_TOLERANCE,
    bloch_wigner,
    central_charge_probe,
    five_term_residual,
    li2,
    relation_residuals,
    rogers_L,
    torsion_check,
    xi_D,
)
from .dynkin import (
    DynkinDiagram,
    PairIndexing,
    RationalMatrix,
    adjacency_matrix,
    bipartition,
    cartan_matrix,
    coxeter_number,
    make_diagram,
    nahm_matrix,
    pair_indexing,
    parse_diagram,
)
from .precision import DEFAULT_CONTEXT, PrecisionContext
from .qseries import PowerSeries, compare_series, eta_like_product, f_abc, inverse_pochhammer_q
from .report import CheckRecord, VerificationReport
from .solver import (
    NahmPolynomialSystem,
    SearchBudget,
    Solution,
    SolutionSet,
    nahm_branch_diagnostics,
    solve_all,
    solve_positive,
    y_to_x,
)
from .verify import WedgeResidual, dilog_sum_over_Splus, perturbed_pair, wedge_form_residual
from .ysystem import (
    YTrajectory,
    check_periodicity,
    constant_residual,
    iterate,
    monomial_sign,
)
from . import errors

__all__ = [
    "CentralChargeProbe",
    "CheckRecord",
    "DEFAULT_CONTEXT",
    "DynkinDiagram",
    "NahmPolynomialSystem",
    "PairIndexing",
    "PowerSeries",
    "PrecisionContext",
    "RationalMatrix",
    "SearchBudget",
    "Solution",
    "SolutionSet",
    "TORSION_TOLERANCE",
    "VerificationReport",
    "WedgeResidual",
    "YTrajectory",
    "adjacency_matrix",
    "bipartition",
    "bloch_wigner",
    "cartan_matrix",
    "central_charge_probe",
    "check_periodicity",
    "compare_series",
    "constant_residual",
    "coxeter_number",
    "dilog_sum_over_Splus",
    "errors",
    "eta_like_product",
    "f_abc",
    "five_term_residual",
    "inverse_pochhammer_q",
    "iterate",
    "li2",
    "make_diagram",
    "monomial_sign",
    "nahm_branch_diagnostics",
    "nahm_matrix",
    "pair_indexing",
    "parse_diagram",
    "perturbed_pair",
    "relation_residuals",
    "rogers_L",
    "solve_all",
    "solve_positive",
    "torsion_check",
    "wedge_form_residual",
    "xi_D",
    "y_to_x",
]

__version__ = "0.1.0"
