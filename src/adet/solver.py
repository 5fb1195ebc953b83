"""Solve the Nahm equation x = (1-x)^A through the constant Y-system.

Following the change of variables y = x/(1-x), the constant Y-system becomes
a polynomial system with integer exponents taken from the adjacency matrices
(cleared-denominator form):

    R_a(y) = y_a^2 * prod_j' (1 + y_{ij'})^{I'_{i'j'}}
             - prod_j (1 + y_{ji'})^{I_{ij}} * prod_j' y_{ij'}^{I'_{i'j'}}

for a = (i, i').  Solutions with any component at 0 or -1 are degenerate
artifacts of the clearing and are discarded.  Root finding is multistart
damped Newton: a cheap complex128 sweep locates basins, and every distinct
candidate is polished with mpmath Newton at the context precision.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import mpmath as mp
import numpy as np

from .dynkin import PairIndexing, nahm_matrix
from .errors import NoConvergence, PoleInput
from .precision import DEFAULT_CONTEXT, PrecisionContext, to_mpc
from .ysystem import constant_residual

__all__ = [
    "x_to_y",
    "y_to_x",
    "NahmPolynomialSystem",
    "solve_positive",
    "solve_all",
    "SearchBudget",
    "Solution",
    "SolutionSet",
    "nahm_branch_diagnostics",
]

DEDUP_TOL = 1e-10
_FLOAT_DEDUP = 1e-6
_DEGENERATE_MARGIN = 1e-8

# Damped Newton: iteration caps, the step size that ends a run, and the
# number of step halvings tried before a step is taken anyway.
_FLOAT_MAX_ITER = 80
_FLOAT_MIN_STEP = 1e-12
_MP_MAX_ITER = 200
_MP_MIN_STEP = "1e-30"
_MAX_HALVINGS = 40
_FIXED_POINT_ITERS = 400  # cap of the positive-cone sweep that seeds Newton
_BRANCH_K_RANGE = 2  # |k_j| bound of the exhaustive branch search (n <= 4)


def _map_values(values, fn):
    if not isinstance(values, (list, tuple, np.ndarray)):
        return fn(values)
    return [fn(v) for v in values]


def x_to_y(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """y = x / (1 - x), componentwise; PoleInput at x = 1."""
    with ctx.workprec():
        def one(v):
            vv = to_mpc(v)
            if vv == 1:
                raise PoleInput("x = 1 is a pole of x -> y")
            return vv / (1 - vv)
        return _map_values(x, one)


def y_to_x(y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """x = y / (1 + y), componentwise; PoleInput at y = -1."""
    with ctx.workprec():
        def one(v):
            vv = to_mpc(v)
            if vv == -1:
                raise PoleInput("y = -1 is a pole of y -> x")
            return vv / (1 + vv)
        return _map_values(y, one)


class NahmPolynomialSystem:
    """Residual/Jacobian evaluator for the cleared constant Y-system.

    Polymorphic over the scalar type: works with complex128 and mpmath
    numbers alike (only +, *, ** int are used).
    """

    def __init__(self, pair: PairIndexing):
        self.pair = pair
        self.n = pair.n
        # factors (variable, kind 0=y / 1=1+y, exponent); the cleared
        # denominator (1 + 1/y)^m contributes (1 + y)^m on the plus side
        # and y^m on the minus side
        self.equations = tuple(
            (((k, 0, 2),) + tuple((j, 1, m) for j, m in downs),
             tuple((j, 0, m) for j, m in downs) + tuple((j, 1, m) for j, m in ups))
            for k, (ups, downs) in enumerate(pair.factors)
        )

    @staticmethod
    def _base(y, factor):
        k, kind, _ = factor
        return y[k] if kind == 0 else 1 + y[k]

    def _prod(self, y, factors):
        total = None
        for f in factors:
            b = self._base(y, f)
            v = b if f[2] == 1 else b ** f[2]
            total = v if total is None else total * v
        return 1 if total is None else total

    def _dprod(self, y, factors, b):
        """d/dy_b of prod factors, by leave-one-out products (no divisions)."""
        total = None
        for t, f in enumerate(factors):
            if f[0] != b:
                continue
            base = self._base(y, f)
            term = f[2] * (base ** (f[2] - 1)) if f[2] != 1 else 1
            for s, g in enumerate(factors):
                if s == t:
                    continue
                gb = self._base(y, g)
                term = term * (gb if g[2] == 1 else gb ** g[2])
            total = term if total is None else total + term
        return 0 if total is None else total

    def residual(self, y):
        return [self._prod(y, plus) - self._prod(y, minus) for plus, minus in self.equations]

    def jacobian(self, y):
        return [
            [self._dprod(y, plus, b) - self._dprod(y, minus, b) for b in range(self.n)]
            for plus, minus in self.equations
        ]


def _newton_float(system, y0):
    y = np.asarray(y0, dtype=complex)
    r = np.asarray(system.residual(y), dtype=complex)
    if not np.all(np.isfinite(r)):
        return None
    rnorm = np.max(np.abs(r))
    for _ in range(_FLOAT_MAX_ITER):
        try:
            jac = np.asarray(system.jacobian(y), dtype=complex)
            dy = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dy)):
            return None
        lam = 1.0
        accepted = False
        for h in range(_MAX_HALVINGS + 1):
            cand = y + lam * dy
            rc = np.asarray(system.residual(cand), dtype=complex)
            if np.all(np.isfinite(rc)) and (np.max(np.abs(rc)) < rnorm or h == _MAX_HALVINGS):
                accepted = np.max(np.abs(rc)) < rnorm
                break
            lam *= 0.5
        if not accepted:
            break
        y = cand
        r = rc
        rnorm = np.max(np.abs(rc))
        if np.max(np.abs(y)) > 1e8:
            return None
        if lam * np.max(np.abs(dy)) < _FLOAT_MIN_STEP:
            break
    return y if rnorm < 1e-8 else None


def _newton_mp(system, y0, ctx):
    """Damped Newton at context precision; returns (y, info) or None."""
    min_step = mp.mpf(_MP_MIN_STEP)
    with ctx.workprec(32):
        y = [to_mpc(v) for v in y0]
        steps = []
        converged = False
        for _ in range(_MP_MAX_ITER):
            r = system.residual(y)
            rnorm = max(abs(v) for v in r)
            try:
                jac = mp.matrix(system.jacobian(y))
                dy = mp.lu_solve(jac, mp.matrix([-v for v in r]))
            except (ZeroDivisionError, ValueError):
                return None
            lam = mp.mpf(1)
            for h in range(_MAX_HALVINGS + 1):
                trial = [y[i] + lam * dy[i] for i in range(len(y))]
                if h == _MAX_HALVINGS or max(abs(v) for v in system.residual(trial)) < rnorm:
                    break
                lam /= 2
            step = lam * max(abs(v) for v in dy)
            steps.append(step)
            y = trial
            if step < min_step:
                converged = True
                break
        rfinal = max(abs(v) for v in system.residual(y))
        info = {
            "iterations": len(steps),
            "converged": converged,
            "step_norms": steps[-4:],
            "residual_norm": rfinal,
        }
        return y, info


@dataclass
class Solution:
    """One solution of the Nahm equation / constant Y-system.

    x and y are paired by y = x/(1-x); residual is the cleared constant
    Y-system residual; multiplicity_hint counts the multistart basins that
    converged here; branch records the Eq-style power-consistency diagnostics.
    """

    x: tuple
    y: tuple
    residual: object
    multiplicity_hint: int
    branch: dict
    newton: dict | None = None

    def __post_init__(self):
        with mp.workprec(max(mp.mp.prec, 400)):
            for xv in self.x:
                if xv == 0 or xv == 1:
                    raise ValueError("solution has a component at x = 0 or x = 1")
            for xv, yv in zip(self.x, self.y):
                if abs(xv - yv / (1 + yv)) > mp.mpf("1e-20"):
                    raise ValueError("x and y are not paired by y = x/(1-x)")

    def to_json_obj(self) -> dict:
        def cseq(vals):
            return [[mp.nstr(mp.re(v), 40), mp.nstr(mp.im(v), 40)] for v in vals]
        return {
            "x": cseq(self.x),
            "y": cseq(self.y),
            "residual": mp.nstr(mp.mpf(self.residual), 10),
            "multiplicity_hint": self.multiplicity_hint,
            "branch": {k: (v if not isinstance(v, (mp.mpf, mp.mpc)) else mp.nstr(v, 10))
                       for k, v in self.branch.items()},
        }


@dataclass
class SolutionSet:
    pair: str
    solutions: tuple
    dedup_tol: float
    starts: int
    seed: int
    meta: dict

    def to_json_obj(self) -> dict:
        return {
            "pair": self.pair,
            "dedup_tol": self.dedup_tol,
            "starts": self.starts,
            "seed": self.seed,
            "meta": self.meta,
            "solutions": [s.to_json_obj() for s in self.solutions],
        }


@dataclass(frozen=True)
class SearchBudget:
    starts: int = 2000
    seed: int = 0
    rank_cap: int = 6


def nahm_branch_diagnostics(pair: PairIndexing, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    """Check x_i = prod_j (1-x_j)^{a_ij} under explicit branch bookkeeping.

    principal_residual uses exp(sum_j a_ij Log(1-x_j)) with the principal Log.
    A consistent branch choice assigns one integer k_j to each Log(1-x_j);
    the defect reported is the distance of delta - A k from the integer
    lattice, minimized over small k (|k_j| <= 2, searched exhaustively for
    n <= 4, k = 0 only otherwise).

    Limit: for n > 4 a genuine solution whose consistent branch needs some
    k != 0 reports branch_ok False (two of the three E6,A1 solutions do), so
    branch_ok False is no evidence against a solution when n > 4.
    """
    a = nahm_matrix(pair.x, pair.xp)
    n = pair.n
    with ctx.workprec():
        af = [[mp.mpf(a[i, j].numerator) / a[i, j].denominator for j in range(n)] for i in range(n)]
        logs = [mp.log(1 - to_mpc(v)) for v in x]
        sums = [mp.fsum(af[i][j] * logs[j] for j in range(n)) for i in range(n)]
        principal = max(abs(to_mpc(x[i]) - mp.exp(sums[i])) for i in range(n))
        two_pi_i = mp.mpc(0, 2) * mp.pi
        delta = [(mp.log(to_mpc(x[i])) - sums[i]) / two_pi_i for i in range(n)]
        delta_im = max(abs(mp.im(d)) for d in delta)
        dre = [mp.re(d) for d in delta]

        def lattice_defect(kvec):
            worst = mp.mpf(0)
            for i in range(n):
                v = dre[i] - mp.fsum(af[i][j] * kvec[j] for j in range(n))
                worst = max(worst, abs(v - mp.nint(v)))
            return worst

        if n <= 4:
            candidates = sorted(product(range(-_BRANCH_K_RANGE, _BRANCH_K_RANGE + 1), repeat=n),
                                key=lambda kv: sum(abs(v) for v in kv))
        else:
            candidates = [tuple([0] * n)]
        best_k, best = None, mp.inf
        for kvec in candidates:
            defect = lattice_defect(kvec)
            if defect < best:
                best, best_k = defect, tuple(kvec)
    return {
        "principal_residual": principal,
        "principal_ok": bool(principal < mp.mpf("1e-15")),
        "k": best_k,
        "branch_defect": best,
        "branch_ok": bool(best < mp.mpf("1e-12")),
        "delta_imag": delta_im,
    }


def _is_degenerate_vec(y) -> bool:
    return any(abs(v) < _DEGENERATE_MARGIN or abs(1 + v) < _DEGENERATE_MARGIN for v in y)


def _sort_key(y):
    return tuple((float(mp.re(v)), float(mp.im(v))) for v in y)


def _positive_fixed_point(pair: PairIndexing):
    """Multiplicative iteration y <- sqrt(rhs(y)) from the all-ones vector.

    rhs is the right-hand side of the constant Y-system; the map preserves
    the positive cone and homes in on the all-positive solution, leaving the
    quadratic finish to Newton.
    """
    y = [mp.mpf(1)] * pair.n
    for _ in range(_FIXED_POINT_ITERS):
        new = []
        for ups, downs in pair.factors:
            num = mp.mpf(1)
            for j, m in ups:
                num *= (1 + y[j]) ** m
            for j, m in downs:
                num /= (1 + 1 / y[j]) ** m
            new.append(mp.sqrt(num))
        drift = max(abs(a - b) / b for a, b in zip(new, y))
        y = new
        if drift < mp.mpf("1e-12"):
            break
    return y


def solve_positive(pair: PairIndexing, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Solution:
    """The solution with all x_i in (0, 1), from one fixed-point start.

    The start is the all-ones vector in y coordinates (x = 1/2), driven into
    the attracting basin by the cone-preserving fixed-point iteration; one
    damped Newton run then polishes it.  Raises NoConvergence when that run
    fails, misses tau_res or leaves (0, 1).
    """
    system = NahmPolynomialSystem(pair)
    with ctx.workprec(32):
        result = _newton_mp(system, _positive_fixed_point(pair), ctx)
        if result is None:
            raise NoConvergence(f"positive solve failed for {pair.label}")
        y, info = result
        residual = constant_residual(pair, y, ctx)
        if not info["converged"] or residual >= ctx.tau_res:
            raise NoConvergence(
                f"positive solve for {pair.label} did not meet tau_res "
                f"(residual {mp.nstr(residual, 8)})"
            )
        ymp = tuple(mp.mpc(v) for v in y)
        x = tuple(y_to_x(list(ymp), ctx))
        if any(not (0 < mp.re(v) < 1) for v in x):
            raise NoConvergence(f"positive solve for {pair.label} left (0,1)")
        return Solution(
            x=x,
            y=ymp,
            residual=residual,
            multiplicity_hint=1,
            branch=nahm_branch_diagnostics(pair, x, ctx),
            newton=info,
        )


def solve_all(pair: PairIndexing, budget: SearchBudget | None = None,
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> SolutionSet:
    """Multistart Newton enumeration of nondegenerate solutions.

    Seeds are componentwise r*exp(i*theta) with log r uniform in [-1, 1] and
    theta uniform in [0, 2*pi).  Converged float candidates are deduplicated,
    polished at context precision, filtered against degenerate components and
    tau_res, joined by the all-positive solution (polished from the same
    fixed-point start as `solve_positive`), closed under complex
    conjugation, and deduplicated again at
    max-norm tolerance 1e-10.  Determined entirely by (starts, seed, ctx).
    """
    budget = budget or SearchBudget()
    if pair.n > budget.rank_cap:
        raise ValueError(
            f"pair size {pair.n} exceeds the exhaustive-search cap {budget.rank_cap}; "
            "pass a SearchBudget with a larger rank_cap to override"
        )
    system = NahmPolynomialSystem(pair)
    rng = np.random.default_rng(budget.seed)
    logr = rng.uniform(-1.0, 1.0, size=(budget.starts, pair.n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(budget.starts, pair.n))
    seeds = np.exp(logr) * np.exp(1j * theta)

    reps: list[list] = []  # [y_float, basin_count]
    stats = {"converged_starts": 0, "degenerate_hits": 0, "polish_rejections": 0}
    for s in range(budget.starts):
        root = _newton_float(system, seeds[s])
        if root is None:
            continue
        stats["converged_starts"] += 1
        if np.min(np.abs(root)) < 1e-6 or np.min(np.abs(1 + root)) < 1e-6:
            stats["degenerate_hits"] += 1
            continue
        for rep in reps:
            if np.max(np.abs(rep[0] - root)) < _FLOAT_DEDUP:
                rep[1] += 1
                break
        else:
            reps.append([root, 1])

    polished: list[list] = []  # [y_mp(list), count, residual, info]

    def _merge(y, count, residual, info):
        for entry in polished:
            if max(abs(a - b) for a, b in zip(entry[0], y)) < DEDUP_TOL:
                entry[1] += count
                if residual < entry[2]:
                    entry[0], entry[2], entry[3] = y, residual, info
                return
        polished.append([y, count, residual, info])

    def _is_new(y):
        return all(max(abs(a - b) for a, b in zip(entry[0], y)) >= DEDUP_TOL for entry in polished)

    def _polished(y0):
        """(y, residual, info) for the root Newton reaches from y0, or None."""
        result = _newton_mp(system, y0, ctx)
        ok = result is not None and result[1]["converged"] and not _is_degenerate_vec(result[0])
        residual = constant_residual(pair, result[0], ctx) if ok else None
        if not ok or residual >= ctx.tau_res:
            stats["polish_rejections"] += 1
            return None
        y, info = result
        # Imaginary dust far below the polish resolution means a real root
        # (the system is real); snap it, keeping the residual guarantee.
        snapped = [mp.mpc(mp.re(v)) if abs(mp.im(v)) < mp.mpf("1e-35") else v for v in y]
        if snapped != list(y):
            snapped_residual = constant_residual(pair, snapped, ctx)
            if snapped_residual < ctx.tau_res:
                y, residual = snapped, snapped_residual
        return list(y), residual, info

    def _polish(y0, count):
        found = _polished(y0)
        if found is not None:
            _merge(found[0], count, *found[1:])

    solutions = []
    with ctx.workprec(32):
        for root, count in reps:
            _polish(list(root), count)

        # The all-positive solution always exists; add it if no basin reached
        # it, leaving an entry that already holds it untouched.
        found = _polished(_positive_fixed_point(pair))
        if found is not None and _is_new(found[0]):
            polished.append([found[0], 1, *found[1:]])

        # Conjugate closure: the defining polynomials are real, so the conjugate
        # of every root is a root; polish it in case its basin was missed.
        for entry in list(polished):
            conj = [mp.conj(v) for v in entry[0]]
            if _is_new(conj):
                _polish(conj, 1)

        polished.sort(key=lambda e: _sort_key(e[0]))
        for y, count, residual, info in polished:
            x = tuple(y_to_x(y, ctx))
            solutions.append(
                Solution(
                    x=x,
                    y=tuple(mp.mpc(v) for v in y),
                    residual=residual,
                    multiplicity_hint=count,
                    branch=nahm_branch_diagnostics(pair, x, ctx),
                    newton=info,
                )
            )
    return SolutionSet(
        pair=pair.label,
        solutions=tuple(solutions),
        dedup_tol=DEDUP_TOL,
        starts=budget.starts,
        seed=budget.seed,
        meta=stats,
    )
