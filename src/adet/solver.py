"""Solve the Nahm equation x = (1-x)^A through the constant Y-system.

Following the change of variables y = x/(1-x), the constant Y-system becomes
a polynomial system with integer exponents taken from the adjacency matrices
(cleared-denominator form):

    R_a(y) = y_a^2 * prod_j' (1 + y_{ij'})^{I'_{i'j'}}
             - prod_j (1 + y_{ji'})^{I_{ij}} * prod_j' y_{ij'}^{I'_{i'j'}}

for a = (i, i').  Solutions with any component at 0 or -1 are degenerate
artifacts of the clearing and are discarded.  Root finding is multistart
damped Newton: one complex128 run over all starts at once (a batch of
Jacobian solves per step) locates basins, and every distinct candidate is
polished with mpmath Newton at the context precision, which solves each step
by Gaussian elimination on lists of mp numbers and gives up on a linear
crawl.  The positive start is float Newton on the convex Nahm potential.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .dynkin import PairIndexing
from .errors import NoConvergence, PoleInput
from .precision import DEFAULT_CONTEXT, PrecisionContext, to_mpc
from .ysystem import constant_residual

__all__ = [
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
_FLOAT_DEGENERATE = 1e-6  # a float y this close to 0 or -1 in a component is degenerate
_DEGENERATE_MARGIN = 1e-8

# Damped Newton: iteration caps, the step size that ends a run (for the mp
# polish, at 128 bits; it scales as 2^-bits), and the number of step halvings
# tried (then the mp polish takes the step anyway, and a float run ends).
_FLOAT_MAX_ITER = 80
_FLOAT_MIN_STEP = 1e-12
_MP_MAX_ITER = 200
_MP_CRAWL_STEPS = 5  # mp steps in a row that fail to halve the one before end a run
_MP_MIN_STEP = "1e-30"
_MAX_HALVINGS = 40
# halvings a float step tries at once: the full step, then blocks of 8,
# so that a batch holds at most 8 candidates per pending row
_HALVING_BLOCKS = (np.arange(1),) + tuple(
    np.arange(h, min(h + 8, _MAX_HALVINGS + 1)) for h in range(1, _MAX_HALVINGS + 1, 8))
RANK_CAP = 6  # the largest pair size solve_all searches


def y_to_x(y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """x = y / (1 + y), on a scalar or componentwise on a sequence; PoleInput at y = -1."""
    with ctx.workprec():
        def one(v):
            vv = to_mpc(v)
            if vv == -1:
                raise PoleInput("y = -1 is a pole of y -> x")
            return vv / (1 + vv)
        return [one(v) for v in y] if isinstance(y, (list, tuple, np.ndarray)) else one(y)


class NahmPolynomialSystem:
    """Residual/Jacobian evaluator for the cleared constant Y-system.

    Polymorphic over the scalar type: works with mpmath numbers and with
    the complex128 columns of a float batch alike (only +, -, * and ** int
    are used); a batch row rounds as it would in a one-row batch.
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


def _on_rows(evaluate, y):
    """evaluate (a system's residual or jacobian) on the complex128 columns
    y.T, as a (rows, n) or (rows, n, n) array over the rows of y."""
    return _rows_first(evaluate(list(y.T)), len(y))


def _rows_first(entries, rows):
    """Evaluator entries (arrays over the rows, or the constants 0 and 1),
    nested in lists, stacked with the rows as the first axis."""
    return np.stack([_rows_first(e, rows) if isinstance(e, list) else np.broadcast_to(e, rows)
                     for e in entries], axis=1, dtype=complex)


def _solve_rows(jac, rhs):
    """Solve jac[i] dy[i] = rhs[i] for every row at once; a singular row is
    solved on its own and marked False in the returned mask."""
    ok = np.ones(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        dy = np.zeros_like(rhs)
        for i in range(len(rhs)):
            try:
                dy[i] = np.linalg.solve(jac[i], rhs[i])
            except np.linalg.LinAlgError:
                ok[i] = False
        return dy, ok


def _near_degenerate(y):
    """Whether a complex128 y (n,) or each row of ys (rows, n) has a component
    within _FLOAT_DEGENERATE of 0 or -1."""
    return np.min(np.minimum(np.abs(y), np.abs(1 + y)), axis=-1) < _FLOAT_DEGENERATE


def _newton_batch(system, seeds):
    """Damped complex128 Newton from every row of seeds (starts x n) at once.

    Returns one entry per row: its root, or None.  Each row runs on its own:
    a row with a non-finite residual, a singular Jacobian or a non-finite
    step has no root; otherwise a step is halved until the residual norm
    drops, and the run ends when no halving drops it, when |y| > 1e8 (no
    root), when the step is below _FLOAT_MIN_STEP or at _FLOAT_MAX_ITER.
    A row whose run ends is a root if its residual norm is below 1e-8.
    A row whose accepted y is `_near_degenerate` ends there as a degenerate
    root, whatever its residual: `solve_all` discards such a root by the
    same test.  The batch is evaluated by numpy's array kernels
    (`_on_rows`), so a row rounds as it would in a one-row batch.
    """
    starts, n = seeds.shape
    y = np.array(seeds, dtype=complex)
    r = _on_rows(system.residual, y)
    rnorm = np.max(np.abs(r), axis=1)
    live = np.all(np.isfinite(r), axis=1)  # rows still iterating
    ended = np.zeros(starts, dtype=bool)  # rows whose run ended with a final y
    degenerate = np.zeros(starts, dtype=bool)  # rows that ended near 0 or -1
    for _ in range(_FLOAT_MAX_ITER):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        dy, ok = _solve_rows(_on_rows(system.jacobian, y[rows]), -r[rows])
        ok &= np.all(np.isfinite(dy), axis=1)
        live[rows[~ok]] = False
        rows, dy = rows[ok], dy[ok]
        # the full step first; then, for the rows it fails, the halvings in
        # blocks, of which each row takes the first that drops its residual
        lam = np.ones(rows.size)
        accepted = np.zeros(rows.size, dtype=bool)
        for halvings in _HALVING_BLOCKS:
            pending = np.flatnonzero(~accepted)
            if pending.size == 0:
                break
            lams = 0.5 ** halvings
            cand = y[rows[pending], None] + lams[:, None] * dy[pending, None]
            rc = _on_rows(system.residual, cand.reshape(-1, n)).reshape(cand.shape)
            norm = np.max(np.abs(rc), axis=2)
            better = np.all(np.isfinite(rc), axis=2) & (norm < rnorm[rows[pending], None])
            hit = np.flatnonzero(better.any(axis=1))
            first = better[hit].argmax(axis=1)
            take = rows[pending[hit]]
            y[take], r[take], rnorm[take] = cand[hit, first], rc[hit, first], norm[hit, first]
            lam[pending[hit]] = lams[first]
            accepted[pending[hit]] = True
        stalled = rows[~accepted]
        live[stalled] = False
        ended[stalled] = True
        rows, lam, dy = rows[accepted], lam[accepted], dy[accepted]
        far = np.max(np.abs(y[rows]), axis=1) > 1e8
        near = ~far & _near_degenerate(y[rows])
        small = ~far & ~near & (lam * np.max(np.abs(dy), axis=1) < _FLOAT_MIN_STEP)
        live[rows[far | near | small]] = False
        ended[rows[small]] = True
        degenerate[rows[near]] = True
    ended |= live
    return [y[i] if degenerate[i] or (ended[i] and rnorm[i] < 1e-8) else None for i in range(starts)]


def _lin_solve(a, b):
    """x with a x = b, by Gaussian elimination with partial pivoting on
    lists of mp numbers at the working precision (a and b are not changed).

    Raises ZeroDivisionError when a pivot has |p| <= ||a||_1 * eps, as
    mpmath's LU decomposition does, so a numerically singular matrix is
    refused rather than solved.  Exact zeros are skipped, which keeps the
    sparse Jacobians of large pairs cheap.
    """
    n = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    tol = max(sum(abs(row[k]) for row in a) for k in range(n)) * mp.eps
    for j in range(n):
        piv = max(range(j, n), key=lambda i: abs(rows[i][j]))
        if abs(rows[piv][j]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        rows[j], rows[piv] = rows[piv], rows[j]
        top = rows[j]
        nonzero = [k for k in range(j + 1, n + 1) if top[k]]
        for row in rows[j + 1:]:
            if row[j]:
                f = row[j] / top[j]
                for k in nonzero:
                    row[k] -= f * top[k]
    x = [0] * n
    for j in reversed(range(n)):
        row = rows[j]
        v = row[n]
        for k in range(j + 1, n):
            if row[k]:
                v -= row[k] * x[k]
        x[j] = v / row[j]
    return x


def _newton_mp(system, y0, ctx):
    """Damped Newton at context precision; returns (y, info) or None.

    Each step solves J dy = -r with `_lin_solve`; a numerically singular
    Jacobian ends the run with None.  The run ends converged once a step is
    below _MP_MIN_STEP * 2^(128 - bits) in a context of `bits` bits.  It
    ends unconverged at _MP_MAX_ITER, or once _MP_CRAWL_STEPS steps in a row
    each fail to halve the one before: a linear crawl, as toward the cleared
    locus 1 + y = 0, that quadratic convergence to a simple root never shows.
    """
    min_step = mp.ldexp(mp.mpf(_MP_MIN_STEP), 128 - ctx.mantissa_bits)
    with ctx.workprec(32):
        y = [to_mpc(v) for v in y0]
        steps = []
        converged = False
        crawl = 0
        for _ in range(_MP_MAX_ITER):
            r = system.residual(y)
            rnorm = max(abs(v) for v in r)
            try:
                dy = _lin_solve(system.jacobian(y), [-v for v in r])
            except ZeroDivisionError:
                return None
            lam = mp.mpf(1)
            for h in range(_MAX_HALVINGS + 1):
                trial = [y[i] + lam * dy[i] for i in range(len(y))]
                if h == _MAX_HALVINGS or max(abs(v) for v in system.residual(trial)) < rnorm:
                    break
                lam /= 2
            step = lam * max(abs(v) for v in dy)
            crawl = crawl + 1 if steps and 2 * step > steps[-1] else 0
            steps.append(step)
            y = trial
            if step < min_step:
                converged = True
                break
            if crawl == _MP_CRAWL_STEPS:
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

    x and y are paired by y = x/(1-x); residual is the constant Y-system
    residual `constant_residual`; multiplicity_hint counts the multistart basins
    that converged here; branch records the Eq-style power-consistency diagnostics.
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
    """The solutions `solve_all` found, in a fixed order.  positive is the
    Solution of `solve_positive`, whose root the set holds; not serialised."""

    pair: str
    solutions: tuple
    dedup_tol: float
    starts: int
    seed: int
    meta: dict
    positive: Solution | None

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


def _integer_solve(g, w):
    """An integer z with g z = w (integer rows g), or None if there is none.

    Column echelon reduction: Euclid's algorithm along each row by column
    operations on g stacked over an identity, which carries the unimodular
    transform; then forward substitution along the pivots.  A Euclid step
    rebuilds only the columns with a nonzero entry in the current row."""
    rows, cols = len(g), len(g[0])
    free = [list(c) + [int(i == j) for i in range(cols)] for j, c in enumerate(zip(*g))]
    acc = [0] * (rows + cols)
    for i in range(rows):
        while sum(1 for c in free if c[i]) > 1:
            p = min((c for c in free if c[i]), key=lambda c: abs(c[i]))
            free = [c if c is p or not c[i] else [a - c[i] // p[i] * b for a, b in zip(c, p)]
                    for c in free]
        rem = w[i] - acc[i]
        pivot = next((j for j, c in enumerate(free) if c[i]), None)
        if rem and (pivot is None or rem % free[pivot][i]):
            return None
        if pivot is not None:
            col = free.pop(pivot)
            acc = [a + rem // col[i] * b for a, b in zip(acc, col)]
    return acc[rows:]


def nahm_branch_diagnostics(pair: PairIndexing, x, ctx: PrecisionContext = DEFAULT_CONTEXT) -> dict:
    """Check x_i = prod_j (1-x_j)^{a_ij} under explicit branch bookkeeping.

    principal_residual uses exp(sum_j a_ij Log(1-x_j)) with the principal Log.
    A consistent branch choice assigns one integer k_j to each Log(1-x_j), so
    that delta - A k is integral.  With P = 1 (x) C(X'), P A = C(X) (x) 1 is an
    integer matrix, so such k exist iff w = nint(P Re delta) solves
    (C(X) (x) 1) k + P m = w over the integers; `_integer_solve` decides this
    exactly.  k is reported mod the lcm of A's denominators, which leaves
    delta - A k mod Z^n unchanged, and the defect is the distance of
    Re delta - A k from Z^n (k None and the defect inf when no k exists).
    branch_ok needs the defect and delta_imag = max |Im delta|, the modulus
    half of the equation, both below 1e-12.
    """
    a, (g, den) = pair.nahm, pair.lattice
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
        z = _integer_solve(g, [int(mp.nint(mp.fsum(g[i][n + j] * dre[j] for j in range(n))))
                               for i in range(n)])
        k, defect = None, mp.inf
        if z is not None:
            k = tuple(v % den for v in z[:n])
            rest = [dre[i] - mp.fsum(af[i][j] * k[j] for j in range(n)) for i in range(n)]
            defect = max(abs(v - mp.nint(v)) for v in rest)
    return {
        "principal_residual": principal,
        "principal_ok": bool(principal < mp.mpf("1e-15")),
        "k": k,
        "branch_defect": defect,
        "branch_ok": bool(defect < mp.mpf("1e-12") and delta_im < mp.mpf("1e-12")),
        "delta_imag": delta_im,
    }


def _is_degenerate_vec(y) -> bool:
    return any(abs(v) < _DEGENERATE_MARGIN or abs(1 + v) < _DEGENERATE_MARGIN for v in y)


def _positive_start(pair: PairIndexing):
    """Float Newton on the Nahm potential from u = 1; y = e^u - 1 as mpf values.

    With u = -log(1 - x), the positive solution minimises the strictly convex
    F(u) = u.A.u / 2 + sum_i Li2(e^-u_i) on (0, oo)^n: the zero of
    grad F = A u + log x, whose Jacobian A + diag(e^-u / x) is positive definite.
    A step is halved until u stays in (0, oo)^n and max |grad F| drops (a search
    for grad F . du <= 0 refuses full steps that overshoot from above: rate 1/2),
    down to the rounding floor or for _FLOAT_MAX_ITER steps.  A is built from
    the adjacency the recurrence reads, which `perturbed_pair` may bump.
    """
    a = np.kron(2 * np.eye(pair.r) - pair.ix, np.linalg.inv(2 * np.eye(pair.rp) - pair.ixp))

    def grad(u):
        return a @ u + np.log(-np.expm1(-u))

    u = np.ones(pair.n)
    g = grad(u)
    for _ in range(_FLOAT_MAX_ITER):
        du = np.linalg.solve(a + np.diag(1 / np.expm1(u)), -g)
        # lam halves: once u + lam du rounds to u, so does every later trial, and none can pass
        trials = (u + lam * du for lam in 0.5 ** np.arange(_MAX_HALVINGS + 1))
        for trial in itertools.takewhile(lambda t: not np.array_equal(t, u), trials):
            if np.all(trial > 0) and np.max(np.abs(g_trial := grad(trial))) < np.max(np.abs(g)):
                break
        else:
            break
        u, g = trial, g_trial
    return [mp.mpf(v) for v in np.expm1(u).tolist()]


def _solution(pair, y, residual, count, info, ctx) -> Solution:
    """The Solution at a polished root y, with x = y/(1+y) and its branch diagnostics."""
    y = tuple(mp.mpc(v) for v in y)
    x = tuple(y_to_x(y, ctx))
    return Solution(x=x, y=y, residual=residual,
                    multiplicity_hint=count, branch=nahm_branch_diagnostics(pair, x, ctx),
                    newton=info)


def _polish(pair, system, y0, ctx):
    """(y, residual, info) for the root mp Newton reaches from y0; None if
    the run fails or ends unconverged, or the root is degenerate or misses
    tau_res."""
    result = _newton_mp(system, y0, ctx)
    if result is None or not result[1]["converged"] or _is_degenerate_vec(result[0]):
        return None
    y, info = result
    residual = constant_residual(pair, y, ctx)
    if residual >= ctx.tau_res:
        return None
    # Imaginary dust far below the polish resolution means a real root (the
    # system is real); snap it, keeping the residual guarantee.
    snapped = [mp.mpc(mp.re(v)) if abs(mp.im(v)) < mp.mpf("1e-35") else v for v in y]
    if snapped != list(y):
        snapped_residual = constant_residual(pair, snapped, ctx)
        if snapped_residual < ctx.tau_res:
            y, residual = snapped, snapped_residual
    return list(y), residual, info


def solve_positive(pair: PairIndexing, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Solution:
    """The solution with all x_i in (0, 1): one `_polish` run from the float
    start `_positive_start`.  Raises NoConvergence when the polish finds no
    root or the root leaves (0, 1).
    """
    system = NahmPolynomialSystem(pair)
    with ctx.workprec(32):
        found = _polish(pair, system, _positive_start(pair), ctx)
        if found is None:
            raise NoConvergence(f"positive solve for {pair.label} found no root within tau_res")
        y, residual, info = found
        sol = _solution(pair, y, residual, 1, info, ctx)
        if any(not (0 < mp.re(v) < 1) for v in sol.x):
            raise NoConvergence(f"positive solve for {pair.label} left (0,1)")
        return sol


def solve_all(pair: PairIndexing, budget: SearchBudget | None = None,
              ctx: PrecisionContext = DEFAULT_CONTEXT) -> SolutionSet:
    """Multistart Newton enumeration of nondegenerate solutions.

    Seeds are componentwise r*exp(i*theta) with log r uniform in [-1, 1] and
    theta uniform in [0, 2*pi).  All starts run as one batch of complex128
    damped Newton (`_newton_batch`); each row rounds as it would in a
    one-row batch.  Converged float candidates are deduplicated and go
    through `_polish`, joined by the all-positive solution of
    `solve_positive` if no start reached it, closed under complex
    conjugation, and deduplicated again at max-norm tolerance 1e-10.
    `solve_positive` raising NoConvergence raises here.  Determined entirely
    by (starts, seed, ctx) on a given numpy build.
    """
    budget = budget or SearchBudget()
    if pair.n > RANK_CAP:
        raise ValueError(f"pair size {pair.n} exceeds the multistart search cap {RANK_CAP}")
    system = NahmPolynomialSystem(pair)
    rng = np.random.default_rng(budget.seed)
    logr = rng.uniform(-1.0, 1.0, size=(budget.starts, pair.n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(budget.starts, pair.n))
    seeds = np.exp(logr) * np.exp(1j * theta)

    reps: list[list] = []  # [y_float, basin_count]
    stats = {"converged_starts": 0, "degenerate_hits": 0, "polish_rejections": 0}
    for root in _newton_batch(system, seeds):
        if root is None:
            continue
        stats["converged_starts"] += 1
        if _near_degenerate(root):
            stats["degenerate_hits"] += 1
            continue
        for rep in reps:
            if np.max(np.abs(rep[0] - root)) < _FLOAT_DEDUP:
                rep[1] += 1
                break
        else:
            reps.append([root, 1])

    polished: list[list] = []  # [y_mp(list), count, residual, info]

    def _merge(y0, count):
        """Polish y0; add the root, or count to an entry already at it."""
        found = _polish(pair, system, y0, ctx)
        if found is None:
            stats["polish_rejections"] += 1
            return
        y, residual, info = found
        for entry in polished:
            if max(abs(a - b) for a, b in zip(entry[0], y)) < DEDUP_TOL:
                entry[1] += count
                if residual < entry[2]:
                    entry[0], entry[2], entry[3] = y, residual, info
                return
        polished.append([y, count, residual, info])

    def _is_new(y):
        return all(max(abs(a - b) for a, b in zip(entry[0], y)) >= DEDUP_TOL for entry in polished)

    with ctx.workprec(32):
        for root, count in reps:
            _merge(list(root), count)

        # The all-positive solution always exists; add it if no basin reached
        # it, leaving an entry that already holds it untouched.
        positive = solve_positive(pair, ctx)
        if _is_new(positive.y):
            polished.append([positive.y, 1, positive.residual, positive.newton])

        # Conjugate closure: the defining polynomials are real, so the conjugate
        # of every root is a root; polish it in case its basin was missed.
        for entry in list(polished):
            conj = [mp.conj(v) for v in entry[0]]
            if _is_new(conj):
                _merge(conj, 1)

        polished.sort(key=lambda e: [(float(mp.re(v)), float(mp.im(v))) for v in e[0]])
        # an entry that still holds positive.y is the positive Solution itself
        solutions = tuple(positive if y is positive.y else _solution(pair, y, residual, count, info, ctx)
                          for y, count, residual, info in polished)
    return SolutionSet(pair=pair.label, solutions=solutions, dedup_tol=DEDUP_TOL,
                       starts=budget.starts, seed=budget.seed, meta=stats, positive=positive)
