"""Constancy-condition and dilogarithm-sum certification over S+.

The vanishing wedge sum  sum_{S+} d * Y ^ (1 + Y)  is tested through the
bilinear pairing of its logarithmic gradients at two evaluation points (a, b).
With x = Y/(1+Y) one has grad log(1+Y) = x * grad log Y, so writing
G = grad log Y the pairing is the n x n matrix

    M = sum_{S+} d * (x(b) - x(a)) * G(a) G(b)^T,

which must vanish.  It is read through bilinear probes v^T M w, never formed
(Freivalds 1977; Schwartz 1980): v^T M w is a polynomial in the entries of v
and w, nonzero for almost every choice when M is, and needs only the
directional gradients G(a).v and G(b).w.  The probe directions are fixed per
n by a seeded generator of this module, so a call repeats bit for bit and
draws nothing from the caller's RNG.  By default b = 1/a componentwise.  At
b = a every term is the wedge of two parallel vectors and M is exactly 0
whatever the recurrence, so a single point carries no information.  Negative
controls (a bumped recurrence exponent, or a single multiplicity d lowered by
one) must push the residual above 1e-3.

The directional gradients come from the tangent (linearized) Y-system on the
same P+ levels as the values (`_tangent_grid`); the tests cross-check it
against central finite differences of the recurrence, and the probes against
the full pairing that the identity directions give.
The dilogarithm sum reads its x = Y/(1+Y) off the same P+ grid.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .bloch import bloch_wigner
from .dynkin import PairIndexing
from .errors import DegeneratePoint, DegenerateStep
from .precision import DEFAULT_CONTEXT, PrecisionContext, to_mpc
from . import ysystem

__all__ = [
    "WedgeResidual",
    "wedge_form_residual",
    "dilog_sum_over_Splus",
    "perturbed_pair",
]


def _tangent_grid(pair: PairIndexing, point, u_max: int, ctx: PrecisionContext, directions) -> dict:
    """(Y, x, g) on the P+ sublattice for -1 <= u <= u_max, where x = Y/(1+Y)
    and g lists G.v for each direction v in `directions`, G = grad log Y with
    respect to the seed vector y.

    Y comes from the recurrence seeded by `ysystem._seeds`.  Taking logs of
    the recurrence, with d log(1+Y) = x d log Y and d log(1+1/Y) = (x-1) d log Y,
    gives the linear tangent recurrence on the plan `pair.factors`:
        g_k(u+1) = sum_ups m x_j(u) g_j(u) + sum_downs m (1-x_j(u)) g_j(u) - g_k(u-1),
    seeded by g_k(0) = v_k/y_k and g_k(-1) = -v_k/y_k.  The identity
    directions e_1, ..., e_n give the full gradient G; `dilog_sum_over_Splus`
    passes none and reads only the values.
    """
    tol, active = mp.mpf(ctx.tau_res), pair.active_indices
    y = ysystem._seeds(pair, point, tol)
    levels = ysystem._levels(pair, {k: 1 / y[k] for k in active(-1)},
                             {k: y[k] for k in active(0)}, u_max, ysystem._table(y, tol), active)
    xs, grads = {}, {}
    for u, level in levels.items():
        for k, v in level.items():
            if abs(1 + v) <= tol:
                raise DegenerateStep("1+Y vanished", index=pair.indices[k], u=u)
            xs[k, u] = v / (1 + v)
    for u, sign in ((-1, -1), (0, 1)):
        for k in active(u):
            grads[k, u] = [sign * v[k] / y[k] for v in directions]
    for u in range(u_max):
        for k in active(u + 1):
            ups, downs = pair.factors[k]
            terms = [(j, m * xs[j, u]) for j, m in ups] + [(j, m * (1 - xs[j, u])) for j, m in downs]
            g = [-a for a in grads[k, u - 1]]
            for j, c in terms:
                g = [a + c * b for a, b in zip(g, grads[j, u])]
            grads[k, u + 1] = g
    return {(k, u): (levels[u][k], xs[k, u], g) for (k, u), g in grads.items()}


def _resolve_d(pair: PairIndexing, d_override, k: int, u: int) -> int:
    if d_override is None:
        return pair.d
    if isinstance(d_override, int):
        return d_override
    return d_override.get((k, u), pair.d)


# Bilinear probes of the wedge pairing per call, and the seed of their directions.
_PROBES = 2
_PROBE_SEED = 1977


@functools.cache
def _probe_directions(n: int) -> tuple:
    """The (v, w) pairs of real Gaussian n-vectors that probe an n x n
    pairing, min(n, _PROBES) of them; fixed per n."""
    rng = np.random.default_rng(_PROBE_SEED)
    return tuple(map(tuple, rng.standard_normal((min(n, _PROBES), 2, n)).tolist()))


@dataclass(frozen=True)
class WedgeResidual:
    """Largest normalised bilinear probe of the d-weighted gradient pairing over S+."""

    pair: str
    residual: object  # mpf


def wedge_form_residual(pair: PairIndexing, point, ctx: PrecisionContext = DEFAULT_CONTEXT, *,
                        point_b=None, d_override=None) -> WedgeResidual:
    """max over the probes (v, w) of |v^T M w| / (|v| |w|), where
    M = sum_{S+} d * (x(b) - x(a)) * G(a) G(b)^T  at a = point and
    b = point_b, with x = Y/(1+Y) and G = grad log Y.

    point_b=None means b = 1/a componentwise.  M vanishes on a correct
    recurrence with the correct per-element multiplicities; at b = a it is
    exactly 0 on any recurrence.  The residual is at most the Frobenius norm
    of M, and equals |M| when n = 1.
    """
    probes = _probe_directions(pair.n)
    with ctx.workprec(32):
        try:
            ta = _tangent_grid(pair, point, pair.period - 1, ctx, [v for v, _ in probes])
            b = [1 / to_mpc(v) for v in point] if point_b is None else point_b
            tb = _tangent_grid(pair, b, pair.period - 1, ctx, [w for _, w in probes])
        except DegenerateStep as exc:
            raise DegeneratePoint(f"degenerate trajectory from evaluation point: {exc}") from exc
        sums = [mp.mpc(0)] * len(probes)
        for (k, u) in pair.S_plus():
            _, xa, ga = ta[k, u]
            _, xb, gb = tb[k, u]
            c = _resolve_d(pair, d_override, k, u) * (xb - xa)
            sums = [s + c * p * q for s, p, q in zip(sums, ga, gb)]
        residual = max(abs(s) / (mp.norm(v) * mp.norm(w)) for s, (v, w) in zip(sums, probes))
    return WedgeResidual(pair=pair.label, residual=residual)


def dilog_sum_over_Splus(pair: PairIndexing, point, ctx: PrecisionContext = DEFAULT_CONTEXT, *,
                         d_override=None):
    """Signed sum  sum_{(i,u) in S+} d * D(Y_i(u) / (1 + Y_i(u)))  at the point.

    Vanishes (|sum| < 1e-18 at working precision) for every nondegenerate
    evaluation point; the sum is independent of the point altogether.  x is
    read off the P+ grid `_tangent_grid`, which the wedge check also builds.
    """
    with ctx.workprec():
        try:
            grid = _tangent_grid(pair, point, pair.period - 1, ctx, [])
        except DegenerateStep as exc:
            raise DegeneratePoint(f"degenerate trajectory from evaluation point: {exc}") from exc
        total = mp.mpf(0)
        for (k, u) in pair.S_plus():
            total += _resolve_d(pair, d_override, k, u) * bloch_wigner(grid[k, u][1], ctx)
        return total


def perturbed_pair(pair: PairIndexing, side: str, i: int, j: int, delta: int = 1) -> PairIndexing:
    """Copy of the indexing with one adjacency exponent bumped.

    Negative-control diagnostic: the bumped recurrence no longer satisfies
    the constancy condition, so the residuals above must blow up.  Without a
    tadpole, P+ values read only the other colour, so the bump must join two
    vertices of different colours.
    """
    if side not in ("x", "xp"):
        raise ValueError("side must be 'x' or 'xp'")
    rows = [list(r) for r in (pair.ix if side == "x" else pair.ixp)]
    if not (0 <= i < len(rows) and 0 <= j < len(rows)):
        raise ValueError(f"bump ({i},{j}) outside the {len(rows)}-vertex diagram on side {side}")
    ends = [pair.index_of(v, 0) if side == "x" else pair.index_of(0, v) for v in (i, j)]
    if not pair.degenerate and pair.eps[ends[0]] == pair.eps[ends[1]]:
        raise ValueError(f"bump ({i},{j}) on side {side} joins two vertices of the same colour")
    rows[i][j] += delta
    bumped = tuple(tuple(r) for r in rows)
    if side == "x":
        return replace(pair, ix=bumped)
    return replace(pair, ixp=bumped)
