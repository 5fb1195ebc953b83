"""Constancy-condition and dilogarithm-sum certification over S+.

The vanishing wedge sum  sum_{S+} d * Y ^ (1 + Y)  is tested through the
bilinear pairing of its logarithmic gradients at two evaluation points (a, b).
With x = Y/(1+Y) one has grad log(1+Y) = x * grad log Y, so writing
G = grad log Y the pairing is

    M = sum_{S+} d * (x(b) - x(a)) * G(a) G(b)^T,

whose Frobenius norm must vanish.  By default b = 1/a componentwise.  At
b = a every term is the wedge of two parallel vectors and M is exactly 0
whatever the recurrence, so a single point carries no information.  Negative
controls (a bumped recurrence exponent, or a single multiplicity d lowered by
one) must push the residual above 1e-3.

G is computed by the tangent (linearized) Y-system on the same P+ levels as
the values (`_tangent_grid`); the tests cross-check it against central finite
differences of the recurrence.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath as mp

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


def _tangent_grid(pair: PairIndexing, point, u_max: int, ctx: PrecisionContext) -> dict:
    """(Y, x, G) on the P+ sublattice for -1 <= u <= u_max, where x = Y/(1+Y)
    and G = grad log Y with respect to the seed vector y.

    Y comes from the recurrence seeded by `ysystem._seeds`.  Taking logs of
    the recurrence, with d log(1+Y) = x d log Y and d log(1+1/Y) = (x-1) d log Y,
    gives the linear tangent recurrence on the plan `pair.factors`:
        G_k(u+1) = sum_ups m x_j(u) G_j(u) + sum_downs m (1-x_j(u)) G_j(u) - G_k(u-1),
    seeded by G(0) = e_k/y_k and G(-1) = -e_k/y_k.
    """
    n, tol, active = pair.n, mp.mpf(ctx.tau_res), pair.active_indices
    y = ysystem._seeds(pair, point, tol)
    levels = ysystem._levels(pair, {k: 1 / y[k] for k in active(-1)},
                             {k: y[k] for k in active(0)}, u_max, tol, active)
    xs, grads = {}, {}
    for u, level in levels.items():
        for k, v in level.items():
            if abs(1 + v) <= tol:
                raise DegenerateStep("1+Y vanished", index=pair.indices[k], u=u)
            xs[k, u] = v / (1 + v)
    for u, sign in ((-1, -1), (0, 1)):
        for k in active(u):
            grads[k, u] = [sign / y[k] if q == k else 0 for q in range(n)]
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


@dataclass(frozen=True)
class WedgeResidual:
    """Frobenius norm of the d-weighted gradient pairing summed over S+."""

    pair: str
    point: tuple
    point_b: tuple
    residual: object  # mpf
    size: int


def wedge_form_residual(pair: PairIndexing, point, ctx: PrecisionContext = DEFAULT_CONTEXT, *,
                        point_b=None, d_override=None) -> WedgeResidual:
    """Frobenius norm of  M = sum_{S+} d * (x(b) - x(a)) * G(a) G(b)^T  at
    a = point and b = point_b, with x = Y/(1+Y) and G = grad log Y.

    point_b=None means b = 1/a componentwise.  M vanishes on a correct
    recurrence with the correct per-element multiplicities; at b = a it is
    exactly 0 on any recurrence.
    """
    n = pair.n
    with ctx.workprec(32):
        try:
            ta = _tangent_grid(pair, point, pair.period - 1, ctx)
            b = [1 / to_mpc(v) for v in point] if point_b is None else point_b
            tb = _tangent_grid(pair, b, pair.period - 1, ctx)
        except DegenerateStep as exc:
            raise DegeneratePoint(f"degenerate trajectory from evaluation point: {exc}") from exc
        m = [[mp.mpc(0)] * n for _ in range(n)]
        for (k, u) in pair.S_plus():
            _, xa, ga = ta[k, u]
            _, xb, gb = tb[k, u]
            c = _resolve_d(pair, d_override, k, u) * (xb - xa)
            for p in range(n):
                cp = c * ga[p]
                m[p] = [e + cp * g for e, g in zip(m[p], gb)]
        frob = mp.sqrt(mp.fsum(abs(e) ** 2 for row in m for e in row))
    return WedgeResidual(
        pair=pair.label,
        point=tuple(to_mpc(v) for v in point),
        point_b=tuple(to_mpc(v) for v in b),
        residual=frob,
        size=n,
    )


def dilog_sum_over_Splus(pair: PairIndexing, point, ctx: PrecisionContext = DEFAULT_CONTEXT, *,
                         d_override=None):
    """Signed sum  sum_{(i,u) in S+} d * D(Y_i(u) / (1 + Y_i(u)))  at the point.

    Vanishes (|sum| < 1e-18 at working precision) for every nondegenerate
    evaluation point; the sum is independent of the point altogether.
    """
    with ctx.workprec():
        try:
            traj = ysystem.iterate(pair, list(point), pair.period - 1, ctx)
        except DegenerateStep as exc:
            raise DegeneratePoint(f"degenerate trajectory from evaluation point: {exc}") from exc
        total = mp.mpf(0)
        for (k, u) in pair.S_plus():
            yv = traj.values[(k, u)]
            w = 1 + yv
            if abs(w) <= ctx.tau_res:
                raise DegeneratePoint(f"1 + Y vanished at index {pair.indices[k]}, u={u}")
            total += _resolve_d(pair, d_override, k, u) * bloch_wigner(yv / w, ctx)
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
