"""Constancy-condition and dilogarithm-sum certification over S+.

The vanishing wedge sum  sum_{S+} d * Y ^ (1 + Y)  is tested through linear
functionals that kill every relation of the wedge construction:

* two evaluation points (a, b): the bilinear pairing
      M_pq = sum d * (d_p log Y(a) * d_q log(1+Y)(b)
                      - d_p log(1+Y)(a) * d_q log Y(b)),
  whose Frobenius norm must vanish; it stays informative for rank-1 pairs.
  Negative controls (a bumped recurrence exponent, or a single
  multiplicity d lowered by one) must push these residuals above 1e-3;
* single evaluation point a: the same pairing at b = a.  Each swapped
  product then rounds identically, so M is exactly antisymmetric: the
  gradient 2-form  sum d * grad log Y ^ grad log(1+Y).  For rank-1 pairs it
  is identically zero (a 1x1 antisymmetric matrix), so it cannot detect
  errors there.

Gradients with respect to the seed vector are computed by forward-mode
differentiation of the recurrence (jets); finite differences are kept as an
independent cross-check.
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
    "Jet",
    "WedgeResidual",
    "wedge_form_residual",
    "dilog_sum_over_Splus",
    "perturbed_pair",
    "log_gradients_fd",
]


class Jet:
    """Value plus gradient (forward-mode differentiation over mp complex)."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = tuple(grad)

    @classmethod
    def variable(cls, val, index, n):
        return cls(val, tuple(mp.mpc(1) if j == index else mp.mpc(0) for j in range(n)))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, tuple(a + b for a, b in zip(self.grad, other.grad)))
        return Jet(self.val + other, self.grad)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.val * other.val,
                tuple(a * other.val + self.val * b for a, b in zip(self.grad, other.grad)),
            )
        return Jet(self.val * other, tuple(a * other for a in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            inv = 1 / other.val
            v = self.val * inv
            return Jet(v, tuple((a - v * b) * inv for a, b in zip(self.grad, other.grad)))
        inv = 1 / other
        return Jet(self.val * inv, tuple(a * inv for a in self.grad))

    def __rtruediv__(self, other):
        # other / self with other a plain scalar
        inv = 1 / self.val
        v = other * inv
        return Jet(v, tuple(-v * inv * a for a in self.grad))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise TypeError("jets support nonnegative integer powers only")
        if e == 0:
            return Jet(self.val * 0 + 1, tuple(a * 0 for a in self.grad))
        v = self.val ** (e - 1)
        return Jet(v * self.val, tuple(e * v * a for a in self.grad))

    def __neg__(self):
        return Jet(-self.val, tuple(-a for a in self.grad))


def _jet_magnitude(v):
    return abs(v.val) if isinstance(v, Jet) else abs(v)


def _jet_grid(pair: PairIndexing, point, u_max: int, ctx: PrecisionContext) -> dict:
    """Jets of Y on the P+ sublattice for -1 <= u <= u_max.

    Seeds carry unit gradients with respect to the seed vector y:
    Y(0) = y on the u=0 actives, Y(-1) = 1/y on the u=-1 actives.
    """
    n = pair.n
    y = [Jet.variable(v, k, n) for k, v in enumerate(ysystem._seeds(pair, point, ctx.tau_res))]
    levels = ysystem._levels(pair, {k: 1 / y[k] for k in pair.active_indices(-1)},
                             {k: y[k] for k in pair.active_indices(0)},
                             u_max, ctx.tau_res, _jet_magnitude, pair.active_indices)
    return {(k, u): jet for u, level in levels.items() for k, jet in level.items()}


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
    point_b: tuple | None
    residual: object  # mpf
    size: int


def wedge_form_residual(pair: PairIndexing, point, ctx: PrecisionContext = DEFAULT_CONTEXT, *,
                        point_b=None, d_override=None) -> WedgeResidual:
    """Evaluate the gradient realization of the wedge constancy condition.

    The two-point bilinear pairing at (point, point_b); point_b=None means
    b = a, the single-point 2-form, which is exactly antisymmetric and
    identically 0 at rank 1.  Both vanish on a correct recurrence with the
    correct per-element multiplicities.
    """
    n = pair.n
    with ctx.workprec(32):
        try:
            ja = _jet_grid(pair, point, pair.period - 1, ctx)
            jb = ja if point_b is None else _jet_grid(pair, point_b, pair.period - 1, ctx)
        except DegenerateStep as exc:
            raise DegeneratePoint(f"degenerate trajectory from evaluation point: {exc}") from exc
        m = [[mp.mpc(0) for _ in range(n)] for _ in range(n)]
        for (k, u) in pair.S_plus():
            d = _resolve_d(pair, d_override, k, u)
            a = ja[(k, u)]
            b = jb[(k, u)]
            ga = [g / a.val for g in a.grad]
            ha = [g / (1 + a.val) for g in a.grad]
            gb = [g / b.val for g in b.grad]
            hb = [g / (1 + b.val) for g in b.grad]
            for p in range(n):
                gap, hap = ga[p], ha[p]
                row = m[p]
                for q in range(n):
                    row[q] += d * (gap * hb[q] - hap * gb[q])
        frob = mp.sqrt(mp.fsum(abs(m[p][q]) ** 2 for p in range(n) for q in range(n)))
    return WedgeResidual(
        pair=pair.label,
        point=tuple(to_mpc(v) for v in point),
        point_b=None if point_b is None else tuple(to_mpc(v) for v in point_b),
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


def log_gradients_fd(pair: PairIndexing, point, k: int, u: int,
                     ctx: PrecisionContext = DEFAULT_CONTEXT, step="1e-20"):
    """Central-difference gradients of log Y_k(u) and log(1+Y_k(u)).

    Independent cross-check for the forward-mode jets; runs at >= 256 bits so
    the O(step) cancellation leaves ample accuracy.
    """
    bits = max(ctx.mantissa_bits, 256)
    fd_ctx = replace(ctx, mantissa_bits=bits)
    with fd_ctx.workprec(32):
        h = mp.mpf(step)
        base = [to_mpc(v) for v in point]
        glog_y, glog_1py = [], []
        for p in range(pair.n):
            shifted = []
            for sgn in (1, -1):
                pt = list(base)
                pt[p] = pt[p] + sgn * h
                traj = ysystem.iterate(pair, pt, u, fd_ctx)
                shifted.append(traj.values[(k, u)])
            vp, vm = shifted
            glog_y.append((mp.log(vp) - mp.log(vm)) / (2 * h))
            glog_1py.append((mp.log(1 + vp) - mp.log(1 + vm)) / (2 * h))
        return glog_y, glog_1py
