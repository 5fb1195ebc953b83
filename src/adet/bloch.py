"""High-precision dilogarithms and the torsion criterion.

li2 and bloch_wigner share one integer fixed-point kernel.  It takes log|z|,
log|1-z|, arg z and arg(1-z) once from mpmath's libmp and evaluates Li_2 by
the Bernoulli series in u = -log(1-w) (Zagier, "The dilogarithm function",
2007): at w = z while |u| <= 1, otherwise at whichever of w = z, 1-z
(reflection), 1/z (inversion) has the smallest |u|, which is at most pi/3
(reached at exp(+-i pi/3)).  So |u| <= pi/3, and at 128 bits the series needs
at most 38 terms, with real coefficients cached per working precision: a
real second-order recurrence in (u / 2 pi)^2 sums it at two products a term
(Knuth, TAOCP vol. 2, 4.6.4).  On the cut [1, oo) the limit from the lower
half-plane is used: with arg(1-x) = pi for x > 1 this is exactly the
convention making the Bloch-Wigner function vanish on the real line.

D(z) = Im Li_2(z) + log|z| * arg(1-z) is single-valued, real-analytic off
{0, 1}, and satisfies D(conj z) = -D(z), the two-term relations
D(z) + D(1-z) = D(z) + D(1/z) = 0, and the five-term relation.  The kernel
computes D from Li_2 alone, never through these symmetries, so the checks of
them stay independent of how D is evaluated.

relation_residuals checks the five-term, reflection and inversion relations
at one point (x, y) from the logarithms of five letters x, y, 1-x, 1-y and
w = 1-xy: every argument of the relations, and every 1 - argument, is a
signed product of letters, so its logarithms are integer sums of theirs.
That is an identity of logarithms, not of dilogarithms: each D still runs
its own series.  The derived arguments are exact rather than rounded to the
working precision.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from .errors import DegenerateInput
from .precision import DEFAULT_CONTEXT, GUARD_BITS, PrecisionContext, raw_mpc, to_mpc

__all__ = [
    "li2",
    "bloch_wigner",
    "five_term_residual",
    "relation_residuals",
    "xi_D",
    "torsion_check",
    "rogers_L",
    "central_charge_at",
    "central_charge_probe",
    "CentralChargeProbe",
    "TORSION_TOLERANCE",
]

TORSION_TOLERANCE = 1e-18

# Fraction bits the kernel carries beyond the precision it rounds to; they
# absorb the rounding of the series and of the reduction formulas.
_FIXED_GUARD = 24

# Fixed-point fraction bits -> [B_k (2 pi)^(k+1) / (k+1)! for k = 2, 4, 6, ...]
# scaled by 2^bits.  A list is extended by storing a longer copy, never in
# place, so concurrent callers cannot interleave appends.
_SERIES_COEFFS: dict[int, list[int]] = {}


def _series_coeffs(n: int, wp: int) -> list[int]:
    coeffs = _SERIES_COEFFS.get(wp, [])
    if len(coeffs) < n:
        with mp.workprec(wp + 16):
            coeffs = _SERIES_COEFFS[wp] = coeffs + [
                int(mp.ldexp(mp.bernoulli(k) * (2 * mp.pi) ** (k + 1) / mp.factorial(k + 1), wp))
                for k in range(2 * len(coeffs) + 2, 2 * n + 2, 2)]
    return coeffs


def _log_fixed(r, i, wp: int):
    """(log|z|, arg z) scaled by 2^wp for z = r + i*i given as libmp values,
    z not 0; arg z in (-pi, pi] as mpf_atan2 rounds it."""
    rnd = libmp.round_nearest
    return (libmp.to_fixed(libmp.mpf_log_hypot(r, i, wp, rnd), wp),
            libmp.to_fixed(libmp.mpf_atan2(i, r, wp, rnd), wp))


def _one_minus(r, i, wp: int):
    """1 - z for z = r + i*i given as libmp values, rounded to wp bits."""
    return libmp.mpf_sub(libmp.fone, r, wp, libmp.round_nearest), libmp.mpf_neg(i)


def _logs(r, i, wp: int):
    """log z and log(1-z) for _li2_fixed, with 1 - z formed at wp bits."""
    return _log_fixed(r, i, wp), _log_fixed(*_one_minus(r, i, wp), wp)


def _series(zr, zi, n: int, wp: int):
    """p(s) = sum_{k < n} c_k s^k at s = zr + i*zi, scaled by 2^wp, as _li2_fixed says."""
    coeffs = _series_coeffs(n, wp)[:n] or [0]
    t, m = 2 * zr, (zr * zr + zi * zi) >> wp
    b1 = b2 = 0
    for c in reversed(coeffs[1:]):
        b1, b2 = c + ((t * b1 - m * b2) >> wp), b1
    return coeffs[0] + ((zr * b1 - m * b2) >> wp), (zi * b1) >> wp


def _li2_fixed(lz, l1, wp: int):
    """(Re Li_2(z), Im Li_2(z), log|z| arg(1-z)) scaled by 2^wp, from
    lz = log z and l1 = log(1-z) as _log_fixed gives them, z not 0 or 1.

    Li_2(w) = u - u^2/4 + v^3 p(v^2), u = -log(1-w), v = u / (2 pi), where
    p(s) = sum_{k < n} c_k s^k, c_k = B_(2k+2) (2 pi)^(2k+3) / (2k+3)!, n fixed
    from |v|.  _series divides p by (t - s)(t - conj s): b_k = c_k + 2 Re s b_(k+1)
    - |s|^2 b_(k+2) for k = n-1 down to 1, then p(s) = c_0 + s b_1 - |s|^2 b_2.
    On the real line the chosen |u| is at most 1, while a w on the cut
    [1, oo) would have |Im u| = pi, so w never lands on the cut.
    """
    (lzr, lzi), (l1r, l1i) = lz, l1
    pi = libmp.pi_fixed(wp)
    inv_i = l1i - lzi + pi  # arg(1 - 1/z) = arg(1-z) - arg z + pi, into (-pi, pi]
    if inv_i > pi:
        inv_i -= 2 * pi
    # log(1-w) for w = z, 1-z, 1/z.  w = z is kept while |log(1-z)| <= 1, so
    # that D(z) and D(1-z) or D(1/z) do not always share one series value and
    # the reflection and inversion checks still test the series; past that
    # the smallest is taken, which is at most pi/3
    logs = ((l1r, l1i), (lzr, lzi), (l1r - lzr, inv_i))
    size = [a * a + b * b for a, b in logs]
    branch = 0 if size[0] <= 1 << 2 * wp else min(range(3), key=size.__getitem__)
    ur, ui = -logs[branch][0], -logs[branch][1]
    two_pi = 2 * pi
    vr, vi = (ur << wp) // two_pi, (ui << wp) // two_pi
    v2r, v2i = (vr * vr - vi * vi) >> wp, (2 * vr * vi) >> wp
    # |u| <= pi/3 makes |v|^2 < 2^-d with d = wp - q.bit_length() >= 5; every
    # coefficient is below 7 in size, so the terms past the first
    # (wp + 3) / d sum to under 2^-wp.  An error in b_j reaches b_k at most
    # (j-k+1) |s|^(j-k) times, |s| = |v|^2 <= 1/36 < 0.028: none is amplified
    q = (vr * vr + vi * vi) >> wp
    n = -(-(wp + 3) // (wp - q.bit_length())) if q else 0
    sr, si = _series(v2r, v2i, n, wp)
    v3r, v3i = (v2r * vr - v2i * vi) >> wp, (v2r * vi + v2i * vr) >> wp
    br = ur - ((ur * ur - ui * ui) >> (wp + 2)) + ((sr * v3r - si * v3i) >> wp)
    bi = ui - ((ur * ui) >> (wp + 1)) + ((sr * v3i + si * v3r) >> wp)
    pi2_6 = (pi * pi >> wp) // 6
    if branch == 0:
        re, im = br, bi
    elif branch == 1:  # Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z)
        re = pi2_6 - ((lzr * l1r - lzi * l1i) >> wp) - br
        im = -((lzr * l1i + lzi * l1r) >> wp) - bi
    else:  # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2, arg(-z) = arg z -+ pi
        # z is on the upper side of the cut when arg z > 0, or when arg(1-z)
        # < 0 while arg z, far below the resolution, reads 0
        mi = lzi - pi if lzi > 0 or l1i < 0 else lzi + pi
        re = -pi2_6 - ((lzr * lzr - mi * mi) >> (wp + 1)) - br
        im = -((lzr * mi) >> wp) - bi
    return re, im, (lzr * l1i) >> wp


def _round(x: int, wp: int, prec: int):
    return libmp.from_man_exp(x, -wp, prec, libmp.round_nearest)


def li2(z, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Principal-branch dilogarithm, rounded to mantissa_bits + 2 GUARD_BITS.

    The fixed-point kernel carries _FIXED_GUARD bits beyond that and sums
    the Bernoulli series at w = z while |log(1-z)| <= 1, otherwise at
    whichever of w = z, 1-z, 1/z has the smallest |log(1-w)|, and returns
    through the reflection or inversion formula.
    For real z > 1 (the branch cut) the value is the limit from the lower
    half-plane, i.e. Im Li2(x) = -pi*log(x); this is the convention recorded
    by the toolkit and the one under which D vanishes on the real line.
    Real z <= 1 gives a real mpf.
    """
    prec = ctx.mantissa_bits + 2 * GUARD_BITS
    with mp.workprec(prec):
        zz = to_mpc(z)
        zr, zi = raw_mpc(zz)
        if zi == libmp.fzero and zr in (libmp.fzero, libmp.fone):
            return mp.pi ** 2 / 6 if zr == libmp.fone else mp.mpf(0)
    wp = prec + _FIXED_GUARD
    re, im, _ = _li2_fixed(*_logs(zr, zi, wp), wp)
    if zi == libmp.fzero and libmp.mpf_le(zr, libmp.fone):
        return mp.make_mpf(_round(re, wp, prec))
    return mp.make_mpc((_round(re, wp, prec), _round(im, wp, prec)))


def bloch_wigner(z, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Bloch-Wigner function D(z) = Im Li2(z) + log|z| arg(1-z), rounded to
    mantissa_bits + GUARD_BITS.

    Exactly-real inputs (including 0 and 1, by continuity) return an exact 0:
    D vanishes identically on the real line.
    """
    zz = to_mpc(z)
    if mp.im(zz) == 0:
        return mp.mpf(0)
    wp = ctx.mantissa_bits + 2 * GUARD_BITS + _FIXED_GUARD
    _, im, d_term = _li2_fixed(*_logs(*zz._mpc_, wp), wp)
    return mp.make_mpf(_round(im + d_term, wp, ctx.mantissa_bits + GUARD_BITS))


# The distinct arguments z of the five-term, reflection and inversion
# relations, with log z and log(1-z) as integer sums over the letters
# (0) x, (1) y, (2) 1-x, (3) 1-y, (4) w = 1-xy, given as (letter, exponent)
# pairs, and the half turns i pi that log(1-z) adds.
_RELATION_ARGUMENTS = (
    (((0, 1),), ((2, 1),), 0),                           # x
    (((4, 1),), ((0, 1), (1, 1)), 0),                    # w, 1 - w = xy
    (((1, 1),), ((3, 1),), 0),                           # y
    (((3, 1), (4, -1)), ((1, 1), (2, 1), (4, -1)), 0),   # (1-y)/w, 1 - it = y(1-x)/w
    (((2, 1), (4, -1)), ((0, 1), (3, 1), (4, -1)), 0),   # (1-x)/w, 1 - it = x(1-y)/w
    (((2, 1),), ((0, 1),), 0),                           # 1-x
    (((0, -1),), ((2, 1), (0, -1)), 1),                  # 1/x, 1 - it = -(1-x)/x
)


def _relation_terms(x, y, ctx: PrecisionContext):
    """D at each argument of _RELATION_ARGUMENTS, rounded as bloch_wigner rounds."""
    wp = ctx.mantissa_bits + 2 * GUARD_BITS + _FIXED_GUARD
    xr, xi = raw_mpc(to_mpc(x))
    yr, yi = raw_mpc(to_mpc(y))
    zero = (libmp.fzero, libmp.fzero)
    w = _one_minus(*libmp.mpc_mul((xr, xi), (yr, yi), wp, libmp.round_nearest), wp)
    if w == zero:
        raise DegenerateInput("1 - x*y = 0")
    letters = ((xr, xi), (yr, yi), _one_minus(xr, xi, wp), _one_minus(yr, yi, wp), w)
    logs = [None if letter == zero else _log_fixed(*letter, wp) for letter in letters]
    pi = libmp.pi_fixed(wp)
    terms = []
    for z, one_minus_z, half_turns in _RELATION_ARGUMENTS:
        # D vanishes at z = 0, 1, oo (a zero letter) and on the real line
        if (any(logs[k] is None for k, _ in z + one_minus_z)
                or all(letters[k][1] == libmp.fzero for k, _ in z)):
            terms.append(mp.mpf(0))
            continue
        lzr, lzi, l1r, l1i = 0, 0, 0, half_turns * pi
        for k, e in z:
            lzr, lzi = lzr + e * logs[k][0], lzi + e * logs[k][1]
        for k, e in one_minus_z:
            l1r, l1i = l1r + e * logs[k][0], l1i + e * logs[k][1]
        # arg z into (-pi, pi].  Im(1-z) = -Im z, so arg(1-z) takes the sign
        # opposite to arg z, as the kernel reads the side of the cut (upper iff
        # arg z > 0).  A sum rounded across +-pi would pair the two sides, and
        # just above or below (1, oo) put D off by 2 pi log|z|
        lzi += 2 * pi * ((pi - lzi) // (2 * pi))
        l1i += 2 * pi * (((pi // 2 if lzi > 0 else 3 * pi // 2) - l1i) // (2 * pi))
        _, im, d_term = _li2_fixed((lzr, lzi), (l1r, l1i), wp)
        terms.append(mp.make_mpf(_round(im + d_term, wp, ctx.mantissa_bits + GUARD_BITS)))
    return terms


def relation_residuals(x, y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """(five-term, reflection, inversion) residuals at one point:
    |D(x) + D(1-xy) + D(y) + D((1-y)/(1-xy)) + D((1-x)/(1-xy))|,
    |D(x) + D(1-x)| and |D(x) + D(1/x)|.

    Every argument z, and every 1 - z, is a signed product of the letters
    x, y, 1-x, 1-y and w = 1-xy, so log z and log(1-z) are integer sums of
    the letters' logarithms, each taken once: 10 libmp transcendentals per
    point where eight bloch_wigner calls take 32.  The sharing is an
    identity of logarithms, not of dilogarithms: each of the seven distinct
    D values (D(x) serves all three relations) runs its own series.  The
    derived arguments are therefore exact, not rounded to the working
    precision first.  D at x, y and 1-x is bit-identical to bloch_wigner
    there, except where Im z is positive but below the fixed-point
    resolution just above the cut (1, oo): there the two may read the cut
    from opposite sides, each consistently, and D, continuous across it,
    agrees to rounding.  Sums round left to right at mantissa_bits + GUARD_BITS.
    1 - xy = 0 raises DegenerateInput.
    """
    d_x, d_w, d_y, d_a, d_b, d_1x, d_inv = (d._mpf_ for d in _relation_terms(x, y, ctx))
    add = functools.partial(libmp.mpf_add, prec=ctx.mantissa_bits + GUARD_BITS, rnd=libmp.round_nearest)
    sums = functools.reduce(add, (d_w, d_y, d_a, d_b), d_x), add(d_x, d_1x), add(d_x, d_inv)
    return tuple(mp.make_mpf(libmp.mpf_abs(s)) for s in sums)


# no caller in the library: perfbench/tracing.py patches it by name
def five_term_residual(x, y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """|D(x) + D(1-xy) + D(y) + D((1-y)/(1-xy)) + D((1-x)/(1-xy))|, the first
    entry of relation_residuals."""
    return relation_residuals(x, y, ctx)[0]


def xi_D(solution, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """sum_i D(x_i) over the components of a solution (or any iterable)."""
    xs = getattr(solution, "x", solution)
    with ctx.workprec():
        return mp.fsum(bloch_wigner(x, ctx) for x in xs)


def torsion_check(solutions, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple:
    """The necessary torsion condition: |sum_i D(x_i)| for each solution of
    the set, in its order.  It is 0 at a torsion point, so at the working
    precision it reads below TORSION_TOLERANCE.  An empty set raises
    DegenerateInput."""
    if not solutions.solutions:
        raise DegenerateInput("empty solution set")
    return tuple(abs(xi_D(sol, ctx)) for sol in solutions.solutions)


def rogers_L(x, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Rogers dilogarithm L(x) = Li2(x) + log(x) log(1-x) / 2 for x in (0, 1)."""
    with ctx.workprec():
        xv = mp.mpf(x)
        if not (0 < xv < 1):
            raise DegenerateInput(f"rogers_L requires x in (0, 1), got {x}")
        return li2(xv, ctx) + mp.log(xv) * mp.log(1 - xv) / 2


@dataclass(frozen=True)
class CentralChargeProbe:
    pair: str
    value: object          # mpf: sum_i L(x_i) / L(1) at the solution evaluated
    rational: Fraction
    error: object          # mpf: |value - rational|


def central_charge_at(pair, solution, ctx: PrecisionContext) -> CentralChargeProbe:
    """Evaluate sum_i L(x_i)/L(1) at a solution with every x_i in (0, 1)
    against the exact central charge c = r r' h / (h + h')."""
    frac = Fraction(pair.r * pair.rp * pair.h, pair.h + pair.hp)
    with ctx.workprec():
        l_one = mp.pi ** 2 / 6
        total = mp.fsum(rogers_L(mp.re(x), ctx) for x in solution.x)
        value = total / l_one
        err = abs(value - mp.mpf(frac.numerator) / frac.denominator)
    return CentralChargeProbe(pair=pair.label, value=value, rational=frac, error=err)


def central_charge_probe(pair, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CentralChargeProbe:
    """`central_charge_at` the all-positive solution of `solve_positive`."""
    from .solver import solve_positive  # deferred: keeps this module import-light

    return central_charge_at(pair, solve_positive(pair, ctx), ctx)
