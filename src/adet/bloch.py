"""High-precision dilogarithms and the torsion criterion.

li2 and bloch_wigner share one integer fixed-point kernel.  It takes log|z|,
log|1-z|, arg z and arg(1-z) once from mpmath's libmp and evaluates Li_2 by
the Bernoulli series in u = -log(1-w) (Zagier, "The dilogarithm function",
2007): at w = z while |u| <= 1, otherwise at whichever of w = z, 1-z
(reflection), 1/z (inversion) has the smallest |u|, which is at most pi/3
(reached at exp(+-i pi/3)).  So |u| <= 1, and at 128 bits the series needs
at most 38 terms; its coefficients are cached per working precision.  On the
cut [1, oo) the limit from the lower half-plane
is used: with arg(1-x) = pi for x > 1 this is exactly the convention making
the Bloch-Wigner function vanish on the real line.

D(z) = Im Li_2(z) + log|z| * arg(1-z) is single-valued, real-analytic off
{0, 1}, and satisfies D(conj z) = -D(z), the two-term relations
D(z) + D(1-z) = D(z) + D(1/z) = 0, and the five-term relation.  The kernel
computes D from Li_2 alone, never through these symmetries, so the checks of
them stay independent of how D is evaluated.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from .errors import DegenerateInput
from .precision import DEFAULT_CONTEXT, GUARD_BITS, PrecisionContext, to_mpc
from .report import CheckRecord, VerificationReport

__all__ = [
    "li2",
    "bloch_wigner",
    "five_term_residual",
    "xi_D",
    "torsion_check",
    "rogers_L",
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


def _li2_fixed(zr, zi, wp: int):
    """(Re Li_2(z), Im Li_2(z), log|z| arg(1-z)) scaled by 2^wp, for z = zr + i zi
    given as libmp values, z not 0 or 1.

    Li_2(w) = u - u^2/4 + sum_{k even >= 2} B_k u^(k+1) / (k+1)!, u = -log(1-w),
    runs by Horner in v^2, v = u / (2 pi), with the term count fixed from |v|.
    On the real line the chosen |u| is at most 1, while a w on the cut
    [1, oo) would have |Im u| = pi, so w never lands on the cut.
    """
    rnd = libmp.round_nearest
    one_r, one_i = libmp.mpf_sub(libmp.fone, zr, wp, rnd), libmp.mpf_neg(zi)
    lzr, lzi, l1r, l1i = (libmp.to_fixed(x, wp) for x in (
        libmp.mpf_log_hypot(zr, zi, wp, rnd), libmp.mpf_atan2(zi, zr, wp, rnd),
        libmp.mpf_log_hypot(one_r, one_i, wp, rnd), libmp.mpf_atan2(one_i, one_r, wp, rnd)))
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
    # |u| <= 1 makes |v|^2 < 2^-d with d = wp - q.bit_length() >= 5; every
    # coefficient is below 7 in size, so the terms past the first
    # (wp + 3) / d sum to under 2^-wp
    q = (vr * vr + vi * vi) >> wp
    n = -(-(wp + 3) // (wp - q.bit_length())) if q else 0
    sr = si = 0
    for c in reversed(_series_coeffs(n, wp)[:n]):
        sr, si = ((sr * v2r - si * v2i) >> wp) + c, (sr * v2i + si * v2r) >> wp
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
        mi = lzi - pi if lzi > 0 else lzi + pi
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
        zr, zi = zz._mpc_ if isinstance(zz, mp.mpc) else (zz._mpf_, libmp.fzero)
        if zi == libmp.fzero and zr in (libmp.fzero, libmp.fone):
            return mp.pi ** 2 / 6 if zr == libmp.fone else mp.mpf(0)
    wp = prec + _FIXED_GUARD
    re, im, _ = _li2_fixed(zr, zi, wp)
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
    _, im, d_term = _li2_fixed(*zz._mpc_, wp)
    return mp.make_mpf(_round(im + d_term, wp, ctx.mantissa_bits + GUARD_BITS))


def five_term_residual(x, y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """|D(x) + D(1-xy) + D(y) + D((1-y)/(1-xy)) + D((1-x)/(1-xy))|."""
    with ctx.workprec():
        xv, yv = to_mpc(x), to_mpc(y)
        w = 1 - xv * yv
        if w == 0:
            raise DegenerateInput("1 - x*y = 0")
        total = (
            bloch_wigner(xv, ctx)
            + bloch_wigner(w, ctx)
            + bloch_wigner(yv, ctx)
            + bloch_wigner((1 - yv) / w, ctx)
            + bloch_wigner((1 - xv) / w, ctx)
        )
        return abs(total)


def xi_D(solution, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """sum_i D(x_i) over the components of a solution (or any iterable)."""
    xs = getattr(solution, "x", solution)
    with ctx.workprec():
        return mp.fsum(bloch_wigner(x, ctx) for x in xs)


def torsion_check(solutions, ctx: PrecisionContext = DEFAULT_CONTEXT,
                  tolerance: float = TORSION_TOLERANCE) -> VerificationReport:
    """Necessary torsion condition: |sum_i D(x_i)| < tolerance per solution."""
    t0 = time.perf_counter()
    sols = solutions.solutions
    if not sols:
        raise DegenerateInput("empty solution set")
    records = tuple(
        CheckRecord.make(f"|sum D(x)| for solution {idx}", abs(xi_D(sol, ctx)), tolerance)
        for idx, sol in enumerate(sols)
    )
    return VerificationReport(
        command="torsion_check",
        metadata={"pair": solutions.pair, "solutions": len(sols)},
        records=records,
        seed=getattr(solutions, "seed", None),
        precision_bits=ctx.mantissa_bits,
        wall_time_s=time.perf_counter() - t0,
    )


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
    value: object          # mpf: sum_i L(x_i) / L(1) at the positive solution
    rational: Fraction
    error: object          # mpf: |value - rational|
    solution: object = field(compare=False)  # the positive Solution evaluated


def central_charge_probe(pair, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CentralChargeProbe:
    """Evaluate sum_i L(x_i)/L(1) at the all-positive solution against the
    exact central charge c = r r' h / (h + h')."""
    from .solver import solve_positive  # deferred: keeps this module import-light

    sol = solve_positive(pair, ctx)
    frac = Fraction(pair.r * pair.rp * pair.h, pair.h + pair.hp)
    with ctx.workprec():
        l_one = mp.pi ** 2 / 6
        total = mp.fsum(rogers_L(mp.re(x), ctx) for x in sol.x)
        value = total / l_one
        err = abs(value - mp.mpf(frac.numerator) / frac.denominator)
    return CentralChargeProbe(pair=pair.label, value=value, rational=frac, error=err, solution=sol)
