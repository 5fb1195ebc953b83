"""High-precision dilogarithms and the torsion criterion.

li2 is the principal-branch dilogarithm Li_2(z) = -int_0^z log(1-t)/t dt,
evaluated by one Bernoulli series in u = -log(1-w) (Zagier, "The dilogarithm
function", 2007) at a reduced argument w: w = z for |z| <= 1/2 and near the
unit circle, w = 1/z (inversion) for |z| >= 2, w = 1-z (reflection) for
|1-z| <= 1/2.  The series coefficients are cached per working precision.  On
the cut [1, oo) the limit from the lower half-plane is used; with
arg(1-x) = pi for x > 1 this is exactly the convention making the
Bloch-Wigner function vanish on the real line.

D(z) = Im Li_2(z) + log|z| * arg(1-z) is single-valued, real-analytic off
{0, 1}, and satisfies D(conj z) = -D(z), the two-term relations
D(z) + D(1-z) = D(z) + D(1/z) = 0, and the five-term relation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .errors import DegenerateInput, ReconstructionFailed
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

_MAX_TERMS = 4096
# Fraction bits the fixed-point series carries beyond the working precision;
# they absorb the truncation error of a few hundred terms.
_FIXED_GUARD = 24

# Working precision -> [B_k (2 pi)^(k+1) / (k+1)! for k = 2, 4, 6, ...] as
# integers scaled by 2^(precision + _FIXED_GUARD).  A list is extended by
# storing a longer copy, never in place, so concurrent callers cannot
# interleave appends.
_BERNOULLI_COEFFS: dict[int, list[int]] = {}


def _bernoulli_coeff(k: int, wp: int) -> int:
    with mp.workprec(wp + 16):
        return int(mp.ldexp(mp.bernoulli(k) * (2 * mp.pi) ** (k + 1) / mp.factorial(k + 1), wp))


def _li2_bernoulli(w):
    """Li_2(w) = u - u^2/4 + sum_{k even >= 2} B_k u^(k+1) / (k+1)!, u = -log(1-w).

    The series converges for |u| < 2 pi; the regions of _li2_any keep |u|
    below 3.33, and at most log 2 where the argument is reduced to |w| <= 1/2.
    The sum over k runs in fixed point on v = u / (2 pi), whose powers shrink,
    against the coefficients B_k (2 pi)^(k+1) / (k+1)!, which are O(1/k).
    """
    prec = mp.mp.prec
    wp = prec + _FIXED_GUARD
    coeffs = _BERNOULLI_COEFFS.get(prec, [])
    eps2 = 1 << 2 * (_FIXED_GUARD - 8)  # (2^-(prec + 8))^2, scaled by 2^(2 wp)
    u = -mp.log(1 - w)
    v = u / (2 * mp.pi)
    vr, vi = int(mp.ldexp(v.real, wp)), int(mp.ldexp(v.imag, wp))
    v2r, v2i = (vr * vr - vi * vi) >> wp, (2 * vr * vi) >> wp
    qr, qi = (v2r * vr - v2i * vi) >> wp, (v2r * vi + v2i * vr) >> wp  # q = v^(k+1)
    sr = si = 0
    for i in range(_MAX_TERMS):
        if i == len(coeffs):
            coeffs = _BERNOULLI_COEFFS[prec] = coeffs + [_bernoulli_coeff(2 * i + 2, wp)]
        tr, ti = (coeffs[i] * qr) >> wp, (coeffs[i] * qi) >> wp
        sr += tr
        si += ti
        if tr * tr + ti * ti < eps2:
            break
        qr, qi = (qr * v2r - qi * v2i) >> wp, (qr * v2i + qi * v2r) >> wp
    head = u - u * u / 4
    if isinstance(u, mp.mpf):
        return head + mp.ldexp(sr, -wp)
    return head + mp.mpc(mp.ldexp(sr, -wp), mp.ldexp(si, -wp))


def _li2_any(z):
    """Dispatch over regions; z must not be a real number > 1."""
    if z == 0:
        return mp.mpf(0)
    if z == 1:
        return mp.pi ** 2 / 6
    a = abs(z)
    if a <= mp.mpf("0.5"):
        return _li2_bernoulli(z)
    if a >= 2:
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2, principal branch
        return -_li2_bernoulli(1 / z) - mp.pi ** 2 / 6 - mp.log(-z) ** 2 / 2
    if abs(1 - z) <= mp.mpf("0.5"):
        # Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z)
        return mp.pi ** 2 / 6 - mp.log(z) * mp.log(1 - z) - _li2_bernoulli(1 - z)
    return _li2_bernoulli(z)


def li2(z, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Principal-branch dilogarithm at the context precision.

    For real z > 1 (the branch cut) the value is the limit from the lower
    half-plane, i.e. Im Li2(x) = -pi*log(x); this is the convention recorded
    by the toolkit and the one under which D vanishes on the real line.
    """
    with mp.workprec(ctx.mantissa_bits + 2 * GUARD_BITS):
        zz = to_mpc(z)
        if mp.im(zz) == 0:
            x = mp.re(zz)
            if x > 1:
                lx = mp.log(x)
                inner = _li2_any(1 / x)
                return mp.pi ** 2 / 3 - lx ** 2 / 2 - inner - mp.mpc(0, mp.pi) * lx
            return _li2_any(x)
        return _li2_any(zz)


def bloch_wigner(z, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Bloch-Wigner function D(z) = Im Li2(z) + log|z| arg(1-z).

    Exactly-real inputs (including 0 and 1, by continuity) return an exact 0:
    D vanishes identically on the real line.
    """
    zz = to_mpc(z)
    if mp.im(zz) == 0:
        return mp.mpf(0)
    im_li2 = mp.im(li2(zz, ctx))
    with ctx.workprec():
        return im_li2 + mp.log(abs(zz)) * mp.arg(1 - zz)


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
    """Evaluate sum_i L(x_i)/L(1) at the all-positive solution and reconstruct
    the nearest rational with denominator <= 4(h + h')."""
    from .solver import solve_positive  # deferred: keeps this module import-light

    sol = solve_positive(pair, ctx)
    with ctx.workprec():
        l_one = mp.pi ** 2 / 6
        total = mp.fsum(rogers_L(mp.re(x), ctx) for x in sol.x)
        value = total / l_one
        frac = Fraction(float(value)).limit_denominator(4 * (pair.h + pair.hp))
        err = abs(value - mp.mpf(frac.numerator) / frac.denominator)
        if err >= mp.mpf("1e-20"):
            raise ReconstructionFailed(
                f"no rational with denominator <= {4 * (pair.h + pair.hp)} within 1e-20 "
                f"of {mp.nstr(value, 30)}"
            )
    return CentralChargeProbe(pair=pair.label, value=value, rational=frac, error=err, solution=sol)
