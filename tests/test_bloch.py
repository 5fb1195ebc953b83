import cmath
import hashlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import adet
from adet import (
    TORSION_TOLERANCE,
    PrecisionContext,
    bloch_wigner,
    central_charge_at,
    central_charge_probe,
    five_term_residual,
    li2,
    perturbed_pair,
    relation_residuals,
    rogers_L,
    torsion_check,
    xi_D,
)
from adet import bloch, cli
from adet.errors import DegenerateInput

from conftest import ACCEPT_PAIRS, pair


def quad_li2(z):
    """Independent oracle: adaptive quadrature of -int_0^1 log(1 - s z)/s ds."""
    z = mp.mpc(z)
    return -mp.quad(lambda s: mp.log(1 - s * z) / s if s != 0 else -z, [0, 1])


def test_li2_special_values(ctx128):
    with ctx128.workprec():
        assert li2(0, ctx128) == 0
        assert abs(li2(1, ctx128) - mp.pi ** 2 / 6) < 1e-38
        # li2(1/2) = pi^2/12 - ln(2)^2/2
        assert abs(li2(0.5, ctx128) - (mp.pi ** 2 / 12 - mp.log(2) ** 2 / 2)) < 1e-38


def test_li2_at_i(ctx128):
    # independent series oracle: Im Li2(i) = sum (-1)^k/(2k+1)^2 = Catalan
    with ctx128.workprec():
        catalan = mp.nsum(lambda k: (-1) ** k / (2 * k + 1) ** 2, [0, mp.inf])
        v = li2(1j, ctx128)
        assert abs(mp.im(v) - catalan) < 1e-38
        assert abs(mp.im(v) - mp.catalan) < 1e-38
        assert abs(mp.re(v) + mp.pi ** 2 / 48) < 1e-38


def test_li2_against_quadrature(ctx128, rng):
    # 50 scattered points, including the reflection/inversion/Bernoulli regions
    pts = [complex(a, b) for a, b in zip(rng.uniform(-0.85, 0.85, 30), rng.uniform(-0.85, 0.85, 30))]
    pts += [complex(a, b) for a, b in zip(rng.uniform(-3, -1, 10), rng.uniform(0.3, 2, 10))]
    pts += [complex(a, b) for a, b in zip(rng.uniform(1, 3, 10), rng.uniform(0.4, 2, 10))]
    with mp.workprec(200):
        for z in pts:
            assert abs(li2(z, ctx128) - quad_li2(z)) < 1e-20, z


def test_li2_against_mpmath_polylog(ctx128):
    pts = [0.3 + 0.4j, -1.7 + 0.3j, 2.5 - 1j, 0.9 + 0.05j, -0.2 - 1.4j, -5.0 + 0j,
           150 + 3j, 0.99 + 0.3j, 1e4 - 2e3j, 0.49 - 0.01j]
    with mp.workprec(200):
        for z in pts:
            assert abs(li2(z, ctx128) - mp.polylog(2, mp.mpc(z))) < 1e-30, z


# Each li2 region boundary, the singular and symmetric points, both sides of
# the cut, extreme magnitudes and the real arguments rogers_L and the
# inversion of negative reals take.
KERNEL_POINTS = (
    [cmath.rect(0.5, t) for t in (0.0, 1.1, 2.0, math.pi)]          # |z| = 1/2
    + [cmath.rect(2.0, t) for t in (0.7, math.pi / 2, -2.5, math.pi)]  # |z| = 2
    + [1 - cmath.rect(0.5, t) for t in (1.0, -2.2, math.pi / 2)]  # |1 - z| = 1/2
    + [1 + 1e-10 + 1e-10j, 1 - 1e-12j, 0.999999 + 1e-8j]           # near z = 1
    + [cmath.rect(1, s * math.pi / 3) + d for s in (1, -1) for d in (0, 1e-9j)]
    + [3 + 1e-25j, 3 - 1e-25j, 1.2 + 1e-20j, 1.2 - 1e-20j]          # around the cut
    + [1e-30, 1e-30j, 1e12j, 1e12 * (1 + 1j), -1e12]               # tiny and huge
    + [-5.0, -1.5, -1.0000001, 0.6, 0.75, 0.99]                     # real x < -1, x in (1/2, 1)
)
KERNEL_TOL = {128: 1e-30, 256: 1e-70}
# z's fixed-point image underflows to 0 at the first; log|z| ~ 138 at the second
EXTREME_POINTS = [1e-60 * (1 + 1j), 1e60 * (1 + 1j)]


def _check_against_polylog(points, bits):
    ctx = PrecisionContext(mantissa_bits=bits)
    with mp.workprec(bits + 64):
        for z in points:
            assert abs(li2(z, ctx) - mp.polylog(2, mp.mpmathify(z))) < KERNEL_TOL[bits], (bits, z)


@pytest.mark.parametrize("bits", [128, 256])
def test_li2_kernel_edge_points(bits):
    _check_against_polylog(KERNEL_POINTS + EXTREME_POINTS, bits)


@pytest.mark.parametrize("bits", [128, 256])
def test_bloch_wigner_kernel_edge_points(bits):
    ctx = PrecisionContext(mantissa_bits=bits)
    with mp.workprec(bits + 64):
        for z in KERNEL_POINTS + EXTREME_POINTS:
            zz = mp.mpmathify(z)
            ref = mp.im(mp.polylog(2, zz)) + mp.log(abs(zz)) * mp.arg(1 - zz)
            assert abs(bloch_wigner(z, ctx) - ref) < KERNEL_TOL[bits], (bits, z)


# _kernel_digest() as recorded while the series ran by complex Horner
KERNEL_DIGEST = "566d77e1e86d9aa6b3e2aca05789b6751e7a03245986af4ec709e9ea06b09493"


def _raw(v):
    """The exact libmp tuples of an mpf or mpc, mantissas as Python ints."""
    parts = v._mpc_ if isinstance(v, mp.mpc) else (v._mpf_,)
    return tuple((sign, int(man), exp, bc) for sign, man, exp, bc in parts)


def _kernel_digest():
    """sha256 over the exact outputs of li2, bloch_wigner and
    relation_residuals at 128 and 256 bits, on KERNEL_POINTS, EXTREME_POINTS
    and 300 five-term points.  The raw tuples are hashed, not repr of the mp
    numbers, which shows only 17 digits."""
    rng = np.random.default_rng(27)
    r, t = 2 * np.sqrt(rng.random((300, 2))), 2 * np.pi * rng.random((300, 2))
    pairs = (r * np.exp(1j * t)).tolist()
    edge = KERNEL_POINTS + EXTREME_POINTS
    digest = hashlib.sha256()
    for bits in (128, 256):
        ctx = PrecisionContext(mantissa_bits=bits)
        for z in edge + [z for p in pairs for z in p]:
            digest.update(repr((_raw(li2(z, ctx)), _raw(bloch_wigner(z, ctx)))).encode())
        for x, y in pairs + [(z, 0.5 + 0.25j) for z in edge]:
            digest.update(repr([_raw(d) for d in relation_residuals(x, y, ctx)]).encode())
    return digest.hexdigest()


def test_kernel_outputs_are_unchanged():
    # recorded when the series ran by complex Horner in v^2 and the relation
    # sums by mp arithmetic; a kernel change that moves any output bit shows
    assert _kernel_digest() == KERNEL_DIGEST


def test_li2_coefficient_cache_per_precision(monkeypatch):
    # coefficients built at one precision must never serve another
    monkeypatch.setattr(bloch, "_SERIES_COEFFS", {})
    for bits in (256, 128, 256):
        _check_against_polylog(KERNEL_POINTS, bits)


def _wp(bits):
    """The kernel's fixed-point fraction bits at a mantissa size."""
    return bits + 2 * adet.precision.GUARD_BITS + bloch._FIXED_GUARD


def test_li2_series_terms_bounded(monkeypatch):
    # w = z while |log(1-z)| <= 1, else the w in {z, 1-z, 1/z} with the
    # smallest |log(1-w)| (at most pi/3, at exp(+-i pi/3)), keeps |u| <= pi/3,
    # so |v|^2 < 2^-5 and the series needs at most (wp + 3) / 5 terms: 38, 63
    # and 115 at 128, 256 and 512 bits; with the |z| regions alone |u| nears
    # 3.3 and the series needs about 100 terms at 128 bits
    grid = [complex(a, b) for a in np.linspace(-4, 4, 33) for b in np.linspace(-4, 4, 33)]
    for bits in (128, 256, 512):
        monkeypatch.setattr(bloch, "_SERIES_COEFFS", {})
        ctx = PrecisionContext(mantissa_bits=bits)
        for z in [z for z in grid if abs(z) <= 4] + KERNEL_POINTS:
            li2(z, ctx)
            bloch_wigner(z, ctx)
        wp = _wp(bits)
        assert list(bloch._SERIES_COEFFS) == [wp]
        assert len(bloch._SERIES_COEFFS[wp]) <= -(-(wp + 3) // 5), bits


def _horner(coeffs, zr, zi, wp):
    """sum_k c_k z^k scaled by 2^wp, exactly, by complex Horner on the
    numerator over 2^(wp (n-1)): the reference for bloch._series."""
    nr = ni = e = 0
    for c in reversed(coeffs):
        nr, ni = nr * zr - ni * zi + (c << (wp * e)), nr * zi + ni * zr
        e += 1
    scale = 1 << (wp * max(e - 1, 0))
    return Fraction(nr, scale), Fraction(ni, scale)


def _series_argument(ur, ui, wp):
    """The kernel's z = v^2, v = u / (2 pi), and term count at a fixed-point u."""
    two_pi = 2 * mp.libmp.pi_fixed(wp)
    vr, vi = (ur << wp) // two_pi, (ui << wp) // two_pi
    q = (vr * vr + vi * vi) >> wp
    n = -(-(wp + 3) // (wp - q.bit_length())) if q else 0
    return (vr * vr - vi * vi) >> wp, (2 * vr * vi) >> wp, n


@pytest.mark.parametrize("bits", [128, 256])
def test_series_recurrence_matches_horner(bits):
    # on a grid of |u| <= pi/3, with the kernel's z = v^2 and term count, the
    # real recurrence is within 2 units of 2^-wp of the exact polynomial
    wp = _wp(bits)
    grid = [c for a in np.linspace(-math.pi / 3, math.pi / 3, 15)
            for c in (complex(a, b) for b in np.linspace(-math.pi / 3, math.pi / 3, 15))
            if abs(c) <= math.pi / 3]
    cases = [_series_argument(int(c.real * 2.0 ** 60) << (wp - 60), int(c.imag * 2.0 ** 60) << (wp - 60), wp)
             for c in grid]
    assert max(n for *_, n in cases) == -(-(wp + 3) // 5)  # the longest series the kernel runs
    # n = 0: u = 0 exactly, and at 128 bits u = -log(1 - 1e-30), whose |v|^2 is below 2^-wp
    _, l1 = bloch._logs(*mp.mpc(1e-30)._mpc_, wp)
    tiny = _series_argument(-l1[0], -l1[1], wp)
    assert tiny[2] == 0 if bits == 128 else tiny[2] > 0
    cases += [(0, 0, 0), tiny]
    # n = 1 is p = c_0 alone; the kernel's rule gives n >= 2 whenever q > 0
    cases += [(zr, zi, 1) for zr, zi, _ in cases[:5]]
    for zr, zi, n in cases:
        ref = _horner(bloch._series_coeffs(n, wp)[:n], zr, zi, wp)
        got = bloch._series(zr, zi, n, wp)
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 2, (bits, zr, zi, n)


def _perturbed_series(monkeypatch, wp, last):
    """Make every series at wp read one faulty coefficient: c_0 off by 2^-60,
    or the last one the recurrence reads, c_(n-1), off by 2^150.  The c_(n-1)
    term lies below 2^-wp, so only so large a fault shows at the gates."""
    series_coeffs = bloch._series_coeffs

    def perturbed(n, at):
        coeffs = list(series_coeffs(n, at)[:n])
        if at == wp and n:
            coeffs[n - 1 if last else 0] += 1 << (wp + 150 if last else wp - 60)
        return coeffs

    monkeypatch.setattr(bloch, "_series_coeffs", perturbed)


@pytest.mark.parametrize("z, partner", [(0.4 + 0.3j, lambda z: 1 - z), (-1 + 0.5j, lambda z: 1 / z)],
                         ids=["reflection", "inversion"])
def test_two_term_relations_see_the_series(z, partner, monkeypatch):
    # z and its partner both keep w = z here, so D(z) + D(partner) = 0 tests
    # the series: a fault in one coefficient, the first or the last the
    # recurrence reads, shows, where a shared series value would cancel it
    ctx = PrecisionContext(mantissa_bits=128)
    zz = mp.mpc(z)
    with ctx.workprec():
        assert abs(bloch_wigner(zz, ctx) + bloch_wigner(partner(zz), ctx)) < 1e-40
        for last in (False, True):
            with monkeypatch.context() as patch:
                _perturbed_series(patch, _wp(128), last)
                assert abs(bloch_wigner(zz, ctx) + bloch_wigner(partner(zz), ctx)) > 1e-30, last


@pytest.mark.parametrize("bits", [128, 256])
def test_li2_just_off_the_cut(bits):
    # Im z below the fixed-point resolution just above (2, oo): arg z reads 0
    # while arg(1-z) reads -pi, and both logarithms must be read on the upper
    # side of the cut, else D is off by 2 pi log|z| and Im Li2 has the wrong
    # sign; the points below the cut and at 1e-50 are controls
    ctx = PrecisionContext(mantissa_bits=bits)
    with mp.workprec(600):
        for z in (3 + 1e-60j, 2.5 + 1e-56j, 3 + 1e-100j, 3 + 1e-50j, 3 - 1e-60j, 3 - 1e-100j):
            zz = mp.mpc(z)
            ref = mp.polylog(2, zz)
            assert abs(li2(z, ctx) - ref) < KERNEL_TOL[bits], (bits, z)
            d = mp.im(ref) + mp.log(abs(zz)) * mp.arg(1 - zz)
            assert abs(bloch_wigner(z, ctx) - d) < KERNEL_TOL[bits], (bits, z)


def test_li2_cut_convention(ctx128):
    # on [1, oo) the value continues from the lower half-plane
    with ctx128.workprec():
        v = li2(2.0, ctx128)
        assert abs(mp.re(v) - mp.pi ** 2 / 4) < 1e-35
        assert abs(mp.im(v) + mp.pi * mp.log(2)) < 1e-35


def test_bloch_wigner_real_line(ctx128):
    assert bloch_wigner(0.7, ctx128) == 0
    assert bloch_wigner(0, ctx128) == 0
    assert bloch_wigner(1, ctx128) == 0
    assert bloch_wigner(17.3, ctx128) == 0
    assert bloch_wigner(-2.4, ctx128) == 0


def test_bloch_wigner_catalan(ctx128):
    with ctx128.workprec():
        assert abs(bloch_wigner(1j, ctx128) - mp.catalan) < 1e-38


def test_bloch_wigner_max_on_unit_circle(ctx128):
    # oracle: maximize D(e^{i theta}) numerically; the max sits at theta = pi/3
    with ctx128.workprec():
        lo, hi = mp.mpf("0.9"), mp.mpf("1.2")
        for _ in range(80):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            f = lambda t: bloch_wigner(mp.mpc(mp.cos(t), mp.sin(t)), ctx128)
            if f(m1) < f(m2):
                lo = m1
            else:
                hi = m2
        tmax = (lo + hi) / 2
        vmax = bloch_wigner(mp.mpc(mp.cos(tmax), mp.sin(tmax)), ctx128)
        vref = bloch_wigner((1 + 1j * mp.sqrt(3)) / 2, ctx128)
        assert abs(tmax - mp.pi / 3) < 1e-15
        assert abs(vmax - vref) < 1e-25
        assert mp.nstr(vref, 8) == "1.0149416"


def test_bloch_wigner_symmetries(ctx128, rng):
    # conjugation, reflection, inversion: 1000 points each, 1e-30 gate
    pts = [complex(a, b) for a, b in zip(2 * rng.uniform(-1, 1, 1000), 2 * rng.uniform(-1, 1, 1000))]
    with ctx128.workprec():
        worst_conj = worst_refl = worst_inv = mp.mpf(0)
        for z in pts:
            if z == 0:
                continue
            zz = mp.mpc(z)  # transformed arguments must carry full precision
            d = bloch_wigner(zz, ctx128)
            worst_conj = max(worst_conj, abs(bloch_wigner(mp.conj(zz), ctx128) + d))
            worst_refl = max(worst_refl, abs(bloch_wigner(1 - zz, ctx128) + d))
            worst_inv = max(worst_inv, abs(bloch_wigner(1 / zz, ctx128) + d))
        assert worst_conj < 1e-30
        assert worst_refl < 1e-30
        assert worst_inv < 1e-30


def test_five_term_boundary_exact_zero(ctx128):
    assert five_term_residual(0, 0, ctx128) == 0
    assert five_term_residual(0.3, 0.6, ctx128) == 0  # all-real: vanishes exactly
    # every D of a real point vanishes exactly, not only the sums; at the
    # second, arguments below 0 and above 1 would leave rounding noise
    for x, y in ((0.3, 0.6), (-3.0, -0.5)):
        assert bloch._relation_terms(x, y, ctx128) == [0] * 7
        assert relation_residuals(x, y, ctx128) == (0, 0, 0)


def test_five_term_random_points(ctx128, rng):
    with ctx128.workprec():
        worst = mp.mpf(0)
        for _ in range(1000):
            r, t = 2 * np.sqrt(rng.uniform(0, 1, 2)), rng.uniform(0, 2 * np.pi, 2)
            x, y = (r * np.exp(1j * t)).tolist()
            worst = max(worst, five_term_residual(x, y, ctx128))
        assert worst < 1e-30


def test_five_term_degenerate(ctx128):
    with pytest.raises(DegenerateInput):
        five_term_residual(2.0, 0.5, ctx128)
    with pytest.raises(DegenerateInput):
        relation_residuals(1 + 1j, (1 - 1j) / 2, ctx128)  # x y = 1 from complex letters


@pytest.mark.parametrize("bits", [128, 256])
def test_relation_terms_against_bloch_wigner(bits, rng):
    # D at x, y, 1-x and 1-y reads the letters' logarithms as bloch_wigner
    # takes them, so it is bit-identical; D at the derived arguments sums
    # letter logarithms, so it matches bloch_wigner at the argument formed 64
    # bits higher to within the rounding of the two values
    ctx = PrecisionContext(mantissa_bits=bits)
    tol = mp.mpf(2) ** -(bits + adet.precision.GUARD_BITS - 1)
    r, t = 2 * np.sqrt(rng.uniform(0, 1, (300, 2))), rng.uniform(0, 2 * np.pi, (300, 2))
    for x, y in (r * np.exp(1j * t)).tolist():
        d_x, d_w, d_y, d_a, d_b, d_1x, d_inv = bloch._relation_terms(x, y, ctx)
        d_1y = bloch._relation_terms(y, x, ctx)[5]
        with ctx.workprec(64):
            xx, yy = mp.mpc(x), mp.mpc(y)
            w = 1 - xx * yy
            assert d_x == bloch_wigner(xx, ctx) and d_y == bloch_wigner(yy, ctx)
            assert d_1x == bloch_wigner(1 - xx, ctx) and d_1y == bloch_wigner(1 - yy, ctx)
            for d, z in ((d_w, w), (d_a, (1 - yy) / w), (d_b, (1 - xx) / w), (d_inv, 1 / xx)):
                assert abs(d - bloch_wigner(z, ctx)) < tol, (bits, x, y, z)
        assert five_term_residual(x, y, ctx) == relation_residuals(x, y, ctx)[0]


def test_relation_residuals_on_the_boundary(ctx128):
    # with x or y in {0, 1} three of the five arguments sit at 0, 1 or oo
    # and the five-term sum is D(z) + D(1-z), bit for bit; reflection and
    # inversion of x = 0 or 1 read exactly 0
    z = 0.3 + 0.8j
    with ctx128.workprec():
        refl = abs(bloch_wigner(z, ctx128) + bloch_wigner(1 - mp.mpc(z), ctx128))
    for x, y in ((0, z), (1, z), (z, 0), (z, 1)):
        five, r, i = relation_residuals(x, y, ctx128)
        assert five == refl, (x, y)
        if x in (0, 1):
            assert r == i == 0


def test_relation_residuals_read_every_scalar(ctx128):
    # the letters go through to_mpc: numpy scalars, ints and mp numbers give
    # the same bits as Python floats and complex numbers
    ref = relation_residuals(2.0, 0.3 + 0.8j, ctx128)
    for x, y in ((2, np.complex128(0.3 + 0.8j)), (np.float64(2.0), mp.mpc(0.3, 0.8)),
                 (mp.mpf(2), "0.3+0.8j")):
        assert relation_residuals(x, y, ctx128) == ref, (x, y)


def test_relation_terms_read_wide_ints_exactly(ctx128):
    # an int letter wider than 53 bits (a Python int or a numpy integer) is
    # read exactly, outside any workprec context: 2^80 + 1 gives the terms
    # of its exact mpf, not of 2^80
    x = 2 ** 80 + 1
    assert adet.precision.to_mpc(x)._mpf_ == (0, x, 0, 81)
    assert adet.precision.to_mpc(np.int64(2 ** 60 + 1))._mpf_ == (0, 2 ** 60 + 1, 0, 61)
    terms = bloch._relation_terms(x, 0.5j, ctx128)
    with mp.workprec(144):
        exact = bloch._relation_terms(mp.mpf(x), 0.5j, ctx128)
        rounded = bloch._relation_terms(mp.mpf(2 ** 80), 0.5j, ctx128)
    assert [d._mpf_ for d in terms] == [d._mpf_ for d in exact] != [d._mpf_ for d in rounded]
    assert terms[1]._mpf_ == (1, 1130919317110567611477431444681707, -183, 110)


def test_relation_residuals_conjugate_pair(ctx128):
    # y = conj(x): complex letters x, y give a real w = 1 - |x|^2, whose D is
    # exactly 0, while the other arguments stay complex
    x = 0.6 + 0.5j
    terms = bloch._relation_terms(x, x.conjugate(), ctx128)
    assert terms[1] == 0
    assert all(d != 0 for k, d in enumerate(terms) if k != 1)
    assert max(relation_residuals(x, x.conjugate(), ctx128)) < 1e-40


@pytest.mark.parametrize("x, y", [
    (1.2344316562068167 + 9.557293771403992e-56j, -1.9091804370036067),  # 1 - xy just above (1, oo)
    (3.0486029232242284 + 8.743645195052953e-56j, -2.9548394718212707),  # x just above (1, oo)
])
def test_relation_terms_just_above_the_cut(x, y, ctx128):
    # Im z below the fixed-point resolution: arg(1-z) as a sum of letter
    # arguments rounds to either side of +-pi, and must take the side that
    # arg z puts z on, else D is off by 2 pi log|z|
    with mp.workprec(600):
        xx, yy = mp.mpc(x), mp.mpc(y)
        w = 1 - xx * yy
        for d, z in zip(bloch._relation_terms(x, y, ctx128),
                        (xx, w, yy, (1 - yy) / w, (1 - xx) / w, 1 - xx, 1 / xx)):
            ref = mp.im(mp.polylog(2, z)) + mp.log(abs(z)) * mp.arg(1 - z)
            assert abs(d - ref) < 1e-38, z


def test_fiveterm_check_sees_the_series(monkeypatch):
    # the relations share letter logarithms but no series value: a fault in
    # one series coefficient, the first or the last the recurrence reads,
    # fails all three records of the check
    ctx = PrecisionContext(mantissa_bits=128)
    for last in (False, True):
        with monkeypatch.context() as patch:
            _perturbed_series(patch, _wp(128), last)
            records = cli.FAMILIES["fiveterm"].records(None, ctx, np.random.default_rng(0), 50, 1.0, 0)
        assert len(records) == 3
        assert not any(r.passed for r in records), (last, [(r.name, r.residual) for r in records])


def test_xi_D_conjugation(ctx128):
    with ctx128.workprec():
        xs = [0.3 + 0.4j, 1.2 - 0.7j]
        a = xi_D(xs, ctx128)
        b = xi_D([x.conjugate() for x in xs], ctx128)
        assert abs(a + b) < 1e-30
        assert abs(xi_D([0.4, 0.9], ctx128)) == 0  # real arguments


def test_torsion_check_reports(ctx128):
    sols = adet.solve_all(pair("A1,T1"), adet.SearchBudget(starts=400, seed=0), ctx128)
    residuals = torsion_check(sols, ctx128)
    assert len(residuals) == len(sols.solutions) == 2
    assert TORSION_TOLERANCE == 1e-18
    assert all(r < TORSION_TOLERANCE for r in residuals)
    # one |sum D(x)| per solution, in the set's order
    assert list(residuals) == [abs(xi_D(s, ctx128)) for s in sols.solutions]


def test_torsion_check_empty_set_rejected(ctx128):
    sols = adet.SolutionSet(pair="A1,A1", solutions=(), dedup_tol=1e-10, starts=0, seed=0, meta={},
                            positive=None)
    with pytest.raises(DegenerateInput):
        torsion_check(sols, ctx128)


def test_rogers_L_values(ctx128):
    with ctx128.workprec():
        assert abs(rogers_L(0.5, ctx128) - mp.pi ** 2 / 12) < 1e-35
        # Landen: L(1/phi) = pi^2/10, L(1/phi^2) = pi^2/15
        phi = (1 + mp.sqrt(5)) / 2
        assert abs(rogers_L(1 / phi, ctx128) - mp.pi ** 2 / 10) < 1e-35
        assert abs(rogers_L(1 / phi ** 2, ctx128) - mp.pi ** 2 / 15) < 1e-35
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(DegenerateInput):
            rogers_L(bad, ctx128)


# frozen from high-precision runs; denominators divide 4(h+h')
PROBE_RATIONALS = {
    "A1,A1": Fraction(1, 2),
    "A1,T1": Fraction(2, 5),
    "A1,T2": Fraction(4, 7),
    "A2,A1": Fraction(6, 5),
    "A2,T1": Fraction(1),
    "A1,A2": Fraction(4, 5),
    "A3,A1": Fraction(2),
    "T1,T1": Fraction(1, 2),
    "D4,A1": Fraction(3),
    "E6,A1": Fraction(36, 7),
}


@pytest.mark.parametrize("label", sorted(PROBE_RATIONALS))
def test_central_charge_probe(label, ctx128):
    probe = central_charge_probe(pair(label), ctx128)
    assert probe.rational == PROBE_RATIONALS[label]
    assert probe.error < 1e-20
    p = pair(label)
    assert probe.rational.denominator <= 4 * (p.h + p.hp)
    # the probe is the evaluation at the solution solve_positive returns
    assert probe == central_charge_at(p, adet.solve_positive(p, ctx128), ctx128)


@pytest.mark.parametrize("label", ["A2,A1", "A3,A1"])
def test_central_charge_probe_sees_bumped_exponent(label, ctx128):
    # c = r r' h / (h + h') is exact, so a wrong Nahm system reads as an error
    probe = central_charge_probe(perturbed_pair(pair(label), "x", 0, 1), ctx128)
    assert probe.rational == PROBE_RATIONALS[label]
    assert probe.error > 0.1, mp.nstr(probe.error, 5)
