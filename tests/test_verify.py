from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import adet
from adet import (
    check_periodicity,
    dilog_sum_over_Splus,
    iterate,
    perturbed_pair,
    wedge_form_residual,
)
from adet.errors import DegeneratePoint, DegenerateStep
from adet.precision import to_mpc
from adet.verify import _probe_directions, _resolve_d, _tangent_grid

from conftest import ACCEPT_PAIRS, pair, sample_points

WEDGE_TOL = 1e-18
CONTROL_FLOOR = 1e-3


def identity(n):
    """The directions e_1, ..., e_n, under which the tangent grid carries the full gradient."""
    return [[int(q == k) for q in range(n)] for k in range(n)]


def full_pairing(pair, a, ctx, *, point_b=None, d_override=None):
    """Oracle for `wedge_form_residual`: the Frobenius norm of the whole n x n
    pairing M = sum_{S+} d * (x(b) - x(a)) * G(a) G(b)^T, from the tangent
    grid under the identity directions."""
    n = pair.n
    with ctx.workprec(32):
        ta = _tangent_grid(pair, a, pair.period - 1, ctx, identity(n))
        b = [1 / to_mpc(v) for v in a] if point_b is None else point_b
        tb = _tangent_grid(pair, b, pair.period - 1, ctx, identity(n))
        m = [[mp.mpc(0)] * n for _ in range(n)]
        for (k, u) in pair.S_plus():
            _, xa, ga = ta[k, u]
            _, xb, gb = tb[k, u]
            c = _resolve_d(pair, d_override, k, u) * (xb - xa)
            for p in range(n):
                cp = c * ga[p]
                m[p] = [e + cp * g for e, g in zip(m[p], gb)]
        return mp.sqrt(mp.fsum(abs(e) ** 2 for row in m for e in row))


def both(pair, a, ctx, **kwargs):
    """(probe, oracle) residuals of the wedge pairing at a."""
    return wedge_form_residual(pair, a, ctx, **kwargs).residual, full_pairing(pair, a, ctx, **kwargs)


def test_jet_values_match_iterate(ctx128):
    # the tangent grid's values (the 0-th order of its 1-jets) are iterate's
    p = pair("A1,T1")
    traj = iterate(p, [1.37], p.period - 1, ctx128)
    with ctx128.workprec(32):
        grid = _tangent_grid(p, [1.37], p.period - 1, ctx128, identity(1))
        worst = max(abs(grid[(0, u)][0] - traj.value(0, u)) for u in range(p.period))
    assert worst < 1e-40


def test_jet_gradients_match_hand_formulas(ctx128):
    # (A1,T1) trajectory: Y(1)=y^2/(1+y), Y(2)=y/(1+y+y^2), Y(3)=1/(y(1+y));
    # dY/dy = Y * G from the tangent recurrence
    with ctx128.workprec(32):
        y = mp.mpf("1.37")
        grid = _tangent_grid(pair("A1,T1"), [y], 3, ctx128, identity(1))
        expect = {
            0: mp.mpf(1),
            1: y * (y + 2) / (1 + y) ** 2,
            2: (1 - y ** 2) / (1 + y + y ** 2) ** 2,
            3: -(1 + 2 * y) / (y * (1 + y)) ** 2,
        }
        for u, ref in expect.items():
            yv, _, g = grid[(0, u)]
            assert abs(yv * g[0] - ref) < 1e-38


def log_gradients_fd(pair, point, k, u, ctx, step="1e-20"):
    """Central-difference gradients of log Y_k(u) and log(1+Y_k(u)).

    Independent cross-check for the tangent recurrence (`_tangent_grid`):
    G = grad log Y and x * G = grad log(1+Y).  Runs at >= 256 bits so the
    O(step) cancellation leaves ample accuracy.
    """
    fd_ctx = replace(ctx, mantissa_bits=max(ctx.mantissa_bits, 256))
    with fd_ctx.workprec(32):
        h = mp.mpf(step)
        base = [to_mpc(v) for v in point]
        glog_y, glog_1py = [], []
        for p in range(pair.n):
            shifted = []
            for sgn in (1, -1):
                pt = list(base)
                pt[p] = pt[p] + sgn * h
                shifted.append(iterate(pair, pt, u, fd_ctx).values[(k, u)])
            vp, vm = shifted
            glog_y.append((mp.log(vp) - mp.log(vm)) / (2 * h))
            glog_1py.append((mp.log(1 + vp) - mp.log(1 + vm)) / (2 * h))
        return glog_y, glog_1py


def test_jet_gradients_match_finite_differences(ctx128, rng):
    # tangent recurrence vs central differences at 10 points (the retained
    # cross-check): G = grad log Y and x * G = grad log(1+Y)
    for label in ("A1,T1", "A2,A1"):
        p = pair(label)
        for _ in range(5):
            pt = [float(v) for v in rng.uniform(0.6, 1.8, p.n)]
            ku = [(k, u) for (k, u) in p.S_plus()[2:4]]
            with ctx128.workprec(32):
                grid = _tangent_grid(p, pt, p.period - 1, ctx128, identity(p.n))
            for (k, u) in ku:
                gf, hf = log_gradients_fd(p, pt, k, u, ctx128)
                with mp.workprec(300):
                    _, x, g = grid[(k, u)]
                    assert max(abs(a - b) for a, b in zip(g, gf)) < 1e-30
                    assert max(abs(x * a - b) for a, b in zip(g, hf)) < 1e-30


def test_tangent_grid_directions_are_linear(ctx128, rng):
    # a direction's scalar is G.v: the identity directions' G, dotted with v
    p = pair("A2,T1")
    pt = sample_points(p, 1, rng)[0]
    vs = [list(rng.standard_normal(p.n)) for _ in range(2)]
    with ctx128.workprec(32):
        full = _tangent_grid(p, pt, p.period - 1, ctx128, identity(p.n))
        probed = _tangent_grid(p, pt, p.period - 1, ctx128, vs)
        assert full.keys() == probed.keys()
        for key, (yv, x, g) in full.items():
            assert probed[key][:2] == (yv, x)
            for v, gv in zip(vs, probed[key][2]):
                assert abs(gv - mp.fsum(a * b for a, b in zip(g, v))) < 1e-35 * (1 + abs(gv))


@pytest.mark.parametrize("label", ACCEPT_PAIRS + ["D4,A1", "E6,A1"])
def test_wedge_single_point_vanishes(label, ctx128, rng):
    # one sampled point a, paired with the default b = 1/a: the probe and the
    # full pairing both vanish
    p = pair(label)
    for pt in sample_points(p, 5, rng):
        probe, oracle = both(p, pt, ctx128)
        assert probe < WEDGE_TOL and oracle < WEDGE_TOL, (label, mp.nstr(probe, 5), mp.nstr(oracle, 5))


def test_wedge_pairing_exactly_zero_at_b_equal_a(ctx128, rng):
    # x(b) - x(a) is exactly 0 at b = a, whatever the recurrence: a single
    # point carries no information, which is why b defaults to 1/a
    for label in ("A2,A1", "E6,A1", "A1,T1"):
        p = pair(label)
        pt = sample_points(p, 1, rng)[0]
        assert wedge_form_residual(p, pt, ctx128, point_b=pt).residual == 0, label
        bumped = perturbed_pair(p, "xp", 0, 0) if label == "A1,T1" else perturbed_pair(p, "x", 0, 1)
        assert wedge_form_residual(bumped, pt, ctx128, point_b=pt).residual == 0, label


def test_wedge_two_point_vanishes(ctx128, rng):
    for label in ("T1,T1", "A1,T1", "A2,A1", "A1,T2"):
        p = pair(label)
        a = list(rng.uniform(0.5, 2.0, p.n))
        b = list(rng.uniform(0.5, 2.0, p.n))
        w = wedge_form_residual(p, a, ctx128, point_b=b)
        assert w.residual < WEDGE_TOL, (label, mp.nstr(w.residual, 5))


def test_wedge_multiplicity_negative_control(ctx128):
    # lowering a single multiplicity d from 2 to 1 must break the vanishing,
    # under the probe and the full pairing alike
    p = pair("T1,T1")
    assert p.d == 2
    first = p.S_plus()[0]
    assert max(both(p, [1.3], ctx128, point_b=[0.7])) < WEDGE_TOL
    bad = both(p, [1.3], ctx128, point_b=[0.7], d_override={first: 1})
    assert min(bad) > CONTROL_FLOOR, [mp.nstr(v, 5) for v in bad]


def test_wedge_multiplicity_negative_control_rank_36(ctx128, rng):
    # E6,E6 (d = 1) with one multiplicity lowered to 0, at the default b = 1/a.
    # The probe reads a change of rank one at about |M| / n: at u = 0, where
    # G = e_k/y_k, the term is |x(1/a_k) - x(a_k)| * |v_k w_k| / (|v| |w|), so
    # the lowered element sits at an interior level, u = 5
    p = pair("E6,E6")
    assert p.d == 1
    element = next((k, u) for k, u in p.S_plus() if u == 5)
    pt = sample_points(p, 1, rng)[0]
    assert wedge_form_residual(p, pt, ctx128).residual < WEDGE_TOL
    bad = wedge_form_residual(p, pt, ctx128, d_override={element: 0}).residual
    assert bad > CONTROL_FLOOR, mp.nstr(bad, 5)


def test_wedge_probe_is_deterministic(ctx128, rng):
    # the probe directions are fixed per n, drawn from no caller's RNG: two
    # calls at one point give the same bits, and the RNG state is untouched
    p = pair("D4,A1")
    pt = sample_points(p, 1, rng)[0]
    _probe_directions.cache_clear()
    state = rng.bit_generator.state
    first = wedge_form_residual(p, pt, ctx128).residual
    _probe_directions.cache_clear()
    second = wedge_form_residual(p, pt, ctx128).residual
    assert first._mpf_ == second._mpf_
    assert rng.bit_generator.state == state
    bad = perturbed_pair(p, "x", 0, 1)
    a, b = (wedge_form_residual(bad, pt, ctx128).residual for _ in range(2))
    assert a._mpf_ == b._mpf_ and a > CONTROL_FLOOR
    assert [len(_probe_directions(n)) for n in (1, 2, 36)] == [1, 2, 2]


# one bump per pair, each joining two vertices of different colours
EXPONENT_BUMPS = [("A2,A1", "x", 0, 1), ("A3,A1", "x", 0, 1), ("E6,A1", "x", 0, 1),
                  ("A2,A2", "x", 0, 1), ("A1,T2", "xp", 0, 1), ("A1,T1", "xp", 0, 0),
                  ("D4,A2", "x", 0, 1)]


@pytest.mark.parametrize("label,side,i,j", EXPONENT_BUMPS)
def test_wedge_exponent_negative_control_default_b(label, side, i, j, ctx128, rng):
    # the residual the CLI records (b = 1/a) must see a bumped exponent, under
    # the probe and the full pairing; the probe is at most the Frobenius norm
    p = pair(label)
    pt = sample_points(p, 1, rng)[0]
    assert wedge_form_residual(p, pt, ctx128).residual < WEDGE_TOL
    probe, oracle = both(perturbed_pair(p, side, i, j), pt, ctx128)
    assert min(probe, oracle) > CONTROL_FLOOR, (label, mp.nstr(probe, 5), mp.nstr(oracle, 5))
    assert probe <= oracle * (1 + 1e-30)


@pytest.mark.parametrize("label,side,i,j", EXPONENT_BUMPS)
def test_periodicity_exponent_negative_control(label, side, i, j, ctx128, rng):
    # the periodicity residual, relative to |Y|, sees every bumped exponent:
    # it reads 0.5 or more.  Positive seeds keep every Y and factor positive,
    # so a bumped trajectory, however small its values, runs to the end
    bad = perturbed_pair(pair(label), side, i, j)
    for _ in range(3):
        traj = iterate(bad, list(rng.uniform(0.5, 2.0, bad.n)), 2 * bad.period, ctx128)
        rep = check_periodicity(traj, ctx128)
        assert not rep.passed and rep.records[0].residual > 0.5, (label, rep.records[0].residual_str)


def test_wedge_exponent_negative_control(ctx128, rng):
    # bumping one recurrence exponent must break the vanishing at a random b
    for label, side, i, j in [("A2,A1", "x", 0, 1), ("A1,T2", "xp", 0, 1), ("A1,T1", "xp", 0, 0)]:
        p = pair(label)
        bumped = perturbed_pair(p, side, i, j)
        a = list(rng.uniform(0.5, 2.0, p.n))
        b = list(rng.uniform(0.5, 2.0, p.n))
        assert wedge_form_residual(p, a, ctx128, point_b=b).residual < WEDGE_TOL
        assert wedge_form_residual(bumped, a, ctx128, point_b=b).residual > CONTROL_FLOOR


def test_dilog_sum_real_point_exact_zero(ctx128):
    for label in ("A1,T1", "A2,A1"):
        p = pair(label)
        assert dilog_sum_over_Splus(p, [1.2] * p.n, ctx128) == 0


@pytest.mark.parametrize("label", ACCEPT_PAIRS)
def test_dilog_sum_vanishes_at_complex_points(label, ctx128, rng):
    p = pair(label)
    values = []
    for pt in sample_points(p, 10, rng):
        s = dilog_sum_over_Splus(p, pt, ctx128)
        values.append(s)
        assert abs(s) < 1e-18, (label, mp.nstr(s, 5))
    # point independence (the sum is constant, hence zero)
    with ctx128.workprec():
        spread = max(values) - min(values)
    assert spread < 1e-18


def _dilog_sum_on_full_grid(p, point, ctx):
    """Test oracle: the dilogarithm sum over `iterate`'s full grid, both
    parity copies of a bipartite pair, with x = Y/(1+Y) formed per term."""
    with ctx.workprec():
        traj = iterate(p, list(point), p.period - 1, ctx)
        total = mp.mpf(0)
        for (k, u) in p.S_plus():
            yv = traj.values[k, u]
            total += p.d * adet.bloch_wigner(yv / (1 + yv), ctx)
        return total


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("label", ["A1,T1", "A2,T1", "E6,A1", "D4,A1", "A2,A2", "T2,T2"])
def test_dilog_sum_matches_full_grid(label, bits, monkeypatch):
    # the sum read off the P+ grid is bit for bit the sum over iterate's
    # full grid, at CLI points, and never calls iterate
    p = pair(label)
    ctx = adet.PrecisionContext(mantissa_bits=bits)
    points = sample_points(p, 3, np.random.default_rng(0))
    refs = [_dilog_sum_on_full_grid(p, pt, ctx) for pt in points]

    def no_iterate(*args, **kwargs):
        raise AssertionError("dilog_sum_over_Splus called iterate")

    monkeypatch.setattr(adet.ysystem, "iterate", no_iterate)
    for pt, ref in zip(points, refs):
        assert dilog_sum_over_Splus(p, pt, ctx)._mpf_ == ref._mpf_, (label, bits, pt)


def test_dilog_sum_origin_limit(ctx128):
    # shrinking complex seeds toward 0: every term D(f) -> 0 individually
    p = pair("A1,T1")
    prev = None
    for scale in (1e-2, 1e-3, 1e-4):
        pt = [scale * (1 + 0.3j)] * p.n
        traj = iterate(p, pt, p.period - 1, ctx128)
        with ctx128.workprec():
            worst_term = max(
                abs(adet.bloch_wigner(traj.value(k, u) / (1 + traj.value(k, u)), ctx128))
                for (k, u) in p.S_plus()
            )
        assert abs(dilog_sum_over_Splus(p, pt, ctx128)) < 1e-18
        if prev is not None:
            assert worst_term < prev
        prev = worst_term


def test_dilog_sum_multiplicity_negative_control(ctx128):
    p = pair("T1,T1")
    first = p.S_plus()[0]
    pt = [1.3 + 0.2j]
    assert abs(dilog_sum_over_Splus(p, pt, ctx128)) < 1e-18
    assert abs(dilog_sum_over_Splus(p, pt, ctx128, d_override={first: 1})) > CONTROL_FLOOR
    # uniform rescaling of a vanishing sum stays zero: not a usable control
    assert abs(dilog_sum_over_Splus(p, pt, ctx128, d_override=1)) < 1e-18


def test_dilog_sum_exponent_negative_control(ctx128, rng):
    for label, side, i, j in [("A2,A1", "x", 0, 1), ("A1,T2", "xp", 0, 1), ("A1,T1", "xp", 0, 0)]:
        p = pair(label)
        bumped = perturbed_pair(p, side, i, j)
        pt = sample_points(p, 1, rng, noise=0.15)[0]
        assert abs(dilog_sum_over_Splus(bumped, pt, ctx128)) > CONTROL_FLOOR, label


def test_degenerate_point_raises(ctx128):
    p = pair("A1,T1")
    with pytest.raises(DegeneratePoint):
        dilog_sum_over_Splus(p, [0.0], ctx128)
    with pytest.raises(DegeneratePoint):
        wedge_form_residual(p, [0.0], ctx128)
    # a nan or infinite component is refused by the seed check, before any step
    for bad in (float("nan"), float("inf"), -float("inf"), complex(1, float("nan"))):
        for check in (wedge_form_residual, dilog_sum_over_Splus):
            with pytest.raises(DegeneratePoint) as exc:
                check(pair("A2,A1"), [bad, 1.0], ctx128)
            assert str(exc.value.__cause__) == "non-finite seed component", (check, bad)
    # A1,A1 has no factors, so only the pairing's own x = Y/(1+Y) sees Y = -1
    with pytest.raises(DegeneratePoint):
        wedge_form_residual(pair("A1,A1"), [-1.0], ctx128)


def test_perturbed_pair_validation():
    p = pair("A1,T1")
    with pytest.raises(ValueError):
        perturbed_pair(p, "bad-side", 0, 0)
    assert p.factors == (((), ((0, 1),)),)  # builds the original's plan first
    bumped = perturbed_pair(p, "xp", 0, 0)
    assert bumped.ixp[0][0] == p.ixp[0][0] + 1
    assert p.ixp[0][0] == 1  # original untouched
    # the copy derives its own right-hand side instead of sharing a stale one
    assert bumped.factors == (((), ((0, 2),)),)
    assert p.factors == (((), ((0, 1),)),)
    # without a tadpole a bump must join two colours: a same-colour (here
    # diagonal) bump reads the parity copy that P+ values never see
    for side in ("x", "xp"):
        with pytest.raises(ValueError, match="same colour"):
            perturbed_pair(pair("A2,A1"), side, 0, 0)
    # indices must name vertices of the bumped diagram; -1 used to wrap around
    for side, i, j in [("x", -1, 0), ("x", 0, -1), ("x", 2, 0), ("xp", 0, 1), ("xp", 1, 0)]:
        with pytest.raises(ValueError, match="outside"):
            perturbed_pair(pair("A2,A1"), side, i, j)
