import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adet
from adet import (
    NahmPolynomialSystem,
    SearchBudget,
    constant_residual,
    solve_all,
    solve_positive,
    x_to_y,
    y_step,
    y_to_x,
)
from adet.errors import PoleInput

from conftest import ACCEPT_PAIRS, pair

# nondegenerate solution counts, frozen from lex Groebner bases of the
# cleared systems ((A1,T2) reduces to y^3 + 4y^2 + 3y - 1, etc.) and
# confirmed by multistart saturation
SOLUTION_COUNTS = {
    "A1,A1": 1,
    "A1,T1": 2,
    "A1,T2": 3,
    "A2,A1": 2,
    "A2,T1": 1,
    "A1,A2": 2,
    "A3,A1": 1,
    "T1,T1": 1,
    "D4,A1": 1,
}


def test_x_to_y_scalars(ctx128):
    assert abs(x_to_y(0.5, ctx128) - 1) < 1e-30
    assert abs(y_to_x(1.0, ctx128) - 0.5) < 1e-30
    with pytest.raises(PoleInput):
        x_to_y(1.0, ctx128)
    with pytest.raises(PoleInput):
        y_to_x(-1.0, ctx128)


def test_x_to_y_golden_ratio(ctx128):
    # x = (3 - sqrt5)/2 maps to y = (sqrt5 - 1)/2, the positive root of y^2 + y = 1
    with ctx128.workprec():
        x = (3 - mp.sqrt(5)) / 2
        y = x_to_y(x, ctx128)
        assert abs(y ** 2 + y - 1) < 1e-35
        assert abs(y - (mp.sqrt(5) - 1) / 2) < 1e-35


def test_round_trip_many(ctx128, rng):
    zs = rng.uniform(-2, 2, (100, 4)) + 1j * rng.uniform(-2, 2, (100, 4))
    with ctx128.workprec():
        for row in zs:
            back = y_to_x(x_to_y(list(row), ctx128), ctx128)
            assert max(abs(a - b) for a, b in zip(back, row)) < 1e-28


@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(z):
    if abs(z - 1) < 1e-3:
        return
    back = y_to_x(x_to_y(z))
    with adet.DEFAULT_CONTEXT.workprec():
        assert abs(back - adet.precision.to_mpc(z)) < 1e-25


def test_polynomial_system_roots(ctx128):
    with ctx128.workprec():
        sys_a1a1 = NahmPolynomialSystem(pair("A1,A1"))
        assert max(abs(v) for v in sys_a1a1.residual([mp.mpc(1)])) < 1e-35

        sys_a1t1 = NahmPolynomialSystem(pair("A1,T1"))
        for y in ((mp.sqrt(5) - 1) / 2, (-mp.sqrt(5) - 1) / 2):
            assert max(abs(v) for v in sys_a1t1.residual([mp.mpc(y)])) < 1e-35


def test_polynomial_system_jacobian_fd(ctx128, rng):
    # finite differences vs the analytic Jacobian, 10 random points
    system = NahmPolynomialSystem(pair("A1,T2"))
    with ctx128.workprec():
        h = mp.mpf("1e-12")
        for _ in range(10):
            y = [mp.mpc(a, b) for a, b in zip(rng.uniform(0.5, 2, 2), rng.uniform(-0.5, 0.5, 2))]
            jac = system.jacobian(y)
            for b in range(2):
                yp = list(y)
                ym = list(y)
                yp[b] += h
                ym[b] -= h
                rp, rm = system.residual(yp), system.residual(ym)
                for a in range(2):
                    fd = (rp[a] - rm[a]) / (2 * h)
                    scale = max(1, abs(jac[a][b]))
                    assert abs(fd - jac[a][b]) / scale < 1e-8


def test_solve_positive_closed_forms(ctx128):
    with ctx128.workprec():
        sol = solve_positive(pair("A1,A1"), ctx128)
        assert abs(sol.x[0] - mp.mpf(1) / 2) < 1e-30

        sol = solve_positive(pair("A1,T1"), ctx128)
        assert abs(sol.x[0] - (3 - mp.sqrt(5)) / 2) < 1e-25

        sol = solve_positive(pair("A1,T2"), ctx128)
        assert all(0 < mp.re(v) < 1 for v in sol.x)
        assert sol.residual < 1e-25

        sol = solve_positive(pair("A3,A1"), ctx128)
        expect = [mp.mpf(2) / 3, mp.mpf(3) / 4, mp.mpf(2) / 3]
        assert max(abs(a - b) for a, b in zip(sol.x, expect)) < 1e-30


@pytest.mark.parametrize("label", ACCEPT_PAIRS + ["D4,A1", "E6,A1"])
def test_positive_solution_is_a_constant_y_system_solution(label, ctx128):
    # the recurrence and the polynomial system read one right-hand side: the
    # positive Nahm solution is a fixed point of the step and a root of R
    p = pair(label)
    y = list(solve_positive(p, ctx128).y)
    step = y_step(p, y, y, ctx128)
    with ctx128.workprec():
        assert max(abs(a - b) for a, b in zip(step, y)) < ctx128.tau_res
        assert max(abs(r) for r in NahmPolynomialSystem(p).residual(y)) < ctx128.tau_res


def test_solve_positive_contraction(ctx128):
    # Newton steps contract near the fixed point
    sol = solve_positive(pair("A1,T2"), ctx128)
    steps = [s for s in sol.newton["step_norms"] if s > 0]
    assert len(steps) >= 2
    assert all(b < a for a, b in zip(steps, steps[1:]))


def test_solve_all_closed_forms(ctx128):
    sols = solve_all(pair("A1,T1"), SearchBudget(starts=800, seed=0), ctx128)
    assert len(sols.solutions) == 2
    with ctx128.workprec():
        got = sorted(mp.re(s.x[0]) for s in sols.solutions)
        expect = [(3 - mp.sqrt(5)) / 2, (3 + mp.sqrt(5)) / 2]
        assert all(abs(a - b) < 1e-25 for a, b in zip(got, expect))

    sols = solve_all(pair("A1,A1"), SearchBudget(starts=400, seed=0), ctx128)
    assert len(sols.solutions) == 1
    assert abs(sols.solutions[0].x[0] - 0.5) < 1e-25


@pytest.mark.parametrize("label", list(SOLUTION_COUNTS))
def test_solve_all_counts(label, ctx128):
    sols = solve_all(pair(label), SearchBudget(starts=800, seed=0), ctx128)
    assert len(sols.solutions) == SOLUTION_COUNTS[label]
    for sol in sols.solutions:
        assert sol.residual < ctx128.tau_res
        assert sol.multiplicity_hint >= 1


@pytest.mark.parametrize("label", ["E6,A1", "D4,A1"])
def test_solve_all_holds_positive_solution(label, ctx128):
    # every random start may miss it (D4,A1: all 200 land on y in {0, -1}),
    # yet the all-positive solution is always in the set
    p = pair(label)
    positive = solve_positive(p, ctx128)
    for seed in (1, 2, 3):
        sols = solve_all(p, SearchBudget(starts=200, seed=seed), ctx128)
        with ctx128.workprec():
            assert any(max(abs(a - b) for a, b in zip(s.y, positive.y)) < sols.dedup_tol
                       for s in sols.solutions), (label, seed)


def test_solve_all_seed_stability(ctx128):
    # same solution set from two independent multistart runs
    p = pair("A2,A1")
    a = solve_all(p, SearchBudget(starts=2000, seed=0), ctx128)
    b = solve_all(p, SearchBudget(starts=2000, seed=1), ctx128)
    assert len(a.solutions) == len(b.solutions)
    with ctx128.workprec():
        for sa, sb in zip(a.solutions, b.solutions):
            assert max(abs(u - v) for u, v in zip(sa.y, sb.y)) < 1e-20


def test_solve_all_conjugation_closure(ctx128):
    for label in ("A1,T2", "A2,A1"):
        sols = solve_all(pair(label), SearchBudget(starts=800, seed=0), ctx128)
        with ctx128.workprec():
            for s in sols.solutions:
                conj = [mp.conj(v) for v in s.y]
                assert any(
                    max(abs(a - b) for a, b in zip(conj, t.y)) < sols.dedup_tol
                    for t in sols.solutions
                )


def test_solve_all_dedup_separation(ctx128):
    sols = solve_all(pair("A1,T2"), SearchBudget(starts=800, seed=0), ctx128)
    with ctx128.workprec():
        for i, a in enumerate(sols.solutions):
            for b in sols.solutions[i + 1:]:
                assert max(abs(u - v) for u, v in zip(a.y, b.y)) > sols.dedup_tol


def test_solve_all_rank_cap():
    with pytest.raises(ValueError, match="rank_cap"):
        solve_all(pair("E7,A1"), SearchBudget(starts=10))


@pytest.mark.parametrize("label", ACCEPT_PAIRS)
def test_branch_diagnostics(label, ctx128):
    # a consistent branch choice exists for every solution; the principal
    # branch suffices exactly on the all-positive one
    sols = solve_all(pair(label), SearchBudget(starts=800, seed=0), ctx128)
    for s in sols.solutions:
        assert s.branch["branch_ok"], (label, s.branch)
        if all(0 < mp.re(v) < 1 and mp.im(v) == 0 for v in s.x):
            assert s.branch["principal_ok"]
            assert s.branch["principal_residual"] < 1e-15


def test_solution_set_json(ctx128):
    sols = solve_all(pair("A1,T1"), SearchBudget(starts=300, seed=0), ctx128)
    obj = sols.to_json_obj()
    assert obj["pair"] == "A1,T1"
    assert obj["starts"] == 300
    assert len(obj["solutions"]) == 2
    for entry in obj["solutions"]:
        assert len(entry["x"]) == 1 and len(entry["x"][0]) == 2
        # full-precision decimal strings
        assert isinstance(entry["x"][0][0], str)


def test_solve_all_determinism(ctx128):
    a = solve_all(pair("A1,T2"), SearchBudget(starts=500, seed=42), ctx128)
    b = solve_all(pair("A1,T2"), SearchBudget(starts=500, seed=42), ctx128)
    assert a.to_json_obj() == b.to_json_obj()
