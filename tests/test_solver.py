import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adet
from adet import (
    NahmPolynomialSystem,
    SearchBudget,
    central_charge_at,
    constant_residual,
    solve_all,
    solve_positive,
    y_to_x,
)
from adet import solver
from adet.errors import PoleInput
from adet.verify import perturbed_pair

from conftest import ACCEPT_PAIRS, all_pairs_up_to, pair, step

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
    assert abs(y_to_x(1.0, ctx128) - 0.5) < 1e-30
    with pytest.raises(PoleInput):
        y_to_x(-1.0, ctx128)


def test_round_trip_many(ctx128, rng):
    zs = rng.uniform(-2, 2, (100, 4)) + 1j * rng.uniform(-2, 2, (100, 4))
    with ctx128.workprec():
        for row in zs:
            back = y_to_x([mp.mpc(x) / (1 - mp.mpc(x)) for x in row], ctx128)
            assert max(abs(a - b) for a, b in zip(back, row)) < 1e-28


@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(z):
    if abs(z - 1) < 1e-3:
        return
    with adet.DEFAULT_CONTEXT.workprec():
        x = adet.precision.to_mpc(z)
        back = y_to_x(x / (1 - x))
        assert abs(back - x) < 1e-25


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
    nxt = step(p, y, y, ctx128)
    with ctx128.workprec():
        assert max(abs(a - b) for a, b in zip(nxt, y)) < ctx128.tau_res
        assert max(abs(r) for r in NahmPolynomialSystem(p).residual(y)) < ctx128.tau_res


def test_solve_positive_contraction(ctx128):
    # Newton steps contract near the fixed point
    sol = solve_positive(pair("A1,T2"), ctx128)
    steps = [s for s in sol.newton["step_norms"] if s > 0]
    assert len(steps) >= 2
    assert all(b < a for a, b in zip(steps, steps[1:]))


# large h + h', where a linearly convergent start stops far from the root,
# and the largest E pair
@pytest.mark.parametrize("label", ["D30,A1", "A1,D36", "D31,T1", "T32,T2", "E8,E8"])
def test_solve_positive_large_pairs(label, ctx128):
    p = pair(label)
    sol = solve_positive(p, ctx128)
    assert sol.residual < ctx128.tau_res
    assert all(0 < mp.re(v) < 1 and mp.im(v) == 0 for v in sol.x)
    assert central_charge_at(p, sol, ctx128).error < 1e-20


@pytest.mark.parametrize("label", ["A1,T1", "A1,T2", "E6,A1", "E8,A1", "D8,E8", "A1,D36"])
def test_positive_start_is_near_the_root(label, ctx128):
    # the float Newton start has converged, not only entered the basin:
    # it lies within 1e-8 relative of the polished root
    p = pair(label)
    start = solver._positive_start(p)
    assert all(type(v) is mp.mpf for v in start)
    root = solve_positive(p, ctx128).y
    assert max(abs(a - b) / abs(b) for a, b in zip(start, root)) < 1e-8


def _positive_start_exhaustive(p):
    """Test oracle: `_positive_start` with every step trying all
    _MAX_HALVINGS + 1 step lengths, however far below the rounding floor."""
    a = np.kron(2 * np.eye(p.r) - p.ix, np.linalg.inv(2 * np.eye(p.rp) - p.ixp))

    def grad(u):
        return a @ u + np.log(-np.expm1(-u))

    u = np.ones(p.n)
    g = grad(u)
    for _ in range(solver._FLOAT_MAX_ITER):
        du = np.linalg.solve(a + np.diag(1 / np.expm1(u)), -g)
        for lam in 0.5 ** np.arange(solver._MAX_HALVINGS + 1):
            trial = u + lam * du
            if np.all(trial > 0) and np.max(np.abs(g_trial := grad(trial))) < np.max(np.abs(g)):
                break
        else:
            break
        u, g = trial, g_trial
    return [mp.mpf(v) for v in np.expm1(u).tolist()]


@pytest.mark.parametrize("label", ["D30,A1", "A1,D36", "D31,T1", "T32,T2", "E8,E8",
                                   "A1,T1", "A1,T2", "A1,T3", "A1,T4"])
def test_positive_start_stops_at_the_rounding_floor(label):
    # ending the halving search once u + lam du rounds to u changes no bit
    p = pair(label)
    assert [v._mpf_ for v in solver._positive_start(p)] == [v._mpf_ for v in _positive_start_exhaustive(p)]


# Newton iterations of the positive solution's polish; the crawl stop must
# not cut any of these runs short.  The step that ends a run scales as
# 2^-bits, so at 256 bits each run of 2 iterations takes two more
POSITIVE_ITERATIONS = {
    128: {"A1,A1": 1, "A1,T1": 2, "A1,T2": 2, "A2,A1": 2, "A2,T1": 1,
          "A1,A2": 2, "A3,A1": 2, "T1,T1": 1, "D4,A1": 2, "E6,A1": 2},
    256: {"A1,A1": 1, "A1,T1": 4, "A1,T2": 4, "A2,A1": 4, "A2,T1": 1,
          "A1,A2": 4, "A3,A1": 4, "T1,T1": 1, "D4,A1": 4, "E6,A1": 4},
}


@pytest.mark.parametrize("bits", [128, 256])
def test_solve_positive_iterations_unchanged(bits):
    ctx = adet.PrecisionContext(bits)
    got = {label: solve_positive(pair(label), ctx).newton for label in POSITIVE_ITERATIONS[bits]}
    assert all(info["converged"] for info in got.values())
    assert {label: info["iterations"] for label, info in got.items()} == POSITIVE_ITERATIONS[bits]


@pytest.mark.parametrize("label", ["D4,A1", "E6,A1"])
def test_solve_positive_residual_scales_with_precision(label):
    # 512 bits resolve about 1e-154; a step stop that ignores the precision ends near 1e-84
    sol = solve_positive(pair(label), adet.PrecisionContext(512))
    assert sol.newton["converged"]
    assert sol.residual <= 1e-140


def test_newton_mp_stops_on_a_crawl(ctx128):
    # next to the cleared locus y = (-1, -1) of A2,T1 the steps barely
    # shrink; without the crawl stop the run takes all 200 iterations
    system = NahmPolynomialSystem(pair("A2,T1"))
    y, info = solver._newton_mp(system, [-1 + 4e-5j, -1 - 4e-5j], ctx128)
    assert not info["converged"]
    assert info["iterations"] <= 12
    steps = info["step_norms"]
    assert all(2 * b > a for a, b in zip(steps, steps[1:]))


@pytest.mark.parametrize("bits", [128, 256])
def test_lin_solve_matches_lu_solve(bits):
    # random complex systems: the elimination agrees with mpmath's LU solve
    rng = np.random.default_rng(bits)
    with mp.workprec(bits):
        for n in range(1, 9):
            for _ in range(5):
                a = [[mp.mpc(*rng.standard_normal(2)) for _ in range(n)] for _ in range(n)]
                b = [mp.mpc(*rng.standard_normal(2)) for _ in range(n)]
                got = solver._lin_solve(a, b)
                ref = mp.lu_solve(mp.matrix(a), mp.matrix(b))
                err = max(abs(u - v) for u, v in zip(got, ref)) / max(abs(v) for v in ref)
                assert err <= mp.mpf(2) ** -(bits - 8), (n, err)


def test_lin_solve_swaps_rows():
    # a zero leading entry: without a row swap the first pivot would be 0
    a = [[0, mp.mpc(1)], [mp.mpc(2), mp.mpc(1)]]
    assert solver._lin_solve(a, [mp.mpc(3), mp.mpc(7)]) == [2, 3]
    assert a == [[0, 1], [2, 1]]  # the input is left as it was


def test_lin_solve_refuses_singular_matrices(ctx128):
    # the numerically singular matrix has a nonzero pivot 1e-60, far below
    # ||a||_1 * eps; solving it would not divide by zero
    with ctx128.workprec():
        exact = [[mp.mpc(1), mp.mpc(2)], [mp.mpc(2), mp.mpc(4)]]
        numerical = [[mp.mpc(1), mp.mpc(1)], [0, mp.mpc("1e-60")]]
        for a in (exact, numerical):
            with pytest.raises(ZeroDivisionError):
                solver._lin_solve(a, [mp.mpc(1), mp.mpc(1)])
            with pytest.raises(ZeroDivisionError):
                mp.lu_solve(mp.matrix(a), mp.matrix([1, 1]))


def test_newton_mp_singular_jacobian_returns_none(ctx128):
    # on the cleared locus y = (-1, -1) of A2,T1 the Jacobian is [[1, 1], [1, 1]]
    system = NahmPolynomialSystem(pair("A2,T1"))
    with ctx128.workprec():
        assert system.jacobian([mp.mpc(-1)] * 2) == [[1, 1], [1, 1]]
    assert solver._newton_mp(system, [-1, -1], ctx128) is None


def _random_seeds(label, starts, seed):
    n = pair(label).n
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(-1, 1, (starts, n))) * np.exp(1j * rng.uniform(0, 2 * np.pi, (starts, n)))


def _same_roots(a, b):
    # bit for bit, None where the other is None
    return len(a) == len(b) and all(
        (u is None and v is None) or (u is not None and v is not None and u.tobytes() == v.tobytes())
        for u, v in zip(a, b))


@pytest.mark.parametrize("label", ["A1,T2", "A3,A2", "E6,A1"])
def test_row_evaluator_matches_mp(label, ctx128):
    # the batched complex128 evaluator against the same system on mp scalars,
    # with y = -1, a zero component and -0-0j among the rows
    p = pair(label)
    system = NahmPolynomialSystem(p)
    ys = _random_seeds(label, 20, 2) * 3
    ys[0], ys[1, 0], ys[2] = -1, 0, complex(-0.0, -0.0)
    res = solver._on_rows(system.residual, ys)
    jac = solver._on_rows(system.jacobian, ys)
    assert res.shape == (20, p.n) and jac.shape == (20, p.n, p.n)
    with ctx128.workprec():
        for i, y in enumerate(ys):
            y_mp = [mp.mpc(v) for v in y]
            for got, want in ((res[i], system.residual(y_mp)), (jac[i], system.jacobian(y_mp))):
                want = mp.matrix(want)
                got = mp.matrix(got.tolist())
                assert mp.mnorm(got - want, 1) <= 1e-12 * mp.mnorm(want, 1), (i, got, want)


def _newton_one_start(system, y0):
    """Reference: the per-start float Newton that the batch replaced, with each
    start evaluated as a one-row batch, and the batch's stop at a y near the
    degenerate locus (returned as a root whatever its residual)."""
    def residual(y):
        return solver._on_rows(system.residual, y[None])[0]

    y = np.asarray(y0, dtype=complex)
    r = residual(y)
    if not np.all(np.isfinite(r)):
        return None
    rnorm = np.max(np.abs(r))
    for _ in range(solver._FLOAT_MAX_ITER):
        try:
            dy = np.linalg.solve(solver._on_rows(system.jacobian, y[None])[0], -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dy)):
            return None
        lam = 1.0
        for _ in range(solver._MAX_HALVINGS + 1):
            cand = y + lam * dy
            rc = residual(cand)
            if np.all(np.isfinite(rc)) and np.max(np.abs(rc)) < rnorm:
                break
            lam *= 0.5
        else:
            break  # no halving drops the residual: the run ends here
        y, r, rnorm = cand, rc, np.max(np.abs(rc))
        if np.max(np.abs(y)) > 1e8:
            return None
        if min(np.min(np.abs(y)), np.min(np.abs(1 + y))) < solver._FLOAT_DEGENERATE:
            return y
        if lam * np.max(np.abs(dy)) < solver._FLOAT_MIN_STEP:
            break
    return y if rnorm < 1e-8 else None


@pytest.mark.parametrize("label", ["A1,T2", "A2,T1", "A3,A2", "D4,A1", "E6,A1"])
def test_float_batch_matches_one_start_at_a_time(label):
    # bit for bit, roots and Nones alike; the last start, y = -1, has a
    # singular Jacobian for A1,T2 and A2,T1
    system = NahmPolynomialSystem(pair(label))
    seeds = np.concatenate([_random_seeds(label, 60, 4), -np.ones((1, pair(label).n))])
    batch = solver._newton_batch(system, seeds)
    assert _same_roots(batch, [_newton_one_start(system, row) for row in seeds])
    assert any(r is not None for r in batch)


@pytest.mark.parametrize("label", ["A2,T1", "A3,A2", "E6,A1"])
def test_float_batch_rows_are_independent(label):
    system = NahmPolynomialSystem(pair(label))
    seeds = _random_seeds(label, 120, 1)
    full = solver._newton_batch(system, seeds)
    assert any(r is not None for r in full)
    perm = np.random.default_rng(7).permutation(len(seeds))
    assert _same_roots(solver._newton_batch(system, seeds[perm]), [full[i] for i in perm])
    for i in range(0, len(seeds), 10):
        assert _same_roots(solver._newton_batch(system, seeds[i:i + 1]), full[i:i + 1]), i


def test_float_batch_singular_row_drops_alone():
    # the A1,T2 Jacobian at y = (-1, -1) is [[0, 0], [1, 1]]: one batched
    # solve fails, and only that row loses its root
    system = NahmPolynomialSystem(pair("A1,T2"))
    seeds = _random_seeds("A1,T2", 40, 3)
    singular = np.array([[-1, -1]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.asarray(system.jacobian(singular[0]), dtype=complex), np.ones(2))
    mixed = solver._newton_batch(system, np.concatenate([seeds[:7], singular, seeds[7:]]))
    assert mixed[7] is None
    plain = solver._newton_batch(system, seeds)
    assert _same_roots(mixed[:7] + mixed[8:], plain)
    assert sum(r is not None for r in plain) > 30


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


def test_solution_coordinates_are_mpc(ctx128):
    # x is derived from y after y is made complex, so a real root still
    # yields complex x on every path (D4,A1's positive root at 200 starts)
    sols = list(solve_all(pair("D4,A1"), SearchBudget(starts=200, seed=1), ctx128).solutions)
    sols += [solve_positive(pair(label), ctx128) for label in ("A1,T1", "D4,A1")]
    for sol in sols:
        assert all(type(v) is mp.mpc for v in sol.x + sol.y), (sol.x, sol.y)


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


def test_solve_all_holds_the_positive_solution(ctx128):
    # the positive root comes from solve_positive; when no start reaches it
    # (E6,A1 at one start, seed 1), that same Solution is the set's entry
    p = pair("E6,A1")
    sols = solve_all(p, SearchBudget(starts=1, seed=1), ctx128)
    assert sols.positive == solve_positive(p, ctx128)
    assert len(sols.solutions) == 1 and sols.solutions[0] is sols.positive
    assert "positive" not in sols.to_json_obj()
    # a start reached it on A1,T1: the entry polished from that start stays
    sols = solve_all(pair("A1,T1"), SearchBudget(starts=200, seed=1), ctx128)
    near = [s for s in sols.solutions
            if max(abs(a - b) for a, b in zip(s.y, sols.positive.y)) < sols.dedup_tol]
    assert len(near) == 1 and near[0] is not sols.positive


def test_solve_all_rank_cap():
    assert solver.RANK_CAP == 6
    with pytest.raises(ValueError, match="search cap 6"):
        solve_all(pair("E7,A1"), SearchBudget(starts=10))


def _branch_defect(p, x, k, ctx):
    """Distance of delta - A k from Z^n, delta_i = (Log x_i - sum_j a_ij Log(1 - x_j)) / 2 pi i."""
    a = adet.nahm_matrix(p.x, p.xp)

    def mpq(f):
        return mp.mpf(f.numerator) / f.denominator

    with ctx.workprec():
        worst = mp.mpf(0)
        for i in range(p.n):
            logs = mp.fsum(mpq(a[i, j]) * mp.log(1 - x[j]) for j in range(p.n))
            v = (mp.log(x[i]) - logs) / (2j * mp.pi) - mpq(sum(a[i, j] * k[j] for j in range(p.n)))
            worst = max(worst, abs(v - mp.nint(mp.re(v))))
        return worst


@pytest.mark.parametrize("label", ACCEPT_PAIRS + ["E6,A1", "A5,A1", "A3,A2"])
def test_branch_diagnostics(label, ctx128):
    # a consistent branch choice exists for every solution, at every rank; the
    # principal branch suffices exactly on the all-positive one.  Seed 1 finds
    # A3,A2 solutions on which k = 0 fails (E6,A1 and A5,A1 have them at any seed).
    p = pair(label)
    sols = solve_all(p, SearchBudget(starts=800, seed=0 if label in ACCEPT_PAIRS else 1), ctx128)
    for s in sols.solutions:
        assert s.branch["branch_ok"], (label, s.branch)
        assert _branch_defect(p, s.x, s.branch["k"], ctx128) < 1e-12, (label, s.branch)
        if all(0 < mp.re(v) < 1 and mp.im(v) == 0 for v in s.x):
            assert s.branch["principal_ok"]
            assert s.branch["principal_residual"] < 1e-15


def test_branch_diagnostics_no_integer_branch(ctx128):
    # coker C(A2) (x) coker C(A2) = Z/3: the two non-positive A2,A2 solutions
    # sit at delta = 1/3 mod Z^n + A Z^n, so no integer k exists
    sols = solve_all(pair("A2,A2"), SearchBudget(starts=400, seed=0), ctx128)
    assert len(sols.solutions) == 3
    failed = [s.branch for s in sols.solutions if not s.branch["branch_ok"]]
    assert len(failed) == 2
    assert all(b["k"] is None and b["branch_defect"] == mp.inf for b in failed)


@pytest.mark.parametrize("label", ["A2,A1", "E6,A1"])
def test_branch_diagnostics_phase_nudge_fails(label, ctx128):
    # Re delta sees only arguments: turning the phase of one x_j moves the
    # defect.  A real rescaling of x_j leaves Re delta, and the defect,
    # unchanged on these real solutions; Im delta catches it.
    p = pair(label)
    for s in solve_all(p, SearchBudget(starts=400, seed=0), ctx128).solutions:
        assert s.branch["delta_imag"] < 1e-40, (label, s.branch)
        with ctx128.workprec():
            turned, scaled = list(s.x), list(s.x)
            turned[0] *= mp.expj(mp.mpf("1e-6"))
            scaled[0] *= 1 + mp.mpf("1e-6")
        branch = solver.nahm_branch_diagnostics(p, turned, ctx128)
        assert not branch["branch_ok"], (label, branch)
        assert 1e-8 < branch["branch_defect"] < 1e-6, (label, branch)
        branch = solver.nahm_branch_diagnostics(p, scaled, ctx128)
        assert not branch["branch_ok"], (label, branch)
        assert branch["branch_defect"] < 1e-12 and 1e-8 < branch["delta_imag"] < 1e-6, (label, branch)


def test_branch_diagnostics_read_the_diagrams_of_a_perturbed_pair(ctx128):
    # A, the branch lattice and the lcm of A's denominators are built once per
    # PairIndexing from the diagrams X and X'.  A copy made with
    # dataclasses.replace builds its own, and a bumped recurrence exponent,
    # which changes ix but not the diagrams, leaves every diagnostic as it is.
    p = pair("A2,A1")
    bumped = perturbed_pair(p, "x", 0, 1)
    assert bumped.ix != p.ix and bumped.nahm is not p.nahm
    assert bumped.nahm == p.nahm == adet.nahm_matrix(p.x, p.xp)
    assert bumped.lattice == p.lattice
    sols = solve_all(p, SearchBudget(starts=400, seed=0), ctx128)
    assert len(sols.solutions) == 2
    for s in sols.solutions:
        assert solver.nahm_branch_diagnostics(bumped, s.x, ctx128) == s.branch


def test_integer_solve():
    rng = np.random.default_rng(7)
    for _ in range(300):
        rows, cols = rng.integers(1, 7), rng.integers(1, 9)
        g = rng.integers(-6, 7, size=(rows, cols))
        g[rng.integers(rows)] *= rng.integers(0, 2)  # a zero row now and then
        w = (g @ rng.integers(-5, 6, size=cols)).tolist()
        z = solver._integer_solve(g.tolist(), w)
        assert z is not None and (g @ np.array(z, dtype=object)).tolist() == w, (g, w, z)
    # 2 z_1 + 4 z_2 is even
    assert solver._integer_solve([[2, 4]], [1]) is None


def _integer_solve_rebuilding_every_column(g, w):
    """Test oracle: the column echelon solve that rebuilds every column on
    each Euclid step, also those with a zero entry in the current row."""
    rows, cols = len(g), len(g[0])
    free = [list(c) + [int(i == j) for i in range(cols)] for j, c in enumerate(zip(*g))]
    acc = [0] * (rows + cols)
    for i in range(rows):
        while sum(1 for c in free if c[i]) > 1:
            p = min((c for c in free if c[i]), key=lambda c: abs(c[i]))
            free = [c if c is p else [a - c[i] // p[i] * b for a, b in zip(c, p)] for c in free]
        rem = w[i] - acc[i]
        pivot = next((j for j, c in enumerate(free) if c[i]), None)
        if rem and (pivot is None or rem % free[pivot][i]):
            return None
        if pivot is not None:
            col = free.pop(pivot)
            acc = [a + rem // col[i] * b for a, b in zip(acc, col)]
    return acc[rows:]


def test_integer_solve_matches_full_rebuild():
    # the branch lattice g = [C(X) (x) 1, 1 (x) C(X')] of nahm_branch_diagnostics,
    # on every pair with rank product <= 16 and on E8,E8, with right-hand
    # sides in the lattice and arbitrary ones (not in it when det C > 1)
    rng = np.random.default_rng(11)
    outcomes = set()
    for label in all_pairs_up_to(16) + ["E8,E8"]:
        p = pair(label)
        cx, cxp = (np.array(adet.cartan_matrix(d).entries, dtype=int) for d in (p.x, p.xp))
        g = np.hstack([np.kron(cx, np.eye(len(cxp), dtype=int)),
                       np.kron(np.eye(len(cx), dtype=int), cxp)])
        assert [list(row) for row in p.lattice[0]] == g.tolist(), label
        for w in ((g @ rng.integers(-3, 4, size=g.shape[1])).tolist(), rng.integers(-3, 4, size=p.n).tolist()):
            z = solver._integer_solve(g.tolist(), w)
            assert z == _integer_solve_rebuilding_every_column(g.tolist(), w), (label, w)
            outcomes.add(z is None)
    assert outcomes == {True, False}


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


def test_solve_all_crawl_stop_keeps_outcome(ctx128):
    # at the CLI's default budget A2,T1 rejects 29 polished candidates, most
    # crawling toward y = (-1, -1); the crawl stop ends those runs early and
    # rejects the same ones
    sols = solve_all(pair("A2,T1"), SearchBudget(2000, 0), ctx128)
    assert len(sols.solutions) == SOLUTION_COUNTS["A2,T1"]
    assert sols.meta == {"converged_starts": 1998, "degenerate_hits": 1904, "polish_rejections": 29}
