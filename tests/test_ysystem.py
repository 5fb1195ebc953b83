import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from mpmath import libmp

import adet
from adet import (check_periodicity, constant_residual, iterate, monomial_sign, perturbed_pair,
                  wedge_form_residual)
from adet.errors import DegenerateInput, DegenerateStep, WindowTooShort
from adet.precision import GUARD_BITS, to_mpc
from adet.ysystem import (ESCALATION_THRESHOLD, _binary, _complex, _levels, _next_level, _peak, _run_grid,
                          _seeds, _table, _to_libmp, _top, _tropical_table)

from conftest import ACCEPT_PAIRS, all_pairs_up_to, pair, sample_points, step


def test_step_hand_value_a1t1(ctx128):
    # single-variable recurrence with the T1 loop: Y(u+1) = [1/(1+1/Y(u))] / Y(u-1)
    out = step(pair("A1,T1"), [1.0], [1.0], ctx128)
    assert abs(out[0] - mp.mpf(1) / 2) < 1e-30
    assert abs(iterate(pair("A1,T1"), [1.0], 1, ctx128).value(0, 1) - mp.mpf(1) / 2) < 1e-30


def test_step_hand_value_a1a1(ctx128):
    # both adjacency matrices vanish: Y(u+1) = 1/Y(u-1)
    out = step(pair("A1,A1"), [1.0], [2.0], ctx128)
    assert abs(out[0] - 1) < 1e-30
    out = step(pair("A1,A1"), [4.0], [0.3], ctx128)
    assert abs(out[0] - mp.mpf(1) / 4) < 1e-30
    out = step(pair("A1,A1"), [4.0 + 1j], [0.3 - 2j], ctx128)  # the mpc table
    with ctx128.workprec():
        assert abs(out[0] - 1 / mp.mpc(4, 1)) < 1e-30


def test_step_constant_solution_is_fixed_point(ctx128):
    # golden-ratio fixed points: y^2 + y = 1 for (A1,T1), y^2 = 1 + y for (T1,A1)
    with ctx128.workprec():
        y = (mp.sqrt(5) - 1) / 2
        out = step(pair("A1,T1"), [y], [y], ctx128)
        assert abs(out[0] - y) < 1e-30
        phi = (1 + mp.sqrt(5)) / 2
        out = step(pair("T1,A1"), [phi], [phi], ctx128)
        assert abs(out[0] - phi) < 1e-30


def test_step_degenerate_inputs(ctx128):
    # each error with its message, index and u, on the mpf and the mpc table
    p = pair("A1,T1")
    cases = [
        (p, [1.0], [0.0], "Y vanished where its inverse is needed"),
        (p, [0.0], [1.0], "Y(u-1) vanished"),
        (p, [1.0], [-1.0], "factor 1+1/Y vanished"),
        (pair("A2,A1"), [1.0, 1.0], [-1.0, 1.0], "factor 1+Y vanished"),
    ]
    for kind in (float, complex):
        for q, prev, cur, message in cases:
            with pytest.raises(DegenerateStep) as exc:
                step(q, [kind(v) for v in prev], [kind(v) for v in cur], ctx128)
            assert (str(exc.value), exc.value.index, exc.value.u) == (message, (0, 0), 1)
        # through iterate: Y(-1) = 1/y and Y(0) = y, so 1 + Y(0) = 0 at y = -1
        with pytest.raises(DegenerateStep) as exc:
            iterate(pair("A2,A1"), [kind(-1.0), kind(1.0)], 3, ctx128)
        assert (str(exc.value), exc.value.index, exc.value.u) == ("factor 1+Y vanished", (0, 0), 1)


def test_iterate_windows_and_values(ctx128):
    p = pair("A1,A1")
    traj = iterate(p, [1.0], 32, ctx128)
    for u in range(-1, 33):
        v = traj.value(0, u)
        assert mp.isfinite(v) and v != 0
    # closed form: Y(u+1) = 1/Y(u-1) from Y(-1)=1/y, Y(0)=y
    traj = iterate(p, [2.0], 8, ctx128)
    expect = {-1: 0.5, 0: 2, 1: 2, 2: 0.5, 3: 0.5, 4: 2, 5: 2, 6: 0.5, 7: 0.5, 8: 2}
    for u, v in expect.items():
        assert abs(traj.value(0, u) - v) < 1e-30


def test_iterate_random_positive_seeds(ctx128, rng):
    p = pair("A2,A1")
    y = list(rng.uniform(0.5, 2.0, p.n))
    traj = iterate(p, y, 2 * p.period, ctx128)
    assert traj.u_max == 20
    for (k, u), v in traj.values.items():
        assert mp.isfinite(v) and v != 0


def test_iterate_zero_seed_raises(ctx128):
    with pytest.raises(DegenerateStep):
        iterate(pair("A1,A1"), [0.0], 4, ctx128)


def test_decoupling_bit_identical(ctx128, rng):
    # P+ values never read the opposite-parity copy: the level loop on the
    # P+ indices alone (as the tangent grid runs it) reproduces iterate's P+ values
    for label in ("A2,A1", "E6,A1", "D4,A2", "A3,A3", "A1,T2"):
        p = pair(label)
        y = list(rng.uniform(0.5, 2.0, p.n))
        traj = iterate(p, y, p.period, ctx128)
        with mp.workprec(ctx128.mantissa_bits + GUARD_BITS):
            yv = _seeds(p, y, ctx128.tau_res)
            levels = _levels(p, {k: 1 / yv[k] for k in p.active_indices(-1)},
                             {k: yv[k] for k in p.active_indices(0)},
                             p.period, _table(yv, ctx128.tau_res), p.active_indices)
        plus = {(k, u): v for u, level in levels.items() for k, v in level.items()}
        assert set(plus) == {key for key in traj.values if p.in_P_plus(*key)}, label
        for key, v in plus.items():
            assert traj.values[key] == v, (label, key)  # bitwise equal


def test_backward_step_recovers_previous(ctx128, rng):
    # the recurrence is symmetric in Y(u-1) <-> Y(u+1)
    for label in ("A1,T1", "A2,A1", "A2,T2"):
        p = pair(label)
        y = list(rng.uniform(0.5, 2.0, p.n))
        traj = iterate(p, y, 6, ctx128)
        lv = lambda u: [traj.value(k, u) for k in range(p.n)]
        back = step(p, lv(4), lv(3), ctx128)
        with ctx128.workprec():
            worst = max(abs(a - b) for a, b in zip(back, lv(2)))
        assert worst < ctx128.tau_eq


@pytest.mark.parametrize("label,period", [("A1,A1", 8), ("A1,T1", 10), ("A2,T2", 16)])
def test_periodicity_named_pairs(label, period, ctx128, rng):
    p = pair(label)
    assert p.period == period
    for _ in range(3):
        y = list(rng.uniform(0.5, 2.0, p.n))
        traj = iterate(p, y, 2 * p.period, ctx128)
        rep = check_periodicity(traj, ctx128)
        assert rep.passed, rep.records[0].residual_str
        assert rep.records[0].residual < 1e-25


def test_periodicity_window_too_short(ctx128):
    p = pair("A1,A1")
    traj = iterate(p, [1.3], p.period - 1, ctx128)
    with pytest.raises(WindowTooShort):
        check_periodicity(traj, ctx128)


def _relative_periodicity_oracle(traj):
    """max |Y(u+p) - Y(u)| / max(1, |Y(u)|) over the window, on mp numbers."""
    p = traj.pair
    with mp.workprec(traj.precision_bits + GUARD_BITS):
        return max(abs(traj.value(k, u + p.period) - traj.value(k, u)) / max(1, abs(traj.value(k, u)))
                   for u in range(traj.u_max - p.period + 1) for k in range(p.n))


@pytest.mark.parametrize("label,imag", [("A1,T1", 0), ("A2,A1", 0), ("E6,A1", 0), ("E8,A1", 0),
                                        ("A2,T1", 0.1), ("D4,A1", 0.1)])
def test_periodicity_residual_is_relative(label, imag, ctx128, rng):
    # the residual divides by a power of two within a factor 2 of max(1, |Y(u)|)
    p = pair(label)
    y = [complex(a, imag * b) if imag else a
         for a, b in zip(rng.uniform(0.5, 2.0, p.n), rng.uniform(-1, 1, p.n))]
    traj = iterate(p, y, 2 * p.period, ctx128)
    residual = check_periodicity(traj, ctx128).records[0].residual
    oracle = float(_relative_periodicity_oracle(traj))
    assert 0 < oracle / 2 <= residual <= 2 * oracle, (label, residual, oracle)


def test_periodicity_e8a1_passes_at_112_bits(rng):
    # |Y| reaches about 7e15 on E8,A1, so the absolute difference read up to
    # 2e-21 against the 1e-25 gate at 112 bits; the relative one stays near
    # the unit roundoff
    ctx = adet.PrecisionContext(mantissa_bits=112)
    p = pair("E8,A1")
    for _ in range(4):
        traj = iterate(p, list(rng.uniform(0.5, 2.0, p.n)), 2 * p.period, ctx)
        rep = check_periodicity(traj, ctx)
        assert rep.passed and rep.records[0].residual < 1e-33, rep.records[0].residual_str


@pytest.mark.slow
def test_periodicity_sweep_all_supported_pairs(ctx256):
    # every supported pair with rank product <= 8, 20 random seeds, 256 bits
    rng = np.random.default_rng(77)
    for label in all_pairs_up_to(8):
        p = pair(label)
        for _ in range(20):
            y = list(rng.uniform(0.5, 2.0, p.n))
            traj = iterate(p, y, 2 * p.period, ctx256)
            rep = check_periodicity(traj, ctx256)
            assert rep.records[0].residual < 1e-25, (label, rep.records[0].residual_str)


def test_monomial_sign_examples(ctx128, monkeypatch):
    # the degrees are exact integers: no trajectory is iterated
    monkeypatch.setattr(adet.ysystem, "iterate", None)
    p = pair("A1,A1")
    assert monomial_sign(p, 0, 0, ctx128) == 1  # Y(0) = y itself
    assert monomial_sign(p, 0, 2, ctx128) == -1  # Y(2) = 1/y
    with pytest.raises(ValueError):
        monomial_sign(p, 0, 1, ctx128)  # (0,1) not in P+
    with pytest.raises(ValueError):
        monomial_sign(p, 0, 99, ctx128)  # outside the S+ window


# frozen from the epsilon-limit runs; cross-checked against the central-charge
# rationals below (count of negatives / per-index appearances in S+)
NEG_COUNTS = {
    "A1,A1": (2, 4),
    "A1,T1": (4, 10),
    "A1,T2": (8, 14),
    "A2,A1": (6, 5),
    "A2,T1": (12, 12),
    "A1,A2": (4, 5),
    "A3,A1": (12, 6),
    "T1,T1": (6, 12),
}


@pytest.mark.parametrize("label", ACCEPT_PAIRS)
def test_monomial_sign_counts(label, ctx128):
    p = pair(label)
    signs = [monomial_sign(p, k, u, ctx128) for (k, u) in p.S_plus()]
    assert all(s in (-1, 1) for s in signs)
    neg, per_index = NEG_COUNTS[label]
    assert sum(1 for s in signs if s == -1) == neg
    assert len(p.S_plus()) // p.n == per_index


@pytest.mark.parametrize("label", ACCEPT_PAIRS)
def test_monomial_count_matches_central_charge(label, ctx128):
    # sum_i L(x_i)/L(1) at the positive solution equals (# negative monomials
    # per index window); ties the sign structure to the dilogarithm identity
    neg, per_index = NEG_COUNTS[label]
    probe = adet.central_charge_probe(pair(label), ctx128)
    assert probe.rational == Fraction(neg, per_index)


def _eps_limit_signs(p, ctx):
    """Test oracle: with every seed eps in {1e-4, 1e-6, 1e-8}, |Y_k(u)| shrinks
    (+1) or grows (-1) monotonically; None if neither.  tau_res is lowered so
    that the tiny values eps**deg are not taken for degeneracies."""
    limit_ctx = replace(ctx, tau_res=1e-300)
    trajs = [iterate(p, [e] * p.n, p.period - 1, limit_ctx) for e in (1e-4, 1e-6, 1e-8)]
    signs = {}
    for (k, u) in p.S_plus():
        a, b, c = (abs(t.values[(k, u)]) for t in trajs)
        signs[(k, u)] = 1 if a > b > c else -1 if a < b < c else None
    return signs


@pytest.mark.slow
def test_monomial_sign_never_unstable_small_pairs(ctx128):
    # the epsilon limit is monotone and equals the tropical sign at every S+
    # position for rr' <= 8 (which holds every pair the benchmark signs)
    for label in all_pairs_up_to(8):
        p = pair(label)
        for (k, u), sign in _eps_limit_signs(p, ctx128).items():
            assert monomial_sign(p, k, u, ctx128) == sign, (label, k, u)


@pytest.mark.slow
def test_tropical_degrees_never_zero():
    # every active position has a genuine leading monomial, so monomial_sign
    # never meets degree 0 on these pairs
    for label in all_pairs_up_to(16):
        p = pair(label)
        for u, degrees in enumerate(_tropical_table(p)):
            assert all(degrees[k] != 0 for k in p.active_indices(u)), (label, u)


def _tropical_by_hand(p) -> tuple:
    """Test oracle: the tropical recurrence written out on the plan, with
    1 + Y -> min(0, deg Y) and 1 + 1/Y -> -max(0, deg Y)."""
    prev, cur = (-1,) * p.n, (1,) * p.n
    table = []
    for _ in range(p.period):
        table.append(cur)
        prev, cur = cur, tuple(
            sum(m * min(0, cur[j]) for j, m in ups)
            + sum(m * max(0, cur[j]) for j, m in downs) - prev[k]
            for k, (ups, downs) in enumerate(p.factors)
        )
    return tuple(table)


def test_tropical_table_matches_hand_recurrence():
    labels = all_pairs_up_to(16)
    assert len(labels) == 385
    for label in labels:
        p = pair(label)
        assert _tropical_table(p) == _tropical_by_hand(p), label
    bumped = replace(pair("A2,A1"), ix=((0, 2), (1, 0)))
    assert _tropical_table(bumped) == _tropical_by_hand(bumped) != _tropical_table(pair("A2,A1"))


@pytest.mark.slow
def test_monomial_count_matches_central_charge_all_small_pairs(ctx128):
    for label in all_pairs_up_to(8):
        p = pair(label)
        signs = [monomial_sign(p, k, u, ctx128) for (k, u) in p.S_plus()]
        per_index = len(signs) // p.n
        probe = adet.central_charge_probe(p, ctx128)
        assert Fraction(signs.count(-1), per_index) == probe.rational, label
        assert probe.error < 1e-20, label  # the positive solution sums to c


def test_periodicity_exact_rational_seeds():
    # Y(u + 2(h+h')) == Y(u) with no rounding: the recurrence on Fractions
    rng = np.random.default_rng(11)
    for label in all_pairs_up_to(8) + ["E6,E6", "E7,E7"]:
        p = pair(label)
        y = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 10, size=(p.n, 2))]
        levels = _levels(p, {k: 1 / v for k, v in enumerate(y)}, dict(enumerate(y)),
                         p.period, _table(y, 0), lambda u: range(p.n))
        assert levels[p.period - 1] == levels[-1] and levels[p.period] == levels[0], label


def test_escalation_on_extreme_magnitudes():
    # deep-epsilon seeds push |Y| below 1e-30 (A1,T2 reaches 1e-32) or past
    # 1e30 (A2,A1 reaches 1e40), forcing the 256-bit re-run of the whole
    # grid: every value is then the one a 256-bit context computes
    ctx = replace(adet.DEFAULT_CONTEXT, tau_res=1e-300)
    ctx_hi = replace(ctx, mantissa_bits=256)
    for label, eps in (("A1,T2", 1e-8), ("A2,A1", 1e-20)):
        p = pair(label)
        traj = iterate(p, [eps] * p.n, p.period - 1, ctx)
        assert traj.precision_bits == 256, label
        direct = iterate(p, [eps] * p.n, p.period - 1, ctx_hi)
        assert traj.values == direct.values, label


def _next_level_per_neighbour(pair, prev, cur, ks, ar, u):
    """Test oracle: the recurrence step that forms and checks each factor
    1 + Y_j or 1 + 1/Y_j anew for every index that reads it, written for the
    operator table on mp objects (it divides the int 1 by the denominator)."""
    out = {}
    for k in ks:
        ups, downs = pair.factors[k]
        num = None
        for j, m in ups:
            f = ar.one_plus(cur[j])
            if ar.small(f):
                raise DegenerateStep("factor 1+Y vanished", index=pair.indices[j], u=u)
            fm = f if m == 1 else ar.pow(f, m)
            num = fm if num is None else ar.mul(num, fm)
        den = None
        for j, m in downs:
            yv = cur[j]
            if ar.small(yv):
                raise DegenerateStep("Y vanished where its inverse is needed", index=pair.indices[j], u=u)
            f = ar.one_plus(ar.recip(yv))
            if ar.small(f):
                raise DegenerateStep("factor 1+1/Y vanished", index=pair.indices[j], u=u)
            fm = f if m == 1 else ar.pow(f, m)
            den = fm if den is None else ar.mul(den, fm)
        pv = prev[k]
        if ar.small(pv):
            raise DegenerateStep("Y(u-1) vanished", index=pair.indices[k], u=u)
        val = num if num is not None else 1
        if den is not None:
            val = ar.div(val, den)
        out[k] = ar.div(val, pv)
    return out


def _bits(values: dict) -> dict:
    """Type and raw libmp tuple of every value: equal iff bit-identical (a
    repr prints only the digits of the ambient precision)."""
    return {key: (type(v).__name__, getattr(v, "_mpc_", None) or v._mpf_) for key, v in values.items()}


def _operator_table(values, tol):
    """The operator table whatever the seed types: mp objects, mp operators."""
    return _table([Fraction(1)], tol)


def _reference_path(monkeypatch):
    """Run every grid through the per-neighbour step on mp objects, through
    the operator table: the reference for the libmp table and the factor cache."""
    monkeypatch.setattr(adet.ysystem, "_table", _operator_table)
    monkeypatch.setattr(adet.ysystem, "_next_level", _next_level_per_neighbour)


def test_table_follows_seed_types():
    # all-mpf seeds run on the binary kernel (mantissas padded to the working
    # precision, wider ones read exactly), all-mpc seeds on raw libmp tuples;
    # levels mixing the two, Fractions and infinite mpf values run on the operators
    with mp.workprec(144):
        ar, raw, wrap = _table([mp.mpf(2), mp.mpf(3)], 1e-20)
        assert raw(mp.mpf(2)) == (1 << 143, -142) and raw(mp.mpf(-0.75)) == (-3 << 142, -144)
        wide = to_mpc(2 ** 200 + 1)
        assert raw(wide) == (2 ** 200 + 1, 0) and wrap(raw(wide))._mpf_ == wide._mpf_
        assert wrap(ar.mul(raw(mp.mpf(2)), raw(mp.mpf(3))))._mpf_ == mp.mpf(6)._mpf_
        assert _table([mp.mpc(2, 1), mp.mpc(3)], 1e-20)[1](mp.mpc(2, 1)) == mp.mpc(2, 1)._mpc_
        for values in ([mp.mpf(2), mp.mpc(3, 1)], [Fraction(1, 2)], [mp.pi], [mp.mpf(2), mp.inf]):
            ar, raw, wrap = _table(values, 1e-20)
            assert ar.small(mp.mpc(1e-21, 0)) and raw(values[0]) is values[0], values


def _kernel_cases(prec, seed):
    """(a, b) pairs of libmp tuples for the kernel's property test: random
    operands of both signs and of up to 3 prec bits, ties, carries to
    2^prec, addends prec + 3 to 2 prec apart, exact cancellation, and
    operands wider than prec next to a far addend, either side of libmp's
    rule that exponents more than 100 apart make the far one a sticky bit."""
    gen = random.Random(seed)
    p = prec

    def num(m, e):
        return libmp.from_man_exp(m, e)

    def man(bits):
        return gen.getrandbits(bits) | 1 << bits - 1

    def sign():
        return gen.choice((1, -1))

    cases = []
    for _ in range(1500):
        ea, eb = gen.randint(-3 * p, 3 * p), gen.randint(-3 * p, 3 * p)
        bits = [gen.choice((p, p, gen.randint(1, p), gen.randint(p + 1, 3 * p))) for _ in "ab"]
        cases.append((num(sign() * man(bits[0]), ea), num(sign() * man(bits[1]), eb)))
        cases.append((num(sign() * man(bits[0]), ea), num(sign() * man(bits[1]), ea - gen.randint(-8, 8))))
    for _ in range(100):
        c, s, e = man(p), sign(), gen.randint(-p, p)
        cases.append((num(s * c, e), num(sign(), e - 1)))  # a sum at a tie
        cases.append((num(s * c, e), num(-s * c, e)))  # exact cancellation
        cases.append((num(s * c, e), num(-s * (c + sign()), e)))
        cases.append((num(s * (c | 1) if c < 2 * 2 ** p // 3 else s * (c & -4 | 2), e), num(3, e)))  # a tie product
        cases.append((num(s * (2 * c + 1) * 3, e), num(3, gen.randint(-p, p))))  # a tie quotient
        cases.append((num(s * (2 ** p - 1), e), num(s * gen.randint(1, 3), e - 2)))  # carries to 2^prec
        cases.append((num(s * (2 ** p - 1), e), num(2 ** (p + gen.randint(0, 3)) + 1, -p - 3)))
        cases.append((num(s * (2 ** gen.randint(p + 1, p + 5) + 1), e), num(3, 0)))
        gap = gen.randint(p + 3, 2 * p)  # top bits gap apart
        cases.append((num(s * man(p), e), num(sign() * man(gen.choice((1, p))), e - gap)))
        # a wide operand one unit of its last place above a tie, and an addend
        # of two units below it: exact, the sum rounds down; as a sticky bit, up
        extra = gen.randint(10, 120)
        wide = s * (((2 * c + 1) << extra) + 1)
        for low in (e - 101, e - 99):
            cases.append((num(wide, e), num(-s * ((1 << e + 1 - low) + 1), low)))
    return cases


def _kernel_mismatches(prec, seed=2811):
    """The (operation, a, b) on which the kernel at `prec` bits misses
    libmp's add, sub, mul, div or reciprocal, as mp's operators call them,
    or returns a nonzero mantissa of other than `prec` bits."""
    rnd = libmp.round_nearest
    with mp.workprec(prec):
        ar, raw, _ = _binary(prec, 1e-20)
    add = ar.one_plus.func  # one_plus is the kernel's sum with 1 bound first

    def read(a):
        return raw(mp.make_mpf(a))

    ops = {"add": (lambda a, b: add(read(a), read(b)), lambda a, b: libmp.mpf_add(a, b, prec, rnd)),
           "sub": (lambda a, b: add(read(a), read(libmp.mpf_neg(b))), lambda a, b: libmp.mpf_sub(a, b, prec, rnd)),
           "mul": (lambda a, b: ar.mul(read(a), read(b)), lambda a, b: libmp.mpf_mul(a, b, prec, rnd)),
           "div": (lambda a, b: ar.div(read(a), read(b)), lambda a, b: libmp.mpf_div(a, b, prec, rnd)),
           "recip": (lambda a, b: ar.recip(read(a)), lambda a, b: libmp.mpf_rdiv_int(1, a, prec, rnd))}
    out = []
    for a, b in _kernel_cases(prec, seed):
        for name, (kernel, ref) in ops.items():
            m, e = kernel(a, b)
            if _to_libmp(m, e) != ref(a, b) or m and m.bit_length() != prec:
                out.append((name, a, b))
    return out


@pytest.mark.parametrize("prec", [144, 272, 528])
def test_kernel_matches_libmp(prec):
    # every operation of the binary kernel gives libmp's bits, at the
    # working precisions of 128, 256 and 512 bits
    assert _kernel_mismatches(prec) == []


def _half_up(prec):
    """A rounding that sends ties up instead of to even: a mutant of `_rounding`."""
    def rnd(m, e):
        n = m.bit_length() - prec
        if n <= 0:
            return (m << -n, e + n) if m else adet.ysystem._ZERO
        m = (m + (1 << n - 1)) >> n
        return (m >> 1, e + n + 1) if m.bit_length() > prec else (m, e + n)
    return rnd


def test_kernel_property_sees_half_up(monkeypatch):
    # the cases hold ties: rounding them up instead of to even is seen
    monkeypatch.setattr(adet.ysystem, "_rounding", _half_up)
    assert len(_kernel_mismatches(144)) > 50


# (pair, seed vector, u_max, tau_res, escalates).  No unperturbed pair has an
# exponent above 1 (A1,T2's loop is I_22 = 1), so in the bumped A3,A1 the
# factor 1 + Y_1 enters Y_0 squared and Y_2 once; A1,T2 has the tadpole
# loop, the complex seeds take the mpc table, and the deep-epsilon A2,A1 grid
# escalates
ORACLE_CASES = {
    "A3,A1": (pair("A3,A1"), [0.7, 1.3, 1.9], None, 1e-20, False),
    "E6,A1": (pair("E6,A1"), [0.6, 1.1, 1.7, 0.9, 1.4, 0.8], None, 1e-20, False),
    "A1,T2": (pair("A1,T2"), [1.2, 0.55], None, 1e-20, False),
    "A3,A1 bumped": (perturbed_pair(pair("A3,A1"), "x", 0, 1), [0.8, 1.7, 1.2], None, 1e-20, False),
    "A2,A2 complex": (pair("A2,A2"), [complex(0.8, 0.1), complex(1.5, -0.05), complex(1.1, 0.07),
                                      complex(0.6, -0.1)], None, 1e-20, False),
    "E6,A1 complex": (pair("E6,A1"), [complex(0.6, 0.08), complex(1.1, -0.02), complex(1.7, 0.05),
                                      complex(0.9, -0.09), complex(1.4, 0.01), complex(0.8, -0.06)],
                      None, 1e-20, False),
    "A2,A1 escalating": (pair("A2,A1"), [1e-20, 1e-20], 9, 1e-300, True),
}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("case", ORACLE_CASES)
def test_factor_cache_matches_per_neighbour_step(case, bits, monkeypatch):
    # the libmp table with each factor formed once per level changes no
    # value: iterate is bit for bit the trajectory of the per-neighbour step
    # on mp objects, escalation included
    p, y, u_max, tau_res, escalates = ORACLE_CASES[case]
    ctx = adet.PrecisionContext(mantissa_bits=bits, tau_res=tau_res)
    u_max = 2 * p.period if u_max is None else u_max
    traj = iterate(p, y, u_max, ctx)
    _reference_path(monkeypatch)
    ref = iterate(p, y, u_max, ctx)
    assert traj.precision_bits == ref.precision_bits == (256 if escalates else bits)
    assert _bits(traj.values) == _bits(ref.values)


# sha256 of `_trajectory_digest`, recorded when every all-mpf grid ran
# through libmp's mpf_add, mpf_mul, mpf_div and mpf_rdiv_int, at the roots
# the mp polish reaches from the float Newton start of `solve_positive`
TRAJECTORY_DIGEST = "57e29f5da9599ef7f0b42129d889ef828330ac25efe0c65b0ae3c3bf99af8f1f"


def _trajectory_digest() -> str:
    """sha256 over the raw tuples of `iterate` on every pair with rank
    product <= 8 at 128 and 256 bits (seeds in [0.5, 2], two periods), on
    negative and mixed-sign seeds, a squared factor, three escalating grids,
    and of `constant_residual` at three polished positive roots."""
    h = hashlib.sha256()
    rng = np.random.default_rng(2811)
    ctxs = [adet.PrecisionContext(mantissa_bits=bits) for bits in (128, 256)]
    deep = replace(adet.DEFAULT_CONTEXT, tau_res=1e-300)
    cases = [(pair(label), list(rng.uniform(0.5, 2.0, pair(label).n)), ctx)
             for label in all_pairs_up_to(8) for ctx in ctxs]
    cases += [(pair("A3,A2"), list(rng.uniform(-2.0, -0.5, 6)), ctxs[0]),
              (pair("D4,A1"), list(rng.uniform(-1.5, 1.5, 4)), ctxs[1]),
              (perturbed_pair(pair("A3,A1"), "x", 0, 1), [0.8, 1.7, 1.2], ctxs[0]),
              (pair("A2,A1"), [1e-20, 1e-20], deep),
              (pair("A1,T2"), [1e-8, 1e-8], deep),
              (pair("E6,A1"), [1e25, 3e-22, 7.0, 0.125, 1e-3, 2.0 ** 60], deep)]
    for p, y, ctx in cases:
        traj = iterate(p, y, 2 * p.period, ctx)
        for key in sorted(traj.values):
            h.update(repr((key, traj.values[key]._mpf_)).encode())
    for label in ("A2,T1", "E6,A1", "D4,A2"):
        p = pair(label)
        root = [v.real for v in adet.solve_positive(p, ctxs[0]).y]
        h.update(repr(constant_residual(p, root, ctxs[0])._mpf_).encode())
    return h.hexdigest()


def test_trajectories_are_unchanged():
    # a kernel change that moves any trajectory or residual bit shows
    assert _trajectory_digest() == TRAJECTORY_DIGEST


def test_factor_cache_keeps_wedge_residual(ctx128, monkeypatch):
    # the tangent grid runs the same step on P+ at a complex point
    p = pair("E6,A1")
    pt = sample_points(p, 1, np.random.default_rng(4))[0]
    res = wedge_form_residual(p, pt, ctx128).residual
    _reference_path(monkeypatch)
    assert res._mpf_ == wedge_form_residual(p, pt, ctx128).residual._mpf_


def _truncating_binary(prec, tol):
    """The binary kernel with a division that truncates instead of rounding to nearest."""
    ar, raw, wrap = _binary(prec, tol)

    def div(a, b):
        q = (a[0] << 2 * prec) // b[0]
        n = q.bit_length() - prec
        return q >> n, a[1] - b[1] - 2 * prec + n

    return ar._replace(div=div), raw, wrap


def _floor_dividing_complex(prec, tol):
    """The mpc table with a division that rounds down instead of to nearest."""
    ar, raw, wrap = _complex(prec, tol)
    return ar._replace(div=lambda a, b: libmp.mpc_div(a, b, prec, libmp.round_floor)), raw, wrap


@pytest.mark.parametrize("case,kind", [("E6,A1", mp.mpf), ("E6,A1 complex", mp.mpc)])
def test_oracle_sees_a_rounding_mutant(case, kind, monkeypatch):
    # the comparison is not vacuous: a division rounding down instead of to
    # nearest, on the binary kernel (mpf) or through libmp (mpc), moves the
    # trajectory off the reference
    p, y, _, tau_res, _ = ORACLE_CASES[case]
    ctx = adet.PrecisionContext(mantissa_bits=128, tau_res=tau_res)
    if kind is mp.mpf:
        monkeypatch.setattr(adet.ysystem, "_binary", _truncating_binary)
    else:
        monkeypatch.setattr(adet.ysystem, "_complex", _floor_dividing_complex)
    mutant = iterate(p, y, 2 * p.period, ctx)
    _reference_path(monkeypatch)
    assert _bits(mutant.values) != _bits(iterate(p, y, 2 * p.period, ctx).values)


@pytest.mark.parametrize("bits", [128, 256])
def test_wide_seeds_match_per_neighbour_step(bits, monkeypatch):
    # a 200-bit int seed, read exactly, and a 400-bit mpf seed enter the
    # first steps wider than the working precision (|Y| spans 2^+-200, so
    # tau_res is lowered); a polished root 32 bits wider than
    # constant_residual's precision does the same
    p = pair("A2,A3")
    ctx = adet.PrecisionContext(mantissa_bits=bits)
    deep = replace(ctx, tau_res=1e-300)
    with mp.workprec(400):
        y = [2 ** 200 + 1, mp.sqrt(2), mp.sqrt(3) / 5, mp.mpf(1) / 3, mp.sqrt(5) - 1, mp.pi / 4]
    root = [v.real for v in adet.solve_positive(p, ctx).y]
    assert min(v._mpf_[3] for v in root) > bits + GUARD_BITS
    traj = iterate(p, y, 2 * p.period, deep)
    residual = constant_residual(p, root, ctx)
    assert traj.value(0, 0)._mpf_ == libmp.from_int(2 ** 200 + 1) and traj.value(1, 0)._mpf_[3] > 256
    _reference_path(monkeypatch)
    assert _bits(traj.values) == _bits(iterate(p, y, 2 * p.period, deep).values)
    assert residual._mpf_ == constant_residual(p, root, ctx)._mpf_


def _near_tol(tol, kind):
    """0, +-tol, tol (1 +- 2^-k), 2 tol and tol/2 as `kind`; for mpc also on
    the imaginary axis and off both axes, with a value whose parts are each
    below tol while its modulus is above."""
    reals = [mp.mpf(0), tol, -tol, 2 * tol, tol / 2, 4 * tol, tol / 4]
    reals += [tol * (1 + s * mp.mpf(2) ** -k) for k in (1, 2, 3, 10, 53, 100, 140, 143, 144) for s in (1, -1)]
    if kind is mp.mpf:
        return reals
    c = tol * mp.mpf("0.8")
    return ([mp.mpc(v) for v in reals] + [mp.mpc(0, v) for v in reals] + [mp.mpc(c, c), mp.mpc(-c, c)]
            + [mp.mpc(v * mp.cos(t), v * mp.sin(t)) for v in reals[1:] for t in (0.3, 2.0, -1.2)])


@pytest.mark.parametrize("kind", [mp.mpf, mp.mpc])
@pytest.mark.parametrize("tau", [1e-20, 1e-300, 0.75, 1.0])
def test_small_agrees_with_abs(kind, tau):
    # the exponent screen and its fallback answer exactly as |x| <= tol
    with mp.workprec(144):
        tol = mp.mpf(tau)
        ar, raw, _ = _table([kind(1)], tol)
        points = _near_tol(tol, kind)
        if kind is mp.mpc:
            c = tol * mp.mpf("0.8")
            assert abs(mp.mpc(c, c)) > tol and not ar.small(raw(mp.mpc(c, c)))
        for v in points:
            assert ar.small(raw(v)) == (abs(v) <= tol), (kind, tau, v)


@pytest.mark.parametrize("kind", [mp.mpf, mp.mpc])
def test_small_sees_a_narrow_band(kind, monkeypatch):
    # a screen that decides tol's own binade from the exponent alone, either
    # way (binary kernel), or whose band is one binade too narrow (mpc), takes
    # values on the wrong side of tol (for mpc only where tol sits low in its
    # binade, as 1.0 does)
    if kind is mp.mpf:
        mutants = [lambda top: (lambda x: x[1] + x[0].bit_length() <= top),
                   lambda top: (lambda x: x[1] + x[0].bit_length() < top)]
    else:
        monkeypatch.setattr(adet.ysystem, "_COMPLEX_BAND", adet.ysystem._COMPLEX_BAND - 1)
        mutants = [None]
    with mp.workprec(144):
        for mutant in mutants:
            wrong = 0
            for tol in (mp.mpf(1e-20), mp.mpf(1)):
                ar, raw, _ = _table([kind(1)], tol)
                small = ar.small if mutant is None else mutant(_top(tol._mpf_))
                wrong += sum(small(raw(v)) != (abs(v) <= tol) for v in _near_tol(tol, kind))
            assert wrong > 0


def _raised(step, p, prev, cur, ar, wrap, u):
    try:
        return _bits({k: wrap(v) for k, v in step(p, prev, cur, range(p.n), ar, u).items()})
    except DegenerateStep as exc:
        return (str(exc), exc.index, exc.u)


@pytest.mark.parametrize("label", ["A3,A1", "A1,A3", "A2,A2", "A1,T2", "D4,A1"])
def test_degenerate_step_same_as_per_neighbour(label, ctx128):
    # over every level with components in {-1, 0, 1/2, 2} (and a zero or a
    # one in Y(u-1)), the step on the libmp table raises the error the
    # per-neighbour step on mp objects raises, with its message, index and
    # u, or returns its values, for mpf and mpc levels
    p = pair(label)
    with ctx128.workprec():
        tol = mp.mpf(ctx128.tau_res)
        ops = _operator_table(None, tol)[0]
        for kind in (mp.mpf, mp.mpc):
            ar, raw, wrap = _table([kind(1)], tol)
            comps = [kind(-1), kind(0), kind(0.5), kind(2)]
            for cur in itertools.product(comps, repeat=p.n):
                cur = dict(enumerate(cur))
                for zero in range(-1, p.n):
                    prev = {k: kind(0 if k == zero else 1) for k in range(p.n)}
                    got = _raised(_next_level, p, {k: raw(v) for k, v in prev.items()},
                                  {k: raw(v) for k, v in cur.items()}, ar, wrap, 3)
                    ref = _raised(_next_level_per_neighbour, p, prev, cur, ops, lambda v: v, 3)
                    assert got == ref, (label, kind, cur, zero)


def test_degenerate_shared_factor(ctx128):
    # the middle node of A3 feeds both ends: 1 + Y_1 = 0 (A3,A1) and
    # 1 + 1/Y_1 = 0 or Y_1 = 0 (A1,A3) raise at the first index that reads it
    cases = [
        ("A3,A1", -1.0, "factor 1+Y vanished"),
        ("A1,A3", -1.0, "factor 1+1/Y vanished"),
        ("A1,A3", 0.0, "Y vanished where its inverse is needed"),
    ]
    for label, value, message in cases:
        p = pair(label)
        shared = [k for k, (ups, downs) in enumerate(p.factors)
                  if any(j == 1 for j, _ in ups + downs)]
        assert len(shared) == 2, label
        with pytest.raises(DegenerateStep) as exc:
            step(p, [1.0, 1.0, 1.0], [0.5, value, 2.0], ctx128)
        assert (str(exc.value), exc.value.index, exc.value.u) == (message, p.indices[1], 1)
        if value:  # a zero seed is refused before any step
            with pytest.raises(DegenerateStep) as exc:
                iterate(p, [0.5, value, 2.0], 4, ctx128)
            assert (str(exc.value), exc.value.index, exc.value.u) == (message, p.indices[1], 1)


@pytest.mark.parametrize("label,y,u_max,bits,tau_res", [
    ("A2,A1", [0.7, 1.6], 20, 128, 1e-20),
    ("D4,A1", [0.55, 1.9, 1.2, 0.8], 24, 256, 1e-20),
    ("A2,A2", [complex(0.8, 0.1), complex(1.5, -0.05), complex(1.1, 0.07), complex(0.6, -0.1)], 20, 128, 1e-20),
    ("A2,A1", [1e-20, 1e-20], 9, 128, 1e-300),
    ("A1,T1", [1e-16], 9, 128, 1e-300),
])
def test_peak_matches_naive_max(label, y, u_max, bits, tau_res):
    # max(max |Y|, 1/min |Y|) is the naive max over max(|Y|, 1/|Y|), exactly
    levels, peak = _run_grid(pair(label), y, u_max, bits, tau_res)
    with mp.workprec(bits + GUARD_BITS):
        assert peak == max(float(max(a, 1 / a)) for level in levels.values() for a in map(abs, level.values()))


def test_peak_reads_moduli_across_binades():
    # an mpc whose larger part lies a binade below another value's can still
    # hold the extreme modulus: |0.9 + 0.9i| = 1.27 > 1, and 0.5 < |0.45 + 0.45i|
    with mp.workprec(144):
        for values in ([mp.mpc(0.9, 0.9), mp.mpc(1)], [mp.mpc(0.5), mp.mpc(0.45, 0.45)]):
            mags = [abs(v) for v in values]
            assert _peak(values) == max(float(max(mags)), float(1 / min(mags))), values


def test_escalation_on_small_magnitudes_only():
    # A1,T1 from y = 1e-16 spans 1e-32 <= |Y| <= 1e16 over a period: the
    # values below 1e-30 alone trigger the 256-bit re-run
    ctx = replace(adet.DEFAULT_CONTEXT, tau_res=1e-300)
    p = pair("A1,T1")
    levels, peak = _run_grid(p, [1e-16], p.period - 1, ctx.mantissa_bits, ctx.tau_res)
    mags = [abs(v) for level in levels.values() for v in level.values()]
    assert max(mags) < ESCALATION_THRESHOLD < 1 / min(mags)
    assert peak > ESCALATION_THRESHOLD
    traj = iterate(p, [1e-16], p.period - 1, ctx)
    assert traj.precision_bits == 256
    assert traj.values == iterate(p, [1e-16], p.period - 1, replace(ctx, mantissa_bits=256)).values


def test_constant_residual_values(ctx128):
    # |Y(1) - y| for one step from Y(-1) = Y(0) = y
    with ctx128.workprec():
        p = pair("A1,A1")
        assert constant_residual(p, [1.0], ctx128) < 1e-30
        assert constant_residual(p, [2.0], ctx128) == mp.mpf(1.5)  # Y(1) = 1/2
        assert constant_residual(pair("A1,T1"), [1.0], ctx128) == mp.mpf(0.5)  # Y(1) = (1/2)/1
        y = (mp.sqrt(5) - 1) / 2
        assert constant_residual(pair("A1,T1"), [y], ctx128) < 1e-25
        phi = (1 + mp.sqrt(5)) / 2
        assert constant_residual(pair("T1,A1"), [phi], ctx128) < 1e-25


def _constant_drift(p, y):
    """Test oracle: max_k |rhs_k(y) / y_k - y_k| on mp operators, with the
    right-hand side written out from the adjacency rows."""
    worst = 0
    for k, (i, ip) in enumerate(p.indices):
        num, den = mp.mpf(1), mp.mpf(1)
        for j, m in enumerate(p.ix[i]):
            num *= (1 + y[j * p.rp + ip]) ** m
        for jp, m in enumerate(p.ixp[ip]):
            den *= (1 + 1 / y[i * p.rp + jp]) ** m
        worst = max(worst, abs(num / den / y[k] - y[k]))
    return worst


def test_constant_residual_is_the_step_drift(ctx128):
    # all-mpf, all-mpc and mixed inputs (the last on the operator table)
    # read max_k |Y_k(1) - y_k| from the step seeded with Y(-1) = Y(0) = y
    with ctx128.workprec():
        for label in ("A2,T1", "A1,T2", "A3,A2"):
            p = pair(label)
            re, im = np.linspace(0.6, 1.4, p.n), np.linspace(-0.2, 0.3, p.n)
            for y in ([mp.mpf(a) for a in re], [mp.mpc(a, b) for a, b in zip(re, im)],
                      [mp.mpf(re[0])] + [mp.mpc(a, b) for a, b in zip(re[1:], im[1:])]):
                got = constant_residual(p, y, ctx128)
                assert abs(got - _constant_drift(p, y)) < 1e-35 * got, (label, y)
        # a mixed root vector reads as a root
        sol = adet.solve_positive(pair("A2,T1"), ctx128)
        assert constant_residual(pair("A2,T1"), [sol.y[0], mp.re(sol.y[1])], ctx128) < ctx128.tau_res


def test_constant_residual_solver_outputs(ctx128):
    for label in ("A1,T1", "A2,A1", "A1,T2"):
        p = pair(label)
        sol = adet.solve_positive(p, ctx128)
        assert constant_residual(p, list(sol.y), ctx128) < ctx128.tau_res


def test_constant_residual_degenerate_inputs(ctx128):
    p = pair("A2,A1")
    with pytest.raises(DegenerateInput):
        constant_residual(p, [0.0, 1.0], ctx128)
    with pytest.raises(DegenerateInput):
        constant_residual(p, [1.0, -1.0], ctx128)
