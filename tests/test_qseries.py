import functools
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from adet import (
    PowerSeries,
    compare_series,
    eta_like_product,
    f_abc,
    inverse_pochhammer_q,
)
from adet.errors import NonIntegralExponent


@functools.cache
def _partitions_up_to(n, trunc):
    """Coefficients of 1/(q)_n to order trunc as a tuple of ints: the product
    of the geometric series 1 + q^m + q^2m + ... for m = 1..n."""
    if n == 0:
        return (1,) + (0,) * trunc
    prev = _partitions_up_to(n - 1, trunc)
    return tuple(sum(prev[k - j] for j in range(0, k + 1, n)) for k in range(trunc + 1))


def _product(lists, order):
    """Product of integer coefficient lists, truncated after q^order."""
    out = [1] + [0] * order
    for b in lists:
        new = [0] * (order + 1)
        for i, a in enumerate(out):
            if a:
                for j in range(order + 1 - i):
                    new[i + j] += a * b[j]
        out = new
    return out


def _lattice_sum(points, trunc):
    """sum q^e / ((q)_{n_1} ... (q)_{n_r}) over (n, e) with integer 0 <= e <= trunc."""
    total = [0] * (trunc + 1)
    for n, e in points:
        term = _product([_partitions_up_to(ni, trunc) for ni in n], trunc - e)
        for k, v in enumerate(term):
            total[e + k] += v
    return total


def partitions_with_parts(n, allowed):
    """Brute-force partition counter (independent oracle)."""
    allowed = sorted(allowed)

    def count(total, max_part_idx):
        if total == 0:
            return 1
        acc = 0
        for idx in range(max_part_idx + 1):
            part = allowed[idx]
            if part <= total:
                acc += count(total - part, idx)
        return acc

    return count(n, len(allowed) - 1) if allowed else (1 if n == 0 else 0)


def gap_partitions(n, min_part, gap):
    """Partitions of n into parts >= min_part with successive differences >= gap."""

    def count(total, smallest):
        if total == 0:
            return 1
        acc = 0
        for part in range(smallest, total + 1):
            acc += count(total - part, part + gap)
        return acc

    return count(n, min_part)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_pochhammer_partition_counts(n):
    inv = inverse_pochhammer_q(n, 30)
    assert all(c >= 0 for c in inv.coeffs)
    assert inv.coeffs == _partitions_up_to(n, 30)
    for total in range(31):
        assert inv.coeffs[total] == partitions_with_parts(total, range(1, n + 1))


def test_f_abc_quadratic_matrix_part():
    # first Rogers-Ramanujan sum side: frozen expansion to q^8
    series = f_abc([[2]], [0], 0, 8)
    assert series.coeffs == (1, 1, 1, 1, 2, 2, 3, 3, 4)
    # independent combinatorial oracle: partitions with gaps >= 2
    series = f_abc([[2]], [0], 0, 30)
    for n in range(31):
        assert series.coeffs[n] == gap_partitions(n, 1, 2)


def test_f_abc_second_rr_combinatorics():
    # B = (1): partitions into parts >= 2 with gaps >= 2
    series = f_abc([[2]], [1], Fraction(11, 60), 30)
    assert series.prefactor_exp == Fraction(11, 60)
    for n in range(31):
        assert series.coeffs[n] == gap_partitions(n, 2, 2)


def test_f_abc_nonnegative_coefficients():
    for a, b in ([[[2]], [0]], [[[2]], [1]], [[[2, 2], [2, 4]], [0, 0]], [[[4]], [2]]):
        series = f_abc(a, b, 0, 40)
        assert all(c >= 0 for c in series.coeffs)


def test_f_abc_ag_quadratic_form():
    # direct sum over the kept points: n^t A n / 2 = (n1+n2)^2 + n2^2 <= N
    order = 40
    points = [(n, e) for n in product(range(order + 1), repeat=2)
              if (e := (n[0] + n[1]) ** 2 + n[1] ** 2) <= order]
    direct = PowerSeries(tuple(_lattice_sum(points, order)), order)
    assert f_abc([[2, 2], [2, 4]], [0, 0], 0, order) == direct
    # n^t A n sees only the symmetric part (A + A^t)/2
    assert f_abc([[2, 3], [1, 4]], [0, 0], 0, order) == direct


def test_f_abc_block_extension_monotone():
    # sanity: appending an independent block can only add partitions
    base = f_abc([[2]], [0], 0, 20)
    extended = f_abc([[2, 0], [0, 2]], [0, 0], 0, 20)
    assert all(b <= e for b, e in zip(base.coeffs, extended.coeffs))


def test_f_abc_non_integral_exponent():
    with pytest.raises(NonIntegralExponent):
        f_abc([[1]], [0], 0, 10)
    # pentagonal-number exponents n(3n+1)/2 are fine
    series = f_abc([[3]], [Fraction(1, 2)], 0, 12)
    assert series.coeffs[0] == 1


def test_f_abc_rejects_indefinite_matrix():
    # [[2, 4], [0, 2]] has a positive-definite lower triangle but a singular symmetric part
    for a in ([[0]], [[2, 2], [2, 2]], [[2, 4], [0, 2]], [[2, 0, 0], [0, 2, 3], [0, 3, 4]]):
        with pytest.raises(ValueError, match="positive definite"):
            f_abc(a, [0] * len(a), 0, 5)


def _box_f_abc(a, b, c, trunc):
    """Reference f_abc: every point of a box around the ellipsoid, the box
    radius from the float eigenvalues of A (the enumeration f_abc used before
    it was pruned)."""
    amat = [[Fraction(v) for v in row] for row in a]
    r = len(amat)
    bvec = [Fraction(v) for v in b]
    lam_min = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in amat])).min()
    if lam_min <= 0:
        raise ValueError("A must be positive definite")
    bnorm = float(np.linalg.norm([float(v) for v in bvec]))
    # ||n|| bound: lam_min |n|^2 / 2 - |B| |n| <= trunc
    radius = (bnorm + (bnorm ** 2 + 2 * lam_min * trunc) ** 0.5) / lam_min
    box = int(radius) + 2
    points = []
    for n in product(range(box + 1), repeat=r):
        e = Fraction(0)
        for i in range(r):
            if n[i]:
                e += bvec[i] * n[i]
                for j in range(r):
                    if n[j]:
                        e += Fraction(amat[i][j] * n[i] * n[j], 2)
        if e > trunc:
            continue
        if e.denominator != 1 or e < 0:
            raise NonIntegralExponent(f"lattice point {n} contributes exponent {e}")
        points.append((n, int(e)))
    return PowerSeries(tuple(_lattice_sum(points, trunc)), trunc, Fraction(c))


def andrews_gordon_matrix(k):
    """2 C(T_k)^{-1}, the Nahm matrix of (A1, T_k)."""
    return [[2 * min(i, j) + 2 for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("a, b, order", [
    ([[2]], [0], 600), ([[2]], [1], 600), (andrews_gordon_matrix(2), [0, 0], 250),
    (andrews_gordon_matrix(3), [0, 0, 0], 120), (andrews_gordon_matrix(4), [0, 0, 0, 0], 24),
], ids=["rr1", "rr2", "ag2", "ag3", "ag4"])
def test_f_abc_matches_box_oracle_on_identities(a, b, order):
    assert f_abc(a, b, Fraction(-1, 60), order) == _box_f_abc(a, b, Fraction(-1, 60), order)


def _random_positive_definite(rng, r):
    # integer entries, odd diagonals and negative off-diagonals allowed; the
    # eigenvalue floor keeps the oracle's box small
    while True:
        a = [[0] * r for _ in range(r)]
        for i in range(r):
            a[i][i] = rng.randint(1, 7)
            for j in range(i):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        if np.linalg.eigvalsh(np.array(a, dtype=float)).min() > 0.6:
            return a


@pytest.mark.parametrize("seed", range(4))
def test_f_abc_matches_box_oracle_random(seed):
    rng = random.Random(seed)
    outcomes = {"series": 0, "raise": 0}
    for _ in range(60):
        r = rng.randint(1, 3)
        a = _random_positive_definite(rng, r)
        b = [Fraction(rng.randint(-6, 6), 2) for _ in range(r)]
        c = Fraction(rng.randint(-60, 60), 60)
        order = rng.randint(0, 14)
        try:
            expected = _box_f_abc(a, b, c, order)
        except NonIntegralExponent:
            with pytest.raises(NonIntegralExponent):
                f_abc(a, b, c, order)
            outcomes["raise"] += 1
            continue
        assert f_abc(a, b, c, order) == expected, (a, b, order)
        outcomes["series"] += 1
    # both sides of the contract are exercised
    assert min(outcomes.values()) >= 10, outcomes


def test_f_abc_rank_six_andrews_gordon():
    # out of reach of the box walk; Andrews-Gordon: prod over n != 0, +-7 mod 15
    t0 = time.perf_counter()
    lhs = f_abc(andrews_gordon_matrix(6), [0] * 6, 0, 40)
    assert time.perf_counter() - t0 < 5.0
    rhs = eta_like_product(set(range(1, 15)) - {7, 8}, 15, 40)
    assert compare_series(lhs, rhs).passed


def test_eta_like_product_values():
    prod = eta_like_product({1, 4}, 5, 8)
    assert prod.coeffs == (1, 1, 1, 1, 2, 2, 3, 3, 4)
    for n in range(9):
        parts = [k for k in range(1, 9) if k % 5 in (1, 4)]
        assert prod.coeffs[n] == partitions_with_parts(n, parts)


def test_eta_like_product_all_residues_is_partition_function():
    # with modulus beyond the truncation, every part is allowed
    n = 12
    prod = eta_like_product(set(range(1, n + 2)), n + 2, n)
    assert prod.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def test_eta_like_product_validation():
    with pytest.raises(ValueError):
        eta_like_product({0, 1}, 5, 10)
    with pytest.raises(ValueError):
        eta_like_product({5}, 5, 10)
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        eta_like_product(set(), 1, 10)


def test_rogers_ramanujan_identities():
    lhs = f_abc([[2]], [0], Fraction(-1, 60), 200)
    rhs = eta_like_product({1, 4}, 5, 200, prefactor_exp=Fraction(-1, 60))
    rep = compare_series(lhs, rhs)
    assert rep.passed
    assert lhs.prefactor_exp == Fraction(-1, 60)

    lhs = f_abc([[2]], [1], Fraction(11, 60), 200)
    rhs = eta_like_product({2, 3}, 5, 200, prefactor_exp=Fraction(11, 60))
    assert compare_series(lhs, rhs).passed


def test_andrews_gordon_rank_two():
    lhs = f_abc([[2, 2], [2, 4]], [0, 0], 0, 100)
    rhs = eta_like_product({1, 2, 5, 6}, 7, 100)
    assert compare_series(lhs, rhs).passed


def test_compare_series_detects_mismatch():
    lhs = f_abc([[2]], [0], 0, 40)
    broken = PowerSeries(lhs.coeffs[:-1] + (lhs.coeffs[-1] + 1,), lhs.trunc)
    rep = compare_series(lhs, broken)
    assert not rep.passed
    assert rep.metadata["first_mismatch"]["order"] == 40

    shifted = PowerSeries(lhs.coeffs, lhs.trunc, Fraction(1, 60))
    rep = compare_series(lhs, shifted)
    assert not rep.passed
    assert rep.records[0].residual > 0


def test_power_series_json():
    s = f_abc([[2]], [0], Fraction(-1, 60), 6)
    obj = s.to_json_obj()
    assert obj == {"C": "-1/60", "coeffs": ["1", "1", "1", "1", "2", "2", "3"], "N": 6}
