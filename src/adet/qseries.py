"""Exact truncated q-series: Nahm-type sums, residue-class infinite products,
and their coefficientwise comparison.

Coefficients are arbitrary-size Python integers; a global prefactor exponent
q^C is carried separately as an exact Fraction.  Both sides are built by
dividing an integer list by 1 - q^m in place, to a fixed truncation order,
so no coefficient beyond that order is ever fabricated.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .dynkin import RationalMatrix, _ldl, _ldl_solve
from .errors import NonIntegralExponent
from .report import CheckRecord, VerificationReport

__all__ = [
    "PowerSeries",
    "inverse_pochhammer_q",
    "f_abc",
    "eta_like_product",
    "compare_series",
]


@dataclass(frozen=True)
class PowerSeries:
    """q^prefactor_exp * sum_k coeffs[k] q^k, exact up to order trunc."""

    coeffs: tuple
    trunc: int
    prefactor_exp: Fraction = Fraction(0)

    def __post_init__(self):
        if self.trunc < 0 or len(self.coeffs) != self.trunc + 1:
            raise ValueError("coefficient list must have length trunc + 1")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        object.__setattr__(self, "prefactor_exp", Fraction(self.prefactor_exp))

    def head(self, terms: int = 9) -> str:
        parts = []
        for k, c in enumerate(self.coeffs[:terms]):
            if c:
                parts.append(f"{c}*q^{k}" if k else str(c))
        body = " + ".join(parts).replace("+ -", "- ") or "0"
        pre = f"q^({self.prefactor_exp}) * " if self.prefactor_exp else ""
        return f"{pre}({body} + O(q^{min(terms, self.trunc + 1)}))"

    def __repr__(self):
        return f"PowerSeries({self.head(6)}, trunc={self.trunc})"

    def to_json_obj(self) -> dict:
        return {"C": str(self.prefactor_exp), "coeffs": [str(c) for c in self.coeffs],
                "N": self.trunc}


def _divide_by_binomial(coeffs: list, m: int) -> None:
    """coeffs <- coeffs / (1 - q^m), in place, to the list's own order."""
    for k in range(m, len(coeffs)):
        coeffs[k] += coeffs[k - m]


# no caller in the library: perfbench/tracing.py patches it by name
def inverse_pochhammer_q(n: int, trunc: int) -> PowerSeries:
    """1/(q)_n: the generating function of partitions into parts <= n."""
    if n < 0 or trunc < 0:
        raise ValueError("n and trunc must be nonnegative")
    coeffs = [1] + [0] * trunc
    for part in range(1, min(n, trunc) + 1):
        _divide_by_binomial(coeffs, part)
    return PowerSeries(tuple(coeffs), trunc)


def _as_fraction_matrix(a) -> list[list[Fraction]]:
    if isinstance(a, RationalMatrix):
        return a.to_nested()
    return [[Fraction(v) for v in row] for row in a]


def f_abc(a, b, c, trunc: int) -> PowerSeries:
    """Nahm-type sum  sum_n q^{n^t A n / 2 + B^t n} / ((q)_{n_1} ... (q)_{n_r}),
    with the global prefactor q^C kept symbolic.

    A must be positive definite; every lattice point with exponent <= trunc
    must produce a nonnegative integer power, else NonIntegralExponent.

    Only the points n >= 0 with Q(n) = n^t A n / 2 + B^t n <= trunc are
    visited (Fincke-Pohst enumeration).  Over Q, S = (A + A^t)/2 = L D L^t and
    x* = -S^{-1} B give  Q(n) = Q(x*) + sum_j d_j z_j^2 / 2  with
    z_j = y_j + sum_{i>j} L_ij y_i,  y = n - x*.  The coordinates are fixed
    from n_{r-1} down to n_0.  Once n_{k+1}, ..., n_{r-1} are fixed, the terms
    j >= k are the exact minimum of Q over the free coordinates, a convex
    parabola in n_k, so the loop over n_k ends at the first value past the
    vertex where that bound exceeds trunc.  Every bound and every exponent is
    an exact rational.  The product 1/((q)_{n_1} ... (q)_{n_r}) is carried down
    the recursion: stepping n_k from m - 1 to m divides the running list by
    1 - q^m in place, and each kept point adds that list into the result at
    its exponent.  Each step costs O(trunc) integer additions, and a step
    leaves the ellipsoid only to end its loop or to approach a vertex beyond 0:
    Andrews-Gordon rank 4 to order 24 takes 81 steps, where the box [0, 11]^4
    around the ellipsoid holds 20736 points.
    """
    amat = _as_fraction_matrix(a)
    r = len(amat)
    bvec = [Fraction(v) for v in b]
    if r == 0 or len(bvec) != r or any(len(row) != r for row in amat):
        raise ValueError("A must be r x r and B of length r")
    if trunc < 0:
        raise ValueError("trunc must be nonnegative")
    low, piv = _ldl([[(amat[i][j] + amat[j][i]) / 2 for j in range(r)] for i in range(r)])
    xs = _ldl_solve(low, piv, [-v for v in bvec])  # x* = -S^{-1} B
    total = [0] * (trunc + 1)
    n = [0] * r

    def visit(k: int, base: Fraction, series: list) -> None:
        # n_{k+1..r-1} are fixed and base is the minimum of Q over the rest;
        # every exponent below is >= base, so fewer orders suffice
        run = series[: trunc + 1 - max(0, math.ceil(base))]
        centre = xs[k] - sum(low[i][k] * (n[i] - xs[i]) for i in range(k + 1, r))
        m = 0
        while True:
            if m:
                _divide_by_binomial(run, m)
            bound = base + piv[k] * (m - centre) ** 2 / 2
            if bound > trunc:
                if m >= centre:
                    return
            elif k:
                n[k] = m
                visit(k - 1, bound, run)
            else:
                n[0] = m
                if bound.denominator != 1 or bound < 0:
                    raise NonIntegralExponent(
                        f"lattice point {tuple(n)} contributes exponent {bound}, "
                        "not a nonnegative integer"
                    )
                e = int(bound)
                total[e:] = map(operator.add, total[e:], run)
            m += 1

    # Q(x*) <= Q(0) = 0 <= trunc: the root always has points to visit
    visit(r - 1, sum(bi * xi for bi, xi in zip(bvec, xs)) / 2, [1] + [0] * trunc)
    return PowerSeries(tuple(total), trunc, Fraction(c))


def eta_like_product(residues, modulus: int, trunc: int, prefactor_exp=Fraction(0)) -> PowerSeries:
    """prod_{n > 0, n mod m in residues} (1 - q^n)^{-1}, exactly, to order trunc."""
    if modulus < 2:
        raise ValueError(f"modulus must be at least 2, got {modulus}")
    allowed = set(int(v) for v in residues)
    if not allowed.issubset(set(range(1, modulus))):
        raise ValueError(f"residues must lie in 1..{modulus - 1}")
    coeffs = [1] + [0] * trunc
    for n in range(1, trunc + 1):
        if n % modulus in allowed:
            _divide_by_binomial(coeffs, n)
    return PowerSeries(tuple(coeffs), trunc, Fraction(prefactor_exp))


def compare_series(lhs: PowerSeries, rhs: PowerSeries) -> VerificationReport:
    """Exact coefficientwise comparison up to the minimum truncation order."""
    n = min(lhs.trunc, rhs.trunc)
    mismatches = [k for k in range(n + 1) if lhs.coeffs[k] != rhs.coeffs[k]]
    pre_diff = abs(lhs.prefactor_exp - rhs.prefactor_exp)
    records = (
        CheckRecord.make("prefactor exponent difference", float(pre_diff), 1e-30),
        CheckRecord.make(f"coefficient mismatches through q^{n}", len(mismatches), 1),
    )
    meta = {
        "orders_compared": n + 1,
        "prefactor_lhs": str(lhs.prefactor_exp),
        "prefactor_rhs": str(rhs.prefactor_exp),
    }
    if mismatches:
        k = mismatches[0]
        meta["first_mismatch"] = {"order": k, "lhs": str(lhs.coeffs[k]), "rhs": str(rhs.coeffs[k])}
    return VerificationReport(
        command="compare_series",
        metadata=meta,
        records=records,
        precision_bits=0,
    )
