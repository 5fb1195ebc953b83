"""Leading-monomial signs and effective central charges.

As all seeds shrink to eps, each Y_i(u) on the S+ window behaves like a pure
monomial eps^d.  The degree d is an exact integer: the tropical Y-system runs
the same step as the numeric recurrence over integer degrees, with
1 + Y -> min(0, deg Y) and 1 + 1/Y -> min(0, -deg Y), from deg Y(0) = 1 and
deg Y(-1) = -1, and its sign is the monomial sign.  Counting negative monomials per index window
reproduces the central-charge rational sum_i L(x_i)/L(1) evaluated at the
all-positive solution (L is the Rogers dilogarithm), tying the combinatorial
structure to the dilogarithm identity.
"""
from fractions import Fraction

import mpmath as mp

from adet import central_charge_probe, monomial_sign, pair_indexing, parse_diagram

for a, b in (("A1", "A1"), ("A1", "T1"), ("A1", "T2"), ("A2", "A1"), ("T1", "T1")):
    p = pair_indexing(parse_diagram(a), parse_diagram(b))
    signs = [monomial_sign(p, k, u) for (k, u) in p.S_plus()]
    neg = sum(1 for s in signs if s == -1)
    per_index = len(signs) // p.n
    probe = central_charge_probe(p)
    print(f"({a},{b}): |S+| = {len(signs)}, negative monomials = {neg}, "
          f"ratio {neg}/{per_index} = {Fraction(neg, per_index)}")
    print(f"   probe: sum L(x)/L(1) = {mp.nstr(probe.value, 20)} -> {probe.rational} "
          f"(error {mp.nstr(probe.error, 3)})")
    assert Fraction(neg, per_index) == probe.rational

print("\nthe (A1,T1) signs over one window, u = 0..9:")
p = pair_indexing(parse_diagram("A1"), parse_diagram("T1"))
print("  ", [monomial_sign(p, 0, u) for u in range(10)])
print("   (pattern +,+,+,-,- repeating: 4 negatives over 10 slots -> 2/5,")
print("    the Lee-Yang effective central charge)")
