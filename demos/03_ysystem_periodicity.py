"""Y-system trajectories and their exact periodicity.

The recurrence Y(u-1) Y(u+1) = prod (1+Y)^I / prod (1+1/Y)^I' is iterated
from random positive seeds; every trajectory repeats after 2(h+h') steps.
The check runs at 256 bits and measures max |Y(u + 2(h+h')) - Y(u)|
relative to max(1, |Y(u)|).
"""
import mpmath as mp
import numpy as np

from adet import PrecisionContext, check_periodicity, iterate, pair_indexing, parse_diagram

ctx = PrecisionContext(mantissa_bits=256)
rng = np.random.default_rng(1)

print("one (A1,T1) trajectory from y = 1.4 (minimal period 5 divides 2(h+h') = 10):")
p = pair_indexing(parse_diagram("A1"), parse_diagram("T1"))
traj = iterate(p, [1.4], 12, ctx)
for u in range(-1, 11):
    print(f"  Y({u:2d}) = {mp.nstr(traj.value(0, u), 12)}")

print("\nperiodicity residuals, 3 random seeds per pair:")
for a, b in (("A1", "A1"), ("A2", "T2"), ("D4", "A1"), ("E6", "A1"), ("E8", "A1")):
    p = pair_indexing(parse_diagram(a), parse_diagram(b))
    worst = mp.mpf(0)
    for _ in range(3):
        y = list(rng.uniform(0.5, 2.0, p.n))
        rep = check_periodicity(iterate(p, y, 2 * p.period, ctx), ctx)
        worst = max(worst, mp.mpf(rep.records[0].residual_str))
    print(f"  ({a},{b}): period {p.period:3d}, worst residual {mp.nstr(worst, 3)}")
