"""The torsion criterion and the constancy condition, with negative controls.

Every solution x of x = (1-x)^A must satisfy sum_i D(x_i) = 0 (the
numerically checkable shadow of Bloch-group torsion).  Two stronger
point-free identities certify the mechanism behind it:

  * the dilogarithm sum  sum_{S+} d * D(Y/(1+Y))  vanishes at EVERY
    evaluation point, not just at solutions;
  * the wedge sum  sum_{S+} d * (Y ^ (1+Y))  vanishes, realized through
    gradient pairings of log Y and log(1+Y).

Deliberately broken inputs (a bumped recurrence exponent, or one folding
multiplicity d lowered from 2 to 1) push the residuals from ~1e-50 to ~1e-1,
so the checks cannot pass vacuously.
"""
import mpmath as mp
import numpy as np

from adet import (
    TORSION_TOLERANCE,
    SearchBudget,
    dilog_sum_over_Splus,
    pair_indexing,
    parse_diagram,
    perturbed_pair,
    solve_all,
    torsion_check,
    wedge_form_residual,
)


def pair(a, b):
    return pair_indexing(parse_diagram(a), parse_diagram(b))


rng = np.random.default_rng(4)

print("torsion criterion over full multistart solution sets:")
for a, b in (("A1", "T1"), ("A1", "T2"), ("A2", "A1")):
    p = pair(a, b)
    sols = solve_all(p, SearchBudget(starts=1000, seed=0))
    worst = float(max(torsion_check(sols)))  # one |sum D(x)| per solution
    print(f"  ({a},{b}): {len(sols.solutions)} solutions, max |sum D(x)| = {worst:.2e} -> "
          f"{'PASS' if worst < TORSION_TOLERANCE else 'FAIL'}")

print("\ndilogarithm sums over S+ at random complex points (should all vanish):")
for a, b in (("A1", "T1"), ("A2", "A1"), ("T1", "T1")):
    p = pair(a, b)
    pt = [complex(x, 0.1 * e) for x, e in zip(rng.uniform(0.5, 2, p.n), rng.uniform(-1, 1, p.n))]
    s = dilog_sum_over_Splus(p, pt)
    print(f"  ({a},{b}): |sum d D(f)| = {mp.nstr(abs(s), 3)}")

print("\nwedge pairing residuals (point a paired with b = 1/a):")
for a, b in (("A2", "A1"), ("A1", "T2"), ("D4", "A1")):
    p = pair(a, b)
    pt = [complex(x, 0.1 * e) for x, e in zip(rng.uniform(0.5, 2, p.n), rng.uniform(-1, 1, p.n))]
    w = wedge_form_residual(p, pt)
    print(f"  ({a},{b}): {mp.nstr(w.residual, 3)}")

print("\nnegative controls:")
p = pair("T1", "T1")
first = p.S_plus()[0]
ok = wedge_form_residual(p, [1.3], point_b=[0.7])
bad = wedge_form_residual(p, [1.3], point_b=[0.7], d_override={first: 1})
print(f"  (T1,T1) two-point wedge, correct d = 2:          {mp.nstr(ok.residual, 3)}")
print(f"  (T1,T1) with ONE multiplicity lowered to 1:      {mp.nstr(bad.residual, 3)}")

p = pair("A1", "T2")
bumped = perturbed_pair(p, "xp", 0, 1)
pt = [1.1 + 0.1j, 1.4 - 0.05j]
print(f"  (A1,T2) dilog sum, correct recurrence:           "
      f"{mp.nstr(abs(dilog_sum_over_Splus(p, pt)), 3)}")
print(f"  (A1,T2) with one adjacency exponent bumped by 1: "
      f"{mp.nstr(abs(dilog_sum_over_Splus(bumped, pt)), 3)}")
