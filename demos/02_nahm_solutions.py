"""Solving x = (1-x)^A through the constant Y-system.

For A = C(A1) (x) C(T1)^{-1} = (2) the equation x = (1-x)^2 has the two
golden-ratio solutions (3 -+ sqrt5)/2; the solver finds both by multistart
Newton in the y = x/(1-x) coordinates, polishes them to 128-bit accuracy,
and records per-solution branch diagnostics for the rational powers: the
integer branch shifts k, one per Log(1 - x_j), that make the rational powers
consistent, decided by an exact integer solve (here A is integral, so k = 0).
"""
import mpmath as mp

from adet import SearchBudget, pair_indexing, parse_diagram, solve_all, solve_positive


def pair(a, b):
    return pair_indexing(parse_diagram(a), parse_diagram(b))


p = pair("A1", "T1")
sols = solve_all(p, SearchBudget(starts=1500, seed=0))
print(f"A = [2]  ({p.label}): {len(sols.solutions)} solutions from {sols.starts} starts")
for s in sols.solutions:
    print(f"  x = {mp.nstr(s.x[0], 30)}")
    print(f"    residual {mp.nstr(s.residual, 3)}, basins {s.multiplicity_hint}, "
          f"principal branch ok: {s.branch['principal_ok']}, "
          f"consistent branch k = {s.branch['k']} (ok: {s.branch['branch_ok']})")

with mp.workdps(40):  # mpmath's default 53 bits would differ from the roots at digit 17
    print("\nclosed forms: (3 - sqrt5)/2 =", mp.nstr((3 - mp.sqrt(5)) / 2, 30))
    print("              (3 + sqrt5)/2 =", mp.nstr((3 + mp.sqrt(5)) / 2, 30))

print("\nAll-positive solutions (x in (0,1) componentwise):")
for a, b in (("A1", "T2"), ("A3", "A1"), ("D4", "A1")):
    sol = solve_positive(pair(a, b))
    xs = ", ".join(mp.nstr(mp.re(v), 12) for v in sol.x)
    print(f"  ({a},{b}): x = ({xs}), residual {mp.nstr(sol.residual, 3)}")

print("\n(A1,T2) full solution set (three real vectors, the cubic y^3+4y^2+3y-1):")
for s in solve_all(pair("A1", "T2"), SearchBudget(starts=1500, seed=0)).solutions:
    print("  x =", tuple(mp.nstr(mp.re(v), 12) for v in s.x))
