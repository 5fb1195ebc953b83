"""The Bloch-Wigner dilogarithm and its functional equations.

D(z) = Im Li2(z) + log|z| arg(1-z) is single-valued on C, vanishes on the
real line, and satisfies the two-term and five-term relations that define
the Bloch group.  All residuals here sit at the 128-bit noise floor.
"""
import mpmath as mp
import numpy as np

from adet import bloch_wigner, li2, relation_residuals

mp.mp.prec = 160

print("special values:")
print("  Li2(1)      =", mp.nstr(li2(1), 25), " (pi^2/6 =", mp.nstr(mp.pi ** 2 / 6, 25), ")")
print("  Li2(i)      =", mp.nstr(li2(1j), 25))
print("     Im part is Catalan's constant", mp.nstr(mp.catalan, 25))
print("  D(i)        =", mp.nstr(bloch_wigner(1j), 25))
print("  D(exp(i pi/3)) =", mp.nstr(bloch_wigner((1 + 1j * mp.sqrt(3)) / 2), 25),
      " (the maximum of D on C)")
print("  D(0.7)      =", bloch_wigner(0.7), " (exact zero on the real line)")

print("\non the cut x > 1, Li2 continues from below so that D stays zero:")
v = li2(2.0)
print("  Li2(2) =", mp.nstr(v, 20), "  Im + pi log 2 =", mp.nstr(mp.im(v) + mp.pi * mp.log(2), 3))

rng = np.random.default_rng(0)
print("\nfunctional equations at 400 random complex points (radius 2):")
worst5 = worstr = worsti = mp.mpf(0)
for _ in range(400):
    r = 2 * np.sqrt(rng.uniform(0, 1, 2))
    t = rng.uniform(0, 2 * np.pi, 2)
    x, y = (r * np.exp(1j * t)).tolist()
    five, refl, inv = relation_residuals(x, y)
    worst5 = max(worst5, five)
    if x != 0:
        worstr, worsti = max(worstr, refl), max(worsti, inv)
print("  five-term |D(x)+D(1-xy)+D(y)+D((1-y)/(1-xy))+D((1-x)/(1-xy))| <=", mp.nstr(worst5, 3))
print("  reflection |D(x)+D(1-x)| <=", mp.nstr(worstr, 3))
print("  inversion  |D(x)+D(1/x)| <=", mp.nstr(worsti, 3))
