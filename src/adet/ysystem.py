"""Numeric Y-system trajectories for an ADET diagram pair.

The recurrence, in adjacency form with tadpole loops included:

    Y[i,i'](u-1) * Y[i,i'](u+1) =
        prod_j (1 + Y[j,i'](u))**I(X)_{ij}
        / prod_j' (1 + Y[i,j'](u)**-1)**I(X')_{i'j'}

Which factors, with which exponents, make up the right-hand side for each
index is read from `PairIndexing.factors`, the one place the recurrence is
encoded.  One step, `_next_level`, evaluates it over an arithmetic table, and
one level loop, `_levels`, drives it for trajectories, tropical degrees
(`_TROPICAL`), the constant Y-system (`constant_residual`) and `verify`.
Real grids run on a correctly rounded binary kernel (`_binary`) that gives
the bits of mp's operators, complex ones on libmp's mpc calls (`_complex`).

Seeding follows the canonical rule Y(0) = y and Y(-1) = 1/y componentwise
(`_seeds`).  For bipartite pairs the full grid fills both decoupled parity
copies at once: the values with (index, u) in P+ are exactly the canonical
rational functions of the seed vector y and never read the opposite-parity
copy, so the P+ grid of `verify` runs the level loop on the P+ indices alone.
"""
from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import mpmath as mp
from mpmath import libmp

from .dynkin import PairIndexing
from .errors import DegenerateInput, DegenerateStep, WindowTooShort
from .precision import DEFAULT_CONTEXT, GUARD_BITS, PrecisionContext, raw_mpc, to_mpc
from .report import CheckRecord, VerificationReport

__all__ = [
    "YTrajectory",
    "iterate",
    "check_periodicity",
    "monomial_sign",
    "constant_residual",
]

# One recurrence step's operations: 1 + y, *, /, 1/x, x**m, |x| <= tol.
_Arithmetic = namedtuple("_Arithmetic", "one_plus mul div recip pow small")

# The mpc table's `small` takes |x| only for a value whose `_top` lies within
# this many binades below tol's.
_COMPLEX_BAND = 2

# The binary kernel's zero: its exponent puts it below every tolerance and
# sends every sum with it to the far-operand path.
_ZERO = (0, -(1 << 62))


def _top(x) -> float:
    """exp + bc of the larger part of a raw mpf or mpc x, in [2^(top-1), 2^top); -inf at 0."""
    if len(x) == 2:
        return max(_top(x[0]), _top(x[1]))
    return x[2] + x[3] if x[1] else -math.inf


def _to_libmp(m: int, e: int) -> tuple:
    """The normalised libmp tuple of the binary value m * 2^e."""
    if not m:
        return libmp.fzero
    zeros = (m & -m).bit_length() - 1
    m >>= zeros
    return (0, m, e + zeros, m.bit_length()) if m > 0 else (1, -m, e + zeros, m.bit_length())


def _rounding(prec: int):
    """rnd(m, e): m * 2^e rounded half even to a `prec`-bit mantissa, as
    (m, e); a narrower m is padded, and m = 0 gives `_ZERO`."""
    limit, half = 1 << prec, 1 << prec - 1

    def rnd(m, e):
        n = m.bit_length() - prec
        if n > 0:
            t = m >> n - 1  # floor(m / 2^n) and, below it, the half bit
            if t & 1 and (t & 2 or m & (1 << n - 1) - 1):
                m = (t >> 1) + 1
                if m == limit:
                    return half, e + n + 1
            else:
                m = t >> 1
                if m == -limit:
                    return -half, e + n + 1
            return m, e + n
        if n:
            return (m << -n, e + n) if m else _ZERO
        return m, e

    return rnd


def _binary(prec: int, tol):
    """(table, raw, wrap) of the binary kernel at `prec` bits.

    A value is (m, e), the number m * 2^e with a signed int mantissa m of
    exactly `prec` bits; `raw` reads a libmp tuple exactly, padding a
    narrower mantissa and keeping a wider one (a seed's).  Each operation is
    one exact integer operation, with a division remainder as a sticky bit,
    then one round half even (`_rounding`).  mp's operators call libmp's
    mpf_add, mpf_mul, mpf_div and mpf_rdiv_int, which round correctly too,
    so every value is bit-identical to theirs.  The exception is libmp's
    shortcut for a sum whose operands' exponents lie more than 100 apart:
    when one operand's top bit lies more than prec + 4 above the other's,
    the lower one becomes a sticky bit.  That rounds correctly only for an
    upper operand of at most `prec` bits, so for a wider one the kernel
    takes it only where libmp does, judged on libmp's exponents (trailing
    zeros stripped).  `small` reads |x| <= tol, for tol > 0, from the
    exponent, and compares mantissas only within tol's binade.  Powers go
    through libmp's mpf_pow_int, as mp's ** does.
    """
    rnd = _rounding(prec)
    one = (1 << prec - 1, 1 - prec)
    _, tol_man, tol_exp, tol_bc = mp.mpf(tol)._mpf_
    tol_top = tol_exp + tol_bc
    screen = tol_top - prec

    def far(ma, ea, mb, eb):
        # a + b with ea > eb + 100, rounded as libmp's mpf_add rounds it
        if not ma or not mb:
            return rnd(ma or mb, ea if ma else eb)
        bits = ma.bit_length()
        if ea + bits - eb - mb.bit_length() > prec + 4 and (
                bits <= prec or ea - eb - (mb & -mb).bit_length() + 1 > 100):
            return rnd((ma << prec + 4) + (1 if mb > 0 else -1), ea - prec - 4)
        return rnd((ma << ea - eb) + mb, eb)

    def add(a, b):
        ma, ea = a
        mb, eb = b
        d = ea - eb
        if 0 <= d <= 100:
            return rnd((ma << d) + mb, eb)
        if -100 <= d < 0:
            return rnd(ma + (mb << -d), ea)
        return far(ma, ea, mb, eb) if d > 0 else far(mb, eb, ma, ea)

    def mul(a, b):
        return rnd(a[0] * b[0], a[1] + b[1])

    def div(a, b):
        # |a's mantissa| >= 2^(prec-1), so the quotient has at least prec + 3 bits
        ma, ea = a
        mb, eb = b
        k = mb.bit_length() + 3
        q, r = divmod(ma << k, mb)
        return rnd(2 * q + 1, ea - eb - k - 1) if r else rnd(q, ea - eb - k)

    def small(x):
        m, e = x
        if e > screen:
            return False
        top = e + m.bit_length()
        if top != tol_top:
            return top < tol_top
        shift = e - tol_exp
        if shift >= 0:
            return abs(m) << shift <= tol_man
        return abs(m) <= tol_man << -shift

    def raw(v):
        sign, man, exp, bc = v._mpf_
        if not man:
            return _ZERO
        if sign:
            man = -man
        return (man << prec - bc, exp - prec + bc) if bc < prec else (man, exp)

    def pow_(x, m):
        return raw(mp.make_mpf(libmp.mpf_pow_int(_to_libmp(*x), m, prec, libmp.round_nearest)))

    return (_Arithmetic(functools.partial(add, one), mul, div, functools.partial(div, one), pow_, small),
            raw, lambda x: mp.make_mpf(_to_libmp(*x)))


def _complex(prec: int, tol):
    """(table, raw, wrap) of raw libmp mpc tuples at `prec` bits.

    Each operation is the libmp call mp's operators make, rounding to
    nearest, so every value is bit-identical to theirs.  `small` reads
    |x| <= tol from the exponents: with tol < 2^t, a finite x with `_top`
    e <= t - `_COMPLEX_BAND` is small and one with e > t is not; only in
    between, within a factor 4 of tol, is |x| taken.
    """
    rnd, one = libmp.round_nearest, libmp.fone
    tol = mp.mpf(tol)._mpf_
    hi, lo = _top(tol), _top(tol) - _COMPLEX_BAND

    def small(x):
        e = _top(x)
        if e <= lo or e > hi:
            return e <= lo
        return libmp.mpf_le(libmp.mpc_abs(x, prec, rnd), tol)

    return (_Arithmetic(lambda y: libmp.mpc_add_mpf(y, one, prec, rnd),
                        lambda a, b: libmp.mpc_mul(a, b, prec, rnd),
                        lambda a, b: libmp.mpc_div(a, b, prec, rnd),
                        lambda x: libmp.mpc_mpf_div(one, x, prec, rnd),
                        lambda x, m: libmp.mpc_pow_int(x, m, prec, rnd), small),
            operator.attrgetter("_mpc_"), mp.make_mpc)


def _table(values, tol):
    """(table, raw, wrap) for a grid seeded with `values`, at the working
    precision: `_binary` for all finite mpf, `_complex` for all mpc, and
    otherwise (mixed mpf and mpc, Fractions, an infinite or nan mpf) operators.
    """
    kinds = set(map(type, values))
    if kinds == {mp.mpf} and all(v._mpf_[1] or not v._mpf_[2] for v in values):  # finite
        return _binary(mp.mp.prec, tol)
    if kinds == {mp.mpc}:
        return _complex(mp.mp.prec, tol)
    return (_Arithmetic(lambda y: 1 + y, operator.mul, operator.truediv, lambda x: 1 / x, operator.pow,
                        lambda x: abs(x) <= tol),
            lambda v: v, lambda v: v)


def _next_level(pair: PairIndexing, prev: dict, cur: dict, ks, ar: _Arithmetic, u):
    """One recurrence step on the arithmetic table `ar`; `prev`/`cur` map
    flattened indices to values in the table's representation.

    The right-hand side for index k is the plan `pair.factors[k]`.  A factor
    1 + Y_j or 1 + 1/Y_j that `ar.small` finds raises `DegenerateStep`.  Each
    factor is formed and checked once per level, the first time an index
    reads it, so the first error raised is the one a check per reading would
    raise.  A divisor Y is not tested: each Y is a quotient of nonzero
    values (seeds `_seeds` checked, their inverses, checked factors) and no
    table underflows, so no Y is exactly 0, and a small |Y| is no degeneracy.
    """
    one_plus, mul, div, recip, pow_, small = ar
    out = {}
    indices = pair.indices
    plus, inv = {}, {}
    for k in ks:
        ups, downs = pair.factors[k]
        num = None
        for j, m in ups:
            f = plus.get(j)
            if f is None:
                f = plus[j] = one_plus(cur[j])
                if small(f):
                    raise DegenerateStep("factor 1+Y vanished", index=indices[j], u=u)
            fm = f if m == 1 else pow_(f, m)
            num = fm if num is None else mul(num, fm)
        den = None
        for j, m in downs:
            f = inv.get(j)
            if f is None:
                f = inv[j] = one_plus(recip(cur[j]))
                if small(f):
                    raise DegenerateStep("factor 1+1/Y vanished", index=indices[j], u=u)
            fm = f if m == 1 else pow_(f, m)
            den = fm if den is None else mul(den, fm)
        if den is not None:
            num = recip(den) if num is None else div(num, den)
        out[k] = recip(prev[k]) if num is None else div(num, prev[k])
    return out


@dataclass
class YTrajectory:
    """Values Y_i(u) on the grid -1 <= u <= u_max (all flattened indices)."""

    pair: PairIndexing
    u_max: int
    values: dict
    precision_bits: int

    def value(self, k: int, u: int):
        return self.values[(k, u)]


def _seeds(pair: PairIndexing, y, tol) -> list:
    """The seed vector y as mp numbers; DegenerateStep at a component with
    |y_k| <= tol or a nan or infinite one.  This is the one place a divisor
    of the recurrence is tested: each later Y is a quotient of nonzero values."""
    yv = [to_mpc(v) for v in y]
    for k, v in enumerate(yv):
        if abs(v) <= tol:
            raise DegenerateStep("zero seed component", index=pair.indices[k], u=0)
        if not mp.isfinite(v):
            raise DegenerateStep("non-finite seed component", index=pair.indices[k], u=0)
    return yv


def _levels(pair: PairIndexing, level_m1: dict, level_0: dict, u_max: int, table, active) -> dict:
    """Levels -1 <= u <= u_max of the recurrence from its two seed levels;
    level u holds the indices `active(u)`.

    `table` is the (table, raw, wrap) the step `_next_level` runs on, as
    `_table` gives it; the seeds are converted to the raw form once, and each
    new value wrapped back once.
    """
    ar, raw, wrap = table
    levels = {-1: level_m1, 0: level_0}
    prev, cur = ({k: raw(v) for k, v in level.items()} for level in (level_m1, level_0))
    for u in range(u_max):
        prev, cur = cur, _next_level(pair, prev, cur, active(u + 1), ar, u + 1)
        levels[u + 1] = {k: wrap(v) for k, v in cur.items()}
    return levels


def iterate(pair: PairIndexing, y, u_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> YTrajectory:
    """Fill the trajectory for -1 <= u <= u_max from seeds Y(0)=y, Y(-1)=1/y,
    at the context's working precision.

    The seeds are checked once (`_seeds`); past them only a factor 1 + Y or
    1 + 1/Y within tau_res of 0 stops the grid, never the size of a Y.
    """
    if u_max < 0:
        raise ValueError("u_max must be nonnegative")
    if len(y) != pair.n:
        raise ValueError(f"expected a seed vector of length {pair.n}")
    with ctx.workprec():
        tol = mp.mpf(ctx.tau_res)
        yv = _seeds(pair, y, tol)
        levels = _levels(pair, {k: 1 / v for k, v in enumerate(yv)}, dict(enumerate(yv)),
                         u_max, _table(yv, tol), lambda u: range(pair.n))
    values = {(k, u): v for u, level in levels.items() for k, v in level.items()}
    return YTrajectory(pair=pair, u_max=u_max, values=values, precision_bits=ctx.mantissa_bits)


def check_periodicity(traj: YTrajectory, ctx: PrecisionContext = DEFAULT_CONTEXT) -> VerificationReport:
    """Verify Y(u + 2(h+h')) = Y(u) over the stored window, relative to |Y(u)|.

    The residual is max |Y(u+p) - Y(u)| / 2^e, with e the `_top` of Y(u): a
    power of two within a factor 2 of |Y(u)|, so the gate tau_eq reads
    relative error at every magnitude, far below |Y| = 1 too.  The
    differences run on the raw libmp values through the calls mp's
    operators make, bit-identical to |a - b| on the mp numbers, and the
    division by a power of two is exact.  A grid with an mpc value compares
    as mpc, with each mpf x read as (x, 0), which gives the same difference
    and |.| as the mpf calls.
    """
    pair = traj.pair
    period = pair.period
    if traj.u_max < period:
        raise WindowTooShort(
            f"window u_max={traj.u_max} does not cover one period {period}"
        )
    values = traj.values
    if set(map(type, values.values())) == {mp.mpf}:
        raw, sub, abs_ = operator.attrgetter("_mpf_"), libmp.mpf_sub, libmp.mpf_abs
    else:
        raw, sub, abs_ = raw_mpc, libmp.mpc_sub, libmp.mpc_abs
    worst = libmp.fzero
    worst_at = None
    with mp.workprec(traj.precision_bits + GUARD_BITS):
        prec, rnd = mp.mp.prec, libmp.round_nearest
        for u in range(0, traj.u_max - period + 1):
            for k in range(pair.n):
                base = raw(values[k, u])
                diff = abs_(sub(raw(values[k, u + period]), base, prec, rnd), prec, rnd)
                diff = libmp.mpf_shift(diff, -_top(base))
                if libmp.mpf_gt(diff, worst):
                    worst = diff
                    worst_at = (pair.indices[k], u)
    rec = CheckRecord.make("max |Y(u+2(h+h')) - Y(u)| relative to |Y(u)|",
                           mp.make_mpf(worst), ctx.tau_eq)
    return VerificationReport(
        command="check_periodicity",
        metadata={"pair": pair.label, "period": period, "u_max": traj.u_max,
                  "worst_at": str(worst_at)},
        records=(rec,),
        precision_bits=traj.precision_bits,
    )


# The tropical semifield on integer degrees: a factor 1 + Y has degree
# min(0, deg Y); products add degrees, quotients subtract, 1/Y negates,
# powers multiply, and no degree is degenerate.
_TROPICAL = _Arithmetic(lambda d: min(0, d), operator.add, operator.sub, operator.neg, operator.mul,
                        lambda d: False)


@functools.cache
def _tropical_table(pair: PairIndexing) -> tuple:
    """Exponents d_k of the leading monomials eps**d_k of Y(u) at all seeds eps,
    one tuple per level 0 <= u < period, in one pass; memoised per pair.

    The level loop `_levels` on the tropical table `_TROPICAL` (plain int
    degrees, so `int` reads and wraps them), from deg Y(0) = 1, deg Y(-1) = -1.
    """
    ks = range(pair.n)
    levels = _levels(pair, dict.fromkeys(ks, -1), dict.fromkeys(ks, 1), pair.period - 1,
                     (_TROPICAL, int, int), lambda u: ks)
    return tuple(tuple(levels[u].values()) for u in range(pair.period))


def monomial_sign(pair: PairIndexing, k: int, u: int,
                  ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
    """Sign of the leading monomial of Y_k(u): +1 when its tropical degree is
    positive (|Y_k(u)| shrinks as every seed shrinks to eps), -1 when negative.

    The degree is an exact integer, so `ctx` is not read; it stays in the
    signature for callers that pass it positionally.
    """
    if not (0 <= u < pair.period):
        raise ValueError(f"u={u} outside the S+ window [0, {pair.period})")
    if not pair.in_P_plus(k, u):
        raise ValueError(f"(index {k}, u={u}) is not in P+")
    deg = _tropical_table(pair)[u][k]
    if deg == 0:
        raise ArithmeticError(f"leading monomial of index {pair.indices[k]}, u={u} has degree 0")
    return 1 if deg > 0 else -1


def constant_residual(pair: PairIndexing, y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Residual of the constant Y-system at y: max_k |Y_k(1) - y_k| for the
    step `_next_level` from Y(-1) = Y(0) = y.

    A constant solution of the Y-system is exactly a fixed point of that
    step.  A component at 0 or -1 raises DegenerateInput.
    """
    if len(y) != pair.n:
        raise ValueError(f"expected a vector of length {pair.n}")
    with ctx.workprec():
        yv = dict(enumerate(map(to_mpc, y)))
        tol = ctx.tau_res
        for k, v in yv.items():
            if abs(v) <= tol or abs(1 + v) <= tol:
                raise DegenerateInput(f"component {pair.indices[k]} sits at a degenerate value")
        step = _levels(pair, yv, yv, 1, _table(list(yv.values()), tol), lambda u: yv.keys())[1]
        return max(abs(v - yv[k]) for k, v in step.items())
