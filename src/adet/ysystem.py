"""Numeric Y-system trajectories for an ADET diagram pair.

The recurrence, in adjacency form with tadpole loops included:

    Y[i,i'](u-1) * Y[i,i'](u+1) =
        prod_j (1 + Y[j,i'](u))**I(X)_{ij}
        / prod_j' (1 + Y[i,j'](u)**-1)**I(X')_{i'j'}

Which factors, with which exponents, make up the right-hand side for each
index is read from `PairIndexing.factors`, the one place the recurrence is
encoded; the constant Y-system (`constant_residual`), the tropical degrees
behind `monomial_sign` and the Nahm solver read the same plan.

Seeding follows the canonical rule Y(0) = y and Y(-1) = 1/y componentwise.
For bipartite pairs this fills both decoupled parity copies at once: the
values with (index, u) in P+ are exactly the canonical rational functions of
the seed vector y, while the opposite-parity copy can be reseeded
independently (`y_minus`) without touching a single P+ value.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import mpmath as mp

from .dynkin import PairIndexing
from .errors import DegenerateInput, DegenerateStep, WindowTooShort
from .precision import DEFAULT_CONTEXT, GUARD_BITS, PrecisionContext, to_mpc
from .report import CheckRecord, VerificationReport

__all__ = [
    "YTrajectory",
    "y_step",
    "iterate",
    "check_periodicity",
    "monomial_sign",
    "constant_residual",
]

# Magnitudes beyond this trigger a re-run of the affected parity copy at 256 bits.
ESCALATION_THRESHOLD = 1e30
ESCALATED_BITS = 256


def _next_level(pair: PairIndexing, prev: dict, cur: dict, ks, tol, mag, u):
    """One recurrence step; `prev`/`cur` map flattened indices to values.

    The right-hand side for index k is the plan `pair.factors[k]`.  Works for
    any value type supporting +, *, /, ** int (mp numbers, jets); `mag`
    extracts a magnitude for the degeneracy checks.
    """
    out = {}
    indices = pair.indices
    for k in ks:
        ups, downs = pair.factors[k]
        num = None
        for j, m in ups:
            f = 1 + cur[j]
            if mag(f) <= tol:
                raise DegenerateStep("factor 1+Y vanished", index=indices[j], u=u)
            fm = f if m == 1 else f ** m
            num = fm if num is None else num * fm
        den = None
        for j, m in downs:
            yv = cur[j]
            if mag(yv) <= tol:
                raise DegenerateStep("Y vanished where its inverse is needed", index=indices[j], u=u)
            f = 1 + 1 / yv
            if mag(f) <= tol:
                raise DegenerateStep("factor 1+1/Y vanished", index=indices[j], u=u)
            fm = f if m == 1 else f ** m
            den = fm if den is None else den * fm
        pv = prev[k]
        if mag(pv) <= tol:
            raise DegenerateStep("Y(u-1) vanished", index=indices[k], u=u)
        val = num if num is not None else 1
        if den is not None:
            val = val / den
        out[k] = val / pv
    return out


def y_step(pair: PairIndexing, y_prev, y_cur, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Map (Y(u-1), Y(u)) -> Y(u+1) on full index vectors.

    The recurrence is symmetric in Y(u-1) <-> Y(u+1), so the same call
    with arguments (Y(u+1), Y(u)) recovers Y(u-1).
    """
    if len(y_prev) != pair.n or len(y_cur) != pair.n:
        raise ValueError(f"expected vectors of length {pair.n}")
    with ctx.workprec():
        prev = {k: to_mpc(v) for k, v in enumerate(y_prev)}
        cur = {k: to_mpc(v) for k, v in enumerate(y_cur)}
        out = _next_level(pair, prev, cur, range(pair.n), ctx.tau_res, abs, u=None)
        return [out[k] for k in range(pair.n)]


@dataclass
class YTrajectory:
    """Values Y_i(u) on the grid -1 <= u <= u_max (all flattened indices)."""

    pair: PairIndexing
    u_max: int
    values: dict
    seed: dict
    precision_bits: int

    def value(self, k: int, u: int):
        return self.values[(k, u)]

    def to_json_obj(self) -> dict:
        us = list(range(-1, self.u_max + 1))
        out = {}
        for k, (i, ip) in enumerate(self.pair.indices):
            out[f"({i},{ip})"] = [
                [float(mp.re(self.values[(k, u)])), float(mp.im(self.values[(k, u)]))] for u in us
            ]
        return {"pair": self.pair.label, "u": us, "values": out}


def _copy_id(pair: PairIndexing, k: int, u: int) -> int:
    return 0 if pair.in_P_plus(k, u) else 1


def _seed_levels(pair: PairIndexing, y, y_minus, tol):
    n = pair.n
    yv = [to_mpc(v) for v in y]
    ymv = yv if y_minus is None else [to_mpc(v) for v in y_minus]
    for vec in (yv, ymv):
        for k, v in enumerate(vec):
            if abs(v) <= tol:
                raise DegenerateStep("zero seed component", index=pair.indices[k], u=0)
    level0, levelm1 = {}, {}
    for k in range(n):
        plus = pair.degenerate or pair.eps[k] == 1
        level0[k] = yv[k] if plus else ymv[k]
        levelm1[k] = (1 / ymv[k]) if plus else (1 / yv[k])
    return levelm1, level0


def _run_grid(pair: PairIndexing, y, y_minus, u_max: int, bits: int, tol):
    """Iterate the full grid at the given precision; returns levels and the
    per-parity-copy magnitude peaks (max of |Y| and 1/|Y|)."""
    with mp.workprec(bits + GUARD_BITS):
        levels = {}
        levels[-1], levels[0] = _seed_levels(pair, y, y_minus, tol)
        peak = [0.0, 0.0]

        def track(u):
            for k, v in levels[u].items():
                a = abs(v)
                m = float(max(a, 1 / a)) if a > 0 else float("inf")
                c = _copy_id(pair, k, u)
                if m > peak[c]:
                    peak[c] = m

        track(-1)
        track(0)
        for u in range(u_max):
            levels[u + 1] = _next_level(pair, levels[u - 1], levels[u], range(pair.n), tol, abs, u + 1)
            track(u + 1)
    return levels, peak


def iterate(pair: PairIndexing, y, u_max: int, ctx: PrecisionContext = DEFAULT_CONTEXT,
            y_minus=None) -> YTrajectory:
    """Fill the trajectory for -1 <= u <= u_max from seeds Y(0)=y, Y(-1)=1/y.

    `y_minus`, if given for a bipartite pair, reseeds the opposite-parity copy
    (Y(0) on I-, Y(-1) on I+); P+ values are bitwise independent of it.  When
    any magnitude in a copy exceeds 1e30 (or drops below 1e-30) and the
    context is below 256 bits, that copy is recomputed at 256 bits.
    """
    if u_max < 0:
        raise ValueError("u_max must be nonnegative")
    if pair.degenerate and y_minus is not None:
        raise ValueError("tadpole pairs carry a single copy; y_minus is not applicable")
    if len(y) != pair.n:
        raise ValueError(f"expected a seed vector of length {pair.n}")
    tol = ctx.tau_res
    levels, peak = _run_grid(pair, y, y_minus, u_max, ctx.mantissa_bits, tol)
    escalate = [
        ctx.mantissa_bits < ESCALATED_BITS and p > ESCALATION_THRESHOLD for p in peak
    ]
    levels_hi = None
    if any(escalate):
        levels_hi, _ = _run_grid(pair, y, y_minus, u_max, ESCALATED_BITS, tol)
    values = {}
    for u in range(-1, u_max + 1):
        for k in range(pair.n):
            src = levels_hi if (levels_hi is not None and escalate[_copy_id(pair, k, u)]) else levels
            values[(k, u)] = src[u][k]
    bits_used = ESCALATED_BITS if any(escalate) else ctx.mantissa_bits
    seed_info = {
        "rule": "Y(0)=y, Y(-1)=1/y",
        "y": [str(to_mpc(v)) for v in y],
        "y_minus": None if y_minus is None else [str(to_mpc(v)) for v in y_minus],
    }
    return YTrajectory(pair=pair, u_max=u_max, values=values, seed=seed_info,
                       precision_bits=bits_used)


def check_periodicity(traj: YTrajectory, ctx: PrecisionContext = DEFAULT_CONTEXT) -> VerificationReport:
    """Verify Y(u + 2(h+h')) = Y(u) over the stored window."""
    t0 = time.perf_counter()
    pair = traj.pair
    period = pair.period
    if traj.u_max < period:
        raise WindowTooShort(
            f"window u_max={traj.u_max} does not cover one period {period}"
        )
    worst = mp.mpf(0)
    worst_at = None
    with mp.workprec(traj.precision_bits + GUARD_BITS):
        for u in range(0, traj.u_max - period + 1):
            for k in range(pair.n):
                diff = abs(traj.values[(k, u + period)] - traj.values[(k, u)])
                if diff > worst:
                    worst = diff
                    worst_at = (pair.indices[k], u)
    rec = CheckRecord.make("max |Y(u+2(h+h')) - Y(u)|", worst, ctx.tau_eq)
    return VerificationReport(
        command="check_periodicity",
        metadata={"pair": pair.label, "period": period, "u_max": traj.u_max,
                  "worst_at": str(worst_at)},
        records=(rec,),
        seed=None,
        precision_bits=traj.precision_bits,
        wall_time_s=time.perf_counter() - t0,
    )


def _tropical_degrees(pair: PairIndexing, u: int) -> list:
    """Exponents d_k of the leading monomials eps**d_k of Y(u) at all seeds eps.

    The tropical Y-system on the plan `pair.factors`: a factor 1 + Y has
    degree min(0, deg Y), a factor 1 + 1/Y has degree -max(0, deg Y), and
    the recurrence starts from deg Y(0) = 1, deg Y(-1) = -1.
    """
    prev, cur = [-1] * pair.n, [1] * pair.n
    for _ in range(u):
        prev, cur = cur, [
            sum(m * min(0, cur[j]) for j, m in ups)
            + sum(m * max(0, cur[j]) for j, m in downs) - prev[k]
            for k, (ups, downs) in enumerate(pair.factors)
        ]
    return cur


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
    deg = _tropical_degrees(pair, u)[k]
    if deg == 0:
        raise ArithmeticError(f"leading monomial of index {pair.indices[k]}, u={u} has degree 0")
    return 1 if deg > 0 else -1


def constant_residual(pair: PairIndexing, y, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Cleared-denominator residual of the constant Y-system at y.

    Returns max_i | y_i^2 * prod_j' (1 + y_{ij'}^{-1})**I'_{i'j'}
                    - prod_j (1 + y_{ji'})**I_{ij} |.
    """
    if len(y) != pair.n:
        raise ValueError(f"expected a vector of length {pair.n}")
    with ctx.workprec():
        yv = [to_mpc(v) for v in y]
        tol = ctx.tau_res
        for k, v in enumerate(yv):
            if abs(v) <= tol or abs(1 + v) <= tol:
                raise DegenerateInput(f"component {pair.indices[k]} sits at a degenerate value")
        worst = mp.mpf(0)
        for k, (ups, downs) in enumerate(pair.factors):
            lhs = yv[k] ** 2
            for j, m in downs:
                lhs *= (1 + 1 / yv[j]) ** m
            rhs = mp.mpc(1)
            for j, m in ups:
                rhs *= (1 + yv[j]) ** m
            worst = max(worst, abs(lhs - rhs))
        return worst
