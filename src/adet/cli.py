"""Command-line front end orchestrating the verification pipeline.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad arguments.
Every subcommand accepts --json PATH to dump the structured report.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np

from . import bloch, qseries, solver, verify, ysystem
from .dynkin import _ldl, cartan_matrix, pair_indexing, parse_diagram
from .errors import AdetError, NonIntegralExponent
from .precision import PrecisionContext
from .report import CheckRecord, VerificationReport

RR_FIRST = {"B": [0], "C": Fraction(-1, 60), "residues": (1, 4), "modulus": 5}
RR_SECOND = {"B": [1], "C": Fraction(11, 60), "residues": (2, 3), "modulus": 5}
AG_R2 = {"A": [[2, 2], [2, 4]], "residues": (1, 2, 5, 6), "modulus": 7}


def _pair_arg(text: str):
    try:
        left, right = text.split(",")
        return pair_indexing(parse_diagram(left), parse_diagram(right))
    except (ValueError, AdetError) as exc:
        raise argparse.ArgumentTypeError(f"bad pair {text!r}: {exc}") from exc


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc


def _positive_int(text: str) -> int:
    value = _int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _tol_scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction p/q with q != 0") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers") from exc


def _precision_bits(text: str) -> int:
    bits = _int(text)
    try:
        PrecisionContext(mantissa_bits=bits)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return bits


def _json_arg(text: str):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"bad JSON {text!r}: {exc}") from exc
    # None is also what argparse gives for a flag not passed
    if value is None:
        raise argparse.ArgumentTypeError(f"{text!r} is JSON null, not a value")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one line, like the errors raised by commands."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_global_flags(parser, suppress=False):
    # registered on the main parser and again on every subcommand so the
    # flags are accepted in either position; SUPPRESS keeps subcommand
    # defaults from clobbering values parsed before the subcommand name
    def default(value):
        return argparse.SUPPRESS if suppress else value
    parser.add_argument("--precision-bits", type=_precision_bits, default=default(128),
                        help="mantissa bits (default 128)")
    parser.add_argument("--tol-scale", type=_tol_scale, default=default(1.0),
                        help="multiplies every default tolerance (finite, > 0)")
    parser.add_argument("--seed", type=_nonnegative_int, default=default(0),
                        help="RNG seed for sampled checks (>= 0)")
    parser.add_argument("--json", metavar="PATH", default=default(None), help="write the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adet",
        description="Nahm-equation / Y-system / dilogarithm verification toolkit "
                    "for ADET Dynkin diagram pairs.",
    )
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the Kronecker matrix C(X) (x) C(X')^{-1}")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="X,X'")

    p = sub.add_parser("solve", help="solve the Nahm equation for a pair")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="X,X'")
    p.add_argument("--all", action="store_true", help="multistart enumeration instead of the positive solution")
    p.add_argument("--starts", type=_positive_int, default=2000)

    p = sub.add_parser("verify", help="run one verification family")
    p.add_argument("what", choices=list(FAMILIES))
    for flag in _VERIFY_FLAGS:
        readers = ", ".join(name for name, f in FAMILIES.items() if flag in f.flags)
        if flag == "pair":
            p.add_argument("--pair", type=_pair_arg, metavar="X,X'", help=f"read by {readers}")
        else:
            p.add_argument(f"--{flag}", type=_positive_int,
                           help=f"number of {flag} (default per family; read by {readers})")

    p = sub.add_parser("qseries", help="sum-side vs product-side series identities")
    p.add_argument("what", choices=["rr", "ag", "custom"])
    p.add_argument("--N", type=_positive_int, default=None, help="truncation order")
    p.add_argument("--matrix", type=_json_arg, help="custom: JSON matrix, e.g. [[2,2],[2,4]]")
    p.add_argument("--b", type=_json_arg, help="custom: JSON vector, e.g. [0,0]")
    p.add_argument("--c", type=_fraction, default="0", help="custom: prefactor exponent p/q")
    p.add_argument("--residues", type=_int_list, help="custom: product residues, e.g. 1,2,5,6")
    p.add_argument("--modulus", type=_positive_int, help="custom: product modulus")

    p = sub.add_parser("report", help="aggregate the full verification suite for one pair")
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="X,X'")
    p.add_argument("--starts", type=_positive_int, default=2000)
    p.add_argument("--points", type=_positive_int, default=10)
    p.add_argument("--seeds", type=_positive_int, default=10)

    for sp in sub.choices.values():
        _add_global_flags(sp, suppress=True)
    return parser


def _ctx(args) -> PrecisionContext:
    return PrecisionContext(mantissa_bits=args.precision_bits)


def _solve_all(pair, ctx, starts, seed):
    """solve_all over `pair` with the --starts/--seed budget."""
    if pair.n > solver.RANK_CAP:
        raise argparse.ArgumentTypeError(
            f"--pair {pair.label}: size {pair.n} exceeds the multistart search cap "
            f"{solver.RANK_CAP}")
    return solver.solve_all(pair, solver.SearchBudget(starts=starts, seed=seed), ctx)


def _sample_points(pair, count, rng, noise=0.1):
    """Near-positive complex evaluation points (positive reals + imaginary noise)."""
    pts = []
    for _ in range(count):
        re = rng.uniform(0.5, 2.0, pair.n)
        im = noise * rng.uniform(-1.0, 1.0, pair.n)
        pts.append([complex(a, b) for a, b in zip(re, im)])
    return pts


def _definite_record(*matrices) -> CheckRecord:
    """Residual 0 if every exact LDL^t pivot of each matrix's symmetric part is positive, else 1."""
    try:
        for a in matrices:
            _ldl([[(Fraction(u) + Fraction(v)) / 2 for u, v in zip(row, col)]
                  for row, col in zip(a, zip(*a))])
    except ValueError:
        return CheckRecord.make("positive definite (exact LDL^t pivots)", 1, 1)
    return CheckRecord.make("positive definite (exact LDL^t pivots)", 0, 1)


def _cmd_matrix(args) -> VerificationReport:
    pair = args.pair
    a = pair.nahm
    for row in a.entries:
        print("[" + " ".join(str(v) for v in row) + "]")
    # a Kronecker product of positive-definite matrices is positive definite,
    # so A = C(X) (x) C(X')^{-1} is decided from its two Cartan factors
    records = (_definite_record(*(cartan_matrix(d).entries for d in (pair.x, pair.xp))),)
    return VerificationReport("matrix", {"pair": pair.label, "matrix": a.to_json_obj()},
                              records, args.seed, args.precision_bits)


def _cmd_solve(args) -> VerificationReport:
    ctx = _ctx(args)
    tol = ctx.tau_res * args.tol_scale
    if args.all:
        sols = _solve_all(args.pair, ctx, args.starts, args.seed)
        records = tuple(
            CheckRecord.make(f"constant Y-system residual, solution {i}", s.residual, tol)
            for i, s in enumerate(sols.solutions)
        )
        meta = {"pair": args.pair.label, "solutions": sols.to_json_obj()}
    else:
        sol = solver.solve_positive(args.pair, ctx)
        records = (CheckRecord.make("constant Y-system residual (positive solution)", sol.residual, tol),)
        meta = {"pair": args.pair.label, "x": [mp.nstr(mp.re(v), 30) for v in sol.x]}
    return VerificationReport("solve", meta, records, args.seed, args.precision_bits)


# Records functions of the check families in FAMILIES.  They call the library
# through module attributes, so a function patched there is the one called.

def _periodicity_records(pair, ctx, rng, count, tol_scale, seed) -> list:
    tol = ctx.tau_eq * tol_scale
    records = []
    for s in range(count):
        y = rng.uniform(0.5, 2.0, pair.n)
        traj = ysystem.iterate(pair, list(y), 2 * pair.period, ctx)
        rep = ysystem.check_periodicity(traj, ctx)
        records.append(CheckRecord.make(f"periodicity, seed {s}", rep.records[0].residual, tol))
    return records


def _point_records(checks, pair, ctx, rng, count, tol_scale, seed) -> list:
    """Every (name, residual) check in `checks` at each of `count` sampled points."""
    tol = 1e-18 * tol_scale
    records = []
    for i, pt in enumerate(_sample_points(pair, count, rng)):
        for name, residual in checks:
            records.append(CheckRecord.make(f"{name}, point {i}", residual(pair, pt, ctx), tol))
    return records


_WEDGE = ("wedge 2-form residual",
          lambda pair, pt, ctx: verify.wedge_form_residual(pair, pt, ctx).residual)
_DILOGSUM = ("|sum d D(f)| over S+",
             lambda pair, pt, ctx: abs(verify.dilog_sum_over_Splus(pair, pt, ctx)))


def _torsion_records(pair, ctx, rng, count, tol_scale, seed) -> list:
    """One torsion record per solution of a multistart search of `count` starts."""
    return _torsion_of(_solve_all(pair, ctx, count, seed), ctx, tol_scale)


def _torsion_of(sols, ctx, tol_scale) -> list:
    """One torsion record per solution of the set."""
    tol = bloch.TORSION_TOLERANCE * tol_scale
    return [CheckRecord.make(f"|sum D(x)| for solution {i}", residual, tol)
            for i, residual in enumerate(bloch.torsion_check(sols, ctx))]


def _fiveterm_records(pair, ctx, rng, count, tol_scale, seed) -> list:
    # scales with the unit roundoff 2^-bits: 1e-30 at 128 bits
    tol = 1e-30 * 2.0 ** (128 - ctx.mantissa_bits) * tol_scale
    worst_five = worst_refl = worst_inv = mp.mpf(0)
    u = rng.random((count, 4))  # per point uniform(0, 1, 2), then uniform(0, 2 pi, 2)
    r, t = 2 * np.sqrt(u[:, :2]), 2 * np.pi * u[:, 2:]
    for x, y in (r * np.exp(1j * t)).tolist():
        five, refl, inv = bloch.relation_residuals(x, y, ctx)
        worst_five = max(worst_five, five)
        if x != 0:
            worst_refl = max(worst_refl, refl)
            worst_inv = max(worst_inv, inv)
    return [
        CheckRecord.make("five-term relation, max residual", worst_five, tol),
        CheckRecord.make("reflection D(x)+D(1-x), max residual", worst_refl, tol),
        CheckRecord.make("inversion D(x)+D(1/x), max residual", worst_inv, tol),
    ]


class Family(NamedTuple):
    """A check family: `verify` runs one, `report` runs them all."""
    count_flag: str  # the `verify` flag that sets the count
    default: int  # the count when that flag is absent
    needs_pair: bool
    records: Callable  # (pair, ctx, rng, count, tol_scale, seed) -> records
    meta: Callable = lambda pair, records: {}  # `verify` metadata beyond pair and count

    @property
    def flags(self) -> tuple:
        """The `verify` flags the family reads besides the global ones."""
        return ("pair", self.count_flag) if self.needs_pair else (self.count_flag,)


FAMILIES = {
    "periodicity": Family("seeds", 20, True, _periodicity_records, lambda pair, recs: {"period": pair.period}),
    "wedge": Family("points", 5, True, functools.partial(_point_records, (_WEDGE,))),
    "dilogsum": Family("points", 10, True, functools.partial(_point_records, (_DILOGSUM,))),
    "torsion": Family("starts", 2000, True, _torsion_records, lambda pair, recs: {"solutions": len(recs)}),
    "fiveterm": Family("points", 1000, False, _fiveterm_records),
}


# every flag some family reads, in the order `verify --help` lists them
_VERIFY_FLAGS = tuple(dict.fromkeys(flag for f in FAMILIES.values() for flag in f.flags))


def _cmd_verify(args) -> VerificationReport:
    family = FAMILIES[args.what]
    pair = args.pair
    for flag in _VERIFY_FLAGS:
        if getattr(args, flag) is not None and flag not in family.flags:
            reads = ", ".join(f"--{name}" for name in family.flags)
            raise argparse.ArgumentTypeError(f"verify {args.what} does not read --{flag} (it reads {reads})")
    if family.needs_pair and pair is None:
        raise argparse.ArgumentTypeError(f"verify {args.what} requires --pair")
    count = getattr(args, family.count_flag) or family.default
    records = family.records(pair, _ctx(args), np.random.default_rng(args.seed), count,
                             args.tol_scale, args.seed)
    meta = {"pair": pair.label} if family.needs_pair else {}
    meta[family.count_flag] = count
    meta.update(family.meta(pair, records))
    return VerificationReport(f"verify {args.what}", meta, tuple(records), args.seed, args.precision_bits)


def _qseries_pair(a, b, c, identity, order):
    """f_abc against the product over the residues and modulus of `identity`."""
    lhs = qseries.f_abc(a, b, c, order)
    rhs = qseries.eta_like_product(identity["residues"], identity["modulus"], order, prefactor_exp=c)
    return qseries.compare_series(lhs, rhs)


def _cmd_qseries(args) -> VerificationReport:
    if args.what == "rr":
        order = args.N or 200
        records = tuple(CheckRecord.make(f"{name}: {r.name}", r.residual, r.tolerance)
                        for name, rr in (("first identity", RR_FIRST), ("second identity", RR_SECOND))
                        for r in _qseries_pair([[2]], rr["B"], rr["C"], rr, order).records)
        meta = {"order": order, "prefactors": ["-1/60", "11/60"]}
    elif args.what == "ag":
        order = args.N or 100
        records = _qseries_pair(AG_R2["A"], [0, 0], Fraction(0), AG_R2, order).records
        meta = {"order": order, "matrix": AG_R2["A"], "modulus": AG_R2["modulus"],
                "residues": list(AG_R2["residues"])}
    else:
        order = args.N or 100
        if args.matrix is None:
            raise argparse.ArgumentTypeError("qseries custom requires --matrix")
        if (args.residues is None) != (args.modulus is None):
            raise argparse.ArgumentTypeError(
                "qseries custom: --residues and --modulus must be given together")
        a, b = args.matrix, args.b
        if b is not None:
            # B is checked on its own first, so that its faults name --b
            try:
                bvec = [Fraction(v) for v in b]
            except (TypeError, ValueError, OverflowError) as exc:
                raise argparse.ArgumentTypeError(f"--b {json.dumps(b)}: {exc}") from exc
            if isinstance(a, list) and len(bvec) != len(a):
                raise argparse.ArgumentTypeError(
                    f"--b {json.dumps(b)}: length {len(bvec)}, expected {len(a)} "
                    "(one entry per matrix row)")
        try:
            series = qseries.f_abc(a, [0] * len(a) if b is None else b, args.c, order)
        except NonIntegralExponent:
            raise
        # A not an r x r positive-definite matrix; a JSON number too large
        # for a float reads as inf, which Fraction rejects
        except (TypeError, ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"--matrix {json.dumps(a)}: {exc}") from exc
        meta = {"order": order, "series": series.to_json_obj()}
        records = (_definite_record(a),)
        if args.residues is not None:
            try:
                product = qseries.eta_like_product(args.residues, args.modulus, order,
                                                   prefactor_exp=args.c)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(f"--residues {','.join(map(str, args.residues))} "
                                                 f"--modulus {args.modulus}: {exc}") from exc
            rep = qseries.compare_series(series, product)
            records = rep.records
            meta.update(rep.metadata)
        print(series.head(12))  # once every flag has passed its checks
    return VerificationReport(f"qseries {args.what}", meta, records, args.seed, 0)


def _cmd_report(args) -> VerificationReport:
    ctx = _ctx(args)
    rng = np.random.default_rng(args.seed)
    pair = args.pair
    records = []
    meta = {"pair": pair.label, "matrix": pair.nahm.to_json_obj()}

    # one solution set, read by the positive, central-charge and torsion records
    sols = _solve_all(pair, ctx, args.starts, args.seed)
    records.append(CheckRecord.make("positive solution residual", sols.positive.residual,
                                    ctx.tau_res * args.tol_scale))
    probe = bloch.central_charge_at(pair, sols.positive, ctx)
    meta["central_charge"] = str(probe.rational)
    records.append(CheckRecord.make(f"central-charge probe vs {probe.rational}", probe.error,
                                    1e-20 * args.tol_scale))

    meta["solutions_found"] = len(sols.solutions)
    records += _torsion_of(sols, ctx, args.tol_scale)
    records += FAMILIES["periodicity"].records(pair, ctx, rng, args.seeds, args.tol_scale, args.seed)
    # wedge and dilogsum at one shared draw of points
    records += _point_records((_WEDGE, _DILOGSUM), pair, ctx, rng, args.points, args.tol_scale, args.seed)
    records += FAMILIES["fiveterm"].records(pair, ctx, rng, 200, args.tol_scale, args.seed)
    return VerificationReport("report", meta, tuple(records), args.seed, args.precision_bits)


_COMMANDS = {
    "matrix": _cmd_matrix,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "qseries": _cmd_qseries,
    "report": _cmd_report,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        report = _COMMANDS[args.command](args)
    except (argparse.ArgumentTypeError, AdetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, argparse.ArgumentTypeError) else 1
    report.wall_time_s = time.perf_counter() - t0
    for line in report.summary_lines():
        print(line)
    if args.json:
        report.dump_json(args.json)
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
