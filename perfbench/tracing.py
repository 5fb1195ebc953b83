"""Spans around the public functions of each adet module, taken from outside.

A traced function is replaced, in every adet namespace that holds it, by a
wrapper that records a span [name, start, end, parent, task, tag].  Patching
every namespace covers both lookups callers use: module attributes
(``solver.solve_all`` from the CLI) and names imported into a caller
(``adet.verify.bloch_wigner``, ``adet.solver.constant_residual``).  Spans stay
in memory; the run writes them out when it ends.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions traced per module; the module name is the layer name.
TRACED = {
    "cli": ("run",),
    "dynkin": ("parse_diagram", "pair_indexing", "nahm_matrix"),
    "solver": ("solve_all", "solve_positive", "nahm_branch_diagnostics"),
    "ysystem": ("iterate", "check_periodicity", "monomial_sign", "constant_residual"),
    "verify": ("wedge_form_residual", "dilog_sum_over_Splus"),
    "bloch": ("li2", "bloch_wigner", "five_term_residual", "torsion_check",
              "central_charge_probe", "rogers_L", "xi_D"),
    "qseries": ("f_abc", "inverse_pochhammer_q", "eta_like_product", "compare_series"),
}
LAYERS = tuple(TRACED)
LI2_REGIONS = ("series", "inversion", "reflection", "bernoulli", "realcut")
ITERATE_BITS = (128, 256)
# Start/end/parent/task/tag positions in a span.
START, END, PARENT, TASK, TAG = 1, 2, 3, 4, 5


@contextmanager
def patched(wrappers):
    """Replace functions in every loaded adet namespace for the duration.

    `wrappers` maps "module.function" to a factory taking the current function
    and returning its replacement.  Whatever is installed now (an earlier
    wrapper included) is what gets wrapped, so patches nest.
    """
    replacement = {}
    for qual, factory in wrappers.items():
        module, name = qual.split(".")
        current = getattr(importlib.import_module(f"adet.{module}"), name)
        replacement[id(current)] = (current, factory(current))
    namespaces = [m for key, m in list(sys.modules.items()) if key == "adet" or key.startswith("adet.")]
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, value))
    try:
        yield
    finally:
        for ns, attr, value in reversed(undo):
            setattr(ns, attr, value)


def li2_region(z) -> str:
    """Branch region of adet.bloch.li2 for argument z, by the thresholds in its docstring."""
    z = complex(z)
    if z.imag == 0 and z.real > 1:
        return "realcut"
    a = abs(z)
    if a <= 0.5:
        return "series"
    if a >= 2:
        return "inversion"
    if abs(1 - z) <= 0.5:
        return "reflection"
    return "bernoulli"


def _ctx_arg(args, kwargs, position):
    from adet import DEFAULT_CONTEXT

    if "ctx" in kwargs:
        return kwargs["ctx"]
    return args[position] if len(args) > position else DEFAULT_CONTEXT


def _tag_li2(tracer, span, args, kwargs, result):
    span[TAG] = li2_region(args[0])


def _tag_iterate(tracer, span, args, kwargs, result):
    ctx = _ctx_arg(args, kwargs, 3)
    pair, u_max = args[0], args[2] if len(args) > 2 else kwargs["u_max"]
    span[TAG] = ctx.mantissa_bits
    tracer.counters[f"ysystem.iterate.values.{ctx.mantissa_bits}"] += pair.n * (u_max + 2)
    if result.precision_bits > ctx.mantissa_bits:
        tracer.counters["ysystem.iterate.escalations"] += 1


def _count_solutions(tracer, solutions):
    for sol in solutions:
        if sol.newton:
            tracer.counters["solver.newton_mp_iters"] += sol.newton["iterations"]


def _tag_solve_all(tracer, span, args, kwargs, result):
    c = tracer.counters
    c["solver.starts"] += result.starts
    for key in ("converged_starts", "degenerate_hits", "polish_rejections"):
        c[f"solver.{key}"] += result.meta[key]
    c["solver.solutions_found"] += len(result.solutions)
    _count_solutions(tracer, result.solutions)


def _tag_solve_positive(tracer, span, args, kwargs, result):
    _count_solutions(tracer, [result])


OBSERVERS = {
    "bloch.li2": _tag_li2,
    "ysystem.iterate": _tag_iterate,
    "solver.solve_all": _tag_solve_all,
    "solver.solve_positive": _tag_solve_positive,
}


class Tracer:
    """Collects spans and deterministic counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.task = None
        self._stack = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def active(self):
        """Context manager that installs the span wrappers."""
        return patched({
            f"{module}.{fn}": (lambda f, q=f"{module}.{fn}": self._wrap(q, f))
            for module, names in TRACED.items() for fn in names
        })


def self_times(spans, offset: int = 0):
    """Per-span self time: duration minus the time covered by direct children.

    Calls are synchronous on one thread, so children never overlap and their
    covered time is the sum of their durations.  `offset` is the index of
    spans[0] in the full span list (parents are stored as full-list indices).
    """
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT] - offset
        if 0 <= parent < len(spans):
            child[parent] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def summarize(spans, offset: int = 0) -> dict:
    """Totals over a run of spans: per "module.function" self time, total
    time, calls and (calls, seconds) per tag; per layer self time; per
    (function, task name) self time; and the time covered by top-level spans.
    """
    out = {"self": defaultdict(float), "total": defaultdict(float), "calls": Counter(),
           "tagged": defaultdict(lambda: [0, 0.0]), "task_self": defaultdict(float), "top_level": 0.0}
    for span, own in zip(spans, self_times(spans, offset)):
        name = span[0]
        duration = span[END] - span[START]
        out["self"][name] += own
        out["self"][name.split(".")[0]] += own
        out["total"][name] += duration
        out["calls"][name] += 1
        out["task_self"][(name, str(span[TASK]).split(":", 1)[-1])] += own
        if span[TAG] is not None:
            entry = out["tagged"][(name, span[TAG])]
            entry[0] += 1
            entry[1] += duration
        if span[PARENT] < offset:
            out["top_level"] += duration
    return out
