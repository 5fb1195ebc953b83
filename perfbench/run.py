"""Run one workload of the adet benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; adet is imported from its src/ directory.
The load is closed-loop from one thread: each task is issued when the
previous one returns.  Passes over the workload's task list, all with the
inputs generated from the seed, repeat until about S seconds are spent.
Pass and task times are corrected to a reference host speed (hostspeed.py),
sampled every 0.5 s during the passes; setup_s is as measured.  Contention only ever adds time, so wall_s is
the fastest corrected pass and task_p50_s / task_p90_s are percentiles of
each task's fastest corrected run.  The times as measured are kept in the
result file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every pass twice on
the same inputs, first untraced and then with spans around adet's public
functions, and prints the per-layer metrics, the tracing overhead among them.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Spans and the full result go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostspeed import REFERENCE_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7
# Stop issuing passes after this long whatever --seconds says, so that a
# run ends well inside its 180 s limit.
MEASURE_CAP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters, each timing itself, as measured."""
    measured = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        measured.append(float(proc.stdout.split()[-1]))
    return statistics.median(measured)


def run_pass(tasks, out, tracer=None):
    """Issue the tasks one after another.

    Returns the pass wall time and (name, start, end) per task.
    """
    spans = []
    start = time.perf_counter()
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = f"{index}:{task.name}"
        t0 = time.perf_counter()
        try:
            task.call(out)
        except Exception as exc:  # a failing task is counted, never fatal
            out.crash(task.name, task.expected, f"{type(exc).__name__}: {exc}")
        spans.append((task.name, t0, time.perf_counter()))
    return time.perf_counter() - start, spans


def provenance() -> dict:
    import mpmath
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.is_file() else []
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": models[0] if models else None,
        "git_commit": commit,
        "src_adet_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "adet").glob("*.py")),
    }


def headroom_digits(out) -> float:
    """Mean over check families of each family's smallest headroom.

    The plain minimum is one check's: on ysystem_sweep E8,A1's 128-bit
    periodicity residual moves by an order of magnitude with the seed.  The
    mean over families is steady, and a family that loses d digits moves it
    by d / (number of families).
    """
    return statistics.fmean(out.family_headroom.values())


def end_to_end(task_times, pass_times, out, setup_s) -> dict:
    times = [min(ts) for ts in task_times.values()]
    return {
        "wall_s": (min(pass_times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((out.attempted - out.failed) / out.attempted, "ratio"),
        "headroom_digits": (headroom_digits(out), "digits"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
    }


def per_layer(tracer, setup_spans, traced_walls, walls, task_times, workloads, out) -> dict:
    """Per-layer metrics, per traced pass (means over the traced passes)."""
    from tracing import ITERATE_BITS, LAYERS, LI2_REGIONS, summarize

    n = len(traced_walls)
    wall_t = statistics.fmean(traced_walls)
    # untraced passes record no spans, so every span after set-up is a traced pass's
    s = summarize(tracer.spans[setup_spans:], setup_spans)
    setup = summarize(tracer.spans[:setup_spans])
    count = {key: value / n for key, value in tracer.counters.items()}
    per_pass = lambda table, key: s[table][key] / n  # noqa: E731

    def us_per(key, calls):
        return 1e6 * s["tagged"][key][1] / calls if calls else 0.0

    starts = count.get("solver.starts", 0)
    useful = count.get("solver.converged_starts", 0) - count.get("solver.degenerate_hits", 0)
    found = count.get("solver.solutions_found", 0)
    polished = found + count.get("solver.polish_rejections", 0)
    m = {
        "trace.wall_s": (wall_t, "s"),
        "bench.self_s": (wall_t - s["top_level"] / n, "s"),
        "trace_overhead_s": (wall_t - statistics.fmean(walls), "s"),
        "checks.min_headroom_digits": (out.headroom, "digits"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_pass("self", layer), "s")
    for name in ("cli.run", "solver.solve_all", "solver.solve_positive"):
        m[f"{name}.self_s"] = (per_pass("self", name), "s")
    m["solver.nahm_branch_diagnostics.s"] = (per_pass("total", "solver.nahm_branch_diagnostics"), "s")
    for key in ("starts", "converged_starts", "degenerate_hits", "polish_rejections", "newton_mp_iters",
                "solutions_found"):
        m[f"solver.{key}"] = (count.get(f"solver.{key}", 0), "count")
    m["solver.useful_start_ratio"] = (useful / starts if starts else 0.0, "ratio")
    m["solver.polish_yield"] = (found / polished if polished else 0.0, "ratio")
    for region in LI2_REGIONS:
        calls = s["tagged"][("bloch.li2", region)][0]
        m[f"bloch.li2.calls.{region}"] = (calls / n, "count")
        m[f"bloch.li2.us_per_call.{region}"] = (us_per(("bloch.li2", region), calls), "us")
    for name in ("bloch_wigner", "five_term_residual", "central_charge_probe"):
        m[f"bloch.{name}.self_s"] = (per_pass("self", f"bloch.{name}"), "s")
    m["ysystem.iterate.self_s"] = (per_pass("self", "ysystem.iterate"), "s")
    for bits in ITERATE_BITS:
        values = tracer.counters[f"ysystem.iterate.values.{bits}"]
        m[f"ysystem.iterate.us_per_value.{bits}"] = (us_per(("ysystem.iterate", bits), values), "us")
    m["ysystem.iterate.escalations"] = (count.get("ysystem.iterate.escalations", 0), "count")
    m["ysystem.monomial_sign.self_s"] = (per_pass("self", "ysystem.monomial_sign"), "s")
    m["ysystem.check_periodicity.s"] = (per_pass("total", "ysystem.check_periodicity"), "s")
    m["verify.wedge_form_residual.s"] = (per_pass("total", "verify.wedge_form_residual"), "s")
    m["verify.dilog_sum_over_Splus.self_s"] = (per_pass("self", "verify.dilog_sum_over_Splus"), "s")
    for name, *_ in workloads.IDENTITIES:
        m[f"qseries.f_abc.self_s.{name}"] = (per_pass("task_self", ("qseries.f_abc", name)), "s")
    m["qseries.inverse_pochhammer_q.calls"] = (per_pass("calls", "qseries.inverse_pochhammer_q"), "count")
    m["qseries.inverse_pochhammer_q.s"] = (per_pass("total", "qseries.inverse_pochhammer_q"), "s")
    m["qseries.eta_like_product.s"] = (per_pass("total", "qseries.eta_like_product"), "s")
    # per-command times come from the untraced passes
    for command, label in workloads.PairReports.commands:
        times = task_times.get(f"{command} {label}")
        m[f"cli.{command}_s.{label.replace(',', '-')}"] = (min(times) if times else 0.0, "s")
    m["dynkin.pair_indexing.s"] = (setup["total"]["dynkin.pair_indexing"], "s")
    m["dynkin.nahm_matrix.s"] = (setup["total"]["dynkin.nahm_matrix"], "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adet" / "__init__.py").is_file():
        print(f"error: no adet package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adet

    if Path(adet.__file__).resolve().parent != (SRC / "adet").resolve():
        print(f"error: imported adet from {adet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.task = "setup"
        with tracer.active():
            workload = workloads.make(args.workload, RESULTS)
        setup_spans = len(tracer.spans)
    else:
        workload = workloads.make(args.workload, RESULTS)
        setup_s = setup_seconds(args.workload)
    workload.prepare()

    out = workloads.Outcome()
    clock = None if tracer else HostClock()
    walls, pass_times, traced_walls = [], [], []
    raw, task_times = defaultdict(list), defaultdict(list)  # task name -> seconds per pass
    start = time.perf_counter()
    index = 0
    while True:
        with clock.running() if clock else contextlib.nullcontext():
            wall, spans = run_pass(workload.tasks(args.seed), out)
        walls.append(wall)
        if clock:
            pass_times.append(clock.correct(spans[0][1], spans[-1][2]))
        for name, t0, t1 in spans:
            raw[name].append(t1 - t0)
            task_times[name].append(clock.correct(t0, t1) if clock else t1 - t0)
        if tracer:
            with tracer.active():
                traced_walls.append(run_pass(workload.tasks(args.seed), out, tracer)[0])
        index += 1
        elapsed = time.perf_counter() - start
        step = elapsed / index
        # whole passes only; issue another while at least half of it fits
        if elapsed >= args.seconds - step / 2 or elapsed + step > MEASURE_CAP_S:
            break

    if tracer:
        metrics = per_layer(tracer, setup_spans, traced_walls, walls, task_times, workloads, out)
    else:
        metrics = end_to_end(task_times, pass_times, out, setup_s)
    prov = provenance()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": index,
        "measured": {"pass_walls_s": walls, "task_fastest_s": {name: min(ts) for name, ts in raw.items()}},
        "host_kernel_s": clock.kernel_times() if clock else None,
        "correct": out.wrong == 0, "attempted": out.attempted, "failed": out.failed,
        "failures": dict(out.failures), "headroom_at": out.headroom_at,
        "family_headroom": out.family_headroom, "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    if tracer:
        (RESULTS / f"spans-{tag}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "task", "tag"], "spans": tracer.spans}))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {index}  "
          f"tasks {sum(len(v) for v in task_times.values())}  checks {out.attempted}  failed {out.failed}")
    if clock:
        kernel = statistics.median(clock.kernel_times())
        print(f"  host kernel {kernel * 1e3:.1f} ms; pass and task times below are corrected to the "
              f"reference {REFERENCE_S * 1e3:.0f} ms, setup_s is as measured")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  smallest headroom {out.headroom:.4g} digits, at: {out.headroom_at}")
    for name, count in sorted(out.failures.items()):
        print(f"  FAILED x{count}: {name}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": result["correct"], "attempted": out.attempted, "failed": out.failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
