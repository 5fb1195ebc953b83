"""Checks on the benchmark itself: deterministic counters, the seed reaching
the inputs, self times that add up, failure accounting, the headroom metric,
and refusal to run without the program.

    python3 -m pytest -q perfbench/test_determinism.py

Workload sizes are shrunk with monkeypatch so the file runs in about a minute;
the code paths are the benchmark's own.
"""
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, TAG, Tracer, summarize  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads.PairReports, "commands", (("solve", "A2,T1"), ("solve", "D4,A1")))
    monkeypatch.setattr(workloads.PairReports, "pairs", ("A2,T1", "D4,A1"))
    monkeypatch.setattr(workloads, "SOLVE_STARTS", 60)
    monkeypatch.setattr(workloads.YsystemSweep, "periodic", ("A1,T2", "A2,A1"))
    monkeypatch.setattr(workloads, "SIGN_PAIRS", ("A1,T2",))
    monkeypatch.setattr(workloads, "WEDGE_PAIRS", ("A2,T1",))
    monkeypatch.setattr(workloads, "IDENTITIES", tuple(
        (name, a, b, m, ex, min(order, 20)) for name, a, b, m, ex, order in workloads.IDENTITIES[:4]))


def traced_pass(name, seed, scratch):
    workload = workloads.make(name, scratch)
    workload.prepare()
    tracer, out = Tracer(), workloads.Outcome()
    with tracer.active():
        wall, _ = run.run_pass(workload.tasks(seed), out, tracer)
    return tracer, out, wall


def fingerprint(tracer):
    """Everything in a trace that must repeat exactly: counters (solver meta,
    Newton iterations, escalations) and calls per function and tag (li2 calls
    by region, inverse_pochhammer_q calls)."""
    return dict(tracer.counters), Counter((span[0], span[TAG]) for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_counters(name, small, tmp_path):
    first, out, _ = traced_pass(name, 7, tmp_path)
    second, _, _ = traced_pass(name, 7, tmp_path)
    assert out.attempted > 0 and out.wrong == 0, out.failures
    assert fingerprint(first) == fingerprint(second)


def test_seed_reaches_the_solver(small, tmp_path):
    a, _, _ = traced_pass("pair_reports", 7, tmp_path)
    b, _, _ = traced_pass("pair_reports", 8, tmp_path)
    solver_a = {k: v for k, v in a.counters.items() if k.startswith("solver.")}
    solver_b = {k: v for k, v in b.counters.items() if k.startswith("solver.")}
    assert solver_a["solver.starts"] == solver_b["solver.starts"] > 0
    assert solver_a != solver_b


def test_known_solver_gap_counts_as_failed(small, tmp_path):
    # D4,A1: every start lands on a degenerate root, so solve --all finds nothing
    _, out, _ = traced_pass("pair_reports", 7, tmp_path)
    assert out.failures["solve D4,A1: solution set is nonempty"] == 1
    assert out.wrong == 0


def test_self_times_add_up_to_the_pass(small, tmp_path):
    tracer, _, wall = traced_pass("ysystem_sweep", 7, tmp_path)
    s = summarize(tracer.spans)
    layers = sum(s["self"][layer] for layer in LAYERS)
    assert layers == pytest.approx(s["top_level"], rel=1e-9)
    assert 0 <= wall - s["top_level"] < wall


def test_a_raising_task_fails_its_checks_without_stopping():
    def boom(out):
        raise RuntimeError("boom")

    out = workloads.Outcome()
    tasks = [workloads.Task("boom", 5, boom), workloads.Task("ok", 1, lambda o: o.check("fine", True))]
    _, spans = run.run_pass(tasks, out)
    assert (out.attempted, out.failed, out.wrong) == (6, 5, 1)
    assert [name for name, _, _ in spans] == ["boom", "ok"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "qseries_exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_family_losing_digits_moves_the_headroom():
    out = workloads.Outcome()
    out.residual("a 1", 1e-20, 1e-10, "a")
    out.residual("a 2", 1e-25, 1e-10, "a")
    out.residual("b", 1e-30, 1e-10, "b")
    assert run.headroom_digits(out) == pytest.approx((10 + 20) / 2)
    out.residual("a 3", 1e-12, 1e-10, "a")
    assert run.headroom_digits(out) == pytest.approx((2 + 20) / 2)
    assert out.headroom == pytest.approx(2) and out.headroom_at == "a 3"
