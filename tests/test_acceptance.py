"""Acceptance suite: every gate at its stated tolerance, one line per check."""
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from adet import (
    PrecisionContext,
    SearchBudget,
    adjacency_matrix,
    central_charge_probe,
    cli,
    compare_series,
    coxeter_number,
    eta_like_product,
    f_abc,
    parse_diagram,
    solve_all,
    solve_positive,
    wedge_form_residual,
)

from conftest import ACCEPT_PAIRS, pair

CTX128 = PrecisionContext(mantissa_bits=128)
CTX256 = PrecisionContext(mantissa_bits=256)

PERIODICITY_PAIRS = ACCEPT_PAIRS + ["D4,A1", "E6,A1"]


def report(line):
    print(line, flush=True)


def family(name, label, ctx, rng, count, seed=0):
    """The records of one row of the CLI's check-family table, at tol-scale 1."""
    return cli.FAMILIES[name].records(pair(label) if label else None, ctx, rng, count, 1.0, seed)


def gate(records, tolerance, what):
    """Assert every record passed at the pinned tolerance; the largest residual."""
    assert all(r.tolerance == tolerance for r in records), what
    failed = [(r.name, r.residual_str) for r in records if not r.passed]
    assert records and not failed, (what, failed)
    return max(r.residual for r in records)


def test_criterion_1_torsion_over_all_solutions():
    # every multistart solution of every pair satisfies |sum_i D(x_i)| < 1e-18
    t0 = time.time()
    worst = 0.0
    total = 0
    for label in ACCEPT_PAIRS:
        records = family("torsion", label, CTX128, None, 2000)
        total += len(records)
        worst = max(worst, gate(records, 1e-18, label))
    elapsed = time.time() - t0
    report(f"ACCEPTANCE 1 (torsion criterion): PASS  "
           f"max |sum D(x)| = {worst:.3e} over {total} solutions, {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_2_known_closed_forms():
    sols = solve_all(pair("A1,T1"), SearchBudget(starts=2000, seed=0), CTX128)
    assert len(sols.solutions) == 2
    with CTX128.workprec():
        got = sorted(mp.re(s.x[0]) for s in sols.solutions)
        expect = [(3 - mp.sqrt(5)) / 2, (3 + mp.sqrt(5)) / 2]
        err_all = max(abs(a - b) for a, b in zip(got, expect))
        assert all(abs(mp.im(s.x[0])) < 1e-25 for s in sols.solutions)
        assert err_all < 1e-25

        pos = solve_positive(pair("A1,A1"), CTX128)
        err_pos = abs(pos.x[0] - mp.mpf(1) / 2)
        assert err_pos < 1e-30
    report(f"ACCEPTANCE 2 (closed forms): PASS  A=[2] error {mp.nstr(err_all, 4)}, "
           f"A=[1] error {mp.nstr(err_pos, 4)}")


def test_criterion_3_periodicity():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for label in PERIODICITY_PAIRS:
        records = family("periodicity", label, CTX256, rng, 20)
        worst = max(worst, gate(records, 1e-25, label))
    elapsed = time.time() - t0
    report(f"ACCEPTANCE 3 (periodicity): PASS  max residual {worst:.3e} "
           f"over {len(PERIODICITY_PAIRS)} pairs x 20 seeds, {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_4_wedge_and_multiplicity_control():
    rng = np.random.default_rng(1)
    worst = 0.0
    for label in PERIODICITY_PAIRS:  # every pair here has rank product <= 6
        records = family("wedge", label, CTX128, rng, 5)
        worst = max(worst, gate(records, 1e-18, label))
    # negative control: one multiplicity d lowered from 2 to 1 for (T1,T1),
    # at the default b = 1/a that the records above use
    p = pair("T1,T1")
    first = p.S_plus()[0]
    ok = wedge_form_residual(p, [1.3], CTX128)
    bad = wedge_form_residual(p, [1.3], CTX128, d_override={first: 1})
    assert ok.residual < 1e-18
    assert bad.residual > 1e-3
    report(f"ACCEPTANCE 4 (constancy/wedge): PASS  max residual {worst:.3e}; "
           f"(T1,T1) d-control {mp.nstr(bad.residual, 4)} > 1e-3")


def test_criterion_5_dilog_sum_vanishing():
    rng = np.random.default_rng(2)
    worst = 0.0
    for label in ACCEPT_PAIRS:
        records = family("dilogsum", label, CTX128, rng, 10)
        worst = max(worst, gate(records, 1e-18, label))
    report(f"ACCEPTANCE 5 (dilog-sum vanishing): PASS  max |sum| = {worst:.3e}")


def test_criterion_6_functional_equations():
    rng = np.random.default_rng(3)
    five, refl, inv = family("fiveterm", None, CTX128, rng, 1000)
    gate([five, refl, inv], 1e-30, "functional equations")
    report(f"ACCEPTANCE 6 (functional equations): PASS  five-term {five.residual:.3e}, "
           f"reflection {refl.residual:.3e}, inversion {inv.residual:.3e}")


def test_criterion_7_q_series_identities():
    t0 = time.time()
    rr1_sum = f_abc([[2]], [0], Fraction(-1, 60), 200)
    rr1_prod = eta_like_product({1, 4}, 5, 200, prefactor_exp=Fraction(-1, 60))
    rep1 = compare_series(rr1_sum, rr1_prod)
    assert rep1.passed and rr1_sum.prefactor_exp == Fraction(-1, 60)

    rr2_sum = f_abc([[2]], [1], Fraction(11, 60), 200)
    rr2_prod = eta_like_product({2, 3}, 5, 200, prefactor_exp=Fraction(11, 60))
    rep2 = compare_series(rr2_sum, rr2_prod)
    assert rep2.passed and rr2_sum.prefactor_exp == Fraction(11, 60)

    ag_sum = f_abc([[2, 2], [2, 4]], [0, 0], 0, 100)
    ag_prod = eta_like_product({1, 2, 5, 6}, 7, 100)
    rep3 = compare_series(ag_sum, ag_prod)
    assert rep3.passed
    elapsed = time.time() - t0
    report(f"ACCEPTANCE 7 (q-series identities): PASS  RR to q^200, AG to q^100, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_8_central_charge_probe():
    expect = {"A1,A1": Fraction(1, 2), "A1,T1": Fraction(2, 5)}
    errs = {}
    for label, frac in expect.items():
        probe = central_charge_probe(pair(label), CTX128)
        assert probe.rational == frac
        assert probe.error < 1e-20
        errs[label] = probe.error
    report("ACCEPTANCE 8 (central charges): PASS  "
           + ", ".join(f"{k} -> {expect[k]} (err {mp.nstr(v, 3)})" for k, v in errs.items()))


def test_criterion_9_coxeter_consistency():
    names = (
        [f"A{n}" for n in range(1, 13)]
        + [f"D{n}" for n in range(2, 11)]
        + ["E6", "E7", "E8"]
        + [f"T{n}" for n in range(1, 9)]
    )
    worst = 0.0
    for name in names:
        d = parse_diagram(name)
        lam = np.linalg.eigvalsh(adjacency_matrix(d).to_float()).max()
        gap = abs(lam - 2 * np.cos(np.pi / coxeter_number(d)))
        worst = max(worst, gap)
        assert gap < 1e-10, name
    report(f"ACCEPTANCE 9 (Coxeter spectra): PASS  max gap {worst:.3e} over {len(names)} diagrams")
