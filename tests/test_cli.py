import contextlib
import io
import json
import sys

import numpy as np
import pytest

from adet import PrecisionContext, cli, nahm_matrix, parse_diagram, solver
from adet.cli import run
from adet.report import CheckRecord, VerificationReport


def test_matrix_prints_kronecker(capsys):
    assert run(["matrix", "--pair", "A1,T1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "[2]"


def test_matrix_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert run(["--json", str(path), "matrix", "--pair", "A1,T2"]) == 0
    capsys.readouterr()
    obj = json.loads(path.read_text())
    assert obj["passed"]
    assert obj["metadata"]["matrix"]["entries"] == [["2", "2"], ["2", "4"]]
    matrix = nahm_matrix(parse_diagram("A1"), parse_diagram("T2"))
    records = (CheckRecord.make("positive definite (exact LDL^t pivots)", 0, 1),)
    rep = VerificationReport("matrix", {"pair": "A1,T2", "matrix": matrix.to_json_obj()}, records,
                             0, 128, obj["wall_time_s"])
    assert rep.to_json_obj() == obj


def test_global_flags_after_subcommand(tmp_path, capsys):
    # every subcommand accepts --json/--seed/... in trailing position too
    path = tmp_path / "t.json"
    assert run(["matrix", "--pair", "A1,T2", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["metadata"]["matrix"]["entries"] == [["2", "2"], ["2", "4"]]
    assert run(["verify", "dilogsum", "--pair", "A1,T1", "--points", "2",
                "--seed", "3", "--precision-bits", "160"]) == 0
    capsys.readouterr()


def test_solve_all_json(tmp_path, capsys):
    path = tmp_path / "s.json"
    code = run(["--json", str(path), "solve", "--pair", "A1,T1", "--all", "--starts", "300"])
    capsys.readouterr()
    assert code == 0
    obj = json.loads(path.read_text())
    assert len(obj["metadata"]["solutions"]["solutions"]) == 2


def test_solve_positive(capsys):
    assert run(["solve", "--pair", "A1,T2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_torsion(capsys):
    assert run(["verify", "torsion", "--pair", "A1,T1", "--starts", "300"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_periodicity_e6(capsys):
    assert run(["verify", "periodicity", "--pair", "E6,A1", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "period=28" in out


def test_verify_wedge_and_dilogsum(capsys):
    assert run(["verify", "wedge", "--pair", "A2,A1", "--points", "2"]) == 0
    assert run(["verify", "dilogsum", "--pair", "A1,T1", "--points", "2"]) == 0
    capsys.readouterr()


def test_verify_fiveterm(capsys):
    assert run(["verify", "fiveterm", "--points", "40"]) == 0
    capsys.readouterr()


def test_verify_fiveterm_gate_follows_precision(tmp_path, capsys):
    # 1e-30 at 128 bits, 2^-128 * 1e-30 (about 2.9e-69) at 256; the residuals
    # read about 5e-82 there, so the gate still keeps 13 digits of headroom
    path = tmp_path / "f.json"
    assert run(["--precision-bits", "256", "--json", str(path), "verify", "fiveterm",
                "--points", "200"]) == 0
    records = json.loads(path.read_text())["records"]
    assert len(records) == 3
    for r in records:
        assert r["tolerance"] == 2.0 ** -128 * 1e-30
        assert r["passed"] and r["residual"] < 1e-78, r
    capsys.readouterr()


@pytest.mark.parametrize("seed", range(4))
def test_fiveterm_draws_points_as_per_point_uniforms(seed, monkeypatch):
    # one rng.random((count, 4)) gives the points of uniform(0, 1, 2) then
    # uniform(0, 2 pi, 2) per point, and leaves the generator where they do
    points = []
    monkeypatch.setattr(cli.bloch, "relation_residuals", lambda x, y, ctx: points.append((x, y)) or (0, 0, 0))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    cli.FAMILIES["fiveterm"].records(None, PrecisionContext(), rng, 50, 1.0, seed)
    expected = []
    for _ in range(50):
        r, t = 2 * np.sqrt(ref.uniform(0, 1, 2)), ref.uniform(0, 2 * np.pi, 2)
        expected.append(tuple((r * np.exp(1j * t)).tolist()))
    assert points == expected
    assert rng.bit_generator.state == ref.bit_generator.state


def test_verify_requires_pair(capsys):
    assert run(["verify", "wedge"]) == 2
    err = capsys.readouterr().err
    assert "requires --pair" in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "torsion", "--pair", "A1,T1", "--points", "3"], "--points"),
    (["verify", "torsion", "--pair", "A1,T1", "--seeds", "1"], "--seeds"),
    (["verify", "periodicity", "--pair", "A1,T1", "--starts", "9"], "--starts"),
    (["verify", "periodicity", "--pair", "A1,T1", "--points", "4"], "--points"),
    (["verify", "wedge", "--pair", "A1,T1", "--seeds", "2"], "--seeds"),
    (["verify", "dilogsum", "--pair", "A1,T1", "--starts", "300"], "--starts"),
    (["verify", "fiveterm", "--seeds", "5"], "--seeds"),
    (["verify", "fiveterm", "--pair", "E8,E8"], "--pair"),
])
def test_verify_rejects_flags_the_family_does_not_read(argv, flag, capsys):
    # each ran and exited 0, ignoring the flag (fiveterm ran no check on E8,E8)
    _assert_bad_input(argv, capsys, f"does not read {flag}")


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_verify_accepts_the_flags_its_row_lists(family, monkeypatch, capsys):
    # a row's flags reach its records function; the records are stubbed out
    seen = []
    row = cli.FAMILIES[family]
    monkeypatch.setitem(cli.FAMILIES, family, row._replace(
        records=lambda pair, ctx, rng, count, tol_scale, seed: seen.append((pair, count)) or
        [CheckRecord.make("stub", 0, 1)]))
    argv = ["verify", family]
    for flag in row.flags:
        argv += ["--pair", "A1,T1"] if flag == "pair" else [f"--{flag}", "3"]
    assert run(argv) == 0
    capsys.readouterr()
    assert [(pair and pair.label, count) for pair, count in seen] == [
        ("A1,T1" if row.needs_pair else None, 3)]


def test_qseries_commands(capsys):
    assert run(["qseries", "rr", "--N", "80"]) == 0
    assert run(["qseries", "ag", "--N", "50"]) == 0
    assert run(
        ["qseries", "custom", "--matrix", "[[2]]", "--b", "[0]", "--c=-1/60",
         "--residues", "1,4", "--modulus", "5", "--N", "60"]
    ) == 0
    capsys.readouterr()


def test_qseries_custom_bad_exponents(capsys):
    assert run(["qseries", "custom", "--matrix", "[[1]]", "--N", "10"]) == 1
    err = capsys.readouterr().err
    assert "not a nonnegative integer" in err


def test_report_aggregates(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = run(
        ["--json", str(path), "report", "--pair", "A1,T1",
         "--starts", "300", "--points", "2", "--seeds", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(path.read_text())
    names = [r["name"] for r in obj["records"]]
    assert any("positive solution" in n for n in names)
    assert any("central-charge" in n for n in names)
    assert any("periodicity" in n for n in names)
    assert any("wedge" in n for n in names)
    assert any("five-term" in n for n in names)
    assert obj["metadata"]["central_charge"] == "2/5"
    assert "PASS" in out


def _count_calls(monkeypatch, fn):
    """The argument tuples of every call to fn during the test, through any
    adet module that holds it under any name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "adet" or name.startswith("adet."):
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_report_solves_positive_once(tmp_path, monkeypatch, capsys):
    # one solution set per report: the positive start is found and polished
    # once, and the set's positive Solution feeds the residual record
    starts = _count_calls(monkeypatch, solver._positive_start)
    sets = []
    solve_all = solver.solve_all

    def kept(*args, **kwargs):
        sets.append(solve_all(*args, **kwargs))
        return sets[-1]

    monkeypatch.setattr(solver, "solve_all", kept)
    path = tmp_path / "r.json"
    assert run(["--json", str(path), "report", "--pair", "A1,T1", "--starts", "200",
                "--points", "1", "--seeds", "1"]) == 0
    capsys.readouterr()
    assert len(starts) == 1 and len(sets) == 1
    sols = sets[0]
    assert any(max(abs(a - b) for a, b in zip(s.y, sols.positive.y)) < sols.dedup_tol
               for s in sols.solutions)
    record = next(r for r in json.loads(path.read_text())["records"]
                  if r["name"] == "positive solution residual")
    assert record == CheckRecord.make(
        "positive solution residual", sols.positive.residual, PrecisionContext().tau_res).to_json_obj()


@pytest.mark.parametrize("label", ["A1,T1", "A2,T1", "E6,A1"])
def test_report_builds_the_nahm_matrix_once(label, monkeypatch, capsys):
    # the metadata and the branch diagnostics of every solution read one A
    calls = _count_calls(monkeypatch, nahm_matrix)
    assert run(["--seed", "1", "report", "--pair", label, "--starts", "200",
                "--points", "3", "--seeds", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


# report's counts, one per count flag of the check-family table
REPORT_COUNTS = {"starts": 200, "points": 2, "seeds": 3}


@pytest.fixture(scope="module")
def seed7_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "r.json"
    argv = ["--seed", "7", "--json", str(path), "report", "--pair", "A1,T1"]
    for flag, count in REPORT_COUNTS.items():
        argv += [f"--{flag}", str(count)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    return json.loads(path.read_text())["records"]


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_report_records_match_verify(family, seed7_report, tmp_path, capsys):
    # report and verify run the same row of the table at the same seed
    row = cli.FAMILIES[family]
    flag = row.count_flag
    path = tmp_path / "v.json"
    pair_flag = ["--pair", "A1,T1"] if row.needs_pair else []
    assert run(["--seed", "7", "--json", str(path), "verify", family, *pair_flag,
                f"--{flag}", str(REPORT_COUNTS[flag])]) == 0
    capsys.readouterr()
    verify = json.loads(path.read_text())["records"]
    names = [r["name"] for r in verify]
    shared = [r for r in seed7_report if r["name"] in names]
    assert verify and [r["name"] for r in shared] == names
    if family in ("periodicity", "torsion"):
        # report runs them before its first draw from the RNG
        assert shared == verify


def test_reports_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run(
            ["--json", str(path), "--seed", "5", "verify", "dilogsum",
             "--pair", "A1,T1", "--points", "3"]
        ) == 0
    capsys.readouterr()
    a, b = (json.loads(p.read_text()) for p in paths)
    for obj in (a, b):
        obj.pop("wall_time_s")
    assert a == b


def test_bad_arguments_exit_2(capsys):
    assert run(["matrix"]) == 2
    assert run(["matrix", "--pair", "Q9,A1"]) == 2
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_tol_scale_loosens_gates(capsys):
    # with a huge tolerance scale even impossible gates pass; sanity only
    assert run(["--tol-scale", "1e30", "verify", "fiveterm", "--points", "5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_tol_scale_must_be_finite_positive(scale, capsys):
    # inf passed every gate whatever the residuals; nan and -1 failed every one
    _assert_bad_input(["--tol-scale", scale, "verify", "fiveterm", "--points", "2"], capsys,
                      "finite positive")


def test_empty_report_fails():
    assert not VerificationReport("empty").passed


@pytest.mark.parametrize("argv, names", [
    (["matrix", "--pair", "A1,T1"], ["positive definite (exact LDL^t pivots)"]),
    (["qseries", "custom", "--matrix", "[[2]]", "--N", "10"],
     ["positive definite (exact LDL^t pivots)"]),
])
def test_commands_without_checks_carry_exact_records(argv, names, tmp_path, capsys):
    # both printed "PASS (0 checks)" before an empty report failed
    path = tmp_path / "r.json"
    assert run(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    records = json.loads(path.read_text())["records"]
    assert [r["name"] for r in records] == names
    assert all(r["residual"] == 0 and r["passed"] for r in records)


def test_definite_record_negative_control():
    # [[1, 2], [2, 1]] has the LDL^t pivots 1 and -3
    record = cli._definite_record([[1, 2], [2, 1]])
    assert record.residual == 1 and not record.passed


def test_matrix_definite_record_reads_the_cartan_factors(monkeypatch, capsys):
    # `matrix` factors C(X) and C(X'), never their 64 x 64 Kronecker product
    sizes = []
    ldl = cli._ldl
    monkeypatch.setattr(cli, "_ldl", lambda m: sizes.append(len(m)) or ldl(m))
    assert run(["matrix", "--pair", "E8,E8"]) == 0
    capsys.readouterr()
    assert sizes == [8, 8]
    # one indefinite factor fails the record
    record = cli._definite_record([[2, -1], [-1, 2]], [[1, 2], [2, 1]])
    assert record.residual == 1 and not record.passed


def _assert_bad_input(argv, capsys, fragment):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "error:" in err and fragment in err and "Traceback" not in err


def test_precision_below_96_bits_exits_2(capsys):
    # correct pairs miss the default tolerances below about 80 bits
    for bits in ("10", "64", "95"):
        _assert_bad_input(["solve", "--pair", "A1,T1", "--precision-bits", bits], capsys,
                          "at least 96")


@pytest.mark.parametrize("matrix, fragment", [
    ("[[-1]]", "positive definite"), ("[[2", "bad JSON"), ("5", "--matrix 5"), ("[[2, 1]]", "r x r"),
    # JSON reads 1e400 as inf, which no Fraction holds; a tuple case adds --b
    ("[[1e400]]", "Infinity"), (("[[2]]", "--b", "[1e400]"), "Infinity"),
    # an empty matrix was given, so the fault is its shape, not a missing flag
    ("[]", "r x r"),
    # JSON null is not the flag left out: "requires --matrix", and B = 0 for --b
    ("null", "argument --matrix: 'null' is JSON null"),
    (("[[2]]", "--b", "null"), "argument --b: 'null' is JSON null"),
])
def test_qseries_custom_bad_matrix_exits_2(matrix, fragment, capsys):
    argv = [matrix] if isinstance(matrix, str) else list(matrix)
    _assert_bad_input(["qseries", "custom", "--matrix", *argv], capsys, fragment)


@pytest.mark.parametrize("matrix, b, fragment, other", [
    # an overflowing entry and a wrong length are faults of --b, not of the matrix
    ("[[2]]", "[1e400]", "--b [Infinity]: cannot convert Infinity", "--matrix"),
    ("[[2]]", "[0, 1]", "--b [0, 1]: length 2, expected 1", "--matrix"),
    ("[[2, 1], [1, 2]]", "[0]", "--b [0]: length 1, expected 2", "--matrix"),
    ("[[2]]", "[]", "--b []: length 0, expected 1", "--matrix"),
    # a valid --b leaves a fault of the matrix named --matrix
    ("[[2, 1]]", "[0]", "--matrix [[2, 1]]: ", "--b"),
])
def test_qseries_custom_bad_input_names_its_flag(matrix, b, fragment, other, capsys):
    assert run(["qseries", "custom", "--matrix", matrix, "--b", b, "--N", "5"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("error: ") and fragment in err and other not in err, err


@pytest.mark.parametrize("residues, modulus, fragment", [
    ("1,x", "5", "--residues"), ("7", "5", "must lie in 1..4"), ("1,4", "0", "positive integer"),
    ("0", "5", "--residues 0 --modulus 5: residues must lie in 1..4"),
    ("1", "1", "--residues 1 --modulus 1: modulus must be at least 2"),
])
def test_qseries_custom_bad_product_exits_2(residues, modulus, fragment, capsys):
    # the product's flags are checked before the series head is printed
    assert run(["qseries", "custom", "--matrix", "[[2]]", "--N", "10",
                "--residues", residues, "--modulus", modulus]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err and fragment in err and "Traceback" not in err, (out, err)
    assert len(err.strip().splitlines()) == 1, err


def test_qseries_custom_zero_denominator_c_exits_2(capsys):
    _assert_bad_input(["qseries", "custom", "--matrix", "[[2]]", "--c", "1/0"], capsys,
                      "argument --c: '1/0' is not a fraction")


@pytest.mark.parametrize("half", [["--residues", "1,4"], ["--modulus", "5"]])
def test_qseries_custom_half_product_exits_2(half, capsys):
    # one of --residues/--modulus alone used to skip the product check silently
    _assert_bad_input(["qseries", "custom", "--matrix", "[[2]]", "--N", "10"] + half, capsys,
                      "--residues and --modulus")


@pytest.mark.parametrize("argv, fragment", [
    (["verify", "fiveterm", "--tol-scale", "abc"], "'abc' is not a number"),
    (["verify", "fiveterm", "--points", "x"], "'x' is not an integer"),
    (["qseries", "custom", "--matrix", "[[2]]", "--residues", "1,x", "--modulus", "5"],
     "'1,x' is not a comma-separated list of integers"),
    (["solve", "--pair", "A1,T1", "--precision-bits", "abc"], "'abc' is not an integer"),
    (["verify", "fiveterm", "--seed", "x"], "'x' is not an integer"),
])
def test_unparsable_values_name_no_private_function(argv, fragment, capsys):
    # argparse's own message for a failed type call names the function: "invalid _tol_scale value"
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "invalid _" not in err
    assert len(err.strip().splitlines()) == 1 and fragment in err, err


def test_solve_all_above_rank_cap_exits_2(capsys):
    _assert_bad_input(["solve", "--all", "--pair", "E8,A1"], capsys, "search cap 6")


@pytest.mark.parametrize("argv", [
    ["verify", "wedge", "--pair", "A1,T1", "--points", "0"],
    ["verify", "fiveterm", "--points", "-3"],
    ["verify", "periodicity", "--pair", "A1,T1", "--seeds", "0"],
    ["verify", "torsion", "--pair", "A1,T1", "--starts", "0"],
    ["report", "--pair", "A1,T1", "--points", "0"],
    ["solve", "--pair", "A1,T1", "--all", "--starts", "-1"],
    ["qseries", "rr", "--N", "0"],
])
def test_nonpositive_counts_exit_2(argv, capsys):
    _assert_bad_input(argv, capsys, "must be a positive integer")


@pytest.mark.parametrize("argv", [
    ["verify", "fiveterm", "--points", "3"],
    ["solve", "--all", "--pair", "A1,T1"],
    ["report", "--pair", "A1,T1", "--starts", "200", "--points", "1", "--seeds", "1"],
])
def test_negative_seed_exits_2(argv, capsys):
    # numpy's generators refuse a negative seed with a traceback
    _assert_bad_input(argv + ["--seed", "-1"], capsys, "must be a nonnegative integer, got -1")
