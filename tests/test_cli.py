import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kakeyalab.field import DomainError, Field
from kakeyalab import maximal as mx
from kakeyalab import constructions as cn
from kakeyalab import cli

import documents as docs


def small_config(qs=(3, 5), **kw):
    defaults = dict(fields=tuple(Field(q) for q in qs), suites=("census",),
                    seed=1, trials=2)
    defaults.update(kw)
    return cli.SuiteConfig(**defaults)


def resolved_config(monkeypatch, argv, suite="census"):
    """The SuiteConfig a verify command line hands to its suites."""
    seen = []
    monkeypatch.setitem(cli.SUITES, suite,
                        lambda cfg, fld: seen.append(cfg) or [])
    assert cli.main(["verify", *argv, "--suite", suite]) == 0
    cfg = seen[0]
    assert all(c is cfg for c in seen)  # one config, whole, for every field
    return cfg


def csv_rows(report):
    """The rows of a RunReport's CSV, as dicts of strings."""
    return list(csv.DictReader(io.StringIO(report.csv)))


def test_run_suite_census_ok():
    report = cli.run_suite(small_config())
    assert report.status == 0
    assert report.checks == report.held == len(csv_rows(report)) > 0
    assert all(r["holds"] == "true" for r in csv_rows(report))


def test_run_suite_unknown_suite():
    report = cli.run_suite(small_config(suites=("nope",)))
    assert report.status == 2


def test_violated_row_gives_exit_1(monkeypatch, capsys):
    def bad_suite(cfg, fld):
        return [cli.make_row("bad", "always-false", fld.q, 1, 2, 2, 2.0, 1.0,
                             False)]
    monkeypatch.setitem(cli.SUITES, "census", bad_suite)
    report = cli.run_suite(small_config())  # q = 3 and 5: one row each
    assert report.status == 1
    assert (report.checks, report.held) == (2, 0)
    assert "VIOLATED" in capsys.readouterr().err


def test_csv_format_and_determinism():
    cfg = small_config(suites=("ttstar", "planar-l2"), trials=3)
    csv1 = cli.run_suite(cfg).csv
    csv2 = cli.run_suite(cfg).csv
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == "suite,bound,q,n,u,v,lhs,rhs,ratio,holds,seed,trial"


def test_seed_changes_rows():
    cfg1 = small_config(suites=("rd-l2",), trials=3, seed=1)
    cfg2 = small_config(suites=("rd-l2",), trials=3, seed=2)
    assert cli.run_suite(cfg1).csv != cli.run_suite(cfg2).csv


def test_main_census_exit_zero(capsys):
    assert cli.main(["census", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "census-points,3" in out.replace(" ", "")


def test_census_covers_both_ranks():
    report = cli.run_suite(small_config(qs=(3,)))
    assert report.status == 0
    assert {r["n"] for r in csv_rows(report)} == {"1", "2"}


@pytest.mark.parametrize("argv", [
    ["census", "--q", "3", "--n", "0"],
    ["verify", "--q", "3", "--n", "2", "--suite", "diag"],
])
def test_rank_option_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_main_verify_writes_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = cli.main(["verify", "--suite", "ttstar", "--q", "3,5",
                     "--trials", "2", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("suite,bound,q,n,u,v,lhs,rhs,ratio,holds")
    assert "ttstar-two-eigenvalues" in text


def test_verify_summary_names_the_q_values_of_its_fields(monkeypatch, capsys):
    # the q values of the run's fields, each once (--big adds no q the list
    # names), whatever q the rows carry
    def suite(cfg, fld):
        return [cli.make_row("w", "ratio", q, 1, 2, 2, 1.0, 1.0, True)
                for q in (7, "")]
    monkeypatch.setitem(cli.SUITES, "census", suite)
    assert cli.main(["verify", "--q", "9,3,16", "--big",
                     "--suite", "census"]) == 0
    assert capsys.readouterr().out.splitlines()[0] \
        == "10/10 checks hold across q=[9, 3, 16, 25, 27]"


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "3,3", "--suite", "census"],
    ["verify", "--q", "5,3,5,16", "--big"],
    ["census", "--q", "3,5,3"],
    ["examples", "--q", "5,5"],
])
def test_repeated_q_exits_2_and_writes_nothing(monkeypatch, capsys, tmp_path,
                                               argv):
    # every suite would run twice on the repeated field
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, _refuse)
    out = tmp_path / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: q list {argv[2]!r} repeats q = "
        f"{argv[2].split(',')[0]}"]
    assert not out.exists()


def test_big_runs_each_field_once(monkeypatch):
    calls = []
    monkeypatch.setitem(cli.SUITES, "census",
                        lambda cfg, fld: calls.append(fld.q) or [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.main(["verify", "--q", "16", "--big", "--suite",
                     "census"]) == 0
    assert sorted(calls) == [16, 25, 27]


def test_main_examples(capsys):
    assert cli.main(["examples", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert "ex-refined-not-affine" in out


def test_main_unknown_suite_exit_2():
    assert cli.main(["verify", "--suite", "bogus", "--q", "3"]) == 2


def test_main_bad_q_exit_2():
    assert cli.main(["verify", "--q", "six"]) == 2
    assert cli.main(["verify", "--q", "6"]) == 2


def test_modulus_flag_requires_single_q():
    assert cli.main(["census", "--q", "9,25", "--modulus", "1,0,1"]) == 2
    assert cli.main(["census", "--q", "9", "--modulus", "1,0,1"]) == 0


def test_bad_modulus_exits_2_for_every_suite():
    for suite in ("census", "exponents"):
        assert cli.main(["verify", "--q", "9", "--modulus", "1,0,0",
                         "--suite", suite]) == 2
    assert cli.main(["verify", "--q", "9", "--modulus", "1,x",
                     "--suite", "exponents"]) == 2


# -- grid/point-set file IO -----------------------------------------------------


def test_grid_file_roundtrip(tmp_path):
    f5 = Field(5)
    F = mx.GridFunction.delta(mx.Domain.heisenberg(f5, 1))
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(docs.grid_to_json(F)))
    G = cli.load_grid(path)
    assert G.domain == F.domain
    assert np.array_equal(G.values,
                          F.values.astype(np.complex128))


def test_pointset_file_roundtrip(tmp_path):
    ps = cn.extremal_set("bush", Field(7))
    path = tmp_path / "bush.json"
    path.write_text(json.dumps(docs.pointset_to_json(ps)))
    assert docs.pointset_from_json(json.loads(path.read_text())) == ps


def test_maxop_command(tmp_path, capsys):
    f5 = Field(5)
    F = mx.GridFunction.delta(mx.Domain.heisenberg(f5, 1))
    src = tmp_path / "f.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps(docs.grid_to_json(F)))
    code = cli.main(["maxop", "--in", str(src), "--op", "refined",
                     "--out", str(dst)])
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["q"] == 5 and len(doc["values"]) == 30
    vals = np.array(doc["values"])
    assert vals.sum() == 6  # delta: 1 on the q+1 zero-slope classes


def test_maxop_empty_out_exits_2_and_prints_nothing(tmp_path, capsys):
    # an empty --out is an unwritable path, not standard output
    F = mx.GridFunction.delta(mx.Domain.heisenberg(Field(3), 1))
    src = tmp_path / "f.json"
    src.write_text(json.dumps(docs.grid_to_json(F)))
    assert cli.main(["maxop", "--in", str(src), "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err


@pytest.mark.parametrize("op,domain,want", [
    ("affine", mx.Domain.affine(Field(2), 3),
     [[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1], [0, 1, 0], [0, 1, 1],
      [0, 0, 1]]),
    ("heis", mx.Domain.heisenberg(Field(3), 1),
     [[1, 0], [1, 1], [1, 2], [0, 1]]),
    ("heis", mx.Domain.heisenberg(Field(2), 2),
     [[1, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0],
      [1, 1, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1], [0, 1, 0, 0], [0, 1, 0, 1],
      [0, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
    ("refined", mx.Domain.heisenberg(Field(3), 1),
     [[1, 0, 0], [1, 0, 1], [1, 0, 2], [1, 1, 0], [1, 1, 1], [1, 1, 2],
      [1, 2, 0], [1, 2, 1], [1, 2, 2], [0, 1, 0], [0, 1, 1], [0, 1, 2]]),
], ids=["affine-F2^3", "heis-H1", "heis-H2", "refined-H1"])
def test_maxop_directions_are_pinned(tmp_path, capsys, op, domain, want):
    # the directions list is part of the output's bytes: one plain list of
    # canonical representatives per operator, in enumeration order
    src = tmp_path / "f.json"
    src.write_text(json.dumps(docs.grid_to_json(mx.GridFunction.delta(domain))))
    assert cli.main(["maxop", "--in", str(src), "--op", op]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["directions"] == want
    assert len(doc["values"]) == len(want)


def test_examples_trial_labels_are_pinned():
    # the witness directions the examples rows print, as in the CSV bytes
    cfg = cli.SuiteConfig(fields=(Field(3), Field(5), Field(7)),
                          suites=("examples",))
    labels = [(r["bound"], r["q"], r["trial"]) for fld in cfg.fields
              for r in cli.suite_examples(cfg, fld) if r["trial"] != ""]
    assert labels == [("ex-affine-not-refined", 3, "[1:2:0]"),
                      ("ex-affine-not-refined", 5, "[1:3:0]"),
                      ("ex-refined-not-affine", 5, "[0:0:1]"),
                      ("ex-affine-not-refined", 7, "[1:4:0]"),
                      ("ex-refined-not-affine", 7, "[0:0:1]")]


def test_maxop_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": "heisenberg", "q": 5, "values": [[1, 0]]}')
    assert cli.main(["maxop", "--in", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["maxop", "--in", str(missing)]) == 2


def test_maxop_non_integer_q_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": "heisenberg", "q": "x", "values": [[1, 0]]}')
    assert cli.main(["maxop", "--in", str(bad)]) == 2


def test_maxop_rank_zero_grid_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": "heisenberg", "q": 5, "n": 0,
                               "values": [[1, 0]] * 5}))
    assert cli.main(["maxop", "--in", str(bad), "--op", "heis"]) == 2
    assert capsys.readouterr().out == ""


def test_maxop_one_element_value_pair_exits_2(tmp_path):
    doc = docs.grid_to_json(mx.GridFunction.delta(
        mx.Domain.heisenberg(Field(3), 1)))
    doc["values"][0] = [1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["maxop", "--in", str(bad)]) == 2


@pytest.mark.parametrize("text", [
    '{"domain": "heisenberg", "q": 1e400, "values": []}',
    '{"domain": "heisenberg", "q": 5, "n": 1e400, "values": []}',
    '{"domain": "heisenberg", "q": 9, "modulus": [1e400, 0, 1], "values": []}',
])
def test_maxop_overflowing_number_exits_2(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["maxop", "--in", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "1000003", "--suite", "census"],
    ["maxop", "--in", "huge.json"],
    ["maxop", "--in", "rank.json"],
    # a file that cannot be read or written: exit 2 and one line on stderr
    ["verify", "--q", "3", "--suite", "census", "--out", "no-dir/x.csv"],
    ["verify", "--q", "3,5,7", "--suite", "exponents", "--out",
     "no-dir/x.csv"],
    ["maxop", "--in", "grid.json", "--out", "no-dir/x.json"],
    ["verify", "--q", "3", "--suite", "fourier", "--trials", "1",
     "--dump-fourier", "no-dir/f.json"],
    ["maxop", "--in", "latin1.json"],
    ["maxop", "--in", "deep.json"],
])
def test_q_above_the_cap_exits_2_within_seconds(tmp_path, argv):
    (tmp_path / "huge.json").write_text(json.dumps(
        {"domain": "heisenberg", "q": 1000000000039, "values": []}))
    (tmp_path / "rank.json").write_text(json.dumps(
        {"domain": "heisenberg", "q": 2, "n": 100000000000, "values": []}))
    (tmp_path / "grid.json").write_text(json.dumps(docs.grid_to_json(
        mx.GridFunction.delta(mx.Domain.heisenberg(Field(3), 1)))))
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "deep.json").write_text("[" * 100000)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "kakeyalab.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def _refuse(*args, **kw):
    raise AssertionError("computed before the output file was opened")


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "3,5,7"],
    ["verify", "--q", "3", "--suite", "census,examples"],
    ["census", "--q", "3"],
    ["examples", "--q", "5"],
    ["verify", "--q", "3,5,7", "--suite", "exponents"],
])
def test_unwritable_out_exits_2_before_any_suite_runs(monkeypatch, capsys,
                                                      tmp_path, argv):
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, _refuse)
    out = tmp_path / "no-dir" / "x.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_status_2_run_leaves_no_file_at_out(monkeypatch, capsys, tmp_path):
    def late_error(cfg, fld):
        raise DomainError("raised after the output file was opened")
    monkeypatch.setitem(cli.SUITES, "examples", late_error)
    out = tmp_path / "x.csv"
    assert cli.main(["verify", "--q", "3", "--suite", "census,examples",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()
    # a violated bound (status 1) still writes every row
    monkeypatch.setitem(cli.SUITES, "examples",
                        lambda cfg, fld: [cli.make_row(
                            "examples", "always-false", 3, 1, "", "", 2.0,
                            1.0, False)])
    assert cli.main(["verify", "--q", "3", "--suite", "census,examples",
                     "--out", str(out)]) == 1
    assert out.read_text().splitlines()[-1].startswith(
        "examples,always-false")


def test_domain_error_after_violated_rows_exits_2_quietly(monkeypatch,
                                                          capsys, tmp_path):
    # the earlier suite's rows are already CSV text when the later one
    # raises: no row reaches stdout or --out, and stderr holds only the error
    monkeypatch.setitem(cli.SUITES, "census", lambda cfg, fld: [cli.make_row(
        "census", "always-false", 3, 1, "", "", 2.0, 1.0, False)])

    def late_error(cfg, fld):
        raise DomainError("raised after a suite returned rows")
    monkeypatch.setitem(cli.SUITES, "examples", late_error)
    out = tmp_path / "x.csv"
    for extra in ([], ["--out", str(out)]):
        assert cli.main(["verify", "--q", "3", "--suite", "census,examples",
                         *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("configuration error: raised after a suite "
                                "returned rows\n")
    assert not out.exists()


def test_violated_lines_keep_row_order(monkeypatch, capsys):
    def suite(name, verdicts):
        return lambda cfg, fld: [cli.make_row(name, f"b{i}", 3, 1, 2, 2, 1.0,
                                              1.0, holds, trial=i)
                                 for i, holds in enumerate(verdicts)]
    monkeypatch.setitem(cli.SUITES, "census",
                        suite("first", [False, True, False]))
    monkeypatch.setitem(cli.SUITES, "diag", suite("second", [True, False]))
    assert cli.main(["verify", "--q", "3", "--suite", "census,diag"]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]  # after the summary and the header
    assert captured.out.splitlines()[0] == "2/5 checks hold across q=[3]"
    assert captured.err.splitlines() == [
        "VIOLATED: " + r for r in rows if ",false," in r]
    assert [r.split(",")[:2] for r in rows if ",false," in r] == [
        ["first", "b0"], ["first", "b2"], ["second", "b1"]]


def test_violated_lines_are_the_failing_csv_lines(monkeypatch, capsys):
    # a census mismatch carries the record's repr, commas included, in its
    # bound, which the CSV quotes; tol 0 fails float rows of fourier too
    def mismatch(fld, n):
        raise AssertionError(f"Census(q={fld.q}, n={n}, points=27)")
    monkeypatch.setattr(cli.hz, "census", mismatch)
    set_cpus(monkeypatch, 1)  # every task runs here, where census is patched
    assert cli.main(["verify", "--q", "3", "--suite", "census,fourier",
                     "--trials", "1", "--tol", "0"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()[2:]  # after the summary and the header
    failing = [line for line in lines
               if next(csv.reader([line]))[9] == "false"]
    assert any('"census-mismatch:Census(q=3, n=1, points=27)"' in line
               for line in failing)
    assert any(line.startswith("fourier,") for line in failing)
    assert captured.err.splitlines() == ["VIOLATED: " + line
                                         for line in failing]


def test_a_suite_returns_the_rows_of_its_one_field():
    # suite_X(cfg, fld) is one task: its rows, seed stamped, are the rows
    # run_suite writes for that suite and field, in output order
    cfg = small_config(qs=(3, 5), suites=cli.ALL_SUITES, trials=1)
    written = cli.run_suite(cfg, keep=True).csv.splitlines(keepends=True)[1:]
    for name in cli.ALL_SUITES:
        for fld in cfg.fields:
            rows = cli.SUITES[name](cfg, fld)
            for r in rows:
                r["seed"] = cfg.seed
            assert rows and {r["q"] for r in rows} == {fld.q}
            text = cli.rows_to_csv(rows, header=False)
            assert "".join(written[:len(rows)]) == text, (name, fld.q)
            del written[:len(rows)]
    assert written == []


def test_verify_stdout_csv_equals_its_out_bytes(capsys, tmp_path):
    argv = ["verify", "--q", "3,4", "--trials", "2",
            "--suite", "census,ttstar,diag,exponents"]
    out = tmp_path / "x.csv"
    status = cli.main([*argv, "--out", str(out)])
    summary = capsys.readouterr().out
    assert cli.main(argv) == status
    printed = capsys.readouterr().out
    assert printed == summary + out.read_text()
    assert summary.count("\n") == 1


def _bound_rows_all_inputs_first(cfg, suite, fld, specs, trials):
    """_bound_rows as it was: every input of a q built before any check."""
    dom_h = mx.Domain.heisenberg(fld, 1)
    dom_a = mx.Domain.affine(fld, 2)
    inputs = {"heis": [], "refined": [], "affine": []}
    for tag, F in cli._structured_h1(fld):
        inputs["heis"].append((tag, F))
        inputs["refined"].append((tag, F))
    inputs["affine"].append(("plane-ones", mx.GridFunction.constant(dom_a)))
    inputs["affine"].append(("plane-delta", mx.GridFunction.delta(dom_a)))
    for trial in range(trials):
        rng = cli._rng(cfg, suite, fld.q, trial)
        inputs["heis"].append((trial, mx.random_complex_grid(dom_h, rng)))
        inputs["refined"].append((trial, mx.random_complex_grid(dom_h, rng)))
        inputs["affine"].append((trial, mx.random_complex_grid(dom_a, rng)))
    rows = []
    for spec in specs:
        for tag, F in inputs[spec.operator]:
            rep = mx.verify_bound(spec, F, tol=cfg.tol)
            rows.append(cli.report_row(suite, rep, trial=tag))
    return rows


@pytest.mark.parametrize("suite", ["diag", "offdiag"])
@pytest.mark.parametrize("q", [3, 5])
def test_bound_rows_keep_one_trials_inputs_alive(monkeypatch, suite, q):
    fld = Field(q)
    cfg = small_config(qs=(q,), suites=(suite,), trials=3)
    specs = ([s for s in mx.bound_catalog(q) if s.name != "rd-l2-sharp"]
             if suite == "diag" else mx.offdiag_catalog())
    want = _bound_rows_all_inputs_first(cfg, suite, fld, specs, 3)
    drawn = []
    alive_at_draw = []
    draw = mx.random_complex_grid

    def tracked(domain, rng):
        F = draw(domain, rng)
        drawn.append(weakref.ref(F.values))
        alive_at_draw.append(sum(r() is not None for r in drawn))
        return F

    monkeypatch.setattr(mx, "random_complex_grid", tracked)
    got = cli.SUITES[suite](cfg, fld)
    # a trial draws a grid only for an operator that some spec reads:
    # diag reads all three, offdiag only heis, which is drawn first
    operators = {s.operator for s in specs}
    assert len(operators) == (3 if suite == "diag" else 1)
    assert len(drawn) == 3 * len(operators)
    assert max(alive_at_draw) <= len(operators)
    assert got == want


class _Row(dict):
    """A row dict that a weak reference can follow."""


def test_one_suites_rows_are_alive_at_a_time(monkeypatch):
    refs = []

    def suite(name):
        def run(cfg, fld):
            assert [r for r in refs if r() is not None] == []
            rows = [_Row(cli.make_row(name, "b", 3, 1, 2, 2, 1.0, 1.0, True))
                    for _ in range(3)]
            refs.extend(weakref.ref(r) for r in rows)
            return rows
        return run

    for name in ("census", "diag", "fourier"):
        monkeypatch.setitem(cli.SUITES, name, suite(name))
    # q = 3 and 5: each suite runs once per field
    report = cli.run_suite(small_config(suites=("census", "diag", "fourier")))
    assert report.status == 0 and report.checks == 18 and len(refs) == 18
    assert [r for r in refs if r() is not None] == []


def test_one_tasks_rows_are_alive_at_a_time(monkeypatch):
    # real suites on one CPU: a task is one suite on one field, handed out
    # in output order, and its rows die before the next task starts
    refs = []
    make_row = cli.make_row

    def weak_row(*args, **kw):
        row = _Row(make_row(*args, **kw))
        refs.append(weakref.ref(row))
        return row
    monkeypatch.setattr(cli, "make_row", weak_row)
    started = []
    task_digest = cli._task_digest

    def checked(cfg, name, i):
        assert [r for r in refs if r() is not None] == []
        started.append((name, i))
        return task_digest(cfg, name, i)
    monkeypatch.setattr(cli, "_task_digest", checked)
    set_cpus(monkeypatch, 1)
    report = cli.run_suite(small_config(
        qs=(3, 5), suites=("census", "diag", "fourier"), trials=1))
    assert report.status == 0 and report.checks == len(refs) > 0
    assert started == [(name, i) for name in ("census", "diag", "fourier")
                       for i in (0, 1)]
    assert [r for r in refs if r() is not None] == []


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "1000003", "--suite", "census"],
    ["verify", "--q", "9", "--modulus", "1,0,0", "--suite", "ttstar,census"],
    ["verify", "--q", "3", "--suite", "census,nope"],
    ["verify", "--q", "6", "--suite", "exponents"],
    ["verify", "--q", "1000003", "--suite", "exponents"],
    ["verify", "--q", "3,5,6", "--suite", "census,exponents"],
    ["census", "--q", "6"],
    ["examples", "--q", "6"],
    # a negative seed, and a tolerance that fails true bounds (-1), passes
    # any bound (inf) or makes every comparison false (nan)
    ["verify", "--q", "3", "--seed", "-1"],
    ["verify", "--q", "3", "--suite", "diag", "--trials", "1", "--tol", "nan"],
    ["verify", "--q", "3", "--suite", "diag", "--tol", "-1"],
    ["verify", "--q", "3", "--suite", "diag", "--tol", "inf"],
    # an empty value is not an absent one
    ["verify", "--q", ""],
    ["verify", "--q", "3", "--suite", ""],
    ["verify", "--q", "9", "--modulus", ""],
    ["census", "--q", ""],
    ["verify", "--q", "3", "--suite", "census", "--out", ""],
    ["verify", "--q", "3", "--suite", "fourier", "--trials", "1",
     "--dump-fourier", ""],
    ["census", "--q", "3", "--out", ""],
])
def test_verify_config_error_writes_nothing_to_stdout(capsys, argv):
    # a bad config must not read like an empty passing run on stdout, under
    # census and examples as under verify
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err


@pytest.mark.parametrize("doc", [
    {"domain": "heisenberg", "q": 3.9, "n": "1", "values": []},
    {"domain": "heisenberg", "q": 3.0, "values": []},
    {"domain": "heisenberg", "q": 3, "n": True, "values": []},
    {"domain": "affine", "q": 3, "d": 2.0, "values": []},
    {"domain": "heisenberg", "q": 9, "modulus": [1, 0.5, 1], "values": []},
    {"domain": "heisenberg", "q": 5, "points": [2.7, True]},
    {"domain": "heisenberg", "q": 5, "points": [True]},
])
def test_json_numbers_must_be_integers(tmp_path, doc):
    # int() would read q = 3.9 as 3 and the points [2.7, true] as [2, 1]
    parse = docs.pointset_from_json if "points" in doc else mx.grid_from_json
    with pytest.raises(DomainError, match="must be an integer"):
        parse(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["maxop", "--in", str(path)]) == 2


# -- parser fuzz ------------------------------------------------------------------
#
# q, n and d may be any integers: the field refuses q > 32 and the domain
# refuses more than 32^5 points before either allocates, so no generated
# document names a domain too large to allocate; out-of-range floats come
# in as inf and nan.

_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, "1e400", "7"])
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                  st.floats(-2.5, 2.5), st.text(max_size=4), _SPECIAL)
_JSON = st.recursive(_LEAF, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=4),
                     max_leaves=12)


def _num(lo, hi):
    return st.integers(lo, hi) | st.floats(lo, hi + 0.9) | _SPECIAL


_PAIR = st.lists(_num(-2, 2) | _LEAF, max_size=3)
_DOCS = st.one_of(_JSON, st.fixed_dictionaries({
    "domain": st.sampled_from(["heisenberg", "affine"]) | _JSON,
    "q": st.integers() | _num(-2, 17) | _JSON,
}, optional={
    "n": st.integers() | _num(-2, 2) | _JSON,
    "d": st.integers() | _num(-2, 2) | _JSON,
    "modulus": st.lists(_num(-2, 4) | _LEAF, max_size=4) | _JSON,
    "values": st.lists(_PAIR, max_size=12) | _JSON,
    "points": st.lists(_num(-2, 30) | _LEAF, max_size=6) | _JSON,
}))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_DOCS, op=st.sampled_from(["affine", "heis", "refined"]))
def test_maxop_exits_0_or_2_on_any_document(tmp_path_factory, doc, op):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["maxop", "--in", str(path), "--op", op,
                     "--out", str(path.with_suffix(".out"))]) in (0, 2)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_DOCS)
def test_pointset_from_json_raises_only_domain_errors(doc):
    try:
        docs.pointset_from_json(json.loads(json.dumps(doc)))
    except DomainError:
        pass


def test_modulus_with_big_applies_to_the_given_q_only(monkeypatch):
    argv = ["--q", "9", "--modulus", "2,1,1", "--big"]
    assert cli.main(["verify", *argv, "--suite", "census"]) == 0
    cfg = resolved_config(monkeypatch, argv)
    assert [f.q for f in cfg.fields] == [9, 16, 25, 27]
    assert cfg.fields[0].modulus == (2, 1, 1)
    assert cfg.fields[1].modulus == Field(16).modulus


def test_exponents_rows_are_the_same_under_another_modulus(capsys):
    # F_9 built from another irreducible modulus has the same closed-form
    # operator-value histograms, so the same rows, byte for byte
    assert Field(9).modulus != (2, 1, 1)
    printed = []
    for extra in ([], ["--modulus", "2,1,1"]):
        assert cli.main(["verify", "--q", "9", *extra,
                         "--suite", "exponents"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert ",heis2-bush-exponent,9,2," in printed[0]


@pytest.mark.parametrize("suites,qs", [
    ("census,diag", [3, 5, 7]),
    ("census,exponents", [3, 5, 7]),
])
def test_each_field_is_built_once_per_run(monkeypatch, suites, qs):
    built = []
    init = Field.__init__

    def counting_init(self, q, *args, **kw):
        built.append(q)
        init(self, q, *args, **kw)

    monkeypatch.setattr(Field, "__init__", counting_init)
    # one CPU: every suite runs in this process, where the count is taken
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli.main(["verify", "--q", "3,5,7", "--trials", "1",
                     "--suite", suites]) == 0
    assert sorted(built) == qs


def test_dump_fourier(tmp_path):
    dump = tmp_path / "fourier.json"
    code = cli.main(["verify", "--suite", "fourier", "--q", "3",
                     "--trials", "2", "--dump-fourier", str(dump)])
    assert code == 0
    doc = json.loads(dump.read_text())
    assert doc["q"] == 3
    assert set(doc["u_tables"]) == {"1", "2"}


def test_dump_fourier_is_written_once_with_the_last_field(monkeypatch,
                                                          tmp_path):
    written = []
    dump_fourier = cli._dump_fourier

    def counting(path, f):
        written.append(f.field.q)
        dump_fourier(path, f)
    monkeypatch.setattr(cli, "_dump_fourier", counting)
    dump = tmp_path / "fourier.json"
    assert cli.main(["verify", "--suite", "fourier", "--q", "3,5",
                     "--trials", "1", "--dump-fourier", str(dump)]) == 0
    assert written == [5]
    assert json.loads(dump.read_text())["q"] == 5

    # with helpers: census waits here until each has taken a task, so one
    # of them takes fourier at q = 7, the first task handed out to them, and
    # writes the dump there; helpers leave a file under dumps per write
    argv = ["verify", "--suite", "census,fourier,ttstar,moments",
            "--q", "3,5,7", "--trials", "1", "--dump-fourier", str(dump)]
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        written.clear()
        assert run_main(argv) == 0
    assert written == [7]
    want = dump.read_bytes()
    for cpus in (2, 4):
        dump.unlink()
        written.clear()
        marks, dumps = tmp_path / f"marks-{cpus}", tmp_path / f"dumps-{cpus}"
        marks.mkdir()
        dumps.mkdir()
        extra = ("import tempfile\n"
                 "dump = cli._dump_fourier\n"
                 "def counting(path, f):\n"
                 "    os.close(tempfile.mkstemp(prefix=f'{f.field.q}-', "
                 f"dir={str(dumps)!r})[0])\n"
                 "    dump(path, f)\n"
                 "cli._dump_fourier = counting\n")
        with monkeypatch.context() as m:
            set_cpus(m, cpus)
            mark_in_helpers(m, marks, extra=extra)
            census_after_marks(m, marks, cpus - 1)
            assert run_main(argv) == 0
        assert_no_child_left()
        assert written == []
        assert [p.name.split("-")[0] for p in dumps.iterdir()] == ["7"]
        assert dump.read_bytes() == want


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "3", "--trials", "1", "--suite", "census,diag"],
    ["census", "--q", "3"],
])
def test_closed_stdout_keeps_the_status_of_the_rows(argv):
    # the reader is gone before the first write, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "kakeyalab.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "BrokenPipe" not in proc.stderr


_PROBE = """
import json, os, sys
from kakeyalab import cli
# one CPU: every suite runs in this process, whose modules are probed
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
status = cli.main(sys.argv[1:])
defined = sorted(f"{name}.{cls}" for name, mod in sys.modules.items()
                 if name.split(".")[0] == "kakeyalab"
                 for cls in ("HPoint", "HorizontalLine", "AffineLine",
                             "ProjectiveDirection", "RefinedDirection",
                             "canonical_direction")
                 if cls in vars(mod))
with open("probe.json", "w") as fh:
    json.dump({"oracle": "oracle" in sys.modules, "defined": defined}, fh)
sys.exit(status)
"""


def test_production_builds_no_line_objects(tmp_path):
    # the point, line and direction objects are the tests' oracle: a run of
    # every suite, census and examples included, neither loads it nor finds
    # them in the package
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, "verify", "--q", "3",
                           "--trials", "1", "--out", "run.csv"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads((tmp_path / "probe.json").read_text())
    assert probe == {"oracle": False, "defined": []}
    suites = {row.split(",")[0] for row in
              (tmp_path / "run.csv").read_text().splitlines()[1:]}
    assert suites == set(cli.ALL_SUITES)


# ---------------------------------------------------------------------------
# the suite pool: helper interpreters, CPU affinity, every exit path

POOL_ARGV = ["verify", "--q", "3,5", "--trials", "1", "--seed", "2",
             "--suite", "census,diag,offdiag,rd-l2,fourier,examples"]


def run_main(argv, timeout=120):
    """cli.main(argv) on a daemon thread joined with a timeout; returns its
    status, or raises what it raised."""
    outcome = []

    def target():
        try:
            outcome.append((True, cli.main(argv)))
        except BaseException as exc:  # handed to the test's thread below
            outcome.append((False, exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{argv} still running after {timeout} s"
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def assert_no_child_left():
    # every helper was reaped: this process has no child, live or zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, cpus):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))


def mark_in_helpers(monkeypatch, marks, then="return run(cfg, fld)",
                    suites=None, extra=""):
    """Helpers wrap their own SUITES entries, those named or all, so that a
    task first leaves a file named after its suite and q under marks
    ("diag-5"), then runs the statement then (run is the entry it wraps).
    The code extra runs in each helper before it serves."""
    code = ("import os, time\nfrom kakeyalab import cli\n"
            "def wrap(name, run):\n"
            "    def suite(cfg, fld):\n"
            "        mark = f'{name}-{fld.q}'\n"
            f"        open(os.path.join({str(marks)!r}, mark), 'w').close()\n"
            f"        {then}\n"
            "    return suite\n"
            "for name, run in list(cli.SUITES.items()):\n"
            f"    if {suites!r} is None or name in {suites!r}:\n"
            "        cli.SUITES[name] = wrap(name, run)\n"
            f"{extra}"
            "cli._serve()")
    monkeypatch.setattr(cli, "_HELPER", code)


def wait_for_marks(marks, count, timeout=60):
    deadline = time.monotonic() + timeout
    while len(list(marks.iterdir())) < count:
        assert time.monotonic() < deadline, f"{count} marks never appeared"
        time.sleep(0.01)


def census_after_marks(monkeypatch, marks, count):
    """census runs here once count helpers have each taken a task."""
    census = cli.SUITES["census"]

    def waiting(cfg, fld):
        wait_for_marks(marks, count)
        return census(cfg, fld)
    monkeypatch.setitem(cli.SUITES, "census", waiting)


def run_outputs(capsys, tmp_path, argv, tag):
    """(status, stdout, stderr, --out bytes, --dump-fourier bytes)."""
    out, dump = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
    status = run_main([*argv, "--out", str(out), "--dump-fourier", str(dump)])
    captured = capsys.readouterr()
    assert_no_child_left()
    return (status, captured.out, captured.err,
            out.read_bytes() if out.exists() else None,
            dump.read_bytes() if dump.exists() else None)


@pytest.mark.parametrize("tol,status", [("1e-9", 0), ("0", 1)])
@pytest.mark.parametrize("cpus", [1, None, 4])
def test_pool_output_is_byte_identical_on_any_cpu_count(
        monkeypatch, capsys, tmp_path, cpus, tol, status):
    # tol 0 fails float rows of diag and fourier: status 1 and VIOLATED
    # lines from suites that helpers run.  None is this machine's CPU set;
    # 4 CPUs start 3 helpers whatever the machine has.  census runs here
    # and waits until every helper has taken a suite of its own.
    argv = [*POOL_ARGV, "--tol", tol]
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        want = run_outputs(capsys, tmp_path, argv, "serial")
    assert want[0] == status and want[3] and want[4]
    assert (want[2] == "") == (status == 0)
    marks = tmp_path / "marks"
    marks.mkdir()
    set_cpus(monkeypatch, cpus)
    helpers = min(cli._cpus() - 1, 5)
    mark_in_helpers(monkeypatch, marks)
    census_after_marks(monkeypatch, marks, helpers)
    assert run_outputs(capsys, tmp_path, argv, "pool") == want
    assert len(list(marks.iterdir())) >= helpers


def test_domain_error_in_this_process_stops_a_helper_holding_a_suite(
        monkeypatch, capsys, tmp_path):
    marks = tmp_path / "marks"
    marks.mkdir()
    mark_in_helpers(monkeypatch, marks, then="time.sleep(600)")

    def late_error(cfg, fld):
        wait_for_marks(marks, 1)  # a helper now holds diag
        raise DomainError("raised while a helper holds a suite")
    monkeypatch.setitem(cli.SUITES, "census", late_error)
    set_cpus(monkeypatch, 2)
    out = tmp_path / "x.csv"
    start = time.monotonic()
    assert run_main(["verify", "--q", "3", "--suite", "census,diag",
                     "--out", str(out)]) == 2
    assert time.monotonic() - start < 60  # the helper was not waited for
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: raised while a helper "
                            "holds a suite\n")
    assert not out.exists()
    assert_no_child_left()


def test_first_failing_field_in_output_order_is_reported(monkeypatch,
                                                           capsys, tmp_path):
    # census fails at q = 3 and at q = 5, with different errors.  q = 5 is
    # handed out first, to this process, which raises once the helper has
    # taken q = 3; the run reports q = 3, the first field in output order,
    # as a serial run does
    marks = tmp_path / "marks"
    marks.mkdir()

    def failing(wait):
        def census(fld, n):
            if wait:
                wait_for_marks(marks, 1)
            raise DomainError(f"census fails at q={fld.q}")
        return census
    argv = ["verify", "--q", "3,5", "--trials", "1",
            "--suite", "census,ttstar"]
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        m.setattr(cli.hz, "census", failing(False))
        want = run_outputs(capsys, tmp_path, argv, "serial")
    assert want == (2, "", "configuration error: census fails at q=3\n",
                    None, None)
    mark_in_helpers(monkeypatch, marks, suites=["census"], then=(
        "raise cli.DomainError(f'census fails at q={fld.q}')"))
    monkeypatch.setattr(cli.hz, "census", failing(True))
    set_cpus(monkeypatch, 2)
    assert run_outputs(capsys, tmp_path, argv, "pool") == want
    assert [p.name for p in marks.iterdir()] == ["census-3"]


def test_suite_of_a_helper_that_dies_runs_in_this_process(monkeypatch,
                                                          capsys, tmp_path):
    argv = ["verify", "--q", "3,5", "--trials", "1",
            "--suite", "census,diag,offdiag"]
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        want = run_outputs(capsys, tmp_path, argv, "serial")
    marks = tmp_path / "marks"
    marks.mkdir()
    # the helper exits without a result on the first suite it takes
    mark_in_helpers(monkeypatch, marks, then="os._exit(0)")
    census_after_marks(monkeypatch, marks, 1)
    set_cpus(monkeypatch, 2)
    assert run_outputs(capsys, tmp_path, argv, "died") == want
    assert [p.name for p in marks.iterdir()] == ["diag-5"]


def test_replaced_suite_runs_in_this_process_once_per_field(monkeypatch,
                                                             capsys, tmp_path):
    calls = []

    def recording(cfg, fld):
        calls.append((os.getpid(), cfg, fld))
        return [cli.make_row("diag", "replaced", fld.q, 1, "", "", 1.0, 1.0,
                             True)]
    monkeypatch.setitem(cli.SUITES, "diag", recording)
    set_cpus(monkeypatch, 4)
    out = tmp_path / "x.csv"
    assert run_main(["verify", "--q", "3,5", "--trials", "1", "--suite",
                     "census,diag,offdiag", "--out", str(out)]) == 0
    # one task per field, like a suite of cli.py, each given the run's
    # whole config; a helper would import cli.py afresh and lose the double
    assert sorted(fld.q for _, _, fld in calls) == [3, 5]
    for pid, cfg, fld in calls:
        assert pid == os.getpid()
        assert cfg.suites == ("census", "diag", "offdiag")
        assert cfg.out == str(out) and cfg.trials == 1
        assert [f.q for f in cfg.fields] == [3, 5]
        assert any(f is fld for f in cfg.fields)
    assert [r.split(",")[2] for r in out.read_text().splitlines()
            if ",replaced," in r] == ["3", "5"]
    assert_no_child_left()


@pytest.mark.parametrize("exc", [RuntimeError("a bug"), KeyboardInterrupt()])
def test_no_helper_outlives_an_exception(monkeypatch, tmp_path, exc):
    # a bug, or Ctrl-C, in a suite this process runs while a helper holds
    # another: the exception leaves cli.main and every helper is reaped
    marks = tmp_path / "marks"
    marks.mkdir()
    mark_in_helpers(monkeypatch, marks, then="time.sleep(600)")

    def interrupted(cfg, fld):
        wait_for_marks(marks, 1)
        raise exc
    monkeypatch.setitem(cli.SUITES, "census", interrupted)
    set_cpus(monkeypatch, 2)
    with pytest.raises(type(exc)):
        run_main(["verify", "--q", "3", "--suite", "census,diag"])
    assert_no_child_left()


# ---------------------------------------------------------------------------
# --out is written as tasks finish, in output order


def test_out_holds_every_earlier_tasks_rows_when_a_task_starts(monkeypatch,
                                                               tmp_path):
    # one CPU and one field: tasks start in output order
    out = tmp_path / "x.csv"
    seen = []

    def suite(name):
        def run(cfg, fld):
            seen.append(out.read_text())
            return [cli.make_row(name, f"b{i}", 3, 1, 2, 2, 1.0, 1.0, True)
                    for i in range(2)]
        return run
    names = ("census", "diag", "fourier")
    for name in names:
        monkeypatch.setitem(cli.SUITES, name, suite(name))
    set_cpus(monkeypatch, 1)
    assert cli.main(["verify", "--q", "3", "--suite", ",".join(names),
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert len(lines) == 7
    assert seen == ["".join(lines[:1 + 2 * k]) for k in range(3)]


def test_one_cpu_hands_tasks_out_in_output_order(monkeypatch, tmp_path):
    # alone, this process takes the (suite, field) tasks in output order:
    # the run's field order within each suite, not largest q first
    calls = []

    def recording(name):
        def run(cfg, fld):
            calls.append((name, fld.q))
            return [cli.make_row(name, "b", fld.q, 1, 2, 2, 1.0, 1.0, True)]
        return run
    names = ("census", "diag")
    for name in names:
        monkeypatch.setitem(cli.SUITES, name, recording(name))
    set_cpus(monkeypatch, 1)
    assert cli.main(["verify", "--q", "5,3,7", "--suite", ",".join(names),
                     "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == [(name, q) for name in names for q in (5, 3, 7)]


def test_a_finished_task_waits_only_for_earlier_ones(monkeypatch, tmp_path):
    # real suites on one CPU, handed out in output order: no finished task
    # waits in memory, so every earlier task's rows are in the file when a
    # task starts
    out = tmp_path / "x.csv"
    started = []
    task_digest = cli._task_digest

    def reading(cfg, name, i):
        started.append((name, cfg.fields[i].q, out.read_text()))
        return task_digest(cfg, name, i)
    monkeypatch.setattr(cli, "_task_digest", reading)
    set_cpus(monkeypatch, 1)
    assert cli.main(["verify", "--q", "3,5", "--trials", "1",
                     "--suite", "census,ttstar", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    want, written = [], lines[0]
    for name in ("census", "ttstar"):
        for q in (3, 5):
            want.append((name, q, written))
            task = [r for r in lines[1:]
                    if r.split(",")[0] == name and r.split(",")[2] == str(q)]
            assert task
            written += "".join(task)
    assert written == "".join(lines)
    assert started == want


@pytest.mark.parametrize("cpus", [1, 2])
def test_out_on_a_full_device_exits_2(monkeypatch, capsys, cpus):
    set_cpus(monkeypatch, cpus)
    assert run_main(["verify", "--q", "3,5", "--suite", "census,diag",
                     "--trials", "1", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert_no_child_left()


_FULL_AFTER_HEADER = """
import os, resource, sys
from kakeyalab import cli
# the header fits, the first task's rows do not: the write fails mid-run,
# with a helper started (two CPUs whatever the machine has)
resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))
os.sched_getaffinity = lambda pid: {0, 1}
status = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    sys.exit("a helper was left")
except ChildProcessError:
    sys.exit(status)
"""


def test_out_that_fills_after_the_header_exits_2_and_is_removed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FULL_AFTER_HEADER,
                           "verify", "--q", "3,5", "--suite", "census,diag",
                           "--trials", "1", "--out", "x.csv"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: [Errno 27] File too large\n"
    assert not (tmp_path / "x.csv").exists()
