import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kakeyalab.field import DomainError, Field
from kakeyalab import maximal as mx
from kakeyalab import constructions as cn
from kakeyalab import cli


def small_config(qs=(3, 5), **kw):
    defaults = dict(fields=tuple(Field(q) for q in qs), suites=("census",),
                    seed=1, trials=2)
    defaults.update(kw)
    return cli.SuiteConfig(**defaults)


def resolved_config(monkeypatch, argv, suite="census"):
    """The SuiteConfig a verify command line hands to its suites."""
    seen = []
    monkeypatch.setitem(cli.SUITES, suite, lambda cfg: seen.append(cfg) or [])
    assert cli.main(["verify", *argv, "--suite", suite]) == 0
    (cfg,) = seen
    return cfg


def test_run_suite_census_ok():
    rows, status = cli.run_suite(small_config())
    assert status == 0
    assert rows and all(r["holds"] for r in rows)


def test_run_suite_unknown_suite():
    rows, status = cli.run_suite(small_config(suites=("nope",)))
    assert status == 2


def test_violated_row_gives_exit_1(monkeypatch, capsys):
    def bad_suite(cfg):
        return [cli.make_row("bad", "always-false", 3, 1, 2, 2, 2.0, 1.0,
                             False)]
    monkeypatch.setitem(cli.SUITES, "census", bad_suite)
    rows, status = cli.run_suite(small_config())
    assert status == 1
    assert "VIOLATED" in capsys.readouterr().err


def test_csv_format_and_determinism():
    cfg = small_config(suites=("ttstar", "planar-l2"), trials=3)
    rows1, _ = cli.run_suite(cfg)
    rows2, _ = cli.run_suite(cfg)
    csv1 = cli.rows_to_csv(rows1)
    csv2 = cli.rows_to_csv(rows2)
    assert csv1 == csv2
    header = csv1.splitlines()[0]
    assert header == "suite,bound,q,n,u,v,lhs,rhs,ratio,holds,seed,trial"


def test_seed_changes_rows():
    cfg1 = small_config(suites=("rd-l2",), trials=3, seed=1)
    cfg2 = small_config(suites=("rd-l2",), trials=3, seed=2)
    csv1 = cli.rows_to_csv(cli.run_suite(cfg1)[0])
    csv2 = cli.rows_to_csv(cli.run_suite(cfg2)[0])
    assert csv1 != csv2


def test_main_census_exit_zero(capsys):
    assert cli.main(["census", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "census-points,3" in out.replace(" ", "")


def test_census_covers_both_ranks():
    rows, status = cli.run_suite(small_config(qs=(3,)))
    assert status == 0
    assert {r["n"] for r in rows} == {1, 2}


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


def test_verify_summary_names_the_q_values_of_its_rows(monkeypatch, capsys):
    # a suite may cover other q than --q, as exponents does with its window
    def window_suite(cfg):
        return [cli.make_row("w", "ratio", q, 1, 2, 2, 1.0, 1.0, True)
                for q in (7, 3, 7)] + [
            cli.make_row("w", "slope", "", 1, 2, 2, 1.0, 1.0, True)]
    monkeypatch.setitem(cli.SUITES, "census", window_suite)
    assert cli.main(["verify", "--q", "9", "--suite", "census"]) == 0
    assert capsys.readouterr().out.splitlines()[0] \
        == "4/4 checks hold across q=[7, 3]"


def test_main_examples(capsys):
    assert cli.main(["examples", "--q", "5"]) == 0
    out = capsys.readouterr().out
    assert "ex-refined-not-affine" in out


def test_main_unknown_suite_exit_2():
    assert cli.main(["verify", "--suite", "bogus", "--q", "3"]) == 2


def test_main_bad_q_exit_2():
    assert cli.main(["verify", "--q", "six"]) == 2
    assert cli.main(["verify", "--q", "6"]) == 2


def test_sweep_needs_three_qs():
    assert cli.main(["sweep", "--q", "3,5"]) == 2
    # --big does not count towards the sweep's q values
    assert cli.main(["sweep", "--q", "3,5", "--big"]) == 2


def test_sweep_default_passes(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "rd-constant-slope" in text and "heis2-bush-slope" in text


def test_modulus_flag_requires_single_q():
    assert cli.main(["census", "--q", "9,25", "--modulus", "1,0,1"]) == 2
    assert cli.main(["census", "--q", "9", "--modulus", "1,0,1"]) == 0


def test_bad_modulus_exits_2_for_every_suite():
    # exponents sweeps its own q window, yet must still reject the flag
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
    path.write_text(json.dumps(mx.grid_to_json(F)))
    G = cli.load_grid(path)
    assert G.domain == F.domain
    assert np.array_equal(G.values,
                          F.values.astype(np.complex128))


def test_pointset_file_roundtrip(tmp_path):
    ps = cn.extremal_set("bush", Field(7))
    path = tmp_path / "bush.json"
    path.write_text(json.dumps(cn.pointset_to_json(ps)))
    assert cn.pointset_from_json(json.loads(path.read_text())) == ps


def test_maxop_command(tmp_path, capsys):
    f5 = Field(5)
    F = mx.GridFunction.delta(mx.Domain.heisenberg(f5, 1))
    src = tmp_path / "f.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps(mx.grid_to_json(F)))
    code = cli.main(["maxop", "--in", str(src), "--op", "refined",
                     "--out", str(dst)])
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["q"] == 5 and len(doc["values"]) == 30
    vals = np.array(doc["values"])
    assert vals.sum() == 6  # delta: 1 on the q+1 zero-slope classes


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
    doc = mx.grid_to_json(mx.GridFunction.delta(
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
    ["sweep", "--q", "3,5,7", "--out", "no-dir/x.csv"],
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
    (tmp_path / "grid.json").write_text(json.dumps(mx.grid_to_json(
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
    parse = cn.pointset_from_json if "points" in doc else mx.grid_from_json
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
        cn.pointset_from_json(json.loads(json.dumps(doc)))
    except DomainError:
        pass


def test_modulus_with_big_applies_to_the_given_q_only(monkeypatch):
    argv = ["--q", "9", "--modulus", "2,1,1", "--big"]
    assert cli.main(["verify", *argv, "--suite", "census"]) == 0
    cfg = resolved_config(monkeypatch, argv)
    assert [f.q for f in cfg.fields] == [9, 16, 25, 27]
    assert cfg.fields[0].modulus == (2, 1, 1)
    assert cfg.fields[1].modulus == Field(16).modulus


@pytest.mark.parametrize("argv,n1", [
    ([], cli.SWEEP_QS),
    (["--q", "3,5"], cli.SWEEP_QS),
    (["--q", "9", "--modulus", "2,1,1"], cli.SWEEP_QS),
    (["--q", "3,5,7", "--big"], (3, 5, 7)),
])
def test_exponents_window_is_resolved_with_the_fields(monkeypatch, argv, n1):
    cfg = resolved_config(monkeypatch, argv, suite="exponents")
    assert [f.q for f in cfg.window[1]] == list(n1)
    assert [f.q for f in cfg.window[2]] == list(cli.N2_SWEEP_QS)
    # the window always uses the built-in fields, shared with the run's
    builtin = [f for f in cfg.fields if f.modulus == Field(f.q).modulus]
    for f in cfg.window[1] + cfg.window[2]:
        assert f.modulus == Field(f.q).modulus
        assert all(g is f for g in builtin if g.q == f.q)


@pytest.mark.parametrize("suites,qs", [
    ("census,diag", [3, 5, 7]),
    ("census,exponents", [3, 5, 7, 9]),  # the rank-2 window adds q = 9
])
def test_each_field_is_built_once_per_run(monkeypatch, suites, qs):
    built = []
    init = Field.__init__

    def counting_init(self, q, *args, **kw):
        built.append(q)
        init(self, q, *args, **kw)

    monkeypatch.setattr(Field, "__init__", counting_init)
    # a three-q window may miss a slope by more than 0.1: exit 1, not 2
    assert cli.main(["verify", "--q", "3,5,7", "--trials", "1",
                     "--suite", suites]) in (0, 1)
    assert sorted(built) == qs


def test_dump_fourier(tmp_path):
    dump = tmp_path / "fourier.json"
    code = cli.main(["verify", "--suite", "fourier", "--q", "3",
                     "--trials", "2", "--dump-fourier", str(dump)])
    assert code == 0
    doc = json.loads(dump.read_text())
    assert doc["q"] == 3
    assert set(doc["u_tables"]) == {"1", "2"}


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
import json, sys
from kakeyalab import cli
status = cli.main(sys.argv[1:])
defined = sorted(f"{name}.{cls}" for name, mod in sys.modules.items()
                 if name.split(".")[0] == "kakeyalab"
                 for cls in ("HPoint", "HorizontalLine", "AffineLine")
                 if cls in vars(mod))
with open("probe.json", "w") as fh:
    json.dump({"oracle": "oracle" in sys.modules, "defined": defined}, fh)
sys.exit(status)
"""


def test_production_builds_no_line_objects(tmp_path):
    # the line objects are the tests' oracle: a run of every suite, census
    # and examples included, neither loads it nor finds them in the package
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
