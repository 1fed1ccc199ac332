import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kakeyalab.field import Field
from kakeyalab import maximal as mx
from kakeyalab import constructions as cn
from kakeyalab import cli


def small_config(**kw):
    defaults = dict(qs=(3, 5), suites=("census",), seed=1, trials=2)
    defaults.update(kw)
    return cli.SuiteConfig(**defaults)


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
    cli.save_grid(path, F)
    G = cli.load_grid(path)
    assert G.domain == F.domain
    assert np.array_equal(G.values,
                          F.values.astype(np.complex128))


def test_pointset_file_roundtrip(tmp_path):
    ps = cn.extremal_set("bush", Field(7))
    path = tmp_path / "bush.json"
    cli.save_pointset(path, ps)
    assert cli.load_pointset(path) == ps


def test_maxop_command(tmp_path, capsys):
    f5 = Field(5)
    F = mx.GridFunction.delta(mx.Domain.heisenberg(f5, 1))
    src = tmp_path / "f.json"
    dst = tmp_path / "out.json"
    cli.save_grid(src, F)
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


def test_maxop_one_element_value_pair_exits_2(tmp_path):
    doc = mx.grid_to_json(mx.GridFunction.delta(
        mx.Domain.heisenberg(Field(3), 1)))
    doc["values"][0] = [1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["maxop", "--in", str(bad)]) == 2


def test_modulus_with_big_applies_to_the_given_q_only():
    assert cli.main(["verify", "--q", "9", "--modulus", "2,1,1", "--big",
                     "--suite", "census"]) == 0
    cfg = cli.SuiteConfig(qs=(9,), modulus=(2, 1, 1), big=True)
    assert cfg.field_for(9).modulus == (2, 1, 1)
    assert cfg.field_for(16).modulus == Field(16).modulus


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
