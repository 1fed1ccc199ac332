"""Self-tests of the benchmark: tracer reach, self time, correctness gate.

Run from the root of the checkout::

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracer

# q=3 covers every traced function but example_refined_not_affine, which
# needs odd q > 3; the exponents suite needs three q values and always adds
# the rank-2 sweep over q <= 9.
TINY = (["verify", "--q", "3,5", "--trials", "1", "--suite",
         "census,planar-l2,ttstar,diag,offdiag,rd-l2,fourier,lowerbounds,"
         "examples,kakeya-bounds,moments"],
        ["verify", "--q", "3,5,7", "--suite", "exponents"])

# Calls that reach their callee through a binding other than the defining
# module's attribute: a `from .maximal import ...` copy, a dict entry, or a
# call inside the defining module.
KNOWN_PATHS = (
    "constructions.lower_bound_ratio>maximal.heis_max_op",
    "constructions.lower_bound_ratio>maximal.refined_max_op",
    "constructions.lower_bound_ratio>maximal.lp_norm",
    "constructions.kakeya_bound_report>maximal.refined_max_op",
    "constructions.moment_report>maximal.refined_max_op",
    "constructions.is_affine_kakeya>maximal.affine_incidence",
    "constructions.is_full_refined_kakeya>maximal.refined_incidence",
    "maximal.verify_bound>maximal.affine_max_op",
    "maximal.verify_bound>maximal.heis_max_op",
    "maximal.verify_bound>maximal.refined_max_op",
    "maximal.heis_max_op>maximal.heis_max_op_many",
    "maximal.heis_max_op_many>heisenberg.line_table_for_direction",
    "heisenberg.census>heisenberg.line_table_for_direction",
    "fourier.split_bound_check>maximal.lp_norm",
    "fourier.split_bound_check>fourier.t_components",
    "fourier.key_counting_check>fourier.u_tables",
) + tuple(f"<root>>cli.suite_{s}" for s in tracer.SUITES)


@pytest.fixture(scope="module")
def tiny_traces(tmp_path_factory):
    out = []
    for i, argv in enumerate(TINY):
        path = tmp_path_factory.mktemp("trace") / f"{i}.json"
        csv_path = path.with_suffix(".csv")
        subprocess.run([sys.executable, str(run.BENCH_DIR / "tracer.py"),
                        str(path), *argv, "--out", str(csv_path)],
                       cwd=run.ROOT, env=run.child_env(), check=False,
                       stdout=subprocess.DEVNULL, timeout=300)
        out.append(json.loads(path.read_text()))
    return out


def test_every_traced_function_records_a_span(tiny_traces):
    assert all(not t["missing"] for t in tiny_traces)
    calls = {}
    for t in tiny_traces:
        for edge, n in t["edges"].items():
            callee = edge.rsplit(">", 1)[1]
            calls[callee] = calls.get(callee, 0) + n
    assert [n for n in tracer.traced_names() if not calls.get(n)] == []


def test_spans_follow_every_known_call_path(tiny_traces):
    edges = set()
    for t in tiny_traces:
        edges.update(t["edges"])
    assert [p for p in KNOWN_PATHS if p not in edges] == []


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from kakeyalab import cli, constructions, field, fourier, maximal
    before = (maximal.heis_max_op, constructions.heis_max_op,
              maximal._OPERATORS["heis"], fourier.lp_norm,
              cli.SUITES["fourier"], field.Field.__init__)
    t = tracer.Tracer().install()
    try:
        during = (maximal.heis_max_op, constructions.heis_max_op,
                  maximal._OPERATORS["heis"], fourier.lp_norm,
                  cli.SUITES["fourier"], field.Field.__init__)
        assert all(d is not b for d, b in zip(during, before))
        assert constructions.heis_max_op is maximal.heis_max_op
        assert maximal._OPERATORS["heis"] is maximal.heis_max_op
    finally:
        t.uninstall()
    after = (maximal.heis_max_op, constructions.heis_max_op,
             maximal._OPERATORS["heis"], fourier.lp_norm,
             cli.SUITES["fourier"], field.Field.__init__)
    assert all(a is b for a, b in zip(after, before))


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans = [("maximal.verify_bound", 0.0, 10.0, -1),
               ("maximal.heis_max_op", 1.0, 4.0, 0),
               ("maximal.lp_norm", 5.0, 6.0, 0),
               (tracer.HOOK, 6.0, 7.0, 0),
               ("maximal.lp_norm", 11.0, 13.0, -1)]
    s = t.summary()
    m = s["metrics"]
    assert m["maximal.verify_bound.self_s"] == 10.0 - 3.0 - 1.0 - 1.0
    assert m["maximal.lp_norm.self_s"] == 3.0
    assert m["maximal.lp_norm.calls"] == 2
    assert s["covered_s"] == 12.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.per_layer_metrics()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_correctness_gate():
    ok = ["census,census-points,3,1,,,27,27,1.0,true,0,"] * 2
    bad = ok[:1] + ["census,census-points,3,1,,,27,28,0.9,false,0,"]
    assert run.check_rows(0, ok, 2) == 0
    assert run.check_rows(0, bad, 2) == 1
    assert run.check_rows(1, bad, 2) == 1     # rows written, one violated
    assert run.check_rows(1, ok, 2) == 2      # exit 1 with no false row
    assert run.check_rows(2, bad, 2) == 2     # other non-zero exit
    assert run.check_rows(-9, ok, 2) == 2     # killed
    assert run.check_rows(0, ok[:1], 2) == 2  # wrong row count
    assert run.check_rows(0, None, 2) == 2    # no CSV
    assert run.check_rows(0, ok[:1] + ["census"], 2) == 1  # short row


def test_rows_changed_against_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REFERENCE", tmp_path)
    rows = ["a,x,1", "a,y,2", "b,z,3"]
    path = run.reference_path("w", 7)
    path.parent.mkdir()
    path.write_bytes(b"".join(run.row_digest(r) for r in rows))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.compare_with_reference("w", 7, rows)["rows_changed"] == 0
    moved = run.compare_with_reference("w", 7, ["a,x,1", "a,y,9"])
    assert moved["rows_changed"] == 2
    assert moved["changed_by_bound"] == {"a/y": 1, "<missing>": 1}
    assert run.compare_with_reference("w", 8, rows)["rows_changed"] is None
