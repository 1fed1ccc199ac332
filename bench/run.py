"""The kakeyalab benchmark: cold ``kakeya verify`` runs, measured from outside.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload h1-big --seed 0 --seconds 60 --trace 0

Load model: a closed loop with one client.  One ``python -m kakeyalab.cli
verify ...`` child runs at a time, each in a fresh interpreter, so every
module-level cache starts empty as in every real invocation.  The workload
seed is passed to the program as ``--seed``; it changes the random inputs and
planted sets, never their sizes.  Children run with one BLAS/OpenMP thread.

With ``--trace 0`` the run repeats the workload's command line while the
next run still fits in ``--seconds`` (always at least once).  Before each run
and after the last it times a few import-only children (a fresh interpreter
that imports ``kakeyalab.cli`` and runs nothing), so that ``setup_s`` samples
the same stretch of time as ``wall_s``.  It reports medians of:

* ``wall_s``: wall time from spawning the child to its exit;
* ``setup_s``: wall time of the import-only child;
* ``peak_rss_mb``: peak RSS of that child alone (``os.wait4`` rusage).

With ``--trace 1`` it times untraced runs for half of ``--seconds``, then
runs the same command line once more under ``bench/tracer.py`` in a fresh
process and reports the per-layer metrics of BENCHMARK.json.

Every run is checked: exit status 0, the workload's expected number of CSV
rows, and ``holds=true`` in every row.  The unit of work is one checked row.
A run that exits 1 with every row written (the program's "some bound is
violated" status) counts its ``holds=false`` rows as failed; any other
failed exit or row-count check counts all its expected rows as failed.  Each run's rows are also compared with the reference CSV digests
kept for the seed under ``bench/reference`` (see ``make_reference.py``); the
number of changed rows is reported beside the metrics, not as a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON record of the run (environment, per-run numbers, fingerprint).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import per_layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
REFERENCE = BENCH_DIR / "reference"

WORKLOADS = {
    # name: (argv after `kakeya`, without --seed; expected CSV rows)
    "h1-big": (["verify", "--big", "--suite",
                "planar-l2,ttstar,diag,offdiag,rd-l2,fourier"], 16641),
    "sets-big": (["verify", "--big", "--suite",
                  "census,lowerbounds,examples,kakeya-bounds,moments"], 635),
}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PER_BATCH = 3      # import-only samples before each run and after the last
RUN_LIMIT_S = 170.0      # the whole run must end within 180 s
DIGEST_BYTES = 4         # per CSV row in the reference files
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(THREAD_ENV)
    return env


def spawn(argv, timeout, stderr_path=None):
    """Run argv to completion; returns (wall_s, exit status, peak RSS MB).

    The child is reaped with os.wait4 so that the RSS is its own.  A timer
    kills it if it outlives timeout; the status then reads as -SIGKILL.
    """
    stderr = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
    finally:
        if stderr_path:
            stderr.close()
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def measure_setup(deadline):
    """Wall times of a few fresh interpreters importing kakeyalab.cli."""
    samples = []
    for _ in range(SETUP_PER_BATCH):
        wall, status, _ = spawn([sys.executable, "-c", "import kakeyalab.cli"],
                                deadline - time.perf_counter())
        if status != 0:
            raise BenchError("`import kakeyalab.cli` failed "
                             f"(exit status {status})")
        samples.append(wall)
    return samples


def read_rows(path):
    """The CSV data lines (header dropped), or None if there is no file."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    return text.splitlines()[1:]


def row_digest(line):
    return hashlib.blake2b(line.encode(), digest_size=DIGEST_BYTES).digest()


def reference_path(workload, seed):
    return REFERENCE / workload / f"seed-{seed}.bin"


def compare_with_reference(workload, seed, rows):
    """Rows that differ, by position, from the reference digests of the seed."""
    ref_path = reference_path(workload, seed)
    if not ref_path.exists():
        return {"reference": None, "rows_changed": None}
    ref = ref_path.read_bytes()
    ref = [ref[i:i + DIGEST_BYTES] for i in range(0, len(ref), DIGEST_BYTES)]
    by_bound = {}
    for i in range(max(len(ref), len(rows))):
        if i < len(rows) and i < len(ref) and row_digest(rows[i]) == ref[i]:
            continue
        cols = next(csv.reader([rows[i]])) if i < len(rows) else ["<missing>"]
        key = "/".join(cols[:2])
        by_bound[key] = by_bound.get(key, 0) + 1
    return {"reference": str(ref_path.relative_to(ROOT)),
            "rows_changed": sum(by_bound.values()),
            "changed_by_bound": by_bound}


def check_rows(status, rows, expected):
    """Failed rows of one run under the correctness gate.

    Exit status 1 with every expected row written means some rows hold
    false; only those count as failed.  Any other non-zero status, a
    missing CSV, a wrong row count, or status 1 with no false row (an
    uncaught exception also exits 1) fails all the expected rows.
    """
    if status not in (0, 1) or rows is None or len(rows) != expected:
        return expected
    # column 9 is `holds` in the CSV header that tests/test_cli.py pins
    failed = sum(1 for r in csv.reader(rows) if len(r) < 10 or r[9] != "true")
    if status == 1 and failed == 0:
        return expected
    return failed


def csv_path(workload):
    """Where the latest run of the workload leaves its CSV."""
    return WORK / f"{workload}.csv"


def run_workload(workload, seed, timeout, traced=False):
    """One cold `kakeya` child (traced or not); returns its record."""
    argv, expected = WORKLOADS[workload]
    tag = f"{workload}.trace" if traced else workload
    out = csv_path(workload)
    out.unlink(missing_ok=True)
    cli_argv = [*argv, "--seed", str(seed), "--out", str(out)]
    if traced:
        summary = WORK / f"{tag}.json"
        summary.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(summary),
               *cli_argv]
    else:
        cmd = [sys.executable, "-m", "kakeyalab.cli", *cli_argv]
    stderr_path = WORK / f"{tag}.stderr"
    wall, status, rss = spawn(cmd, timeout, stderr_path)
    rows = read_rows(out)
    failed = check_rows(status, rows, expected)
    record = {"traced": traced, "wall_s": wall, "peak_rss_mb": rss,
              "exit_status": status,
              "rows": None if rows is None else len(rows),
              "attempted": expected, "failed": failed,
              **compare_with_reference(workload, seed, rows or [])}
    if failed:
        tail = stderr_path.read_text(errors="replace").splitlines()[-5:]
        print(f"run {tag} seed {seed} failed the correctness gate: "
              f"exit {status}, "
              f"{record['rows']} rows, {failed} failed; stderr tail:",
              *tail, sep="\n  ", file=sys.stderr)
    if traced:
        record["trace"] = (json.loads(summary.read_text())
                           if summary.exists() else None)
    return record


def run_until(workload, seed, start, budget_s, deadline, setup=None):
    """Repeat the workload while the next run still ends within budget_s
    of start; always at least once.  If setup is a list, a batch of
    import-only samples is added to it before each run and after the last."""
    records = []
    while True:
        step_start = time.perf_counter()
        if setup is not None:
            setup += measure_setup(deadline)
        records.append(run_workload(workload, seed,
                                    deadline - time.perf_counter()))
        now = time.perf_counter()
        step = now - step_start
        if now - start + step > budget_s or now + step > deadline:
            if setup is not None:
                setup += measure_setup(deadline)
            return records


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kakeyalab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV,
        "seed": seed,
        "argv": {name: ["kakeya", *argv, "--seed", str(seed)]
                 for name, (argv, _) in WORKLOADS.items()},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(untraced, traced_rec):
    """The per-layer metrics, in BENCHMARK.json order, from one traced run."""
    trace = traced_rec["trace"]
    if trace is None:
        raise BenchError("the traced run wrote no summary")
    if trace["missing"]:
        print("functions not found for tracing: "
              + ", ".join(trace["missing"]), file=sys.stderr)
    values = dict(trace["metrics"])
    base = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_ratio"] = traced_rec["wall_s"] / base
    values["trace.coverage"] = trace["covered_s"] / traced_rec["wall_s"]
    return {name: metric(values[name], unit)
            for name, unit, _ in per_layer_metrics()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kakeyalab" / "cli.py").is_file():
        print(f"no kakeyalab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            setup = []
            runs = run_until(args.workload, args.seed, start,
                             args.seconds / 2, deadline)
            traced = run_workload(args.workload, args.seed,
                                  deadline - time.perf_counter(), traced=True)
            metrics = per_layer(runs, traced)
            runs.append(traced)
        else:
            setup = []
            runs = run_until(args.workload, args.seed, start, args.seconds,
                             deadline, setup)
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in runs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                 for r in runs),
            }
            metrics = {k: metric(v, END_TO_END_UNITS[k])
                       for k, v in metrics.items()}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    changed = [r["rows_changed"] for r in runs]
    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs, "
          f"{attempted} rows checked, {failed} failed "
          f"(failed share {failed / attempted:.6g})")
    for name, m in metrics.items():
        print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
    print("  rows changed against the reference CSV of this seed: "
          + ", ".join("no reference" if c is None else str(c)
                      for c in changed))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args.seed),
              "setup_s_samples": setup, "runs": runs,
              "failed_share": failed / attempted}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
