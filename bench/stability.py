"""Run bench/run.py over several seeds and summarise every metric.

For each workload it runs one untraced benchmark run per seed, at
BENCHMARK.json's ``run_seconds``, and prints the median, quartiles and spread
(quartile distance over the median, as ``statistics.quantiles(values, n=4)``
gives the quartiles) of every end-to-end metric, by name and with its unit,
plus the failed share from the correctness gate.  With ``--trace-seed`` it adds one traced run per workload
and its per-layer metrics.  ``--out`` writes everything as JSON.  From the
root of the checkout::

    python3 bench/stability.py --seeds 0-9 --out bench/BENCH_0.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
from make_reference import parse_seeds

ROOT = run.ROOT


def bench_once(workload, seed, seconds, trace):
    """One bench/run.py process; returns (result, record) from its output."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result "
                         f"(exit status {proc.returncode})")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = list(parse_seeds(args.seeds))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    doc = {"seconds": seconds, "seeds": seeds, "environment": None,
           "end_to_end": {}, "correctness": {}, "rows_changed": {},
           "invocation_walls": {}, "per_layer": {}}
    for workload in run.WORKLOADS:
        samples, attempted, failed, changed, walls = {}, 0, 0, [], []
        for seed in seeds:
            result, record = bench_once(workload, seed, seconds, 0)
            doc["environment"] = doc["environment"] or record["environment"]
            attempted += result["attempted"]
            failed += result["failed"]
            changed += [r["rows_changed"] for r in record["runs"]]
            walls.append([r["wall_s"] for r in record["runs"]])
            for name, m in result["metrics"].items():
                samples.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g} {m['unit']}"
                for k, m in result["metrics"].items()), flush=True)
        stats = {name: {"unit": unit, **summarise(values)}
                 for name, (unit, values) in samples.items()}
        doc["end_to_end"][workload] = stats
        doc["correctness"][workload] = {"attempted": attempted,
                                        "failed": failed,
                                        "failed_share": failed / attempted}
        doc["rows_changed"][workload] = changed
        doc["invocation_walls"][workload] = walls
        for name, s in stats.items():
            flag = "" if s["spread"] < bounds[name] / 3 else \
                "  (spread above a third of the bound)"
            print(f"{workload:<12} {name:<12} median {s['median']:.4f} "
                  f"{s['unit']}, quartiles {s['q1']:.4f}..{s['q3']:.4f}, "
                  f"spread {s['spread']:.3f}, bound {bounds[name]}{flag}")
        print(f"{workload:<12} failed share {failed / attempted:.6g} "
              f"of {attempted} rows; rows changed per run: {changed}",
              flush=True)
        if args.trace_seed is not None:
            result, record = bench_once(workload, args.trace_seed,
                                        seconds, 1)
            doc["per_layer"][workload] = {
                "seed": args.trace_seed, "correct": result["correct"],
                "metrics": {k: m["value"]
                            for k, m in result["metrics"].items()}}
            print(f"{workload:<12} traced run: overhead ratio "
                  f"{result['metrics']['trace.overhead_ratio']['value']:.3f}, "
                  f"coverage {result['metrics']['trace.coverage']['value']:.3f}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
