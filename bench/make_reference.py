"""Capture the reference CSV row digests that bench/run.py compares against.

For each workload and seed it runs the workload once, checks it passes the
correctness gate, and writes one short digest per CSV data row to
``bench/reference/<workload>/seed-<n>.bin``.  Run it only on the commit whose
rows are the reference, from the root of the checkout::

    python3 bench/make_reference.py --seeds 0-23
"""

from __future__ import annotations

import argparse
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-23")
    args = parser.parse_args(argv)
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            rec = run.run_workload(workload, seed, run.RUN_LIMIT_S)
            if rec["failed"]:
                print(f"{workload} seed {seed} fails the correctness gate",
                      file=sys.stderr)
                return 1
            rows = run.read_rows(run.csv_path(workload))
            path = run.reference_path(workload, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"".join(run.row_digest(r) for r in rows))
            print(f"{workload} seed {seed}: {len(rows)} rows, "
                  f"{rec['wall_s']:.2f} s -> {path.relative_to(run.ROOT)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
