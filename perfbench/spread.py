#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1]
                                [--out perfbench/baseline.json]

Each run is a fresh process started with the ``command`` and
``run_seconds`` of ``BENCHMARK.json``.  For every
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound.  ``--out`` writes the summary
as a baseline stamped with the host's CPU count and the Python and
numpy versions (end-to-end and per-layer summaries are kept side by
side).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def summarise(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=range(1, 11))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                ],
                cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            ), flush=True)
        summary[workload] = {name: summarise(vals) for name, vals in values.items()}
        for name, stats in summary[workload].items():
            bound = bounds.get(name)
            print(f"  {workload} {name}: median {stats['median']:.6g} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}] spread {stats['spread']:.4f}"
                  + (f" (bound {bound}, target < {bound / 3:.4f})" if bound else ""))
    if args.out is not None:
        import numpy

        baseline = json.loads(args.out.read_text()) if args.out.is_file() else {}
        baseline["host"] = {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
        baseline["per_layer" if args.trace else "end_to_end"] = {
            "seeds": [args.seeds.start, args.seeds.stop - 1],
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
