#!/usr/bin/env python3
"""Repository benchmark: paper-shape workloads through the public Python API.

Run from the repository root::

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones (see ``perfbench/spec.json``).
Times are in reference seconds: host seconds rescaled by the host speed
sampled during the run (see ``perfbench/speed.py``); the raw host-second
throughput is printed as well.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A trial fails when it
raises, breaks a conservation check, or its output digest differs from
the reference recorded for ``(workload, seed)`` in
``perfbench/reference.json`` (or, for a seed with no reference, from
the run's first unit).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("paper-mc", "event-observed", "event-lru")
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", type=Path, default=HERE / "reference.json",
        help="reference digests per (workload, seed)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build everything up to the first timed trial, then exit "
        "(the set-up measurement runs this in fresh processes)",
    )
    return parser.parse_args(argv)


def time_setups(workload: str, seed: int) -> list:
    """``(start, end)`` of fresh processes that only set up."""
    intervals = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        intervals.append((start, time.perf_counter()))
    return intervals


def run_units(workloads, layers, workload: str, seed: int, seconds: float, trace: bool):
    """Repeat the workload's unit for ``seconds``; traced units alternate."""
    build, unit_of, _ = workloads.WORKLOADS[workload]
    state = build(seed)
    probe = layers.LayerProbe() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            with probe.instrument_selection():
                traced.append(unit_of(state, probe))
        else:
            plain.append(unit_of(state))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return plain, traced, probe


def count_failures(units, expected) -> int:
    """Trials of ``units`` that failed a check or differ from ``expected``."""
    failed = 0
    for unit in units:
        per_check = unit.trials // len(unit.digests)
        matches = expected is not None and len(expected) == len(unit.digests)
        for i, (digest, ok) in enumerate(zip(unit.digests, unit.ok)):
            if not ok or not matches or digest != expected[i]:
                failed += per_check
    return failed


def load_reference(path: Path, workload: str, seed: int):
    """Recorded digests for ``(workload, seed)``, or ``None``."""
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source ({SRC.name}/repro) is missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        import workloads

        workloads.setup(args.workload, args.seed)
        return 0

    from speed import SpeedSampler

    # One CPU for the run, its set-up processes and the speed sampler.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedSampler() as speed:
        setups = time_setups(args.workload, args.seed)
        import layers
        import workloads

        plain, traced, probe = run_units(
            workloads, layers, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    from repro.perf.schema import peak_rss_bytes

    def ref_seconds(unit) -> float:
        return sum(speed.reference_seconds(a, b) for a, b in unit.intervals)

    def rate(units) -> float:
        """Median trials per reference second."""
        return statistics.median(u.trials / ref_seconds(u) for u in units)

    units = plain + traced
    reference = load_reference(args.reference, args.workload, args.seed)
    expected = reference if reference is not None else plain[0].digests
    attempted = sum(unit.trials for unit in units)
    failed = count_failures(units, expected)

    if args.trace:
        metrics = {name: 0.0 for name in layers.PER_LAYER_UNITS}
        raw = sum(unit.seconds for unit in traced)
        scale = sum(ref_seconds(unit) for unit in traced) / raw
        per_trial = probe.layer_metrics(raw, sum(unit.trials for unit in traced))
        metrics.update({
            name: value * scale if layers.PER_LAYER_UNITS[name] == "s" else value
            for name, value in per_trial.items()
        })
        metrics["cluster.selection_balls_per_s"] /= scale
        for name in traced[0].counts:
            metrics[name] = statistics.fmean(unit.counts[name] for unit in traced)
        metrics.update(next((u.model for u in units if u.model), {}))
        metrics["tracing.throughput_ratio"] = rate(traced) / rate(plain)
        units_of = layers.PER_LAYER_UNITS
    else:
        metrics = {
            "trials_per_s": rate(plain),
            "setup_s": statistics.median(speed.reference_seconds(a, b) for a, b in setups),
            "peak_rss_mb": peak_rss_bytes() / 2**20,
        }
        units_of = END_TO_END_UNITS

    per_trial_requests = workloads.EVENT_REQUESTS if args.workload != "paper-mc" else 1
    throughput = "sim_requests_per_s" if per_trial_requests > 1 else "mc_trials_per_s"
    host_rate = statistics.median(u.trials / u.seconds for u in plain)
    print(f"workload = {args.workload}, seed = {args.seed}, "
          f"units = {len(plain)} untraced + {len(traced)} traced")
    print(f"{throughput} = {rate(plain) * per_trial_requests:.6g} per reference second, "
          f"{host_rate * per_trial_requests:.6g} per host second")
    print(f"host speed = {speed.factor(setups[0][0], time.perf_counter()):.4f} "
          "x reference kernel time")
    print(f"error_rate = {failed / attempted:.6g} ({failed}/{attempted} trials)")
    print(f"reference = {'recorded' if reference is not None else 'none (first unit)'}")
    if units[-1].engine is not None:
        print(f"last_engine = {units[-1].engine}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
