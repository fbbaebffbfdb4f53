"""Serial-vs-parallel campaign speedup and d-choice kernel throughput.

Two measurements, one artifact (``benchmarks/results/parallel.json``):

- **campaign**: the same Monte-Carlo uniform-attack campaign run at
  several worker counts.  Per worker count: wall-seconds, trials/s,
  speedup over the serial run and — the part that actually matters —
  whether the per-trial results are bit-identical to the serial run
  (they must be; the parallel substrate derives the exact same
  ``(seed, label, trial)`` RNG streams).
- **kernel**: 64 paper-shape d-choice trials placed one after another
  by the sequential reference loop vs side by side in one lockstep
  block (each trial's replica groups streamed from its own seed), with
  byte-identical occupancy required (``lockstep_*`` keys, config
  ``kernel: lockstep``).  Earlier versions timed one 1M-ball, n = 1024,
  d = 2 matrix through a round-based kernel that no longer exists
  (``batched_*`` keys), so ``BENCH_parallel`` trajectory points from
  before the switch are not comparable with later ones.

``REPRO_BENCH_SMOKE=1`` shrinks both to a seconds-scale run (written to
``parallel_smoke.json`` so the full-scale artifact survives test runs).
Speedup assertions are gated on the host actually having the cores to
parallelise over — a single-core container can still verify determinism
and kernel throughput, just not multi-process scaling.
"""

import os

from _util import active_profiler, register, smoke_mode, timed

from repro.ballsbins.allocation import (
    ReplicaGroupStream,
    _d_choice_sequential,
    lockstep_greedy,
    sample_replica_groups,
)
from repro.core.notation import SystemParameters
from repro.sim.analytic import simulate_uniform_attack

SEED = 20130708

#: Full-scale campaign: the acceptance configuration — 64 trials of the
#: widest paper attack (x = m, ~1e5 balls/trial) at 1/2/4 workers.
FULL_CAMPAIGN = {
    "params": dict(n=1000, m=100_000, c=200, d=3, rate=1e5),
    "x": 100_000,
    "trials": 64,
    "workers": (1, 2, 4),
}
SMOKE_CAMPAIGN = {
    "params": dict(n=200, m=10_000, c=100, d=3, rate=1e5),
    "x": 10_000,
    "trials": 8,
    "workers": (1, 2),
}

#: Full-scale kernel: 64 trials at the paper's widest attack shape.
FULL_KERNEL = {"trials": 64, "balls": 99_900, "bins": 1000, "d": 3}
SMOKE_KERNEL = {"trials": 8, "balls": 10_000, "bins": 200, "d": 3}

#: Least full-scale speedup of the lockstep block over the per-trial
#: loop.  The block replaces one interpreted inner loop per ball and
#: trial with one numpy step per ball for all 64 trials; it measured
#: 7.06x on a 2-CPU x86-64 host under the harness's tracemalloc, so 3x
#: leaves room for slower hosts while still catching a block that has
#: fallen back to per-trial work.
KERNEL_SPEEDUP_FLOOR = 3.0


def _profiler_metrics():
    profiler = active_profiler()
    return profiler.metrics if profiler is not None else None


def run_campaign_bench() -> dict:
    spec = SMOKE_CAMPAIGN if smoke_mode() else FULL_CAMPAIGN
    params = SystemParameters(**spec["params"])
    trials, x = spec["trials"], spec["x"]
    metrics = _profiler_metrics()
    rows = []
    serial_seconds = None
    serial_series = None
    for workers in spec["workers"]:
        report, seconds = timed(
            simulate_uniform_attack,
            params, x, trials=trials, seed=SEED, workers=workers,
            metrics=metrics,
        )
        if serial_seconds is None:
            serial_seconds, serial_series = seconds, report.normalized_max_per_trial
        rows.append(
            {
                "workers": workers,
                "wall_seconds": seconds,
                "trials_per_second": trials / seconds,
                "speedup": serial_seconds / seconds,
                "identical_to_serial": bool(
                    (report.normalized_max_per_trial == serial_series).all()
                ),
            }
        )
    return {
        "config": {**spec["params"], "x": x, "trials": trials, "seed": SEED},
        "results": rows,
    }


def _sequential_trials(trials, balls, bins, d, metrics):
    return [
        _d_choice_sequential(
            sample_replica_groups(balls, bins, d, rng=SEED + t, metrics=metrics),
            bins,
        )
        for t in range(trials)
    ]


def _lockstep_trials(trials, balls, bins, d):
    streams = [ReplicaGroupStream(balls, bins, d, rng=SEED + t) for t in range(trials)]
    return lockstep_greedy(streams)


def run_kernel_bench() -> dict:
    spec = SMOKE_KERNEL if smoke_mode() else FULL_KERNEL
    trials, balls, bins, d = spec["trials"], spec["balls"], spec["bins"], spec["d"]
    sequential_occ, sequential_seconds = timed(
        _sequential_trials, trials, balls, bins, d, _profiler_metrics()
    )
    lockstep_occ, lockstep_seconds = timed(_lockstep_trials, trials, balls, bins, d)
    placed = trials * balls
    return {
        "config": {**spec, "seed": SEED, "kernel": "lockstep"},
        "sequential_seconds": sequential_seconds,
        "lockstep_seconds": lockstep_seconds,
        "sequential_balls_per_second": placed / sequential_seconds,
        "lockstep_balls_per_second": placed / lockstep_seconds,
        "speedup": sequential_seconds / lockstep_seconds,
        "identical_occupancy": bool((lockstep_occ == sequential_occ).all()),
    }


def _run() -> dict:
    return {
        "smoke": smoke_mode(),
        "cpu_count": os.cpu_count(),
        "campaign": run_campaign_bench(),
        "kernel": run_kernel_bench(),
    }


def _render(payload: dict) -> str:
    campaign, kernel = payload["campaign"], payload["kernel"]
    lines = [
        "== parallel: campaign fan-out speedup + lockstep d-choice kernel",
        f"host cpus: {payload['cpu_count']}, smoke: {payload['smoke']}",
        "",
        f"campaign ({campaign['config']['trials']} trials, "
        f"x={campaign['config']['x']}, n={campaign['config']['n']}):",
        "workers  wall_s  trials/s  speedup  identical",
    ]
    for row in campaign["results"]:
        lines.append(
            f"{row['workers']:>7}  {row['wall_seconds']:>6.2f}  "
            f"{row['trials_per_second']:>8.2f}  {row['speedup']:>7.2f}  "
            f"{str(row['identical_to_serial']):>9}"
        )
    lines += [
        "",
        f"kernel ({kernel['config']['trials']} trials, "
        f"n={kernel['config']['bins']}, d={kernel['config']['d']}, "
        f"balls={kernel['config']['balls']}):",
        f"sequential {kernel['sequential_seconds']:.3f}s "
        f"({kernel['sequential_balls_per_second']:.2e} balls/s), "
        f"lockstep {kernel['lockstep_seconds']:.3f}s "
        f"({kernel['lockstep_balls_per_second']:.2e} balls/s), "
        f"speedup {kernel['speedup']:.2f}x, "
        f"identical: {kernel['identical_occupancy']}",
    ]
    return "\n".join(lines)


def _check(payload: dict) -> None:
    # Determinism is non-negotiable on any host.
    assert all(r["identical_to_serial"] for r in payload["campaign"]["results"])
    assert payload["kernel"]["identical_occupancy"]
    if not payload["smoke"]:
        # Throughput claims need the full-scale workload (and, for the
        # campaign, actual cores) to be meaningful.
        assert payload["kernel"]["speedup"] >= KERNEL_SPEEDUP_FLOOR
        cpus = payload["cpu_count"] or 1
        for row in payload["campaign"]["results"]:
            if row["workers"] > 1 and cpus >= row["workers"]:
                assert row["speedup"] >= row["workers"] / 2.0


def _workload(payload: dict):
    campaign = payload["campaign"]["config"]
    balls = campaign["x"] * campaign["trials"] * len(payload["campaign"]["results"])
    kernel = payload["kernel"]["config"]
    balls += 2 * kernel["trials"] * kernel["balls"]
    return {"balls": balls}


SPEC = register(
    "parallel", run=_run, render=_render, check=_check, workload=_workload,
    seed=SEED,
)


def bench_parallel(benchmark):
    result = benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )
    payload = result.payload
    # Scaling assertions from the original pytest-only path (full scale).
    if not payload["smoke"]:
        assert payload["kernel"]["speedup"] >= KERNEL_SPEEDUP_FLOOR


if __name__ == "__main__":
    raise SystemExit(SPEC.main())
