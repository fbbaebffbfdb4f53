"""Multi-trial campaigns for the event-driven engine.

The Monte-Carlo engine has :func:`repro.sim.runner.run_trials`; this is
the queueing-engine counterpart.  Each trial replays an independent
arrival stream through a *fresh* cache and the same (secretly seeded)
cluster topology, then the campaign aggregates the operational metrics
the paper's analytic model cannot produce: drop rates, latency tails and
hit-rate distributions, alongside the usual normalized-max-load report.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.notation import SystemParameters
from ..exceptions import SimulationError
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import LoadMonitor, MonitorConfig
from ..obs.trace import FlightRecorder, TraceConfig
from ..obs.tracer import as_tracer
from ..types import LoadReport
from ..workload.distributions import KeyDistribution
from .eventsim import EventDrivenSimulator, EventSimResult
from .parallel import map_blocks, resolve_seed

__all__ = ["EventCampaign", "run_event_campaign"]


@dataclass(frozen=True)
class EventCampaign:
    """Aggregate of repeated event-driven runs of one configuration.

    Attributes
    ----------
    load_report:
        Normalized-max-load per trial, shaped like the Monte-Carlo
        engine's output so the two are directly comparable.
    results:
        The raw per-trial results (for anything not pre-aggregated).
    """

    load_report: LoadReport
    results: Tuple[EventSimResult, ...]

    @property
    def trials(self) -> int:
        """Number of runs aggregated."""
        return len(self.results)

    @property
    def mean_drop_rate(self) -> float:
        """Average back-end drop rate across trials."""
        return float(np.mean([r.drop_rate for r in self.results]))

    @property
    def worst_drop_rate(self) -> float:
        """Worst single-trial drop rate."""
        return float(np.max([r.drop_rate for r in self.results]))

    @property
    def mean_hit_rate(self) -> float:
        """Average front-end hit rate across trials."""
        return float(np.mean([r.cache_hit_rate for r in self.results]))

    @property
    def worst_p99_latency(self) -> float:
        """Worst per-trial p99 back-end latency (seconds; nan-safe)."""
        values = [r.latency_p99 for r in self.results]
        finite = [v for v in values if v == v]
        return float(np.max(finite)) if finite else float("nan")

    @property
    def total_failure_events(self) -> int:
        """Fault-injection events applied across all trials (0 = no chaos)."""
        return int(sum(r.failure_events for r in self.results))

    @property
    def total_unavailable(self) -> int:
        """Requests across all trials whose every replica was down."""
        return int(sum(r.unavailable for r in self.results))

    def describe(self) -> str:
        """Multi-line campaign summary."""
        lines = [
            f"{self.trials} event-driven trials",
            f"normalized max load: worst {self.load_report.worst_case:.3f}, "
            f"mean {self.load_report.mean:.3f}",
            f"cache hit rate (mean): {self.mean_hit_rate:.3f}",
            f"drop rate: mean {self.mean_drop_rate:.4f}, "
            f"worst {self.worst_drop_rate:.4f}",
            f"worst p99 latency: {self.worst_p99_latency * 1e3:.2f} ms",
        ]
        if self.total_failure_events:
            retries = sum(r.retries for r in self.results)
            failovers = sum(r.failovers for r in self.results)
            stale = sum(r.stale_hits for r in self.results)
            lines.append(
                f"chaos: {self.total_failure_events} failure events, "
                f"{retries} retries ({failovers} failovers), "
                f"{self.total_unavailable} unavailable ({stale} served stale)"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class _CampaignBlock:
    """The trials of one worker's range (picklable :func:`map_blocks` task).

    The event engine derives its randomness from ``(seed, trial)``
    internally — a fresh simulator and cache per trial, exactly like the
    serial loop — so the executor-provided generators go unused and the
    campaign stays bit-identical across worker counts.

    Stateful inputs are deep-copied per trial for the same reason: a
    scan distribution's cursor or a selection policy's counters would
    otherwise advance across trials in whatever order the ranges run
    (all of them serially, a worker's share when parallel), making
    results depend on the worker count.  Every trial therefore starts
    from the caller's initial state.

    Each trial also gets its own fresh sinks: a
    :class:`~repro.obs.metrics.MetricsRegistry` when ``metrics`` is set,
    a :class:`~repro.obs.monitor.LoadMonitor` built from ``monitor``
    (publishing into that registry) and a
    :class:`~repro.obs.trace.FlightRecorder` built from ``trace`` and
    the campaign seed (its hash samplers are keyed on ``(seed, trial)``,
    so they admit exactly the requests a serial run would).  A trial
    returns its result with the three snapshots (``None`` for a sink
    that is off), which :func:`run_event_campaign` merges in trial order.
    """

    params: SystemParameters
    distribution: KeyDistribution
    n_queries: int
    seed: int
    cache_factory: Optional[Callable[[], object]]
    simulator_kwargs: dict
    metrics: bool
    monitor: Optional[MonitorConfig]
    trace: Optional[TraceConfig]

    def __call__(self, trials: range, gens) -> List[tuple]:
        del gens
        return [self._trial(t) for t in trials]

    def _trial(self, trial: int) -> tuple:
        registry = MetricsRegistry() if self.metrics else None
        monitor = None
        if self.monitor is not None:
            monitor = LoadMonitor(self.monitor, metrics=registry)
        recorder = None
        if self.trace is not None:
            recorder = FlightRecorder(self.trace, seed=self.seed)
        simulator_kwargs = dict(self.simulator_kwargs)
        if simulator_kwargs.get("cluster") is not None:
            simulator_kwargs["cluster"] = copy.deepcopy(simulator_kwargs["cluster"])
        cache = self.cache_factory() if self.cache_factory is not None else None
        sim = EventDrivenSimulator(
            self.params, copy.deepcopy(self.distribution), cache=cache,
            seed=self.seed, metrics=registry, monitor=monitor, trace=recorder,
            **simulator_kwargs,
        )
        result = sim.run(self.n_queries, trial=trial)
        snapshots = tuple(
            None if sink is None else sink.snapshot()
            for sink in (registry, monitor, recorder)
        )
        return result, snapshots


def run_event_campaign(
    params: SystemParameters,
    distribution: KeyDistribution,
    trials: int = 5,
    n_queries: int = 20_000,
    seed: Optional[int] = None,
    cache_factory: Optional[Callable[[], object]] = None,
    workers: int = 1,
    metrics=None,
    tracer=None,
    monitor=None,
    trace=None,
    **simulator_kwargs,
) -> EventCampaign:
    """Run ``trials`` independent event-driven replays and aggregate.

    Parameters
    ----------
    params, distribution:
        The system and access pattern (see
        :class:`~repro.sim.eventsim.EventDrivenSimulator`).
    trials, n_queries:
        Campaign size; each trial draws an independent arrival stream.
    seed:
        Root seed of every trial's simulator (``None`` draws fresh
        entropy once).  The resolved value is recorded as
        ``load_report.metadata["seed"]`` for exact reruns, and every
        trial builds its cluster from it, so all trials share one
        topology.
    cache_factory:
        Builds a *fresh* cache per trial (stateful policies must not
        leak warmth between trials).  ``None`` uses the per-simulator
        default (the perfect cache).  Must be picklable when
        ``workers > 1``.
    workers:
        Worker processes (``0`` = one per CPU, default ``1`` = serial);
        with an explicit ``seed`` the results are identical for every
        value — see :mod:`repro.sim.parallel`.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  Each trial records
        into a fresh per-trial registry (inside the worker when
        parallel) and the snapshots are merged here in trial order, so
        the aggregate values are identical for every ``workers`` value.
    tracer:
        Optional :class:`repro.obs.Tracer`; records campaign-level
        wall-clock spans (``trials`` -> ``aggregate``) in this process.
    monitor:
        Optional :class:`repro.obs.LoadMonitor`.  Each trial runs under
        a fresh per-trial monitor built from ``monitor.config`` (inside
        the worker when parallel); window, alert and run-summary records
        merge back here strictly in trial order, so the event log is
        identical for every ``workers`` value.  The campaign emits the
        single manifest record up front.
    trace:
        Optional :class:`repro.obs.FlightRecorder`.  Each trial runs
        under a fresh per-trial recorder built from ``trace.config`` and
        the campaign seed (inside the worker when parallel); trace
        records, suspects and attribution alerts merge back here
        strictly in trial order, so the exported trace JSONL is
        bit-identical for every ``workers`` value.
    simulator_kwargs:
        Forwarded to every :class:`EventDrivenSimulator` (routing,
        node_capacity, queue_limit, service, cluster...).
    """
    if trials < 1:
        raise SimulationError(f"need at least one trial, got {trials}")
    seed = resolve_seed(seed)
    tracer = as_tracer(tracer)
    collect_metrics = metrics is not None and metrics.enabled
    collect_monitor = monitor is not None and monitor.enabled
    collect_trace = trace is not None and trace.enabled
    if collect_monitor:
        monitor.emit_manifest(
            engine="event-driven",
            trials=trials,
            n_queries=n_queries,
            seed=seed,
            distribution=distribution.name,
            n=params.n,
            rate=params.rate,
        )
    block = _CampaignBlock(
        params, distribution, n_queries, seed, cache_factory, simulator_kwargs,
        metrics=collect_metrics,
        monitor=monitor.config if collect_monitor else None,
        trace=trace.config if collect_trace else None,
    )
    with tracer.span("event-campaign"):
        with tracer.span("trials"):
            outcomes = map_blocks(
                block, trials, seed=seed, label="event-campaign", workers=workers
            )
        with tracer.span("aggregate"):
            results = []
            for result, (metrics_snap, monitor_snap, trace_snap) in outcomes:
                results.append(result)
                if metrics_snap is not None:
                    metrics.merge_snapshot(metrics_snap)
                if monitor_snap is not None:
                    monitor.merge_trial(monitor_snap)
                if trace_snap is not None:
                    trace.merge_trial(trace_snap)
            gains = np.array(
                [outcome.normalized_max for outcome in results], dtype=float
            )
            report = LoadReport(
                normalized_max_per_trial=gains,
                total_rate=params.rate,
                n_nodes=params.n,
                metadata={
                    "engine": "event-driven",
                    "n_queries": n_queries,
                    "distribution": distribution.name,
                    "seed": seed,
                },
            )
            if metrics is not None:
                metrics.counter("event_campaign_trials_total").inc(trials)
                metrics.histogram("trial_normalized_max").observe_many(gains.tolist())
    return EventCampaign(load_report=report, results=tuple(results))
