"""Per-layer accounting for traced units, measured from outside ``src/``.

Where the program already opens spans (``trials/workload|partition|
allocation``, ``workload-gen``, ``event-loop/kernel-*``, ``report``) the
probe passes its :class:`repro.obs.Tracer` in through ``tracer=`` and
reads the span totals.  Where no span exists it wraps the public layer
method on the component instance (or, for the Monte-Carlo selection
policy, on its class for the duration of the run) to time or count the
calls.  Times here are host seconds (run.py rescales them to reference
seconds); counts are per call site.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.cluster.selection import make_selection_policy
from repro.obs.tracer import Tracer

#: Per-layer metrics and their units, in the order they are printed.
PER_LAYER_UNITS = {
    "workload.rates_s": "s",
    "ballsbins.groups_s": "s",
    "ballsbins.balls": "count",
    "cluster.selection_s": "s",
    "cluster.selection_balls_per_s": "1/s",
    "sim.runner_s": "s",
    "workload.sample_s": "s",
    "sim.kernel.resolve_s": "s",
    "cluster.pinned_keys": "count",
    "sim.kernel.queues_s": "s",
    "obs.monitor_s": "s",
    "obs.monitor.records": "count",
    "obs.trace.sample_s": "s",
    "obs.trace.record_s": "s",
    "obs.trace.sampled": "count",
    "obs.finalize_s": "s",
    "sim.event_loop_s": "s",
    "sim.report_s": "s",
    "cache.access_s": "s",
    "cache.accesses": "count",
    "cache.evictions": "count",
    "sim.events": "count",
    "timed.unattributed_s": "s",
    "tracing.throughput_ratio": "ratio",
    "model.normalized_max": "ratio",
    "model.hit_ratio": "ratio",
    "model.drop_rate": "ratio",
    "model.latency_p99_s": "s",
}

#: Kernel sub-spans of ``event-loop`` and the layer each one times.
_KERNEL_SPANS = {
    "event-loop/kernel-resolve": "sim.kernel.resolve_s",
    "event-loop/kernel-monitor": "obs.monitor_s",
    "event-loop/kernel-queues": "sim.kernel.queues_s",
    "event-loop/kernel-trace": "obs.trace.record_s",
}


class LayerProbe:
    """Spans, wrapped-call timers and counters for the traced units of a run."""

    def __init__(self) -> None:
        self.tracer = Tracer(max_spans=0)
        self.times: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def timed(self, layer: str, fn):
        """``fn`` wrapped so its host time adds to ``layer``."""
        clock = time.perf_counter
        times = self.times

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[layer] += clock() - start

        return wrapper

    def instrument_event(self, parts: dict) -> None:
        """Wrap one event trial's fresh components (they are discarded after)."""
        cache = parts["cache"]
        cache.access = self.timed("cache.access_s", cache.access)
        partitioner = parts["sim"].cluster.partitioner
        groups_of = partitioner.replica_groups
        counts = self.counts

        def replica_groups(keys):
            # The kernel resolves each newly pinned key's group once.
            counts["cluster.pinned_keys"] += len(keys)
            return groups_of(keys)

        partitioner.replica_groups = replica_groups
        recorder, monitor = parts["recorder"], parts["monitor"]
        if recorder is not None:
            recorder.sample_mask = self.timed("obs.trace.sample_s", recorder.sample_mask)
            recorder.finalize = self.timed("obs.finalize_s", recorder.finalize)
        if monitor is not None:
            monitor.finalize = self.timed("obs.finalize_s", monitor.finalize)

    @contextmanager
    def instrument_selection(self, selection: str = "least-loaded") -> Iterator[None]:
        """Count the balls each Monte-Carlo trial places (class-level wrap)."""
        cls = type(make_selection_policy(selection))
        original = cls.__dict__.get("node_loads")
        node_loads = cls.node_loads
        counts = self.counts

        def counted(policy, groups, rates, *args, **kwargs):
            counts["ballsbins.balls"] += len(groups)
            return node_loads(policy, groups, rates, *args, **kwargs)

        cls.node_loads = counted
        try:
            yield
        finally:
            if original is None:
                del cls.node_loads
            else:
                cls.node_loads = original

    def layer_metrics(self, timed_seconds: float, trials: int) -> Dict[str, float]:
        """Per-layer times and counts per trial, plus the unattributed rest.

        ``timed_seconds`` is the host time of the traced units' timed
        calls; the named layers partition it, and whatever no layer
        claims is ``timed.unattributed_s``.
        """
        spans = {
            path: stats["total_seconds"]
            for path, stats in self.tracer.aggregates().items()
        }
        times = self.times
        out: Dict[str, float] = {}
        # Monte-Carlo campaigns: spans of sim/runner.run_trials.
        out["workload.rates_s"] = spans.get("trials/workload", 0.0)
        out["ballsbins.groups_s"] = spans.get("trials/partition", 0.0)
        out["cluster.selection_s"] = spans.get("trials/allocation", 0.0)
        # run_trials' own work: the trial loop's self time plus the
        # campaign report.
        out["sim.runner_s"] = (
            spans.get("trials", 0.0) - out["workload.rates_s"]
            - out["ballsbins.groups_s"] - out["cluster.selection_s"]
            + spans.get("report", 0.0)
            if "trials" in spans else 0.0
        )
        # Event trials: the simulator's phase spans and wrapped calls.
        out["workload.sample_s"] = spans.get("workload-gen", 0.0)
        for path, layer in _KERNEL_SPANS.items():
            out[layer] = spans.get(path, 0.0)
        for layer in ("cache.access_s", "obs.trace.sample_s", "obs.finalize_s"):
            out[layer] = times[layer]
        out["sim.event_loop_s"] = (
            spans.get("event-loop", 0.0) - out["cache.access_s"]
            - sum(out[layer] for layer in _KERNEL_SPANS.values())
        )
        out["sim.report_s"] = (
            0.0 if "trials" in spans
            else spans.get("report", 0.0) - out["obs.finalize_s"]
        )
        out["timed.unattributed_s"] = timed_seconds - sum(out.values())
        per_trial = {name: value / trials for name, value in out.items()}
        for name in ("ballsbins.balls", "cluster.pinned_keys"):
            per_trial[name] = self.counts[name] / trials
        selection = out["cluster.selection_s"]
        per_trial["cluster.selection_balls_per_s"] = (
            self.counts["ballsbins.balls"] / selection if selection else 0.0
        )
        return per_trial
