"""Shared fixtures for the repro test suite."""

import json
from functools import partial

import numpy as np
import pytest

from repro.cache.lru import LRUCache
from repro.core.notation import SystemParameters
from repro.obs import FlightRecorder, LoadMonitor, MetricsRegistry, MonitorConfig
from repro.obs.trace import TraceConfig
from repro.sim.batch import run_event_campaign
from repro.workload.adversarial import AdversarialDistribution


@pytest.fixture
def small_params() -> SystemParameters:
    """A small replicated system used across unit tests."""
    return SystemParameters(n=20, m=500, c=10, d=3, rate=1000.0)


@pytest.fixture
def paper_params() -> SystemParameters:
    """The paper's Figure-3(a) system."""
    return SystemParameters(n=1000, m=100_000, c=200, d=3, rate=1e5)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic unit tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def every_sink_exports(tmp_path):
    """Run a small LRU event campaign with metrics, monitor and trace all
    attached; return its three exports as bytes.

    ``run(trials, workers)`` gives ``{"metrics": ..., "events": ...,
    "trace": ...}``: the sorted-key JSON of the registry snapshot, the
    monitor event log JSONL and the flight-recorder JSONL, so callers
    can compare worker counts byte for byte.
    """
    params = SystemParameters(n=12, m=300, c=10, d=3, rate=2000.0)

    def run(trials, workers):
        metrics = MetricsRegistry()
        monitor = LoadMonitor(MonitorConfig.from_params(params, x=40, window=0.05))
        trace = FlightRecorder(TraceConfig(sample=0.5), seed=21)
        run_event_campaign(
            params, AdversarialDistribution(params.m, 40), trials=trials,
            n_queries=1500, seed=21, cache_factory=partial(LRUCache, 10),
            workers=workers, metrics=metrics, monitor=monitor, trace=trace,
        )
        out = tmp_path / f"trials{trials}-workers{workers}"
        out.mkdir()
        return {
            "metrics": json.dumps(metrics.snapshot(), sort_keys=True).encode(),
            "events": monitor.events.write(out / "events.jsonl").read_bytes(),
            "trace": trace.write(out / "trace.jsonl").read_bytes(),
        }

    return run
