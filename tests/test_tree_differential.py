"""Differential suite: cache trees on the fast kernel and the flat path.

A one-layer, one-shard :class:`~repro.cache.tree.CacheTree` wraps a
single cache instance; it promises to be a *bit-identical* stand-in for
running that cache flat — same :class:`EventSimResult` floats and
arrays, same RNG stream consumption, same metrics export, same monitor
telemetry — across the routing x cache-policy grid the kernel
differential suite uses.  That contract is what lets tree scenarios
reuse every flat-path golden and bound without a tolerance.

Every tree runs on the batched kernel through its sequential cache
pass, and must match the legacy scheduler exactly, including the
per-layer monitor telemetry and traced ``layer``/``shard`` hit paths.
The suite also pins the branch choice: a tree of perfect caches is
per-shard statically resident, and the kernel's vectorized membership
test would honor only one resident set and skip the per-layer probe
accounting — such a tree must take the sequential pass instead.
"""

import functools

import numpy as np
import pytest

from repro.cache import CacheTree, PerfectCache, make_cache
from repro.cluster.hierarchy import (
    LayeredPartitioner,
    TwoChoiceLayerSelection,
)
from repro.core.notation import SystemParameters
from repro.obs import LoadMonitor, MetricsRegistry, MonitorConfig
from repro.obs.export import export_json
from repro.obs.trace import FlightRecorder, TraceConfig
from repro.sim import kernel
from repro.sim.batch import run_event_campaign
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution

#: The cache-policy grid, spanning recency, frequency and adaptive
#: families (perfect shards are covered by :class:`TestSupportsGate`).
POLICIES = ("lru", "fifo", "clock", "lfu", "arc", "sieve")

ROUTINGS = ("pin", "random")


def _params(**overrides):
    base = dict(n=20, m=500, c=10, d=3, rate=2000.0)
    base.update(overrides)
    return SystemParameters(**base)


def assert_results_identical(a, b):
    """Field-by-field exact equality of two EventSimResults."""
    for name in a.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, name
            assert (left == right).all(), name
        elif hasattr(left, "loads"):  # LoadVector
            assert (left.loads == right.loads).all(), name
            assert left.total_rate == right.total_rate, name
        elif isinstance(left, float) and np.isnan(left):
            assert np.isnan(right), name
        else:
            assert left == right, name


def _flat_cache(policy, capacity=10):
    return make_cache(policy, capacity)


def _degenerate_tree(policy, capacity=10):
    return CacheTree([[make_cache(policy, capacity)]])


def _two_layer_tree(policy="lru", capacity=10, seed=5):
    return CacheTree(
        [
            [make_cache(policy, capacity) for _ in range(2)],
            [make_cache(policy, capacity)],
        ],
        partitioner=LayeredPartitioner((2, 1), seed=seed),
        selection=TwoChoiceLayerSelection(),
    )


def _perfect_tree(capacity=10):
    return CacheTree(
        [
            [PerfectCache(capacity), PerfectCache(capacity, range(10, 20))],
            [PerfectCache(capacity)],
        ],
        partitioner=LayeredPartitioner((2, 1), seed=5),
    )


class TestDegenerateIdentity:
    """One layer, one shard == the wrapped cache, bit for bit."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_routing_policy_grid(self, routing, policy):
        flat = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=_flat_cache(policy), seed=11, routing=routing,
        )
        tree = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=_degenerate_tree(policy), seed=11, routing=routing,
        )
        for trial in (0, 1):
            assert_results_identical(
                flat.run(3000, trial=trial), tree.run(3000, trial=trial)
            )

    def test_fast_engine_matches(self):
        flat = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=_flat_cache("lru"), seed=9,
        )
        tree = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=_degenerate_tree("lru"), seed=9, engine="fast",
        )
        a, b = flat.run(3000), tree.run(3000)
        assert tree.last_engine == "fast"
        assert_results_identical(a, b)

    def test_monitor_telemetry_identical(self):
        params = _params()

        def run(cache):
            monitor = LoadMonitor(
                MonitorConfig.from_params(params, x=11, window=0.05)
            )
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(500, 11), seed=7,
                cache=cache, monitor=monitor,
            )
            result = sim.run(4000, trial=0)
            return result, monitor

        a, mon_a = run(_flat_cache("lru"))
        b, mon_b = run(_degenerate_tree("lru"))
        assert_results_identical(a, b)
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries
        # The degenerate tree declares no layers: flat telemetry stays
        # byte-identical, with no layer_hits / layers keys appended.
        assert all("layer_hits" not in w for w in mon_b.windows)
        assert all("layers" not in s for s in mon_b.summaries)

    def test_metrics_export_identical(self):
        def run(cache):
            registry = MetricsRegistry()
            sim = EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 100), seed=5,
                cache=cache, metrics=registry,
            )
            result = sim.run(3000)
            return result, export_json(metrics=registry)

        a, export_a = run(_flat_cache("lru"))
        b, export_b = run(_degenerate_tree("lru"))
        assert_results_identical(a, b)
        assert export_a == export_b

    def test_cache_stats_identical(self):
        flat, tree = _flat_cache("lru"), _degenerate_tree("lru")
        rng = np.random.default_rng(3)
        for key in rng.integers(0, 40, size=2000):
            assert flat.access(int(key)) == tree.access(int(key))
        shard = tree.layers[0][0]
        assert (flat.stats.hits, flat.stats.misses) == (
            tree.stats.hits, tree.stats.misses
        )
        assert (flat.stats.insertions, flat.stats.evictions) == (
            shard.stats.insertions, shard.stats.evictions
        )
        assert sorted(flat.keys()) == sorted(tree.keys())
        assert len(flat) == len(tree)


class TestCampaignIdentity:
    """Campaign plumbing: serial == workers=4, tree or flat."""

    def _campaign(self, factory, workers, layered=False):
        params = _params()
        monitor = LoadMonitor(
            MonitorConfig.from_params(params, x=11, window=0.05)
        )
        campaign = run_event_campaign(
            params,
            AdversarialDistribution(500, 11),
            trials=4,
            n_queries=2000,
            seed=17,
            cache_factory=factory,
            workers=workers,
            monitor=monitor,
        )
        assert (
            any("layers" in s for s in monitor.summaries) is layered
        )
        return campaign, monitor

    def _assert_campaigns_identical(self, serial, parallel):
        campaign_a, mon_a = serial
        campaign_b, mon_b = parallel
        for a, b in zip(campaign_a.results, campaign_b.results):
            assert_results_identical(a, b)
        assert (
            campaign_a.load_report.normalized_max_per_trial
            == campaign_b.load_report.normalized_max_per_trial
        ).all()
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries

    def test_degenerate_tree_campaign_matches_flat(self):
        flat = self._campaign(functools.partial(_flat_cache, "lru"), 1)
        tree = self._campaign(functools.partial(_degenerate_tree, "lru"), 1)
        self._assert_campaigns_identical(flat, tree)

    def test_degenerate_tree_serial_vs_parallel(self):
        factory = functools.partial(_degenerate_tree, "lru")
        self._assert_campaigns_identical(
            self._campaign(factory, 1), self._campaign(factory, 4)
        )

    def test_layered_tree_serial_vs_parallel(self):
        factory = functools.partial(_two_layer_tree, "lru")
        serial = self._campaign(factory, 1, layered=True)
        parallel = self._campaign(factory, 4, layered=True)
        self._assert_campaigns_identical(serial, parallel)
        # Layered windows actually carried per-layer telemetry.
        mon = serial[1]
        assert any(
            any(w.get("layer_hits", {}).values()) for w in mon.windows
        )


def _observed_run(cache, engine, seed=7, n_queries=4000):
    """One monitored, traced, metered run; returns every observable."""
    params = _params()
    monitor = LoadMonitor(MonitorConfig.from_params(params, x=11, window=0.05))
    recorder = FlightRecorder(TraceConfig(sample=0.5), seed=seed)
    registry = MetricsRegistry()
    sim = EventDrivenSimulator(
        params, AdversarialDistribution(500, 11), cache=cache, seed=seed,
        monitor=monitor, trace=recorder, metrics=registry, engine=engine,
    )
    results = [sim.run(n_queries, trial=trial) for trial in (0, 1)]
    return sim, results, monitor, recorder, export_json(metrics=registry)


def _assert_observed_identical(legacy, fast):
    sim_a, results_a, mon_a, rec_a, export_a = legacy
    sim_b, results_b, mon_b, rec_b, export_b = fast
    assert sim_b.last_engine == "fast"
    for a, b in zip(results_a, results_b):
        assert_results_identical(a, b)
    tree_a, tree_b = sim_a.cache, sim_b.cache
    assert tree_a.stats == tree_b.stats
    assert tree_a.entered == tree_b.entered
    assert tree_a.layer_hits == tree_b.layer_hits
    assert tree_a.shard_served == tree_b.shard_served
    for layer_a, layer_b in zip(tree_a.layers, tree_b.layers):
        for shard_a, shard_b in zip(layer_a, layer_b):
            assert shard_a.stats == shard_b.stats
            assert sorted(shard_a.keys()) == sorted(shard_b.keys())
    assert mon_a.windows == mon_b.windows
    assert mon_a.alerts == mon_b.alerts
    assert mon_a.summaries == mon_b.summaries
    assert rec_a.records == rec_b.records
    assert rec_a.suspects() == rec_b.suspects()
    assert export_a == export_b


class TestLayeredFastIdentity:
    """Layered trees on the fast kernel == the legacy scheduler."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_routing_policy_grid(self, routing, policy):
        def run(engine):
            sim = EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 100),
                cache=_two_layer_tree(policy), seed=11, routing=routing,
                engine=engine,
            )
            return sim, [sim.run(3000, trial=trial) for trial in (0, 1)]

        legacy, results_a = run("legacy")
        fast, results_b = run("fast")
        assert fast.last_engine == "fast"
        for a, b in zip(results_a, results_b):
            assert_results_identical(a, b)
        assert legacy.cache.entered == fast.cache.entered
        assert legacy.cache.shard_served == fast.cache.shard_served

    def test_observed_run_matches_legacy(self):
        legacy = _observed_run(_two_layer_tree("lru"), "legacy")
        fast = _observed_run(_two_layer_tree("lru"), "fast")
        _assert_observed_identical(legacy, fast)
        windows = fast[2].windows
        assert any(any(w.get("layer_hits", {}).values()) for w in windows)
        assert any("layer" in rec for rec in fast[3].records)


class TestSupportsGate:
    """The gate admits every tree; the branch choice keeps them off
    the vectorized membership test."""

    def test_perfect_tree_takes_sequential_pass(self, monkeypatch):
        tree = _perfect_tree()
        # The trap: every shard is statically resident, so the tree as a
        # whole reports STATIC_RESIDENCY=True...
        assert tree.STATIC_RESIDENCY is True
        assert tree.HIERARCHICAL is True
        sim = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), cache=tree, seed=1,
            engine="fast",
        )
        assert kernel.supports(sim)

        def vectorized(cache, keys):
            raise AssertionError("a tree must not take the np.isin branch")

        # ...and only the HIERARCHICAL hint keeps it off np.isin.
        monkeypatch.setattr(kernel, "_static_hits", vectorized)
        sim.run(1000)
        assert sim.last_engine == "fast"
        assert sum(tree.entered) >= 1000
        assert tree.stats.accesses == 1000

    def test_perfect_tree_matches_legacy(self):
        legacy = _observed_run(_perfect_tree(), "legacy")
        fast = _observed_run(_perfect_tree(), "fast")
        _assert_observed_identical(legacy, fast)
        # Both layers served hits, and the traced hits carry their path.
        assert all(fast[0].cache.layer_hits)
        windows = fast[2].windows
        assert any(w["layer_hits"]["1"] for w in windows)
        hits = [rec for rec in fast[3].records if rec["hit"]]
        assert hits and all("layer" in rec and "shard" in rec for rec in hits)

    def test_flat_perfect_cache_still_supported(self):
        sim = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), seed=1,
        )
        assert kernel.supports(sim)

    def test_degenerate_perfect_tree_matches_flat_legacy(self):
        # Degeneracy holds for static shards too: a 1x1 tree of the
        # default perfect cache on the fast kernel equals the flat
        # default on the legacy scheduler.
        flat = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), seed=2,
            engine="legacy",
        )
        tree = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11),
            cache=CacheTree([[PerfectCache(10)]]), seed=2, engine="fast",
        )
        a, b = flat.run(2000), tree.run(2000)
        assert tree.last_engine == "fast"
        assert_results_identical(a, b)
