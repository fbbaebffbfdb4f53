"""Differential suite: ``engine="fast"`` must equal ``engine="legacy"``.

The batched kernel (:mod:`repro.sim.kernel`) promises *bit-identical*
``EventSimResult`` objects — same floats, same arrays, same RNG stream
consumption — plus identical metrics exports, monitor telemetry and
final cache state, for every configuration.  Every registered cache
policy runs on the kernel (static caches through the vectorized
membership test, the rest through the sequential cache pass); only
least-outstanding routing and chaos schedules fall back to the legacy
loop, which makes them trivially identical.  The tests below also pin
*which* path ran via ``sim.last_engine``, so the fast-path cases cannot
silently degrade into vacuous fallback-vs-legacy comparisons.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import FrequencyAdmissionCache, make_cache
from repro.cache.lru import LRUCache
from repro.chaos.config import ChaosConfig
from repro.core.notation import SystemParameters
from repro.obs import LoadMonitor, MetricsRegistry, MonitorConfig
from repro.obs.export import export_json
from repro.scenario.registry import REGISTRY
from repro.sim import kernel
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution
from repro.workload.zipf import ZipfDistribution


#: Every registered flat cache policy; ``tinylfu`` is the admission
#: filter around an LRU (trees have their own suite).
POLICIES = (
    "2q", "arc", "clock", "fifo", "lfu", "lfu-aging", "lru", "perfect",
    "random", "sieve", "slru", "tinylfu",
)


def _cache(policy, capacity):
    if policy == "tinylfu":
        return FrequencyAdmissionCache(LRUCache(capacity))
    return make_cache(policy, capacity)


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


def _pair(dist_factory, engine_expected, trials=(0, 1), n_queries=3000, **kwargs):
    """Run legacy and fast simulators over ``trials``; compare each run.

    Builds a fresh distribution per simulator so stateful distributions
    cannot leak between the two, and runs several trials on the *same*
    simulator instance so persistent state (pin stickiness) is covered.
    """
    legacy = EventDrivenSimulator(
        _params(), dist_factory(), seed=11, engine="legacy", **kwargs
    )
    fast = EventDrivenSimulator(
        _params(), dist_factory(), seed=11, engine="fast", **kwargs
    )
    for trial in trials:
        a = legacy.run(n_queries, trial=trial)
        b = fast.run(n_queries, trial=trial)
        assert fast.last_engine == engine_expected
        assert_results_identical(a, b)
    return legacy, fast


class TestFastPathIdentity:
    """Configurations the batched kernel handles natively."""

    @pytest.mark.parametrize("routing", ["pin", "random"])
    @pytest.mark.parametrize("service", ["deterministic", "exponential"])
    def test_routing_service_grid(self, routing, service):
        _pair(
            lambda: AdversarialDistribution(500, 11), "fast",
            routing=routing, service=service,
        )

    def test_lru_cache_fast_identity(self):
        legacy = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=LRUCache(10), seed=9,
        )
        fast = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 100),
            cache=LRUCache(10), seed=9, engine="fast",
        )
        a, b = legacy.run(3000), fast.run(3000)
        assert fast.last_engine == "fast"
        assert_results_identical(a, b)
        assert legacy.cache.stats == fast.cache.stats
        assert list(legacy.cache.keys()) == list(fast.cache.keys())

    def test_zipf_workload(self):
        _pair(lambda: ZipfDistribution(500, 1.01), "fast")

    def test_uniform_all_miss_heavy(self):
        _pair(lambda: UniformDistribution(500), "fast")

    def test_saturating_config_with_drops(self):
        params = _params()
        legacy = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=3,
            node_capacity=1.1 * params.even_split, queue_limit=4,
        )
        fast = EventDrivenSimulator(
            params, AdversarialDistribution(500, 11), seed=3,
            node_capacity=1.1 * params.even_split, queue_limit=4,
            engine="fast",
        )
        a, b = legacy.run(8000), fast.run(8000)
        assert a.drop_rate > 0  # the comparison must exercise drops
        assert fast.last_engine == "fast"
        assert_results_identical(a, b)

    def test_pin_state_persists_identically_across_runs(self):
        legacy, fast = _pair(
            lambda: AdversarialDistribution(500, 40), "fast", trials=(0, 1, 2)
        )
        assert legacy._pins == fast._pins
        assert (legacy._pin_counts == fast._pin_counts).all()

    def test_monitor_telemetry_identical(self):
        params = _params()

        def run(engine):
            monitor = LoadMonitor(
                MonitorConfig.from_params(params, x=11, window=0.05)
            )
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(500, 11), seed=7,
                monitor=monitor, engine=engine,
            )
            result = sim.run(4000, trial=0)
            return sim, result, monitor

        sim_a, a, mon_a = run("legacy")
        sim_b, b, mon_b = run("fast")
        assert sim_b.last_engine == "fast"
        assert_results_identical(a, b)
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries

    def test_metrics_export_identical(self):
        def run(engine):
            registry = MetricsRegistry()
            sim = EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 11), seed=5,
                metrics=registry, engine=engine,
            )
            result = sim.run(3000)
            return sim, result, export_json(metrics=registry)

        sim_a, a, export_a = run("legacy")
        sim_b, b, export_b = run("fast")
        assert sim_b.last_engine == "fast"
        assert_results_identical(a, b)
        assert export_a == export_b


class TestCachePolicyIdentity:
    """Every cache policy: fast == legacy in every observable."""

    def test_grid_covers_every_registered_policy(self):
        names = {entry.name for entry in REGISTRY.entries("cache")}
        assert names - {"tree"} == set(POLICIES)

    @staticmethod
    def _run(engine, policy, capacity, routing, service):
        params = _params()
        registry = MetricsRegistry()
        monitor = LoadMonitor(
            MonitorConfig.from_params(params, x=11, window=0.05)
        )
        sim = EventDrivenSimulator(
            params, ZipfDistribution(500, 1.01),
            cache=_cache(policy, capacity), seed=21, routing=routing,
            service=service, metrics=registry, monitor=monitor,
            engine=engine,
        )
        results = [sim.run(2000, trial=trial) for trial in (0, 1)]
        return sim, results, registry, monitor

    def _assert_identical(self, policy, capacity, routing, service):
        legacy, results_a, registry_a, mon_a = self._run(
            "legacy", policy, capacity, routing, service
        )
        fast, results_b, registry_b, mon_b = self._run(
            "fast", policy, capacity, routing, service
        )
        assert fast.last_engine == "fast"
        for a, b in zip(results_a, results_b):
            assert_results_identical(a, b)
        assert legacy.cache.stats == fast.cache.stats
        assert sorted(legacy.cache.keys()) == sorted(fast.cache.keys())
        assert export_json(metrics=registry_a) == export_json(metrics=registry_b)
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries

    @pytest.mark.parametrize("service", ["deterministic", "exponential"])
    @pytest.mark.parametrize("routing", ["pin", "random"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_grid(self, policy, routing, service):
        self._assert_identical(policy, 10, routing, service)

    @pytest.mark.parametrize("routing", ["pin", "random"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_capacity(self, policy, routing):
        self._assert_identical(policy, 0, routing, "deterministic")


class TestFallbackIdentity:
    """Configurations that must take the legacy path under engine="fast"."""

    def test_least_outstanding_falls_back(self):
        _pair(
            lambda: AdversarialDistribution(500, 11), "legacy",
            routing="least-outstanding",
        )

    def test_chaos_falls_back(self):
        def run(engine):
            sim = EventDrivenSimulator(
                _params(), UniformDistribution(500), seed=13,
                chaos=ChaosConfig(failure_rate=2.0, mttr=0.2),
                engine=engine,
            )
            return sim, sim.run(4000)

        sim_a, a = run("legacy")
        sim_b, b = run("fast")
        assert sim_b.last_engine == "legacy"
        assert a.failure_events > 0  # chaos actually happened
        assert_results_identical(a, b)

    def test_supports_gate(self):
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=1)
        assert kernel.supports(sim)
        assert kernel.supports(
            EventDrivenSimulator(
                _params(), UniformDistribution(500), cache=LRUCache(10), seed=1
            )
        )
        assert not kernel.supports(
            EventDrivenSimulator(
                _params(), UniformDistribution(500),
                routing="least-outstanding", seed=1,
            )
        )
        assert not kernel.supports(
            EventDrivenSimulator(
                _params(), UniformDistribution(500), seed=1,
                chaos=ChaosConfig(failure_rate=0.5, mttr=0.1),
            )
        )


@st.composite
def _configs(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=50, max_value=800))
    c = draw(st.integers(min_value=0, max_value=min(m, 50)))
    d = draw(st.integers(min_value=1, max_value=min(4, n)))
    x = draw(st.integers(min_value=1, max_value=m))
    policy = draw(st.sampled_from(("default",) + POLICIES))
    routing = draw(st.sampled_from(["pin", "random"]))
    service = draw(st.sampled_from(["deterministic", "exponential"]))
    queue_limit = draw(st.integers(min_value=0, max_value=16))
    headroom = draw(st.floats(min_value=0.5, max_value=6.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_queries = draw(st.integers(min_value=1, max_value=1500))
    return (n, m, c, d, x, policy, routing, service, queue_limit, headroom,
            seed, n_queries)


@pytest.mark.slow
class TestHypothesisDifferential:
    @given(_configs())
    @settings(max_examples=40, deadline=None)
    def test_random_configurations(self, config):
        (n, m, c, d, x, policy, routing, service, queue_limit, headroom,
         seed, n_queries) = config
        params = SystemParameters(n=n, m=m, c=c, d=d, rate=1000.0)
        kwargs = dict(
            routing=routing, service=service, queue_limit=queue_limit,
            node_capacity=headroom * params.even_split, seed=seed,
        )

        def cache():
            # "default" leaves the simulator's perfect top-c cache.
            return None if policy == "default" else _cache(policy, c)

        legacy = EventDrivenSimulator(
            params, AdversarialDistribution(m, x), cache=cache(), **kwargs
        )
        fast = EventDrivenSimulator(
            params, AdversarialDistribution(m, x), cache=cache(),
            engine="fast", **kwargs
        )
        for trial in (0, 1):
            a = legacy.run(n_queries, trial=trial)
            b = fast.run(n_queries, trial=trial)
            assert fast.last_engine == "fast"
            assert_results_identical(a, b)
        assert legacy.cache.stats == fast.cache.stats
