"""Request-level event-driven simulation of the whole Figure-1 system.

Where the Monte-Carlo engine computes steady-state placements, this
engine replays individual requests through a *real* cache policy, a
partitioned cluster and per-node queues with capacities — so saturation,
drops and latency become observable rather than inferred.  The
cross-validation bench (``benchmarks/bench_eventsim.py``) confirms both
engines agree on the paper's headline quantity (the normalized max
load) within sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..cache.base import Cache
from ..cache.perfect import PerfectCache
from ..chaos.config import ChaosConfig
from ..chaos.schedule import NodeStateTracker
from ..cluster.cluster import Cluster
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError, SimulationError
from ..obs.tracer import as_tracer
from ..rng import RngFactory
from ..types import LoadVector
from ..workload.distributions import KeyDistribution
from . import kernel as _kernel
from .engine import EventScheduler
from .queueing import NodeServer
from .requests import Request

__all__ = ["EventDrivenSimulator", "EventSimResult"]


def _latency_stats(latencies: np.ndarray) -> Tuple[float, float, float, float]:
    """``(mean, p50, p95, p99)`` of a latency sample (``nan`` when empty)."""
    if not latencies.size:
        nan = float("nan")
        return nan, nan, nan, nan
    p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
    return float(latencies.mean()), float(p50), float(p95), float(p99)


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of one event-driven run.

    Attributes
    ----------
    duration:
        Time span covered by the arrivals (seconds).
    frontend_hits, backend_queries:
        Requests absorbed by the cache vs sent to nodes.
    served, dropped:
        Per-node outcome counts.
    arrival_loads:
        Per-node *offered* rates (arrivals/duration) — comparable to the
        Monte-Carlo engine's load vectors.
    normalized_max:
        Max offered node rate over ``R/n`` — the attack gain realised.
    drop_rate:
        Dropped back-end requests / back-end requests.
    latency_mean, latency_p50, latency_p95, latency_p99:
        Back-end response-time statistics (``nan`` when nothing was
        served).
    cache_hit_rate:
        Front-end hit fraction over the run.
    unavailable, stale_hits:
        Fault-injection outcomes (always 0 without ``chaos``): requests
        whose every replica was down when retries ran out, and the
        subset the front end answered stale.
    retries, failovers:
        Redispatch attempts scheduled by the retry policy, and the ones
        that landed on a surviving replica.
    crash_lost:
        Requests lost from node queues at crash instants (a subset of
        ``dropped``).
    failure_events:
        Schedule events applied during the run (0 without ``chaos``).
    """

    duration: float
    frontend_hits: int
    backend_queries: int
    served: np.ndarray
    dropped: np.ndarray
    arrival_loads: LoadVector
    normalized_max: float
    drop_rate: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    cache_hit_rate: float
    unavailable: int = 0
    stale_hits: int = 0
    retries: int = 0
    failovers: int = 0
    crash_lost: int = 0
    failure_events: int = 0

    def describe(self) -> str:
        """Human-readable summary block."""
        lines = [
            f"duration {self.duration:.3f}s, cache hit rate {self.cache_hit_rate:.3f}",
            f"back-end queries {self.backend_queries}, drop rate {self.drop_rate:.4f}",
            f"normalized max offered load {self.normalized_max:.3f}",
            (
                f"latency mean {self.latency_mean*1e3:.2f}ms, "
                f"p50 {self.latency_p50*1e3:.2f}ms, "
                f"p95 {self.latency_p95*1e3:.2f}ms, "
                f"p99 {self.latency_p99*1e3:.2f}ms"
            ),
        ]
        if self.failure_events:
            lines.append(
                f"chaos: {self.failure_events} failure events, "
                f"{self.retries} retries ({self.failovers} failovers), "
                f"{self.unavailable} unavailable "
                f"({self.stale_hits} served stale), "
                f"{self.crash_lost} lost to crashes"
            )
        return "\n".join(lines)


class EventDrivenSimulator:
    """Replay a query stream through cache -> cluster -> node queues.

    Parameters
    ----------
    params:
        System parameters; ``params.node_capacity`` (or
        ``node_capacity``) sets each node's service rate.  The paper's
        capacity story needs one: default is ``4 R / n`` — 4x headroom
        over a perfectly even split.
    distribution:
        The access pattern to replay.
    cache:
        Front-end policy; defaults to the paper's perfect cache pinned
        to the distribution's true top-``c``.
    cluster:
        Back-end; defaults to a random-table-partitioned cluster with a
        private seed.
    routing:
        How a replica is picked per request: ``"pin"`` (each key is
        pinned to the group member with fewest pinned keys at first
        sight — the theory model), ``"random"`` (uniform per query) or
        ``"least-outstanding"`` (per query, the group member with the
        shortest queue — what smart load-balancing proxies do).
    queue_limit, service:
        Forwarded to every :class:`~repro.sim.queueing.NodeServer`.
    seed:
        Root seed for arrivals, routing and the cluster secret.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; each :meth:`run`
        publishes deterministic counters (per-node forwarded / served /
        shed, cache hits/misses per policy, event counts) and simulated
        latency histograms.  The default ``None`` records nothing and
        leaves the run byte-identical to an uninstrumented one.
    tracer:
        Optional :class:`repro.obs.Tracer` recording wall-clock phase
        spans (``workload-gen`` -> ``event-loop`` -> ``report``).
    monitor:
        Optional :class:`repro.obs.LoadMonitor`; each :meth:`run` feeds
        it every request on the simulated clock (``begin_run`` ->
        ``record_request`` per arrival -> ``finalize``), producing
        sliding-window telemetry, the streaming gain estimate and
        alerts.  Like ``metrics``, ``None`` records nothing and leaves
        the run byte-identical to an unmonitored one.
    trace:
        Optional :class:`repro.obs.FlightRecorder`; each :meth:`run`
        captures a causal trace record per hash-sampled request (key,
        prefix bucket, client, replica group, node, cache-tree path,
        queue wait, service time, chaos annotations) into the
        recorder's bounded ring and feeds its streaming attack
        attribution engine.  The sampler is keyed-hash based and draws
        nothing from the engine RNG streams, so ``None`` (the default)
        and tracing-on runs produce bit-identical results, metrics and
        monitor telemetry.
    chaos:
        Optional :class:`repro.chaos.ChaosConfig`.  When set, each run
        replays a failure schedule (explicit, or synthesised per trial
        from the ``(seed, trial)`` stream): crashed nodes lose their
        queues and reject traffic, the front end fails over across
        surviving replicas under the config's
        :class:`~repro.chaos.RetryPolicy`, and requests with no
        surviving replica are counted unavailable (optionally served
        stale).  ``None`` keeps the run byte-identical to the pre-chaos
        engine — the default-off contract the observability sinks keep.
    engine:
        ``"legacy"`` (default) replays requests one event at a time
        through the binary-heap scheduler; ``"fast"`` routes runs
        through the batched struct-of-arrays kernel
        (:mod:`repro.sim.kernel`) whenever the configuration allows it
        — pin/random routing and no chaos, with any cache policy or
        cache tree — and falls back to the legacy loop otherwise
        (least-outstanding routing, chaos).  Both engines are
        bit-identical in results, metrics, monitor telemetry, trace
        records and RNG consumption; :attr:`last_engine` records which
        path the most recent :meth:`run` actually took.
    """

    def __init__(
        self,
        params: SystemParameters,
        distribution: KeyDistribution,
        cache: Optional[Cache] = None,
        cluster: Optional[Cluster] = None,
        routing: str = "pin",
        queue_limit: int = 64,
        service: str = "deterministic",
        node_capacity: Optional[float] = None,
        seed: Optional[int] = None,
        metrics=None,
        tracer=None,
        monitor=None,
        trace=None,
        chaos: Optional[ChaosConfig] = None,
        engine: str = "legacy",
    ) -> None:
        if distribution.m != params.m:
            raise ConfigurationError(
                f"distribution covers {distribution.m} keys, system serves {params.m}"
            )
        if routing not in ("pin", "random", "least-outstanding"):
            raise ConfigurationError(f"unknown routing {routing!r}")
        if engine not in ("legacy", "fast"):
            raise ConfigurationError(f"unknown engine {engine!r}")
        if params.rate <= 0:
            raise ConfigurationError("event-driven simulation needs a positive rate")
        self._params = params
        self._distribution = distribution
        self._routing = routing
        self._factory = RngFactory(seed)
        if cache is None:
            cache = PerfectCache.from_distribution(
                distribution.probabilities(), params.c
            )
        self._cache = cache
        if cluster is None:
            cluster = Cluster(
                n=params.n, d=params.d, m=params.m,
                seed=None if seed is None else seed + 1,
            )
        if cluster.n != params.n or cluster.d != params.d:
            raise ConfigurationError("cluster does not match params (n or d differ)")
        self._cluster = cluster
        capacity = node_capacity
        if capacity is None:
            capacity = params.node_capacity
        if capacity is None:
            capacity = 4.0 * params.rate / params.n
        self._capacity = capacity
        self._queue_limit = queue_limit
        self._service = service
        self._pins: Dict[int, int] = {}
        self._pin_counts = np.zeros(params.n, dtype=np.int64)
        self._metrics = metrics
        self._tracer = tracer
        self._monitor = monitor if monitor is not None and monitor.enabled else None
        self._trace = trace if trace is not None and trace.enabled else None
        if chaos is not None and not isinstance(chaos, ChaosConfig):
            raise ConfigurationError(
                f"chaos must be a ChaosConfig or None, got {type(chaos).__name__}"
            )
        self._chaos = chaos
        self._engine = engine
        #: Which path the most recent :meth:`run` took: ``"fast"`` when
        #: the batched kernel ran, ``"legacy"`` otherwise (including
        #: fast-engine runs that fell back).  ``None`` before any run.
        self.last_engine: Optional[str] = None

    @property
    def cache(self) -> Cache:
        """The front-end cache instance (inspect stats after a run)."""
        return self._cache

    @property
    def cluster(self) -> Cluster:
        """The back-end cluster."""
        return self._cluster

    @property
    def engine(self) -> str:
        """The engine this simulator was configured with."""
        return self._engine

    def _publish_run_metrics(
        self,
        n_queries: int,
        frontend_hits: int,
        backend: int,
        node_arrivals: np.ndarray,
        served: np.ndarray,
        dropped: np.ndarray,
        latencies: np.ndarray,
    ) -> None:
        """Flush one run's deterministic counters into the registry.

        Everything recorded here derives from simulated state (event
        counts and simulated clock latencies), so the values are
        identical regardless of wall-clock, host or worker count.
        """
        metrics = self._metrics
        metrics.counter("requests_total").inc(n_queries)
        metrics.counter("frontend_hits_total").inc(frontend_hits)
        metrics.counter("backend_queries_total").inc(backend)
        self._cache.publish_metrics(metrics)
        for node in range(self._params.n):
            label = str(node)
            if node_arrivals[node]:
                metrics.counter("node_forwarded_total", node=label).inc(
                    int(node_arrivals[node])
                )
            if served[node]:
                metrics.counter("node_served_total", node=label).inc(int(served[node]))
            if dropped[node]:
                metrics.counter("node_shed_total", node=label).inc(int(dropped[node]))
        if latencies.size:
            metrics.histogram("backend_latency_seconds").observe_many(latencies.tolist())

    def _route(
        self, key: int, servers, gen: np.random.Generator
    ) -> int:
        group = self._cluster.replica_group(key)
        if self._routing == "random":
            return int(group[int(gen.integers(0, group.size))])
        if self._routing == "least-outstanding":
            outstanding = [servers[int(node)].outstanding for node in group]
            return int(group[int(np.argmin(outstanding))])
        # "pin": sticky key -> node assignment, least pinned at first sight.
        pinned = self._pins.get(key)
        if pinned is None:
            counts = self._pin_counts[group]
            pinned = int(group[int(np.argmin(counts))])
            self._pins[key] = pinned
            self._pin_counts[pinned] += 1
        return pinned

    def run(self, n_queries: int, trial: int = 0) -> EventSimResult:
        """Replay ``n_queries`` Poisson arrivals; returns the result.

        ``trial`` selects an independent randomness stream so repeated
        runs of the same simulator are statistically independent.

        With ``engine="fast"`` the run goes through the batched kernel
        when :func:`repro.sim.kernel.supports` allows it; the result is
        bit-identical either way.
        """
        if n_queries < 1:
            raise SimulationError(f"need at least one query, got {n_queries}")
        if self._engine == "fast" and _kernel.supports(self):
            self.last_engine = "fast"
            return _kernel.run_fast(self, n_queries, trial)
        self.last_engine = "legacy"
        return self._run_legacy(n_queries, trial)

    def _run_legacy(self, n_queries: int, trial: int) -> EventSimResult:
        """The per-event scheduler path (also the fast engine's fallback)."""
        params = self._params
        tracer = as_tracer(self._tracer)
        arrivals_gen = self._factory.generator("eventsim-arrivals", trial=trial)
        routing_gen = self._factory.generator("eventsim-routing", trial=trial)
        with tracer.span("workload-gen"):
            keys = self._distribution.sample(n_queries, rng=arrivals_gen)
            gaps = arrivals_gen.exponential(1.0 / params.rate, size=n_queries)
            times = np.cumsum(gaps)
            duration = float(times[-1])

        scheduler = EventScheduler(metrics=self._metrics)
        servers = [
            NodeServer(
                node_id=i,
                service_rate=self._capacity,
                queue_limit=self._queue_limit,
                service=self._service,
                rng=self._factory.generator("eventsim-service", trial=trial * params.n + i),
            )
            for i in range(params.n)
        ]

        frontend_hits = 0
        backend = 0
        node_arrivals = np.zeros(params.n, dtype=np.int64)
        monitor = self._monitor
        chaos = self._chaos
        tracker: Optional[NodeStateTracker] = None
        schedule = None
        chaos_stats = {
            "unavailable": 0, "stale_hits": 0, "retries": 0,
            "failovers": 0, "events": 0,
        }
        fetched_keys: Set[int] = set()
        if chaos is not None:
            schedule = chaos.schedule_for(
                params.n, duration,
                rng=self._factory.generator("chaos-schedule", trial=trial),
            )
            tracker = NodeStateTracker(params.n)
        # A non-degenerate cache tree attributes each hit to the
        # (layer, shard) that served it; a degenerate (1-layer/1-shard)
        # tree declares no layers, so its monitor stream stays
        # byte-identical to the flat path — the differential contract.
        tree = (
            self._cache
            if getattr(self._cache, "HIERARCHICAL", False) else None
        )
        layered = tree is not None and not tree.degenerate
        if monitor is not None:
            monitor.begin_run(
                trial=trial, n=params.n, rate=params.rate,
                chaos=chaos is not None,
                layers=tree.widths if layered else None,
            )
        # The trace sampler is keyed-hash based (no RNG draws), so none
        # of this perturbs the arrival/routing/service streams above.
        recorder = self._trace
        trace_mask = None
        if recorder is not None:
            recorder.begin_run(
                trial=trial, m=params.m, chaos=chaos is not None,
                client_map=self._distribution.client_map(),
                group_of=self._cluster.replica_group,
            )
            trace_mask = recorder.sample_mask(keys)

        def make_failure_event(event):
            def fire(sched: EventScheduler, now: float) -> None:
                changed = tracker.apply(event)
                if not changed:
                    return
                chaos_stats["events"] += 1
                server = servers[event.node]
                if event.kind == "crash":
                    server.crash(now)
                    if monitor is not None:
                        monitor.record_node_event(now, event.node, up=False)
                elif event.kind == "recover":
                    server.recover(now)
                    if monitor is not None:
                        monitor.record_node_event(now, event.node, up=True)
                elif event.kind == "slow":
                    server.set_rate_factor(event.factor)
                else:
                    server.set_rate_factor(1.0)

            return fire

        def chaos_dispatch(
            sched: EventScheduler, now: float, key: int, t0: float,
            attempt: int, tried: Tuple[int, ...],
            traced: bool = False, index: int = 0,
        ) -> None:
            policy = chaos.retry
            if attempt == 1:
                node: Optional[int] = self._route(key, servers, routing_gen)
            else:
                # Having timed out, the front end asks membership for a
                # surviving replica it has not tried yet (group order:
                # deterministic, no extra RNG draws).
                node = None
                for cand in self._cluster.replica_group(key):
                    cand = int(cand)
                    if cand not in tried and tracker.is_up(cand):
                        node = cand
                        break
            if node is not None and tracker.is_up(node):
                node_arrivals[node] += 1
                if monitor is not None:
                    monitor.record_request(now, key, node)
                trace_rec = (
                    recorder.record_backend(now, key, index, node, attempts=attempt)
                    if traced else None
                )
                servers[node].arrive(
                    sched, Request(key=key, arrival_time=t0, trace=trace_rec)
                )
                fetched_keys.add(key)
                if attempt > 1:
                    chaos_stats["failovers"] += 1
                return
            exhausted = attempt >= policy.max_attempts
            if node is not None:
                tried = tried + (node,)
                exhausted = exhausted or len(tried) >= self._cluster.d
            if node is None or exhausted:
                chaos_stats["unavailable"] += 1
                if chaos.serve_stale and key in fetched_keys:
                    chaos_stats["stale_hits"] += 1
                if monitor is not None:
                    monitor.record_unavailable(now, key)
                if traced:
                    recorder.record_unavailable(now, key, index, attempts=attempt)
                return
            chaos_stats["retries"] += 1
            sched.schedule(
                now + policy.delay(attempt),
                lambda s, t: chaos_dispatch(
                    s, t, key, t0, attempt + 1, tried, traced, index
                ),
            )

        def make_arrival(key: int, t: float, traced: bool = False, index: int = 0):
            def fire(sched: EventScheduler, now: float) -> None:
                nonlocal frontend_hits, backend
                if self._cache.access(int(key)):
                    frontend_hits += 1
                    if monitor is not None:
                        if layered:
                            layer, shard = self._cache.last_hit
                            monitor.record_request(
                                now, int(key), layer=layer, shard=shard
                            )
                        else:
                            monitor.record_request(now, int(key))
                    if traced:
                        if layered:
                            layer, shard = self._cache.last_hit
                            recorder.record_hit(
                                now, int(key), index, layer=layer, shard=shard
                            )
                        else:
                            recorder.record_hit(now, int(key), index)
                    return
                backend += 1
                if tracker is not None:
                    chaos_dispatch(sched, now, int(key), now, 1, (), traced, index)
                    return
                node = self._route(int(key), servers, routing_gen)
                node_arrivals[node] += 1
                if monitor is not None:
                    monitor.record_request(now, int(key), node)
                trace_rec = (
                    recorder.record_backend(now, int(key), index, node)
                    if traced else None
                )
                servers[node].arrive(
                    sched, Request(key=int(key), arrival_time=now, trace=trace_rec)
                )

            return fire

        with tracer.span("event-loop"):
            if schedule is not None:
                # Failure events are scheduled first so that at equal
                # timestamps a crash lands before the colliding arrival
                # (the scheduler breaks ties by insertion order).
                for event in schedule:
                    scheduler.schedule(float(event.time), make_failure_event(event))
            if trace_mask is None:
                for key, t in zip(keys.tolist(), times.tolist()):
                    scheduler.schedule(float(t), make_arrival(key, float(t)))
            else:
                for index, (key, t) in enumerate(
                    zip(keys.tolist(), times.tolist())
                ):
                    scheduler.schedule(
                        float(t),
                        make_arrival(
                            key, float(t), bool(trace_mask[index]), index
                        ),
                    )
            scheduler.run()

        with tracer.span("report"):
            served = np.array([s.served for s in servers], dtype=np.int64)
            dropped = np.array([s.dropped for s in servers], dtype=np.int64)
            latencies = np.concatenate(
                [np.asarray(s.latencies) for s in servers]
            ) if served.sum() else np.empty(0)
            arrival_loads = LoadVector(
                loads=node_arrivals.astype(float) / duration, total_rate=params.rate
            )
            crash_lost = int(sum(s.crash_lost for s in servers))
            if self._metrics is not None:
                self._publish_run_metrics(
                    n_queries, frontend_hits, backend,
                    node_arrivals, served, dropped, latencies,
                )
                if chaos is not None:
                    metrics = self._metrics
                    metrics.counter("chaos_failure_events_total").inc(
                        chaos_stats["events"]
                    )
                    metrics.counter("chaos_retries_total").inc(chaos_stats["retries"])
                    metrics.counter("chaos_failovers_total").inc(
                        chaos_stats["failovers"]
                    )
                    metrics.counter("chaos_unavailable_total").inc(
                        chaos_stats["unavailable"]
                    )
                    metrics.counter("chaos_stale_hits_total").inc(
                        chaos_stats["stale_hits"]
                    )
                    metrics.counter("chaos_crash_lost_total").inc(crash_lost)
            suspects = None
            attribution_alerts = None
            if recorder is not None:
                trace_summary = recorder.finalize(duration)
                if trace_summary is not None:
                    suspects = trace_summary["suspects"]
                    attribution_alerts = trace_summary["alerts"]
            if monitor is not None:
                monitor.finalize(
                    duration,
                    suspects=suspects,
                    attribution_alerts=attribution_alerts,
                )
        latency_mean, latency_p50, latency_p95, latency_p99 = _latency_stats(
            latencies
        )
        return EventSimResult(
            duration=duration,
            frontend_hits=frontend_hits,
            backend_queries=backend,
            served=served,
            dropped=dropped,
            arrival_loads=arrival_loads,
            normalized_max=arrival_loads.normalized_max,
            drop_rate=float(dropped.sum() / backend) if backend else 0.0,
            latency_mean=latency_mean,
            latency_p50=latency_p50,
            latency_p95=latency_p95,
            latency_p99=latency_p99,
            cache_hit_rate=frontend_hits / n_queries,
            unavailable=chaos_stats["unavailable"],
            stale_hits=chaos_stats["stale_hits"],
            retries=chaos_stats["retries"],
            failovers=chaos_stats["failovers"],
            crash_lost=crash_lost,
            failure_events=chaos_stats["events"],
        )
