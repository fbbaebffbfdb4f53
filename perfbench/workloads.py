"""The benchmark's three workloads, built from a seed through the public API.

Each workload has the same shape:

- ``build(seed)`` makes the inputs (distribution tables, system shape)
  once; it is the set-up the benchmark times separately.
- ``unit(state, probe)`` builds one unit's components untimed, then
  times the calls that do the unit's work and returns a :class:`Unit`:
  how many trials it completed, the host seconds they took, one digest
  and conservation verdict per check unit, and the modelled statistics.
  ``probe`` (a :class:`layers.LayerProbe`) is ``None`` for untraced
  units.

Every unit of a run repeats the same seeded work, so its outputs must
be identical from unit to unit and equal to the reference digest
recorded for ``(workload, seed)``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.strategies import OptimalAdversary
from repro.cache.lru import LRUCache
from repro.cache.perfect import PerfectCache
from repro.core.notation import SystemParameters
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import LoadMonitor, MonitorConfig
from repro.obs.trace import FlightRecorder, TraceConfig
from repro.sim.analytic import MonteCarloSimulator
from repro.sim.config import SimulationConfig
from repro.sim.eventsim import EventDrivenSimulator
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution
from repro.workload.mixture import MixtureDistribution
from repro.workload.zipf import ZipfDistribution

#: Figure 4's n = 1000 column (Section IV): c = 100, m = 1e5, d = 3, R = 1e5.
MC_PARAMS = SystemParameters(n=1000, m=100_000, c=100, d=3, rate=1e5)
#: Trials per Monte-Carlo campaign (the paper uses 200).
MC_TRIALS = 64
#: The event workloads' system: c = 200, the rest as above.
EVENT_PARAMS = SystemParameters(n=1000, m=100_000, c=200, d=3, rate=1e5)
#: Requests replayed per event trial: one simulated second at R = 1e5.
EVENT_REQUESTS = 100_000
#: Share of the stealth mixture that is the x = c + 1 subset flood.
FLOOD_SHARE = 0.15
#: Section IV's Zipf exponent and folded bound constant k.
ZIPF_S = 1.01
PAPER_K = 1.2
#: Relative tolerance of the floating-point conservation checks.
RTOL = 1e-9


@dataclass
class Unit:
    """One timed unit of a workload and its output check."""

    trials: int
    #: ``(start, end)`` perf_counter times of each timed call.
    intervals: List[Tuple[float, float]]
    #: One digest per check unit (a campaign, or an event trial) and
    #: whether that unit passed its conservation checks.
    digests: List[str]
    ok: List[bool]
    model: Dict[str, float]
    engine: Optional[str] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Host seconds of the timed calls."""
        return sum(end - start for start, end in self.intervals)


def digest(payload) -> str:
    """Short, exact digest of plain data (floats via their repr)."""
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


# -- paper-mc -----------------------------------------------------------------


def build_paper_mc(seed: int) -> dict:
    params = MC_PARAMS
    campaigns = {
        "uniform": UniformDistribution(params.m),
        "zipf": ZipfDistribution(params.m, ZIPF_S),
        "adversarial": OptimalAdversary(params, k=PAPER_K).distribution(),
    }
    expected = {}
    for name, dist in campaigns.items():
        probs = dist.probabilities()
        cached = dist.top_keys(params.c)
        uncached = probs > 0
        uncached[cached] = False
        expected[name] = {
            "balls": int(uncached.sum()),
            "rate": float(probs[uncached].sum() * params.rate),
        }
    return {"seed": seed, "campaigns": campaigns, "expected": expected}


def unit_paper_mc(state: dict, probe=None) -> Unit:
    """One round: the three Figure-4 campaigns, ``MC_TRIALS`` trials each."""
    params = MC_PARAMS
    tracer = probe.tracer if probe is not None else None
    trials = 0
    intervals: List[Tuple[float, float]] = []
    digests: List[str] = []
    passed: List[bool] = []
    worst = 0.0
    hit_ratios = []
    for name, dist in state["campaigns"].items():
        registry = MetricsRegistry()
        sim = MonteCarloSimulator(SimulationConfig(
            params=params, trials=MC_TRIALS, seed=state["seed"],
            metrics=registry, tracer=tracer,
        ))
        trials += MC_TRIALS
        start = time.perf_counter()
        try:
            report = sim.distribution_attack(dist)
        except Exception:  # a raising campaign fails all its trials
            intervals.append((start, time.perf_counter()))
            digests.append("raised")
            passed.append(False)
            continue
        intervals.append((start, time.perf_counter()))
        expected = state["expected"][name]
        per_trial = np.asarray(report.normalized_max_per_trial, dtype=float)
        load_sum = _node_load_sums(registry, params.n)
        total = MC_TRIALS * expected["rate"]
        ok = (
            per_trial.shape == (MC_TRIALS,)
            and bool(np.all(np.isfinite(per_trial)))
            # Node loads, summed over trials, add up to trials x the
            # uncached rate.
            and abs(float(load_sum.sum()) - total) <= RTOL * total
            # The most loaded node carries at least the mean load.
            and bool(np.all(per_trial >= (1 - RTOL) * expected["rate"] / params.rate))
        )
        passed.append(ok)
        digests.append(digest({
            "campaign": name,
            "normalized_max": per_trial,
            "node_load_sum": load_sum,
            "total_rate": report.total_rate,
        }))
        worst = max(worst, float(per_trial.max()))
        hit_ratios.append(1.0 - expected["rate"] / params.rate)
    model = {
        "model.normalized_max": worst,
        "model.hit_ratio": float(np.mean(hit_ratios)) if hit_ratios else 0.0,
        "model.drop_rate": 0.0,
        "model.latency_p99_s": 0.0,
    }
    return Unit(trials, intervals, digests, passed, model)


def _node_load_sums(registry: MetricsRegistry, n: int) -> np.ndarray:
    """Per-node load summed over the campaign's trials."""
    sums = np.zeros(n)
    for counter in registry.counters():
        if counter.name == "node_load_sum":
            sums[int(dict(counter.labels)["node"])] = counter.value
    return sums


# -- event-observed and event-lru -----------------------------------------------


def build_event(seed: int) -> dict:
    params = EVENT_PARAMS
    mixture = MixtureDistribution([
        (1.0 - FLOOD_SHARE, ZipfDistribution(params.m, ZIPF_S)),
        (FLOOD_SHARE, AdversarialDistribution(params.m, params.c + 1, client_id=1)),
    ])
    # Build the sampling tables now, so no timed trial pays for them.
    mixture.sample(1, rng=np.random.default_rng(0))
    return {"seed": seed, "mixture": mixture, "probs": mixture.probabilities()}


def _observed_components(state: dict, tracer=None) -> dict:
    params = EVENT_PARAMS
    cache = PerfectCache.from_distribution(state["probs"], params.c)
    monitor = LoadMonitor(MonitorConfig.from_params(params, x=params.c + 1))
    recorder = FlightRecorder(TraceConfig(sample=0.01), seed=state["seed"])
    sim = EventDrivenSimulator(
        params, state["mixture"], cache=cache, routing="pin",
        service="deterministic", seed=state["seed"], tracer=tracer,
        monitor=monitor, trace=recorder, engine="fast",
    )
    return {"sim": sim, "cache": cache, "monitor": monitor, "recorder": recorder}


def _lru_components(state: dict, tracer=None) -> dict:
    params = EVENT_PARAMS
    cache = LRUCache(params.c)
    sim = EventDrivenSimulator(
        params, state["mixture"], cache=cache, routing="pin",
        service="exponential", seed=state["seed"], tracer=tracer, engine="fast",
    )
    return {"sim": sim, "cache": cache, "monitor": None, "recorder": None}


def _event_unit(components_of: Callable[..., dict], state: dict, probe=None) -> Unit:
    parts = components_of(state, tracer=probe.tracer if probe is not None else None)
    if probe is not None:
        probe.instrument_event(parts)
    sim = parts["sim"]
    start = time.perf_counter()
    try:
        result = sim.run(EVENT_REQUESTS, trial=0)
    except Exception:  # a raising trial fails the output check
        return Unit(1, [(start, time.perf_counter())], ["raised"], [False], {},
                    sim.last_engine)
    interval = (start, time.perf_counter())
    ok, payload = _check_event(result, parts)
    model = {
        "model.normalized_max": float(result.normalized_max),
        "model.hit_ratio": float(result.cache_hit_rate),
        "model.drop_rate": float(result.drop_rate),
        "model.latency_p99_s": float(result.latency_p99),
    }
    cache = parts["cache"]
    counts = {
        "cache.accesses": cache.stats.accesses,
        "cache.evictions": cache.stats.evictions,
        # Every arrival fires one event, every served request a completion.
        "sim.events": EVENT_REQUESTS + int(result.served.sum()),
    }
    if parts["monitor"] is not None:
        counts["obs.monitor.records"] = parts["monitor"].summaries[-1]["requests"]
    if parts["recorder"] is not None:
        counts["obs.trace.sampled"] = parts["recorder"].sampled
    return Unit(1, [interval], [digest(payload)], [ok], model, sim.last_engine, counts)


def _check_event(result, parts) -> tuple:
    """Conservation checks on one event trial, and the digest payload."""
    served = np.asarray(result.served)
    dropped = np.asarray(result.dropped)
    arrivals = np.rint(
        np.asarray(result.arrival_loads.loads) * result.duration
    ).astype(np.int64)
    backend = result.backend_queries
    stats = parts["cache"].stats
    ok = (
        result.frontend_hits + backend == EVENT_REQUESTS
        and int(served.sum() + dropped.sum()) == backend
        and int(arrivals.sum()) == backend
        and stats.hits == result.frontend_hits
        and stats.misses == backend
    )
    payload = {
        "duration": result.duration,
        "frontend_hits": result.frontend_hits,
        "backend_queries": backend,
        "served": served,
        "dropped": dropped,
        "arrivals": arrivals,
        "normalized_max": result.normalized_max,
        "drop_rate": result.drop_rate,
        "latency": [result.latency_mean, result.latency_p50,
                    result.latency_p95, result.latency_p99],
        "cache_hit_rate": result.cache_hit_rate,
    }
    monitor, recorder = parts["monitor"], parts["recorder"]
    if monitor is not None:
        summary = monitor.summaries[-1]
        ok = ok and (
            summary["requests"] == EVENT_REQUESTS
            and summary["hits"] == result.frontend_hits
            and summary["backend"] == backend
        )
        payload["monitor"] = {
            "summaries": monitor.summaries,
            "windows": monitor.windows,
            "alerts": monitor.alerts,
        }
    if recorder is not None:
        ok = ok and recorder.seen == EVENT_REQUESTS
        payload["trace"] = {
            "summaries": recorder.summaries,
            "records": recorder.records,
            "sampled": recorder.sampled,
        }
    return bool(ok), payload


def unit_event_observed(state: dict, probe=None) -> Unit:
    return _event_unit(_observed_components, state, probe)


def unit_event_lru(state: dict, probe=None) -> Unit:
    return _event_unit(_lru_components, state, probe)


#: name -> (build, unit, components-or-None); the third entry lets the
#: set-up measurement build one trial's components as well.
WORKLOADS = {
    "paper-mc": (build_paper_mc, unit_paper_mc, None),
    "event-observed": (build_event, unit_event_observed, _observed_components),
    "event-lru": (build_event, unit_event_lru, _lru_components),
}


def setup(name: str, seed: int) -> dict:
    """Everything a run builds before its first timed trial."""
    build, _, components = WORKLOADS[name]
    state = build(seed)
    if components is not None:
        components(state)
    return state
