"""The Monte-Carlo placement simulator — the paper's own methodology.

Section IV describes one simulation run as: pick ``x`` keys, query them
all at the same rate; the ``c`` most popular hit the front-end cache, so
``x - c`` keys reach the back end; each key's replica group is ``d``
random nodes and the key is served by one group member; record the load
of the most loaded node.  Repeat 200 times and report the max.

:func:`simulate_uniform_attack` implements exactly that.
:func:`simulate_distribution` generalises it to any popularity law
(needed for the uniform and Zipf(1.01) series of Figure 4), with the
perfect front-end cache absorbing the distribution's true top-``c``.

Both campaigns hand :func:`~repro.sim.runner.run_trials` a *block
task*: it receives a contiguous range of trials and their generators
(every trial serially, one range per worker otherwise).  Chaos-free
``least-loaded`` campaigns run that range as one lockstep block: every
trial draws its rates and replica groups from its own stream, in the
per-trial order, into a
:class:`~repro.ballsbins.allocation.ReplicaGroupStream`, and one greedy
step then places ball ``k`` of every trial of the block at once.  Each
trial's load vector is bit-identical to
:meth:`~repro.cluster.selection.LeastLoadedKeyPinning.node_loads` over
that trial alone (see ``docs/PERFORMANCE.md``, "Trial-axis lockstep").
Other selection rules and chaos campaigns run their per-trial
:meth:`MonteCarloSimulator.uniform_attack_trial` /
:meth:`MonteCarloSimulator.distribution_trial` inside the same block
dispatch.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..ballsbins.allocation import (
    ReplicaGroupStream,
    lockstep_block_size,
    lockstep_greedy,
    sample_replica_groups,
)
from ..cluster.failures import degrade_groups, sample_failures
from ..cluster.selection import LeastLoadedKeyPinning, make_selection_policy
from ..core.notation import SystemParameters
from ..exceptions import ConfigurationError, SimulationError
from ..obs.tracer import as_tracer
from ..types import LoadReport, LoadVector
from ..workload.distributions import KeyDistribution
from .config import SimulationConfig
from .runner import run_trials

__all__ = [
    "MonteCarloSimulator",
    "simulate_uniform_attack",
    "simulate_distribution",
    "best_achievable_gain",
]


class MonteCarloSimulator:
    """Reusable facade over the placement simulator.

    Holds a :class:`~repro.sim.config.SimulationConfig` and exposes the
    per-experiment entry points; the module-level functions are
    single-shot conveniences over the same code.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self._config = config
        self._selection = make_selection_policy(config.selection)
        if config.chaos is not None and config.selection != "least-loaded":
            raise ConfigurationError(
                "chaos-enabled Monte-Carlo trials re-pin keys over surviving "
                "replicas with the least-loaded rule; "
                f"selection={config.selection!r} is not supported with chaos"
            )
        # Chaos-free least-loaded campaigns place their trials in
        # lockstep; every other campaign places trial by trial.
        self._lockstep = (
            config.chaos is None and type(self._selection) is LeastLoadedKeyPinning
        )

    @property
    def config(self) -> SimulationConfig:
        """The campaign configuration."""
        return self._config

    # -- the paper's experiment -------------------------------------------

    def uniform_attack_trial(
        self, x: int, gen: np.random.Generator
    ) -> LoadVector:
        """One trial of the x-key uniform attack (Section IV, one run)."""
        params = self._config.params
        balls = self._uniform_balls(x)
        if balls <= 0:
            # Every queried key is cached: the back end sees nothing.
            return self._idle_vector()
        tracer = as_tracer(self._config.tracer)
        # Phase spans are wall-clock and process-local: they record in
        # serial runs; with workers > 1 the worker's tracer copy is
        # discarded (metric determinism is unaffected — spans never
        # touch the registry).
        with tracer.span("workload"):
            rates = self._uncached_rates(x, balls, gen)
        with tracer.span("partition"):
            groups = sample_replica_groups(balls, params.n, params.d, rng=gen)
        with tracer.span("allocation"):
            loads = self._node_loads(groups, rates, gen)
        return self._vector(loads)

    def uniform_attack_block(
        self, x: int, gens: Sequence[np.random.Generator]
    ) -> List[LoadVector]:
        """The x-key uniform attack's trials for ``gens``, one per stream.

        Bit-identical to :meth:`uniform_attack_trial` per generator; a
        chaos-free least-loaded campaign runs them in lockstep.
        """
        if not self._lockstep:
            return [self.uniform_attack_trial(x, gen) for gen in gens]
        balls = self._uniform_balls(x)
        if balls <= 0:
            return [self._idle_vector() for _ in gens]
        if not self._config.exact_rates:
            return self._lockstep_trials(
                gens, balls, trial_rates=partial(self._uncached_rates, x, balls)
            )
        with as_tracer(self._config.tracer).span("workload"):
            rates = self._uncached_rates(x, balls, None)
        return self._lockstep_trials(gens, balls, rates=rates)

    def _uniform_balls(self, x: int) -> int:
        params = self._config.params
        if not 1 <= x <= params.m:
            raise ConfigurationError(f"need 1 <= x <= m={params.m}, got x={x}")
        return x - params.c

    def _node_loads(
        self, groups: np.ndarray, rates: np.ndarray, gen: np.random.Generator
    ) -> np.ndarray:
        """Place one trial's keys on nodes, degrading groups first when
        chaos is on.

        The chaos path samples a failure set of the renewal process's
        steady-state size from the *trial's own* generator (so chaos
        campaigns stay bit-identical across worker counts), strips the
        failed nodes from every replica group, and re-runs the greedy
        least-loaded placement over the survivors — unavailable keys
        contribute no load, surviving keys concentrate on fewer nodes.
        """
        params = self._config.params
        chaos = self._config.chaos
        if chaos is None:
            return self._selection.node_loads(groups, rates, params.n, rng=gen)
        failed = sample_failures(
            params.n, chaos.steady_state_failed_fraction, rng=gen
        )
        degraded = degrade_groups(groups, failed, params.n)
        return degraded.least_loaded_loads(rates, params.n)

    def _lockstep_trials(
        self,
        gens: Sequence[np.random.Generator],
        balls: int,
        rates: Optional[np.ndarray] = None,
        trial_rates: Optional[Callable[[np.random.Generator], np.ndarray]] = None,
    ) -> List[LoadVector]:
        """Greedy least-loaded placement of every trial in ``gens``.

        Every trial draws its rates (``trial_rates``, unless one
        ``rates`` vector serves every trial) and then its groups from
        its own generator, in the per-trial order; its groups become a
        :class:`~repro.ballsbins.allocation.ReplicaGroupStream`.  The
        trials run as one lockstep block, or — when each has its own
        rates — in blocks of
        :func:`~repro.ballsbins.allocation.lockstep_block_size` trials.
        """
        params = self._config.params
        tracer = as_tracer(self._config.tracer)
        size = max(1, len(gens))
        if trial_rates is not None:
            size = lockstep_block_size(balls)
        vectors: List[LoadVector] = []
        for lo in range(0, len(gens), size):
            block_gens = gens[lo : lo + size]
            weights = rates
            if trial_rates is not None:
                weights = np.empty((balls, len(block_gens)))
            streams = []
            for t, gen in enumerate(block_gens):
                if trial_rates is not None:
                    with tracer.span("workload"):
                        weights[:, t] = trial_rates(gen)
                with tracer.span("partition"):
                    streams.append(ReplicaGroupStream(balls, params.n, params.d, gen))
            with tracer.span("allocation"):
                loads = lockstep_greedy(streams, weights)
            vectors.extend(self._vector(row) for row in loads)
        return vectors

    def uniform_attack(self, x: int) -> LoadReport:
        """Multi-trial x-key uniform attack; the unit of Figs. 3 and 5.

        The block task is a ``partial`` over a top-level function (not
        a lambda) so ``workers > 1`` can ship it to worker processes.
        """
        cfg = self._config
        return run_trials(
            partial(_uniform_attack_block_task, self, x),
            trials=cfg.trials,
            seed=cfg.seed,
            label=f"uniform-attack-x{x}",
            metadata={
                "x": x, "selection": cfg.selection,
                **_param_meta(cfg.params), **_chaos_meta(cfg),
            },
            workers=cfg.workers,
            metrics=cfg.metrics,
            tracer=cfg.tracer,
            monitor=cfg.monitor,
        )

    def _uncached_rates(
        self, x: int, balls: int, gen: Optional[np.random.Generator]
    ) -> np.ndarray:
        params = self._config.params
        per_key = params.rate / x
        if self._config.exact_rates:
            return np.full(balls, per_key)
        # Finite-batch mode: sample how many of the batch's queries hit
        # each uncached key, then convert counts back to rates.
        batch = self._config.queries_per_trial
        counts = gen.multinomial(batch, np.full(x, 1.0 / x))[params.c :]
        return counts.astype(float) * (params.rate / batch)

    # -- arbitrary popularity laws (Figure 4) ------------------------------

    def distribution_trial(
        self, distribution: KeyDistribution, gen: np.random.Generator
    ) -> LoadVector:
        """One trial under an arbitrary popularity law.

        The perfect front end absorbs the distribution's true top-``c``
        keys; every other positive-rate key becomes a ball with its
        steady-state rate as weight.
        """
        params = self._config.params
        rates = self._distribution_rates(distribution)
        balls = int(rates.size)
        if balls == 0:
            return self._idle_vector()
        tracer = as_tracer(self._config.tracer)
        with tracer.span("partition"):
            groups = sample_replica_groups(balls, params.n, params.d, rng=gen)
        with tracer.span("allocation"):
            loads = self._node_loads(groups, rates, gen)
        return self._vector(loads)

    def distribution_block(
        self, distribution: KeyDistribution, gens: Sequence[np.random.Generator]
    ) -> List[LoadVector]:
        """The distribution's trials for ``gens``, one per stream.

        Bit-identical to :meth:`distribution_trial` per generator; a
        chaos-free least-loaded campaign runs them in lockstep.
        """
        if not self._lockstep:
            return [self.distribution_trial(distribution, gen) for gen in gens]
        rates = self._distribution_rates(distribution)
        if rates.size == 0:
            return [self._idle_vector() for _ in gens]
        return self._lockstep_trials(gens, int(rates.size), rates=rates)

    def _distribution_rates(self, distribution: KeyDistribution) -> np.ndarray:
        """Steady-state rates of the keys the perfect front end misses."""
        params = self._config.params
        if distribution.m != params.m:
            raise SimulationError(
                f"distribution covers {distribution.m} keys, system serves {params.m}"
            )
        with as_tracer(self._config.tracer).span("workload"):
            probs = distribution.probabilities()
            cached = distribution.top_keys(params.c)
            uncached_mask = probs > 0
            uncached_mask[cached] = False
            return probs[uncached_mask] * params.rate

    def distribution_attack(self, distribution: KeyDistribution) -> LoadReport:
        """Multi-trial run of an arbitrary access pattern."""
        cfg = self._config
        return run_trials(
            partial(_distribution_block_task, self, distribution),
            trials=cfg.trials,
            seed=cfg.seed,
            label=f"distribution-{distribution.name}",
            metadata={
                "distribution": distribution.name,
                "selection": cfg.selection,
                **_param_meta(cfg.params),
                **_chaos_meta(cfg),
            },
            workers=cfg.workers,
            metrics=cfg.metrics,
            tracer=cfg.tracer,
            monitor=cfg.monitor,
        )

    def _vector(self, loads: np.ndarray) -> LoadVector:
        return LoadVector(loads=loads, total_rate=self._config.params.rate)

    def _idle_vector(self) -> LoadVector:
        return self._vector(np.zeros(self._config.params.n))

    # -- the adversary's endpoint choice (Figure 5) -------------------------

    def best_achievable(self) -> Tuple[float, int, LoadReport]:
        """Best worst-case gain over the two candidate attacks.

        Per the case analysis the optimum is an endpoint: ``x = c + 1``
        or ``x = m``.  Returns ``(gain, x, report)`` for the better one,
        mirroring how the paper's Figure 5 search works ("either
        querying a number of keys that is one more than the cache size
        or querying all keys").
        """
        params = self._config.params
        candidates = []
        small = min(params.c + 1, params.m)
        candidates.append(small)
        if params.m != small:
            candidates.append(params.m)
        best: Optional[Tuple[float, int, LoadReport]] = None
        for x in candidates:
            report = self.uniform_attack(x)
            if best is None or report.worst_case > best[0]:
                best = (report.worst_case, x, report)
        return best


def _param_meta(params: SystemParameters) -> dict:
    return {"n": params.n, "m": params.m, "c": params.c, "d": params.d}


def _chaos_meta(cfg: SimulationConfig) -> dict:
    """Chaos provenance for a campaign's report metadata.

    ``effective_d`` is the steady-state mean surviving choice
    ``d * (1 - f)``; :func:`repro.sim.runner.run_trials` forwards it to
    the monitor so chaos campaigns get degraded-bound tracking too.
    """
    if cfg.chaos is None:
        return {}
    fraction = cfg.chaos.steady_state_failed_fraction
    return {
        "failed_fraction": fraction,
        "effective_d": cfg.params.d * (1.0 - fraction),
    }


def _uniform_attack_block_task(
    sim: "MonteCarloSimulator",
    x: int,
    trials: range,
    gens: Sequence[np.random.Generator],
) -> List[LoadVector]:
    """Spawn-safe top-level wrapper for the uniform-attack block."""
    del trials
    return sim.uniform_attack_block(x, gens)


def _distribution_block_task(
    sim: "MonteCarloSimulator",
    distribution: KeyDistribution,
    trials: range,
    gens: Sequence[np.random.Generator],
) -> List[LoadVector]:
    """Spawn-safe top-level wrapper for the distribution block."""
    del trials
    return sim.distribution_block(distribution, gens)


def simulate_uniform_attack(
    params: SystemParameters,
    x: int,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    exact_rates: bool = True,
    workers: int = 1,
    metrics=None,
) -> LoadReport:
    """One-call version of the paper's x-key attack experiment.

    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) is
    forwarded to the campaign runner, which records its deterministic
    aggregates in the parent — attaching a registry (e.g. a perf
    profiler's) never changes the report.
    """
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=params,
            trials=trials,
            seed=seed,
            selection=selection,
            exact_rates=exact_rates,
            workers=workers,
            metrics=metrics,
        )
    )
    return sim.uniform_attack(x)


def simulate_distribution(
    params: SystemParameters,
    distribution: KeyDistribution,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    workers: int = 1,
) -> LoadReport:
    """One-call version of the arbitrary-pattern experiment (Figure 4)."""
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=params, trials=trials, seed=seed, selection=selection,
            workers=workers,
        )
    )
    return sim.distribution_attack(distribution)


def best_achievable_gain(
    params: SystemParameters,
    trials: int = 200,
    seed: Optional[int] = None,
    selection: str = "least-loaded",
    workers: int = 1,
) -> Tuple[float, int]:
    """Best worst-case gain and the ``x`` achieving it (Figure 5 unit)."""
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=params, trials=trials, seed=seed, selection=selection,
            workers=workers,
        )
    )
    gain, x, _ = sim.best_achievable()
    return gain, x
