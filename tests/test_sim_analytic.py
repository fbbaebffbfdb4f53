"""Tests for the Monte-Carlo placement simulator and the trial runner."""

import numpy as np
import pytest

from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.analytic import (
    MonteCarloSimulator,
    best_achievable_gain,
    simulate_distribution,
    simulate_uniform_attack,
)
from repro.sim.config import SimulationConfig
from repro.sim.runner import run_trials
from repro.types import LoadVector
from repro.workload.distributions import UniformDistribution
from repro.workload.zipf import ZipfDistribution


def _each(trial_fn):
    """Block task running ``trial_fn`` once per generator."""
    return lambda trials, gens: [trial_fn(gen) for gen in gens]


class TestRunTrials:
    def test_aggregates_per_trial_gains(self):
        def trial(gen):
            return LoadVector(loads=np.array([1.0, float(gen.integers(1, 5))]), total_rate=4.0)

        report = run_trials(_each(trial), trials=50, seed=1, label="t")
        assert report.trials == 50
        assert report.worst_case >= report.mean

    def test_reproducible(self):
        def trial(gen):
            return LoadVector(loads=gen.random(4) + 0.1, total_rate=2.0)

        a = run_trials(_each(trial), trials=10, seed=9, label="t")
        b = run_trials(_each(trial), trials=10, seed=9, label="t")
        assert (a.normalized_max_per_trial == b.normalized_max_per_trial).all()

    def test_label_separates_campaigns(self):
        def trial(gen):
            return LoadVector(loads=gen.random(4) + 0.1, total_rate=2.0)

        a = run_trials(_each(trial), trials=10, seed=9, label="one")
        b = run_trials(_each(trial), trials=10, seed=9, label="two")
        assert not (a.normalized_max_per_trial == b.normalized_max_per_trial).all()

    def test_rejects_configuration_drift(self):
        calls = []

        def trial(gen):
            calls.append(1)
            rate = 2.0 if len(calls) == 1 else 3.0
            return LoadVector(loads=np.array([1.0]), total_rate=rate)

        with pytest.raises(SimulationError):
            run_trials(_each(trial), trials=2, seed=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(SimulationError):
            run_trials(lambda trials, gens: [], trials=0)


class TestUniformAttack:
    def _params(self):
        return SystemParameters(n=50, m=2000, c=20, d=3, rate=1000.0)

    def test_single_uncached_key_lands_on_one_node(self):
        params = self._params()
        report = simulate_uniform_attack(params, x=21, trials=10, seed=1)
        # One ball at rate R/21 on one node: gain = n/21 exactly.
        assert report.worst_case == pytest.approx(50.0 / 21.0)
        assert report.std == pytest.approx(0.0, abs=1e-12)

    def test_fully_cached_attack_is_zero(self):
        params = self._params()
        report = simulate_uniform_attack(params, x=20, trials=3, seed=1)
        assert report.worst_case == 0.0

    def test_case_structure_small_vs_large_cache(self):
        small = SystemParameters(n=50, m=2000, c=20, d=3, rate=1000.0)
        large = SystemParameters(n=50, m=2000, c=200, d=3, rate=1000.0)
        # Small cache: flooding x=c+1 is effective.
        gain_small = simulate_uniform_attack(small, 21, trials=10, seed=2).worst_case
        assert gain_small > 1.0
        # Large cache (> n k + 1 for any sane k): flooding x=c+1 is not.
        gain_large = simulate_uniform_attack(large, 201, trials=10, seed=2).worst_case
        assert gain_large < 1.0

    def test_decreasing_in_x_for_small_cache(self):
        params = self._params()
        gains = [
            simulate_uniform_attack(params, x, trials=15, seed=3).worst_case
            for x in (21, 100, 1000, 2000)
        ]
        assert gains[0] > gains[-1]

    def test_replication_helps(self):
        """d = 3 yields a lower worst case than d = 1 at the same x —
        the mechanism behind the whole paper."""
        base = dict(n=50, m=5000, c=0, rate=1000.0)
        x = 5000
        g1 = simulate_uniform_attack(
            SystemParameters(d=1, **base), x, trials=10, seed=4
        ).worst_case
        g3 = simulate_uniform_attack(
            SystemParameters(d=3, **base), x, trials=10, seed=4
        ).worst_case
        assert g3 < g1

    def test_finite_batch_mode_close_to_exact(self):
        params = self._params()
        exact = simulate_uniform_attack(params, 500, trials=10, seed=5).worst_case
        noisy = MonteCarloSimulator(
            SimulationConfig(
                params=params, trials=10, seed=5, exact_rates=False,
                queries_per_trial=200_000,
            )
        ).uniform_attack(500).worst_case
        assert noisy == pytest.approx(exact, rel=0.25)

    def test_rejects_bad_x(self):
        params = self._params()
        with pytest.raises(ConfigurationError):
            simulate_uniform_attack(params, 0, trials=1)
        with pytest.raises(ConfigurationError):
            simulate_uniform_attack(params, params.m + 1, trials=1)

    def test_metadata_recorded(self):
        params = self._params()
        report = simulate_uniform_attack(params, 30, trials=2, seed=1)
        assert report.metadata["x"] == 30
        assert report.metadata["n"] == 50


class TestDistributionAttack:
    def _params(self):
        return SystemParameters(n=50, m=2000, c=50, d=3, rate=1000.0)

    def test_uniform_distribution_gain_near_one(self):
        params = self._params()
        report = simulate_distribution(
            params, UniformDistribution(params.m), trials=10, seed=6
        )
        assert 0.8 < report.worst_case < 1.4

    def test_zipf_absorbed_by_cache(self):
        params = self._params()
        zipf = simulate_distribution(
            params, ZipfDistribution(params.m, 1.01), trials=10, seed=6
        )
        uniform = simulate_distribution(
            params, UniformDistribution(params.m), trials=10, seed=6
        )
        assert zipf.worst_case < uniform.worst_case

    def test_mismatched_key_space_rejected(self):
        params = self._params()
        with pytest.raises(SimulationError):
            simulate_distribution(params, UniformDistribution(99), trials=1)

    def test_equivalence_with_uniform_attack(self):
        """An AdversarialDistribution through the generic path gives the
        same statistics as the dedicated uniform-attack path."""
        from repro.workload.adversarial import AdversarialDistribution

        params = self._params()
        x = 300
        a = simulate_uniform_attack(params, x, trials=20, seed=7).mean
        b = simulate_distribution(
            params, AdversarialDistribution(params.m, x), trials=20, seed=7
        ).mean
        assert a == pytest.approx(b, rel=0.15)


class TestBestAchievable:
    def test_small_cache_prefers_small_flood(self):
        params = SystemParameters(n=50, m=2000, c=20, d=3, rate=1000.0)
        gain, x = best_achievable_gain(params, trials=10, seed=8)
        assert x == 21
        assert gain > 1.0

    def test_large_cache_prefers_full_sweep(self):
        params = SystemParameters(n=20, m=2000, c=300, d=3, rate=1000.0)
        gain, x = best_achievable_gain(params, trials=10, seed=8)
        assert x == params.m
        assert gain <= 1.0

    def test_gain_decreases_with_cache(self):
        gains = []
        for c in (10, 50, 150):
            params = SystemParameters(n=50, m=2000, c=c, d=3, rate=1000.0)
            gains.append(best_achievable_gain(params, trials=10, seed=8)[0])
        assert gains[0] > gains[1] > gains[2]
