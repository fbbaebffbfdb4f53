"""Differential tests: trial-axis lockstep vs per-trial greedy placement.

The Monte-Carlo campaigns place a block of trials in lockstep
(:func:`repro.ballsbins.allocation.lockstep_greedy`): one gather,
row-wise ``argmin`` and scatter per ball across every trial of the
block.  The contract is exact: row ``t`` of a block equals
:meth:`LeastLoadedKeyPinning.node_loads` over trial ``t`` alone, bit for
bit, and a campaign's reports, metrics exports and monitor records do
not depend on the worker count or on how trials split into blocks.
"""

import json
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ballsbins.allocation as allocation
from repro.ballsbins.allocation import (
    LockstepStore,
    _duplicate_rows,
    d_choice_allocate,
    lockstep_block_size,
    lockstep_greedy,
    lockstep_store_dtype,
    sample_replica_groups,
)
from repro.ballsbins.occupancy import max_occupancy_trials
from repro.chaos import ChaosConfig
from repro.cluster.selection import LeastLoadedKeyPinning
from repro.core.notation import SystemParameters
from repro.exceptions import ConfigurationError, SimulationError
from repro.obs.export import export_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import LoadMonitor, MonitorConfig
from repro.rng import RngFactory, as_generator
from repro.sim.analytic import MonteCarloSimulator
from repro.sim.config import SimulationConfig
from repro.sim.parallel import map_blocks
from repro.sim.runner import run_trials
from repro.workload.zipf import ZipfDistribution

POLICY = LeastLoadedKeyPinning()


def _sorted_duplicate_rows(choices):
    """The sort-based duplicate mask the pairwise compares replaced."""
    return (np.diff(np.sort(choices, axis=1), axis=1) == 0).any(axis=1)


def _sorted_sample_replica_groups(balls, bins, d, seed):
    """Replica-group sampling with the sort-based duplicate check."""
    gen = as_generator(seed, "replica-groups")
    if balls == 0:
        return np.zeros((0, d), dtype=np.int64)
    choices = gen.integers(0, bins, size=(balls, d))
    if d > 1:
        for _ in range(64):
            dup_mask = _sorted_duplicate_rows(choices)
            n_dup = int(dup_mask.sum())
            if n_dup == 0:
                break
            choices[dup_mask] = gen.integers(0, bins, size=(n_dup, d))
    return choices.astype(np.int64)


class TestDuplicateCheck:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairwise_mask_equals_sorted_mask(self, d, bins, seed):
        choices = np.random.default_rng(seed).integers(0, bins, size=(300, d))
        np.testing.assert_array_equal(
            _duplicate_rows(choices), _sorted_duplicate_rows(choices)
        )

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_seeded_output_unchanged(self, d, balls, seed):
        bins = 2 * d + 3  # few bins: many rows are resampled
        groups = sample_replica_groups(balls, bins, d, rng=seed)
        np.testing.assert_array_equal(
            groups, _sorted_sample_replica_groups(balls, bins, d, seed)
        )
        assert groups.dtype == np.int64


def _block_and_reference(n, d, trials, balls, rate_mode, seed):
    """A filled store and the per-trial ``node_loads`` of its trials."""
    rng = np.random.default_rng(seed)
    if rate_mode == "zeros":
        shared = np.zeros(balls)
    elif rate_mode == "ties":
        shared = rng.integers(1, 3, size=balls).astype(float)
    elif rate_mode == "shared":
        shared = rng.random(balls) * 10
    else:  # "per-trial"
        shared = None
    block = LockstepStore(
        balls, trials, d, n, weights=shared, trial_weights=shared is None
    )
    reference = []
    for _ in range(trials):
        if d <= n and rng.random() < 0.5:
            groups = sample_replica_groups(balls, n, d, rng=rng)
        else:
            groups = rng.integers(0, n, size=(balls, d))
        rates = rng.random(balls) * 10 if shared is None else None
        reference.append(
            POLICY.node_loads(groups, shared if rates is None else rates, n)
        )
        block.add(groups, rates)
    return block, reference


def _assert_bit_identical(loads, reference):
    assert loads.shape == (len(reference), reference[0].size)
    for row, expected in zip(loads, reference):
        assert row.dtype == expected.dtype
        assert row.tobytes() == expected.tobytes()


@pytest.fixture(params=["lockstep", "auto"])
def step(request, monkeypatch):
    """``lockstep`` forces the vectorized step even for one-trial blocks;
    ``auto`` keeps the reference loop for narrow blocks."""
    if request.param == "lockstep":
        monkeypatch.setattr(allocation, "_LOCKSTEP_MIN_TRIALS", 1)
    return request.param


class TestKernelMatchesNodeLoads:
    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=4),
        trials=st.integers(min_value=1, max_value=6),
        balls=st.integers(min_value=0, max_value=300),
        rate_mode=st.sampled_from(["zeros", "ties", "shared", "per-trial"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        min_trials=st.sampled_from([1, allocation._LOCKSTEP_MIN_TRIALS]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_blocks(self, n, d, trials, balls, rate_mode, seed, min_trials):
        block, reference = _block_and_reference(n, d, trials, balls, rate_mode, seed)
        with mock.patch.object(allocation, "_LOCKSTEP_MIN_TRIALS", min_trials):
            loads = block.greedy()
        _assert_bit_identical(loads, reference)

    @pytest.mark.parametrize("balls", [0, 1])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_degenerate_ball_counts(self, step, balls, trials):
        block, reference = _block_and_reference(7, 3, trials, balls, "per-trial", 4)
        _assert_bit_identical(block.greedy(), reference)

    def test_ties_go_to_the_first_candidate(self, step):
        block = LockstepStore(4, 1, 3, 5, weights=np.ones(4))
        block.add(np.tile([3, 1, 4], (4, 1)))
        loads = block.greedy()[0]
        np.testing.assert_array_equal(loads, [0, 1, 0, 2, 1])

    def test_slab_boundaries(self, step):
        # More balls than one widened slab, so the kernel crosses slabs.
        balls = allocation._LOCKSTEP_SLAB * 2 + 17
        block, reference = _block_and_reference(50, 3, 3, balls, "per-trial", 8)
        _assert_bit_identical(block.greedy(), reference)

    def test_wide_node_ids_use_a_wider_store(self, step):
        n = 40_000
        assert lockstep_store_dtype(n) == np.int32
        assert lockstep_store_dtype(32_767) == np.int16
        rng = np.random.default_rng(3)
        block = LockstepStore(500, 2, 3, n, weights=rng.random(500))
        reference = []
        for _ in range(2):
            # Ids above the int16 range must survive the compact store.
            groups = rng.integers(32_000, n, size=(500, 3))
            reference.append(POLICY.node_loads(groups, block.weights, n))
            block.add(groups)
        assert block.array.dtype == np.int32
        _assert_bit_identical(block.greedy(), reference)

    def test_unit_weights_match_d_choice_allocate(self, step):
        rng = np.random.default_rng(11)
        store = LockstepStore(1000, 4, 3, 64)
        expected = []
        for _ in range(4):
            groups = sample_replica_groups(1000, 64, 3, rng=rng)
            store.add(groups)
            expected.append(d_choice_allocate(1000, 64, 3, choices=groups))
        _assert_bit_identical(store.greedy(), expected)
        _assert_bit_identical(lockstep_greedy(store.array, 4, 64), expected)


class TestStoreValidation:
    def test_rejects_out_of_range_ids(self):
        store = LockstepStore(2, 1, 2, 5, weights=np.ones(2))
        with pytest.raises(ConfigurationError, match=r"\[0, bins\)"):
            store.add(np.array([[0, 5], [1, 2]]))
        with pytest.raises(ConfigurationError, match=r"\[0, bins\)"):
            store.add(np.array([[0, -1], [1, 2]]))

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            LockstepStore(2, 1, 2, 5, weights=np.array([1.0, -1.0]))
        store = LockstepStore(2, 1, 2, 5, trial_weights=True)
        with pytest.raises(ConfigurationError, match="non-negative"):
            store.add(np.array([[0, 1], [1, 2]]), np.array([1.0, -1.0]))
        with pytest.raises(ConfigurationError, match="one entry per ball"):
            store.add(np.array([[0, 1], [1, 2]]), np.ones(3))

    def test_rejects_wrong_shape_and_overfill(self):
        store = LockstepStore(2, 1, 2, 5, weights=np.ones(2))
        with pytest.raises(ConfigurationError, match="shape"):
            store.add(np.array([[0, 1, 2], [1, 2, 3]]))
        with pytest.raises(ConfigurationError, match="trial_weights"):
            store.add(np.array([[0, 1], [1, 2]]), np.ones(2))
        store.add(np.array([[0, 1], [1, 2]]))
        with pytest.raises(ConfigurationError, match="full"):
            store.add(np.array([[0, 1], [1, 2]]))

    def test_rejects_shared_and_per_trial_weights(self):
        with pytest.raises(ConfigurationError, match="not both"):
            LockstepStore(2, 1, 2, 5, weights=np.ones(2), trial_weights=True)

    def test_partial_block_is_refused(self):
        store = LockstepStore(2, 2, 2, 5, weights=np.ones(2))
        store.add(np.array([[0, 1], [1, 2]]))
        with pytest.raises(ConfigurationError, match="1 of its 2"):
            store.greedy()

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="at least one trial"):
            LockstepStore(2, 0, 2, 5)
        with pytest.raises(ConfigurationError, match="at least one trial"):
            lockstep_greedy(np.zeros((2, 0), dtype=np.int16), 0, 5)


class TestBlockSize:
    def test_paper_shape_fits_the_budget(self):
        size = lockstep_block_size(99_900, 1000, 3)
        assert size == 27
        assert size * 99_900 * 3 * 2 <= allocation.LOCKSTEP_BUDGET_BYTES

    def test_per_trial_weights_shrink_the_block(self):
        assert lockstep_block_size(99_900, 1000, 3, weight_bytes=8) == 11
        assert lockstep_block_size(10**9, 1000, 3) == 1


PARAMS = SystemParameters(n=50, m=3000, c=40, d=3, rate=1e4)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the block budget so campaigns split into uneven blocks."""
    def use(trials_per_block, balls, weight_bytes=0):
        per_trial = balls * (3 * 2 + weight_bytes)
        monkeypatch.setattr(
            allocation, "LOCKSTEP_BUDGET_BYTES", trials_per_block * per_trial
        )
        assert lockstep_block_size(balls, PARAMS.n, 3, weight_bytes) == trials_per_block
    return use


def _per_trial(sim, method, arg, trials, seed, label):
    """Per-trial reference vectors, each from its own stream."""
    factory = RngFactory(seed)
    return [
        getattr(sim, method)(arg, factory.generator(label, trial=t))
        for t in range(trials)
    ]


def _assert_same_vectors(vectors, reference):
    assert len(vectors) == len(reference)
    for vector, expected in zip(vectors, reference):
        assert vector.loads.tobytes() == expected.loads.tobytes()
        assert vector.total_rate == expected.total_rate


class TestCampaignBlocks:
    """Block methods equal the per-trial methods, whatever the split."""

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("x", [30, 41, 800])  # x <= c, x = c + 1, x >> c
    def test_uniform_attack_blocks(self, small_blocks, exact, x):
        # Blocks of 4, 4 and 3 trials: the last one is narrow.
        small_blocks(4, max(1, x - PARAMS.c), weight_bytes=0 if exact else 8)
        sim = MonteCarloSimulator(
            SimulationConfig(params=PARAMS, trials=11, seed=2, exact_rates=exact)
        )
        factory = RngFactory(2)
        gens = [factory.generator("u", trial=t) for t in range(11)]
        _assert_same_vectors(
            sim.uniform_attack_block(x, gens),
            _per_trial(sim, "uniform_attack_trial", x, 11, 2, "u"),
        )

    def test_distribution_blocks(self, small_blocks):
        dist = ZipfDistribution(PARAMS.m, 1.01)
        small_blocks(4, PARAMS.m - PARAMS.c)  # blocks of 4, 4 and 2 trials
        sim = MonteCarloSimulator(SimulationConfig(params=PARAMS, trials=10, seed=6))
        factory = RngFactory(6)
        gens = [factory.generator("z", trial=t) for t in range(10)]
        _assert_same_vectors(
            sim.distribution_block(dist, gens),
            _per_trial(sim, "distribution_trial", dist, 10, 6, "z"),
        )

    @pytest.mark.parametrize(
        "config",
        [
            dict(selection="random-pin"),
            dict(selection="round-robin"),
            dict(chaos=ChaosConfig(failure_rate=0.02, mttr=5.0)),
        ],
        ids=["random-pin", "round-robin", "chaos"],
    )
    def test_per_trial_campaigns_unchanged(self, config):
        # These campaigns keep their per-trial call inside the block
        # dispatch; the report equals a plain per-trial campaign's.
        sim = MonteCarloSimulator(
            SimulationConfig(params=PARAMS, trials=5, seed=9, **config)
        )
        report = sim.uniform_attack(300)
        reference = run_trials(
            partial(_uniform_trials, sim, 300), trials=5, seed=9,
            label="uniform-attack-x300",
        )
        assert (
            report.normalized_max_per_trial.tobytes()
            == reference.normalized_max_per_trial.tobytes()
        )


def _uniform_trials(sim, x, trials, gens):
    return [sim.uniform_attack_trial(x, gen) for gen in gens]


def _campaign(workers, method, arg, exact=True):
    metrics = MetricsRegistry()
    monitor = LoadMonitor(MonitorConfig.from_params(PARAMS, x=41))
    sim = MonteCarloSimulator(
        SimulationConfig(
            params=PARAMS, trials=9, seed=17, exact_rates=exact,
            workers=workers, metrics=metrics, monitor=monitor,
        )
    )
    report = getattr(sim, method)(arg)
    return (
        report.normalized_max_per_trial.tobytes(),
        report.metadata,
        json.dumps(export_json(metrics), sort_keys=True),
        [json.dumps(r, sort_keys=True) for r in monitor.events.records],
    )


class TestWorkerIdentity:
    """Serial and parallel campaigns split trials into different blocks;
    every output must still be identical."""

    @pytest.mark.parametrize(
        "method,arg,exact,balls",
        [
            ("distribution_attack", ZipfDistribution(PARAMS.m, 1.01), True, 2960),
            ("uniform_attack", 600, True, 560),
            ("uniform_attack", 600, False, 560),
        ],
        ids=["distribution", "uniform-exact", "uniform-finite-batch"],
    )
    def test_serial_equals_two_workers(self, small_blocks, method, arg, exact, balls):
        # Serially the 9 trials split 4 + 4 + 1; two workers get 5 and
        # 4 trials and split them 4 + 1 and 4.
        small_blocks(4, balls, weight_bytes=0 if exact else 8)
        serial = _campaign(1, method, arg, exact)
        parallel = _campaign(2, method, arg, exact)
        assert serial == parallel
        assert serial[3]  # the monitor recorded every trial


def _first_draws(trials, gens):
    return [(t, float(gen.random())) for t, gen in zip(trials, gens)]


def _short_block(trials, gens):
    return _first_draws(trials, gens)[1:]


class TestMapBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ranges_see_the_per_trial_streams(self, workers):
        draws = map_blocks(_first_draws, 7, seed=4, label="b", workers=workers)
        factory = RngFactory(4)
        assert draws == [
            (t, float(factory.generator("b", trial=t).random())) for t in range(7)
        ]

    def test_rejects_a_wrong_outcome_count(self):
        with pytest.raises(SimulationError, match="2 outcomes for 3 trials"):
            map_blocks(_short_block, 3, seed=1)

    def test_rejects_unpicklable_tasks_in_parallel(self):
        with pytest.raises(SimulationError, match="picklable"):
            map_blocks(lambda trials, gens: gens, 4, seed=1, workers=2)


class TestCalibrationLockstep:
    @pytest.mark.parametrize(
        "balls,bins,d,trials",
        [(600, 30, 2, 7), (0, 10, 3, 3), (1, 10, 3, 2), (900, 12, 4, 5)],
    )
    def test_maxima_equal_per_trial_allocations(
        self, monkeypatch, balls, bins, d, trials
    ):
        # Two-trial blocks: 7 and 5 trials leave a partial last block.
        monkeypatch.setattr(
            allocation, "LOCKSTEP_BUDGET_BYTES", max(1, 2 * balls * d * 2)
        )
        maxima = max_occupancy_trials(balls, bins, d, trials, seed=21)
        factory = RngFactory(21)
        expected = [
            d_choice_allocate(
                balls, bins, d, rng=factory.generator("ballsbins", trial=t)
            ).max()
            for t in range(trials)
        ]
        np.testing.assert_array_equal(maxima, expected)
        assert maxima.dtype == np.int64

    def test_invalid_arguments_still_raise(self):
        with pytest.raises(ConfigurationError):
            max_occupancy_trials(10, 5, 0, 2, seed=1)
        with pytest.raises(ConfigurationError):
            max_occupancy_trials(-1, 5, 2, 2, seed=1)
