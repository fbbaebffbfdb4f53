"""Differential tests: trial-axis lockstep vs per-trial greedy placement.

The Monte-Carlo campaigns place a block of trials in lockstep
(:func:`repro.ballsbins.allocation.lockstep_greedy`): one gather,
row-wise ``argmin`` and scatter per ball across every trial of the
block, with each trial's candidates replayed slab by slab from its
:class:`~repro.ballsbins.allocation.ReplicaGroupStream`.  The contract
is exact: row ``t`` of a block equals
:meth:`LeastLoadedKeyPinning.node_loads` over
``sample_replica_groups`` of trial ``t`` alone, bit for bit, every
trial's generator ends in the same state, and a campaign's reports,
metrics exports and monitor records do not depend on the worker count
or on where slabs and blocks split.
"""

import copy
import json
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ballsbins.allocation as allocation
from repro.ballsbins.allocation import (
    ReplicaGroupStream,
    _duplicate_rows,
    d_choice_allocate,
    lockstep_block_size,
    lockstep_greedy,
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


NUMPY_CONTRACT = (
    "numpy contract broken: Generator.integers(0, n, size=(k, d)) drawn in "
    "chunks no longer equals one draw of all rows (values and final "
    "bit_generator.state).  ReplicaGroupStream relies on it to replay "
    "replica groups; a failure here would otherwise show up as digest "
    "drift in every lockstep campaign."
)


class TestChunkedDrawContract:
    """The numpy behaviour the replica-group stream is built on."""

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        bins=st.sampled_from([2, 5, 7, 1000, 65_537, 2**31 - 1, 2**32 - 1]),
        d=st.integers(min_value=1, max_value=4),
        chunks=st.lists(st.integers(min_value=0, max_value=257), max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_chunked_integers_equal_one_draw(self, seed, bins, d, chunks):
        one = np.random.default_rng(seed)
        parts = np.random.default_rng(seed)
        assert isinstance(one.bit_generator, np.random.PCG64)
        whole = one.integers(0, bins, size=(sum(chunks), d))
        pieces = [parts.integers(0, bins, size=(k, d)) for k in chunks]
        joined = np.concatenate(pieces) if pieces else whole
        assert np.array_equal(joined, whole), NUMPY_CONTRACT
        assert parts.bit_generator.state == one.bit_generator.state, NUMPY_CONTRACT

    def test_odd_counts_leave_the_same_state(self):
        # An odd number of 32-bit draws leaves half a 64-bit word
        # buffered in the bit generator; the next chunk must use it.
        one = np.random.default_rng(2013)
        parts = np.random.default_rng(2013)
        whole = one.integers(0, 1000, size=(1 + 3 + 5, 3))
        pieces = [parts.integers(0, 1000, size=(k, 3)) for k in (1, 3, 5)]
        assert np.array_equal(np.concatenate(pieces), whole), NUMPY_CONTRACT
        assert parts.bit_generator.state == one.bit_generator.state, NUMPY_CONTRACT
        assert one.bit_generator.state["has_uint32"] == 1


def _streams_and_reference(n, d, trials, balls, rate_mode, seed, fixed_groups):
    """Per-trial streams, the block's weights and each trial's
    ``node_loads``; the streams' generators end where the reference
    generators do.  About half of the trials read fixed with-replacement
    rows instead, which may list a bin twice."""
    rng = np.random.default_rng(seed)
    if rate_mode == "zeros":
        weights = np.zeros(balls)
    elif rate_mode == "ties":
        weights = rng.integers(1, 3, size=balls).astype(float)
    elif rate_mode == "shared":
        weights = rng.random(balls) * 10
    else:  # "per-trial"
        weights = rng.random((balls, trials)) * 10
    streams, reference = [], []
    for t in range(trials):
        with_replacement = bool(rng.random() < 0.5)
        gen = np.random.default_rng(int(rng.integers(2**63)))
        if with_replacement:
            groups = gen.integers(0, n, size=(balls, d))
            streams.append(fixed_groups(groups, n))
        else:
            twin = copy.deepcopy(gen)
            streams.append(ReplicaGroupStream(balls, n, d, gen))
            groups = sample_replica_groups(balls, n, d, rng=twin)
            assert gen.bit_generator.state == twin.bit_generator.state
        own = weights[:, t] if weights.ndim == 2 else weights
        reference.append(POLICY.node_loads(groups, own, n))
    return streams, weights, reference


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
        cells=st.sampled_from([1, 13, allocation._LOCKSTEP_SLAB_CELLS]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_blocks(
        self, n, d, trials, balls, rate_mode, seed, min_trials, cells, fixed_groups
    ):
        d = min(d, n)
        streams, weights, reference = _streams_and_reference(
            n, d, trials, balls, rate_mode, seed, fixed_groups
        )
        with mock.patch.multiple(
            allocation, _LOCKSTEP_MIN_TRIALS=min_trials, _LOCKSTEP_SLAB_CELLS=cells
        ):
            loads = lockstep_greedy(streams, weights)
        _assert_bit_identical(loads, reference)

    @pytest.mark.parametrize("balls", [0, 1])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_degenerate_ball_counts(self, step, balls, trials, fixed_groups):
        streams, weights, reference = _streams_and_reference(
            7, 3, trials, balls, "per-trial", 4, fixed_groups
        )
        _assert_bit_identical(lockstep_greedy(streams, weights), reference)

    def test_ties_go_to_the_first_candidate(self, step, fixed_groups):
        block = [fixed_groups(np.tile([3, 1, 4], (4, 1)), 5)]
        loads = lockstep_greedy(block, np.ones(4))[0]
        np.testing.assert_array_equal(loads, [0, 1, 0, 2, 1])

    def test_slab_boundaries(self, step, fixed_groups):
        # Many slabs of a few dozen rows, so the kernel crosses slabs.
        balls = 3 * 41 * 2 + 17
        with mock.patch.object(allocation, "_LOCKSTEP_SLAB_CELLS", 41 * 9):
            streams, weights, reference = _streams_and_reference(
                50, 3, 3, balls, "per-trial", 8, fixed_groups
            )
            loads = lockstep_greedy(streams, weights)
        _assert_bit_identical(loads, reference)

    def test_wide_node_ids_use_a_wider_store(self, step, fixed_groups):
        # Ids far above the int16 range must survive the intp buffer.
        n = 40_000
        rng = np.random.default_rng(3)
        weights = rng.random(500)
        block, reference = [], []
        for _ in range(2):
            groups = rng.integers(32_000, n, size=(500, 3))
            reference.append(POLICY.node_loads(groups, weights, n))
            block.append(fixed_groups(groups, n))
        _assert_bit_identical(lockstep_greedy(block, weights), reference)

    def test_unit_weights_match_d_choice_allocate(self, step):
        factory = RngFactory(11)
        streams = [
            ReplicaGroupStream(1000, 64, 3, factory.generator("u", trial=t))
            for t in range(4)
        ]
        expected = [
            d_choice_allocate(1000, 64, 3, rng=factory.generator("u", trial=t))
            for t in range(4)
        ]
        _assert_bit_identical(lockstep_greedy(streams), expected)


def _slab_rows(trials, d):
    return max(1, allocation._LOCKSTEP_SLAB_CELLS // (trials * d))


class TestStreamedBlock:
    """The streamed block equals per-trial ``node_loads`` over
    ``sample_replica_groups`` bit for bit, generator states included,
    around slab edges and in duplicate-heavy shapes."""

    CELLS = 5 * 3 * 8  # 8-row slabs for a 5-trial, d = 3 block

    @pytest.mark.parametrize("rate_mode", ["unit", "shared", "per-trial"])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_ball_counts_around_slab_edges(self, monkeypatch, rate_mode, edge, k):
        monkeypatch.setattr(allocation, "_LOCKSTEP_SLAB_CELLS", self.CELLS)
        balls = k * _slab_rows(5, 3) + edge
        factory = RngFactory(k * 10 + edge)
        gens = [factory.generator("edge", trial=t) for t in range(5)]
        twins = copy.deepcopy(gens)
        rng = np.random.default_rng(balls)
        weights = {
            "unit": None,
            "shared": rng.random(balls),
            "per-trial": rng.random((balls, 5)),
        }[rate_mode]
        streams = [ReplicaGroupStream(balls, 5, 3, gen) for gen in gens]
        loads = lockstep_greedy(streams, weights)
        for t, twin in enumerate(twins):
            groups = sample_replica_groups(balls, 5, 3, rng=twin)
            if weights is None:
                expected = d_choice_allocate(balls, 5, 3, choices=groups)
            else:
                own = weights[:, t] if weights.ndim == 2 else weights
                expected = POLICY.node_loads(groups, own, 5)
            assert loads[t].tobytes() == expected.tobytes()
            assert gens[t].bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("size", [1, 2, 7, 64, 1000])
    def test_slabs_concatenate_to_the_sampled_groups(self, size):
        # bins = 5, d = 3: about half of the rows are redrawn, in several
        # rounds, and redrawn rows straddle every slab edge.
        gen = np.random.default_rng(size)
        twin = copy.deepcopy(gen)
        stream = ReplicaGroupStream(600, 5, 3, gen)
        expected = sample_replica_groups(600, 5, 3, rng=twin)
        assert stream._index.size > 200
        slabs = list(stream.slabs(size))
        assert all(len(slab) == size for slab in slabs[:-1])
        np.testing.assert_array_equal(np.concatenate(slabs), expected)
        np.testing.assert_array_equal(stream.groups(), expected)
        # A stream replays: a second pass yields the same rows.
        np.testing.assert_array_equal(np.concatenate(list(stream.slabs(size))), expected)
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_duplicates_found_chunk_by_chunk(self, monkeypatch):
        # Pass 1 walks the draw in chunks of CELLS // d rows.
        monkeypatch.setattr(allocation, "_LOCKSTEP_SLAB_CELLS", 3 * 17)
        gen = np.random.default_rng(5)
        twin = copy.deepcopy(gen)
        stream = ReplicaGroupStream(1000, 5, 3, gen)
        np.testing.assert_array_equal(
            stream.groups(), sample_replica_groups(1000, 5, 3, rng=twin)
        )
        assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("trials", range(1, allocation._LOCKSTEP_MIN_TRIALS + 1))
    def test_blocks_around_the_narrow_cutoff(self, monkeypatch, trials, fixed_groups):
        monkeypatch.setattr(allocation, "_LOCKSTEP_SLAB_CELLS", self.CELLS)
        streams, weights, reference = _streams_and_reference(
            5, 3, trials, 77, "per-trial", trials, fixed_groups
        )
        _assert_bit_identical(lockstep_greedy(streams, weights), reference)


class TestStoreValidation:
    """Bad lockstep inputs fail loudly."""

    def test_rejects_negative_weights(self):
        streams = [ReplicaGroupStream(2, 5, 2, rng=t) for t in range(2)]
        with pytest.raises(ConfigurationError, match="non-negative"):
            lockstep_greedy(streams, np.array([1.0, -1.0]))
        with pytest.raises(ConfigurationError, match="non-negative"):
            lockstep_greedy(streams, np.array([[1.0, 1.0], [1.0, -1.0]]))

    def test_rejects_wrong_shape_and_overfill(self):
        streams = [ReplicaGroupStream(2, 5, 2, rng=t) for t in range(2)]
        with pytest.raises(ConfigurationError, match="shape"):
            lockstep_greedy(streams, np.ones(3))
        with pytest.raises(ConfigurationError, match="same shape"):
            lockstep_greedy(streams + [ReplicaGroupStream(3, 5, 2, rng=1)])
        with pytest.raises(ConfigurationError, match="same shape"):
            lockstep_greedy(streams + [ReplicaGroupStream(2, 6, 2, rng=1)])
        # More trials than the per-trial weights cover.
        with pytest.raises(ConfigurationError, match=r"\(2, 2\)"):
            lockstep_greedy(streams + streams[:1], np.ones((2, 2)))

    def test_partial_block_is_refused(self):
        # Per-trial weights for two trials, but only one trial's stream.
        streams = [ReplicaGroupStream(2, 5, 2, rng=1)]
        with pytest.raises(ConfigurationError, match=r"\(2, 1\)"):
            lockstep_greedy(streams, np.ones((2, 2)))

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError, match="at least one trial"):
            lockstep_greedy([])
        with pytest.raises(ConfigurationError, match="d <= bins"):
            ReplicaGroupStream(2, 2, 3, rng=1)


class TestBlockSize:
    def test_paper_shape_fits_the_budget(self):
        # Only per-trial (finite-batch) weights are stored per trial.
        size = lockstep_block_size(99_900)
        assert size == 20
        assert size * 99_900 * 8 <= allocation.LOCKSTEP_BUDGET_BYTES

    def test_per_trial_weights_shrink_the_block(self, monkeypatch):
        assert lockstep_block_size(10**9) == 1
        # Exact-rate campaigns run their whole range as one block.
        calls = []
        real = allocation.lockstep_greedy

        def spy(streams, weights=None):
            calls.append((len(streams), None if weights is None else weights.ndim))
            return real(streams, weights)

        monkeypatch.setattr("repro.sim.analytic.lockstep_greedy", spy)
        monkeypatch.setattr(allocation, "LOCKSTEP_BUDGET_BYTES", 4 * 760 * 8)
        for exact in (True, False):
            sim = MonteCarloSimulator(
                SimulationConfig(params=PARAMS, trials=9, seed=1, exact_rates=exact)
            )
            sim.uniform_attack(800)
        assert calls == [(9, 1), (4, 2), (4, 2), (1, 2)]


PARAMS = SystemParameters(n=50, m=3000, c=40, d=3, rate=1e4)


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the slabs to a few rows, and the weight budget so that
    per-trial-weight campaigns split into uneven blocks."""
    def use(trials_per_block, balls, weight_bytes=0):
        monkeypatch.setattr(allocation, "_LOCKSTEP_SLAB_CELLS", 64)
        if weight_bytes:
            monkeypatch.setattr(
                allocation, "LOCKSTEP_BUDGET_BYTES",
                trials_per_block * balls * weight_bytes,
            )
            assert lockstep_block_size(balls) == trials_per_block
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
        # Finite-batch rates: blocks of 4, 4 and 3 trials, the last narrow.
        small_blocks(4, max(1, x - PARAMS.c), weight_bytes=0 if exact else 8)
        sim = MonteCarloSimulator(
            SimulationConfig(params=PARAMS, trials=11, seed=2, exact_rates=exact)
        )
        factory = RngFactory(2)
        gens = [factory.generator("u", trial=t) for t in range(11)]
        twins = copy.deepcopy(gens)
        _assert_same_vectors(
            sim.uniform_attack_block(x, gens),
            [sim.uniform_attack_trial(x, twin) for twin in twins],
        )
        for gen, twin in zip(gens, twins):
            assert gen.bit_generator.state == twin.bit_generator.state

    def test_distribution_blocks(self, small_blocks):
        dist = ZipfDistribution(PARAMS.m, 1.01)
        small_blocks(4, PARAMS.m - PARAMS.c)
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
        # Serially the 9 trials form one block (finite batch: 4 + 4 + 1);
        # two workers get 5 and 4 trials (finite batch: 4 + 1 and 4).
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
        # Slabs of a few rows, so every trial crosses many slab edges.
        monkeypatch.setattr(allocation, "_LOCKSTEP_SLAB_CELLS", 5 * trials * d)
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
