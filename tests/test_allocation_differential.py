"""Property-based differential test: the lockstep d-choice kernel vs the
sequential reference.

The lockstep kernel (:func:`repro.ballsbins.allocation.lockstep_greedy`)
promises *byte-identical* occupancy vectors to the plain greedy loop —
including first-candidate tie-breaking — for every trial of a block.
The tests here draw random ``(bins, d, balls, seed)`` configurations
(plus adversarially collision-heavy ones), place several trials of each
in one lockstep block and require exact equality per trial; a single
off-by-one placement fails loudly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ballsbins.allocation as allocation
from repro.ballsbins.allocation import (
    ReplicaGroupStream,
    _d_choice_sequential,
    lockstep_greedy,
    sample_replica_groups,
)
from repro.rng import RngFactory

#: Trials per block: enough that the vectorized step, not the
#: narrow-block loop, places them.
TRIALS = allocation._LOCKSTEP_MIN_TRIALS + 1


def _assert_identical(balls: int, bins: int, d: int, seed: int):
    """One lockstep block vs the loop on each trial's groups."""
    factory = RngFactory(seed)
    streams = [
        ReplicaGroupStream(balls, bins, d, factory.generator("diff", trial=t))
        for t in range(TRIALS)
    ]
    loads = lockstep_greedy(streams)
    for t, row in enumerate(loads):
        choices = sample_replica_groups(
            balls, bins, d, rng=factory.generator("diff", trial=t)
        )
        sequential = _d_choice_sequential(choices, bins)
        np.testing.assert_array_equal(row, sequential)
        assert row.dtype == sequential.dtype == np.int64
        assert int(row.sum()) == balls


@st.composite
def _configs(draw, max_balls=2000, min_balls=0):
    bins = draw(st.integers(min_value=2, max_value=200))
    d = draw(st.integers(min_value=2, max_value=min(6, bins)))
    balls = draw(st.integers(min_value=min_balls, max_value=max_balls))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return bins, d, balls, seed


class TestBatchedMatchesSequential:
    @given(_configs())
    @settings(max_examples=60, deadline=None)
    def test_random_configurations(self, config):
        bins, d, balls, seed = config
        _assert_identical(balls, bins, d, seed)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_collision_heavy_tiny_bin_space(self, seed, d):
        # Few bins + many balls: most replica groups are redrawn, many
        # in several rounds, and ties between equal loads are common.
        _assert_identical(500, d + 1, d, seed)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_with_replacement_duplicate_rows(self, fixed_groups, seed):
        # With-replacement rows may list the same bin twice.
        rng = np.random.default_rng(seed)
        block = [rng.integers(0, 10, size=(400, 3)) for _ in range(TRIALS)]
        loads = lockstep_greedy([fixed_groups(choices, 10) for choices in block])
        for row, choices in zip(loads, block):
            np.testing.assert_array_equal(row, _d_choice_sequential(choices, 10))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_explicit_tiny_windows(self, seed, window):
        # Pathological slab sizes, down to one ball per slab: every
        # redrawn row sits next to a slab edge.
        cells = window * TRIALS * 3
        with mock.patch.object(allocation, "_LOCKSTEP_SLAB_CELLS", cells):
            _assert_identical(300, 24, 3, seed)

    def test_worst_case_all_same_candidates(self, fixed_groups):
        # Every ball lists the identical candidate set: pure sequential
        # dependency, in every trial of the block.
        choices = np.tile(np.array([3, 1, 4], dtype=np.int64), (200, 1))
        loads = lockstep_greedy([fixed_groups(choices, 6)] * TRIALS)
        sequential = _d_choice_sequential(choices, 6)
        for row in loads:
            np.testing.assert_array_equal(row, sequential)
        # Ties go to the first listed candidate: 3 before 1 before 4.
        assert sequential[3] >= sequential[1] >= sequential[4]


@pytest.mark.slow
class TestBatchedMatchesSequentialSlow:
    """Larger sweeps: many slabs per trial."""

    @given(_configs(max_balls=30_000, min_balls=4096))
    @settings(max_examples=15, deadline=None)
    def test_large_random_configurations(self, config):
        bins, d, balls, seed = config
        _assert_identical(balls, bins, d, seed)
