"""Occupancy statistics and empirical calibration of the constant ``k'``.

The paper folds the Theta(1) remainder of the Berenbrink et al. bound
into a single constant (``k = log log n / log d + k' = 1.2`` for its
figures).  :func:`calibrate_k_prime` reproduces that calibration step:
run the exact d-choice process many times and measure how far the
observed maximum occupancy sits above ``M/N + log log N / log d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import RngFactory
from .allocation import (
    ReplicaGroupStream,
    _check,
    lockstep_greedy,
    one_choice_allocate,
)

__all__ = [
    "OccupancyStats",
    "occupancy_stats",
    "max_occupancy_trials",
    "calibrate_k_prime",
]

RngLike = Union[None, int, np.random.Generator]


@dataclass(frozen=True)
class OccupancyStats:
    """Summary of one occupancy vector."""

    balls: int
    bins: int
    max_load: int
    min_load: int
    mean_load: float
    std_load: float
    gap: float
    empty_bins: int

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.balls} balls / {self.bins} bins: max {self.max_load}, "
            f"min {self.min_load}, gap above mean {self.gap:.2f}, "
            f"{self.empty_bins} empty"
        )


def occupancy_stats(occupancy: np.ndarray) -> OccupancyStats:
    """Compute :class:`OccupancyStats` for an occupancy vector.

    ``gap`` is ``max - mean``, the quantity the d-choice theory bounds by
    ``log log N / log d + Theta(1)`` independent of the ball count.
    """
    occ = np.asarray(occupancy)
    if occ.ndim != 1 or occ.size == 0:
        raise ConfigurationError("occupancy must be a non-empty 1-D vector")
    balls = int(round(float(occ.sum())))
    mean = float(occ.mean())
    return OccupancyStats(
        balls=balls,
        bins=int(occ.size),
        max_load=int(occ.max()),
        min_load=int(occ.min()),
        mean_load=mean,
        std_load=float(occ.std()),
        gap=float(occ.max()) - mean,
        empty_bins=int(np.count_nonzero(occ == 0)),
    )


def max_occupancy_trials(
    balls: int,
    bins: int,
    d: int,
    trials: int,
    seed: int = None,
) -> np.ndarray:
    """Maximum occupancy of ``trials`` independent allocations.

    Returns a length-``trials`` integer array; trial ``t`` uses an
    independent RNG stream derived from ``seed`` so runs are
    reproducible yet uncorrelated.  For ``d >= 2`` every trial runs in
    one lockstep block (:func:`~repro.ballsbins.allocation.lockstep_greedy`
    over each trial's
    :class:`~repro.ballsbins.allocation.ReplicaGroupStream`, unit
    balls); each maximum equals what
    :func:`~repro.ballsbins.allocation.d_choice_allocate` returns for
    that trial's stream alone.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    factory = RngFactory(seed)
    if d == 1:
        maxima = np.empty(trials, dtype=np.int64)
        for t in range(trials):
            gen = factory.generator("ballsbins", trial=t)
            maxima[t] = one_choice_allocate(balls, bins, rng=gen).max()
        return maxima
    _check(balls, bins, d)
    streams = [
        ReplicaGroupStream(balls, bins, d, rng=factory.generator("ballsbins", trial=t))
        for t in range(trials)
    ]
    return lockstep_greedy(streams).max(axis=1)


def calibrate_k_prime(
    balls: int,
    bins: int,
    d: int,
    trials: int = 50,
    seed: int = None,
    quantile: float = 1.0,
) -> float:
    """Measure the Theta(1) remainder ``k'`` of the d-choice bound.

    Runs the exact process ``trials`` times and returns the chosen
    ``quantile`` (default: the maximum, matching the paper's worst-case
    reporting) of ``max_load - balls/bins - log log bins / log d``.

    The result plugged into ``k = log log n / log d + k'`` reproduces the
    paper's folded constant; for ``n = 1000, d = 3`` the calibrated ``k``
    lands near the paper's 1.2.
    """
    if d < 2:
        raise ConfigurationError(f"calibration targets the d >= 2 bound, got d={d}")
    if not 0.0 <= quantile <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {quantile}")
    maxima = max_occupancy_trials(balls, bins, d, trials, seed=seed).astype(float)
    excess = 0.0
    if bins > math.e:
        excess = math.log(math.log(bins)) / math.log(d)
    residuals = maxima - balls / bins - excess
    return float(np.quantile(residuals, quantile))
