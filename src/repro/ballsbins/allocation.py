"""Exact simulators of the one-choice and d-choice allocation processes.

All functions return an integer *occupancy vector*: entry ``b`` is the
number of balls that ended up in bin ``b``.  Conservation (the vector
sums to the number of balls) is an invariant the property tests lean on.

Performance notes
-----------------
One-choice allocation is a single ``bincount`` — effectively free.  The
d-choice (least-loaded) process is inherently sequential: ball ``t``'s
placement depends on the loads left by balls ``0 .. t-1``, so one trial
runs the plain-Python reference loop (~1e6 balls/second).

Many independent trials of the process (a Monte-Carlo campaign) run
faster side by side than one after another: :func:`lockstep_greedy`
places ball ``k`` of every trial of a block in one gather + row-wise
``argmin`` + scatter step, optionally with weighted balls, and each
trial's result is again byte-identical to the reference loop.  Each
trial's candidates come from a :class:`ReplicaGroupStream`, which draws
the trial's replica groups once and replays them slab by slab, so a
block's memory grows with its width, not with its ball count.
"""

from __future__ import annotations

import copy
import itertools
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = [
    "one_choice_allocate",
    "d_choice_allocate",
    "sample_replica_groups",
    "ReplicaGroupStream",
    "LOCKSTEP_BUDGET_BYTES",
    "lockstep_block_size",
    "lockstep_greedy",
]

RngLike = Union[None, int, np.random.Generator]


def _check(balls: int, bins: int, d: int = 1) -> None:
    if balls < 0:
        raise ConfigurationError(f"balls must be non-negative, got {balls}")
    if bins < 1:
        raise ConfigurationError(f"bins must be positive, got {bins}")
    if not 1 <= d <= bins:
        raise ConfigurationError(f"need 1 <= d <= bins, got d={d}, bins={bins}")


def one_choice_allocate(
    balls: int, bins: int, rng: RngLike = None, metrics=None
) -> np.ndarray:
    """Throw ``balls`` balls into ``bins`` bins uniformly at random.

    The classic one-choice process underlying the SoCC'11 baseline.
    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) counts
    calls and balls; it never influences the allocation.
    """
    _check(balls, bins)
    gen = as_generator(rng, "one-choice")
    if metrics is not None:
        metrics.counter("alloc_calls_total", kernel="one-choice").inc()
        metrics.counter("alloc_balls_total", kernel="one-choice").inc(balls)
    if balls == 0:
        return np.zeros(bins, dtype=np.int64)
    targets = gen.integers(0, bins, size=balls)
    return np.bincount(targets, minlength=bins).astype(np.int64)


def sample_replica_groups(
    balls: int,
    bins: int,
    d: int,
    rng: RngLike = None,
    distinct: bool = True,
    metrics=None,
) -> np.ndarray:
    """Sample a ``(balls, d)`` matrix of candidate bins per ball.

    ``distinct=True`` (the paper's replica-group semantics: ``d``
    *different* nodes hold each item) resamples rows containing
    duplicates; for ``d << bins`` this converges in a couple of rounds.
    ``distinct=False`` gives the textbook with-replacement d-choice
    process — the bounds are the same up to the folded constant.
    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) counts
    sampled groups and candidate slots; it never influences sampling.
    """
    _check(balls, bins, d)
    gen = as_generator(rng, "replica-groups")
    if metrics is not None:
        metrics.counter("replica_groups_total").inc(balls)
        metrics.counter("replica_slots_total").inc(balls * d)
    if balls == 0:
        return np.zeros((0, d), dtype=np.int64)
    choices = gen.integers(0, bins, size=(balls, d))
    if distinct and d > 1:
        dup_mask = _duplicate_rows(choices)
        if dup_mask.any():
            choices[dup_mask] = _redraw_duplicates(
                int(dup_mask.sum()), bins, d, gen
            )
    return choices


def _duplicate_rows(choices: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``choices`` that list some bin twice.

    Pairwise column compares over the ``d (d - 1) / 2`` column pairs:
    the same mask as sorting each row and looking for equal neighbours,
    at a fraction of the cost for the small ``d`` of replica groups.
    """
    d = choices.shape[1]
    dup = np.zeros(choices.shape[0], dtype=bool)
    for i in range(d - 1):
        column = choices[:, i]
        for j in range(i + 1, d):
            dup |= column == choices[:, j]
    return dup


def _redraw_duplicates(
    count: int, bins: int, d: int, gen: np.random.Generator
) -> np.ndarray:
    """Replacements for ``count`` rows that listed some bin twice.

    Redraws every such row, then keeps redrawing the replacements that
    still repeat a bin, in row order, for up to 64 rounds in all.  The
    draws depend only on the replacements, never on the other rows, so
    the rows may be found all at once or chunk by chunk.
    """
    rows = gen.integers(0, bins, size=(count, d))
    dup_mask = np.ones(count, dtype=bool)
    for _ in range(63):
        dup_mask = _duplicate_rows(rows)
        n_dup = int(dup_mask.sum())
        if n_dup == 0:
            return rows
        rows[dup_mask] = gen.integers(0, bins, size=(n_dup, d))
    # 64 rounds suffice for any d <= bins/2.
    for row in np.nonzero(dup_mask)[0]:  # pragma: no cover
        rows[row] = gen.choice(bins, size=d, replace=False)
    return rows


def _d_choice_sequential(
    choices: np.ndarray, bins: int, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reference greedy loop: exact, simple, ~1e6 balls/second.

    Unit balls give ``int64`` occupancy; ``weights`` (one per ball)
    give ``float`` loads, each ball adding its weight to the least
    loaded of its candidates (an earlier candidate wins ties).
    """
    if weights is None:
        loads = [0] * bins
        step_weights = itertools.repeat(1)
    else:
        loads = [0.0] * bins
        step_weights = weights.tolist()
    for row, weight in zip(choices.tolist(), step_weights):
        best = row[0]
        best_load = loads[best]
        for cand in row[1:]:
            cand_load = loads[cand]
            if cand_load < best_load:
                best = cand
                best_load = cand_load
        loads[best] = best_load + weight
    return np.asarray(loads, dtype=np.int64 if weights is None else float)


#: ``intp`` cells of one lockstep slab, ``(rows, trials * d)``: the
#: block's candidate buffer is about 4 MiB whatever its trial count.  A
#: stream finds its duplicate rows in chunks of the same size.
_LOCKSTEP_SLAB_CELLS = 2**19

#: Narrower blocks run the reference loop trial by trial: a lockstep
#: step costs a handful of numpy calls whatever the block width, which
#: only beats the loop's per-ball cost from about four trials up.
_LOCKSTEP_MIN_TRIALS = 4

#: Memory budget of a block's per-trial ball weights (finite-batch
#: rates differ between trials).  The number of such trials a block
#: holds follows from it — 20 at paper shape (99,900 balls) — so memory
#: stays bounded for any trial count.  Unit and shared weights need no
#: per-trial storage, so their blocks are as wide as the caller likes.
LOCKSTEP_BUDGET_BYTES = 16 * 2**20


def lockstep_block_size(balls: int) -> int:
    """Trials per lockstep block whose ``(balls, trials)`` float weight
    matrix stays under :data:`LOCKSTEP_BUDGET_BYTES`; at least one."""
    per_trial = balls * np.dtype(float).itemsize
    return max(1, LOCKSTEP_BUDGET_BYTES // max(1, per_trial))


class ReplicaGroupStream:
    """One trial's replica groups, drawn once and replayed slab by slab.

    Construction consumes ``rng`` exactly as
    :func:`sample_replica_groups` does with the same arguments (rows of
    ``d`` distinct bins): the ``(balls, d)`` draw is walked in chunks to
    find the rows that list some bin twice, and only those are redrawn.
    The stream keeps a copy of the generator's starting state and the
    redrawn rows (about 0.3 % of the rows at paper shape, ``n = 1000,
    d = 3``), not the matrix.  :meth:`slabs` regenerates the rows from
    the copy and patches the redrawn ones in, so the slabs concatenate
    to what :func:`sample_replica_groups` returns.

    Both rely on numpy's contract that ``integers(0, bins, size=(k, d))``
    in chunks yields the same values, and leaves the generator in the
    same state, as one draw of all the rows (``bins < 2**32``).
    """

    def __init__(self, balls: int, bins: int, d: int, rng: RngLike = None) -> None:
        _check(balls, bins, d)
        gen = as_generator(rng, "replica-groups")
        self.balls, self.bins, self.d = balls, bins, d
        self._start = copy.deepcopy(gen)
        chunk = max(1, _LOCKSTEP_SLAB_CELLS // d)
        found = [np.zeros(0, dtype=np.intp)]
        for lo in range(0, balls, chunk):
            rows = gen.integers(0, bins, size=(min(chunk, balls - lo), d))
            found.append(np.flatnonzero(_duplicate_rows(rows)) + lo)
        self._index = np.concatenate(found)
        self._rows = np.zeros((0, d), dtype=np.int64)
        if self._index.size:
            self._rows = _redraw_duplicates(self._index.size, bins, d, gen)

    def slabs(self, size: int) -> Iterator[np.ndarray]:
        """The ``(balls, d)`` groups as consecutive ``int64`` slabs of
        ``size`` rows (the last one may be shorter)."""
        gen = copy.deepcopy(self._start)
        patched = 0
        for lo in range(0, self.balls, size):
            rows = gen.integers(0, self.bins, size=(min(size, self.balls - lo), self.d))
            end = int(np.searchsorted(self._index, lo + rows.shape[0]))
            rows[self._index[patched:end] - lo] = self._rows[patched:end]
            patched = end
            yield rows

    def groups(self) -> np.ndarray:
        """The whole ``(balls, d)`` matrix in one array."""
        empty = np.zeros((0, self.d), dtype=np.int64)
        return next(self.slabs(max(1, self.balls)), empty)


def _check_weights(weights, balls: int, trials: int) -> Optional[np.ndarray]:
    if weights is None:
        return None
    weights = np.asarray(weights, dtype=float)
    if weights.shape not in ((balls,), (balls, trials)):
        raise ConfigurationError(
            f"weights must have shape ({balls},) or ({balls}, {trials}), "
            f"got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ConfigurationError("weights must be non-negative")
    return weights


def lockstep_greedy(
    streams: Sequence[ReplicaGroupStream],
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy d-choice over a block of independent trials, in lockstep.

    ``streams`` holds one :class:`ReplicaGroupStream` per trial (any
    object with ``balls``, ``bins``, ``d`` and ``slabs(size)`` will do),
    all of one shape.  Every trial of the block places its ball ``k``
    in the same step: one gather of the ``trials * d`` candidate loads
    from a flat ``trials * bins`` load vector (trial ``t``'s bins offset
    by ``t * bins``), one row-wise ``argmin`` and one scatter of the
    ``trials`` winners.  The candidates are refilled a slab at a time
    into one ``(rows, trials * d)`` ``intp`` buffer of about
    :data:`_LOCKSTEP_SLAB_CELLS` cells.  Row ``t`` of the result is
    exactly what the sequential greedy loop returns for trial ``t``
    alone:

    - ``argmin`` returns the *first* minimum, which is the loop's
      strict ``<`` (an earlier candidate wins ties);
    - each trial adds its weights one ball at a time in ball order, so
      every float sum is formed in the same order as in the loop.

    ``weights`` is ``None`` (unit balls, integer loads), a non-negative
    ``(balls,)`` vector shared by every trial, or a ``(balls, trials)``
    matrix of per-trial weights.  Returns the ``(trials, bins)`` load
    matrix.  Blocks of fewer than :data:`_LOCKSTEP_MIN_TRIALS` trials
    run the reference loop per trial instead, which is faster there.
    """
    trials = len(streams)
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    first = streams[0]
    balls, bins, d = first.balls, first.bins, first.d
    if any((s.balls, s.bins, s.d) != (balls, bins, d) for s in streams):
        raise ConfigurationError("every stream of a block needs the same shape")
    weights = _check_weights(weights, balls, trials)
    per_trial = weights is not None and weights.ndim == 2
    if trials < _LOCKSTEP_MIN_TRIALS:
        return np.stack([
            _d_choice_sequential(
                stream.groups(), bins, weights[:, t] if per_trial else weights
            )
            for t, stream in enumerate(streams)
        ])
    loads = np.zeros(trials * bins, dtype=np.int64 if weights is None else float)
    base = np.arange(trials, dtype=np.intp) * d
    size = max(1, _LOCKSTEP_SLAB_CELLS // (trials * d))
    buffer = np.empty((size, trials * d), dtype=np.intp)
    sources = [stream.slabs(size) for stream in streams]
    step_weights = itertools.repeat(1)
    for lo in range(0, balls, size):
        rows = min(size, balls - lo)
        slab = buffer[:rows]
        cells = slab.reshape(rows, trials, d)
        for t, source in enumerate(sources):
            np.add(next(source), t * bins, out=cells[:, t, :])
        if weights is not None:
            step_weights = weights[lo : lo + rows]
            if not per_trial:
                step_weights = step_weights.tolist()
        for cand, weight in zip(slab, step_weights):
            cand_loads = loads[cand]
            pos = cand_loads.reshape(trials, d).argmin(axis=1)
            pos += base
            loads[cand[pos]] = cand_loads[pos] + weight
    return loads.reshape(trials, bins)


def d_choice_allocate(
    balls: int,
    bins: int,
    d: int,
    rng: RngLike = None,
    distinct: bool = True,
    choices: Optional[np.ndarray] = None,
    metrics=None,
) -> np.ndarray:
    """Greedy d-choice (least-loaded) allocation — the theory model.

    Each ball inspects ``d`` candidate bins and joins the least loaded
    (first of the candidates on ties, matching the usual analysis).  Pass
    ``choices`` to reuse a pre-sampled candidate matrix, e.g. to compare
    selection rules on identical randomness.  One allocation runs the
    reference loop; many trials run faster through
    :func:`lockstep_greedy`.

    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) counts
    calls and balls per kernel; it never influences the allocation.
    """
    _check(balls, bins, d)
    if choices is None:
        choices = sample_replica_groups(balls, bins, d, rng=rng, distinct=distinct)
    else:
        choices = np.asarray(choices)
        if choices.shape != (balls, d):
            raise ConfigurationError(
                f"choices must have shape ({balls}, {d}), got {choices.shape}"
            )
    if balls == 0:
        return np.zeros(bins, dtype=np.int64)
    kernel = "one-choice" if d == 1 else "sequential"
    if metrics is not None:
        metrics.counter("alloc_calls_total", kernel=kernel).inc()
        metrics.counter("alloc_balls_total", kernel=kernel).inc(balls)
    if d == 1:
        return np.bincount(choices[:, 0], minlength=bins).astype(np.int64)
    return _d_choice_sequential(choices, bins)
