"""Exact simulators of the one-choice and d-choice allocation processes.

All functions return an integer *occupancy vector*: entry ``b`` is the
number of balls that ended up in bin ``b``.  Conservation (the vector
sums to the number of balls) is an invariant the property tests lean on.

Performance notes
-----------------
One-choice allocation is a single ``bincount`` — effectively free.  The
d-choice (least-loaded) process is inherently sequential: ball ``t``'s
placement depends on the loads left by balls ``0 .. t-1``.  Two exact
implementations coexist:

- a plain-Python reference loop (~1e6 balls/second), and
- a batched numpy kernel that processes windows of balls in rounds of
  conflict-free argmin updates (several times faster at paper scale;
  see :func:`d_choice_allocate`'s ``method`` parameter).

Both produce byte-identical occupancy vectors for the same candidate
matrix — the batched kernel only applies a ball's placement once no
earlier unplaced ball shares any of its candidate bins, deferring the
rest to the next round, so the greedy order semantics (including
first-candidate tie-breaking) are preserved exactly.

Many independent trials of the process (a Monte-Carlo campaign) run
faster side by side than one after another: :func:`lockstep_greedy`
places ball ``k`` of every trial of a block in one gather + row-wise
``argmin`` + scatter step, optionally with weighted balls, and each
trial's result is again byte-identical to the reference loop.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import as_generator

__all__ = [
    "one_choice_allocate",
    "d_choice_allocate",
    "sample_replica_groups",
    "replica_group_allocate",
    "LOCKSTEP_BUDGET_BYTES",
    "lockstep_block_size",
    "LockstepStore",
    "lockstep_store_dtype",
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
        for _ in range(64):
            dup_mask = _duplicate_rows(choices)
            n_dup = int(dup_mask.sum())
            if n_dup == 0:
                break
            choices[dup_mask] = gen.integers(0, bins, size=(n_dup, d))
        else:  # pragma: no cover - 64 rounds suffice for any d <= bins/2
            for row in np.nonzero(dup_mask)[0]:
                choices[row] = gen.choice(bins, size=d, replace=False)
    return choices.astype(np.int64, copy=False)


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


#: Below this many balls the numpy round overhead dominates and the
#: plain loop wins; above it the batched kernel is strictly faster.
_BATCH_MIN_BALLS = 4096


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


#: Once a round shrinks below this many balls, numpy call overhead per
#: round exceeds the cost of just finishing the window with the plain
#: loop — the long tail of tiny rounds is where windows spend most of
#: their round budget.
_BATCH_TAIL = 48


def _d_choice_batched(
    choices: np.ndarray, bins: int, window: Optional[int] = None, metrics=None
) -> np.ndarray:
    """Vectorized greedy d-choice, byte-identical to the sequential loop.

    Balls are consumed in windows.  Within a window, each round places
    every ball none of whose candidate bins appear in an *earlier*
    still-unplaced ball of the window: those balls cannot influence each
    other (their candidate sets are pairwise disjoint — if two shared a
    bin the later one would be blocked), so a single gather + row-wise
    ``argmin`` + fancy-index increment applies all of them at once with
    the exact loads the sequential process would have seen.  Blocked
    balls carry over to the next round, after the conflicting earlier
    placements have landed.  The first remaining ball is never blocked,
    so every round makes progress; once a round shrinks below
    :data:`_BATCH_TAIL` balls the window is finished with the plain loop
    (same semantics, cheaper than more near-empty rounds).

    Conflict detection is a first-claim scatter: writing ball indices
    into ``first_claim[bin]`` in *reverse* ball order leaves, for every
    bin, the earliest remaining ball that lists it (last write wins, and
    the last reverse-order write is the first ball).  A ball is blocked
    iff any of its bins was claimed by a strictly earlier ball; a ball
    listing the same bin twice in its own row is *not* blocked by
    itself, because its own claim compares equal, not smaller.
    """
    balls, d = choices.shape
    loads = np.zeros(bins, dtype=np.int64)
    if window is None:
        # Collision frequency scales with window * d / bins; about one
        # bin's worth of candidates per window minimises total rounds
        # (fewer windows) without degrading per-round yield too far
        # (measured optimum for the paper-scale n, d).
        window = max(32, bins // d)
    ball_ids = np.repeat(np.arange(window), d)
    row_ids = np.arange(window)
    first_claim = np.empty(bins, dtype=np.int64)
    rounds = 0
    tail_balls = 0
    start = 0
    while start < balls:
        sub = choices[start : start + window]
        start += sub.shape[0]
        while sub.shape[0] > _BATCH_TAIL:
            rounds += 1
            r = sub.shape[0]
            flat = sub.ravel()
            ball_of = ball_ids[: r * d]
            first_claim[flat[::-1]] = ball_of[::-1]
            g = first_claim[flat]
            if d == 2:
                # Specialised reduction: min over the two slots of each
                # ball via strided views, no reshape round-trip.
                np.minimum(g[::2], g[1::2], out=g[::2])
                clean_mask = g[::2] >= row_ids[:r]
            else:
                clean_mask = (g >= ball_of).reshape(r, d).all(axis=1)
            clean = sub[clean_mask]
            pos = loads[clean].argmin(axis=1)
            chosen = clean[row_ids[: clean.shape[0]], pos]
            # Clean balls occupy pairwise-disjoint candidate sets, so
            # plain fancy indexing (no ``np.add.at``) is safe here.
            loads[chosen] += 1
            sub = sub[~clean_mask]
        tail_balls += sub.shape[0]
        for row in sub.tolist():
            best = row[0]
            best_load = loads[best]
            for cand in row[1:]:
                cand_load = loads[cand]
                if cand_load < best_load:
                    best = cand
                    best_load = cand_load
            loads[best] = best_load + 1
    if metrics is not None:
        metrics.counter("alloc_batched_rounds_total").inc(rounds)
        metrics.counter("alloc_batched_tail_balls_total").inc(tail_balls)
    return loads


#: Memory budget of one lockstep block's compact candidate store (plus
#: its per-trial weights, when weights differ between trials).  The
#: block size follows from it — about 27 trials at paper shape
#: (1e5 balls, d = 3, ``int16`` node ids) — so memory stays bounded for
#: any trial count.
LOCKSTEP_BUDGET_BYTES = 16 * 2**20

#: Balls widened from the compact store to ``intp`` indices at a time.
_LOCKSTEP_SLAB = 4096

#: Narrower blocks run the reference loop trial by trial: a lockstep
#: step costs a handful of numpy calls whatever the block width, which
#: only beats the loop's per-ball cost from about four trials up.
_LOCKSTEP_MIN_TRIALS = 4


def lockstep_store_dtype(bins: int) -> np.dtype:
    """Narrowest signed integer dtype whose range covers ``bins``, so it
    holds every bin id (``int16`` up to 32767 bins)."""
    for dtype in (np.int16, np.int32):
        if bins <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def lockstep_block_size(
    balls: int, bins: int, d: int, weight_bytes: int = 0
) -> int:
    """Trials per lockstep block under :data:`LOCKSTEP_BUDGET_BYTES`.

    A trial costs ``balls * d`` compact node ids plus ``weight_bytes``
    per ball when its weights are stored per trial; at least one trial
    always fits.
    """
    per_trial = balls * (d * lockstep_store_dtype(bins).itemsize + weight_bytes)
    return max(1, LOCKSTEP_BUDGET_BYTES // max(1, per_trial))


class LockstepStore:
    """The candidate matrices and ball weights of a block of trials.

    Trials are added one at a time, in trial order.  Each trial's
    ``(balls, d)`` candidate matrix is checked (bin ids in
    ``[0, bins)``) and copied into one compact ``array`` of shape
    ``(balls, trials * d)`` and dtype :func:`lockstep_store_dtype` —
    trial ``t`` in columns ``t * d`` to ``t * d + d - 1`` — so the
    caller can drop its ``int64`` matrix before sampling the next
    trial.  Balls weigh 1 (the default), share the non-negative
    ``weights`` vector given here, or, with ``trial_weights=True``,
    take each trial's own vector from :meth:`add`.
    """

    def __init__(
        self,
        balls: int,
        trials: int,
        d: int,
        bins: int,
        weights: Optional[np.ndarray] = None,
        trial_weights: bool = False,
    ) -> None:
        if trials < 1:
            raise ConfigurationError(f"need at least one trial, got {trials}")
        if weights is not None and trial_weights:
            raise ConfigurationError("give shared weights or trial_weights, not both")
        self.trials = trials
        self.bins = bins
        self._d = d
        self.array = np.empty((balls, trials * d), dtype=lockstep_store_dtype(bins))
        self._trial_weights = trial_weights
        if trial_weights:
            self.weights = np.empty((balls, trials))
        elif weights is not None:
            self.weights = _check_weights(weights, balls)
        else:
            self.weights = None
        self.filled = 0

    def add(self, choices: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Append the next trial's candidates (and weights, if per trial)."""
        if self.filled == self.trials:
            raise ConfigurationError(f"store is full ({self.trials} trials)")
        if (weights is not None) != self._trial_weights:
            raise ConfigurationError(
                "pass weights to add() exactly when the store has trial_weights"
            )
        choices = np.asarray(choices, dtype=np.int64)
        balls = self.array.shape[0]
        if choices.shape != (balls, self._d):
            raise ConfigurationError(
                f"choices must have shape {(balls, self._d)}, got {choices.shape}"
            )
        if choices.size and (choices.min() < 0 or choices.max() >= self.bins):
            raise ConfigurationError("candidate entries must be bin ids in [0, bins)")
        t = self.filled
        if self._trial_weights:
            self.weights[:, t] = _check_weights(weights, balls)
        self.array[:, t * self._d : (t + 1) * self._d] = choices
        self.filled += 1

    def greedy(self) -> np.ndarray:
        """:func:`lockstep_greedy` over the filled store: ``(trials, bins)``."""
        if self.filled != self.trials:
            raise ConfigurationError(
                f"store holds {self.filled} of its {self.trials} trials"
            )
        return lockstep_greedy(self.array, self.trials, self.bins, self.weights)


def _check_weights(weights: np.ndarray, balls: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (balls,):
        raise ConfigurationError(
            f"weights must have one entry per ball, got {weights.shape} for {balls} balls"
        )
    if np.any(weights < 0):
        raise ConfigurationError("weights must be non-negative")
    return weights


def lockstep_greedy(
    store: np.ndarray,
    trials: int,
    bins: int,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Greedy d-choice over a block of independent trials, in lockstep.

    Every trial of the block places its ball ``k`` in the same step:
    one gather of the ``trials * d`` candidate loads from a flat
    ``trials * bins`` load vector (trial ``t``'s bins offset by
    ``t * bins``), one row-wise ``argmin`` and one scatter of the
    ``trials`` winners.  Row ``t`` of the result is exactly what the
    sequential greedy loop returns for trial ``t`` alone:

    - ``argmin`` returns the *first* minimum, which is the loop's
      strict ``<`` (an earlier candidate wins ties);
    - each trial adds its weights one ball at a time in ball order, so
      every float sum is formed in the same order as in the loop.

    ``store`` is laid out as :attr:`LockstepStore.array` (which
    validates its input; this kernel does not check bin ids).
    ``weights`` is ``None`` (unit balls, integer loads), a ``(balls,)``
    vector shared by every trial, or a ``(balls, trials)`` matrix of
    per-trial weights.  Returns the ``(trials, bins)`` load matrix.
    Blocks of fewer than :data:`_LOCKSTEP_MIN_TRIALS` trials run the
    reference loop per trial instead, which is faster there.
    """
    if trials < 1:
        raise ConfigurationError(f"need at least one trial, got {trials}")
    balls, width = store.shape
    d = width // trials
    if d * trials != width:
        raise ConfigurationError(
            f"store has {width} columns, not a multiple of {trials} trials"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape not in ((balls,), (balls, trials)):
            raise ConfigurationError(
                f"weights must have shape ({balls},) or ({balls}, {trials}), "
                f"got {weights.shape}"
            )
    if trials < _LOCKSTEP_MIN_TRIALS:
        per_trial = weights is not None and weights.ndim == 2
        return np.stack([
            _d_choice_sequential(
                store[:, t * d : (t + 1) * d], bins,
                weights[:, t] if per_trial else weights,
            )
            for t in range(trials)
        ])
    loads = np.zeros(trials * bins, dtype=np.int64 if weights is None else float)
    offsets = np.repeat(np.arange(trials, dtype=np.intp) * bins, d)
    base = np.arange(trials, dtype=np.intp) * d
    step_weights = itertools.repeat(1)
    for lo in range(0, balls, _LOCKSTEP_SLAB):
        slab = store[lo : lo + _LOCKSTEP_SLAB].astype(np.intp)
        slab += offsets
        if weights is not None:
            step_weights = weights[lo : lo + _LOCKSTEP_SLAB]
            if weights.ndim == 1:
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
    method: str = "auto",
    metrics=None,
) -> np.ndarray:
    """Greedy d-choice (least-loaded) allocation — the theory model.

    Each ball inspects ``d`` candidate bins and joins the least loaded
    (first of the candidates on ties, matching the usual analysis).  Pass
    ``choices`` to reuse a pre-sampled candidate matrix, e.g. to compare
    selection rules on identical randomness.

    ``method`` selects the implementation — all produce byte-identical
    occupancy vectors:

    - ``"auto"`` (default): the batched kernel for large, low-collision
      configurations, the reference loop otherwise;
    - ``"sequential"``: the plain-Python reference loop;
    - ``"batched"``: the vectorized round-based kernel.

    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) counts
    calls, balls and — for the batched kernel — conflict-resolution
    rounds, per resolved kernel; it never influences the allocation.
    """
    _check(balls, bins, d)
    if method not in ("auto", "sequential", "batched"):
        raise ConfigurationError(
            f"method must be 'auto', 'sequential' or 'batched', got {method!r}"
        )
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
    if d == 1:
        if metrics is not None:
            metrics.counter("alloc_calls_total", kernel="one-choice").inc()
            metrics.counter("alloc_balls_total", kernel="one-choice").inc(balls)
        return np.bincount(choices[:, 0], minlength=bins).astype(np.int64)
    if method == "auto":
        # Dense candidate sets (d within a small factor of bins) make
        # nearly every ball conflict with an earlier one, degenerating
        # the rounds to one ball each — the loop is faster there.
        if balls >= _BATCH_MIN_BALLS and bins >= 8 * d:
            method = "batched"
        else:
            method = "sequential"
    if metrics is not None:
        metrics.counter("alloc_calls_total", kernel=method).inc()
        metrics.counter("alloc_balls_total", kernel=method).inc(balls)
    if method == "batched":
        return _d_choice_batched(np.ascontiguousarray(choices), bins, metrics=metrics)
    return _d_choice_sequential(choices, bins)


def replica_group_allocate(
    balls: int,
    bins: int,
    d: int,
    rng: RngLike = None,
    selection: str = "least-loaded",
) -> np.ndarray:
    """Allocate balls whose candidate sets are replica groups, under a
    named selection rule.

    ``selection``:

    - ``"least-loaded"`` — the theory model (power of d choices);
    - ``"random"`` — each ball picks one of its ``d`` candidates
      uniformly (degrades to the one-choice process);
    - ``"first"`` — deterministic primary replica (also one-choice,
      since groups are random);
    - ``"split"`` — the ball is divided evenly across its ``d``
      candidates (models per-query round-robin in steady state); the
      returned vector is float-valued fractional occupancy.
    """
    _check(balls, bins, d)
    gen = as_generator(rng, "replica-allocate")
    groups = sample_replica_groups(balls, bins, d, rng=gen)
    if selection == "least-loaded":
        return d_choice_allocate(balls, bins, d, choices=groups)
    if selection == "random":
        if balls == 0:
            return np.zeros(bins, dtype=np.int64)
        picks = groups[np.arange(balls), gen.integers(0, d, size=balls)]
        return np.bincount(picks, minlength=bins).astype(np.int64)
    if selection == "first":
        if balls == 0:
            return np.zeros(bins, dtype=np.int64)
        return np.bincount(groups[:, 0], minlength=bins).astype(np.int64)
    if selection == "split":
        occupancy = np.zeros(bins, dtype=float)
        if balls:
            np.add.at(occupancy, groups.ravel(), 1.0 / d)
        return occupancy
    raise ConfigurationError(f"unknown selection rule {selection!r}")
