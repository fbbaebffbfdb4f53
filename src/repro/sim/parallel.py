"""Parallel trial execution over a process pool, deterministically seeded.

Every Monte-Carlo campaign in this repository is embarrassingly
parallel: trials are independent by construction, because each one draws
from its own ``RngFactory(seed).generator(label, trial=t)`` stream.
:func:`map_blocks` exploits exactly that structure — workers derive the
*same* per-trial generators the serial loop would have built, so a
parallel run with a given seed produces bit-identical results to a
serial run, regardless of worker count or scheduling order.

Requirements on tasks
---------------------
A task handed to :func:`map_blocks` must be a *spawn-safe picklable
callable*: a top-level function, a bound method of a picklable object,
or a :func:`functools.partial` over either.  Plain ``lambda``\\ s work
for serial execution (``workers=1``) but cannot cross a process
boundary; :func:`map_blocks` raises a :class:`SimulationError` with that
diagnosis up front rather than letting the pool fail obscurely.

Start method
------------
Pools start with ``fork`` where the platform offers it (workers inherit
the parent's imports — near-zero startup) and ``spawn`` otherwise
(:data:`START_METHOD`).  Tasks must stay spawn-safe either way: nothing
may depend on inherited process state, since the same code must run on
platforms where ``spawn`` is the only option.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..exceptions import SimulationError
from ..rng import RngFactory

__all__ = ["map_blocks", "resolve_workers", "resolve_seed"]

#: Multiprocessing start method of every worker pool.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

#: ``task(trials, gens)``: a contiguous trial range and its generators.
BlockTask = Callable[[range, List[np.random.Generator]], Sequence[Any]]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request to a concrete positive count.

    ``None`` and ``1`` mean serial execution; ``0`` means one worker per
    CPU this process may run on (its affinity mask where the platform
    exposes one, so pinned runs do not oversubscribe); any other
    positive integer is taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return int(workers)


def resolve_seed(seed: Optional[int]) -> int:
    """Pin ``seed`` down to a concrete integer.

    ``None`` draws fresh OS entropy — once, in the parent — so that
    every worker (and the serial fallback) derives the same per-trial
    streams within one campaign, and the resolved value can be recorded
    for later exact reruns.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def _run_block(task: BlockTask, seed: int, label: str, trials: range) -> List[Any]:
    """Run one contiguous trial range (top-level: spawn-picklable).

    Rebuilds the :class:`RngFactory` from the resolved seed inside the
    worker, so each trial's generator is exactly the one the serial loop
    would have produced for the same ``(seed, label, trial)`` triple.
    """
    factory = RngFactory(seed)
    gens = [factory.generator(label, trial=t) for t in trials]
    outcomes = list(task(trials, gens))
    if len(outcomes) != len(gens):
        raise SimulationError(
            f"block task returned {len(outcomes)} outcomes for {len(gens)} trials"
        )
    return outcomes


def _check_picklable(task: BlockTask) -> None:
    """Fail up front, with the diagnosis, if ``task`` cannot reach a worker."""
    try:
        pickle.dumps(task)
    except Exception as exc:
        raise SimulationError(
            "parallel execution requires the task and its arguments to be "
            "picklable (a top-level function, a bound method of a picklable "
            f"object, or a functools.partial over either); got {task!r}: {exc}"
        ) from exc


def map_blocks(
    task: BlockTask,
    trials: int,
    *,
    seed: Optional[int] = None,
    label: str = "trial",
    workers: Optional[int] = 1,
) -> List[Any]:
    """Run ``task`` over contiguous trial ranges; results in trial order.

    ``task`` is called as ``task(trials, gens)``: ``trials`` is one
    contiguous ``range`` of trial indices and ``gens`` lists their
    ``(seed, label, trial)`` streams in the same order.  It must return
    one outcome per trial.  This lets a task advance many trials
    together (the Monte-Carlo campaigns run their greedy placement in
    lockstep across a range); splitting a range further is the task's
    business.

    ``workers`` follows :func:`resolve_workers`.  Serially the one range
    is every trial; otherwise each worker of a pool created (and shut
    down) inside this call gets one range of about ``trials / workers``
    trials.  The task must consume only each trial's generator (or the
    trial index) for that trial's randomness, so the result does not
    depend on the split.
    """
    if trials < 1:
        raise SimulationError(f"need at least one trial, got {trials}")
    seed = resolve_seed(seed)
    workers = min(resolve_workers(workers), trials)
    if workers == 1:
        return _run_block(task, seed, label, range(trials))
    _check_picklable(task)
    size = math.ceil(trials / workers)
    ranges = [range(lo, min(trials, lo + size)) for lo in range(0, trials, size)]
    context = multiprocessing.get_context(START_METHOD)
    with ProcessPoolExecutor(len(ranges), context) as pool:
        futures = [pool.submit(_run_block, task, seed, label, r) for r in ranges]
        return [outcome for future in futures for outcome in future.result()]
