"""Parallel trial execution over a process pool, deterministically seeded.

Every Monte-Carlo campaign in this repository is embarrassingly
parallel: trials are independent by construction, because each one draws
from its own ``RngFactory(seed).generator(label, trial=t)`` stream.  The
:class:`ParallelExecutor` exploits exactly that structure — workers
derive the *same* per-trial generators the serial loop would have built,
so a parallel run with a given seed produces bit-identical results to a
serial run, regardless of worker count, chunking or scheduling order.

Requirements on tasks
---------------------
A task handed to :meth:`ParallelExecutor.map_trials` must be a
*spawn-safe picklable callable*: a top-level function, a bound method of
a picklable object, or a :func:`functools.partial` over either.  Plain
``lambda``\\ s work for serial execution (``workers=1``) but cannot cross
a process boundary; the executor raises a :class:`SimulationError` with
that diagnosis up front rather than letting the pool fail obscurely.
:meth:`ParallelExecutor.map_blocks` has the same requirement; its task
receives the generators of a whole contiguous trial range at once, so
it can advance those trials together.

Start method
------------
The default multiprocessing context is ``fork`` where the platform
offers it (workers inherit the parent's imports — near-zero startup) and
``spawn`` otherwise.  Tasks must stay spawn-safe either way: nothing may
depend on inherited process state, since the same code must run on
platforms where ``spawn`` is the only option.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import LoadMonitor, MonitorConfig
from ..obs.trace import FlightRecorder, TraceConfig
from ..rng import RngFactory

__all__ = ["ParallelExecutor", "resolve_workers", "resolve_seed"]


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` request to a concrete positive count.

    ``None`` and ``1`` mean serial execution; ``0`` means one worker per
    available CPU; any other positive integer is taken literally.
    """
    if workers is None:
        return 1
    if workers < 0:
        raise SimulationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
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


def _run_chunk(
    task: Callable[..., Any],
    seed: int,
    label: str,
    trial_indices: Sequence[int],
    pass_trial: bool,
    args: Tuple[Any, ...],
    kwargs: Mapping[str, Any],
    collect_metrics: bool = False,
    monitor_config: Optional[MonitorConfig] = None,
    trace_config: Optional[TraceConfig] = None,
) -> List[Any]:
    """Run a contiguous block of trials (top-level: spawn-picklable).

    Rebuilds the :class:`RngFactory` from the resolved seed inside the
    worker, so each trial's generator is exactly the one the serial loop
    would have produced for the same ``(seed, label, trial)`` triple.

    With ``collect_metrics`` the task receives a *fresh*
    :class:`~repro.obs.metrics.MetricsRegistry` per trial as a
    ``metrics=`` keyword; with ``monitor_config`` it likewise receives a
    fresh :class:`~repro.obs.monitor.LoadMonitor` (publishing into that
    same per-trial registry) as a ``monitor=`` keyword; with
    ``trace_config`` it receives a fresh
    :class:`~repro.obs.trace.FlightRecorder` (seeded with the campaign
    seed, so its per-trial hash samplers match the serial loop's) as a
    ``trace=`` keyword.  When any collection is active, each entry of
    the returned list becomes ``(result, registry_snapshot_or_None,
    monitor_snapshot_or_None, trace_snapshot_or_None)``; the caller
    merges snapshots in trial order, which is what makes aggregate
    metrics, monitor output *and* trace output identical across worker
    counts.
    """
    factory = RngFactory(seed)
    collect = (
        collect_metrics or monitor_config is not None or trace_config is not None
    )
    results = []
    for t in trial_indices:
        gen = factory.generator(label, trial=t)
        call_kwargs = dict(kwargs)
        registry = None
        monitor = None
        recorder = None
        if collect_metrics:
            registry = MetricsRegistry()
            call_kwargs["metrics"] = registry
        if monitor_config is not None:
            monitor = LoadMonitor(monitor_config, metrics=registry)
            call_kwargs["monitor"] = monitor
        if trace_config is not None:
            recorder = FlightRecorder(trace_config, seed=seed)
            call_kwargs["trace"] = recorder
        if pass_trial:
            outcome = task(gen, t, *args, **call_kwargs)
        else:
            outcome = task(gen, *args, **call_kwargs)
        if collect:
            results.append(
                (
                    outcome,
                    registry.snapshot() if registry is not None else None,
                    monitor.snapshot() if monitor is not None else None,
                    recorder.snapshot() if recorder is not None else None,
                )
            )
        else:
            results.append(outcome)
    return results


def _run_block(
    task: Callable[[List[np.random.Generator]], Sequence[Any]],
    seed: int,
    label: str,
    trial_indices: Sequence[int],
) -> List[Any]:
    """Run one contiguous trial range as a block task (top-level:
    spawn-picklable); the task gets the range's per-trial generators."""
    factory = RngFactory(seed)
    gens = [factory.generator(label, trial=t) for t in trial_indices]
    outcomes = list(task(gens))
    if len(outcomes) != len(gens):
        raise SimulationError(
            f"block task returned {len(outcomes)} outcomes for {len(gens)} trials"
        )
    return outcomes


def _check_picklable(task: Callable[..., Any], *payload: Any) -> None:
    """Fail up front, with the diagnosis, if ``task`` cannot reach a worker."""
    try:
        pickle.dumps((task,) + payload)
    except Exception as exc:
        raise SimulationError(
            "parallel execution requires the task and its arguments to be "
            "picklable (a top-level function, a bound method of a picklable "
            f"object, or a functools.partial over either); got {task!r}: {exc}"
        ) from exc


class ParallelExecutor:
    """Fans independent trials out over worker processes.

    Parameters
    ----------
    workers:
        Worker processes: ``1`` (default) runs serially in-process,
        ``0`` uses every available CPU, ``n > 1`` uses exactly ``n``.
    chunk_size:
        Trials dispatched per pool task.  ``None`` picks a size that
        gives each worker a handful of chunks (amortising dispatch
        overhead while keeping the load balanced).
    mp_context:
        Multiprocessing start-method name (``"fork"``, ``"spawn"``,
        ``"forkserver"``).  ``None`` picks ``fork`` where available,
        ``spawn`` otherwise.

    The executor is reusable across :meth:`map_trials` calls (the pool
    is created lazily and kept warm) and doubles as a context manager.
    """

    #: Target number of chunks per worker when ``chunk_size`` is unset.
    CHUNKS_PER_WORKER = 4

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self._workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise SimulationError(f"chunk_size must be positive, got {chunk_size}")
        self._chunk_size = chunk_size
        if mp_context is not None:
            available = multiprocessing.get_all_start_methods()
            if mp_context not in available:
                raise SimulationError(
                    f"unknown start method {mp_context!r}; available: {available}"
                )
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def workers(self) -> int:
        """Resolved worker count (``0`` requests are already expanded)."""
        return self._workers

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (no-op when serial or never used)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            method = self._mp_context
            if method is None:
                available = multiprocessing.get_all_start_methods()
                method = "fork" if "fork" in available else "spawn"
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context(method),
            )
        return self._pool

    def _chunks(self, trials: int) -> List[range]:
        size = self._chunk_size
        if size is None:
            size = max(1, math.ceil(trials / (self._workers * self.CHUNKS_PER_WORKER)))
        return [range(lo, min(trials, lo + size)) for lo in range(0, trials, size)]

    def map_blocks(
        self,
        task: Callable[[List[np.random.Generator]], Sequence[Any]],
        trials: int,
        seed: Optional[int] = None,
        label: str = "trial",
    ) -> List[Any]:
        """Run ``task`` over contiguous trial ranges; results in trial order.

        ``task`` is called as ``task(gens)``, where ``gens`` lists the
        ``(seed, label, trial)`` streams of one contiguous range of
        trials in trial order, and must return one outcome per
        generator.  This lets a task advance many trials
        together (the Monte-Carlo campaigns run their greedy placement
        in lockstep across a block); splitting a range into blocks is
        the task's business.  Serially the one range is every trial;
        with ``chunk_size`` unset each worker gets one range of about
        ``trials / workers`` trials.  Like :meth:`map_trials`, the task
        must consume only each trial's generator for that trial's
        randomness, so the result does not depend on the split.
        """
        if trials < 1:
            raise SimulationError(f"need at least one trial, got {trials}")
        seed = resolve_seed(seed)
        if self._workers == 1 or trials == 1:
            return _run_block(task, seed, label, range(trials))
        _check_picklable(task)
        size = self._chunk_size or math.ceil(trials / self._workers)
        pool = self._ensure_pool()
        futures = [
            pool.submit(_run_block, task, seed, label, range(lo, min(trials, lo + size)))
            for lo in range(0, trials, size)
        ]
        results: List[Any] = []
        for future in futures:
            results.extend(future.result())
        return results

    def map_trials(
        self,
        task: Callable[..., Any],
        trials: int,
        seed: Optional[int] = None,
        label: str = "trial",
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        pass_trial: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        monitor: Optional[LoadMonitor] = None,
        trace: Optional[FlightRecorder] = None,
    ) -> List[Any]:
        """Run ``task`` once per trial; results come back in trial order.

        ``task`` is called as ``task(gen, *args, **kwargs)`` — or
        ``task(gen, trial, *args, **kwargs)`` with ``pass_trial=True`` —
        where ``gen`` is the ``(seed, label, trial)`` stream the serial
        loop would have used.  The task must consume only ``gen`` for
        randomness; that is what makes the fan-out order-invariant.

        With ``metrics`` set, the task must additionally accept a
        ``metrics=`` keyword: every trial records into a *fresh*
        per-trial registry (built inside the worker), and the snapshots
        are merged into ``metrics`` in trial order once all trials are
        in.  Because the merge order is the trial order — never the
        completion order — the aggregate metric values are identical
        for every worker count.

        With ``monitor`` set (an enabled
        :class:`~repro.obs.monitor.LoadMonitor`), the task must accept a
        ``monitor=`` keyword: each trial feeds a fresh per-trial monitor
        built from ``monitor.config`` inside the worker, and the monitor
        snapshots merge back via :meth:`LoadMonitor.merge_trial` — again
        strictly in trial order, so event logs and alert streams are
        identical for every worker count.

        With ``trace`` set (an enabled
        :class:`~repro.obs.trace.FlightRecorder`), the task must accept
        a ``trace=`` keyword: each trial feeds a fresh per-trial
        recorder built from ``trace.config`` and the campaign seed
        inside the worker (hash samplers are keyed on ``(seed, trial)``,
        so they admit exactly the requests the serial loop would), and
        recorder snapshots merge back via
        :meth:`FlightRecorder.merge_trial` in trial order — the trace
        JSONL and suspects blocks are bit-identical for every worker
        count.
        """
        if trials < 1:
            raise SimulationError(f"need at least one trial, got {trials}")
        kwargs = dict(kwargs or {})
        seed = resolve_seed(seed)
        # A disabled (null) registry/monitor records nothing, so skip
        # the whole per-trial collection machinery for it as well.
        collect_metrics = metrics is not None and metrics.enabled
        collect_monitor = monitor is not None and monitor.enabled
        monitor_config = monitor.config if collect_monitor else None
        collect_trace = trace is not None and trace.enabled
        trace_config = trace.config if collect_trace else None
        collect = collect_metrics or collect_monitor or collect_trace
        if self._workers == 1 or trials == 1:
            results = _run_chunk(
                task, seed, label, range(trials), pass_trial, args, kwargs,
                collect_metrics, monitor_config, trace_config,
            )
        else:
            _check_picklable(task, args, kwargs, monitor_config, trace_config)
            pool = self._ensure_pool()
            futures = [
                pool.submit(
                    _run_chunk, task, seed, label, list(chunk), pass_trial,
                    args, kwargs, collect_metrics, monitor_config, trace_config,
                )
                for chunk in self._chunks(trials)
            ]
            results = []
            for future in futures:
                results.extend(future.result())
        if not collect:
            return results
        unwrapped: List[Any] = []
        for outcome, metrics_snapshot, monitor_snapshot, trace_snapshot in results:
            if metrics_snapshot is not None:
                metrics.merge_snapshot(metrics_snapshot)
            if monitor_snapshot is not None:
                monitor.merge_trial(monitor_snapshot)
            if trace_snapshot is not None:
                trace.merge_trial(trace_snapshot)
            unwrapped.append(outcome)
        return unwrapped
