"""Multi-trial orchestration: independent seeds, aggregated results."""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence

import numpy as np

from ..exceptions import SimulationError
from ..obs.tracer import as_tracer
from ..types import LoadReport, LoadVector
from .parallel import map_blocks, resolve_seed

__all__ = ["run_trials"]


def run_trials(
    block_task: Callable[[range, List[np.random.Generator]], Sequence[LoadVector]],
    trials: int,
    seed: Optional[int] = None,
    label: str = "trial",
    metadata: Optional[Mapping[str, object]] = None,
    workers: int = 1,
    metrics=None,
    tracer=None,
    monitor=None,
) -> LoadReport:
    """Run ``block_task`` under ``trials`` independent RNG streams.

    Parameters
    ----------
    block_task:
        Called as ``block_task(trials, gens)`` with a contiguous range
        of trial indices and their dedicated generators, in trial
        order, and returning one :class:`~repro.types.LoadVector` per
        generator (see :func:`~repro.sim.parallel.map_blocks`; the
        Monte-Carlo campaigns use the range to run their trials in
        lockstep).  Each trial must consume *only* its own generator
        for randomness, so trials stay independent and reproducible.
        With ``workers > 1`` it must also be picklable (a top-level
        function, bound method or ``functools.partial`` — not a lambda).
    trials:
        Number of repetitions.
    seed:
        Root seed (``None`` draws fresh entropy once; the resolved value
        is recorded in the report metadata for exact reruns).
    label:
        RNG stream namespace; two campaigns with different labels and
        the same seed are independent.
    metadata:
        Attached to the returned report (plus a ``seed`` key).
    workers:
        Worker processes: ``1`` (default) is the serial path, ``0``
        means one per CPU, ``n > 1`` fans trials out over ``n``
        processes.  The results are bit-identical for every value.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`.  The campaign
        records per-trial normalized-max histograms and per-node load
        counters from the trial results, which come back in trial order
        regardless of worker count — so the recorded values are
        identical for every ``workers`` value.
    tracer:
        Optional :class:`repro.obs.Tracer`; wall-clock spans for the
        trial fan-out and the aggregation step (this process only).
    monitor:
        Optional :class:`repro.obs.LoadMonitor`.  Each trial's load
        vector becomes one trial-clock window record
        (:meth:`~repro.obs.LoadMonitor.record_trial`) evaluated against
        the alert rules; when the campaign metadata carries an ``x``
        (the attack sweeps do), the Theorem-2 bound is refreshed per
        call.  Recording happens in the parent over the trial-ordered
        results, so monitor output is identical for every ``workers``
        value.
    """
    if trials < 1:
        raise SimulationError(f"need at least one trial, got {trials}")
    seed = resolve_seed(seed)
    tracer = as_tracer(tracer)
    with tracer.span("trials"):
        vectors = map_blocks(
            block_task, trials, seed=seed, label=label, workers=workers
        )
    with tracer.span("report"):
        # Results are ordered by trial index, so the configuration check is
        # anchored to trial 0 — never to whichever trial finished first.
        reference = vectors[0]
        normalized = np.empty(trials, dtype=float)
        for t, vector in enumerate(vectors):
            if vector.total_rate != reference.total_rate or vector.n_nodes != reference.n_nodes:
                raise SimulationError(
                    f"trial {t} changed total_rate or n_nodes relative to trial 0; "
                    "each campaign must hold the configuration fixed"
                )
            normalized[t] = vector.normalized_max
        meta = dict(metadata or {})
        meta.setdefault("seed", seed)
        if metrics is not None and metrics.enabled:
            _record_campaign_metrics(metrics, label, vectors, normalized, meta)
        if monitor is not None and monitor.enabled:
            def _as_int(value):
                return int(value) if isinstance(value, (int, np.integer)) else None

            x, c, d = _as_int(meta.get("x")), _as_int(meta.get("c")), _as_int(meta.get("d"))
            eff = meta.get("effective_d")
            effective_d = float(eff) if isinstance(eff, (int, float, np.floating, np.integer)) else None
            for t, vector in enumerate(vectors):
                monitor.record_trial(
                    t, vector, campaign=label, x=x, c=c, d=d,
                    effective_d=effective_d,
                )
    return LoadReport(
        normalized_max_per_trial=normalized,
        total_rate=float(reference.total_rate),
        n_nodes=int(reference.n_nodes),
        metadata=meta,
    )


def _record_campaign_metrics(
    metrics,
    label: str,
    vectors,
    normalized: np.ndarray,
    metadata: Optional[dict] = None,
) -> None:
    """Record one campaign's deterministic aggregates.

    Runs in the parent over the trial-ordered result list, so worker
    count cannot influence any value.  Per-node load counters sum the
    offered load each node saw across trials — the per-node series the
    paper's Theorem 1 bounds.  When the metadata carries the attack
    shape (``x`` keys replicated ``c`` ways), the campaign's total
    balls thrown (``trials * x * c``) lands in a counter so the perf
    profiler can report balls/sec without re-deriving the workload.
    """
    metrics.counter("campaign_trials_total", campaign=label).inc(len(vectors))
    meta = metadata or {}
    x, c = meta.get("x"), meta.get("c")
    if isinstance(x, (int, np.integer)) and isinstance(c, (int, np.integer)):
        metrics.counter("campaign_balls_total", campaign=label).inc(
            len(vectors) * int(x) * int(c)
        )
    histogram = metrics.histogram("trial_normalized_max", campaign=label)
    histogram.observe_many(normalized.tolist())
    node_totals = np.zeros_like(vectors[0].loads, dtype=float)
    for vector in vectors:
        node_totals += vector.loads
    for node, total in enumerate(node_totals.tolist()):
        if total:
            metrics.counter("node_load_sum", node=str(node)).inc(total)
