"""Full-evaluation campaign: every figure in one run, one report.

``python -m repro all [--full] [--output report.md]`` regenerates the
paper's entire evaluation section and emits a single document with every
table and the qualitative verdicts — the artifact to diff against
EXPERIMENTS.md after changing anything load-bearing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..sim.parallel import resolve_seed
from .fig3 import run_fig3a, run_fig3b
from .fig4 import run_fig4
from .fig5 import run_fig5
from .report import ExperimentResult

__all__ = [
    "CampaignResult",
    "run_campaign",
    "run_campaign_spec",
    "FIGURE_DRIVERS",
]

#: Figure id -> driver.  fig5 runs once and serves both panels.
FIGURE_DRIVERS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig4": run_fig4,
    "fig5": run_fig5,
}


@dataclass(frozen=True)
class CampaignResult:
    """All figure results plus timing, renderable as one document.

    ``seed`` is the root seed every figure ran with — drawn once when
    the caller gave none — so ``--seed`` reruns reproduce the tables.
    """

    results: Tuple[ExperimentResult, ...]
    elapsed_seconds: float
    trials: int
    seed: int

    def render(self) -> str:
        """Markdown-ish full report."""
        parts = [
            "# Secure Cache Provision — full evaluation run",
            f"(trials per sweep point: {self.trials}; seed: {self.seed}; "
            f"wall clock: {self.elapsed_seconds:.1f}s)",
            "",
        ]
        for result in self.results:
            parts.append(result.render())
            parts.append("")
        return "\n".join(parts)

    def by_name(self, name: str) -> ExperimentResult:
        """Fetch one figure's result."""
        for result in self.results:
            if result.name == name:
                return result
        raise ConfigurationError(
            f"campaign has no result {name!r}; ran {[r.name for r in self.results]}"
        )


def run_campaign(
    trials: int = 25,
    seed: Optional[int] = None,
    figures: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    metrics=None,
    tracer=None,
    monitor=None,
    chaos=None,
) -> CampaignResult:
    """Run the selected figures (default: all) and bundle the results.

    Parameters
    ----------
    trials:
        Trials per sweep point (paper scale: 200).
    seed:
        Root seed shared by every figure; ``None`` draws one (recorded
        in the result and printed in its report).
    figures:
        Subset of :data:`FIGURE_DRIVERS` keys, in the order to run.
    progress:
        Optional callback invoked with a status line per figure (the
        CLI passes ``print``).
    workers:
        Trial-execution processes per sweep point (``0`` = one per CPU,
        default ``1`` = serial); results are identical for every value.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` shared by every
        figure (``None`` = observability off).
    tracer:
        Optional :class:`repro.obs.Tracer` for wall-clock phase spans.
    monitor:
        Optional :class:`repro.obs.LoadMonitor` shared by every figure;
        each sweep point's trials become trial-clock window records with
        the Theorem-2 bound attached where the sweep knows its ``x``.
    chaos:
        Optional :class:`repro.chaos.ChaosConfig` shared by every
        figure: each trial is degraded at the failure process's
        steady state (``None`` = healthy cluster, the paper's setting).
    """
    if figures is None:
        figures = list(FIGURE_DRIVERS)
    unknown = [f for f in figures if f not in FIGURE_DRIVERS]
    if unknown:
        raise ConfigurationError(
            f"unknown figures {unknown}; available: {sorted(FIGURE_DRIVERS)}"
        )
    seed = resolve_seed(seed)
    results: List[ExperimentResult] = []
    started = time.monotonic()
    for figure in figures:
        if progress is not None:
            progress(f"running {figure} ({trials} trials per point)...")
        results.append(
            FIGURE_DRIVERS[figure](
                trials=trials, seed=seed, workers=workers,
                metrics=metrics, tracer=tracer, monitor=monitor, chaos=chaos,
            )
        )
    return CampaignResult(
        results=tuple(results),
        elapsed_seconds=time.monotonic() - started,
        trials=trials,
        seed=seed,
    )


def run_campaign_spec(
    spec,
    figures: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    metrics=None,
    tracer=None,
    monitor=None,
) -> CampaignResult:
    """Spec-first figure campaign: execution knobs from a scenario spec.

    Takes ``trials`` / ``seed`` / ``workers`` / ``chaos`` from a
    :class:`~repro.scenario.spec.ScenarioSpec` (the chaos section is
    materialised through the component registry) instead of threaded
    kwargs; each figure keeps its own paper-mandated system parameters,
    so the spec's ``system`` only scopes the chaos builder.  The kwargs
    form above remains the compatible entry point — this shim routes
    into it, keeping golden fixtures byte-identical.
    """
    from ..scenario.build import BuildContext, build_component

    chaos = None
    if spec.chaos is not None:
        chaos = build_component(
            "chaos", spec.chaos, BuildContext(spec.system, spec.seed),
            path="chaos",
        )
    return run_campaign(
        trials=spec.trials,
        seed=spec.seed,
        figures=figures,
        progress=progress,
        workers=spec.workers,
        metrics=metrics,
        tracer=tracer,
        monitor=monitor,
        chaos=chaos,
    )
