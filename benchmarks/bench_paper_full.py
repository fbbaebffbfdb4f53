"""End-to-end wall time of the paper's whole evaluation: ``repro all``.

The headline number for the Monte-Carlo engine.  One subprocess runs
``python -m repro all`` exactly as a user regenerates every figure
(fig3a, fig3b, fig4, fig5), and the perf harness times it as the
bench's engine phase.  The child process is timed from the outside, so
the harness's ``tracemalloc`` capture never slows the measured run.

- smoke scale: ``repro all --trials 1``, seconds to a minute;
- full scale: ``repro all --full`` — 200 trials per sweep point,
  n up to 1000, m = 1e5 (minutes).  A full run through the harness is
  appended to ``benchmarks/results/history.jsonl`` and
  ``BENCH_paper_full.json``.

Running this script directly defaults to smoke scale, and ``--full``
selects full scale.  Through the perf harness (the pytest entry
``bench_paper_full``, ``repro perf run``) the default is full scale,
as for every ``bench_*.py``; ``REPRO_BENCH_SMOKE=1`` or ``--smoke``
selects smoke scale there.

Run from ``benchmarks/`` with ``PYTHONPATH=../src``::

    python bench_paper_full.py           # smoke
    python bench_paper_full.py --full    # paper scale (minutes)
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

from _util import register, smoke_mode

from repro.perf.harness import run_suite

SEED = 2013
SMOKE_ARGS = ["--trials", "1"]
FULL_ARGS = ["--full"]
#: Every figure section the report must contain.
FIGURES = ("fig3a", "fig3b", "fig4", "fig5")

SRC = Path(__file__).resolve().parent.parent / "src"


def _run() -> dict:
    smoke = smoke_mode()
    argv = ["all", *(SMOKE_ARGS if smoke else FULL_ARGS), "--seed", str(SEED)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - start
    return {
        "smoke": smoke,
        "config": {"argv": argv, "seed": SEED},
        "cpu_count": os.cpu_count(),
        "returncode": proc.returncode,
        "wall_seconds": seconds,
        "figures": [f for f in FIGURES if f"== {f}:" in proc.stdout],
        "stderr_tail": proc.stderr[-2000:],
    }


def _render(payload: dict) -> str:
    return "\n".join([
        "== paper_full: end-to-end `python -m repro "
        + " ".join(payload["config"]["argv"]) + "`",
        f"host cpus: {payload['cpu_count']}, smoke: {payload['smoke']}",
        f"exit code {payload['returncode']}, "
        f"wall {payload['wall_seconds']:.1f} s, "
        f"figures: {', '.join(payload['figures'])}",
    ])


def _check(payload: dict) -> None:
    assert payload["returncode"] == 0, payload["stderr_tail"]
    assert tuple(payload["figures"]) == FIGURES


SPEC = register(
    "paper_full", run=_run, render=_render, check=_check, seed=SEED,
)


def bench_paper_full(benchmark):
    benchmark.pedantic(
        lambda: SPEC.execute(raise_on_check=True), rounds=1, iterations=1
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_paper_full", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper scale (repro all --full); recorded in the bench history",
    )
    args = parser.parse_args(argv)
    if args.full:
        (result,) = run_suite(["paper_full"], smoke=False, progress=print)
    else:
        result = SPEC.execute(smoke=True)
    if result.error:
        print(f"check failed: {result.error}", file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
