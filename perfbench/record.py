#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record.py --seeds 0-49 [--workload NAME ...]

Runs one untraced unit per ``(workload, seed)`` and writes its digests
to ``perfbench/reference.json`` (entries for other workloads and seeds
are kept).  Re-record only when a change is *meant* to alter simulated
outputs; the benchmark counts every other digest change as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    reference = json.loads(args.out.read_text()) if args.out.is_file() else {}
    for name in args.workload or workloads.WORKLOADS:
        build, unit_of, _ = workloads.WORKLOADS[name]
        entries = reference.setdefault(name, {})
        for seed in args.seeds:
            unit = unit_of(build(seed))
            if not all(unit.ok):
                print(f"{name} seed {seed}: conservation check failed", file=sys.stderr)
                return 1
            entries[str(seed)] = unit.digests
            print(f"{name} seed {seed}: {' '.join(unit.digests)}", flush=True)
        reference[name] = dict(sorted(entries.items(), key=lambda item: int(item[0])))
        args.out.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
