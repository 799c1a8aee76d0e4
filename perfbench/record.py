"""Regenerate ``expected.json``, the stored output fingerprints of known seeds.

Usage, from the repository root::

    python3 perfbench/record.py --seeds 0-15 --scale full

Each ``(scale, workload, seed)`` runs in a fresh child process exactly as a
benchmark run would, with no measuring time, so only the fixed prefix (or
two replays) executes.  Re-record only when a change is meant to alter the
program's outputs; otherwise a mismatch is the bug the output check exists
to catch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.fingerprint import EXPECTED_PATH  # noqa: E402
from perfbench.run import BUDGET_S, spawn_child  # noqa: E402
from perfbench.workloads import SCALES, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=[0], help="e.g. 0-15 or 0,3,7")
    parser.add_argument("--scale", choices=SCALES, action="append")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    stored = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for scale in args.scale or SCALES:
        for workload in args.workload or WORKLOADS:
            for seed in args.seeds:
                child = spawn_child(workload, seed, 0, scale, 0.0, time.monotonic() + BUDGET_S)
                if child is None or child["failed"]:
                    print(f"{scale} {workload} seed {seed}: run failed", file=sys.stderr)
                    return 1
                stored.setdefault(scale, {}).setdefault(workload, {})[str(seed)] = child[
                    "fields"
                ]
                EXPECTED_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
                print(f"{scale} {workload} seed {seed}: {len(child['fields'])} fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
