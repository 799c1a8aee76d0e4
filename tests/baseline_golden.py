"""Golden MLM+DS baseline plans: the recorded oracle of the baseline's replica path.

``golden/baseline_plans.json`` was recorded while the baseline still built
its 1F1B schedules with ``AdaptiveScheduler.build`` and timed them with
``simulate_schedule`` itself.  The current baseline must reproduce every
entry exactly.

The grid is the tiny GPT and T5 cost models of ``conftest.py`` ×
data-parallel size {1, 2} × recomputation {none, selective, full}.  Each
entry stores ``IterationPlan.to_dict()`` without the wall-clock planning
times.  One extra point (GPT, 2048-token rows, 64 rows per micro-batch, no
recomputation) does not fit the device and stores the exact
``OutOfMemoryError`` message.

Re-record (only for an intended change of plans) with::

    PYTHONPATH=src python tests/baseline_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.baselines.mlm_ds import BaselineConfig, MLMDeepSpeedBaseline
from repro.core.recomputation import OutOfMemoryError
from repro.costmodel.cost_model import CostModel
from repro.model.memory import RecomputeMode

from planner_golden import _inputs

GOLDEN_PATH = Path(__file__).parent / "golden" / "baseline_plans.json"

#: Samples planned per entry (a prefix of the conftest sample sets).
NUM_SAMPLES = 96

#: Packing length and packed rows per micro-batch of every grid entry.
MAX_SEQ_LEN = 1024
MICRO_BATCH_SIZE = 2

#: The out-of-memory point: (max_seq_len, micro_batch_size, recompute).
OOM_POINT = (2048, 64, RecomputeMode.NONE)

MODES = (RecomputeMode.NONE, RecomputeMode.SELECTIVE, RecomputeMode.FULL)


def entry_key(model: str, dp: int, mode: RecomputeMode) -> str:
    return f"{model}/dp={dp}/recompute={mode.value}"


def grid() -> list[tuple[str, int, RecomputeMode]]:
    return [(model, dp, mode) for model in ("gpt", "t5") for dp in (1, 2) for mode in MODES]


def plan_entry(
    cost_model: CostModel, samples, dp: int, mode: RecomputeMode
) -> dict[str, Any]:
    """Plan one grid point and return its JSON-normal golden entry."""
    baseline = MLMDeepSpeedBaseline(
        cost_model,
        data_parallel_size=dp,
        config=BaselineConfig(
            max_seq_len=MAX_SEQ_LEN, micro_batch_size=MICRO_BATCH_SIZE, recompute=mode
        ),
    )
    payload = baseline.plan(samples[:NUM_SAMPLES], iteration=3).to_dict()
    del payload["planning_time_s"]
    for replica in payload["replicas"]:
        del replica["metadata"]["planning_time_s"]
    return json.loads(json.dumps(payload))


def oom_message(cost_model: CostModel, samples) -> str:
    """The error text of the out-of-memory point (GPT, all samples)."""
    max_seq_len, micro_batch_size, mode = OOM_POINT
    baseline = MLMDeepSpeedBaseline(
        cost_model,
        config=BaselineConfig(
            max_seq_len=max_seq_len, micro_batch_size=micro_batch_size, recompute=mode
        ),
    )
    try:
        baseline.plan(list(samples))
    except OutOfMemoryError as exc:
        return str(exc)
    raise AssertionError("the out-of-memory point planned without error")


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def record() -> dict[str, Any]:
    inputs = _inputs()
    return {
        "num_samples": NUM_SAMPLES,
        "entries": {
            entry_key(model, dp, mode): plan_entry(*inputs[model], dp, mode)
            for model, dp, mode in grid()
        },
        "oom_message": oom_message(*inputs["gpt"]),
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
