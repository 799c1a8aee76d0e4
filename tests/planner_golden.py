"""Golden planner plans: the recorded oracle of the per-replica plan path.

``golden/planner_plans.json`` was recorded while the planner still built
and simulated every replica twice — once for the identity-order
feasibility check and once more for the order the injection-order search
chose — and scored permutations either incrementally or by rebuilding the
schedule per permutation.  The current planner must reproduce every entry
exactly.

The grid is the tiny GPT and T5 cost models of ``conftest.py`` ×
{memory-aware adaptive, adaptive, 1F1B} × order search on/off ×
data-parallel size {1, 2}.  Each entry stores ``IterationPlan.to_dict()``
without the wall-clock planning times and, for the cyclic kinds with order
search on, every replica's chosen order, its makespan and the number of
permutations scored.

Re-record (only for an intended change of plans) with::

    PYTHONPATH=src python tests/planner_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.cluster.device import DeviceSpec
from repro.core.adaptive_schedule import ScheduleKind
from repro.core.planner import DynaPipePlanner, IterationPlan, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.flan import SyntheticFlanDataset
from repro.data.truncation import truncate_samples
from repro.model.config import ModelArch, ModelConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "planner_plans.json"

#: Samples planned per entry (a prefix of the conftest sample sets).
NUM_SAMPLES = 64

#: Device memory of every entry: tight enough that the memory-aware schedule
#: gates injection and the adaptive one falls back to recomputation.
DEVICE_MEMORY_BYTES = 2.0e9

KINDS = (
    ScheduleKind.MEMORY_AWARE_ADAPTIVE,
    ScheduleKind.ADAPTIVE,
    ScheduleKind.ONE_F_ONE_B,
)


def entry_key(model: str, kind: ScheduleKind, order_search: bool, dp: int) -> str:
    return f"{model}/{kind.value}/search={int(order_search)}/dp={dp}"


def grid() -> list[tuple[str, ScheduleKind, bool, int]]:
    return [
        (model, kind, order_search, dp)
        for model in ("gpt", "t5")
        for kind in KINDS
        for order_search in (False, True)
        for dp in (1, 2)
    ]


def plan_entry(
    cost_model: CostModel, samples, kind: ScheduleKind, order_search: bool, dp: int
) -> dict[str, Any]:
    """Plan one grid point and return its JSON-normal golden entry."""
    config = PlannerConfig(
        schedule_kind=kind,
        order_search=order_search,
        tmax_sample_count=8,
        device_memory_bytes=DEVICE_MEMORY_BYTES,
    )
    plan = DynaPipePlanner(cost_model, data_parallel_size=dp, config=config).plan(
        samples[:NUM_SAMPLES]
    )
    return json.loads(json.dumps(plan_fields(plan, kind)))


def plan_fields(plan: IterationPlan, kind: ScheduleKind) -> dict[str, Any]:
    payload = plan.to_dict()
    del payload["planning_time_s"]
    for replica in payload["replicas"]:
        del replica["metadata"]["planning_time_s"]
    entry: dict[str, Any] = {"plan": payload}
    if kind is not ScheduleKind.ONE_F_ONE_B:
        entry["searches"] = [
            None
            if replica.ordering_search is None
            else {
                "order": replica.ordering_search.order,
                "makespan_ms": replica.ordering_search.makespan_ms,
                "evaluated": replica.ordering_search.evaluated,
            }
            for replica in plan.replicas
        ]
    return entry


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------- recording
# The inputs below mirror the ``tiny_gpt_config``/``tiny_t5_config``/
# ``small_device``/``*_cost_model``/``flan_samples*`` fixtures of conftest.py;
# the golden test plans with those fixtures, so any drift shows up as a
# mismatch.


def _inputs() -> dict[str, tuple[CostModel, list]]:
    device = DeviceSpec(
        name="test-gpu-8GB",
        peak_flops=100e12,
        memory_bandwidth=1e12,
        memory_capacity=8 * 1024**3,
    )
    dataset = SyntheticFlanDataset(num_samples=600, seed=7)
    inputs = {}
    for model, arch, layers, decoder_only in (
        ("gpt", ModelArch.GPT, 8, True),
        ("t5", ModelArch.T5, 4, False),
    ):
        config = ModelConfig(
            name=f"{model}-tiny",
            arch=arch,
            num_layers=layers,
            hidden_size=512,
            num_heads=8,
            kv_channels=64,
            ffn_hidden_size=2048,
            vocab_size=32000,
        )
        cost_model = CostModel(
            config,
            num_stages=4,
            device_spec=device,
            max_profile_batch_size=32,
            max_profile_seq_len=2048,
        )
        samples = truncate_samples(dataset.samples, 1024, decoder_only=decoder_only)
        inputs[model] = (cost_model, samples)
    return inputs


def record() -> dict[str, Any]:
    inputs = _inputs()
    entries = {
        entry_key(model, kind, order_search, dp): plan_entry(
            *inputs[model], kind, order_search, dp
        )
        for model, kind, order_search, dp in grid()
    }
    return {
        "num_samples": NUM_SAMPLES,
        "device_memory_bytes": DEVICE_MEMORY_BYTES,
        "entries": entries,
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
