"""Tier-2 micro-benchmark of the planner's DP hot path and planner pool.

A regression guard for planning time: it exercises the window-table DP
that dominates per-iteration planning — window-table construction, the
batched cost-model queries over unique shapes, and the table DP — plus
the process-backed :class:`~repro.runtime.planner_pool.PlannerPool`, on a
small model whose profile builds in about a second.  Run it with

    pytest benchmarks/bench_planner_hotpath.py --benchmark-disable -s

(or ``pytest benchmarks/ -m tier2_bench``) to catch planning-time
regressions without the full Fig. 17 sweep.  Besides timing, it asserts that
pooled plans are bit-identical to serial planning.  That the window-table
partition matches the scalar reference DP is pinned by
``tests/test_core_microbatch.py::TestVectorizedEquivalence`` against
``tests/oracles/dp_scalar.py``.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced workload with the timing
assertions relaxed — the smoke mode the tier-1 suite uses to keep these
benchmark files from silently rotting.  The multi-core speed-up assertion
additionally requires >= 4 CPU cores (the claim is about multi-core hosts).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.microbatch import DynamicMicroBatcher
from repro.core.planner import DynaPipePlanner, PlannerConfig
from repro.costmodel.cost_model import CostModel
from repro.data.tasks import Sample
from repro.model.config import ModelArch, ModelConfig
from repro.runtime.planner_pool import PlannerPool

from common import emit

#: Reduced workload + relaxed timing asserts (used as a tier-1 smoke check).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Ceiling on the mean split time for the largest mini-batch.
#: The window-table DP runs it in well under 100 ms; the pre-vectorization scalar
#: chain took several seconds, so this catches order-of-magnitude
#: regressions with ample headroom for slow CI machines.
SPLIT_TIME_LIMIT_S = 1.0

MINIBATCH_SIZES = (64, 192) if SMOKE else (64, 192, 448)
REPEATS = 1 if SMOKE else 3

#: Planner-pool scaling: worker counts compared on the same iteration set.
POOL_WORKER_COUNTS = (1, 4)
POOL_ITERATIONS = 3 if SMOKE else 12
POOL_MINIBATCH_SAMPLES = 96 if SMOKE else 256
#: Required wall-clock speed-up of 4 workers over 1 on a multi-core host.
POOL_SPEEDUP_FLOOR = 2.0

BENCH_CONFIG = ModelConfig(
    name="gpt-bench-small",
    arch=ModelArch.GPT,
    num_layers=8,
    hidden_size=1024,
    num_heads=16,
    kv_channels=64,
    ffn_hidden_size=4096,
    vocab_size=32000,
)


def synthetic_minibatch(num_samples: int, seed: int) -> list[Sample]:
    """Seeded heavy-tailed sample lengths (mimicking the FLAN mixture)."""
    rng = np.random.default_rng(seed)
    lengths = np.clip(rng.lognormal(mean=5.0, sigma=0.8, size=num_samples), 8, 2040)
    return [Sample(input_tokens=int(n), target_tokens=0) for n in lengths]


def run():
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    rows = []
    for num_samples in MINIBATCH_SIZES:
        batcher = DynamicMicroBatcher(cost_model, tmax_sample_count=16)
        samples = synthetic_minibatch(num_samples, seed=num_samples)
        elapsed = []
        for repeat in range(REPEATS):
            # Fresh geometry per repeat: perturb one sample so the one-slot
            # geometry cache cannot serve the timing run.
            perturbed = list(samples)
            perturbed[0] = Sample(
                input_tokens=samples[0].input_tokens + repeat, target_tokens=0
            )
            start = time.perf_counter()
            batcher.split(perturbed)
            elapsed.append(time.perf_counter() - start)
        solution = batcher.last_solution
        rows.append(
            [
                num_samples,
                round(sum(elapsed) / len(elapsed), 4),
                round(max(elapsed), 4),
                solution.cost_evaluations,
                solution.num_microbatches,
            ]
        )
    return rows


HEADERS = [
    "minibatch_samples", "mean_split_s", "max_split_s",
    "dp_cost_evaluations", "num_microbatches",
]


@pytest.mark.tier2_bench
def test_planner_hotpath(benchmark, capsys):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "planner_hotpath",
        "Planner hot path: window-table DP split time (solver only)",
        HEADERS,
        rows,
        capsys,
    )
    # Split time grows with the mini-batch but stays far below the scalar
    # regime; a regression to per-window Python cost evaluation trips this.
    mean_times = [row[1] for row in rows]
    if not SMOKE:
        assert mean_times[-1] < SPLIT_TIME_LIMIT_S
    # The DP evaluated a deduplicated shape set, not every window.
    for row in rows:
        num_samples, evaluations = row[0], row[3]
        max_windows = num_samples * min(num_samples, 256)
        assert 0 < evaluations <= max_windows


# --------------------------------------------------------------------- pool


def run_pool():
    """Plan the same iteration set with 1 and 4 worker processes.

    Returns one row per worker count: wall-clock time from pool start to the
    last plan arriving, the CPU time the workers spent planning,
    and the ratio of the two (> 1 means real parallelism).
    """
    cost_model = CostModel(
        BENCH_CONFIG, num_stages=4, max_profile_batch_size=128, max_profile_seq_len=2048
    )
    planner = DynaPipePlanner(
        cost_model, config=PlannerConfig(order_search=False, tmax_sample_count=16)
    )
    minibatches = [
        synthetic_minibatch(POOL_MINIBATCH_SAMPLES, seed=100 + i)
        for i in range(POOL_ITERATIONS)
    ]
    rows = []
    wall: dict[int, float] = {}
    pools: dict[int, PlannerPool] = {}
    for workers in POOL_WORKER_COUNTS:
        pool = PlannerPool(num_workers=workers, lookahead=len(minibatches))
        pool.submit_job("bench", planner, minibatches)
        start = time.perf_counter()
        pool.start()
        deadline = start + 600
        # Leave as soon as a plan fails: a failed iteration never arrives,
        # so waiting for it would only run out the deadline.
        while (
            len(pool.planned_iterations("bench")) < len(minibatches)
            and not pool.job_errors("bench")
            and time.perf_counter() < deadline
        ):
            time.sleep(0.005)
        elapsed = time.perf_counter() - start
        pool.stop()
        if pool.job_errors("bench"):
            iteration, error = pool.job_errors("bench")[0]
            raise AssertionError(
                f"planning failed with {workers} workers (iteration {iteration}): "
                f"{type(error).__name__}: {error}"
            )
        assert not pool.job_abandoned("bench"), pool.job_abandoned("bench")
        wall[workers] = elapsed
        pools[workers] = pool
        planning_cpu = sum(record.planning_time_s for record in pool.records)
        rows.append([workers, round(elapsed, 3), round(planning_cpu, 3),
                     round(planning_cpu / elapsed, 2)])

    # Correctness guards: every worker count produced plans that match
    # serial (in-process) planning bit for bit, for every iteration — the
    # later iterations are the ones planned under contention.
    for iteration, minibatch in enumerate(minibatches):
        reference = planner.plan(list(minibatch), iteration=iteration).plans[0].to_dict()
        for workers, pool in pools.items():
            stored = pool.payload("bench", iteration)["replicas"][0]
            reference["metadata"]["planning_time_s"] = stored["metadata"]["planning_time_s"]
            assert stored == reference, (
                f"pooled plan (iteration {iteration}, {workers} workers) != serial plan"
            )

    speedup = wall[POOL_WORKER_COUNTS[0]] / wall[POOL_WORKER_COUNTS[-1]]
    rows.append(["speedup_4v1", round(speedup, 2), "", ""])
    return rows, speedup


POOL_HEADERS = ["workers", "wall_s", "planning_cpu_s", "parallelism"]


@pytest.mark.tier2_bench
def test_planner_pool_scaling(benchmark, capsys):
    rows, speedup = benchmark.pedantic(run_pool, rounds=1, iterations=1)
    emit(
        "planner_pool_scaling",
        "Planner pool: wall-clock planning time vs worker processes",
        POOL_HEADERS,
        rows,
        capsys,
    )
    # The paper's Fig. 17 overlap claim needs *real* parallel speed-up from
    # extra planner workers; single-core hosts (and the smoke mode) only run
    # the correctness guards inside run_pool().
    if not SMOKE and (os.cpu_count() or 1) >= 4:
        assert speedup >= POOL_SPEEDUP_FLOOR, (
            f"4 planner workers only {speedup:.2f}x faster than 1 "
            f"(need >= {POOL_SPEEDUP_FLOOR}x)"
        )
