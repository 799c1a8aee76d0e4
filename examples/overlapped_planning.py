"""Overlapping planning with execution (paper §3 / Fig. 9 / Fig. 17).

DynaPipe's per-iteration planning takes a noticeable fraction of a second to
seconds of CPU time.  The paper hides that cost by running planners on CPU
cores concurrently with GPU execution and handing plans to the executors
ahead of time.  This example runs the same architecture: a training session
registers its epoch on a pool of planner worker *processes* (each rebuilt
from the serialized cost model, planning on real CPU cores) that plans
several iterations ahead while the session executes, and the report shows
how much of the planning time was actually exposed as executor waits.

Run with:  python examples/overlapped_planning.py
"""

from __future__ import annotations

from repro import (
    CostModel,
    DynaPipePlanner,
    PlannerConfig,
    SyntheticFlanDataset,
    TrainerConfig,
    TrainingSession,
    get_model_config,
)
from repro.data.truncation import truncate_samples

MAX_SEQ_LEN = 2048
GLOBAL_BATCH_TOKENS = 32768
NUM_ITERATIONS = 4


def main() -> None:
    model = get_model_config("gpt", num_gpus=4)
    cost_model = CostModel(model, num_stages=4, max_profile_seq_len=MAX_SEQ_LEN)
    planner = DynaPipePlanner(cost_model, config=PlannerConfig(tmax_sample_count=16))

    dataset = SyntheticFlanDataset(num_samples=6_000, seed=5)
    samples = truncate_samples(dataset.samples, MAX_SEQ_LEN, decoder_only=True)

    print(f"running {NUM_ITERATIONS} iterations of {model.name} with overlapped planning...")
    session = TrainingSession(
        planner,
        samples,
        global_batch_tokens=GLOBAL_BATCH_TOKENS,
        config=TrainerConfig(
            max_iterations=NUM_ITERATIONS,
            noise_std=0.05,
            seed=0,
            planner_processes=2,
            planner_lookahead=3,
        ),
    )
    report = session.run()

    total_planning_s = sum(record.planning_time_s for record in report.records)
    print("\n--- planner/executor overlap report ---")
    print(f"iterations executed:         {len(report.records)}")
    print(f"total planning time:         {total_planning_s:.2f} s "
          f"(mean {report.mean_planning_time_s:.2f} s per iteration)")
    print(f"planning exposed as waits:   {report.plan_wait_s:.2f} s")
    print(f"planning hidden by overlap:  {report.overlap_fraction:.0%}")
    print(f"simulated execution time:    {report.total_time_s:.2f} s")
    print("\nPer-iteration statistics:")
    for record in report.records:
        print(
            f"  iteration {record.iteration}: planned in {record.planning_time_s * 1e3:6.1f} ms, "
            f"executed in {record.measured_ms:7.1f} simulated ms, "
            f"peak memory {record.measured_peak_bytes / 1024**3:.1f} GiB"
        )


if __name__ == "__main__":
    main()
