"""The benchmark's workloads and the measuring loop of one child process.

Every input is generated here from the workload seed, so the program under
test only ever sees the generated samples, traces and job specs:

* ``gpt-iter`` / ``t5-iter`` — one :class:`~repro.TrainingSession` planning
  inline and executing on the ``sim`` backend; a unit is one
  ``run_iteration`` call;
* ``fleet-planned`` — staggered GPT and T5 jobs planned by the real
  :class:`~repro.DynaPipePlanner` through the shared planner pool; a unit
  is one replay.

Run as ``python3 -m perfbench.workloads ...`` (``perfbench/run.py`` does
this): the process builds its workload (timed as set-up, from the spawn
time passed in by the parent), measures for ``--seconds`` and prints one
JSON object of raw samples as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

from perfbench.fingerprint import fleet_fields, record_fields
from perfbench.tracer import Tracer

#: Maximum sequence length of every generated sample (paper's 2048 setting).
MAX_SEQ_LEN = 2048
#: Dataset seed of every workload at ``--seed 0``.
DATA_SEED = 2024
#: Fleet units measured per child, however short ``--seconds`` is.
MIN_REPLAYS = 2


@dataclass(frozen=True)
class SessionShape:
    """Size of a training-session workload.

    Attributes:
        arch / table_gpus: Table-1 model (``get_model_config(arch, table_gpus)``).
        stages / tensor_parallel / data_parallel: Parallel layout.
        batch_tokens: Global mini-batch size in tokens.
        num_samples: Dataset size (bounds the iterations one child can run).
        prefix: Leading iterations covered by the output check and the
            deterministic metrics; always run, however short ``--seconds``.
        warmup: Leading iterations run as part of set-up.
    """

    arch: str
    table_gpus: int
    stages: int
    tensor_parallel: int
    data_parallel: int
    batch_tokens: int
    num_samples: int
    prefix: int
    warmup: int


@dataclass(frozen=True)
class PlannedFleetShape:
    """Size of the planned-fleet workload (jobs alternate GPT and T5)."""

    num_jobs: int
    iterations: int
    batch_tokens: int
    num_samples: int
    stagger_ms: float


SESSIONS = {
    "full": {
        "gpt-iter": SessionShape("gpt", 8, 4, 1, 2, 65_536, 25_000, 24, 4),
        "t5-iter": SessionShape("t5", 8, 2, 4, 1, 65_536, 25_000, 24, 4),
    },
    "small": {
        "gpt-iter": SessionShape("gpt", 4, 2, 1, 2, 16_384, 2_000, 3, 1),
        "t5-iter": SessionShape("t5", 4, 1, 4, 1, 16_384, 2_000, 3, 1),
    },
}
PLANNED = {
    "full": PlannedFleetShape(10, 6, 32_768, 4_000, 500.0),
    "small": PlannedFleetShape(2, 2, 8_192, 500, 500.0),
}
WORKLOADS = ("gpt-iter", "t5-iter", "fleet-planned")
SCALES = ("full", "small")


def _rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mpe_pct(records: list) -> float:
    """Fig. 18 time prediction error over ``records``."""
    from repro import TrainingReport

    return TrainingReport(system="perfbench", records=records).time_prediction_error_percent()


class _Samples:
    """Raw measurements of one child, shipped to the parent as JSON."""

    def __init__(self, trace: bool) -> None:
        self.unit_work: list = []
        self.unit_s: list[float] = []
        self.traced_unit_s: list[float] = []
        self.iter_work: list = []
        self.iter_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer() if trace else None

    def tracing(self, unit: int):
        """Trace every other unit, so traced and untraced runs interleave."""
        if self.tracer is None or unit % 2 == 0:
            return nullcontext(False)
        return self.tracer.installed()

    def to_dict(self, unit_events: float, fields: dict, deterministic: dict) -> dict:
        """This child's samples; the parent combines them over children.

        ``unit_s`` and ``iter_ms`` hold the wall time of every untraced
        unit and training iteration; ``unit_work`` and ``iter_work`` say
        which work each did: readings with the same id did the same work,
        in any child.
        """
        tracer = self.tracer
        iter_ms = self.iter_ms
        p90 = statistics.quantiles(iter_ms, n=10)[-1] if len(iter_ms) > 1 else iter_ms[0]
        return {
            "unit_events": unit_events,
            "iter_ms_p90": p90,
            "iter_samples": len(iter_ms),
            "unit_work": self.unit_work,
            "unit_s": self.unit_s,
            "traced_unit_s": self.traced_unit_s,
            "iter_work": self.iter_work,
            "iter_ms": iter_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "fields": fields,
            "deterministic": deterministic,
            "layers": None
            if tracer is None
            else {
                "ms": dict(tracer.ms),
                "self_ms": dict(tracer.self_ms),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
                "missing": tracer.missing,
            },
        }


# ---------------------------------------------------------------------- sessions


class SessionBench:
    """``gpt-iter`` / ``t5-iter``: one training session, timed per iteration."""

    def __init__(self, shape: SessionShape, seed: int) -> None:
        from repro import (
            CostModel,
            DynaPipePlanner,
            PlannerConfig,
            SyntheticFlanDataset,
            TrainerConfig,
            TrainingSession,
            get_model_config,
        )

        cost_model = CostModel(
            get_model_config(shape.arch, shape.table_gpus),
            num_stages=shape.stages,
            tensor_parallel=shape.tensor_parallel,
            max_profile_seq_len=MAX_SEQ_LEN,
        )
        dataset = SyntheticFlanDataset(num_samples=shape.num_samples, seed=DATA_SEED + seed)
        planner = DynaPipePlanner(
            cost_model,
            data_parallel_size=shape.data_parallel,
            config=PlannerConfig(order_search=True),
        )
        self.session = TrainingSession(
            planner,
            dataset.samples,
            shape.batch_tokens,
            TrainerConfig(max_iterations=None, seed=DATA_SEED + seed, max_seq_len=MAX_SEQ_LEN),
        )
        self.minibatches = self.session.epoch_minibatches()
        if len(self.minibatches) < shape.prefix + shape.warmup:
            raise ValueError(f"{shape} yields only {len(self.minibatches)} mini-batches")
        self.shape = shape
        self.records: list = []
        for _ in range(shape.warmup):
            self._iterate()

    def _iterate(self) -> float:
        """Run the next iteration; returns its wall seconds."""
        minibatch = self.minibatches[len(self.records)]
        start = time.perf_counter()
        self.records.append(self.session.run_iteration(minibatch))
        return time.perf_counter() - start

    def measure(self, seconds: float, trace: bool) -> dict:
        samples = _Samples(trace)
        deadline = time.perf_counter() + seconds
        while len(self.records) < len(self.minibatches) and (
            len(self.records) < self.shape.prefix or time.perf_counter() < deadline
        ):
            with samples.tracing(samples.attempted) as traced:
                elapsed = self._iterate()
            record = self.records[-1]
            samples.attempted += 1
            if not (0 < record.actual_tokens <= record.padded_tokens and record.measured_ms > 0):
                samples.failed += 1
            if traced:
                samples.traced_unit_s.append(elapsed)
            else:
                samples.unit_work.append(len(self.records))
                samples.unit_s.append(elapsed)
                samples.iter_work.append(len(self.records))
                samples.iter_ms.append(elapsed * 1e3)
        from repro import TrainingReport

        prefix = self.records[: self.shape.prefix]
        report = TrainingReport(system="perfbench", records=prefix)
        return samples.to_dict(
            1,
            record_fields(prefix),
            {
                "sim_tokens_per_s": report.throughput_tokens_per_s,
                "costmodel.time_mpe_pct": _mpe_pct(prefix),
            },
        )


# ------------------------------------------------------------------------ fleets


@contextmanager
def _step_timer(steps: list[tuple[str, float]]) -> Iterator[None]:
    """Time every :meth:`JobExecution.step` that returns an iteration.

    Appends ``("job/iteration", wall ms)`` to ``steps``.
    """
    from repro.fleet import JobExecution

    original = JobExecution.step

    def step(self):
        start = time.perf_counter()
        result = original(self)
        if result is not None:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            steps.append((f"{self.job_name}/{result[0].iteration}", elapsed_ms))
        return result

    JobExecution.step = step
    try:
        yield
    finally:
        JobExecution.step = original


def _fleet_outputs(report, records: list) -> dict:
    """Deterministic outputs of one replay reported as metrics."""
    tokens = sum(record.actual_tokens for record in records)
    return {
        "sim_tokens_per_s": tokens / (report.makespan_ms / 1e3),
        "costmodel.time_mpe_pct": _mpe_pct(records),
        "fleet.events": report.events_processed,
        "fleet.makespan_s": report.makespan_ms / 1e3,
        "fleet.queue_delay_s": report.mean_queueing_delay_ms / 1e3,
        "fleet.jobs_failed": report.failed_jobs,
    }


class FleetPlannedBench:
    """``fleet-planned``: real planning through the shared planner pool."""

    def __init__(self, shape: PlannedFleetShape, seed: int) -> None:
        from repro import (
            ClusterTopology,
            CostModel,
            FleetConfig,
            FleetScheduler,
            JobSpec,
            ParallelConfig,
            SyntheticFlanDataset,
            get_model_config,
        )
        from repro.data.truncation import truncate_samples

        dataset = SyntheticFlanDataset(num_samples=shape.num_samples, seed=DATA_SEED + seed)
        models = (
            (
                "gpt",
                CostModel(get_model_config("gpt", 4), num_stages=4, max_profile_seq_len=MAX_SEQ_LEN),
                truncate_samples(dataset.samples, MAX_SEQ_LEN, decoder_only=True),
                ParallelConfig(data_parallel=1, pipeline_parallel=4, tensor_parallel=1),
            ),
            (
                "t5",
                CostModel(
                    get_model_config("t5", 4),
                    num_stages=1,
                    tensor_parallel=4,
                    max_profile_seq_len=MAX_SEQ_LEN,
                ),
                truncate_samples(dataset.samples, MAX_SEQ_LEN, decoder_only=False),
                ParallelConfig(data_parallel=1, pipeline_parallel=1, tensor_parallel=4),
            ),
        )

        def specs(num_jobs: int, iterations: int) -> list:
            jobs = []
            for index in range(num_jobs):
                name, cost_model, samples, parallel = models[index % 2]
                jobs.append(
                    JobSpec(
                        name=f"{name}-{index:02d}",
                        cost_model=cost_model,
                        samples=samples,
                        global_batch_tokens=shape.batch_tokens,
                        parallel=parallel,
                        num_iterations=iterations,
                        seed=1000 * seed + index,
                        submit_time_ms=index * shape.stagger_ms,
                    )
                )
            return jobs

        def scheduler(jobs: list):
            fleet = FleetScheduler(
                ClusterTopology(num_nodes=2, gpus_per_node=8),
                FleetConfig(planner_processes=1, shared_planner_pool=True),
            )
            for spec in jobs:
                fleet.submit(spec)
            return fleet

        self._specs = specs(shape.num_jobs, shape.iterations)
        self._scheduler = scheduler
        scheduler(specs(2, 2)).run()

    def scheduler(self):
        return self._scheduler(self._specs)

    def measure(self, seconds: float, trace: bool) -> dict:
        steps: list[tuple[str, float]] = []
        with _step_timer(steps):
            # Built after the step timer, so traced replays wrap it rather
            # than replace it.
            samples = _Samples(trace)
            first = None
            deadline = time.perf_counter() + seconds
            while samples.attempted < MIN_REPLAYS or time.perf_counter() < deadline:
                # Collect the previous replay's garbage outside the timed
                # region, so neither timing nor peak memory depends on how
                # many replays came before.
                gc.collect()
                del steps[:]
                with samples.tracing(samples.attempted) as traced:
                    start = time.perf_counter()
                    scheduler = self.scheduler()
                    report = scheduler.run()
                    elapsed = time.perf_counter() - start
                records = [r for job in scheduler.jobs.values() for r in job.checkpoint.records]
                fields = fleet_fields(report, records)
                if first is None:
                    first = (fields, _fleet_outputs(report, records))
                samples.attempted += 1
                if fields != first[0] or report.finished_jobs + report.failed_jobs != len(report.jobs):
                    samples.failed += 1
                if traced:
                    samples.traced_unit_s.append(elapsed)
                else:
                    # Every replay does the same work.
                    samples.unit_work.append(0)
                    samples.unit_s.append(elapsed)
                    for work, elapsed_ms in steps:
                        samples.iter_work.append(work)
                        samples.iter_ms.append(elapsed_ms)
                del scheduler, report, records
        fields, deterministic = first
        return samples.to_dict(deterministic["fleet.events"], fields, deterministic)


def build(workload: str, scale: str, seed: int):
    """Set up ``workload`` (including its warm-up) at ``scale``."""
    if workload in SESSIONS[scale]:
        return SessionBench(SESSIONS[scale][workload], seed)
    if workload == "fleet-planned":
        return FleetPlannedBench(PLANNED[scale], seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def planned_units(workload: str, scale: str) -> int:
    """Units a child of ``workload`` runs however short its measuring time."""
    if workload in SESSIONS[scale]:
        return SESSIONS[scale][workload].prefix
    return MIN_REPLAYS


def run_child(
    workload: str, seed: int, seconds: float, trace: bool, scale: str, spawn_time: float
) -> dict:
    """Set up, measure and return the raw samples of one child process.

    ``spawn_time`` is the ``time.time()`` at which the parent started this
    process, so set-up time covers interpreter start and imports.
    """
    bench = build(workload, scale, seed)
    setup_s = time.time() - spawn_time
    result = bench.measure(seconds, trace)
    import numpy

    result.update(setup_s=setup_s, rss_mb=_rss_mb(), numpy=numpy.__version__)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--spawn-time", type=float, default=None)
    args = parser.parse_args(argv)
    spawn_time = time.time() if args.spawn_time is None else args.spawn_time
    result = run_child(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, spawn_time
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
