"""Training metrics containers and aggregation.

Throughput is reported the way the paper does (§8, "Metrics"): the number of
*actual* tokens in the training data divided by the time needed to process
them — padding tokens do not count towards throughput, so a system that pads
heavily is penalised even if its raw step time is similar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.stats import mean, mean_percentage_error


@dataclass
class IterationRecord:
    """Per-iteration measurements of a training run.

    Attributes:
        iteration: Iteration index.
        actual_tokens: Non-padding tokens processed.
        padded_tokens: Total tokens processed including padding.
        predicted_ms: Planner's predicted iteration time.
        measured_ms: Simulated ("measured") iteration time.
        predicted_peak_bytes: Planner's predicted peak memory (max over stages).
        measured_peak_bytes: Simulated peak memory (max over stages).
        planning_time_s: Wall-clock planning time of the iteration.
        num_microbatches: Number of micro-batches executed.
        recompute: Recomputation mode used.
    """

    iteration: int
    actual_tokens: int
    padded_tokens: int
    predicted_ms: float
    measured_ms: float
    predicted_peak_bytes: float
    measured_peak_bytes: float
    planning_time_s: float
    num_microbatches: int
    recompute: str


@dataclass
class TrainingReport:
    """Aggregated results of a (simulated) training run.

    Attributes:
        system: Name of the system that produced the run.
        records: Per-iteration records.
        encoder_padding_efficiency: Mean padding efficiency of input tensors.
        decoder_padding_efficiency: Mean padding efficiency of target tensors
            (``None`` for decoder-only models).
        plan_wait_s: Wall-clock seconds the executor spent blocked waiting
            for pooled plans (decode excluded); ``None`` when planning ran
            inline, where every planning second is exposed.
    """

    system: str
    records: list[IterationRecord] = field(default_factory=list)
    encoder_padding_efficiency: float = 0.0
    decoder_padding_efficiency: float | None = None
    plan_wait_s: float | None = None

    # ------------------------------------------------------------------ throughput

    @property
    def total_actual_tokens(self) -> int:
        """Real tokens processed over the run."""
        return sum(record.actual_tokens for record in self.records)

    @property
    def total_time_s(self) -> float:
        """Total simulated execution time in seconds."""
        return sum(record.measured_ms for record in self.records) / 1e3

    @property
    def throughput_tokens_per_s(self) -> float:
        """Actual (non-padding) tokens per second of simulated execution."""
        total_time = self.total_time_s
        return self.total_actual_tokens / total_time if total_time > 0 else 0.0

    @property
    def padding_efficiency(self) -> float:
        """Overall non-padding fraction of processed tokens."""
        padded = sum(record.padded_tokens for record in self.records)
        if padded == 0:
            return 0.0
        return self.total_actual_tokens / padded

    # ------------------------------------------------------------------ planner accuracy

    @property
    def mean_planning_time_s(self) -> float:
        """Mean per-iteration planning time."""
        if not self.records:
            return 0.0
        return mean(record.planning_time_s for record in self.records)

    @property
    def overlap_fraction(self) -> float:
        """Fraction of planning time hidden behind execution (1.0 = all).

        0.0 for inline planning; for pooled planning it is
        ``1 - plan_wait_s / total planning time``, clamped at 0.
        """
        if self.plan_wait_s is None:
            return 0.0
        total_planning_s = sum(record.planning_time_s for record in self.records)
        if total_planning_s <= 0:
            return 1.0
        return max(0.0, 1.0 - self.plan_wait_s / total_planning_s)

    @property
    def planning_to_iteration_ratio(self) -> float:
        """Mean ratio of planning time to measured iteration time (Fig. 17b)."""
        ratios = [
            record.planning_time_s * 1e3 / record.measured_ms
            for record in self.records
            if record.measured_ms > 0
        ]
        return mean(ratios) if ratios else 0.0

    def time_prediction_error_percent(self) -> float:
        """Mean percentage error of iteration-time predictions (Fig. 18a)."""
        if not self.records:
            return 0.0
        return mean_percentage_error(
            [record.predicted_ms for record in self.records],
            [record.measured_ms for record in self.records],
        )

    def memory_prediction_error_percent(self) -> float:
        """Mean percentage error of peak-memory predictions (Fig. 18b)."""
        if not self.records:
            return 0.0
        return mean_percentage_error(
            [record.predicted_peak_bytes for record in self.records],
            [record.measured_peak_bytes for record in self.records],
        )

    def summary(self) -> dict:
        """Compact dictionary summary used by the benchmark harnesses."""
        return {
            "system": self.system,
            "iterations": len(self.records),
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "padding_efficiency": self.padding_efficiency,
            "encoder_padding_efficiency": self.encoder_padding_efficiency,
            "decoder_padding_efficiency": self.decoder_padding_efficiency,
            "mean_planning_time_s": self.mean_planning_time_s,
            "planning_to_iteration_ratio": self.planning_to_iteration_ratio,
            "time_mpe_percent": self.time_prediction_error_percent(),
            "memory_mpe_percent": self.memory_prediction_error_percent(),
        }
