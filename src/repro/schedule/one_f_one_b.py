"""The 1F1B pipeline schedule (PipeDream-flush / Megatron-LM default).

Stage ``j`` of ``c`` stages (0-based) performs ``c - 1 - j`` warm-up forward
passes, then alternates one forward and one backward pass until all forwards
are issued, and finally drains the remaining backward passes.  The schedule
keeps at most ``c - j`` micro-batch activations alive on stage ``j``, which
is its main attraction; its weakness under dynamic micro-batching is the
zero safety stock in the steady state (paper §5, Fig. 11a).

:func:`one_f_one_b_stage_sequences` is the one definition, in the encoded
form the incremental simulator consumes; :func:`one_f_one_b_schedule` wraps
it into a full :class:`~repro.schedule.events.PipelineSchedule`.
"""

from __future__ import annotations

from repro.schedule.events import PipelineSchedule


def one_f_one_b_stage_sequences(num_stages: int, num_microbatches: int) -> list[list[int]]:
    """The per-stage 1F1B op order as encoded ops ``(microbatch << 1) | is_forward``."""
    sequences = []
    for stage in range(num_stages):
        num_warmup = min(num_stages - 1 - stage, num_microbatches)
        # Warm-up: forwards only.
        sequence = [(mb << 1) | 1 for mb in range(num_warmup)]
        # Steady state: alternate 1 forward, 1 backward.
        for backward in range(num_microbatches - num_warmup):
            sequence += [((backward + num_warmup) << 1) | 1, backward << 1]
        # Cool-down: drain the remaining backwards.
        sequence += [mb << 1 for mb in range(num_microbatches - num_warmup, num_microbatches)]
        sequences.append(sequence)
    return sequences


def one_f_one_b_schedule(num_stages: int, num_microbatches: int) -> PipelineSchedule:
    """Construct the 1F1B schedule for the given pipeline dimensions.

    Args:
        num_stages: Number of pipeline stages (devices).
        num_microbatches: Number of micro-batches in the iteration.

    Returns:
        A :class:`~repro.schedule.events.PipelineSchedule` where every stage
        executes every micro-batch's forward and backward exactly once.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    if num_microbatches < 1:
        raise ValueError(f"num_microbatches must be >= 1, got {num_microbatches}")
    return PipelineSchedule.from_stage_sequences(
        one_f_one_b_stage_sequences(num_stages, num_microbatches), num_microbatches, "1f1b"
    )
