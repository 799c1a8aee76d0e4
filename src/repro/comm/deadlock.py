"""Static communication-order analysis.

Checks, without running the executor, whether the per-device instruction
streams post transfers on every device-pair channel in a mutually consistent
order.  A mismatch means the execution would deadlock under NCCL's
single-channel-per-pair constraint (paper §2.3 / §6); DynaPipe's planned
streams must always pass this check, while the naive ordering generally
fails it for non-1F1B schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.instructions.ops import PipelineInstruction, _CommStart
from repro.simulator.executor import transfer_key


@dataclass
class CommOrderReport:
    """Result of the static communication-order check.

    Attributes:
        consistent: Whether every channel's two posting orders can be matched.
        mismatches: One entry per inconsistent channel: the device pair, the
            position of the first divergence, and the two conflicting
            transfer keys.
        channels_checked: Number of device pairs that exchange any transfer.
    """

    consistent: bool
    mismatches: list[dict] = field(default_factory=list)
    channels_checked: int = 0


def check_comm_order(
    device_instructions: Sequence[Sequence[PipelineInstruction]],
) -> CommOrderReport:
    """Check the posting-order consistency of ``device_instructions``."""
    # Collect, per unordered device pair, each side's posting order.
    orders: dict[tuple[int, int], dict[int, list[tuple]]] = {}
    for device, stream in enumerate(device_instructions):
        for instruction in stream:
            if not isinstance(instruction, _CommStart):
                continue
            pair = (
                (instruction.stage, instruction.peer)
                if instruction.stage < instruction.peer
                else (instruction.peer, instruction.stage)
            )
            per_side = orders.setdefault(pair, {pair[0]: [], pair[1]: []})
            key = transfer_key(instruction)
            per_side[device].append((key, instruction.is_send))

    mismatches = []
    for pair, per_side in orders.items():
        a, b = pair
        side_a, side_b = per_side[a], per_side[b]
        if len(side_a) != len(side_b):
            mismatches.append(
                {
                    "pair": pair,
                    "position": min(len(side_a), len(side_b)),
                    "reason": "unequal number of posted transfers",
                    "left": len(side_a),
                    "right": len(side_b),
                }
            )
            continue
        for position, ((key_a, send_a), (key_b, send_b)) in enumerate(zip(side_a, side_b)):
            if key_a != key_b or send_a == send_b:
                mismatches.append(
                    {
                        "pair": pair,
                        "position": position,
                        "reason": "posting order mismatch",
                        "left": key_a,
                        "right": key_b,
                    }
                )
                break

    return CommOrderReport(
        consistent=not mismatches,
        mismatches=mismatches,
        channels_checked=len(orders),
    )
