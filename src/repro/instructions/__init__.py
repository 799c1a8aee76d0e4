"""Pipeline instruction abstraction (paper §3, "Execution plans").

Execution plans are sequences of pipeline instructions per executor,
following the DeepSpeed design the paper adopts: ``ForwardPass`` /
``BackwardPass`` compute instructions plus communication instructions that
are split into a *Start* op (launches the transfer on the communication
stream) and a *Wait* op (blocks the compute stream until the transfer has
finished).  The split is what allows DynaPipe to overlap communication with
computation while still expressing a deterministic, deadlock-free order of
transfers on every device.
"""

from repro.instructions.ops import (
    BackwardPass,
    CommDirection,
    ForwardPass,
    InstructionKind,
    PipelineInstruction,
    RecvActStart,
    RecvGradStart,
    SendActStart,
    SendGradStart,
    WaitRecvAct,
    WaitRecvGrad,
    WaitSendAct,
    WaitSendGrad,
)
from repro.instructions.serialization import (
    instruction_from_dict,
    instruction_signature,
    instruction_to_dict,
    instructions_from_dicts,
    instructions_to_dicts,
)

__all__ = [
    "PipelineInstruction",
    "InstructionKind",
    "CommDirection",
    "ForwardPass",
    "BackwardPass",
    "SendActStart",
    "RecvActStart",
    "SendGradStart",
    "RecvGradStart",
    "WaitSendAct",
    "WaitRecvAct",
    "WaitSendGrad",
    "WaitRecvGrad",
    "instruction_to_dict",
    "instruction_from_dict",
    "instruction_signature",
    "instructions_to_dicts",
    "instructions_from_dicts",
]
