"""Exhaustive (de)serialisation coverage for the instruction ISA.

The backend layer ships instruction streams across process boundaries as
plain dictionaries (``repro.backends.local`` pickles the dict form into
worker configs, the checkpoint store persists it as JSON), so every
:class:`~repro.instructions.ops.InstructionKind` must round-trip exactly —
including the ``CommDirection`` every comm op derives from its kind rather
than storing.  This file is the single place that enumerates the full ISA;
it fails if a new kind is added without serialisation support.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

import strategies_instructions
from repro.instructions.ops import (
    INSTRUCTION_CLASSES,
    BackwardPass,
    CommDirection,
    ForwardPass,
    InstructionKind,
    _CommStart,
    _CommWait,
)
from repro.instructions.serialization import (
    instruction_from_dict,
    instruction_signature,
    instruction_to_dict,
    instructions_from_dicts,
    instructions_to_dicts,
)
from repro.model.memory import RecomputeMode
from repro.model.transformer import MicroBatchShape
from repro.simulator.executor import transfer_key

SHAPE = MicroBatchShape(batch_size=2, enc_seq_len=128, dec_seq_len=32)
ENC_ONLY_SHAPE = MicroBatchShape(batch_size=1, enc_seq_len=64)


def make_instruction(kind: InstructionKind, **overrides):
    """A representative instance of the given kind."""
    cls = INSTRUCTION_CLASSES[kind]
    common = dict(microbatch=overrides.pop("microbatch", 2), stage=overrides.pop("stage", 1))
    if kind in (InstructionKind.FORWARD, InstructionKind.BACKWARD):
        return cls(
            shape=overrides.pop("shape", SHAPE),
            recompute=overrides.pop("recompute", RecomputeMode.NONE),
            **common,
        )
    if issubclass(cls, _CommStart):
        return cls(peer=overrides.pop("peer", 0), nbytes=overrides.pop("nbytes", 512.0), **common)
    return cls(peer=overrides.pop("peer", 0), **common)


class TestEveryKindRoundTrips:
    """One round-trip test per InstructionKind, enumerated from the class
    map itself so new kinds cannot silently skip serialisation coverage."""

    def test_class_map_covers_every_kind(self):
        assert set(INSTRUCTION_CLASSES) == set(InstructionKind)

    @pytest.mark.parametrize("kind", list(InstructionKind), ids=lambda k: k.value)
    def test_roundtrip_identity(self, kind):
        instr = make_instruction(kind)
        restored = instruction_from_dict(instruction_to_dict(instr))
        assert restored == instr
        assert type(restored) is type(instr)
        assert restored.kind is kind

    @pytest.mark.parametrize("kind", list(InstructionKind), ids=lambda k: k.value)
    def test_roundtrip_through_json(self, kind):
        instr = make_instruction(kind)
        payload = json.loads(json.dumps(instruction_to_dict(instr)))
        assert instruction_from_dict(payload) == instr

    @pytest.mark.parametrize("kind", list(InstructionKind), ids=lambda k: k.value)
    def test_signature_survives_roundtrip(self, kind):
        instr = make_instruction(kind)
        restored = instruction_from_dict(instruction_to_dict(instr))
        assert instruction_signature(restored) == instruction_signature(instr)
        sig = instruction_signature(instr)
        assert sig[0] == kind.value
        expected_peer = instr.peer if hasattr(instr, "peer") else -1
        assert sig == (kind.value, instr.microbatch, instr.stage, expected_peer)


class TestCommDirectionEdgeCases:
    """Direction is *derived* from the kind, never stored — the wire format
    must stay unambiguous anyway."""

    DIRECTED_KINDS = {
        InstructionKind.SEND_ACT_START: CommDirection.ACTIVATION,
        InstructionKind.RECV_ACT_START: CommDirection.ACTIVATION,
        InstructionKind.SEND_GRAD_START: CommDirection.GRADIENT,
        InstructionKind.RECV_GRAD_START: CommDirection.GRADIENT,
    }

    @pytest.mark.parametrize("kind,direction", DIRECTED_KINDS.items(), ids=lambda x: str(x))
    def test_direction_restored_from_kind(self, kind, direction):
        payload = instruction_to_dict(make_instruction(kind))
        assert "direction" not in payload  # derived, not serialised
        assert instruction_from_dict(payload).direction is direction

    def test_transfer_keys_survive_roundtrip(self):
        """Both ends of a transfer map to the same key after a round-trip —
        the property channel matching (sim and local backends) relies on."""
        send = make_instruction(InstructionKind.SEND_ACT_START, stage=0, peer=1)
        recv = make_instruction(InstructionKind.RECV_ACT_START, stage=1, peer=0)
        send_rt = instruction_from_dict(instruction_to_dict(send))
        recv_rt = instruction_from_dict(instruction_to_dict(recv))
        assert transfer_key(send_rt) == transfer_key(recv_rt)
        assert transfer_key(send_rt) == transfer_key(send)

    def test_wait_keys_survive_roundtrip(self):
        """Wait ops recover the direction of the transfer they guard."""
        for kind in (
            InstructionKind.WAIT_SEND_ACT,
            InstructionKind.WAIT_RECV_ACT,
            InstructionKind.WAIT_SEND_GRAD,
            InstructionKind.WAIT_RECV_GRAD,
        ):
            wait = make_instruction(kind)
            wait_rt = instruction_from_dict(instruction_to_dict(wait))
            assert isinstance(wait_rt, _CommWait)
            assert transfer_key(wait_rt) == transfer_key(wait)

    def test_activation_and_gradient_keys_distinct(self):
        """Same (devices, microbatch) but opposite directions must not
        collide — the direction component is what keeps a stage's forward
        and backward traffic to the same neighbour apart."""
        act = make_instruction(InstructionKind.SEND_ACT_START, stage=0, peer=1)
        grad = make_instruction(InstructionKind.RECV_GRAD_START, stage=0, peer=1)
        assert transfer_key(act) != transfer_key(grad)


class TestFieldEdgeCases:
    @pytest.mark.parametrize("mode", list(RecomputeMode), ids=lambda m: m.value)
    def test_every_recompute_mode(self, mode):
        instr = BackwardPass(microbatch=0, stage=3, shape=SHAPE, recompute=mode)
        restored = instruction_from_dict(instruction_to_dict(instr))
        assert restored.recompute is mode

    def test_recompute_defaults_to_none_when_absent(self):
        payload = instruction_to_dict(ForwardPass(microbatch=0, stage=0, shape=SHAPE))
        del payload["recompute"]
        assert instruction_from_dict(payload).recompute is RecomputeMode.NONE

    def test_encoder_only_shape(self):
        instr = ForwardPass(microbatch=0, stage=0, shape=ENC_ONLY_SHAPE)
        restored = instruction_from_dict(instruction_to_dict(instr))
        assert restored.shape == ENC_ONLY_SHAPE
        assert restored.shape.dec_seq_len == ENC_ONLY_SHAPE.dec_seq_len

    def test_zero_byte_transfer(self):
        instr = make_instruction(InstructionKind.SEND_GRAD_START, nbytes=0.0)
        restored = instruction_from_dict(instruction_to_dict(instr))
        assert restored.nbytes == 0.0

    def test_fractional_nbytes_preserved(self):
        instr = make_instruction(InstructionKind.RECV_ACT_START, nbytes=1536.5)
        assert instruction_from_dict(instruction_to_dict(instr)).nbytes == 1536.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            instruction_from_dict({"kind": "collective_allreduce", "microbatch": 0, "stage": 0})


class TestStreamRoundTrips:
    """Whole planner-produced streams survive the wire format — the exact
    path worker configs take into local-backend processes."""

    @given(strategies_instructions.planned_streams())
    @settings(max_examples=25, deadline=None)
    def test_planned_streams_roundtrip(self, streams):
        for stream in streams:
            payloads = json.loads(json.dumps(instructions_to_dicts(stream)))
            assert instructions_from_dicts(payloads) == list(stream)

    @given(strategies_instructions.naive_streams())
    @settings(max_examples=10, deadline=None)
    def test_naive_streams_roundtrip(self, streams):
        for stream in streams:
            restored = instructions_from_dicts(instructions_to_dicts(stream))
            assert [instruction_signature(i) for i in restored] == [
                instruction_signature(i) for i in stream
            ]
