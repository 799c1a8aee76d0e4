"""Micro-batch representation shared by every batching strategy.

A micro-batch is a 2-D tensor of tokens: ``batch_size`` rows, each padded to
a common sequence length.  A *row* normally holds one sample; under packing
a row holds several concatenated samples.  Keeping the row structure lets
padding efficiency and compute cost be derived for every strategy from the
same object.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.data.tasks import Sample
from repro.model.transformer import MicroBatchShape


def padded_length(longest: int, pad_to: int | None, name: str) -> int:
    """A tensor's padded length: ``pad_to`` if set, else its longest row.

    Raises:
        ValueError: If ``pad_to`` (the field ``name``) is shorter than the
            longest row.
    """
    if pad_to is None:
        return longest
    if pad_to < longest:
        raise ValueError(f"{name}={pad_to} is shorter than the longest row ({longest})")
    return pad_to


@dataclass
class MicroBatch:
    """A micro-batch as a collection of rows of samples.

    Attributes:
        rows: One entry per row of the batch tensor; each entry lists the
            samples concatenated into that row (length 1 except for packing).
        decoder_only: Whether the model consumes a single concatenated
            sequence (GPT) or separate input/target sequences (T5).
        pad_enc_to: Optional fixed padded length of the input sequence (used
            by packing, which always pads to the configured maximum).
        pad_dec_to: Optional fixed padded length of the target sequence.
    """

    rows: list[list[Sample]]
    decoder_only: bool = False
    pad_enc_to: int | None = None
    pad_dec_to: int | None = None

    @classmethod
    def from_samples(
        cls, samples: Iterable[Sample], decoder_only: bool = False
    ) -> "MicroBatch":
        """Build a micro-batch with one sample per row (no packing)."""
        rows = [[sample] for sample in samples]
        if not rows:
            raise ValueError("a micro-batch needs at least one sample")
        return cls(rows=rows, decoder_only=decoder_only)

    def __post_init__(self) -> None:
        if not self.rows or any(not row for row in self.rows):
            raise ValueError("micro-batch rows must be non-empty")

    # ------------------------------------------------------------------ sizes

    @property
    def batch_size(self) -> int:
        """Number of rows in the batch tensor."""
        return len(self.rows)

    @property
    def num_samples(self) -> int:
        """Number of real samples across all rows."""
        return sum(len(row) for row in self.rows)

    def samples(self) -> list[Sample]:
        """All samples in row order."""
        return [sample for row in self.rows for sample in row]

    def _row_enc_tokens(self, row: Sequence[Sample]) -> int:
        if self.decoder_only:
            return sum(s.total_tokens for s in row)
        return sum(s.input_tokens for s in row)

    def _row_dec_tokens(self, row: Sequence[Sample]) -> int:
        if self.decoder_only:
            return 0
        return sum(s.target_tokens for s in row)

    @property
    def enc_seq_len(self) -> int:
        """Padded input-sequence length of the batch tensor."""
        longest = max(self._row_enc_tokens(row) for row in self.rows)
        return padded_length(longest, self.pad_enc_to, "pad_enc_to")

    @property
    def dec_seq_len(self) -> int:
        """Padded target-sequence length of the batch tensor (0 for GPT)."""
        longest = max(self._row_dec_tokens(row) for row in self.rows)
        return padded_length(longest, self.pad_dec_to, "pad_dec_to")

    def shape(self) -> MicroBatchShape:
        """The padded tensor shape fed to the cost model / executor."""
        return MicroBatchShape(
            batch_size=self.batch_size,
            enc_seq_len=self.enc_seq_len,
            dec_seq_len=self.dec_seq_len,
        )

    # ------------------------------------------------------------------ token accounting

    def actual_tokens(self) -> int:
        """Non-padding tokens in the micro-batch."""
        return sum(s.total_tokens for s in self.samples())

    def padded_tokens(self) -> int:
        """Total tokens processed including padding."""
        return self.batch_size * (self.enc_seq_len + self.dec_seq_len)

    def actual_enc_tokens(self) -> int:
        """Non-padding tokens in the input (encoder) tensor."""
        return sum(self._row_enc_tokens(row) for row in self.rows)

    def actual_dec_tokens(self) -> int:
        """Non-padding tokens in the target (decoder) tensor."""
        return sum(self._row_dec_tokens(row) for row in self.rows)

    def padding_efficiency(self) -> float:
        """Fraction of processed tokens that are real (non-padding) tokens."""
        padded = self.padded_tokens()
        return self.actual_tokens() / padded if padded else 0.0


@dataclass
class BatchingResult:
    """Output of a batching strategy for one mini-batch.

    Attributes:
        micro_batches: The constructed micro-batches, in execution order.
        dropped_samples: Samples the strategy could not place (e.g. a sample
            longer than the packing target length after truncation failed).
    """

    micro_batches: list[MicroBatch]
    dropped_samples: list[Sample] = field(default_factory=list)

    def total_actual_tokens(self) -> int:
        """Non-padding tokens across all micro-batches."""
        return sum(mb.actual_tokens() for mb in self.micro_batches)

    def total_padded_tokens(self) -> int:
        """Total processed tokens (padding included) across micro-batches."""
        return sum(mb.padded_tokens() for mb in self.micro_batches)


class BatchingStrategy(abc.ABC):
    """Interface implemented by every micro-batch construction method."""

    #: Human readable name used in benchmark output.
    name: str = "base"

    def __init__(self, decoder_only: bool = False) -> None:
        self.decoder_only = decoder_only

    @abc.abstractmethod
    def split(self, samples: Sequence[Sample]) -> BatchingResult:
        """Split one mini-batch's samples into micro-batches."""

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(decoder_only={self.decoder_only})"
