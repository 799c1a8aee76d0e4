"""Padding-efficiency metrics (paper Fig. 4b, Fig. 15).

Padding efficiency is the fraction of processed tokens that are real
(non-padding) tokens.  For encoder-decoder models the paper reports the
encoder and decoder tensors separately because packing achieves high
efficiency on the encoder side but much lower on the decoder side, while
DynaPipe is balanced across the two.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable

from repro.batching.base import MicroBatch, padded_length


@dataclass(frozen=True)
class PaddingStats:
    """Token accounting for a set of micro-batches.

    Attributes:
        actual_tokens: Real tokens processed.
        padded_tokens: Total tokens processed including padding.
        encoder_efficiency: Non-padding fraction of the input tensors.
        decoder_efficiency: Non-padding fraction of the target tensors
            (``None`` for decoder-only models).
        overall_efficiency: Non-padding fraction over both tensors.
    """

    actual_tokens: int
    padded_tokens: int
    encoder_efficiency: float
    decoder_efficiency: float | None
    overall_efficiency: float

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PaddingStats":
        """Rebuild from :meth:`to_dict` output."""
        decoder = payload["decoder_efficiency"]
        return cls(
            actual_tokens=int(payload["actual_tokens"]),
            padded_tokens=int(payload["padded_tokens"]),
            encoder_efficiency=float(payload["encoder_efficiency"]),
            decoder_efficiency=None if decoder is None else float(decoder),
            overall_efficiency=float(payload["overall_efficiency"]),
        )


def padding_stats(micro_batches: Iterable[MicroBatch]) -> PaddingStats:
    """Compute padding statistics over ``micro_batches``.

    All micro-batches must target the same architecture: mixing decoder-only
    (concatenated-sequence) and encoder-decoder micro-batches is rejected
    because their tensors are not comparable — a decoder-only micro-batch has
    no target tensor, so folding it into the decoder-efficiency aggregation
    would silently misreport the encoder-decoder batches' efficiency, and its
    "encoder" tensor counts input *and* target tokens.

    Raises:
        ValueError: If ``micro_batches`` mixes ``decoder_only`` flags.
    """
    micro_batches = list(micro_batches)
    if not micro_batches:
        return PaddingStats(0, 0, 0.0, None, 0.0)
    flags = {mb.decoder_only for mb in micro_batches}
    if len(flags) > 1:
        raise ValueError(
            "cannot mix decoder-only and encoder-decoder micro-batches in one "
            "padding-efficiency computation; aggregate each model family separately"
        )
    decoder_only = flags.pop()
    # One walk over each micro-batch's rows gathers its real input and
    # target tokens and its longest rows; the padded lengths then follow
    # ``MicroBatch.enc_seq_len`` / ``dec_seq_len`` (fixed pads included).
    enc_actual = dec_actual = enc_padded = dec_padded = 0
    for mb in micro_batches:
        enc_longest = dec_longest = 0
        for row in mb.rows:
            row_input = row_target = 0
            for sample in row:
                row_input += sample.input_tokens
                row_target += sample.target_tokens
            row_enc = row_input + row_target if decoder_only else row_input
            row_dec = 0 if decoder_only else row_target
            enc_actual += row_enc
            dec_actual += row_dec
            enc_longest = max(enc_longest, row_enc)
            dec_longest = max(dec_longest, row_dec)
        enc_padded += mb.batch_size * padded_length(enc_longest, mb.pad_enc_to, "pad_enc_to")
        dec_padded += mb.batch_size * padded_length(dec_longest, mb.pad_dec_to, "pad_dec_to")
    actual = enc_actual + dec_actual
    padded = enc_padded + dec_padded
    encoder_eff = enc_actual / enc_padded if enc_padded else 0.0
    if decoder_only:
        decoder_eff: float | None = None
    else:
        decoder_eff = dec_actual / dec_padded if dec_padded else 0.0

    overall = actual / padded if padded else 0.0
    return PaddingStats(
        actual_tokens=actual,
        padded_tokens=padded,
        encoder_efficiency=encoder_eff,
        decoder_efficiency=decoder_eff,
        overall_efficiency=overall,
    )
