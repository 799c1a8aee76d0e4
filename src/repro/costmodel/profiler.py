"""Simulated profiling of per-layer execution time and memory.

The real DynaPipe profiles a single Transformer layer on a physical GPU for
every combination of micro-batch size and sequence length at power-of-two
intervals.  Here the "measurement" comes from the analytic
:class:`~repro.cluster.device.SimulatedGPU` with noise disabled — the same
code path the execution simulator uses with noise *enabled*, so the cost
model's predictions and the simulated execution diverge exactly the way
profiled predictions diverge from real runs.

Profiles are stored per layer kind:

* ``encoder`` — GPT decoder-only layers and T5 encoder layers; a 2-D grid
  over (micro-batch size, sequence length).
* ``decoder`` — T5 decoder layers with cross-attention; a 3-D grid over
  (micro-batch size, target length, source length).

Each :class:`LayerProfile` keeps one interpolator per quantity (forward
time, and backward time and activation bytes per recomputation mode) for
the scalar queries and serialisation, and also stacks each mode's three
grids into one channel interpolator, so the batched
:meth:`LayerProfile.query_many` interpolates all three in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cluster.device import A100_40GB, DeviceSpec, SimulatedGPU
from repro.costmodel.interpolation import GridInterpolator
from repro.model.config import ModelConfig
from repro.model.memory import RecomputeMode
from repro.model.transformer import LayerAssignment, MicroBatchShape, StageModel


def _power_of_two_range(low: int, high: int) -> list[int]:
    """Powers of two from ``low`` to ``high`` inclusive (``high`` is included
    even if not an exact power of two)."""
    values = []
    v = low
    while v < high:
        values.append(v)
        v *= 2
    values.append(high)
    return values


def default_profile_grid(
    max_batch_size: int = 128, max_seq_len: int = 8192
) -> tuple[list[int], list[int]]:
    """The power-of-two profiling grid used throughout the reproduction.

    Matches the paper's description: micro-batch sizes 1, 2, 4, … and
    sequence lengths 32, 64, 128, … up to the configured maxima.
    """
    if max_batch_size < 1:
        raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
    if max_seq_len < 32:
        raise ValueError(f"max_seq_len must be >= 32, got {max_seq_len}")
    return _power_of_two_range(1, max_batch_size), _power_of_two_range(32, max_seq_len)


@dataclass
class LayerProfile:
    """Interpolable profile of a single layer kind.

    The interpolators map grid coordinates to milliseconds (time) or bytes
    (activation memory).  Keys of the per-mode dictionaries are
    :class:`~repro.model.memory.RecomputeMode`.

    Construction also stacks, per mode, the forward, backward and activation
    grids into one channel interpolator, so :meth:`query_many` brackets a
    batch of coordinates once for all three quantities.

    Raises:
        ValueError: If a mode's three grids do not share their axes.
    """

    kind: str
    forward_ms: GridInterpolator
    backward_ms: dict[RecomputeMode, GridInterpolator]
    activation_bytes: dict[RecomputeMode, GridInterpolator]
    dims: int = 2
    _stacked: dict[RecomputeMode, GridInterpolator] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        axes = self.forward_ms.axes
        self._stacked = {}
        for mode, backward in self.backward_ms.items():
            grids = (self.forward_ms, backward, self.activation_bytes[mode])
            for grid in grids[1:]:
                if len(grid.axes) != len(axes) or not all(
                    np.array_equal(a, b) for a, b in zip(grid.axes, axes)
                ):
                    raise ValueError(
                        f"{self.kind} profile: the {mode.value} grids do not share "
                        "the forward grid's axes"
                    )
            self._stacked[mode] = GridInterpolator(
                axes, np.stack([grid.values for grid in grids], axis=-1)
            )

    def query_forward(self, *coords: float) -> float:
        """Interpolated forward time in milliseconds."""
        return max(self.forward_ms(*coords), 0.0)

    def query_backward(self, mode: RecomputeMode, *coords: float) -> float:
        """Interpolated backward time in milliseconds under ``mode``."""
        return max(self.backward_ms[mode](*coords), 0.0)

    def query_activation(self, mode: RecomputeMode, *coords: float) -> float:
        """Interpolated activation bytes under ``mode``."""
        return max(self.activation_bytes[mode](*coords), 0.0)

    def query_many(
        self, mode: RecomputeMode, coords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched ``(forward, backward, activation)`` over ``(num_points, dims)``
        coords in one interpolation pass, each array bit-identical to the
        scalar query of its quantity on every row."""
        clamped = np.maximum(self._stacked[mode].query_many(coords), 0.0)
        return clamped[:, 0], clamped[:, 1], clamped[:, 2]


@dataclass
class ProfileDatabase:
    """All layer profiles needed to cost a model on a given device."""

    model_name: str
    tensor_parallel: int
    device_name: str
    profiles: dict[str, LayerProfile] = field(default_factory=dict)

    def get(self, kind: str) -> LayerProfile:
        """Fetch the profile for ``kind``; raises ``KeyError`` if missing."""
        if kind not in self.profiles:
            raise KeyError(
                f"no profile for layer kind {kind!r} in database for {self.model_name}"
            )
        return self.profiles[kind]


class LayerProfiler:
    """Profiles single Transformer layers on the simulated device.

    Args:
        config: Model configuration to profile.
        tensor_parallel: Tensor-parallel degree the layers will run under.
        device_spec: Device to profile on (defaults to A100-40GB).
    """

    def __init__(
        self,
        config: ModelConfig,
        tensor_parallel: int = 1,
        device_spec: DeviceSpec = A100_40GB,
    ) -> None:
        self.config = config
        self.tensor_parallel = tensor_parallel
        self.device_spec = device_spec
        # Profiling uses a noise-free device: this is the "measured" profile.
        self._gpu = SimulatedGPU(device_spec, noise_std=0.0)

    def _single_layer_stage(self, kind: str) -> StageModel:
        """A StageModel holding exactly one layer of ``kind``."""
        if kind == "encoder":
            assignment = LayerAssignment(
                stage=0, encoder_layers=1, decoder_layers=0, has_output_projection=False
            )
        elif kind == "decoder":
            assignment = LayerAssignment(
                stage=0, encoder_layers=0, decoder_layers=1, has_output_projection=False
            )
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        return StageModel(self.config, assignment, tensor_parallel=self.tensor_parallel)

    def profile_encoder_layer(
        self, batch_sizes: Sequence[int], seq_lens: Sequence[int]
    ) -> LayerProfile:
        """Profile an encoder (or GPT) layer over the 2-D grid."""
        stage = self._single_layer_stage("encoder")
        axes = (list(batch_sizes), list(seq_lens))
        shape = (len(axes[0]), len(axes[1]))
        forward = np.zeros(shape)
        backward = {mode: np.zeros(shape) for mode in RecomputeMode}
        activation = {mode: np.zeros(shape) for mode in RecomputeMode}
        for i, b in enumerate(axes[0]):
            for j, s in enumerate(axes[1]):
                mb = MicroBatchShape(batch_size=b, enc_seq_len=s)
                forward[i, j] = stage.forward_time_ms(self._gpu, mb)
                for mode in RecomputeMode:
                    backward[mode][i, j] = stage.backward_time_ms(self._gpu, mb, mode)
                    activation[mode][i, j] = stage.activation_bytes(mb, mode)
        return LayerProfile(
            kind="encoder",
            forward_ms=GridInterpolator(axes, forward),
            backward_ms={m: GridInterpolator(axes, backward[m]) for m in RecomputeMode},
            activation_bytes={m: GridInterpolator(axes, activation[m]) for m in RecomputeMode},
            dims=2,
        )

    def profile_decoder_layer(
        self,
        batch_sizes: Sequence[int],
        target_lens: Sequence[int],
        source_lens: Sequence[int],
    ) -> LayerProfile:
        """Profile a T5 decoder layer over the 3-D grid (batch, target, source)."""
        stage = self._single_layer_stage("decoder")
        axes = (list(batch_sizes), list(target_lens), list(source_lens))
        shape = (len(axes[0]), len(axes[1]), len(axes[2]))
        forward = np.zeros(shape)
        backward = {mode: np.zeros(shape) for mode in RecomputeMode}
        activation = {mode: np.zeros(shape) for mode in RecomputeMode}
        for i, b in enumerate(axes[0]):
            for j, t in enumerate(axes[1]):
                for k, s in enumerate(axes[2]):
                    mb = MicroBatchShape(batch_size=b, enc_seq_len=s, dec_seq_len=t)
                    forward[i, j, k] = stage.forward_time_ms(self._gpu, mb)
                    for mode in RecomputeMode:
                        backward[mode][i, j, k] = stage.backward_time_ms(self._gpu, mb, mode)
                        activation[mode][i, j, k] = stage.activation_bytes(mb, mode)
        return LayerProfile(
            kind="decoder",
            forward_ms=GridInterpolator(axes, forward),
            backward_ms={m: GridInterpolator(axes, backward[m]) for m in RecomputeMode},
            activation_bytes={m: GridInterpolator(axes, activation[m]) for m in RecomputeMode},
            dims=3,
        )

    def build_database(
        self,
        max_batch_size: int = 128,
        max_seq_len: int = 8192,
        decoder_grid_stride: int = 2,
    ) -> ProfileDatabase:
        """Profile every layer kind the model needs and return the database.

        ``decoder_grid_stride`` thins the 3-D decoder grid (every other
        power of two) to keep profiling cheap, mirroring the paper's choice
        of coarse grids plus interpolation.
        """
        batch_sizes, seq_lens = default_profile_grid(max_batch_size, max_seq_len)
        database = ProfileDatabase(
            model_name=self.config.name,
            tensor_parallel=self.tensor_parallel,
            device_name=self.device_spec.name,
        )
        database.profiles["encoder"] = self.profile_encoder_layer(batch_sizes, seq_lens)
        if self.config.is_encoder_decoder:
            coarse_batch = batch_sizes[::decoder_grid_stride] or batch_sizes
            coarse_seq = seq_lens[::decoder_grid_stride] or seq_lens
            if coarse_batch[-1] != batch_sizes[-1]:
                coarse_batch = coarse_batch + [batch_sizes[-1]]
            if coarse_seq[-1] != seq_lens[-1]:
                coarse_seq = coarse_seq + [seq_lens[-1]]
            database.profiles["decoder"] = self.profile_decoder_layer(
                coarse_batch, coarse_seq, coarse_seq
            )
        return database
