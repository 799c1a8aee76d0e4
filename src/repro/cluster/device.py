"""Analytic GPU device model.

The model follows a simple roofline: a kernel that performs ``flops``
floating point operations and moves ``bytes`` of data takes

    time = max(flops / achievable_flops, bytes / achievable_bandwidth) + launch_overhead

Achievable rates are the peak rates scaled by an efficiency factor, which is
how real training kernels behave (they rarely reach peak).  A configurable
multiplicative noise term models run-to-run variation; this is the source of
the execution-time variance that the adaptive schedule (paper §5, Fig. 7) is
designed to tolerate.

Time is measured in **milliseconds** and memory in **bytes** throughout the
package unless a name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of an accelerator device.

    Attributes:
        name: Human readable device name.
        peak_flops: Peak throughput in FLOP/s (half precision with tensor cores
            for A100: 312 TFLOP/s).
        memory_bandwidth: Peak HBM bandwidth in bytes/s.
        memory_capacity: Usable device memory in bytes.
        compute_efficiency: Fraction of peak FLOP/s achievable by dense
            transformer kernels.
        bandwidth_efficiency: Fraction of peak bandwidth achievable.
        kernel_overhead_ms: Fixed per-kernel launch overhead in milliseconds.
    """

    name: str
    peak_flops: float
    memory_bandwidth: float
    memory_capacity: float
    compute_efficiency: float = 0.45
    bandwidth_efficiency: float = 0.75
    kernel_overhead_ms: float = 0.02

    def __post_init__(self) -> None:
        check_positive("peak_flops", self.peak_flops)
        check_positive("memory_bandwidth", self.memory_bandwidth)
        check_positive("memory_capacity", self.memory_capacity)
        check_positive("compute_efficiency", self.compute_efficiency)
        check_positive("bandwidth_efficiency", self.bandwidth_efficiency)
        check_non_negative("kernel_overhead_ms", self.kernel_overhead_ms)

    @property
    def achievable_flops(self) -> float:
        """Sustained FLOP/s after the efficiency derating."""
        return self.peak_flops * self.compute_efficiency

    @property
    def achievable_bandwidth(self) -> float:
        """Sustained bytes/s after the efficiency derating."""
        return self.memory_bandwidth * self.bandwidth_efficiency

    def with_memory_capacity(self, memory_capacity: float) -> "DeviceSpec":
        """Return a copy with a different memory capacity (e.g. to model
        memory reserved by the framework)."""
        return replace(self, memory_capacity=memory_capacity)


#: The device used throughout the paper's evaluation (A100 40 GB SXM).
A100_40GB = DeviceSpec(
    name="A100-40GB",
    peak_flops=312e12,
    memory_bandwidth=1.555e12,
    memory_capacity=40 * 1024**3,
)


class SimulatedGPU:
    """Converts analytic kernel descriptions into execution times.

    The simulated GPU plays two roles:

    * during *profiling* (``noise_std=0``) it provides the ground-truth costs
      that the cost model interpolates, exactly as the real system profiles a
      physical GPU;
    * during *execution simulation* a non-zero ``noise_std`` injects
      multiplicative Gaussian noise so that the planner's predictions and the
      "measured" execution differ, which is what the paper's Fig. 7 and
      Fig. 18 study.
    """

    def __init__(
        self,
        spec: DeviceSpec = A100_40GB,
        noise_std: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        check_non_negative("noise_std", noise_std)
        self.spec = spec
        self.noise_std = noise_std
        self._rng: Optional[np.random.Generator] = new_rng(seed) if noise_std > 0 else None

    def kernel_time_ms(self, flops: float, bytes_moved: float, kernels: int = 1) -> float:
        """Execution time of a fused group of kernels in milliseconds.

        Args:
            flops: Total floating point operations.
            bytes_moved: Total bytes read + written from HBM.
            kernels: Number of distinct kernel launches (adds fixed overhead).
        """
        check_non_negative("flops", flops)
        check_non_negative("bytes_moved", bytes_moved)
        if kernels < 1:
            raise ValueError(f"kernels must be >= 1, got {kernels}")
        return self.apply_noise(self.noiseless_time_ms(flops, bytes_moved, kernels))

    def noiseless_time_ms(self, flops, bytes_moved, kernels):
        """Roofline time of :meth:`kernel_time_ms` before noise.

        Also evaluates element-wise on equal-length numpy arrays, with the
        same IEEE operations as the scalar form (bit-identical per element).
        """
        compute_s = flops / self.spec.achievable_flops
        memory_s = bytes_moved / self.spec.achievable_bandwidth
        slowest = (np.maximum if isinstance(compute_s, np.ndarray) else max)(compute_s, memory_s)
        return slowest * 1e3 + kernels * self.spec.kernel_overhead_ms

    def apply_noise(self, time_ms: float) -> float:
        """Multiply by (1 + N(0, noise_std)) clipped so time stays positive.

        Draws one scalar from the device's generator per call (none when
        the device is noiseless)."""
        if self._rng is None or self.noise_std == 0.0:
            return time_ms
        factor = 1.0 + float(self._rng.normal(0.0, self.noise_std))
        return time_ms * max(factor, 0.05)

    @property
    def memory_capacity(self) -> float:
        """Usable device memory in bytes."""
        return self.spec.memory_capacity
