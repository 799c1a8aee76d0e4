"""Multi-linear interpolation over a rectangular grid of profiled points.

The paper profiles micro-batch sizes and sequence lengths at power-of-two
intervals and uses linear interpolation between sampled points.  This module
implements that interpolation for an arbitrary number of dimensions (two for
GPT layers, three for T5 decoder layers because cross-attention couples the
target and source lengths).

Values outside the profiled range are linearly extrapolated from the last
grid cell, matching the common practice of extending the profile rather than
failing; extrapolation quality is part of what the cost-model accuracy
experiment measures.

Two query paths are provided: the scalar ``__call__`` (the reference
implementation) and the batched :meth:`GridInterpolator.query_many`, which
evaluates thousands of points in a handful of numpy operations and is the
entry point of the planner's vectorized cost-model fast path.  Both paths
produce bit-identical results.

The values may carry one trailing *channel* axis: several profiled
quantities sampled on the same grid (a layer's forward time, backward time
and activation bytes).  ``query_many`` then brackets each coordinate and
computes each corner weight once for all channels, and returns one column
per channel, each bit-identical to a single-channel interpolator over that
channel's values.  The scalar ``__call__`` takes single-channel grids only.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np


class GridInterpolator:
    """N-dimensional multi-linear interpolation on a rectangular grid.

    Args:
        axes: One strictly-increasing coordinate array per dimension.
        values: Array of shape ``tuple(len(a) for a in axes)`` holding the
            profiled value at each grid point, optionally followed by one
            channel axis (``(*grid, channels)``) holding several values per
            point.
    """

    def __init__(self, axes: Sequence[Sequence[float]], values: np.ndarray) -> None:
        if not axes:
            raise ValueError("at least one axis is required")
        self.axes = [np.asarray(axis, dtype=float) for axis in axes]
        for dim, axis in enumerate(self.axes):
            if axis.ndim != 1 or len(axis) < 1:
                raise ValueError(f"axis {dim} must be a non-empty 1-D sequence")
            if len(axis) > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError(f"axis {dim} must be strictly increasing")
        self.values = np.asarray(values, dtype=float)
        grid_shape = tuple(len(axis) for axis in self.axes)
        shape = self.values.shape
        if shape[: len(grid_shape)] != grid_shape or len(shape) > len(grid_shape) + 1:
            raise ValueError(
                f"values shape {shape} does not match axes shape {grid_shape} "
                "(plus at most one channel axis)"
            )
        # Batched-query geometry: cell widths per axis, and the values as one
        # row per channel over the flattened grid, with each axis's stride.
        self._spans = [np.diff(axis) for axis in self.axes]
        self._channels = np.ascontiguousarray(
            self.values.reshape(int(np.prod(grid_shape)), -1).T
        )
        self._strides = [int(np.prod(grid_shape[dim + 1 :])) for dim in range(len(grid_shape))]

    def _bracket(self, dim: int, x: float) -> tuple[int, int, float]:
        """Return (low index, high index, fraction) bracketing ``x`` on ``dim``.

        Points beyond either end of the axis extrapolate from the outermost
        cell (fraction outside [0, 1]).
        """
        axis = self.axes[dim]
        if len(axis) == 1:
            return 0, 0, 0.0
        idx = bisect_left(axis, x)
        if idx <= 0:
            lo, hi = 0, 1
        elif idx >= len(axis):
            lo, hi = len(axis) - 2, len(axis) - 1
        else:
            lo, hi = idx - 1, idx
        span = axis[hi] - axis[lo]
        frac = (x - axis[lo]) / span if span else 0.0
        return lo, hi, float(frac)

    def __call__(self, *coords: float) -> float:
        """Interpolated value at ``coords`` (one coordinate per dimension)."""
        if len(coords) != len(self.axes):
            raise ValueError(
                f"expected {len(self.axes)} coordinates, got {len(coords)}"
            )
        if self.values.ndim != len(self.axes):
            raise ValueError("the scalar query takes single-channel grids only")
        brackets = [self._bracket(dim, float(c)) for dim, c in enumerate(coords)]
        total = 0.0
        corners = 1 << len(self.axes)
        for corner in range(corners):
            weight = 1.0
            index = []
            for dim, (lo, hi, frac) in enumerate(brackets):
                if corner >> dim & 1:
                    weight *= frac
                    index.append(hi)
                else:
                    weight *= 1.0 - frac
                    index.append(lo)
            if weight != 0.0:
                total += weight * float(self.values[tuple(index)])
        return total

    def _bracket_many(self, dim: int, x: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """Vectorized :meth:`_bracket` on ``dim``: the low indices, the step
        to the high index, and the fractions."""
        axis = self.axes[dim]
        if len(axis) == 1:
            return np.zeros(len(x), dtype=np.intp), 0, np.zeros(len(x))
        # Searching the interior points only clamps to the outermost cells.
        lo = np.searchsorted(axis[1:-1], x, side="left")
        frac = (x - axis.take(lo)) / self._spans[dim].take(lo)
        return lo, 1, frac

    def query_many(self, coords: np.ndarray) -> np.ndarray:
        """Interpolated values for a batch of points in one numpy pass.

        Args:
            coords: Array of shape ``(num_points, num_dims)``; one row per
                query point, one column per grid dimension.

        Returns:
            Array of ``num_points`` interpolated values, bit-identical to
            calling the scalar ``__call__`` on each row; ``(num_points,
            channels)`` for channel grids, each column bit-identical to a
            single-channel interpolator over that channel.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != len(self.axes):
            raise ValueError(
                f"expected coords of shape (n, {len(self.axes)}), got {coords.shape}"
            )
        # Corner ``c`` takes the high bracket on dimension ``d`` iff bit ``d``
        # of ``c`` is set.  Its weight multiplies the per-dimension factors
        # in dimension order, as the scalar path does, and ``points`` holds
        # its grid point's flat index.
        weights: list = [1.0]
        points: list = [0]
        for dim, stride in enumerate(self._strides):
            lo, step, frac = self._bracket_many(dim, coords[:, dim])
            rest = 1.0 - frac
            low = lo * stride
            high = low + step * stride
            weights = [w * rest for w in weights] + [w * frac for w in weights]
            points = [p + low for p in points] + [p + high for p in points]
        total = np.zeros((len(self._channels), coords.shape[0]))
        for weight, point in zip(weights, points):
            total += weight * self._channels.take(point, axis=1)
        return total.T if self.values.ndim > len(self.axes) else total[0]

    def max_value(self) -> float:
        """Maximum profiled value (useful for sanity checks)."""
        return float(self.values.max())
