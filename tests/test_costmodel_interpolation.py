"""Tests for repro.costmodel.interpolation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.interpolation import GridInterpolator


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridInterpolator([[1, 2]], np.zeros((3,)))

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            GridInterpolator([[2, 1]], np.zeros((2,)))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            GridInterpolator([], np.zeros(()))

    def test_wrong_coordinate_count(self):
        interp = GridInterpolator([[0, 1], [0, 1]], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            interp(0.5)


class Test1D:
    def test_exact_grid_points(self):
        interp = GridInterpolator([[1, 2, 4]], np.array([10.0, 20.0, 40.0]))
        assert interp(1) == 10.0
        assert interp(2) == 20.0
        assert interp(4) == 40.0

    def test_midpoint(self):
        interp = GridInterpolator([[0, 10]], np.array([0.0, 100.0]))
        assert interp(5) == pytest.approx(50.0)

    def test_extrapolation_above(self):
        interp = GridInterpolator([[0, 10]], np.array([0.0, 100.0]))
        assert interp(20) == pytest.approx(200.0)

    def test_extrapolation_below(self):
        interp = GridInterpolator([[10, 20]], np.array([100.0, 200.0]))
        assert interp(0) == pytest.approx(0.0)

    def test_single_point_axis(self):
        interp = GridInterpolator([[5]], np.array([42.0]))
        assert interp(3) == 42.0
        assert interp(100) == 42.0


class Test2D:
    def test_bilinear_center(self):
        interp = GridInterpolator(
            [[0, 1], [0, 1]], np.array([[0.0, 1.0], [1.0, 2.0]])
        )
        assert interp(0.5, 0.5) == pytest.approx(1.0)

    def test_corner_values(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        interp = GridInterpolator([[0, 1], [0, 1]], values)
        assert interp(0, 0) == 1.0
        assert interp(1, 1) == 4.0

    def test_linear_function_reproduced_exactly(self):
        """Multi-linear interpolation is exact for linear functions."""
        xs, ys = [1, 3, 7], [2, 5, 11]
        values = np.array([[2 * x + 3 * y for y in ys] for x in xs], dtype=float)
        interp = GridInterpolator([xs, ys], values)
        assert interp(4.5, 6.2) == pytest.approx(2 * 4.5 + 3 * 6.2)

    def test_max_value(self):
        values = np.array([[1.0, 9.0], [3.0, 4.0]])
        interp = GridInterpolator([[0, 1], [0, 1]], values)
        assert interp.max_value() == 9.0


class Test3D:
    def test_trilinear_linear_function(self):
        xs, ys, zs = [1, 2], [4, 8], [16, 32]
        values = np.array(
            [[[x + 2 * y + 4 * z for z in zs] for y in ys] for x in xs], dtype=float
        )
        interp = GridInterpolator([xs, ys, zs], values)
        assert interp(1.5, 6.0, 24.0) == pytest.approx(1.5 + 12.0 + 96.0)

    @given(
        x=st.floats(min_value=1, max_value=2),
        y=st.floats(min_value=4, max_value=8),
        z=st.floats(min_value=16, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_bounded_by_grid_values(self, x, y, z):
        """Within the grid, interpolated values never leave the value range."""
        rng = np.random.default_rng(0)
        values = rng.uniform(0.0, 100.0, size=(2, 2, 2))
        interp = GridInterpolator([[1, 2], [4, 8], [16, 32]], values)
        result = interp(x, y, z)
        assert values.min() - 1e-9 <= result <= values.max() + 1e-9


def _random_grid(rng, dims, points_per_axis=5):
    """A random strictly-increasing grid with random values."""
    axes = [
        np.unique(rng.integers(1, 4096, size=points_per_axis)).astype(float)
        for _ in range(dims)
    ]
    values = rng.uniform(0.0, 500.0, size=tuple(len(a) for a in axes))
    return GridInterpolator(axes, values), axes


def _random_points(rng, axes, count):
    """Random query points, half inside the grid and half extrapolating
    beyond either end of each axis."""
    low = np.array([a[0] for a in axes])
    high = np.array([a[-1] for a in axes])
    span = high - low
    inside = rng.uniform(low, high, size=(count // 2, len(axes)))
    outside = rng.uniform(low - span, high + span, size=(count - count // 2, len(axes)))
    return np.concatenate([inside, outside], axis=0)


class TestQueryMany:
    """The batched fast path must match the scalar reference bit for bit."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_on_random_grids(self, dims, seed):
        rng = np.random.default_rng(seed)
        interp, axes = _random_grid(rng, dims)
        points = _random_points(rng, axes, 64)
        batched = interp.query_many(points)
        scalar = np.array([interp(*row) for row in points])
        assert batched.shape == (64,)
        np.testing.assert_array_equal(batched, scalar)

    def test_matches_scalar_on_grid_points(self):
        """Exact grid points (including corners) are reproduced exactly."""
        rng = np.random.default_rng(3)
        interp, axes = _random_grid(rng, 2)
        grid = np.array([[x, y] for x in axes[0] for y in axes[1]])
        np.testing.assert_array_equal(
            interp.query_many(grid), np.array([interp(*row) for row in grid])
        )

    def test_single_point_axis(self):
        interp = GridInterpolator([[5], [1, 2]], np.array([[10.0, 20.0]]))
        points = np.array([[3.0, 1.5], [100.0, 0.0]])
        np.testing.assert_array_equal(
            interp.query_many(points), np.array([interp(*row) for row in points])
        )

    def test_wrong_shape_rejected(self):
        interp = GridInterpolator([[0, 1], [0, 1]], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            interp.query_many(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            interp.query_many(np.zeros(4))

    def test_empty_batch(self):
        interp = GridInterpolator([[0, 1]], np.array([0.0, 1.0]))
        assert interp.query_many(np.zeros((0, 1))).shape == (0,)


def _bits(array) -> np.ndarray:
    """The IEEE-754 bit patterns of a float array (``-0.0 != 0.0``)."""
    return np.ascontiguousarray(array, dtype=float).view(np.uint64)


@st.composite
def _stacked_cases(draw):
    """A channel grid of 1–3 dimensions (1-point axes included), and query
    points inside and beyond both ends of every axis (possibly none)."""
    dims = draw(st.integers(1, 3))
    axes = [
        sorted(draw(st.sets(st.integers(1, 4096), min_size=1, max_size=4)))
        for _ in range(dims)
    ]
    channels = draw(st.integers(1, 3))
    shape = tuple(len(axis) for axis in axes) + (channels,)
    values = np.array(
        draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
    ).reshape(shape)
    coordinate = st.floats(-8192, 12288, allow_nan=False)
    points = draw(st.lists(st.lists(coordinate, min_size=dims, max_size=dims), max_size=12))
    return axes, values, np.array(points, dtype=float).reshape(len(points), dims)


class TestStackedQueryMany:
    """A channel grid answers every channel in one pass, each bit-identical
    to the scalar reference over that channel alone."""

    @given(case=_stacked_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_channel_matches_scalar(self, case):
        axes, values, points = case
        stacked = GridInterpolator(axes, values).query_many(points)
        assert stacked.shape == (len(points), values.shape[-1])
        for channel in range(values.shape[-1]):
            single = GridInterpolator(axes, values[..., channel])
            scalar = np.array([single(*row) for row in points], dtype=float)
            np.testing.assert_array_equal(_bits(stacked[:, channel]), _bits(scalar))
            np.testing.assert_array_equal(_bits(single.query_many(points)), _bits(scalar))

    def test_one_point_axes_and_both_ends(self):
        axes = [[5], [1, 2, 8]]
        values = np.arange(6, dtype=float).reshape(1, 3, 2) - 2.5
        points = np.array([[0.0, -100.0], [5.0, 1.5], [99.0, 50.0], [5.0, 8.0]])
        stacked = GridInterpolator(axes, values).query_many(points)
        for channel in range(2):
            single = GridInterpolator(axes, values[..., channel])
            np.testing.assert_array_equal(
                _bits(stacked[:, channel]), _bits([single(*row) for row in points])
            )

    def test_empty_batch(self):
        interp = GridInterpolator([[0, 1], [2, 4]], np.zeros((2, 2, 3)))
        assert interp.query_many(np.zeros((0, 2))).shape == (0, 3)

    def test_scalar_call_rejects_channel_grid(self):
        interp = GridInterpolator([[0, 1]], np.zeros((2, 3)))
        with pytest.raises(ValueError, match="single-channel"):
            interp(0.5)

    @pytest.mark.parametrize("shape", [(2, 2, 3, 1), (3, 2), (2, 3, 3)])
    def test_channel_shape_mismatch_rejected(self, shape):
        with pytest.raises(ValueError):
            GridInterpolator([[0, 1], [0, 1]], np.zeros(shape))


class TestLayerProfileAxes:
    """A layer profile stacks each mode's forward, backward and activation
    grids, so all three must share their axes."""

    @staticmethod
    def _profile(backward_axes):
        from repro.costmodel.profiler import LayerProfile
        from repro.model.memory import RecomputeMode

        axes = [[1, 2], [32, 64]]
        grid = np.ones((2, 2))
        return LayerProfile(
            kind="encoder",
            forward_ms=GridInterpolator(axes, grid),
            backward_ms={m: GridInterpolator(backward_axes, grid) for m in RecomputeMode},
            activation_bytes={m: GridInterpolator(axes, grid) for m in RecomputeMode},
        )

    def test_matching_axes_accepted(self):
        self._profile([[1, 2], [32, 64]])

    @pytest.mark.parametrize(
        "backward_axes", [[[1, 2], [32, 128]], [[1, 4], [32, 64]]]
    )
    def test_differing_axes_rejected(self, backward_axes):
        with pytest.raises(ValueError, match="do not share"):
            self._profile(backward_axes)

    def test_differing_dimensions_rejected(self):
        from repro.costmodel.profiler import LayerProfile
        from repro.model.memory import RecomputeMode

        flat = GridInterpolator([[1, 2]], np.ones(2))
        with pytest.raises(ValueError, match="do not share"):
            LayerProfile(
                kind="encoder",
                forward_ms=GridInterpolator([[1, 2], [32, 64]], np.ones((2, 2))),
                backward_ms={m: flat for m in RecomputeMode},
                activation_bytes={m: flat for m in RecomputeMode},
            )

    def test_differing_axes_rejected_on_load(self, gpt_cost_model):
        from repro.costmodel.serialization import cost_model_from_dict, cost_model_to_dict

        payload = cost_model_to_dict(gpt_cost_model)
        grid = payload["database"]["profiles"]["encoder"]["activation_bytes"]["full"]
        grid["axes"][1] = [2 * x for x in grid["axes"][1]]
        with pytest.raises(ValueError, match="full grids do not share"):
            cost_model_from_dict(payload)
