"""Dense window-cost table builder: the reachable-window table's oracle.

This is the original builder behind
:meth:`repro.core.microbatch.DynamicMicroBatcher.build_window_cost_table`:
it dedups the padded shape of *every* ``[start, start + size)`` window of
the ordered mini-batch (cached across recomputation-mode retries as a
:class:`_WindowGeometry`) and costs all of them, after the singleton
memory gate.  The library now costs only the windows the DP can admit plus
the ``t_max`` probe windows; the equivalence suite requires identical
:func:`~repro.core.dp_solver.solve_partition` results from both tables.  It
lives in ``tests/`` because nothing in the library selects it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dp_solver import WindowCostTable
from repro.core.microbatch import DynamicMicroBatcher, sliding_window_maxima
from repro.data.tasks import Sample
from repro.model.memory import RecomputeMode


class _WindowGeometry:
    """Unique window shapes of one ordered mini-batch (mode-independent).

    ``unique`` holds one ``(batch_size, enc_seq_len, dec_seq_len)`` row per
    distinct window shape, in lexicographic (size-major) order, so the
    size-1 shapes form its leading block; ``inverse`` maps each valid
    ``(start, size)`` window (flattened per ``start_index`` /
    ``size_index``) to its row.  Rows are deduped as packed keys
    (``np.ravel_multi_index`` in ``(size, enc, dec)`` order, which sorts
    like the rows); lengths whose key space overflows int64 raise
    ``ValueError``.
    """

    def __init__(
        self,
        unique: np.ndarray,
        inverse: np.ndarray,
        start_index: np.ndarray,
        size_index: np.ndarray,
        num_samples: int,
        max_window: int,
    ) -> None:
        self.unique = unique
        self.inverse = inverse
        self.start_index = start_index
        self.size_index = size_index
        self.num_samples = num_samples
        self.max_window = max_window


class DenseWindowTableBatcher(DynamicMicroBatcher):
    """:class:`DynamicMicroBatcher` that costs every window's shape.

    Takes the same arguments as the production batcher; its
    :meth:`build_window_cost_table` fills the dense table.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One-slot (key, geometry) cache of the latest mini-batch's window
        # geometry, reused across recomputation-mode retries (the geometry is
        # mode-free).
        self._geometry_entry: tuple[tuple, _WindowGeometry] | None = None

    def _window_geometry(self, ordered: Sequence[Sample]) -> _WindowGeometry:
        """Unique shapes of all candidate windows of the ordered mini-batch."""
        if self.decoder_only:
            enc = np.array([s.total_tokens for s in ordered], dtype=np.int64)
            dec = np.zeros(len(ordered), dtype=np.int64)
        else:
            enc = np.array([s.input_tokens for s in ordered], dtype=np.int64)
            dec = np.array([s.target_tokens for s in ordered], dtype=np.int64)
        key = (len(ordered), self.max_microbatch_size, enc.tobytes(), dec.tobytes())
        entry = self._geometry_entry
        if entry is not None and entry[0] == key:
            return entry[1]

        n = len(ordered)
        window = min(self.max_microbatch_size, n)
        enc_max = sliding_window_maxima(enc, window)
        dec_max = sliding_window_maxima(dec, window)
        sizes = np.arange(1, window + 1)[None, :]
        starts = np.arange(n)[:, None]
        valid = starts + sizes <= n
        start_index, size_index = np.nonzero(valid)
        # Row-major packing in (size, enc, dec) order sorts like the rows
        # themselves, so a 1-D unique over the keys yields the same rows and
        # inverse as ``np.unique(triples, axis=0)`` without its void-view sort.
        dims = (window + 1, int(enc.max()) + 1, int(dec.max()) + 1)
        keys = np.ravel_multi_index(
            (
                size_index + 1,
                enc_max[start_index, size_index],
                dec_max[start_index, size_index],
            ),
            dims,
        )
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        unique = np.stack(np.unravel_index(unique_keys, dims), axis=1)
        geometry = _WindowGeometry(
            unique=unique,
            inverse=inverse.reshape(-1),
            start_index=start_index,
            size_index=size_index,
            num_samples=n,
            max_window=window,
        )
        self._geometry_entry = (key, geometry)
        return geometry

    def build_window_cost_table(
        self, ordered: Sequence[Sample], recompute: RecomputeMode | None = None
    ) -> WindowCostTable:
        """Dense window time/feasibility tables for the DP.

        Batched cost-model queries cover the unique window shapes; the
        results are scattered back to dense ``(start, size)`` tables.  The
        size-1 shapes (the leading block of the size-major ``unique``) are
        costed first: if any sample alone breaks the memory limit, only
        column 0 is filled and :func:`solve_partition` rejects the table
        without the larger shapes ever being costed.
        """
        mode = self.recompute if recompute is None else recompute
        geometry = self._window_geometry(ordered)
        unique = geometry.unique
        num_singletons = int(np.searchsorted(unique[:, 0], 2))
        times_unique = np.full(len(unique), np.inf)
        feasible_unique = np.zeros(len(unique), dtype=bool)
        costed = 0
        for stop in (num_singletons, len(unique)):
            block = slice(costed, stop)
            times_unique[block], activation = self.cost_model.window_costs_arrays(
                unique[block, 0], unique[block, 1], unique[block, 2], mode
            )
            feasible_unique[block] = activation <= self.per_microbatch_memory_bytes
            costed = stop
            if not feasible_unique[:num_singletons].all():
                break
        times = np.full((geometry.num_samples, geometry.max_window), np.inf)
        feasible = np.zeros((geometry.num_samples, geometry.max_window), dtype=bool)
        times[geometry.start_index, geometry.size_index] = times_unique[geometry.inverse]
        feasible[geometry.start_index, geometry.size_index] = feasible_unique[
            geometry.inverse
        ]
        return WindowCostTable(
            times=times,
            feasible=feasible,
            unique_shape_evaluations=costed,
        )
