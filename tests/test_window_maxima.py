"""The sparse window-maxima table against the dense running maximum.

The window table reads each costed window's padded lengths through
:func:`window_maxima`; :func:`sliding_window_maxima` is the dense form the
dense window-table oracle reads.  Every window that fits must get the same
maximum from both, for any ordering of the lengths and any window cap.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.microbatch import sliding_window_maxima, window_maxima, window_maxima_table


@given(
    values=st.lists(st.integers(0, 5000), min_size=1, max_size=300),
    max_window=st.integers(1, 300),
)
@settings(max_examples=80, deadline=None)
def test_every_fitting_window_matches_dense_maxima(values, max_window):
    values = np.array(values, dtype=np.int64)
    n = len(values)
    window = min(max_window, n)
    start, column = np.nonzero(np.arange(n)[:, None] + np.arange(1, window + 1) <= n)
    sparse = window_maxima(window_maxima_table(values, max_window), start, column + 1)
    np.testing.assert_array_equal(sparse, sliding_window_maxima(values, max_window)[start, column])
    brute = [values[s : s + c + 1].max() for s, c in zip(start[::97], column[::97])]
    np.testing.assert_array_equal(sparse[::97], brute)
