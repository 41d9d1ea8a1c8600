"""Property tests for the row re-grouping primitive of the out-of-core path."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.chunking import iter_row_groups


@given(
    sizes=st.lists(st.integers(0, 9), min_size=1, max_size=8),
    rows_per_group=st.integers(1, 12),
)
def test_regroups_losslessly(sizes, rows_per_group):
    rows = np.arange(sum(sizes) * 3, dtype=np.int8).reshape(-1, 3)
    bounds = np.cumsum([0, *sizes])
    chunks = [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:], strict=True)]
    groups = list(iter_row_groups(chunks, rows_per_group))
    assert [len(group) for group in groups[:-1]] == [rows_per_group] * (len(groups) - 1)
    if groups:
        assert 1 <= len(groups[-1]) <= rows_per_group
        np.testing.assert_array_equal(np.concatenate(groups), rows)
    else:
        assert rows.shape[0] == 0
    for group in groups:
        assert group.dtype == np.int8 and group.flags.c_contiguous


def test_spanning_group_is_a_fresh_buffer():
    rows = np.arange(20).reshape(10, 2)
    groups = list(iter_row_groups([rows[:3], rows[3:5], rows[5:]], 4))
    assert [len(group) for group in groups] == [4, 4, 2]
    assert not np.shares_memory(groups[0], rows)  # spans the first two chunks
    assert np.shares_memory(groups[2], rows)  # lies inside the last chunk
