"""Property tests pinning ``canonical_order`` to the ``np.lexsort`` form
and ``stable_argsort`` to ``np.argsort(kind="stable")``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CooMatrix
from repro.sparse.coo import canonical_order, stable_argsort


def _lexsort_order(rows, cols):
    return np.lexsort((cols, rows))


def _lexsort_from_arrays(rows, cols, data, shape):
    """The former ``CooMatrix.from_arrays`` body, sorting with lexsort."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    if rows.size:
        key_same = np.zeros(rows.size, dtype=bool)
        key_same[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if key_same.any():
            group_id = np.cumsum(~key_same) - 1
            summed = np.zeros(group_id[-1] + 1, dtype=np.float64)
            np.add.at(summed, group_id, data)
            first = ~key_same
            rows, cols, data = rows[first], cols[first], summed
    keep = data != 0.0
    return rows[keep], cols[keep], data[keep]


@st.composite
def triplets(draw, max_dim=12, max_size=60):
    """Random (rows, cols, data, shape) with duplicates and explicit zeros."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    size = draw(st.integers(0, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size)
    cols = rng.integers(0, n, size)
    # Small value alphabet with zeros: explicit zeros and duplicates that
    # cancel to zero both occur.
    data = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.5], size)
    return rows, cols, data, (m, n)


class TestCanonicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(triplets())
    def test_matches_lexsort_on_shuffled_input(self, case):
        rows, cols, _, shape = case
        np.testing.assert_array_equal(
            canonical_order(rows, cols, shape), _lexsort_order(rows, cols)
        )

    @settings(max_examples=100, deadline=None)
    @given(triplets())
    def test_matches_lexsort_on_presorted_input(self, case):
        rows, cols, _, shape = case
        order = _lexsort_order(rows, cols)
        rows, cols = rows[order], cols[order]
        got = canonical_order(rows, cols, shape)
        np.testing.assert_array_equal(got, _lexsort_order(rows, cols))
        # Stable on canonical input: duplicates keep their order too.
        np.testing.assert_array_equal(got, np.arange(rows.size))

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        order = canonical_order(empty, empty, (3, 4))
        assert order.size == 0

    def test_single_row(self, rng):
        cols = rng.integers(0, 50, 200)
        rows = np.zeros_like(cols)
        np.testing.assert_array_equal(
            canonical_order(rows, cols, (1, 50)), _lexsort_order(rows, cols)
        )

    @pytest.mark.parametrize(
        "shape",
        [(2**31, 2**31), (2**32, 2**32), (2**40, 2**30), (3, 2**62)],
        ids=["fused-key-near-limit", "overflow", "tall-overflow", "wide"],
    )
    def test_large_shapes(self, shape, rng):
        """Indices near the top of the shape: an overflowing fused key
        would reorder them, so the fallback must take over."""
        m, n = shape
        rows = np.concatenate(
            [rng.integers(m - 4, m, 40), rng.integers(0, 4, 40)]
        ).astype(np.int64)
        cols = np.concatenate(
            [rng.integers(n - 4, n, 40), rng.integers(0, 4, 40)]
        ).astype(np.int64)
        perm = rng.permutation(rows.size)
        rows, cols = rows[perm], cols[perm]
        np.testing.assert_array_equal(
            canonical_order(rows, cols, shape), _lexsort_order(rows, cols)
        )


@st.composite
def bounded_keys(draw, max_size=300):
    """Integer keys below a bound: shuffled, presorted or duplicate-heavy,
    with the bound anywhere from tiny to past the fused-key limit."""
    bound = draw(
        st.one_of(st.integers(1, 8), st.integers(1, 2**20), st.just(2**62))
    )
    size = draw(st.integers(0, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, bound, size, dtype=np.int64)
    shape = draw(st.sampled_from(["shuffled", "presorted", "reversed"]))
    if shape == "presorted":
        keys = np.sort(keys, kind="stable")
    elif shape == "reversed":
        keys = np.sort(keys, kind="stable")[::-1].copy()
    return keys, bound


class TestStableArgsort:
    @settings(max_examples=300, deadline=None)
    @given(bounded_keys())
    def test_matches_stable_argsort(self, case):
        keys, bound = case
        got = stable_argsort(keys, bound)
        want = np.argsort(keys, kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "bound", [2**40, 2**60], ids=["fused", "past-fused-limit"]
    )
    def test_duplicate_heavy_large_input(self, bound, rng):
        """Few distinct keys among many: ties must keep input order."""
        values = rng.integers(0, bound, 5, dtype=np.int64)
        keys = values[rng.integers(0, 5, 20_000)]
        np.testing.assert_array_equal(
            stable_argsort(keys, bound), np.argsort(keys, kind="stable")
        )

    def test_presorted_returns_arange(self, rng):
        keys = np.sort(rng.integers(0, 10, 1000))
        np.testing.assert_array_equal(
            stable_argsort(keys, 10), np.arange(keys.size)
        )


class TestFromArraysOrder:
    @settings(max_examples=200, deadline=None)
    @given(triplets())
    def test_equals_lexsort_form(self, case):
        rows, cols, data, shape = case
        matrix = CooMatrix.from_arrays(rows, cols, data, shape)
        want_rows, want_cols, want_data = _lexsort_from_arrays(
            rows, cols, data, shape
        )
        np.testing.assert_array_equal(matrix.rows, want_rows)
        np.testing.assert_array_equal(matrix.cols, want_cols)
        np.testing.assert_array_equal(matrix.data, want_data)

    def test_overflow_shape(self):
        shape = (2**32, 2**32)
        rows = np.array([2**32 - 1, 0, 2**32 - 1, 5], dtype=np.int64)
        cols = np.array([2**32 - 1, 2**32 - 2, 0, 5], dtype=np.int64)
        data = np.array([1.0, 2.0, 3.0, 4.0])
        matrix = CooMatrix.from_arrays(rows, cols, data, shape)
        assert matrix.rows.tolist() == [0, 5, 2**32 - 1, 2**32 - 1]
        assert matrix.cols.tolist() == [2**32 - 2, 5, 0, 2**32 - 1]
        assert matrix.data.tolist() == [2.0, 4.0, 3.0, 1.0]
