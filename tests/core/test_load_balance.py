"""Tests for the three-step load balancer, including the Figure 6 example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CooMatrix, GustScheduler, LoadBalancer
from repro.core.load_balance import _load_order, identity_balance


@pytest.fixture
def figure6_matrix():
    """The paper's Figure 6 4x4 example.

    Row 0: M11 M12 M13 M14; row 1: M21; row 2: M31 M32 M33; row 3: M44.
    """
    rows = [0, 0, 0, 0, 1, 2, 2, 2, 3]
    cols = [0, 1, 2, 3, 0, 0, 1, 2, 3]
    return CooMatrix.from_arrays(
        np.array(rows), np.array(cols), np.arange(1.0, 10.0), (4, 4)
    )


class TestFigure6:
    def test_unbalanced_cost_is_seven(self, figure6_matrix):
        balanced = identity_balance(figure6_matrix, 2)
        bounds = balanced.color_lower_bounds(2)
        assert sum(bounds) == 7  # paper: 4 + 3 cycles

    def test_balanced_cost_is_five(self, figure6_matrix):
        balanced = LoadBalancer(2).balance(figure6_matrix)
        bounds = balanced.color_lower_bounds(2)
        assert sum(bounds) == 5  # paper: 4 + 1 after load balancing

    def test_row_sort_groups_heavy_rows(self, figure6_matrix):
        balanced = LoadBalancer(2).balance(figure6_matrix)
        counts = balanced.matrix.row_counts()
        assert counts.tolist() == [4, 3, 1, 1]


class TestPermutation:
    def test_row_perm_is_permutation(self, square_matrix):
        balanced = LoadBalancer(32).balance(square_matrix)
        assert sorted(balanced.row_perm.tolist()) == list(
            range(square_matrix.shape[0])
        )

    def test_unpermute_roundtrip(self, square_matrix, rng):
        balanced = LoadBalancer(32).balance(square_matrix)
        y_original = rng.normal(size=square_matrix.shape[0])
        y_permuted = y_original[np.argsort(balanced.row_perm)][
            np.arange(square_matrix.shape[0])
        ]
        # y_permuted[row_perm[i]] == y_original[i] by construction:
        y_permuted = np.empty_like(y_original)
        y_permuted[balanced.row_perm] = y_original
        np.testing.assert_array_equal(
            balanced.unpermute_output(y_permuted), y_original
        )

    def test_nnz_preserved(self, square_matrix):
        balanced = LoadBalancer(32).balance(square_matrix)
        assert balanced.matrix.nnz == square_matrix.nnz


class TestColsegMapping:
    def test_identity_flips_are_modulo(self, square_matrix):
        balanced = identity_balance(square_matrix, 32)
        cols = np.arange(square_matrix.shape[1])
        np.testing.assert_array_equal(
            balanced.colseg_of(0, cols, 32), cols % 32
        )

    def test_snake_dealing_assigns_distinct_lanes(self):
        # Two columns used once each in the window land on different
        # multipliers even though both are congruent mod l.
        matrix = CooMatrix.from_arrays(
            np.array([0, 1]), np.array([0, 2]), np.ones(2), (2, 4)
        )
        balanced = LoadBalancer(2).balance(matrix)
        segs = balanced.colseg_of(0, np.array([0, 2]), 2)
        assert sorted(segs.tolist()) == [0, 1]

    def test_unmapped_columns_fall_back_to_modulo(self, square_matrix):
        balanced = LoadBalancer(32).balance(square_matrix)
        # A column index absent from window 0 maps to col % l.
        absent = np.array([square_matrix.shape[1] - 1], dtype=np.int64)
        mask = (balanced.matrix.rows // 32) == 0
        if absent[0] not in set(balanced.matrix.cols[mask].tolist()):
            seg = balanced.colseg_of(0, absent, 32)
            assert seg.tolist() == [absent[0] % 32]

    def test_balancing_never_worsens_bound(self, square_matrix):
        length = 32
        before = sum(identity_balance(square_matrix, length).color_lower_bounds(length))
        after = sum(LoadBalancer(length).balance(square_matrix).color_lower_bounds(length))
        # Not a theorem in general, but holds on mixed-degree random
        # matrices and is the balancer's entire purpose.
        assert after <= before


class TestEndToEnd:
    def test_balanced_spmv_correct(self, square_matrix, rng):
        from repro import GustPipeline

        x = rng.normal(size=square_matrix.shape[1])
        pipeline = GustPipeline(32, load_balance=True, validate=True)
        result = pipeline.spmv(square_matrix, x)
        np.testing.assert_allclose(result.y, square_matrix.matvec(x))

    def test_balancing_reduces_cycles_on_skewed_input(self):
        from repro import power_law

        matrix = power_law(512, 512, 0.02, seed=3)
        scheduler = GustScheduler(64)
        plain = scheduler.schedule(matrix).execution_cycles
        balanced_input = LoadBalancer(64).balance(matrix)
        balanced = scheduler.schedule_balanced(balanced_input).execution_cycles
        assert balanced < plain


class TestLoadOrder:
    @given(
        windows=st.integers(1, 40),
        n=st.integers(1, 60),
        length=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_fused_key_equals_three_key_lexsort(self, windows, n, length, seed):
        """Unique (window, column) pairs arrive in (window, column) order;
        the fused-key argsort must deal them exactly like the lexsort."""
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, windows * n, rng.integers(1, 200)))
        win, col = keys // n, keys % n
        counts = rng.integers(1, length + 1, keys.size)
        np.testing.assert_array_equal(
            _load_order(win, counts), np.lexsort((col, -counts, win))
        )
