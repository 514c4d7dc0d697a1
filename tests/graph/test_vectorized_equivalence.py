"""The vectorized coloring kernels must reproduce the seed implementations.

The frozen pure-Python originals live in :mod:`repro.graph._reference`.
The NumPy batch kernels are required to be *edge-for-edge* identical on
every window (which implies bit-identical color counts), and the flat
multi-window entry points must agree with coloring each window separately.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CooMatrix, GustScheduler, LoadBalancer, obs, uniform_random
from repro.core.load_balance import identity_balance
from repro.errors import ColoringError
from repro.graph import edge_coloring
from repro.graph._reference import (
    REFERENCE_ALGORITHMS,
    reference_color_counts,
    reference_window_colorings,
    reference_window_graphs,
)
from repro.graph.bipartite import WindowGraph
from repro.graph.edge_coloring import (
    color_edges,
    euler_coloring,
    first_fit_coloring,
    first_fit_lanes,
    greedy_matching_coloring,
)
from repro.graph.properties import validate_coloring
from tests.strategies import coo_matrices, window_graphs

VECTORIZED = {
    "matching": greedy_matching_coloring,
    "first_fit": first_fit_coloring,
    "euler": euler_coloring,
}


def _random_suite():
    rng = np.random.default_rng(2024)
    cases = []
    for seed in range(12):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(1, 200))
        density = float(rng.uniform(0.0, 0.25))
        length = int(rng.integers(1, 24))
        cases.append((uniform_random(m, n, density, seed=seed), length))
    return cases


class TestPerWindowEquivalence:
    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_seed(self, name, graph):
        seed_colors = REFERENCE_ALGORITHMS[name](graph)
        new_colors = VECTORIZED[name](graph)
        np.testing.assert_array_equal(new_colors, seed_colors)

    @given(graph=window_graphs())
    @settings(max_examples=60, deadline=None)
    def test_first_fit_is_listing_1(self, graph):
        """Row-major first-fit reproduces the seed Listing 1 edge for edge:
        the identity that lets both policies share one kernel."""
        np.testing.assert_array_equal(
            first_fit_coloring(graph), REFERENCE_ALGORITHMS["matching"](graph)
        )

    @given(graph=window_graphs(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matching_on_shuffled_edges(self, graph, seed):
        """Listing 1 scans rows in index order whatever the storage order;
        the wrapper must sort rows before running first-fit."""
        order = np.random.default_rng(seed).permutation(graph.edge_count)
        shuffled = WindowGraph(
            length=graph.length,
            local_rows=graph.local_rows[order],
            colsegs=graph.colsegs[order],
            cols=graph.cols[order],
            values=graph.values[order],
        )
        np.testing.assert_array_equal(
            greedy_matching_coloring(shuffled),
            REFERENCE_ALGORITHMS["matching"](shuffled),
        )

    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @given(graph=window_graphs())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_coloring_is_proper(self, name, graph):
        validate_coloring(graph, VECTORIZED[name](graph))


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @pytest.mark.parametrize("balance", ["identity", "balanced"])
    def test_randomized_matrices_match_seed(self, name, balance):
        for matrix, length in _random_suite():
            balanced = (
                identity_balance(matrix, length)
                if balance == "identity"
                else LoadBalancer(length).balance(matrix)
            )
            scheduler = GustScheduler(length, algorithm=name)
            counts = scheduler.color_counts(balanced)
            assert counts == reference_color_counts(balanced, length, name)

            # Edge-for-edge: the flat kernel output sliced per window must
            # equal the seed's per-window colorings.
            partition = scheduler._partition(balanced)
            flat = scheduler._color_flat(balanced, partition)
            per_window = reference_window_colorings(balanced, length, name)
            starts = partition.window_starts
            for w, seed_colors in enumerate(per_window):
                np.testing.assert_array_equal(
                    flat[starts[w] : starts[w + 1]], seed_colors
                )

    @pytest.mark.parametrize("name", sorted(VECTORIZED))
    @given(matrix=coo_matrices(max_dim=40))
    @settings(max_examples=25, deadline=None)
    def test_property_counts_match_seed(self, name, matrix):
        balanced = identity_balance(matrix, 8)
        counts = GustScheduler(8, algorithm=name).color_counts(balanced)
        assert counts == reference_color_counts(balanced, 8, name)

    def test_schedules_match_seed_windows(self):
        matrix = uniform_random(96, 96, density=0.08, seed=5)
        balanced = LoadBalancer(16).balance(matrix)
        schedule = GustScheduler(16, algorithm="matching").schedule_balanced(
            balanced
        )
        graphs = reference_window_graphs(balanced, 16)
        seed_counts = tuple(
            int(c.max()) + 1 if c.size else 0
            for c in reference_window_colorings(balanced, 16, "matching")
        )
        assert schedule.window_colors == seed_counts
        assert len(graphs) == schedule.window_count


class TestFirstFitMemoryFallback:
    def test_per_window_fallback_is_identical(self, monkeypatch):
        """Under a tiny table budget first_fit colors window by window;
        the result must be bit-identical to the batched tables."""
        from repro.graph import edge_coloring

        matrix = uniform_random(120, 90, density=0.15, seed=21)
        balanced = identity_balance(matrix, 16)
        scheduler = GustScheduler(16, algorithm="first_fit")
        batched = scheduler.schedule_balanced(balanced)
        monkeypatch.setattr(edge_coloring, "_FIRST_FIT_TABLE_BUDGET", 1)
        fallback = scheduler.schedule_balanced(balanced)
        assert fallback.window_colors == batched.window_colors
        np.testing.assert_array_equal(fallback.row_sch, batched.row_sch)
        np.testing.assert_array_equal(fallback.m_sch, batched.m_sch)


def _hub_matrix(length=16, small_windows=60, n=150):
    """One dense hub window first, then many sparse windows."""
    hub_rows, hub_cols = np.divmod(np.arange(length * n), n)
    tail = uniform_random(length * small_windows, n, 0.01, seed=3)
    return CooMatrix.from_arrays(
        np.concatenate([hub_rows, tail.rows + length]),
        np.concatenate([hub_cols, tail.cols]),
        np.ones(hub_rows.size + tail.nnz),
        (length * (small_windows + 1), n),
    )


class TestTwoLanes:
    """The scalar and rank-major lanes of the first-fit kernel color the
    same way; the split between them only moves the cost."""

    LENGTH = 16

    def _lanes(self, matrix):
        balanced = identity_balance(matrix, self.LENGTH)
        part = GustScheduler(self.LENGTH)._partition(balanced)
        result = first_fit_lanes(
            part.local_rows,
            part.colsegs,
            part.window_ids,
            self.LENGTH,
            part.windows,
            part.window_starts,
        )
        return balanced, part, result

    def test_hub_window_takes_scalar_lane(self, monkeypatch):
        monkeypatch.setattr(edge_coloring, "STEP_COST", 32)
        balanced, part, (colors, scalar_windows, rank_steps) = self._lanes(
            _hub_matrix()
        )
        assert scalar_windows == 1
        assert 0 < rank_steps < int(np.diff(part.window_starts).max())
        starts = part.window_starts
        for name in ("first_fit", "matching"):
            per_window = reference_window_colorings(balanced, self.LENGTH, name)
            for w, seed_colors in enumerate(per_window):
                np.testing.assert_array_equal(
                    colors[starts[w] : starts[w + 1]], seed_colors
                )

    def test_step_cost_extremes_agree(self, monkeypatch):
        matrix = _hub_matrix()
        monkeypatch.setattr(edge_coloring, "STEP_COST", 0)
        _, part, (all_rank, scalar_windows, rank_steps) = self._lanes(matrix)
        sizes = np.diff(part.window_starts)
        assert scalar_windows == 0
        assert rank_steps == int(sizes.max())
        monkeypatch.setattr(edge_coloring, "STEP_COST", 10**9)
        _, _, (all_scalar, scalar_windows, rank_steps) = self._lanes(matrix)
        assert scalar_windows == int((sizes > 0).sum())
        assert rank_steps == 0
        np.testing.assert_array_equal(all_scalar, all_rank)

    def test_coloring_span_records_the_split(self):
        tracer = obs.Tracer()
        with obs.overridden(tracer):
            GustScheduler(self.LENGTH).schedule(_hub_matrix())
        (event,) = [e for e in tracer.events() if e["name"] == "compile.coloring"]
        assert set(event["args"]) == {"scalar_windows", "rank_steps"}
        assert event["args"]["scalar_windows"] >= 1


class TestUncoloredConvention:
    def _empty_graph(self):
        return WindowGraph(
            length=4,
            local_rows=np.zeros(0, np.int64),
            colsegs=np.zeros(0, np.int64),
            cols=np.zeros(0, np.int64),
            values=np.zeros(0),
        )

    def test_first_fit_zero_edges_matches_convention(self):
        """Regression: first_fit used to return an uninitialized np.empty."""
        colors = first_fit_coloring(self._empty_graph())
        assert colors.dtype == np.int64
        assert colors.size == 0
        # Same construction path as the other algorithms: a -1-filled array.
        reference = np.full(0, -1, dtype=np.int64)
        np.testing.assert_array_equal(colors, reference)

    def test_color_edges_rejects_incomplete_coloring(self, monkeypatch):
        from repro.graph import edge_coloring

        graph = WindowGraph(
            length=2,
            local_rows=np.array([0], dtype=np.int64),
            colsegs=np.array([1], dtype=np.int64),
            cols=np.array([1], dtype=np.int64),
            values=np.ones(1),
        )
        monkeypatch.setitem(
            edge_coloring.ALGORITHMS,
            "broken",
            lambda g: np.full(g.edge_count, -1, dtype=np.int64),
        )
        with pytest.raises(ColoringError, match="uncolored"):
            color_edges(graph, "broken")

    def test_color_edges_rejects_wrong_shape(self, monkeypatch):
        from repro.graph import edge_coloring

        graph = WindowGraph(
            length=2,
            local_rows=np.array([0, 1], dtype=np.int64),
            colsegs=np.array([0, 1], dtype=np.int64),
            cols=np.array([0, 1], dtype=np.int64),
            values=np.ones(2),
        )
        monkeypatch.setitem(
            edge_coloring.ALGORITHMS,
            "truncated",
            lambda g: np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ColoringError, match="colors"):
            color_edges(graph, "truncated")
