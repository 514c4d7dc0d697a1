"""The cold compile builds plan, cache entry and artifact straight from the
coloring; every output equals the former derivation byte for byte.

The oracle below is that former derivation, kept in-tree: the balancer's
row permutation through ``permute_rows`` and its column maps through
``np.unique``/``np.lexsort``; lanes through ``colseg_of_all``; the dense
Listing 2 scatter into an eager :class:`Schedule`; the slot join of
``slot_value_sources``; the plan through ``from_schedule`` over that join;
and the artifact written by ``save_schedule(slots=None)``, which joins
and sorts for itself.
"""

import numpy as np
import pytest

from repro import CooMatrix, DiskScheduleStore, GustPipeline, ScheduleCache
from repro.core.load_balance import BalancedMatrix, LoadBalancer
from repro.core.plan import ExecutionPlan
from repro.core.schedule import EMPTY, Schedule
from repro.core.scheduler import slot_value_sources
from repro.core.serialize import save_schedule
from repro.sparse.datasets import load_dataset

LENGTH = 32

#: One surrogate per structure class: circuit, fem, kreg, social.
DATASETS = ("bcircuit", "nopoly", "cage12", "CollegeMsg")

ALGORITHMS = ("matching", "first_fit", "euler", "naive")

PLAN_FIELDS = (
    "values",
    "sources",
    "rows",
    "seg_starts",
    "seg_rows",
    "slot_order",
    "row_perm",
    "value_source",
)


def _parent_maps(permuted: CooMatrix, length: int) -> list:
    """Steps 2-3 as the paper states them: per window, columns by
    descending count (ties by ascending column), dealt snake-wise."""
    m, n = permuted.shape
    windows = -(-m // length)
    pair = (permuted.rows // length) * n + permuted.cols
    unique, counts = np.unique(pair, return_counts=True)
    win, col = unique // n, unique % n
    by_load = np.lexsort((col, -counts, win))
    starts = np.searchsorted(win[by_load], np.arange(windows))
    rank = np.arange(unique.size) - starts[win[by_load]]
    rounds, offsets = rank // length, rank % length
    lanes = np.empty(unique.size, dtype=np.int64)
    lanes[by_load] = np.where(rounds % 2 == 0, offsets, length - 1 - offsets)
    return [(col[win == w], lanes[win == w]) for w in range(windows)]


def _parent_balance(matrix: CooMatrix, length: int, load_balance: bool):
    m = matrix.shape[0]
    if not load_balance:
        return BalancedMatrix(
            matrix=matrix,
            row_perm=np.arange(m, dtype=np.int64),
            window_col_maps=[
                (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            ]
            * (-(-m // length)),
        )
    order = np.argsort(-matrix.row_counts(), kind="stable")
    row_perm = np.empty(m, dtype=np.int64)
    row_perm[order] = np.arange(m, dtype=np.int64)
    permuted = matrix.permute_rows(row_perm)
    return BalancedMatrix(
        matrix=permuted,
        row_perm=row_perm,
        window_col_maps=_parent_maps(permuted, length),
    )


def _parent_schedule(scheduler, balanced: BalancedMatrix) -> Schedule:
    """Lanes by ``colseg_of_all`` and Listing 2 as one dense scatter."""
    matrix = balanced.matrix
    length = scheduler.length
    partition = scheduler._partition(balanced)
    colors = scheduler._color_flat(balanced, partition)
    counts = scheduler._counts(partition, colors)
    total = int(counts.sum())
    m_sch = np.zeros((total, length), dtype=np.float64)
    row_sch = np.full((total, length), EMPTY, dtype=np.int64)
    col_sch = np.full((total, length), EMPTY, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1], dtype=np.int64)))
    steps = offsets[partition.window_ids] + colors
    m_sch[steps, partition.colsegs] = matrix.data
    row_sch[steps, partition.colsegs] = partition.local_rows
    col_sch[steps, partition.colsegs] = matrix.cols
    return Schedule(
        length=length,
        shape=matrix.shape,
        m_sch=m_sch,
        row_sch=row_sch,
        col_sch=col_sch,
        window_colors=tuple(int(c) for c in counts),
    )


def _parent_compile(pipeline, matrix, path):
    balanced = _parent_balance(matrix, pipeline.length, pipeline.load_balance)
    schedule = _parent_schedule(pipeline.scheduler, balanced)
    slots = slot_value_sources(schedule, balanced.matrix)
    plan = ExecutionPlan.from_schedule(
        schedule, row_perm=balanced.row_perm, slots=slots
    )
    data_order = np.lexsort((matrix.cols, balanced.row_perm[matrix.rows]))
    save_schedule(
        path,
        schedule,
        balanced,
        stalls=pipeline.scheduler.last_stalls,
        slots=None,
        data_order=data_order,
    )
    return balanced, schedule, plan, path.read_bytes()


@pytest.fixture(scope="module", params=DATASETS)
def surrogate(request):
    return load_dataset(request.param, scale=1e9, floor_dim=6 * LENGTH)


@pytest.mark.usefixtures("no_faults")
@pytest.mark.parametrize("load_balance", [True, False], ids=["lb", "nolb"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cold_compile_matches_former_derivation(
    surrogate, algorithm, load_balance, tmp_path
):
    store = DiskScheduleStore(directory=tmp_path / "store")
    pipeline = GustPipeline(
        LENGTH,
        algorithm=algorithm,
        load_balance=load_balance,
        cache=ScheduleCache(store=store),
    )
    schedule, balanced, _ = pipeline.preprocess(surrogate)
    key = pipeline.cache.pattern_key(
        surrogate, LENGTH, algorithm, pipeline.load_balance
    )
    plan = pipeline.cache._entries[key].plan
    artifact = store.path_for(
        store.key_for(surrogate, LENGTH, algorithm, pipeline.load_balance)
    ).read_bytes()

    want_balanced, want_schedule, want_plan, want_artifact = _parent_compile(
        pipeline, surrogate, tmp_path / "parent.sched"
    )
    assert balanced.matrix == want_balanced.matrix
    for name in PLAN_FIELDS:
        got, want = getattr(plan, name), getattr(want_plan, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert artifact == want_artifact
    assert schedule.window_colors == want_schedule.window_colors
    for got, want in zip(
        (schedule.m_sch, schedule.row_sch, schedule.col_sch),
        (want_schedule.m_sch, want_schedule.row_sch, want_schedule.col_sch),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestBalancerHandsOver:
    """The balancer's permuted matrix equals ``permute_rows`` on every
    input; its entry order and lanes equal the derivations they replace."""

    @staticmethod
    def _check(matrix, length=8):
        balanced = LoadBalancer(length).balance(matrix)
        assert balanced.matrix == matrix.permute_rows(balanced.row_perm)
        rows = balanced.matrix.rows
        np.testing.assert_array_equal(
            balanced.entry_lanes,
            balanced.colseg_of_all(rows // length, balanced.matrix.cols, length),
        )
        return balanced

    def test_canonical_input(self, surrogate):
        balanced = self._check(surrogate, LENGTH)
        order = np.lexsort(
            (surrogate.cols, balanced.row_perm[surrogate.rows])
        )
        np.testing.assert_array_equal(balanced.entry_order, order)
        np.testing.assert_array_equal(
            balanced.matrix.data, surrogate.data[balanced.entry_order]
        )

    def test_duplicates_and_zeros_have_no_entry_order(self):
        raw = CooMatrix(
            rows=np.array([3, 0, 3, 1, 1, 2]),
            cols=np.array([1, 2, 1, 0, 3, 2]),
            data=np.array([1.0, 2.0, 4.0, 0.0, 5.0, 6.0]),
            shape=(4, 4),
        )
        balanced = self._check(raw, length=2)
        assert balanced.entry_order is None
        assert balanced.matrix.nnz == 4  # (3, 1) summed, (1, 0) dropped

    def test_out_of_range_column_is_rejected(self):
        from repro.errors import MatrixFormatError

        raw = CooMatrix(
            rows=np.array([0, 1]),
            cols=np.array([0, 9]),
            data=np.array([1.0, 2.0]),
            shape=(2, 4),
        )
        with pytest.raises(MatrixFormatError, match="column index"):
            raw.permute_rows(np.array([1, 0]))
        with pytest.raises(MatrixFormatError, match="column index"):
            LoadBalancer(2).balance(raw)


class TestScheduleSnapshotsValues:
    """Without load balancing the balanced matrix is the caller's own; the
    schedule still holds the values it was built from after the caller
    edits its data array in place, directly and on a cache hit."""

    @pytest.fixture
    def edited(self, square_matrix, rng):
        matrix = square_matrix.with_data(square_matrix.data.copy())
        original = matrix.data.copy()
        x = rng.normal(size=matrix.shape[1])
        pipeline = GustPipeline(
            LENGTH, load_balance=False, cache=True, backend="legacy-scatter"
        )
        handle = pipeline.compile(matrix)
        schedule, balanced, _ = pipeline.preprocess(matrix)
        matrix.data[:] *= 2.0  # before any dense read of the schedule
        want = GustPipeline(LENGTH, load_balance=False, cache=False).preprocess(
            square_matrix
        )[0]
        return pipeline, handle, schedule, balanced, original, x, want

    def test_direct(self, edited, square_matrix):
        pipeline, handle, schedule, balanced, _, x, want = edited
        np.testing.assert_array_equal(schedule.m_sch, want.m_sch)
        np.testing.assert_allclose(handle.matvec(x), square_matrix.matvec(x))
        y, _ = pipeline.execute_cycle_accurate(schedule, balanced, x)
        np.testing.assert_allclose(y, square_matrix.matvec(x))

    def test_cache_hit_with_original_values(self, edited, square_matrix):
        pipeline, _, _, _, original, x, want = edited
        restored = square_matrix.with_data(original.copy())
        handle = pipeline.compile(restored)
        assert handle.stats.preprocess.notes["cache_hit"] == 1.0
        np.testing.assert_allclose(handle.matvec(x), square_matrix.matvec(x))
        schedule, _, report = pipeline.preprocess(restored)
        assert report.notes["cache_hit"] == 1.0
        np.testing.assert_array_equal(schedule.m_sch, want.m_sch)
