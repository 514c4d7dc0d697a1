"""Edge-coloring algorithms for GUST scheduling.

The color assigned to an edge (a nonzero) is its position in the multiplier
input buffer — its time slot.  A *proper* coloring (no two edges sharing a
vertex have the same color) guarantees collision freedom: per cycle, each
multiplier issues at most one element and each adder receives at most one
partial product.

Three algorithms, trading faithfulness against color count and speed:

=====================  ===========================  =======================
algorithm              colors                       provenance
=====================  ===========================  =======================
greedy_matching        <= 2*Delta - 1, ~Delta typ.  the paper's Listing 1
first_fit              same as greedy_matching      row-major first-fit
euler (matching peel)  == Delta exactly             König optimum, ablation
=====================  ===========================  =======================

All three take a :class:`~repro.graph.bipartite.WindowGraph` and return a
per-edge int64 color array aligned with the graph's edge arrays, using
``-1`` for "uncolored" (a completed coloring contains no ``-1``; the
dispatcher :func:`color_edges` enforces this).

Listing 1 is row-major first-fit
--------------------------------

Round ``r`` of Listing 1 lets each row, in index order, take its first
pending edge whose lane (column segment) no earlier row claimed in round
``r``.  First-fit gives each edge, in row-major storage order, the
smallest color free at both its row and its lane.  The two rules produce
the same coloring, edge for edge.  By induction over the edges in that
order: let ``e`` be an edge of row ``i`` on lane ``j``, ``F`` the colors
that rows before ``i`` put on lane ``j`` and ``C`` the colors of row
``i``'s earlier edges, all equal under both rules.  In round ``r``,
Listing 1 cannot give ``e`` color ``r`` if ``r`` is in ``C`` (row ``i``
already took an edge that round) or in ``F`` (the lane is claimed).
Otherwise every earlier edge of row ``i`` still pending in round ``r``
has a first-fit color above ``r`` without ``r`` in its own ``C``, so
``r`` is in its ``F``: its lane is claimed, and ``e`` is the row's first
eligible edge.  So ``e`` gets the smallest ``r`` outside ``F`` and
``C``, which is its first-fit color.  Hence "matching" and "first_fit"
are one schedule, and both run on one kernel.

One kernel, two lanes
---------------------

:func:`first_fit_coloring_flat` colors *flat edge arrays spanning every
window at once*, each window on one of two lanes.  The **rank-major
lane** colors edge ``k`` of all its windows in one vectorized step
(uint64 bitmasks for palettes <= 64, boolean tables above), so it takes
as many steps as its largest window has edges.  The **scalar lane**
walks its windows edge by edge over Python-int bitmasks.  The largest
windows go scalar (see :func:`_scalar_windows`); both lanes take the
lowest free bit, so the split never changes a color.
:func:`euler_coloring_flat` instead peels one perfect matching per color
from the disjoint union of all still-active windows with one
:func:`~repro.graph.matching.hopcroft_karp_flat` pass.

The kernels reproduce the original per-window Python implementations
(preserved in :mod:`repro.graph._reference`) *edge-for-edge*, which
``tests/graph/test_vectorized_equivalence.py`` pins down.  The batch entry
points are what :class:`repro.core.scheduler.GustScheduler` calls; the
per-graph functions below wrap them for single windows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ColoringError
from repro.graph.bipartite import WindowGraph
from repro.graph.matching import hopcroft_karp_flat

#: Byte budget for the rank-major lane's occupancy tables; windows that
#: would push the tables past it are colored on the scalar lane instead.
_FIRST_FIT_TABLE_BUDGET = 1 << 27

#: ``np.bitwise_count`` arrived in NumPy 2.0; the uint64 first-fit fast
#: path silently falls back to the boolean tables without it.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Scalar-lane edges that cost as much as one rank-major step.  Measured
#: on a 2-core Xeon host (Python 3.11, NumPy 2.4): a scalar edge ~0.7 us,
#: a 16-to-150-window bitmask step ~20-30 us; 32 minimized the total
#: coloring time of the benchmark's surrogate matrices at ``l = 64``.
STEP_COST = 32


def _rank_major(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    window_starts: np.ndarray,
    slots: int,
):
    """Edges re-sorted rank-major (the ``k``-th edge of every window
    adjacent), so each step's operands are contiguous views.

    Returns ``(by_rank, row_keys, seg_keys, rank_starts)``: the
    permutation, the (window, vertex) slot keys in that order, and the
    step boundaries.  A stable sort on the rank keeps window order inside
    each step; int32 operands halve the gather bandwidth.
    """
    edge_count = int(local_rows.size)
    index_dtype = (
        np.int32
        if max(edge_count, slots) <= np.iinfo(np.int32).max
        else np.int64
    )
    ranks = (
        np.arange(edge_count, dtype=np.int64) - window_starts[window_ids]
    ).astype(index_dtype)
    by_rank = np.argsort(ranks, kind="stable")
    row_keys = (window_ids * length + local_rows)[by_rank].astype(index_dtype)
    seg_keys = (window_ids * length + colsegs)[by_rank].astype(index_dtype)
    rank_starts = np.searchsorted(
        ranks[by_rank], np.arange(int(ranks.max()) + 2)
    )
    return by_rank, row_keys, seg_keys, rank_starts


def _first_fit_flat_bitmask(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    window_starts: np.ndarray,
    slots: int,
) -> np.ndarray:
    """Rank-major lane over uint64 per-vertex color bitmasks (palette <= 64).

    Each vertex's occupied-color set is a single uint64, so a step is two
    gathers, a few bitwise ops and two scatters.  The first-fit bound
    guarantees the smallest free color of every edge fits in
    ``deg(row) + deg(colseg) - 1 <= 64`` bits, so the masks never
    overflow.  Each step stores its lowest free bits; one popcount at the
    end turns them into colors.
    """
    by_rank, row_keys, seg_keys, rank_starts = _rank_major(
        local_rows, colsegs, window_ids, length, window_starts, slots
    )
    one = np.uint64(1)
    row_used = np.zeros(slots, dtype=np.uint64)
    seg_used = np.zeros(slots, dtype=np.uint64)
    lsb_by_rank = np.empty(by_rank.size, dtype=np.uint64)
    for k in range(rank_starts.size - 1):
        lo, hi = rank_starts[k], rank_starts[k + 1]
        rows = row_keys[lo:hi]
        segs = seg_keys[lo:hi]
        row_bits = row_used[rows]
        seg_bits = seg_used[segs]
        used = row_bits | seg_bits
        # Lowest free bit: ~used & (used + 1), unsigned throughout.
        lsb = lsb_by_rank[lo:hi]
        np.add(used, one, out=lsb)
        np.bitwise_and(lsb, np.invert(used, out=used), out=lsb)
        # One edge per window per step, so rows/segs are duplicate-free
        # and the gathered masks can be written back directly.
        row_used[rows] = row_bits | lsb
        seg_used[segs] = seg_bits | lsb
    colors = np.empty(by_rank.size, dtype=np.int64)
    colors[by_rank] = np.bitwise_count(lsb_by_rank - one)
    return colors


def _first_fit_flat_tables(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    window_starts: np.ndarray,
    slots: int,
    palette: int,
) -> np.ndarray:
    """Rank-major lane over boolean (vertex, color) occupancy tables.

    The smallest color free at both endpoints is an ``argmax`` over the
    step's free rows; a palette of the lane's largest
    ``row_deg + seg_deg - 1`` always holds a free color.
    """
    by_rank, row_keys, seg_keys, rank_starts = _rank_major(
        local_rows, colsegs, window_ids, length, window_starts, slots
    )
    row_used = np.zeros((slots, palette), dtype=bool)
    seg_used = np.zeros((slots, palette), dtype=bool)
    chosen_by_rank = np.empty(by_rank.size, dtype=np.int64)
    for k in range(rank_starts.size - 1):
        lo, hi = rank_starts[k], rank_starts[k + 1]
        rows = row_keys[lo:hi]
        segs = seg_keys[lo:hi]
        free = row_used[rows]
        np.logical_or(free, seg_used[segs], out=free)
        np.logical_not(free, out=free)
        chosen = free.argmax(axis=1)
        row_used[rows, chosen] = True
        seg_used[segs, chosen] = True
        chosen_by_rank[lo:hi] = chosen
    colors = np.empty(by_rank.size, dtype=np.int64)
    colors[by_rank] = chosen_by_rank
    return colors


def _first_fit_scalar(
    row_keys: np.ndarray, seg_keys: np.ndarray, slots: int
) -> np.ndarray:
    """Scalar lane: one edge at a time over Python-int color bitmasks.

    Costs per edge instead of per step and has no palette bound, so it
    takes hub windows and windows too large for the rank-major tables.
    """
    row_used = [0] * slots
    seg_used = [0] * slots
    colors = []
    for i, j in zip(row_keys.tolist(), seg_keys.tolist()):
        used = row_used[i] | seg_used[j]
        free = ~used & (used + 1)
        row_used[i] |= free
        seg_used[j] |= free
        colors.append(free.bit_length() - 1)
    return np.array(colors, dtype=np.int64)


def _scalar_windows(
    sizes: np.ndarray, palettes: np.ndarray, length: int
) -> np.ndarray:
    """Mask of the windows the scalar lane colors.

    Taking the ``k`` largest windows costs their edges plus ``STEP_COST``
    per rank-major step, i.e. times the ``k+1``-th largest size; the
    cheapest ``k`` wins.  Then, while the rank-major tables would exceed
    the budget, the widest-palette window left moves over too.
    """
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    cost = np.concatenate(([0], np.cumsum(ranked))) + STEP_COST * np.append(
        ranked, 0
    )
    scalar = np.zeros(sizes.size, dtype=bool)
    scalar[order[: int(np.argmin(cost))]] = True

    rest = np.flatnonzero(~scalar & (sizes > 0))
    rest = rest[np.argsort(-palettes[rest], kind="stable")]
    widest = palettes[rest]
    slot_bytes = np.where(
        _HAS_BITWISE_COUNT & (widest <= 64), 16, 2 * widest
    )
    table_bytes = (rest.size - np.arange(rest.size)) * length * slot_bytes
    fits = np.flatnonzero(table_bytes <= _FIRST_FIT_TABLE_BUDGET)
    scalar[rest[: fits[0] if fits.size else rest.size]] = True
    return scalar


def _lane(mask: np.ndarray, window_ids: np.ndarray, window_starts: np.ndarray):
    """Edge ids, rebased window ids and window starts of the windows in
    ``mask``, as a self-contained flat partition."""
    edges = np.flatnonzero(mask[window_ids])
    rebased = (np.cumsum(mask) - 1)[window_ids[edges]]
    starts = np.concatenate(([0], np.cumsum(np.diff(window_starts)[mask])))
    return edges, rebased, starts


def first_fit_lanes(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    n_windows: int,
    window_starts: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """:func:`first_fit_coloring_flat` plus its lane split.

    Returns ``(colors, scalar_windows, rank_steps)``: the colors, the
    number of windows the scalar lane colored and the number of
    rank-major steps.
    """
    edge_count = int(local_rows.size)
    colors = np.full(edge_count, -1, dtype=np.int64)
    if edge_count == 0:
        return colors, 0, 0

    slots = n_windows * length
    row_deg = np.bincount(window_ids * length + local_rows, minlength=slots)
    seg_deg = np.bincount(window_ids * length + colsegs, minlength=slots)
    palettes = np.maximum(
        row_deg.reshape(n_windows, length).max(axis=1)
        + seg_deg.reshape(n_windows, length).max(axis=1)
        - 1,
        1,
    )
    sizes = np.diff(window_starts)
    scalar = _scalar_windows(sizes, palettes, length)
    rank = ~scalar & (sizes > 0)

    scalar_windows = int(scalar.sum())
    if scalar_windows:
        edges, rebased, _ = _lane(scalar, window_ids, window_starts)
        colors[edges] = _first_fit_scalar(
            rebased * length + local_rows[edges],
            rebased * length + colsegs[edges],
            scalar_windows * length,
        )
    rank_steps = int(sizes[rank].max()) if rank.any() else 0
    if rank_steps:
        edges, rebased, starts = _lane(rank, window_ids, window_starts)
        lane_slots = int(rank.sum()) * length
        palette = int(palettes[rank].max())
        args = (local_rows[edges], colsegs[edges], rebased, length, starts)
        if _HAS_BITWISE_COUNT and palette <= 64:
            colors[edges] = _first_fit_flat_bitmask(*args, lane_slots)
        else:
            colors[edges] = _first_fit_flat_tables(*args, lane_slots, palette)
    return colors, scalar_windows, rank_steps


def first_fit_coloring_flat(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    n_windows: int,
    window_starts: np.ndarray,
) -> np.ndarray:
    """First-fit coloring over the flat edge arrays of many windows.

    Args:
        local_rows: per-edge left vertex (row index within its window).
        colsegs: per-edge right vertex (multiplier lane).
        window_ids: per-edge owning window; edges must be grouped by
            window.  With rows ascending inside each window (the
            canonical COO order) the result is also Listing 1's coloring.
        length: accelerator length ``l``.
        n_windows: total window count.
        window_starts: int64 array of ``n_windows + 1`` offsets delimiting
            each window's contiguous edge slice.

    Each window takes its edges in storage order, each edge the smallest
    color free at both endpoints.  See the module docstring for the two
    lanes; :func:`first_fit_lanes` also reports the split.
    """
    return first_fit_lanes(
        local_rows, colsegs, window_ids, length, n_windows, window_starts
    )[0]


def _one_window(
    local_rows: np.ndarray, colsegs: np.ndarray, length: int
) -> np.ndarray:
    """First-fit colors of one window's edges in the given order."""
    return first_fit_coloring_flat(
        local_rows,
        colsegs,
        np.zeros(local_rows.size, dtype=np.int64),
        length,
        1,
        np.array([0, local_rows.size], dtype=np.int64),
    )


def greedy_matching_coloring(graph: WindowGraph) -> np.ndarray:
    """The paper's Listing 1: round-based greedy maximal matching.

    Round ``clr`` scans left vertices in index order; each vertex colors its
    first remaining edge whose column segment is not yet claimed this round,
    then stops (the ``break`` in Listing 1).  Rounds repeat until every edge
    is colored.  That is first-fit in row-major order (module docstring),
    so this runs the first-fit kernel on the edges stably sorted by row.
    """
    rows = np.asarray(graph.local_rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    colors = np.empty(graph.edge_count, dtype=np.int64)
    colors[order] = _one_window(
        rows[order],
        np.asarray(graph.colsegs, dtype=np.int64)[order],
        graph.length,
    )
    return colors


def first_fit_coloring(graph: WindowGraph) -> np.ndarray:
    """Per-edge first-fit: each edge takes the smallest color free at both
    endpoints, processed in storage (canonical row-major) order.

    Color count is bounded by deg(row) + deg(colseg) - 1 <= 2*Delta - 1 and
    is typically within a few percent of Delta.  Single-window wrapper over
    :func:`first_fit_coloring_flat`; zero-edge graphs return the documented
    ``-1``-filled (here: empty) array like every other algorithm.
    """
    return _one_window(
        np.asarray(graph.local_rows, dtype=np.int64),
        np.asarray(graph.colsegs, dtype=np.int64),
        graph.length,
    )


def euler_coloring_flat(
    local_rows: np.ndarray,
    colsegs: np.ndarray,
    window_ids: np.ndarray,
    length: int,
    n_windows: int,
) -> np.ndarray:
    """Euler/König optimal coloring over the flat edge arrays of many windows.

    König's theorem guarantees the chromatic index of a bipartite multigraph
    equals its maximum degree Delta.  We realize it constructively, for
    every window at once:

    1. Pad each window's graph with dummy edges until every vertex has
       degree exactly its window's Delta (always possible for a bipartite
       multigraph with equal side sizes).
    2. Peel off perfect matchings with Hopcroft-Karp, one per color, from
       the disjoint union of all still-active windows — a d-regular
       bipartite multigraph always contains one (Hall), and removing it
       leaves a (d-1)-regular multigraph.  Window ``w`` owns the shifted
       vertex ids ``[w * l, (w + 1) * l)``, so one
       :func:`~repro.graph.matching.hopcroft_karp_flat` pass peels color
       ``c`` for every window whose Delta exceeds ``c`` simultaneously.
    3. Report only the colors of real edges.

    This is the ablation counterpart to the paper's greedy scheduler: it
    attains the Eq. (1) lower bound at higher preprocessing cost.

    Windows are independent components of the union graph, so the joint
    matching equals the per-window ones, and the result reproduces the
    frozen per-edge-list seed
    (:func:`repro.graph._reference.reference_euler_coloring`)
    *edge-for-edge* on every window: the padded edge ids are laid out
    [window reals in storage order, then window dummies in pairing order]
    exactly like the seed's, adjacency is scanned in ascending edge-id
    order, and matched-edge removal takes the highest-id survivor of each
    pair (the seed's ``edge_for_pair[pair].pop()``).
    """
    edge_count = int(local_rows.size)
    edge_colors = np.full(edge_count, -1, dtype=np.int64)
    if edge_count == 0:
        return edge_colors

    n_slots = n_windows * length
    left_key = window_ids * length + local_rows
    right_key = window_ids * length + colsegs
    left_deg = np.bincount(left_key, minlength=n_slots)
    right_deg = np.bincount(right_key, minlength=n_slots)
    delta_w = np.maximum(
        left_deg.reshape(n_windows, length).max(axis=1),
        right_deg.reshape(n_windows, length).max(axis=1),
    ).astype(np.int64)

    # Relabel windows in descending-Delta order before building the padded
    # layout.  Windows are independent components, so relabeling permutes
    # per-window subproblems without changing any of their traversals or
    # results — but it makes every color's still-active windows
    # (``Delta > color``) a *prefix* of the slot space: per-color matching,
    # distance, and scratch structures then size to the live prefix
    # instead of the full slot count, and active-slot gathers become
    # slices.
    worder = np.argsort(-delta_w, kind="stable")
    delta_sorted = delta_w[worder]
    wrank = np.empty(n_windows, dtype=np.int64)
    wrank[worder] = np.arange(n_windows, dtype=np.int64)
    left_deg = left_deg.reshape(n_windows, length)[worder].ravel()
    right_deg = right_deg.reshape(n_windows, length)[worder].ravel()
    new_windows = wrank[window_ids]

    # Regularization, vectorized across windows: the seed's two-pointer
    # deficit walk pairs the k-th unit of left deficit (in ascending vertex
    # order) with the k-th unit of right deficit.  Expanding each side's
    # deficits with ``np.repeat`` produces the same pairing per window
    # because both sides' deficit totals agree within every window, so the
    # running sums line up at each window boundary.
    delta_slot = np.repeat(delta_sorted, length)
    slot_range = np.arange(n_slots, dtype=np.int64)
    dummy_lefts = np.repeat(slot_range, delta_slot - left_deg)
    dummy_rights = np.repeat(slot_range, delta_slot - right_deg)
    if dummy_lefts.size != dummy_rights.size or not np.array_equal(
        dummy_lefts // length, dummy_rights // length
    ):
        raise ColoringError("regularization failed; unbalanced bipartite sides")

    # Every padded-edge position and shifted pair key is bounded by
    # ``n_slots * length``; when that fits 32 bits (any realistic problem
    # size) the per-color compactions, gathers, and searchsorted passes run
    # on half-width elements — they are memory-bound, so the narrowing is
    # a near-2x cut on their cost.
    keydt = np.int32 if n_slots * length <= np.iinfo(np.int32).max else np.int64

    # Padded edge layout: reals first, dummies second, then a stable sort
    # by window interleaves them into the seed's per-window id order
    # [reals..., dummies...] while keeping storage order inside each part.
    # Narrow sort keys let NumPy's stable sort take its radix path.
    pad_windows = np.concatenate([new_windows, dummy_lefts // length])
    if n_windows <= np.iinfo(np.int16).max:
        pad_windows = pad_windows.astype(np.int16)
    order = np.argsort(pad_windows, kind="stable")
    lefts = np.concatenate([new_windows * length + local_rows, dummy_lefts])[
        order
    ].astype(keydt)
    rights = np.concatenate([colsegs, dummy_rights % length])[order].astype(
        keydt
    )
    real_ids = np.concatenate(
        [
            np.arange(edge_count, dtype=np.int64),
            np.full(dummy_lefts.size, -1, dtype=np.int64),
        ]
    )[order].astype(keydt)
    right_global = (lefts // length) * length + rights

    # Both traversal orders are fixed once up front; compacting a sorted
    # array by a boolean mask preserves its order, so the per-color passes
    # never re-sort.  ``by_left`` yields CSR adjacency in ascending edge-id
    # order per left vertex (the order the seed's append loop produced,
    # which Hopcroft-Karp's traversal is sensitive to); ``by_key`` puts
    # equal (left, right) pairs in ascending edge-id order, so the
    # rightmost survivor of a matched key is the seed's popped edge.
    by_left = np.argsort(lefts, kind="stable").astype(keydt)
    pair_keys = lefts * length + rights
    by_key = np.argsort(pair_keys, kind="stable").astype(keydt)
    keys_sorted = pair_keys[by_key]

    # Duplicate (left, right) copies never influence the matching search:
    # in the reference DFS a repeated neighbour either already returned or
    # descended at its first occurrence, or is skipped both times (``dist``
    # only ever falls to the -1 sentinel), and the greedy scan stops at the
    # first free right, which dedup keeps.  Removal always deletes the
    # *highest*-id copy of a matched pair, so the lowest-id copy (``rep0``)
    # stays alive exactly while the pair's multiplicity is >= 1 — handing
    # Hopcroft-Karp one entry per surviving distinct pair changes no
    # traversal outcome.  Dummy edges are massively duplicated, so the
    # deduped CSR is a fraction of the padded edge count.
    rep0 = np.zeros(lefts.size, dtype=bool)
    first_in_key = np.empty(lefts.size, dtype=bool)
    first_in_key[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=first_in_key[1:])
    rep0[by_key[first_in_key]] = True

    # Row-lockstep layout for the matching's first phase.  Hopcroft-Karp's
    # first phase over an empty matching cannot descend (every matched
    # right's owner is a distance-0 free root), so it degenerates to "each
    # left vertex, in ascending order, takes its first free right in
    # adjacency order".  Windows are independent, so that scan can run one
    # local row of *every* window per vectorized step — the first open edge
    # of each group marks the winner — and be handed to :func:`hopcroft_karp_flat` as the seed matching.
    # The seeded run is then identical to the unseeded one from its second
    # phase onward, with the first BFS+scan eliminated.
    rows_local = lefts % length
    by_row = np.argsort(
        rows_local.astype(np.int16)
        if length <= np.iinfo(np.int16).max
        else rows_local,
        kind="stable",
    ).astype(keydt)
    row_range = np.arange(length + 1, dtype=rows_local.dtype)

    # Live views of the multigraph, one per traversal order, physically
    # compacted as edges die (edges only ever die, and dropping rows from a
    # sorted array preserves its order, so no per-color re-sort or
    # full-size boolean gather is ever needed):
    #   * CSR / by-left order, deduped — feeds Hopcroft-Karp;
    #   * row-major order, deduped — feeds the greedy seed phase;
    #   * by-key order, every copy — resolves matched pairs to edge ids.
    rep_l = rep0[by_left]
    bl_id = by_left[rep_l]
    bl_left = lefts[bl_id]
    bl_right = right_global[bl_id]
    rep_r = rep0[by_row]
    br_id = by_row[rep_r]
    g_left = lefts[br_id]
    g_right = right_global[br_id]
    g_rows = rows_local[br_id]
    bk_id = by_key
    bk_keys = keys_sorted
    pair_dead = np.zeros(lefts.size, dtype=bool)

    csr_range = np.arange(n_slots + 1, dtype=keydt)
    for color in range(int(delta_sorted[0])):
        # Descending-Delta relabeling makes the active windows a prefix.
        n_act = int(np.searchsorted(-delta_sorted, -color, side="left")) * length
        if color:
            # Drop last color's consumed edges from each view.  A deduped
            # entry dies only when its chosen copy *was* the rep0 copy,
            # i.e. the pair's multiplicity just hit zero.
            died_pairs = chosen[rep0[chosen]]
            if died_pairs.size:
                pair_dead[died_pairs] = True
                keep = ~pair_dead[bl_id]
                bl_id = bl_id[keep]
                bl_left = bl_left[keep]
                bl_right = bl_right[keep]
                keep = ~pair_dead[br_id]
                br_id = br_id[keep]
                g_left = g_left[keep]
                g_right = g_right[keep]
                g_rows = g_rows[keep]
            keep = np.ones(bk_id.size, dtype=bool)
            keep[pos] = False
            bk_id = bk_id[keep]
            bk_keys = bk_keys[keep]

        indptr = np.searchsorted(bl_left, csr_range[: n_act + 1]).astype(keydt)

        # Vectorized first phase: claim one free right per left per row
        # step.  Candidate edges within a row group are window-grouped in
        # ascending edge-id order, so the group-boundary trick picks each
        # left vertex's first open edge in its adjacency-scan order.
        row_bounds = np.searchsorted(g_rows, row_range)
        ml0 = np.full(n_act, -1, dtype=keydt)
        mr0 = np.full(n_act, -1, dtype=keydt)
        matched0 = 0
        for i in range(length):
            lo, hi = row_bounds[i], row_bounds[i + 1]
            if lo == hi:
                continue
            seg_view = g_right[lo:hi]
            open_mask = mr0[seg_view] == -1
            cand_r = seg_view[open_mask]
            if cand_r.size == 0:
                continue
            cand_l = g_left[lo:hi][open_mask]
            first = np.empty(cand_l.size, dtype=bool)
            first[0] = True
            np.not_equal(cand_l[1:], cand_l[:-1], out=first[1:])
            w_l = cand_l[first]
            w_r = cand_r[first]
            ml0[w_l] = w_r
            mr0[w_r] = w_l
            matched0 += w_l.size

        if matched0 == n_act:
            # The greedy seed is already perfect, hence maximum: the seeded
            # run's first BFS would find no augmenting layer and return the
            # seed untouched.
            match_left = ml0
        else:
            match_left, _, _ = hopcroft_karp_flat(
                indptr,
                bl_right,
                n_act,
                n_act,
                seed_left=ml0,
                seed_right=mr0,
                seed_size=matched0,
            )

        # Windows whose Delta exceeds the current color must each hold a
        # perfect matching; exhausted windows have no surviving edges and
        # sit outside the active prefix.
        matched = match_left
        if (matched < 0).any():
            raise ColoringError(
                f"regular multigraph lacked a perfect matching at color {color}"
            )

        # Delete one surviving edge per matched (left, right) pair — the
        # highest-id one.
        matched_keys = np.asarray(
            slot_range[:n_act] * length + matched % length, dtype=keydt
        )
        pos = np.searchsorted(bk_keys, matched_keys, side="right") - 1
        if pos.size and (
            (pos < 0).any() or not np.array_equal(bk_keys[pos], matched_keys)
        ):
            raise ColoringError(
                f"matching produced an edge absent from the multigraph "
                f"at color {color}"
            )
        chosen = bk_id[pos]
        chosen_real = real_ids[chosen]
        edge_colors[chosen_real[chosen_real >= 0]] = color

    if (edge_colors < 0).any():
        raise ColoringError("euler coloring left edges uncolored")
    return edge_colors


def euler_coloring(graph: WindowGraph) -> np.ndarray:
    """Optimal bipartite edge coloring with exactly Delta colors.

    Single-window wrapper over :func:`euler_coloring_flat` (see there for
    the construction); kept as the per-graph entry point the
    :data:`ALGORITHMS` registry and :func:`color_edges` dispatch to.
    """
    return euler_coloring_flat(
        np.asarray(graph.local_rows, dtype=np.int64),
        np.asarray(graph.colsegs, dtype=np.int64),
        np.zeros(graph.edge_count, dtype=np.int64),
        graph.length,
        1,
    )


#: Registry used by the scheduler's ``algorithm=`` parameter.
ALGORITHMS = {
    "matching": greedy_matching_coloring,
    "first_fit": first_fit_coloring,
    "euler": euler_coloring,
}


def color_edges(graph: WindowGraph, algorithm: str = "matching") -> np.ndarray:
    """Dispatch to a registered coloring algorithm by name.

    Enforces the library-wide contract: the result is one int64 color per
    edge and a *complete* coloring — ``-1`` ("uncolored") never escapes.
    """
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ColoringError(
            f"unknown coloring algorithm {algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        ) from None
    colors = fn(graph)
    if colors.shape != (graph.edge_count,):
        raise ColoringError(
            f"{algorithm} returned {colors.shape[0] if colors.ndim else 0} "
            f"colors for {graph.edge_count} edges"
        )
    if graph.edge_count and int(colors.min()) < 0:
        raise ColoringError(f"{algorithm} left edges uncolored (-1)")
    return colors
