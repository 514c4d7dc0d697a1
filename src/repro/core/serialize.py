"""Schedule persistence: save and reload preprocessing results.

The paper's economics rest on preprocessing being a one-time cost per
matrix (Table 4 spends seconds scheduling, then sub-millisecond SpMVs).  A
deployment therefore wants schedules on disk.  This module serializes a
(:class:`Schedule`, :class:`BalancedMatrix`) pair — plus the scheduler's
stall metadata and the cache's value-refresh join — into a single artifact
so a solver can restart without rescheduling, and so the content-addressed
:class:`~repro.core.store.DiskScheduleStore` can share one artifact across
a fleet of worker processes.

Container format (version 3)
----------------------------

A warm start must be an order of magnitude cheaper than cold scheduling,
so the container is built for load speed rather than generality:

* a 24-byte prologue: magic, **format version**, header length, and a
  CRC-32 **integrity checksum** covering every byte after the prologue —
  one pass over the file detects any flipped bit or truncation before a
  single array is trusted;
* a JSON header describing each array (dtype, shape, byte offset) plus the
  scalar metadata (length, shape, stall count);
* the payload: raw little-endian array bytes at 64-byte-aligned offsets,
  materialized on load as zero-copy ``np.frombuffer`` views of one read.

The payload stores the schedule in its *compact* form — the occupied-slot
coordinates ``(steps, lanes)`` and each slot's source index into the
balanced value stream — rather than the dense ``M_sch/Row_sch/Col_sch``
triple, which is mostly empty slots.  The dense arrays are rebuilt with
three O(nnz) scatters — *lazily*, on first access (plan-based replay
never needs them); integer arrays are narrowed to the smallest sufficient
dtype on write.  These choices shrink the artifact (and the checksum
pass) by more than half and keep the warm-start path allocation-light.

Version 3 additionally persists the slot arrays **pre-sorted by
destination row** — the layout of the :class:`~repro.core.plan.
ExecutionPlan` replay engine.  The dense-rebuild scatters are
order-independent, so the sorted layout costs the reader nothing, and a
disk warm start reconstitutes a replay-ready plan from the very gathers
the rebuild already performs: no sort, no extra payload member.
Version-2 artifacts (slot arrays in occupied-slot scan order) still load
through every explicit-path API (:func:`load_schedule`, the CLI's
``spmv``/``inspect``); the plan order is simply recompiled (one
``argsort``) on the way in, so user-kept artifacts keep working at a
small one-time cost.  The content-addressed store deliberately does
*not* reach v2 artifacts: its keys embed the format version so
generations stay isolated — in a mixed fleet, a v2-era reader would
otherwise look up a v3 artifact, fail its version check, and quarantine
a file the upgraded workers still want.  Old store entries miss once,
reschedule, and age out of the byte budget.

Writes are atomic: the container is written to a same-directory temporary
file, flushed and fsynced, then ``os.replace``-d into place.  A reader can
never observe a half-written schedule, and two processes racing to persist
the same schedule both succeed, leaving exactly one valid artifact.

Any malformed input — truncated file, non-artifact bytes, version or
checksum mismatch, out-of-range indices, or a payload that fails
:meth:`Schedule.validate` — raises :class:`~repro.errors.ScheduleError`
with a descriptive message.  Corruption never escapes as a wrong answer.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.load_balance import BalancedMatrix
from repro.core.plan import ExecutionPlan
from repro.core.schedule import EMPTY, CompactSchedule, Schedule
from repro.core.scheduler import slot_value_sources
from repro.errors import ScheduleError
from repro.sparse.coo import CooMatrix

#: First 8 bytes of every artifact.
_MAGIC = b"GUSTSCH\x00"

#: On-disk format version.  Version 1 (an ``.npz`` of dense schedule
#: arrays) is no longer produced or read; bump this whenever the layout or
#: the meaning of any member changes.
_FORMAT_VERSION = 3

#: Versions :func:`load_schedule_entry` accepts.  Version 2 lacks the
#: persisted execution-plan sort; its plan is recompiled on load.
_COMPAT_VERSIONS = (2, 3)

#: Prologue layout: magic, u32 version, u32 header length, u32 CRC-32 of
#: everything after the prologue, u32 reserved.
_PROLOGUE_BYTES = 24

#: Payload arrays are placed at multiples of this within the payload.
_ALIGN = 64

#: Arrays every artifact carries.  ``slot_rows`` is each occupied slot's
#: window-local destination row, precomputed so the dense ``Row_sch``
#: rebuild is a bare scatter (no gather-and-mod pass).
_REQUIRED = (
    "matrix_rows",
    "matrix_cols",
    "matrix_data",
    "row_perm",
    "map_cols",
    "map_lanes",
    "map_offsets",
    "window_colors",
    "slot_steps",
    "slot_lanes",
    "slot_rows",
    "slot_source",
)

#: Optional acceleration arrays (present when written via the cache tier):
#: the balanced->original value permutation (and, accepted for
#: flexibility, its original->balanced inverse).
_OPTIONAL = ("inv_order", "data_order")


@dataclass(frozen=True)
class StoredSchedule:
    """Everything :func:`load_schedule_entry` recovers from one artifact.

    ``slot_steps``/``slot_lanes``/``slot_source`` are the occupied-slot
    coordinates and their balanced-data source indices — the same join
    :func:`~repro.core.scheduler.slot_value_sources` computes, persisted so
    a warm start skips it.  From format version 3 they arrive sorted by
    destination row (the execution plan's layout); every consumer is a
    scatter or an elementwise join, so the ordering is free to choose.
    ``data_order`` (original-order data -> balanced order permutation) and
    ``inv_order`` (its inverse) are present when the artifact was written
    through a :class:`~repro.core.cache.ScheduleCache`, letting the cache
    reconstruct its refresh entry without re-sorting.
    """

    schedule: Schedule
    balanced: BalancedMatrix
    #: naive-policy stall count captured at scheduling time (0 for the
    #: coloring-based policies).
    stalls: int
    slot_steps: np.ndarray
    slot_lanes: np.ndarray
    slot_source: np.ndarray
    data_order: np.ndarray | None
    inv_order: np.ndarray | None
    #: replay-ready execution plan: reconstituted without a sort from a
    #: version-3 artifact's persisted ``plan_order``, recompiled (one
    #: ``argsort``) for version-2 artifacts.
    plan: ExecutionPlan | None = None


def _compact_ints(arr: np.ndarray) -> np.ndarray:
    """Narrow an integer array to the smallest sufficient signed dtype."""
    arr = np.ascontiguousarray(arr)
    if arr.size == 0:
        return arr.astype(np.int16)
    lo, hi = int(arr.min()), int(arr.max())
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return arr.astype(dtype)
    return arr.astype(np.int64)


def _save_container(
    path: str | Path, scalars: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Assemble and atomically write one artifact.

    Exposed (privately) so tests can author artifacts with arbitrary
    contents; production callers go through :func:`save_schedule`.
    """
    manifest: dict[str, dict] = {}
    offset = 0
    buffers: list[bytes] = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        pad = (-offset) % _ALIGN
        if pad:
            buffers.append(b"\x00" * pad)
            offset += pad
        raw = arr.tobytes()
        manifest[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        }
        buffers.append(raw)
        offset += len(raw)
    header = json.dumps({"scalars": scalars, "arrays": manifest}).encode()

    crc = zlib.crc32(header)
    for buf in buffers:
        crc = zlib.crc32(buf, crc)
    prologue = (
        _MAGIC
        + np.array(
            [_FORMAT_VERSION, len(header), crc, 0], dtype="<u4"
        ).tobytes()
    )

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename: the temporary lives in the destination directory
    # so os.replace is an atomic same-filesystem rename.
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(prologue)
            handle.write(header)
            for buf in buffers:
                handle.write(buf)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _load_container(
    path: str | Path,
) -> tuple[dict, dict[str, np.ndarray], int]:
    """Read, checksum-verify, and view one artifact's (scalars, arrays,
    format version).

    Returned arrays are read-only ``frombuffer`` views over the single
    file read; callers copy only what they intend to mutate.
    """
    path = Path(path)
    data = path.read_bytes()  # FileNotFoundError propagates untouched
    if len(data) < _PROLOGUE_BYTES or data[:8] != _MAGIC:
        raise ScheduleError(f"{path} is not a schedule artifact")
    version, header_len, stored_crc, _ = np.frombuffer(
        data, dtype="<u4", count=4, offset=8
    )
    if int(version) not in _COMPAT_VERSIONS:
        raise ScheduleError(
            f"schedule file version {int(version)} unsupported "
            f"(expected one of {_COMPAT_VERSIONS})"
        )
    if zlib.crc32(memoryview(data)[_PROLOGUE_BYTES:]) != int(stored_crc):
        raise ScheduleError(
            f"schedule file {path} failed its integrity checksum; "
            "the artifact is corrupt or truncated"
        )
    try:
        header = json.loads(
            data[_PROLOGUE_BYTES : _PROLOGUE_BYTES + int(header_len)]
        )
        scalars = header["scalars"]
        payload_start = _PROLOGUE_BYTES + int(header_len)
        arrays: dict[str, np.ndarray] = {}
        for name, spec in header["arrays"].items():
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            arrays[name] = np.frombuffer(
                data,
                dtype=dtype,
                count=count,
                offset=payload_start + int(spec["offset"]),
            ).reshape(shape)
    except (KeyError, ValueError, TypeError) as err:
        raise ScheduleError(
            f"schedule file {path} has a malformed header: {err}"
        ) from err
    return scalars, arrays, int(version)


def _check_range(name: str, arr: np.ndarray, lo: int, hi: int) -> None:
    """Bounds-check an index array before it drives any fancy indexing."""
    if arr.size and (int(arr.min()) < lo or int(arr.max()) >= hi):
        raise ScheduleError(
            f"schedule artifact member {name!r} holds out-of-range indices"
        )


def save_schedule(
    path: str | Path,
    schedule: Schedule,
    balanced: BalancedMatrix,
    *,
    stalls: int = 0,
    slots: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    data_order: np.ndarray | None = None,
    plan_order: np.ndarray | None = None,
) -> None:
    """Atomically write a schedule and its balancing metadata to ``path``.

    Args:
        path: destination artifact file.
        schedule / balanced: the preprocessing result to persist.
        stalls: naive-policy stall count to carry alongside the schedule.
        slots: precomputed ``(steps, lanes, source)`` occupied-slot join
            (as from :func:`~repro.core.scheduler.slot_value_sources`);
            when omitted, a compact schedule's own
            :meth:`~repro.core.schedule.CompactSchedule.slots`, else
            joined here.
        data_order: optional original-order -> balanced-order value
            permutation, persisted so the cache tier can warm-start
            without re-sorting.
        plan_order: the execution plan's stable destination-row sort over
            the slot arrays (as from :attr:`~repro.core.plan.
            ExecutionPlan.slot_order`); computed here when omitted.  The
            slot arrays are persisted *pre-sorted* by this order — the
            rebuild scatters on load are order-independent, so a version-3
            artifact yields a replay-ready plan from the very gathers the
            dense rebuild already performs, with no sort and no extra
            payload member.
    """
    if slots is None and isinstance(schedule, CompactSchedule):
        slots = schedule.slots()
    if slots is None:
        slots = slot_value_sources(schedule, balanced.matrix)
    steps, lanes, source = slots
    source = np.asarray(source, dtype=np.intp)
    if plan_order is None:
        # The slots' global destination rows are the balanced matrix rows
        # they source from; their stable sort is the plan order.
        plan_order = np.argsort(balanced.matrix.rows[source], kind="stable")
    plan_order = np.asarray(plan_order, dtype=np.intp)
    steps = np.asarray(steps)[plan_order]
    lanes = np.asarray(lanes)[plan_order]
    source = source[plan_order]

    map_cols_parts = [cols for cols, _ in balanced.window_col_maps]
    map_lanes_parts = [lanes_part for _, lanes_part in balanced.window_col_maps]
    sizes = np.array([c.size for c in map_cols_parts], dtype=np.int64)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    empty = np.zeros(0, dtype=np.int64)

    m, n = schedule.shape
    scalars = {
        "length": int(schedule.length),
        "shape": [int(m), int(n)],
        "stalls": int(stalls),
    }
    arrays: dict[str, np.ndarray] = {
        "matrix_rows": _compact_ints(balanced.matrix.rows),
        "matrix_cols": _compact_ints(balanced.matrix.cols),
        "matrix_data": np.asarray(balanced.matrix.data, dtype=np.float64),
        "row_perm": _compact_ints(balanced.row_perm),
        "map_cols": _compact_ints(
            np.concatenate(map_cols_parts) if map_cols_parts else empty
        ),
        "map_lanes": _compact_ints(
            np.concatenate(map_lanes_parts) if map_lanes_parts else empty
        ),
        "map_offsets": _compact_ints(offsets),
        "window_colors": _compact_ints(
            np.asarray(schedule.window_colors, dtype=np.int64)
        ),
        "slot_steps": _compact_ints(steps),
        "slot_lanes": _compact_ints(lanes),
        "slot_rows": _compact_ints(
            balanced.matrix.rows[source] % schedule.length
        ),
        "slot_source": _compact_ints(source),
    }
    if data_order is not None:
        # Persist only the inverse (balanced -> original): a warm start
        # needs exactly one gather through it, and the forward permutation
        # is rebuilt lazily on the first value refresh.
        inv_order = np.empty(data_order.size, dtype=np.int64)
        inv_order[data_order] = np.arange(data_order.size, dtype=np.int64)
        arrays["inv_order"] = _compact_ints(inv_order)
    _save_container(path, scalars, arrays)


def load_schedule_entry(
    path: str | Path, validate: bool = True
) -> StoredSchedule:
    """Read back an artifact written by :func:`save_schedule`.

    Verification order: magic/format version, then the CRC-32 integrity
    checksum over every byte of header and payload, then index bounds
    checks, then (with ``validate=True``) canonical-order and structural
    :meth:`Schedule.validate` checks.  A file failing any step raises
    :class:`ScheduleError`; a missing file raises
    :class:`FileNotFoundError` untouched so callers can distinguish "never
    persisted" from "persisted but corrupt".

    ``validate=False`` skips the two O(nnz log nnz) logical checks and is
    meant for the disk store's hot warm-start path: an artifact that
    passes its checksum is byte-identical to what :func:`save_schedule`
    wrote, so the residual risk is a writer bug, not disk corruption.
    """
    scalars, arrays, version = _load_container(path)
    missing = [name for name in _REQUIRED if name not in arrays]
    if missing:
        raise ScheduleError(
            f"schedule file {path} is missing members: {', '.join(missing)}"
        )
    try:
        length = int(scalars["length"])
        m, n = (int(v) for v in scalars["shape"])
        stalls = int(scalars["stalls"])
    except (KeyError, TypeError, ValueError) as err:
        raise ScheduleError(
            f"schedule file {path} has malformed scalar metadata: {err}"
        ) from err
    if length <= 0 or m < 0 or n < 0:
        raise ScheduleError(f"schedule file {path} has impossible dimensions")

    window_colors = arrays["window_colors"].astype(np.int64)
    if window_colors.size and int(window_colors.min()) < 0:
        raise ScheduleError("negative window color count in artifact")
    total = int(window_colors.sum())
    nnz = int(arrays["matrix_data"].size)

    # Under validate=True the int64 canonical dtype contract is restored;
    # the checksum-trusted fast path keeps the narrow on-disk dtypes (all
    # downstream arithmetic promotes against np.int64 scalars).
    rows = arrays["matrix_rows"]
    cols = arrays["matrix_cols"]
    if validate:
        rows = rows.astype(np.int64)
        cols = cols.astype(np.int64)
    data = arrays["matrix_data"]
    if rows.size != nnz or cols.size != nnz:
        raise ScheduleError("matrix index/value arrays disagree on nnz")

    steps = arrays["slot_steps"]
    lanes = arrays["slot_lanes"]
    slot_rows = arrays["slot_rows"]
    source = arrays["slot_source"]
    if not (steps.size == lanes.size == source.size == nnz):
        raise ScheduleError("slot arrays disagree with the matrix nnz")
    if slot_rows.size != nnz:
        raise ScheduleError("slot row array disagrees with the matrix nnz")
    if nnz > total * length:
        # Pigeonhole: more scheduled nonzeros than schedule slots.  Also
        # closes the total == 0 corner the per-element bounds below would
        # admit (max(total, 1) keeps an empty range checkable).
        raise ScheduleError(
            f"schedule file {path} holds {nnz} nonzeros in "
            f"{total}x{length} slots"
        )
    # Bounds always precede any fancy indexing (even on the checksum-
    # trusted fast path): the checksum proves these are the writer's
    # bytes, but a *writer bug* could still persist out-of-range indices,
    # and the store's quarantine contract requires that to surface as a
    # clean ScheduleError at load time — not a bare IndexError escaping
    # the lookup, or a deferred failure from the lazy dense rebuild after
    # the entry has already been served.  Each check is one O(nnz)
    # min/max pass over a narrow array.
    _check_range("matrix_rows", rows, 0, max(m, 1))
    _check_range("matrix_cols", cols, 0, max(n, 1))
    _check_range("slot_steps", steps, 0, max(total, 1))
    _check_range("slot_lanes", lanes, 0, length)
    _check_range("slot_rows", slot_rows, 0, length)
    _check_range("slot_source", source, 0, max(nnz, 1))
    if validate:
        expected_rows = rows[source.astype(np.intp)] % length
        if not np.array_equal(slot_rows, expected_rows.astype(slot_rows.dtype)):
            raise ScheduleError(
                "slot_rows disagree with the matrix rows they index"
            )

    # The dense Section 3.3 triple is *deferred*: the compact slot form
    # is everything the plan-based replay needs, so the (C_total, l)
    # arrays — mostly empty slots — rebuild lazily on first access
    # (three O(nnz) scatters at that point; see :class:`CompactSchedule`).
    # The gathers below are shared with the execution-plan rebuild.
    slot_source = source.astype(np.intp)
    slot_values = data[slot_source] if nnz else data[:0]
    slot_cols = cols[slot_source] if nnz else cols[:0]
    flat = (
        steps.astype(np.intp) * length + lanes
        if nnz
        else np.zeros(0, dtype=np.intp)
    )
    schedule = CompactSchedule(
        length=length,
        shape=(m, n),
        window_colors=tuple(window_colors.tolist()),
        total=total,
        flat=flat,
        slot_rows=slot_rows,
        slot_cols=slot_cols,
        values=slot_values,
    )

    row_perm = arrays["row_perm"]
    if row_perm.size != m:
        raise ScheduleError("row permutation length does not match matrix")
    # row_perm drives the replay-side gather, so its bounds are enforced
    # on every path too.
    _check_range("row_perm", row_perm, 0, max(m, 1))
    if validate:
        row_perm = row_perm.astype(np.int64)
    matrix = CooMatrix(rows=rows, cols=cols, data=data, shape=(m, n))

    offsets = arrays["map_offsets"].astype(np.int64)
    map_cols = arrays["map_cols"].astype(np.int64)
    map_lanes = arrays["map_lanes"].astype(np.int64)
    if (
        offsets.size != window_colors.size + 1
        or offsets.size == 0
        or int(offsets[-1]) != map_cols.size
        or map_lanes.size != map_cols.size
        or (offsets.size > 1 and (np.diff(offsets) < 0).any())
    ):
        raise ScheduleError(
            f"schedule file {path} has inconsistent window map offsets"
        )
    bounds = offsets.tolist()
    maps = [
        (map_cols[lo:hi], map_lanes[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    balanced = BalancedMatrix(matrix=matrix, row_perm=row_perm, window_col_maps=maps)

    data_order = arrays.get("data_order")
    inv_order = arrays.get("inv_order")
    if data_order is not None:
        if data_order.size != nnz:
            raise ScheduleError("data_order length does not match nnz")
        _check_range("data_order", data_order, 0, max(nnz, 1))
    if inv_order is not None:
        # inv_order feeds the cache tier's warm-start gather after this
        # function returns, so it is bounds-checked on every path.
        if inv_order.size != nnz:
            raise ScheduleError("inv_order length does not match nnz")
        _check_range("inv_order", inv_order, 0, max(nnz, 1))

    # Reconstitute the replay-ready execution plan.  A version-3 artifact
    # persists its slot arrays already in destination-row order, so the
    # plan is assembled from the gathers the dense rebuild just performed
    # — no sort, no extra gathers beyond the per-slot row lookup.  A
    # version-2 artifact (scan-ordered slots) recompiles the sort.
    plan_rows = rows[slot_source] if nnz else rows[:0]
    if version >= 3:
        plan = ExecutionPlan.from_sorted(
            length=length,
            shape=(m, n),
            values=slot_values,
            sources=slot_cols,
            rows=plan_rows,
            slot_order=None,
            row_perm=row_perm,
            value_source=slot_source,
        )
    else:
        plan_order = np.argsort(plan_rows, kind="stable").astype(np.intp)
        source_sorted = slot_source[plan_order]
        plan = ExecutionPlan.from_sorted(
            length=length,
            shape=(m, n),
            values=data[source_sorted],
            sources=cols[source_sorted],
            rows=plan_rows[plan_order],
            slot_order=plan_order,
            row_perm=row_perm,
            value_source=source_sorted,
        )

    if validate:
        # Canonical order underpins every searchsorted join downstream.
        keys = rows * np.int64(max(n, 1)) + cols
        if keys.size > 1 and not (np.diff(keys) > 0).all():
            raise ScheduleError(
                f"schedule file {path} holds a non-canonical matrix"
            )
        if data_order is not None and data_order.size:
            counts = np.bincount(data_order, minlength=nnz)
            if counts.max() != 1:
                raise ScheduleError("data_order is not a permutation")
        # Count occupancy from the (materialized) dense arrays, not the
        # compact slot count: duplicate (step, lane) coordinates merge in
        # the scatter and must be caught here.
        if int((schedule.row_sch != EMPTY).sum()) != nnz:
            raise ScheduleError(
                "slot coordinates collide; fewer occupied slots than nonzeros"
            )
        schedule.validate()
        # Schedule-level diagnostics first (collisions, ranges), then the
        # plan's own structural checks (sortedness, segment boundaries).
        plan.validate()

    return StoredSchedule(
        schedule=schedule,
        balanced=balanced,
        stalls=stalls,
        slot_steps=steps,
        slot_lanes=lanes,
        slot_source=source,
        data_order=data_order,
        inv_order=inv_order,
        plan=plan,
    )


def load_schedule(path: str | Path) -> tuple[Schedule, BalancedMatrix]:
    """Read back a (schedule, balanced) pair written by :func:`save_schedule`.

    The artifact is checksum-verified and re-validated on load, so a
    corrupted or tampered file fails loudly instead of producing silent
    collisions.  See :func:`load_schedule_entry` for the stall and join
    metadata.
    """
    entry = load_schedule_entry(path)
    return entry.schedule, entry.balanced
