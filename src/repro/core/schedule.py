"""The scheduled-matrix storage format: M_sch, Row_sch, Col_sch.

Section 3.3: scheduling produces three l-by-C_total matrices.  ``M_sch``
holds matrix values rearranged and compressed; ``Row_sch`` holds each
element's row mod l (the crossbar destination); ``Col_sch`` holds its
original column (the vector element to multiply with).  "These matrices can
be viewed as a compressed storage format similar to the Coordinate format."

We store them timestep-major — arrays of shape (C_total, l) — so timestep
``t`` is the contiguous slice fed to the multipliers at cycle ``t``.  Empty
slots carry ``row == -1`` / ``col == -1`` / value 0.

:class:`CompactSchedule` holds the occupied slots only and builds the
dense triple on first read.  It is the one form every producer hands out:
the scheduler (straight from the per-edge colors), disk loads and cache
value refreshes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import ScheduleError

#: Sentinel for unoccupied schedule slots.
EMPTY = -1

#: Pipeline depth: multiplier, crossbar, adder (Section 3.4: "GUST has 3
#: levels", adding 2 cycles of fill to the color count).
PIPELINE_FILL_CYCLES = 2


@dataclass(frozen=True)
class Schedule:
    """A complete collision-free GUST schedule for one matrix.

    Attributes:
        length: accelerator length ``l``.
        shape: original matrix shape (m, n) *after* any load-balancing row
            permutation (the pipeline tracks the permutation itself).
        m_sch: (C_total, l) float64 — value entering multiplier j at step t.
        row_sch: (C_total, l) int64 — window-local destination adder, or -1.
        col_sch: (C_total, l) int64 — original column index, or -1.
        window_colors: colors (timesteps) used by each row window; their sum
            is C_total.
    """

    length: int
    shape: tuple[int, int]
    m_sch: np.ndarray
    row_sch: np.ndarray
    col_sch: np.ndarray
    window_colors: tuple[int, ...]

    # -- sizes -------------------------------------------------------------

    @property
    def total_colors(self) -> int:
        """C_total: timesteps of multiplier input (buffer length)."""
        return int(self.m_sch.shape[0])

    @property
    def window_count(self) -> int:
        return len(self.window_colors)

    @property
    def nnz(self) -> int:
        """Scheduled nonzeros (occupied slots)."""
        return int((self.row_sch != EMPTY).sum())

    @property
    def execution_cycles(self) -> int:
        """Total cycles: color sum plus pipeline fill (Section 3.4)."""
        if self.nnz == 0:
            return 0
        return self.total_colors + PIPELINE_FILL_CYCLES

    @property
    def utilization(self) -> float:
        """Hardware utilization: NZ ops per cycle per unit (Section 1).

        Each scheduled nonzero occupies one multiplier and one adder for one
        cycle, so the ratio reduces to nnz / (l * cycles).
        """
        cycles = self.execution_cycles
        if cycles == 0:
            return 0.0
        return self.nnz / (self.length * cycles)

    @property
    def occupancy(self) -> float:
        """Fraction of schedule slots occupied (densified-stream quality)."""
        slots = self.m_sch.size
        return self.nnz / slots if slots else 0.0

    def window_offsets(self) -> np.ndarray:
        """Start timestep of each window (cumulative color sum)."""
        offsets = np.zeros(self.window_count, dtype=np.int64)
        np.cumsum(self.window_colors[:-1], out=offsets[1:])
        return offsets

    def window_of_timestep(self) -> np.ndarray:
        """Window index owning each timestep (length C_total)."""
        return np.repeat(
            np.arange(self.window_count, dtype=np.int64),
            np.asarray(self.window_colors, dtype=np.int64),
        )

    def occupied_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of every scheduled nonzero: (steps, lanes, rows).

        ``steps``/``lanes`` index into the schedule arrays; ``rows`` is the
        global (window-offset) destination row of each occupied slot.  This
        is the gather every replay/refresh path starts from.
        """
        occupied = self.row_sch != EMPTY
        steps, lanes = np.nonzero(occupied)
        window_of_step = self.window_of_timestep()
        global_rows = (
            window_of_step[steps] * self.length + self.row_sch[steps, lanes]
        )
        return steps, lanes, global_rows

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural consistency and collision freedom.

        Raises:
            ScheduleError: on shape mismatch, out-of-range indices, slot
                inconsistency, or two elements of one row sharing a timestep.
        """
        m, n = self.shape
        expected = (self.total_colors, self.length)
        for name, arr in (
            ("m_sch", self.m_sch),
            ("row_sch", self.row_sch),
            ("col_sch", self.col_sch),
        ):
            if arr.shape != expected:
                raise ScheduleError(
                    f"{name} has shape {arr.shape}, expected {expected}"
                )
        if sum(self.window_colors) != self.total_colors:
            raise ScheduleError("window_colors do not sum to C_total")
        if any(c < 0 for c in self.window_colors):
            raise ScheduleError("negative window color count")

        occupied = self.row_sch != EMPTY
        if ((self.col_sch != EMPTY) != occupied).any():
            raise ScheduleError("row_sch and col_sch disagree on occupancy")
        if (self.m_sch[~occupied] != 0.0).any():
            raise ScheduleError("value present in an empty slot")
        rows = self.row_sch[occupied]
        cols = self.col_sch[occupied]
        if rows.size and (rows.min() < 0 or rows.max() >= self.length):
            raise ScheduleError("row_sch destination out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ScheduleError("col_sch index out of range")

        # Collision freedom: within a timestep, destinations are unique.
        steps = np.nonzero(occupied)[0]
        keys = steps * self.length + self.row_sch[occupied]
        if np.unique(keys).size != keys.size:
            raise ScheduleError("collision: one adder addressed twice in a cycle")

        # Window containment: each timestep's global rows stay in its window.
        window_of_step = self.window_of_timestep()
        global_rows = window_of_step[steps] * self.length + rows
        if global_rows.size and global_rows.max() >= m:
            raise ScheduleError("scheduled row beyond matrix height")


class CompactSchedule(Schedule):
    """A schedule held as its occupied slots: flat ``step * l + lane``
    coordinates (``flat``), their window-local rows and columns
    (``slot_rows``/``slot_cols``), and their values (``values``, or
    ``values[value_source]`` gathered lazily).

    The scheduler lists the slots in slot order, ``value_source[k]``
    being the balanced-matrix entry in slot ``k``; a disk load lists them
    in execution-plan order.  The dense triple — several MB of
    mostly empty slots on large matrices, which plan-based replay never
    reads — is built on first read (the cycle-accurate machine, the eval
    models, re-serialization, validation); ``nnz``, ``total_colors`` and
    ``occupied_slots`` come from the compact form.  Behaviorally identical
    to an eager :class:`Schedule`.
    """

    def __init__(
        self,
        length: int,
        shape: tuple[int, int],
        window_colors: tuple[int, ...],
        total: int,
        flat: np.ndarray,
        slot_rows: np.ndarray,
        slot_cols: np.ndarray,
        values: np.ndarray,
        value_source: np.ndarray | None = None,
    ):
        # The dense fields are class-level properties (data descriptors),
        # so the dataclass __init__ cannot be reused; set the scalar
        # fields and the compact payload directly.
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "window_colors", window_colors)
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "slot_rows", slot_rows)
        object.__setattr__(self, "slot_cols", slot_cols)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "value_source", value_source)
        object.__setattr__(self, "_dense", None)

    def with_values(
        self, values: np.ndarray, value_source: np.ndarray
    ) -> "CompactSchedule":
        """The same slots holding ``values[value_source]``, gathered lazily."""
        refreshed = copy.copy(self)
        refreshed.__dict__.update(
            values=values, value_source=value_source, _dense=None
        )
        return refreshed

    def slot_values(self) -> np.ndarray:
        """Each listed slot's value."""
        if self.value_source is None:
            return self.values
        return self.values[self.value_source]

    def _materialize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Listing 2: scatter the slots into M_sch / Row_sch / Col_sch."""
        dense = self._dense
        if dense is None:
            total, length = self._total, self.length
            m_sch = np.zeros(total * length, dtype=np.float64)
            row_sch = np.full(total * length, EMPTY, dtype=np.int64)
            col_sch = np.full(total * length, EMPTY, dtype=np.int64)
            if self.flat.size:
                try:
                    m_sch[self.flat] = self.slot_values()
                    row_sch[self.flat] = self.slot_rows
                    col_sch[self.flat] = self.slot_cols
                except IndexError as err:
                    raise ScheduleError(
                        "schedule holds out-of-range slot indices"
                    ) from err
            dense = (
                m_sch.reshape(total, length),
                row_sch.reshape(total, length),
                col_sch.reshape(total, length),
            )
            object.__setattr__(self, "_dense", dense)
        return dense

    @property
    def m_sch(self) -> np.ndarray:  # type: ignore[override]
        return self._materialize()[0]

    @property
    def row_sch(self) -> np.ndarray:  # type: ignore[override]
        return self._materialize()[1]

    @property
    def col_sch(self) -> np.ndarray:  # type: ignore[override]
        return self._materialize()[2]

    # Hot-path derived quantities, answered without materializing.

    @property
    def total_colors(self) -> int:
        return int(self._total)

    @property
    def nnz(self) -> int:
        return int(self.flat.size)

    @property
    def occupancy(self) -> float:
        slots = self._total * self.length
        return self.nnz / slots if slots else 0.0

    def slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The slot join ``(steps, lanes, source)`` in listing order, or
        ``None`` when the slots carry no value source (a disk load)."""
        if self.value_source is None:
            return None
        steps, lanes = np.divmod(self.flat, self.length)
        return steps, lanes, self.value_source

    def occupied_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        steps, lanes = np.divmod(self.flat, self.length)
        global_rows = (
            self.window_of_timestep()[steps] * self.length
            + self.slot_rows.astype(np.int64)
        )
        return steps, lanes, global_rows
