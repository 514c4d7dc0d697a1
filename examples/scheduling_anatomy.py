"""Anatomy of a GUST schedule: the paper's Figure 5 walked end to end.

Builds the 6x9 example matrix from Figure 5, colors its two windows with a
length-3 GUST, prints the bipartite view, the M_sch / Row_sch / Col_sch
storage, and then executes the schedule on the cycle-accurate machine —
including a demonstration that an (artificially) corrupted schedule trips
the crossbar's collision detector.

Run:  python examples/scheduling_anatomy.py
"""

import numpy as np

from repro import CooMatrix, GustMachine, GustPipeline
from repro.core.schedule import EMPTY, Schedule
from repro.errors import CollisionError
from repro.eval.visualize import (
    degree_profile,
    schedule_occupancy,
    window_color_chart,
)


def figure5_matrix() -> CooMatrix:
    """The paper's 6x9 example: rows x columns {A..I} as in Figure 5(a)."""
    pattern = {
        0: "ACDEH",
        1: "ABFGH",
        2: "BCDI",
        3: "ACEI",
        4: "CFGH",
        5: "ABDH",
    }
    rows, cols = [], []
    for row, letters in pattern.items():
        for letter in letters:
            rows.append(row)
            cols.append(ord(letter) - ord("A"))
    values = np.arange(1.0, len(rows) + 1.0)
    return CooMatrix.from_arrays(
        np.array(rows), np.array(cols), values, (6, 9)
    )


def main() -> None:
    matrix = figure5_matrix()
    length = 3
    print(f"matrix: {matrix} — scheduling on a length-{length} GUST")
    print("column segments: {A,D,G} -> multiplier 0, {B,E,H} -> 1, {C,F,I} -> 2\n")

    # Figure 5's hand coloring is optimal; the "euler" algorithm attains
    # the same Delta-color optimum (the default greedy would need one more).
    pipeline = GustPipeline(
        length, algorithm="euler", load_balance=False, validate=True
    )
    schedule, balanced, _ = pipeline.preprocess(matrix)

    print(f"window colors: {schedule.window_colors} "
          f"(paper: first three rows need 5 colors, last three 4)")
    print(f"total cycles: {schedule.execution_cycles} "
          f"(color sum + 2 pipeline stages; paper counts 11 for this matrix)\n")

    def cell(step: int, lane: int) -> str:
        if schedule.row_sch[step, lane] == EMPTY:
            return "   .  "
        col_letter = chr(ord("A") + int(schedule.col_sch[step, lane]))
        return f"r{int(schedule.row_sch[step, lane])}{col_letter}   "

    print("M_sch layout (timestep x multiplier lane; rN = destination adder):")
    for step in range(schedule.total_colors):
        print(f"  t={step:<2d} " + "".join(cell(step, lane) for lane in range(length)))

    print()
    print(degree_profile(matrix, length, bins=4, width=24))
    print()
    print(schedule_occupancy(schedule, width=length, height=9))
    print()
    print(window_color_chart(schedule, balanced, width=24))

    x = np.arange(1.0, 10.0)
    machine = GustMachine(length)
    result = machine.run(schedule, x)
    expected = matrix.matvec(x)
    assert np.allclose(result.y_permuted, expected)
    print(f"\nmachine: {result.cycles} cycles, "
          f"{result.multiplier_ops} multiplies, {result.adder_ops} accumulates, "
          f"max FIFO depth {result.max_fifo_depth} "
          f"(= max window colors, as Eq. 1 predicts)")

    # Now corrupt the schedule: route two elements of one timestep to the
    # same adder and watch the crossbar object.
    bad_row_sch = schedule.row_sch.copy()
    occupied_lanes = np.nonzero(bad_row_sch[0] != EMPTY)[0]
    bad_row_sch[0, occupied_lanes[1]] = bad_row_sch[0, occupied_lanes[0]]
    corrupted = Schedule(
        length=schedule.length,
        shape=schedule.shape,
        m_sch=schedule.m_sch,
        row_sch=bad_row_sch,
        col_sch=schedule.col_sch,
        window_colors=schedule.window_colors,
    )
    try:
        machine.run(corrupted, x)
    except CollisionError as error:
        print(f"\ncorrupted schedule correctly rejected: {error}")


if __name__ == "__main__":
    main()
