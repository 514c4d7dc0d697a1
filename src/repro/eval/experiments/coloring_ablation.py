"""Extension ablation — greedy (Listing 1) vs first-fit vs optimal coloring.

The paper's scheduler is the round-based greedy matching of Listing 1.
König's theorem says the optimum equals the max bipartite degree; this
ablation measures how close each algorithm gets and what it costs in
preprocessing time — quantifying how much headroom a smarter scheduler
would buy (answer: little; greedy is within a few percent of optimal).

The matching and first_fit columns are the same schedule by construction:
Listing 1 is first-fit in row-major order (each edge takes the smallest
color free at its row and its lane; proof in
:mod:`repro.graph.edge_coloring`), and both policies run on one kernel.
Their colors agree exactly and their times differ only by noise.
"""

from __future__ import annotations

import time

from repro.core.load_balance import LoadBalancer
from repro.core.scheduler import GustScheduler
from repro.eval.result import ExperimentResult
from repro.sparse.datasets import load_dataset

DEFAULT_MATRICES = ("scircuit", "bcircuit", "wiki-Vote", "TSCOPF-1047")
DEFAULT_SCALE = 32.0
ALGORITHMS = ("matching", "first_fit", "euler")


def run(
    matrices: tuple[str, ...] = DEFAULT_MATRICES,
    scale: float = DEFAULT_SCALE,
    length: int = 128,
) -> ExperimentResult:
    """Colors and preprocessing time per algorithm, vs the degree bound."""
    headers = ["matrix", "lower bound"] + [
        item
        for algorithm in ALGORITHMS
        for item in (f"{algorithm} colors", f"{algorithm} s")
    ]
    rows: list[list] = []
    overhead: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    balancer = LoadBalancer(length)

    for name in matrices:
        matrix = load_dataset(name, scale=scale)
        balanced = balancer.balance(matrix)
        bound = int(sum(balanced.color_lower_bounds(length)))
        row: list = [name, bound]
        for algorithm in ALGORITHMS:
            scheduler = GustScheduler(length, algorithm=algorithm)
            started = time.perf_counter()
            counts = scheduler.color_counts(balanced)
            elapsed = time.perf_counter() - started
            total = int(sum(counts))
            overhead[algorithm].append(total / max(1, bound))
            row += [total, elapsed]
        rows.append(row)

    mean_overhead = {
        a: sum(v) / len(v) for a, v in overhead.items() if v
    }
    return ExperimentResult(
        experiment_id="coloring_ablation",
        title="Scheduling algorithm ablation: colors vs the König optimum",
        headers=headers,
        rows=rows,
        paper_claims={"euler matches lower bound exactly": True},
        measured_claims={
            "euler matches lower bound exactly": all(
                row[1] == row[2 + 2 * ALGORITHMS.index("euler")] for row in rows
            ),
            **{
                f"{a} colors / optimum": round(mean_overhead[a], 4)
                for a in ALGORITHMS
            },
        },
        notes=["length 128 keeps the Hopcroft-Karp optimal coloring fast"],
    )
