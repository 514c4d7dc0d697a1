"""Bipartite edge-coloring machinery — the combinatorial heart of GUST.

A row window of the sparse matrix becomes a bipartite multigraph
(:class:`~repro.graph.bipartite.WindowGraph`): left vertices are the window's
rows (one per adder), right vertices are column segments ``col mod l`` (one
per multiplier), and each nonzero is an edge.  A proper edge coloring assigns
each nonzero a buffer slot such that no multiplier or adder is double-booked
in any cycle.

Three coloring algorithms are provided:

* :func:`~repro.graph.edge_coloring.greedy_matching_coloring` — the paper's
  Listing 1 (round-based greedy maximal matching).  The default.
* :func:`~repro.graph.edge_coloring.first_fit_coloring` — per-edge first-fit
  in row-major order, never worse than 2Δ−1 colors.
* :func:`~repro.graph.edge_coloring.euler_coloring` — exactly Δ colors (the
  König optimum) via regularization + repeated perfect matchings; the
  paper's future-work-quality ablation.

The first two are one coloring: round ``r`` of Listing 1 gives each row,
in index order, its first pending edge on a lane no earlier row took in
that round, and by induction over the edges in row-major order that is
exactly the smallest color free at both the edge's row and its lane
(proof in :mod:`repro.graph.edge_coloring`).  Both run on one first-fit
kernel.
"""

from repro.graph.bipartite import WindowGraph
from repro.graph.edge_coloring import (
    euler_coloring,
    first_fit_coloring,
    greedy_matching_coloring,
)
from repro.graph.matching import hopcroft_karp
from repro.graph.properties import (
    color_count,
    max_bipartite_degree,
    validate_coloring,
)

__all__ = [
    "WindowGraph",
    "color_count",
    "euler_coloring",
    "first_fit_coloring",
    "greedy_matching_coloring",
    "hopcroft_karp",
    "max_bipartite_degree",
    "validate_coloring",
]
