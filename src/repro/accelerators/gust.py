"""GUST wrapped in the common :class:`Accelerator` interface.

The experiment harness compares designs uniformly; this adapter exposes
the scheduling pipeline's cycle model (including the naive strawman and the
EC / EC+LB configurations) alongside the baselines.
"""

from __future__ import annotations

import numpy as np

from repro.accelerators.base import Accelerator
from repro.core.pipeline import GustPipeline
from repro.sparse.coo import CooMatrix
from repro.types import CycleReport, PreprocessReport


class GustAccelerator(Accelerator):
    """Length-``l`` GUST under a scheduling policy.

    Args:
        length: accelerator length (multipliers = adders = l).
        algorithm: "matching" (the paper's edge coloring), "first_fit",
            "euler", or "naive".  "matching" (EC) and "first_fit" (FF)
            are the same schedule by construction: Listing 1 is
            row-major first-fit (:mod:`repro.graph.edge_coloring`).
        load_balance: apply the three-step balancer (the EC/LB series).
    """

    def __init__(
        self,
        length: int,
        algorithm: str = "matching",
        load_balance: bool = True,
    ):
        self.length = length
        self.pipeline = GustPipeline(
            length, algorithm=algorithm, load_balance=load_balance
        )
        suffix = {
            ("naive", False): "Naive",
            ("naive", True): "Naive",
            ("matching", False): "EC",
            ("matching", True): "EC/LB",
            ("first_fit", False): "FF",
            ("first_fit", True): "FF/LB",
            ("euler", False): "OPT",
            ("euler", True): "OPT/LB",
        }[(algorithm, load_balance)]
        self.name = f"GUST-{suffix}"
        self._last_preprocess: PreprocessReport | None = None

    def run(self, matrix: CooMatrix) -> CycleReport:
        cycle_report, report = self.pipeline.preprocess_stats(matrix)
        self._last_preprocess = report
        return cycle_report

    def spmv(self, matrix: CooMatrix, x: np.ndarray) -> np.ndarray:
        return self.pipeline.spmv(matrix, np.asarray(x, dtype=np.float64)).y

    @property
    def last_preprocess(self) -> PreprocessReport | None:
        """Preprocessing report from the most recent :meth:`run`."""
        return self._last_preprocess
