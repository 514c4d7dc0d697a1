"""Seeded benchmark inputs.

Everything the program under test receives is generated here from the
benchmark seed: the same seed gives the same triplets, operators, value
versions and request vectors.  Sparsity patterns come from the
``repro.sparse.datasets`` surrogates (fixed per name and scale); the seed
drives entry order, values, perturbations and request operands.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sparse.coo import CooMatrix
from repro.sparse.datasets import load_dataset

#: Relative half-width of the per-step value perturbation of the solver
#: operator's off-diagonal entries.
STEP_PERTURBATION = 0.05


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator for one named input stream of a seed."""
    return np.random.default_rng([seed, *stream])


@dataclass(frozen=True)
class RawTriplets:
    """One matrix as a caller hands it over: shuffled, uncanonicalized."""

    name: str
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def canonical(self) -> CooMatrix:
        return CooMatrix.from_arrays(self.rows, self.cols, self.data, self.shape)


def raw_triplets(
    specs: tuple[tuple[str, float], ...], seed: int
) -> list[RawTriplets]:
    """Surrogates ``(dataset name, scale)`` as seeded-shuffled triplets."""
    out = []
    for index, (name, scale) in enumerate(specs):
        pattern = load_dataset(name, scale=scale)
        rng = rng_for(seed, 1, index)
        order = rng.permutation(pattern.nnz)
        data = rng.uniform(0.5, 1.5, pattern.nnz)
        out.append(
            RawTriplets(
                name=name,
                rows=pattern.rows[order],
                cols=pattern.cols[order],
                data=data,
                shape=pattern.shape,
            )
        )
    return out


@dataclass(frozen=True)
class SolveProblem:
    """A time-stepped, strictly diagonally dominant linear system.

    The pattern is a surrogate's off-diagonal entries plus the full
    diagonal.  Each step perturbs the off-diagonal values and rebuilds the
    diagonal as ``dominance`` times the absolute row sum plus one, so
    every step keeps the same pattern and the same dominance ratio.
    """

    name: str
    matrix: CooMatrix
    rhs: np.ndarray
    off_mask: np.ndarray
    off_rows: np.ndarray
    base_off: np.ndarray
    dominance: float
    seed: int

    def step_values(self, step: int) -> np.ndarray:
        """Canonical-order values of the operator at ``step``."""
        if step == 0:
            off = self.base_off
        else:
            rng = rng_for(self.seed, 2, step)
            off = self.base_off * (
                1.0 + STEP_PERTURBATION * rng.uniform(-1.0, 1.0, self.base_off.size)
            )
        n = self.matrix.shape[0]
        diag = self.dominance * np.bincount(
            self.off_rows, weights=np.abs(off), minlength=n
        ) + 1.0
        values = np.empty(self.matrix.nnz, dtype=np.float64)
        values[self.off_mask] = off
        values[~self.off_mask] = diag
        return values

    def step_matrix(self, step: int) -> CooMatrix:
        return self.matrix.with_data(self.step_values(step))


def solve_problem(
    name: str, scale: float, seed: int, dominance: float = 2.0
) -> SolveProblem:
    pattern = load_dataset(name, scale=scale)
    n = pattern.shape[0]
    keep = pattern.rows != pattern.cols
    rows = np.concatenate([pattern.rows[keep], np.arange(n)])
    cols = np.concatenate([pattern.cols[keep], np.arange(n)])
    placeholder = np.ones(rows.size)
    matrix = CooMatrix.from_arrays(rows, cols, placeholder, pattern.shape)
    off_mask = matrix.rows != matrix.cols
    rng = rng_for(seed, 3)
    base_off = rng.uniform(-1.0, 1.0, int(off_mask.sum()))
    base_off[base_off == 0.0] = 0.5
    rhs = rng.normal(size=n)
    problem = SolveProblem(
        name=name,
        matrix=matrix,
        rhs=rhs,
        off_mask=off_mask,
        off_rows=matrix.rows[off_mask],
        base_off=base_off,
        dominance=dominance,
        seed=seed,
    )
    # Step 0 is the operator the cold compile sees.
    return replace(problem, matrix=problem.step_matrix(0))


@dataclass(frozen=True)
class Tenant:
    """One serving tenant: a pattern, its value versions and operands."""

    name: str
    matrix: CooMatrix
    vectors: np.ndarray
    seed: int
    index: int

    def version(self, number: int) -> CooMatrix:
        """The tenant's matrix with value version ``number`` (0 = initial)."""
        if number == 0:
            return self.matrix
        rng = rng_for(self.seed, 4, self.index, number)
        return self.matrix.with_data(rng.uniform(0.5, 1.5, self.matrix.nnz))


#: Request operands per tenant; requests draw from this pool.
VECTORS_PER_TENANT = 32


def tenants(specs: tuple[tuple[str, str, float], ...], seed: int) -> list[Tenant]:
    """Tenants ``(tenant name, dataset name, scale)`` with seeded values."""
    out = []
    for index, (tenant, dataset, scale) in enumerate(specs):
        pattern = load_dataset(dataset, scale=scale)
        rng = rng_for(seed, 5, index)
        matrix = pattern.with_data(rng.uniform(0.5, 1.5, pattern.nnz))
        out.append(
            Tenant(
                name=tenant,
                matrix=matrix,
                vectors=rng.normal(size=(VECTORS_PER_TENANT, matrix.shape[1])),
                seed=seed,
                index=index,
            )
        )
    return out
