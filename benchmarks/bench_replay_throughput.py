"""Replay-throughput benchmark: prepared execution plans vs. the pre-plan
scatter path.

GUST's steady state is replay: scheduling is paid once, then the same
schedule executes thousands of SpMVs (Section 3.3's amortization, every
solver in :mod:`repro.solvers`, every SpMM column stream).  This benchmark
gates the :class:`~repro.core.plan.ExecutionPlan` engine on the paper's
headline regime — a 100k-nonzero, ``l = 64`` matrix:

* **scatter** — the pre-plan replay kept verbatim as
  :meth:`~repro.core.pipeline.GustPipeline.execute_scatter` (also
  reachable as ``backend="legacy-scatter"``): a dense ``np.nonzero`` over
  the schedule arrays plus an ``np.add.at`` accumulation, every call;
* **plan** — the compiled :class:`~repro.core.compiled.CompiledSpmv`
  handle on the ``"bincount"`` backend (``GustPipeline.compile``): gather
  -> multiply -> segment-reduce, compiled once, replayed many.

Acceptance gates (asserted when run as a script or under pytest):

* compiled SpMV replay >= 3x faster than the legacy scatter path;
* compiled and scatter replays are **bit-identical** (the plan's stable
  destination-row sort preserves each row's accumulation order);
* full solver runs (Jacobi, power iteration) through compiled-backend
  pipelines are bit-identical to legacy-scatter pipelines, iteration for
  iteration;
* a cached Jacobi solve (whole solve, warm cache) is >= 1.5x faster on
  the compiled backend than on the legacy scatter path;
* the steady-state ``pipeline.execute`` memo hit binds the compiled
  handle by identity — zero ``plan_for`` lookups per call.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_replay_throughput.py
    PYTHONPATH=src python benchmarks/bench_replay_throughput.py --json out.json
    PYTHONPATH=src python benchmarks/bench_replay_throughput.py --compare-scipy

(``--compare-scipy`` adds an informational, never-gated scipy CSR matvec
column — the independent oracle and candidate backend noted in the
ROADMAP; it reports "unavailable" when scipy is not installed.)

or via pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_replay_throughput.py -s
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import GustPipeline, uniform_random
from repro.obs import trace as trace_mod
from repro.solvers.jacobi import jacobi
from repro.solvers.power_iteration import power_iteration
from repro.sparse.coo import CooMatrix

#: Headline configuration: 100k nonzeros at ~3 nnz/row, length 64 (the
#: acceptance criterion's 100k-nnz, l=64 regime).
DIM = 32768
TARGET_NNZ = 100_000
LENGTH = 64
SEED = 3

#: Solver benchmark: a smaller diagonally dominant system so the gate
#: finishes quickly while iterations remain SpMV-dominated.
SOLVER_DIM = 8192
SOLVER_NNZ = 60_000

MIN_REPLAY_SPEEDUP = 3.0
MIN_SOLVER_SPEEDUP = 1.5

#: The replay hot path carries a ``replay.execute`` trace span; with
#: tracing disabled the span machinery must cost no more than this
#: multiple of the bare kernel (the "observability is free when off"
#: contract documented in DESIGN.md).
MAX_NOOP_TRACE_OVERHEAD = 1.03


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _diag_dominant(dim: int, nnz: int, seed: int) -> CooMatrix:
    """A square, diagonally dominant system matrix for the solver gate."""
    base = uniform_random(dim, dim, nnz / (dim * dim), seed=seed)
    off = base.rows != base.cols
    rows = np.concatenate([base.rows[off], np.arange(dim)])
    cols = np.concatenate([base.cols[off], np.arange(dim)])
    data = np.concatenate([base.data[off], np.full(dim, 64.0)])
    return CooMatrix.from_arrays(rows, cols, data, (dim, dim))


def measure_spmv(compare_scipy: bool = False) -> dict:
    matrix = uniform_random(DIM, DIM, TARGET_NNZ / (DIM * DIM), seed=SEED)
    rng = np.random.default_rng(SEED)
    x = rng.normal(size=DIM)

    pipeline = GustPipeline(LENGTH, cache=True)
    schedule, balanced, _ = pipeline.preprocess(matrix)
    # The compiled handle on the bincount backend (the prepared-plan hot
    # path) vs. the uncompiled legacy baseline it replaced.
    compiled = pipeline.compile(matrix, backend="bincount")

    scatter_s = _best_of(
        lambda: pipeline.execute_scatter(schedule, balanced, x), 20
    )
    plan_s = _best_of(lambda: compiled.matvec(x), 20)

    y_scatter = pipeline.execute_scatter(schedule, balanced, x)
    y_plan = compiled.matvec(x)
    bit_identical = bool((y_scatter == y_plan).all())
    correct = bool(np.allclose(y_plan, matrix.matvec(x)))

    # Memo-hit micro-assertion (gated in _failures): after the first
    # execute pays compilation, every further execute must resolve the
    # compiled handle by identity — zero plan_for lookups per call.
    pipeline.execute(schedule, balanced, x)  # warm the compiled memo
    plan_for_calls = []
    original_plan_for = pipeline.plan_for

    def counting_plan_for(*args, **kwargs):
        plan_for_calls.append(args)
        return original_plan_for(*args, **kwargs)

    pipeline.plan_for = counting_plan_for
    try:
        for _ in range(10):
            pipeline.execute(schedule, balanced, x)
    finally:
        del pipeline.plan_for

    # Disabled-tracing overhead: time the bare kernel against the same
    # kernel under a module-level span with tracing forced off (an
    # installed disabled tracer wins over any GUST_TRACE in the
    # environment).  Batches of calls per sample smooth timer jitter.
    def bare():
        for _ in range(10):
            compiled.matvec(x)

    def spanned():
        for _ in range(10):
            with trace_mod.span("replay.execute"):
                compiled.matvec(x)

    with trace_mod.overridden(trace_mod.Tracer(enabled=False)):
        bare_s = _best_of(bare, 30)
        noop_span_s = _best_of(spanned, 30)

    results = {
        "matrix": {"dim": DIM, "nnz": matrix.nnz, "length": LENGTH},
        "backend": compiled.backend_name,
        "noop_trace_overhead": noop_span_s / bare_s,
        "scatter_s": scatter_s,
        "plan_s": plan_s,
        "speedup": scatter_s / plan_s,
        "bit_identical": bit_identical,
        "correct": correct,
        "memo_hit_plan_lookups": len(plan_for_calls),
    }
    if compare_scipy:
        # Informational column (never gated): the plan's sorted CSR
        # segment layout is exactly what a scipy CSR matvec consumes, so
        # scipy — where installed — doubles as an independent oracle and
        # a "natural next backend" reference point.
        try:
            import scipy.sparse as sparse
        except ImportError:
            results["scipy"] = None
        else:
            csr = sparse.coo_matrix(
                (matrix.data, (matrix.rows, matrix.cols)),
                shape=matrix.shape,
            ).tocsr()
            scipy_s = _best_of(lambda: csr @ x, 20)
            results["scipy"] = {
                "scipy_s": scipy_s,
                "vs_plan": plan_s / scipy_s,
                "agrees": bool(np.allclose(csr @ x, y_plan)),
            }
    return results


def measure_solvers() -> dict:
    matrix = _diag_dominant(SOLVER_DIM, SOLVER_NNZ, seed=SEED)
    rng = np.random.default_rng(SEED)
    b = rng.normal(size=SOLVER_DIM)

    def run_jacobi(backend: str):
        pipeline = GustPipeline(LENGTH, cache=True, backend=backend)
        return jacobi(matrix, b, pipeline=pipeline, max_iterations=60)

    def run_power(backend: str):
        pipeline = GustPipeline(LENGTH, cache=True, backend=backend)
        return power_iteration(matrix, pipeline=pipeline, max_iterations=40)

    with_plan = run_jacobi("bincount")
    without_plan = run_jacobi("legacy-scatter")
    jacobi_identical = bool(
        (with_plan.x == without_plan.x).all()
        and with_plan.iterations == without_plan.iterations
        and with_plan.residual_norm == without_plan.residual_norm
    )
    power_with = run_power("bincount")
    power_without = run_power("legacy-scatter")
    power_identical = bool(
        (power_with.vector == power_without.vector).all()
        and power_with.eigenvalue == power_without.eigenvalue
    )

    # Whole-solve time with a warm cache (the steady state of a solver
    # fleet): schedule once, then time full solves whose preprocessing is
    # a cache hit.  These are solve times, not kernel times: each also
    # pays the off-diagonal split and the cache lookup once.
    plan_pipeline = GustPipeline(LENGTH, cache=True, backend="bincount")
    scatter_pipeline = GustPipeline(LENGTH, cache=True, backend="legacy-scatter")
    jacobi(matrix, b, pipeline=plan_pipeline, max_iterations=5)  # prime
    jacobi(matrix, b, pipeline=scatter_pipeline, max_iterations=5)
    spmvs = with_plan.spmv_count
    plan_s = _best_of(
        lambda: jacobi(matrix, b, pipeline=plan_pipeline, max_iterations=60), 5
    )
    scatter_s = _best_of(
        lambda: jacobi(
            matrix, b, pipeline=scatter_pipeline, max_iterations=60
        ),
        5,
    )
    return {
        "matrix": {"dim": SOLVER_DIM, "nnz": matrix.nnz, "length": LENGTH},
        "jacobi_bit_identical": jacobi_identical,
        "power_bit_identical": power_identical,
        "spmv_count": spmvs,
        "plan_solve_ms": plan_s * 1e3,
        "scatter_solve_ms": scatter_s * 1e3,
        "solver_speedup": scatter_s / plan_s,
    }


def run(
    json_path: str | None = None, compare_scipy: bool = False
) -> dict:
    spmv = measure_spmv(compare_scipy=compare_scipy)
    solvers = measure_solvers()
    results = {"spmv": spmv, "solvers": solvers}
    print(
        f"matrix: {DIM}x{DIM}, nnz={spmv['matrix']['nnz']}, length={LENGTH}"
    )
    print(
        f"scatter replay      {spmv['scatter_s'] * 1e6:>9.1f} us\n"
        f"plan replay         {spmv['plan_s'] * 1e6:>9.1f} us\n"
        f"speedup             {spmv['speedup']:>9.1f} x   "
        f"(bit-identical={spmv['bit_identical']})"
    )
    print(
        f"no-op trace span    {spmv['noop_trace_overhead']:>9.3f} x   "
        f"(gate <= {MAX_NOOP_TRACE_OVERHEAD}x)"
    )
    if compare_scipy:
        scipy_col = spmv.get("scipy")
        if scipy_col is None:
            print("scipy CSR matvec    unavailable (scipy not installed)")
        else:
            print(
                f"scipy CSR matvec    {scipy_col['scipy_s'] * 1e6:>9.1f} us"
                f"   (plan/scipy = {scipy_col['vs_plan']:.2f}; "
                f"agrees={scipy_col['agrees']})"
            )
    print(
        f"cached jacobi solve plan {solvers['plan_solve_ms']:.2f} ms vs "
        f"scatter {solvers['scatter_solve_ms']:.2f} ms, "
        f"{solvers['spmv_count']} SpMVs each "
        f"({solvers['solver_speedup']:.1f}x; jacobi/power bit-identical="
        f"{solvers['jacobi_bit_identical']}/{solvers['power_bit_identical']})"
    )
    if json_path:
        Path(json_path).write_text(json.dumps(results, indent=2))
        print(f"wrote {json_path}")
    return results


def _failures(results: dict) -> list[str]:
    spmv, solvers = results["spmv"], results["solvers"]
    failures = []
    if spmv["speedup"] < MIN_REPLAY_SPEEDUP:
        failures.append(
            f"plan replay {spmv['speedup']:.1f}x < {MIN_REPLAY_SPEEDUP}x"
        )
    if not spmv["bit_identical"]:
        failures.append("plan replay is not bit-identical to the scatter path")
    if not spmv["correct"]:
        failures.append("plan replay disagrees with the dense oracle")
    if spmv["memo_hit_plan_lookups"]:
        failures.append(
            f"steady-state execute paid {spmv['memo_hit_plan_lookups']} "
            "plan_for lookups; the memo hit must bind the compiled handle"
        )
    if spmv["noop_trace_overhead"] > MAX_NOOP_TRACE_OVERHEAD:
        failures.append(
            f"disabled tracing costs {spmv['noop_trace_overhead']:.3f}x "
            f"the bare kernel (> {MAX_NOOP_TRACE_OVERHEAD}x); the no-op "
            "span path must stay free"
        )
    if not solvers["jacobi_bit_identical"]:
        failures.append("jacobi results differ between plan and scatter paths")
    if not solvers["power_bit_identical"]:
        failures.append("power iteration differs between plan and scatter paths")
    if solvers["solver_speedup"] < MIN_SOLVER_SPEEDUP:
        failures.append(
            f"cached jacobi solve {solvers['solver_speedup']:.1f}x < "
            f"{MIN_SOLVER_SPEEDUP}x"
        )
    return failures


def test_replay_throughput():
    """Pytest entry point enforcing the acceptance thresholds."""
    results = run()
    failures = _failures(results)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    json_path = None
    argv = sys.argv[1:]
    compare_scipy = "--compare-scipy" in argv
    argv = [arg for arg in argv if arg != "--compare-scipy"]
    if argv and argv[0] == "--json":
        json_path = argv[1]
    results = run(json_path, compare_scipy=compare_scipy)
    failures = _failures(results)
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        sys.exit(1)
    print(
        f"PASS: plan replay >= {MIN_REPLAY_SPEEDUP:.0f}x, bit-identical, "
        f"cached jacobi solve >= {MIN_SOLVER_SPEEDUP:.1f}x"
    )
