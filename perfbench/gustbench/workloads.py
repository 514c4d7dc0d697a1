"""Workload definitions, the metric tables and :func:`run`.

Each workload runs all three paths (cold compile, warm solve, open-loop
serving) on its own inputs.  Its heavy path gets large inputs and half of
the measured seconds; the other two get small inputs and a quarter each,
so every end-to-end and per-layer metric is measured on every workload
while the heavy path decides what the workload stresses.  Serving is never
the heavy path: its tenants are small on every workload, and its figures
(timer-bound low-rate latency, a coarse rate ladder) hold steady in a
quarter of a run.

The paths run interleaved in ``SLICES`` slices (compile, solve, low-rate
serving, repeated), then the serving rate ladder: host speed on a shared
machine drifts over seconds, and slicing spreads every metric's samples
over the whole run instead of one stretch of it.

Compile, disk-load, solve-step and set-up times are reported scaled to a
reference host speed (see ``gustbench/hostspeed.py``): a shared host's
speed drifts by up to 1.5x between runs, and scaling by a reference kernel
timed beside the samples takes most of that drift out.  The raw figures
and the host's speed factor are in the notes and the results file.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gustbench import hostspeed, inputs, layers, paths, roofline
from gustbench.paths import Checker

#: Share of the measured seconds of the heavy path; the others split the rest.
HEAVY_SHARE = 0.5

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Interleaved slices of the compile, solve and low-rate serving paths.
SLICES = 6

#: Fixed serving rates: the low rate, and the ladder for ``serve_max_rps``.
#: Steps are 4x apart: the server's capacity for these tenants swings
#: between about 4k and 10k req/s with the load of a shared 2-core host,
#: and that swing has to fall between two steps, not across one.
LOW_RATE = 500.0
LADDER = (750.0, 3000.0, 12000.0, 48000.0)
#: Seconds at the low rate (1200 requests, 200 per slice, so each slice's
#: tail is its p95), at most ``LOW_MAX_SHARE`` of the serving share; the
#: rest goes to the ladder, which usually stops after running its third
#: step twice (a failing step is retried once).
LOW_SECONDS = 2.4
LOW_MAX_SHARE = 0.6
LADDER_STEPS_RUN = 4


@dataclass(frozen=True)
class Sizes:
    """Inputs of one workload, as surrogate names and scale divisors."""

    compile_set: tuple[tuple[str, float], ...]
    solve: tuple[str, float]
    tenants: tuple[tuple[str, str, float], ...]


#: Sizes trade work per operation against operations per run: host speed
#: on a shared machine swings between operations, and a median over a
#: few dozen operations is much steadier than one over a few.
LARGE_COMPILE = (("soc-Epinions1", 8), ("poisson3db", 32), ("cage12", 32))
SMALL_COMPILE = (("soc-Epinions1", 64), ("poisson3db", 128), ("cage12", 128))
LARGE_SOLVE = ("cage12", 5)
SMALL_SOLVE = ("cage12", 32)
#: The first tenant is the one re-registered during serving; the smallest,
#: so the refresher holds the interpreter for under 1% of the time.
TENANTS = (
    ("block", "TSCOPF-1047", 1),
    ("social", "wiki-Vote", 1),
    ("fem", "nopoly", 1),
)
TINY = Sizes(
    compile_set=(("soc-Epinions1", 128), ("poisson3db", 256), ("cage12", 256)),
    solve=("cage12", 128),
    tenants=(("block", "TSCOPF-1047", 1), ("social", "CollegeMsg", 1)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    heavy: str  # "compile" or "solve"
    sizes: Sizes
    #: End-to-end metric the trace overhead is judged on.
    primary: str

    def share(self, path: str) -> float:
        if path == self.heavy:
            return HEAVY_SHARE
        return (1 - HEAVY_SHARE) / 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold-compile",
            why=(
                "cold compile of power-law, FEM-band and k-regular surrogates "
                "from shuffled triplets, then disk reloads: every compile "
                "layer and the store; small solve and serving beside it"
            ),
            heavy="compile",
            sizes=Sizes(LARGE_COMPILE, SMALL_SOLVE, TENANTS),
            primary="cold_compile_s",
        ),
        Workload(
            name="warm-solve",
            why=(
                "time-stepped Jacobi on a 0.44M-nnz operator through one "
                "cached pipeline: value refresh, canonicalization, matvec; "
                "coloring only in set-up and in the small compile beside it"
            ),
            heavy="solve",
            sizes=Sizes(SMALL_COMPILE, LARGE_SOLVE, TENANTS),
            primary="solve_step_p50_s",
        ),
    )
}

#: name -> unit of every end-to-end metric (``BENCHMARK.json`` holds the
#: direction and regression bound of each).
END_TO_END = {
    "setup_s": "s",
    "cold_compile_s": "s",
    "disk_load_s": "s",
    "hw_utilization": "ratio",
    "solve_step_p50_s": "s",
    "solve_step_tail_s": "s",
    "serve_p50_ms": "ms",
    "serve_tail_ms": "ms",
    "serve_max_rps": "req/s",
    "peak_rss_mb": "MiB",
}

#: name -> unit of every per-layer metric (traced run).
PER_LAYER = {
    "sparse.canonicalize_s": "s",
    "sparse.canonicalize_step_s": "s",
    "load_balance.balance_s": "s",
    "scheduler.schedule_s": "s",
    "scheduler.colors": "count",
    "plan.build_s": "s",
    "plan.with_values_step_s": "s",
    "cache.fetch_s.hit": "s",
    "cache.fetch_s.refresh": "s",
    "cache.fetch_s.miss": "s",
    "cache.fetch_s.disk": "s",
    "cache.insert_s": "s",
    "cache.hits": "count",
    "cache.refreshes": "count",
    "cache.misses": "count",
    "cache.disk_hits": "count",
    "cache.useful_ratio": "ratio",
    "store.write_s": "s",
    "store.read_s": "s",
    "store.bytes": "bytes",
    "backends.compile_s": "s",
    "backends.matvec_s": "s",
    "backends.matvec_calls": "count",
    "backends.matvec_bytes": "bytes",
    "backends.matvec_roof_frac": "ratio",
    "backends.matmat_s_per_col": "s",
    "pipeline.unattributed_s": "s",
    "solvers.iterations": "count",
    "solvers.spmv_count": "count",
    "solvers.spmv_share": "ratio",
    "registry.register_s": "s",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_size": "count",
    "batcher.batch_size_frac.1": "ratio",
    "batcher.batch_size_frac.2-3": "ratio",
    "batcher.batch_size_frac.4-7": "ratio",
    "batcher.batch_size_frac.8-15": "ratio",
    "batcher.batch_size_frac.16-up": "ratio",
    "server.batch_s": "s",
    "server.rejected": "count",
    "server.deadline_exceeded": "count",
    "serve.generator_lag_ms": "ms",
    "serve.generator_lag_max_ms": "ms",
    "serve.ladder_lag_ms": "ms",
    "serve.ladder_lag_max_ms": "ms",
    "serve.capacity_rps": "req/s",
    "failed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "host.stream_gbps": "GB/s",
    "host.speed_factor": "ratio",
}


# -- one pass over the three paths -------------------------------------------


@dataclass
class Inputs:
    raws: list
    problem: inputs.SolveProblem
    tenants: list


@dataclass
class Sessions:
    solve: paths.SolveSession
    serve: paths.ServeSession


@dataclass
class Pass:
    compile: paths.CompileResult
    solve: paths.SolveResult
    serve: paths.ServeResult
    #: Wall seconds of each path, oracles included.
    wall_s: dict
    #: Peak resident MiB of the process before the serving rate ladder.
    peak_rss_mb: float


def make_inputs(sizes: Sizes, seed: int) -> Inputs:
    return Inputs(
        raws=inputs.raw_triplets(sizes.compile_set, seed),
        problem=inputs.solve_problem(*sizes.solve, seed=seed),
        tenants=inputs.tenants(sizes.tenants, seed),
    )


def open_sessions(data: Inputs) -> Sessions:
    """The step-0 cold solve and the tenant registrations."""
    return Sessions(
        solve=paths.SolveSession(data.problem),
        serve=paths.ServeSession(data.tenants),
    )


def run_pass(
    workload: Workload,
    data: Inputs,
    sessions: Sessions,
    seconds: float,
    checker: Checker,
    probe,
    seed: int,
    work_dir: Path,
    speed: hostspeed.Speedometer,
    fixed_counts: bool = False,
) -> Pass:
    """The three paths, each for its share of ``seconds``.

    ``fixed_counts`` caps the pass at ``SLICES`` compile rounds and solve
    steps, so with a short budget the counts repeat exactly for one seed
    (the benchmark's own tests use it).
    """
    once = SLICES if fixed_counts else None
    compiler = paths.CompileSession(data.raws, work_dir, seed)
    solver, server = sessions.solve, sessions.serve
    serve_s = workload.share("serve") * seconds
    low_s = min(LOW_SECONDS, LOW_MAX_SHARE * serve_s)
    wall_s = {"compile": 0.0, "solve": 0.0, "serve": 0.0}
    server.start(seed)
    try:
        for _ in range(SLICES):
            started = time.perf_counter()
            with probe.phase("cold"):
                compiler.run(
                    workload.share("compile") * seconds / SLICES,
                    checker, probe, speed, max_rounds=once,
                )
            compiled_at = time.perf_counter()
            with probe.phase("warm"):
                solver.run(
                    workload.share("solve") * seconds / SLICES,
                    checker, probe, speed, max_steps=once,
                )
            solved_at = time.perf_counter()
            server.run_low(LOW_RATE, low_s / SLICES, probe)
            wall_s["compile"] += compiled_at - started
            wall_s["solve"] += solved_at - compiled_at
            wall_s["serve"] += time.perf_counter() - solved_at
        solver.check_repeatable(checker, probe)
        peak_rss_mb = _peak_rss_mb()
        started = time.perf_counter()
        server.run_ladder(
            LADDER, (serve_s - low_s) / LADDER_STEPS_RUN, probe
        )
    except BaseException:
        server.close()
        raise
    served = server.finish(checker, probe)
    wall_s["serve"] += time.perf_counter() - started
    return Pass(
        compile=compiler.result,
        solve=solver.result,
        serve=served,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- metrics ------------------------------------------------------------------


#: Share of samples cut from each end of the compile and disk-load times
#: before they are averaged.
TRIM = 0.1


def _trimmed_mean(samples: list[float]) -> float:
    """Mean of ``samples`` without the highest and lowest ``TRIM`` share.

    Round times on a shared host are bimodal: a vCPU's speed flips by
    about 1.5x for seconds at a time.  A median jumps between the two
    modes as the share of slow rounds crosses one half; a mean moves
    smoothly with that share.  Trimming keeps a single stalled round out.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _tail(samples: list[float]):
    percentile = paths.tail_percentile(len(samples))
    return float(np.percentile(samples, percentile)), percentile


def end_to_end(
    result: Pass, setup_s: list[float], speed: hostspeed.Speedometer
) -> tuple[dict, dict]:
    """End-to-end metric values and the notes that qualify them.

    ``setup_s`` and the compile and solve samples are scaled to the
    reference speed; the notes give the raw figure beside each.
    """
    scaled = f"scaled to the reference speed, host at {speed.factor:.2f}x"
    low = result.serve.low
    latencies_ms = 1e3 * low.latencies_s(failed_s=paths.LOW_DEADLINE_S)
    # The tail of each slice, then their median: a host stall inside one
    # slice does not decide the figure.
    slice_tails = [
        _tail(list(1e3 * segment.latencies_s(failed_s=paths.LOW_DEADLINE_S)))
        for segment in result.serve.lows
    ]
    serve_tail = statistics.median(tail for tail, _ in slice_tails)
    serve_pct = min(percentile for _, percentile in slice_tails)
    steps = result.solve.step_scaled_s
    step_tail, step_pct = _tail(steps)
    values = {
        "setup_s": statistics.median(setup_s),
        "cold_compile_s": _trimmed_mean(result.compile.cold_scaled_s),
        "disk_load_s": _trimmed_mean(result.compile.disk_scaled_s),
        "hw_utilization": result.compile.utilization,
        "solve_step_p50_s": statistics.median(steps),
        "solve_step_tail_s": step_tail,
        "serve_p50_ms": float(np.median(latencies_ms)),
        "serve_tail_ms": serve_tail,
        "serve_max_rps": result.serve.max_rps,
        "peak_rss_mb": result.peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups, {scaled}",
        "cold_compile_s": (
            f"{TRIM:.0%}-trimmed mean of {result.compile.rounds} rounds, "
            f"{result.compile.nnz} nnz per round, {scaled} "
            f"(raw {_trimmed_mean(result.compile.cold_s):.4g} s)"
        ),
        "disk_load_s": (
            f"{TRIM:.0%}-trimmed mean of {len(result.compile.disk_s)} samples, "
            f"each the mean of {paths.DISK_RELOADS} reloads of the set, "
            f"{scaled} (raw {_trimmed_mean(result.compile.disk_s):.4g} s)"
        ),
        "hw_utilization": "2*nnz / (cycles*2l), exact",
        "solve_step_p50_s": (
            f"median of {result.solve.steps} steps, {scaled} "
            f"(raw {statistics.median(result.solve.step_s):.4g} s)"
        ),
        "solve_step_tail_s": f"p{step_pct:g} of {result.solve.steps} steps, {scaled}",
        "serve_p50_ms": f"{LOW_RATE:g} req/s, {len(low.requests)} requests",
        "serve_tail_ms": (
            f"median over {len(slice_tails)} slices of each slice's "
            f"p{serve_pct:g}, {len(low.requests)} requests in all"
        ),
        "serve_max_rps": "; ".join(
            f"{r.rate:g}: {'ok' if r.passed else 'fail'}, "
            f"answered {r.answered_rps:.0f}/s, "
            f"generator lag {r.lag_ms:.2f} ms (max {r.lag_max_ms:.1f})"
            for r in result.serve.rungs
        ),
        "peak_rss_mb": (
            "ru_maxrss of the workload process before the rate ladder "
            f"({_peak_rss_mb():.1f} after it): the backlog of the ladder's "
            "failing step, and so its memory, varies from run to run"
        ),
    }
    return values, notes


def _sum(spans, key=None, names=None, layer=None, field="self_s"):
    total = 0.0
    for span in spans:
        if names is not None and span.name not in names:
            continue
        if layer is not None and span.layer != layer:
            continue
        total += span.args.get(key, 0) if key else getattr(span, field)
    return total


def _mean_seconds(spans, name, **match):
    chosen = [
        s.seconds for s in spans
        if s.name == name and all(s.args.get(k) == v for k, v in match.items())
    ]
    return statistics.fmean(chosen) if chosen else 0.0


def per_layer(
    result: Pass,
    spans_by_phase: dict,
    checker: Checker,
    overhead: float,
    stream_gbps: float,
) -> dict:
    """Per-layer metric values of one traced pass.

    Compile-path ``_s`` metrics are the layer's self time per cold-compile
    round; ``_step_s`` metrics are self time per solve step; call metrics
    (cache fetches, matvec, matmat, register, batch) are whole-call times.
    """
    cold = spans_by_phase.get("cold", [])
    warm = spans_by_phase.get("warm", [])
    low = spans_by_phase.get("serve_low", [])
    ladder = spans_by_phase.get("serve_ladder", [])
    every = cold + warm + low + ladder
    rounds = result.compile.rounds
    steps = result.solve.steps

    fetches = Counter(s.args.get("outcome") for s in every if s.name == "cache.fetch")
    lookups = sum(fetches.values())
    matvecs = [s for s in warm if s.name == "backends.matvec"]
    matvec_s = statistics.fmean(s.seconds for s in matvecs) if matvecs else 0.0
    matvec_bytes = statistics.fmean(s.args["bytes"] for s in matvecs) if matvecs else 0.0
    jacobi_s = _sum(warm, names={"solvers.jacobi"}, field="seconds")
    matmats = [s for s in ladder if s.name == "backends.matmat"]
    columns = sum(s.args["columns"] for s in matmats)
    batches = [s for s in ladder if s.name == "server.run_batch"]
    sizes = [s.args["size"] for s in batches]
    waits = [w for s in low if s.name == "server.run_batch" for w in s.args["waits"]]
    lags = result.serve.low.lags_s
    ladder_lags = result.serve.ladder_lags_s

    def size_frac(lo, hi):
        return sum(1 for n in sizes if lo <= n <= hi) / len(sizes) if sizes else 0.0

    values = {
        "sparse.canonicalize_s": _sum(cold, layer="sparse") / rounds,
        "sparse.canonicalize_step_s": _sum(warm, layer="sparse") / steps,
        "load_balance.balance_s": _sum(cold, layer="load_balance") / rounds,
        "scheduler.schedule_s": _sum(cold, layer="scheduler") / rounds,
        "scheduler.colors": _sum(cold, key="colors") / rounds,
        "plan.build_s": _sum(cold, names={"plan.build"}) / rounds,
        "plan.with_values_step_s": _sum(warm, names={"plan.with_values"}) / steps,
        "cache.fetch_s.hit": _mean_seconds(every, "cache.fetch", outcome="hit"),
        "cache.fetch_s.refresh": _mean_seconds(every, "cache.fetch", outcome="refresh"),
        "cache.fetch_s.miss": _mean_seconds(every, "cache.fetch", outcome="miss"),
        "cache.fetch_s.disk": _mean_seconds(every, "cache.fetch", outcome="disk"),
        "cache.insert_s": _sum(cold, names={"cache.insert"}) / rounds,
        "cache.hits": sum(
            1 for s in cold if s.args.get("outcome") == "hit"
        ) / rounds,
        "cache.refreshes": sum(
            1 for s in warm if s.args.get("outcome") == "refresh"
        ) / steps,
        "cache.misses": sum(
            1 for s in cold if s.args.get("outcome") == "miss"
        ) / rounds,
        "cache.disk_hits": sum(
            1 for s in cold if s.args.get("outcome") == "disk"
        ) / rounds,
        "cache.useful_ratio": (
            (lookups - fetches["miss"]) / lookups if lookups else 0.0
        ),
        "store.write_s": _sum(cold, names={"store.store", "store.write"}) / rounds,
        "store.read_s": _sum(cold, names={"store.load", "store.read"}) / rounds,
        "store.bytes": _sum(cold, key="bytes", names={"store.store"}) / rounds,
        "backends.compile_s": _sum(cold, names={"backends.compile"}) / rounds,
        "backends.matvec_s": matvec_s,
        "backends.matvec_calls": len(matvecs) / steps,
        "backends.matvec_bytes": matvec_bytes,
        "backends.matvec_roof_frac": (
            matvec_bytes / matvec_s / (stream_gbps * 1e9) if matvec_s else 0.0
        ),
        "backends.matmat_s_per_col": (
            _sum(matmats, field="seconds") / columns if columns else 0.0
        ),
        "pipeline.unattributed_s": _sum(cold, layer="pipeline") / rounds,
        "solvers.iterations": statistics.fmean(result.solve.iterations),
        "solvers.spmv_count": statistics.fmean(result.solve.spmv_counts),
        "solvers.spmv_share": (
            sum(s.seconds for s in matvecs) / jacobi_s if jacobi_s else 0.0
        ),
        "registry.register_s": _mean_seconds(
            low + ladder, "registry.register", replace=True
        ),
        "batcher.queue_wait_ms": 1e3 * statistics.fmean(waits) if waits else 0.0,
        "batcher.batch_size": statistics.fmean(sizes) if sizes else 0.0,
        "batcher.batch_size_frac.1": size_frac(1, 1),
        "batcher.batch_size_frac.2-3": size_frac(2, 3),
        "batcher.batch_size_frac.4-7": size_frac(4, 7),
        "batcher.batch_size_frac.8-15": size_frac(8, 15),
        "batcher.batch_size_frac.16-up": size_frac(16, 1 << 30),
        "server.batch_s": (
            statistics.fmean(s.seconds for s in batches) if batches else 0.0
        ),
        "server.rejected": float(result.serve.rejected),
        "server.deadline_exceeded": float(result.serve.deadline_exceeded),
        "serve.generator_lag_ms": 1e3 * float(lags.mean()),
        "serve.generator_lag_max_ms": 1e3 * float(lags.max()),
        "serve.ladder_lag_ms": 1e3 * float(ladder_lags.mean()),
        "serve.ladder_lag_max_ms": 1e3 * float(ladder_lags.max()),
        "serve.capacity_rps": result.serve.capacity_rps,
        "failed_frac": checker.failed / checker.attempted,
        "trace.overhead_frac": overhead,
        "host.stream_gbps": stream_gbps,
    }
    return values


# -- the run ------------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: dict
    notes: dict
    details: dict


def _with_units(values: dict, units: dict) -> dict:
    return {name: (float(values[name]), unit) for name, unit in units.items()}


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    trace_path: Path | None = None,
    sizes: Sizes | None = None,
    checker: Checker | None = None,
    fixed_counts: bool = False,
    l3_bytes: int | None = None,
) -> RunResult:
    """One benchmark run: end-to-end metrics, or per-layer when ``trace``.

    The traced run first measures host bandwidth (on arrays 4x the host's
    L3, or 4x ``l3_bytes`` when given), then runs the paths untraced and
    traced for half the seconds each; the ratio of their
    ``workload.primary`` metric is the tracing overhead.
    """
    sizes = sizes or workload.sizes
    checker = checker or Checker()
    speed = hostspeed.Speedometer()
    raw_setups = []
    if not trace:
        setups = []
        sessions = None
        for _ in range(SETUP_REPEATS):
            if sessions is not None:
                sessions.serve.close()
            started = time.perf_counter()
            data = make_inputs(sizes, seed)
            sessions = open_sessions(data)
            raw_setups.append(time.perf_counter() - started)
            speed.add(setups, raw_setups[-1])
        speed.flush()
        result = run_pass(
            workload, data, sessions, seconds, checker, layers.Untraced(),
            seed, work_dir, speed, fixed_counts,
        )
        values, notes = end_to_end(result, setups, speed)
        metrics = _with_units(values, END_TO_END)
    else:
        l3_bytes = l3_bytes or roofline.l3_cache_bytes()
        stream_gbps, array_bytes = roofline.stream_copy_gbps(l3_bytes)
        data = make_inputs(sizes, seed)
        half = seconds / 2
        plain = run_pass(
            workload, data, open_sessions(data), half, checker,
            layers.Untraced(), seed, work_dir, speed, fixed_counts,
        )
        sessions = open_sessions(data)
        with layers.Instrument() as probe:
            result = run_pass(
                workload, data, sessions, half, checker, probe, seed,
                work_dir, speed, fixed_counts,
            )
        plain_values, _ = end_to_end(plain, [0.0], speed)
        traced_values, _ = end_to_end(result, [0.0], speed)
        primary = workload.primary
        overhead = traced_values[primary] / plain_values[primary] - 1.0
        spans = layers.spans_with_self_time(probe.tracer.events())
        values = per_layer(
            result, layers.by_phase(spans), checker, overhead, stream_gbps
        )
        values["host.speed_factor"] = speed.factor
        metrics = _with_units(values, PER_LAYER)
        notes = {
            "host.stream_gbps": (
                f"copy of {array_bytes / 2**20:.0f} MiB arrays, "
                f"4x the {l3_bytes / 2**20:.0f} MiB L3"
            ),
            "backends.matvec_bytes": "computed from plan and operand sizes",
            "trace.overhead_frac": f"traced/untraced {primary} - 1",
            "trace.dropped": str(probe.tracer.dropped),
            "host.speed_factor": (
                f"median reference-kernel time / {hostspeed.REFERENCE_S:g} s"
            ),
        }
        if trace_path is not None:
            notes["trace"] = str(trace_path)
            probe.tracer.export(trace_path)
    details = {
        "reasons": dict(checker.reasons),
        "rungs": [vars(rung) for rung in result.serve.rungs],
        "solve_iterations": result.solve.iterations,
        "compile_rounds": result.compile.rounds,
        "solve_steps": result.solve.steps,
        "versions": result.serve.versions,
        "wall_s": result.wall_s,
        "samples_s": {
            "cold_compile": result.compile.cold_s,
            "disk_load": result.compile.disk_s,
            "solve_step": result.solve.step_s,
        },
        "scaled_samples_s": {
            "cold_compile": result.compile.cold_scaled_s,
            "disk_load": result.compile.disk_scaled_s,
            "solve_step": result.solve.step_scaled_s,
        },
        "setup_raw_s": raw_setups,
        "reference_readings_s": speed.readings,
    }
    return RunResult(
        correct=checker.correct,
        attempted=checker.attempted,
        failed=checker.failed,
        metrics=metrics,
        notes=notes,
        details=details,
    )
