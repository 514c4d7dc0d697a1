"""Command-line interface: ``python -m repro <command>``.

Commands
--------

generate    synthesize a matrix (family generator or paper surrogate) to .mtx
schedule    preprocess a .mtx matrix into a reusable schedule artifact
spmv        execute a scheduled SpMV against a vector and verify it
backends    list registered execution backends and the auto-probe verdict
serve       run the in-process batching SpMV server under synthetic load
stats       print a Prometheus/JSON metrics scrape (local or via --url)
trace       capture a Chrome trace of a workload (``trace export``)
bench-serve run the serving-throughput benchmark (same gates as CI)
inspect     print statistics of a saved schedule
lint        run the project contract checker (rules R1-R4) over the source
cache       inspect or clear the persistent schedule store
compare     run every accelerator model on one matrix, print the table
experiment  regenerate one of the paper's tables/figures

The ``schedule`` command keeps a persistent, content-addressed schedule
store (default ``~/.cache/gust``; override with ``--cache-dir`` or the
``GUST_CACHE_DIR`` environment variable, disable with ``--no-disk-cache``).
A pattern scheduled by any previous process — on this or another worker
sharing the directory — warm-starts from disk instead of recoloring.

Examples::

    python -m repro generate --family uniform --dim 2048 --density 0.01 \
        --out m.mtx
    python -m repro generate --dataset scircuit --scale 16 --out scircuit.mtx
    python -m repro schedule m.mtx --length 128 --out m.sched
    python -m repro spmv m.sched --seed 7
    python -m repro backends
    python -m repro serve --tenants 2 --clients 8 --requests 200
    python -m repro serve --matrix m.mtx --requests 500 --max-batch 32
    python -m repro bench-serve --json bench-serve.json
    python -m repro cache stats
    python -m repro compare m.mtx --length 256
    python -m repro experiment fig7 --scale 16
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.core.pipeline import GustPipeline
from repro.core.serialize import load_schedule, save_schedule
from repro.core.store import DiskScheduleStore
from repro.errors import ReproError
from repro.sparse.datasets import dataset_names, load_dataset
from repro.sparse.generators import (
    banded,
    block_diagonal,
    k_regular,
    power_law,
    uniform_random,
)
from repro.sparse.mmio import read_matrix_market, write_matrix_market

_FAMILIES = ("uniform", "power_law", "k_regular", "banded", "block")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GUST (ASPLOS 2024) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesize a matrix")
    source = generate.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=_FAMILIES)
    source.add_argument("--dataset", choices=sorted(dataset_names()))
    generate.add_argument("--dim", type=int, default=1024)
    generate.add_argument("--density", type=float, default=0.01)
    generate.add_argument("--k", type=int, default=8, help="k for k_regular")
    generate.add_argument("--scale", type=float, default=16.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)

    schedule = commands.add_parser(
        "schedule", help="preprocess a matrix into a schedule"
    )
    schedule.add_argument("matrix", help="MatrixMarket file")
    schedule.add_argument("--length", type=int, default=256)
    schedule.add_argument(
        "--algorithm",
        choices=("matching", "first_fit", "euler", "naive"),
        default="matching",
    )
    schedule.add_argument("--no-load-balance", action="store_true")
    schedule.add_argument("--out", required=True)
    schedule.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="preprocess the matrix this many times (with --cache-size > 0, "
        "repeats after the first hit the schedule cache)",
    )
    schedule.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="in-memory pattern-keyed cache capacity (0 uses the default "
        "when the disk cache is active, else disables in-memory caching)",
    )
    schedule.add_argument(
        "--cache-dir",
        default=None,
        help="persistent schedule store directory (default ~/.cache/gust, "
        "or $GUST_CACHE_DIR)",
    )
    schedule.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the persistent schedule store for this run",
    )
    schedule.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the coloring pass (windows are "
        "independent, so the schedule is byte-identical to --jobs 1)",
    )

    cache = commands.add_parser(
        "cache", help="inspect or clear the persistent schedule store"
    )
    cache_actions = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_actions.add_parser(
        "stats", help="print artifact count and size of the store"
    )
    cache_stats.add_argument("--cache-dir", default=None)
    cache_clear = cache_actions.add_parser(
        "clear", help="delete every artifact in the store"
    )
    cache_clear.add_argument("--cache-dir", default=None)

    serve = commands.add_parser(
        "serve", help="run the in-process batching server under load"
    )
    serve.add_argument(
        "--matrix",
        action="append",
        default=None,
        help="MatrixMarket tenant (repeatable); omit to synthesize",
    )
    serve.add_argument("--tenants", type=int, default=2,
                       help="synthetic tenants when no --matrix is given")
    serve.add_argument("--dim", type=int, default=2048)
    serve.add_argument("--density", type=float, default=0.008)
    serve.add_argument("--length", type=int, default=64)
    serve.add_argument(
        "--algorithm",
        choices=("matching", "first_fit", "euler", "naive"),
        default="matching",
    )
    serve.add_argument("--requests", type=int, default=200,
                       help="total requests driven across all clients")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop client threads")
    serve.add_argument("--workers", type=int, default=1)
    serve.add_argument("--max-batch", type=int, default=16)
    serve.add_argument("--queue-size", type=int, default=256)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent schedule store directory (default ~/.cache/gust, "
        "or $GUST_CACHE_DIR) — a restarted server warm-starts its tenants",
    )
    serve.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the persistent schedule store for this run",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus /metrics and /healthz on this port for the "
        "duration of the run (0 picks a free port)",
    )
    serve.add_argument(
        "--metrics-linger-s",
        type=float,
        default=0.0,
        help="keep the metrics endpoint up this long after the workload "
        "finishes (so external scrapers can collect the final state)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a Chrome trace of the run and write it to PATH",
    )

    stats = commands.add_parser(
        "stats",
        help="print a Prometheus/JSON metrics scrape (from a running "
        "exporter via --url, or from a small in-process workload)",
    )
    stats.add_argument(
        "--url",
        default=None,
        help="base URL of a running metrics exporter "
        "(e.g. http://127.0.0.1:9100); scrapes it instead of running a "
        "local workload",
    )
    stats.add_argument(
        "--json", action="store_true", help="emit JSON instead of "
        "Prometheus text exposition",
    )
    stats.add_argument("--dim", type=int, default=256)
    stats.add_argument("--requests", type=int, default=32)
    stats.add_argument("--seed", type=int, default=0)

    trace = commands.add_parser(
        "trace", help="capture and export Chrome traces"
    )
    trace_actions = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_actions.add_parser(
        "export",
        help="run a representative workload with tracing on and write "
        "the Chrome trace-event JSON (open in chrome://tracing or "
        "ui.perfetto.dev)",
    )
    trace_export.add_argument("--out", required=True, metavar="PATH")
    trace_export.add_argument(
        "--workload",
        choices=("schedule", "serve"),
        default="schedule",
        help="what to trace: one compile+replay pipeline run, or a small "
        "batched serve run",
    )
    trace_export.add_argument("--dim", type=int, default=512)
    trace_export.add_argument("--length", type=int, default=64)
    trace_export.add_argument("--requests", type=int, default=32)
    trace_export.add_argument("--seed", type=int, default=0)

    bench_serve = commands.add_parser(
        "bench-serve",
        help="serving-throughput benchmark (same gates as CI)",
    )
    bench_serve.add_argument("--json", default=None, dest="json_path")

    spmv = commands.add_parser("spmv", help="run a scheduled SpMV")
    spmv.add_argument("schedule", help="schedule artifact file")
    spmv.add_argument("--seed", type=int, default=0, help="input vector seed")
    spmv.add_argument(
        "--backend",
        default="auto",
        help="execution backend (a registered name, 'auto', or "
        "'legacy-scatter'; see `repro backends`)",
    )
    spmv.add_argument(
        "--cycle-accurate",
        action="store_true",
        help="run the hardware machine instead of the fast replay",
    )

    backends = commands.add_parser(
        "backends",
        help="list execution backends, capability flags, and probe verdicts",
    )
    backends.add_argument(
        "--dim", type=int, default=256,
        help="probe matrix dimension (a small synthetic workload)",
    )

    inspect = commands.add_parser("inspect", help="describe a saved schedule")
    inspect.add_argument("schedule", help="schedule artifact file")

    chaos = commands.add_parser(
        "chaos",
        help="run the fault-injected serve smoke (seeded chaos gate)",
    )
    chaos.add_argument(
        "--seed", type=int, default=1234,
        help="fault-plan seed; the same seed replays the same faults",
    )
    chaos.add_argument(
        "--threads", type=int, default=100,
        help="concurrent client threads in the serve phase",
    )

    lint = commands.add_parser(
        "lint", help="run the project contract checker (rules R1-R9)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail on warnings (unused/unknown # lint: disable "
        "suppressions)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print rule IDs and exit"
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        dest="output_format",
        help="output as human text, machine JSON, or GitHub workflow "
        "annotations",
    )
    lint.add_argument(
        "--update-api",
        action="store_true",
        help="regenerate api_manifest.json from the tree before the R8 "
        "drift check (makes an API change deliberate)",
    )
    lint.add_argument(
        "--api-manifest",
        default=None,
        metavar="PATH",
        help="explicit API manifest for R8 (default: the checked-in "
        "src/repro/api_manifest.json when linting the whole package)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental findings cache (re-parse everything)",
    )

    compare = commands.add_parser(
        "compare", help="run all accelerator models on one matrix"
    )
    compare.add_argument("matrix", help="MatrixMarket file")
    compare.add_argument("--length", type=int, default=256)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", help="experiment name (e.g. fig7, table4)")
    experiment.add_argument("--scale", type=float, default=None)

    report = commands.add_parser(
        "report", help="run every experiment; write a markdown report"
    )
    report.add_argument("--out", required=True)
    report.add_argument(
        "--quick", action="store_true",
        help="skip the slow experiments (fig7/fig8/fig9/table4)",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset:
        matrix = load_dataset(args.dataset, scale=args.scale)
    elif args.family == "uniform":
        matrix = uniform_random(args.dim, args.dim, args.density, seed=args.seed)
    elif args.family == "power_law":
        matrix = power_law(args.dim, args.dim, args.density, seed=args.seed)
    elif args.family == "k_regular":
        matrix = k_regular(args.dim, args.dim, args.k, seed=args.seed)
    elif args.family == "banded":
        bandwidth = max(1, int(args.density * args.dim / 2))
        matrix = banded(args.dim, args.dim, bandwidth, seed=args.seed)
    else:
        block = max(2, int(args.density * args.dim))
        matrix = block_diagonal(args.dim, args.dim, block, seed=args.seed)
    write_matrix_market(matrix, args.out)
    print(f"wrote {matrix} to {args.out}")
    return 0


def _lookup_kind(notes: dict[str, float]) -> str:
    """Human label for which cache path served one preprocess call."""
    if notes.get("disk_hit"):
        return "disk refresh" if notes.get("cache_refresh") else "disk hit"
    if notes.get("cache_refresh"):
        return "refresh"
    if notes.get("cache_hit"):
        return "hit"
    return "cold"


def _cmd_schedule(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    matrix = read_matrix_market(args.matrix)
    store = None
    if not args.no_disk_cache:
        store = DiskScheduleStore(directory=args.cache_dir)
    pipeline = GustPipeline(
        args.length,
        algorithm=args.algorithm,
        load_balance=not args.no_load_balance,
        cache=args.cache_size if args.cache_size > 0 else None,
        store=store,
        jobs=args.jobs,
    )
    schedule, balanced, report = pipeline.preprocess(matrix)
    first_kind = _lookup_kind(report.notes)
    for repeat in range(1, args.repeats):
        schedule, balanced, repeat_report = pipeline.preprocess(matrix)
        kind = _lookup_kind(repeat_report.notes)
        print(
            f"repeat {repeat}: {repeat_report.seconds * 1e3:.2f} ms ({kind})"
        )
    save_schedule(args.out, schedule, balanced)
    print(
        f"scheduled {matrix} with length-{args.length} {args.algorithm}: "
        f"{schedule.window_count} windows, {schedule.total_colors} slots, "
        f"{schedule.execution_cycles} cycles/SpMV, "
        f"utilization {schedule.utilization:.1%}, "
        f"preprocessing {report.seconds * 1e3:.1f} ms ({first_kind}) "
        f"-> {args.out}"
    )
    if pipeline.cache is not None:
        stats = pipeline.cache.stats
        line = (
            f"schedule cache: {stats.hits} hits, {stats.refreshes} refreshes, "
            f"{stats.misses} misses (hit rate {stats.hit_rate:.0%})"
        )
        if store is not None:
            line += (
                f"; disk: {stats.disk_hits} hits, "
                f"{store.stats.writes} writes -> {store.directory}"
            )
        print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro import obs
    from repro.obs import trace as trace_mod
    from repro.serve import BatchPolicy, MatrixRegistry, SpmvClient, SpmvServer

    if args.requests < 1 or args.clients < 1:
        print("error: --requests and --clients must be >= 1", file=sys.stderr)
        return 2
    metrics_registry = None
    exporter = None
    if args.metrics_port is not None:
        metrics_registry = obs.MetricsRegistry()
        exporter = obs.MetricsExporter(
            metrics_registry, port=args.metrics_port
        ).start()
        print(
            f"metrics: {exporter.url}/metrics "
            f"(health: {exporter.url}/healthz)"
        )
    tracer = obs.Tracer(enabled=True) if args.trace else None
    store = None
    if not args.no_disk_cache:
        store = DiskScheduleStore(directory=args.cache_dir)
    registry = MatrixRegistry(
        length=args.length, algorithm=args.algorithm, store=store
    )
    server = SpmvServer(
        registry=registry,
        policy=BatchPolicy(
            max_batch=args.max_batch,
            max_queue=max(args.queue_size, args.max_batch),
        ),
        workers=args.workers,
        metrics_registry=metrics_registry,
    )
    entries = {}
    if args.matrix:
        for path in args.matrix:
            name = Path(path).stem
            entries[name] = server.register(name, read_matrix_market(path))
    else:
        for index in range(max(1, args.tenants)):
            name = f"tenant{index}"
            entries[name] = server.register(
                name,
                uniform_random(
                    args.dim,
                    args.dim,
                    args.density,
                    seed=args.seed + index,
                ),
            )
    for name, entry in sorted(entries.items()):
        report = entry.preprocess
        print(
            f"registered {name}: {entry.matrix} "
            f"({report.seconds * 1e3:.1f} ms, {_lookup_kind(report.notes)}; "
            f"batch backend {entry.stacked.backend})"
        )

    client = SpmvClient(server)
    names = sorted(entries)
    per_client = -(-args.requests // args.clients)
    mismatches = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        rng = np.random.default_rng(args.seed + 7000 + index)
        for request in range(per_client):
            name = names[(index + request) % len(names)]
            entry = entries[name]
            x = rng.normal(size=entry.shape[1])
            y = client.spmv(name, x, timeout=60.0, retries=50)
            if not (np.asarray(y) == entry.execute(x)).all():
                with lock:
                    mismatches.append(name)

    with trace_mod.overridden(tracer):
        with server:
            threads = [
                threading.Thread(target=client_loop, args=(i,))
                for i in range(args.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    # Snapshot only after stop() has joined the workers: a worker records
    # a batch's metrics after resolving its futures, so an in-flight
    # snapshot could still miss the final batch.
    stats = server.stats()
    print(stats.render())
    if tracer is not None:
        events = tracer.export(args.trace)
        print(f"trace: wrote {events} events to {args.trace}")
    if exporter is not None:
        if args.metrics_linger_s > 0:
            print(
                f"metrics: lingering {args.metrics_linger_s:.0f}s "
                f"at {exporter.url}/metrics"
            )
            time.sleep(args.metrics_linger_s)
        exporter.stop()
    verified = not mismatches and stats.completed == per_client * args.clients
    print(f"verified={verified} (exact match against per-request replay)")
    return 0 if verified else 1


def _stats_workload(args: argparse.Namespace) -> "object":
    """Drive a small in-process serve run; returns its populated
    metrics registry (the ``repro stats`` no-exporter path)."""
    from repro import obs
    from repro.serve import SpmvClient, SpmvServer

    registry = obs.MetricsRegistry()
    server = SpmvServer(workers=1, metrics_registry=registry)
    server.register(
        "demo",
        uniform_random(args.dim, args.dim, 0.02, seed=args.seed),
        length=32,
    )
    rng = np.random.default_rng(args.seed)
    with server:
        client = SpmvClient(server)
        for _ in range(args.requests):
            client.spmv("demo", rng.normal(size=args.dim), timeout=30.0)
    return registry


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as json_mod
    import urllib.error
    import urllib.request

    if args.url is not None:
        base = args.url.rstrip("/")
        path = "/metrics.json" if args.json else "/metrics"
        try:
            with urllib.request.urlopen(base + path, timeout=10.0) as reply:
                payload = reply.read().decode("utf-8")
        except (urllib.error.URLError, OSError) as error:
            print(f"error: scrape of {base + path} failed: {error}",
                  file=sys.stderr)
            return 1
        print(payload, end="" if payload.endswith("\n") else "\n")
        return 0
    registry = _stats_workload(args)
    if args.json:
        print(json_mod.dumps(registry.to_json(), indent=2, sort_keys=True))
    else:
        print(registry.render_prometheus(), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import trace as trace_mod

    tracer = obs.Tracer(enabled=True)
    with trace_mod.overridden(tracer):
        if args.workload == "serve":
            _stats_workload(args)
        else:
            pipeline = GustPipeline(length=args.length, cache=True)
            matrix = uniform_random(
                args.dim, args.dim, 0.02, seed=args.seed
            )
            schedule, balanced, _report = pipeline.preprocess(matrix)
            rng = np.random.default_rng(args.seed)
            for _ in range(8):
                pipeline.execute(schedule, balanced, rng.normal(size=args.dim))
            # A second preprocess of the same pattern: the trace shows
            # the memory-tier hit next to the cold compile phases.
            pipeline.preprocess(matrix)
    events = tracer.export(args.out)
    print(
        f"wrote {events} trace events to {args.out} "
        f"(open in chrome://tracing or ui.perfetto.dev)"
    )
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serve import bench

    results = bench.run(args.json_path)
    failures = bench.failures(results)
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print(
        f"PASS: batched serving >= {bench.MIN_BATCH_SPEEDUP:.1f}x at batch "
        f">= {bench.GATE_MIN_BATCH}, bit-identical, threaded run clean"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = DiskScheduleStore(directory=args.cache_dir)
    if args.cache_command == "stats":
        count = store.artifact_count()
        total = store.total_bytes()
        print(f"schedule store: {store.directory}")
        print(
            f"  {count} artifacts, {total / 1e6:.2f} MB "
            f"(budget {store.max_bytes / 1e6:.0f} MB)"
        )
        quarantined = store.quarantined_count()
        if quarantined:
            print(
                f"  {quarantined} corrupt artifact(s) quarantined in "
                f"{store.quarantine_dir}"
            )
        return 0
    removed = store.clear()
    print(f"cleared {removed} artifacts from {store.directory}")
    return 0


def _cmd_spmv(args: argparse.Namespace) -> int:
    schedule, balanced = load_schedule(args.schedule)
    pipeline = GustPipeline(schedule.length, backend=args.backend)
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=schedule.shape[1])
    if args.cycle_accurate:
        y, machine = pipeline.execute_cycle_accurate(schedule, balanced, x)
        print(
            f"machine run: {machine.cycles} cycles, "
            f"{machine.multiplier_ops} multiplies, "
            f"max FIFO depth {machine.max_fifo_depth}"
        )
    else:
        compiled = pipeline.compile_schedule(schedule, balanced)
        y = compiled.matvec(x)
        print(
            f"backend: {compiled.backend_name} "
            f"[{compiled.stats.capabilities.describe()}]"
        )
    # Verify against the oracle reconstructed from the balanced matrix.
    expected = balanced.unpermute_output(balanced.matrix.matvec(x))
    ok = np.allclose(y, expected)
    print(
        f"y[0:4] = {np.array2string(y[:4], precision=4)}  "
        f"checksum {float(np.sum(y)):.6g}  verified={ok}"
    )
    return 0 if ok else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    import os

    from repro.core.backends import (
        compile_plan,
        probe_bit_identity,
        registered_backends,
    )
    from repro.eval.tables import render_table
    from repro.sparse.generators import uniform_random

    # A small synthetic workload gives every probe a real plan to chew on.
    matrix = uniform_random(args.dim, args.dim, 0.02, seed=0)
    pipeline = GustPipeline(min(64, args.dim))
    schedule, balanced, _ = pipeline.preprocess(matrix)
    plan = pipeline.plan_for(schedule, balanced)

    rows = []
    for name, backend in registered_backends().items():
        caps = backend.capabilities
        if not backend.available():
            verdict = "unavailable (missing dependency)"
        elif caps.bit_identical:
            probed = probe_bit_identity(backend.compile(plan), plan)
            verdict = "bit-identical" if probed else "PROBE FAILED"
            if caps.probed:
                verdict += " (probed)"
        else:
            verdict = "allclose only"
        rows.append(
            [
                name,
                "yes" if caps.bit_identical else "no",
                "yes" if caps.supports_block else "no",
                "yes" if caps.thread_safe else "no",
                verdict,
            ]
        )
    print(
        render_table(
            ["backend", "bit_identical", "block", "thread_safe", "verdict"],
            rows,
            title=f"registered execution backends "
            f"(probe workload: {args.dim}x{args.dim})",
        )
    )
    auto = compile_plan(plan, backend="auto")
    override = os.environ.get("GUST_BACKEND")
    line = f"auto selects: {auto.name} (bit-identical={auto.bit_identical})"
    if override:
        line += f"  [GUST_BACKEND={override}]"
    print(line)
    print(
        "legacy-scatter (uncompiled pre-plan baseline) is additionally "
        "available through GustPipeline(backend=...)"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    schedule, balanced = load_schedule(args.schedule)
    m, n = schedule.shape
    print(f"schedule: length={schedule.length} matrix={m}x{n}")
    print(
        f"  windows={schedule.window_count} slots={schedule.total_colors} "
        f"nnz={schedule.nnz}"
    )
    print(
        f"  cycles/SpMV={schedule.execution_cycles} "
        f"utilization={schedule.utilization:.1%} "
        f"occupancy={schedule.occupancy:.1%}"
    )
    colors = schedule.window_colors
    if colors:
        print(
            f"  window colors: min={min(colors)} max={max(colors)} "
            f"mean={sum(colors) / len(colors):.1f}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.accelerators import (
        AdderTree,
        Fafnir,
        FlexTpu,
        GustAccelerator,
        Serpens,
        Systolic1D,
    )
    from repro.eval.tables import render_table

    matrix = read_matrix_market(args.matrix)
    length = args.length
    designs = [
        Systolic1D(length),
        AdderTree(length),
        FlexTpu.with_units(length),
        Fafnir(max(2, length // 2)),
        Serpens(),
        GustAccelerator(length, algorithm="naive", load_balance=False),
        GustAccelerator(length, algorithm="matching", load_balance=False),
        GustAccelerator(length, algorithm="matching", load_balance=True),
    ]
    rows = []
    for design in designs:
        report = design.run(matrix)
        rows.append(
            [design.name, report.cycles, f"{report.utilization:.3%}"]
        )
    print(render_table(["design", "cycles", "utilization"], rows,
                       title=f"{args.matrix}: {matrix}"))
    return 0


def _experiment_registry():
    from repro.eval import experiments as experiments_pkg

    return {
        "backends": experiments_pkg.backend_throughput,
        "table1": experiments_pkg.table1_qualities,
        "table2": experiments_pkg.table2_resources,
        "table3": experiments_pkg.table3_datasets,
        "table4": experiments_pkg.table4_serpens,
        "table5": experiments_pkg.table5_partitions,
        "fig7": experiments_pkg.fig7_utilization,
        "fig8": experiments_pkg.fig8_speedup,
        "fig9": experiments_pkg.fig9_bandwidth,
        "naive_crossover": experiments_pkg.naive_crossover,
        "bound": experiments_pkg.bound_validation,
        "scalability": experiments_pkg.scalability,
        "ablation": experiments_pkg.coloring_ablation,
        "length_sweep": experiments_pkg.length_sweep,
        "structure": experiments_pkg.structure_sensitivity,
        "bandwidth": experiments_pkg.bandwidth_provisioning,
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.name not in registry:
        print(
            f"unknown experiment {args.name!r}; choose from "
            f"{', '.join(sorted(registry))}",
            file=sys.stderr,
        )
        return 2
    module = registry[args.name]
    kwargs = {}
    if args.scale is not None:
        import inspect as _inspect

        if "scale" in _inspect.signature(module.run).parameters:
            kwargs["scale"] = args.scale
    result = module.run(**kwargs)
    print(result.render())
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.serve.chaos import run_chaos

    report = run_chaos(seed=args.seed, threads=args.threads)
    print(report.render())
    return 0 if report.passed() else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULE_DOCS, lint_paths

    if args.list_rules:
        for rule_id in sorted(RULE_DOCS):
            print(f"{rule_id}  {RULE_DOCS[rule_id]}")
        return 0
    report = lint_paths(
        [Path(p) for p in args.paths] or None,
        use_cache=not args.no_cache,
        api_manifest=Path(args.api_manifest) if args.api_manifest else None,
        update_api=args.update_api,
    )
    if args.output_format == "json":
        print(report.to_json())
    elif args.output_format == "github":
        print(report.render_github())
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import render_markdown, run_all

    registry = _experiment_registry()
    if args.quick:
        slow = {"fig7", "fig8", "fig9", "table1", "table4"}
        registry = {k: v for k, v in registry.items() if k not in slow}
    results = run_all(registry)
    Path(args.out).write_text(render_markdown(results), encoding="utf-8")
    print(f"wrote report on {len(results)} experiments to {args.out}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "schedule": _cmd_schedule,
    "cache": _cmd_cache,
    "spmv": _cmd_spmv,
    "backends": _cmd_backends,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "bench-serve": _cmd_bench_serve,
    "inspect": _cmd_inspect,
    "chaos": _cmd_chaos,
    "lint": _cmd_lint,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
