"""The benchmark's own tests: BENCHMARK.json, oracles, determinism, self time.

Every workload runs here on tiny inputs for about a second; the numbers
are meaningless, the names, units, oracles and counts are not.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gustbench import hostspeed, inputs, layers, paths, roofline, workloads
from gustbench.paths import Checker

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_L3 = 1 << 20
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(tmp_path, workload="cold-compile", trace=False, seed=3, **kwargs):
    return workloads.run(
        workloads.WORKLOADS[workload],
        seed=seed,
        seconds=1.0,
        trace=trace,
        work_dir=tmp_path,
        sizes=workloads.TINY,
        fixed_counts=True,
        l3_bytes=TINY_L3,
        **kwargs,
    )


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1].startswith("perfbench/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    seen = set(names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert metric["name"] not in seen, metric
        seen.add(metric["name"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_metric_tables_match_benchmark_json():
    assert workloads.END_TO_END == _declared("end_to_end")
    assert workloads.PER_LAYER == _declared("per_layer")


# -- smoke runs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_each_workload_reports_every_end_to_end_metric(tmp_path, workload):
    result = _run(tmp_path, workload)
    assert result.correct, result.details["reasons"]
    assert result.failed == 0 and result.attempted > 0
    units = {name: unit for name, (_, unit) in result.metrics.items()}
    assert units == _declared("end_to_end")
    for name, (value, _) in result.metrics.items():
        assert math.isfinite(value) and value > 0, name


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    trace_path = tmp_path / "trace.json"
    result = _run(tmp_path, "warm-solve", trace=True, trace_path=trace_path)
    assert result.correct, result.details["reasons"]
    units = {name: unit for name, (_, unit) in result.metrics.items()}
    assert units == _declared("per_layer")
    values = {name: value for name, (value, _) in result.metrics.items()}
    assert all(math.isfinite(v) for v in values.values())
    assert result.notes["trace.dropped"] == "0"
    assert values["cache.misses"] == 3
    assert values["cache.disk_hits"] == 3 * paths.DISK_RELOADS
    assert values["cache.refreshes"] == 1
    assert values["backends.matvec_calls"] == values["solvers.spmv_count"]
    assert 0 < values["solvers.spmv_share"] < 1
    events = json.loads(trace_path.read_text())["traceEvents"]
    names = {event["name"] for event in events}
    assert {"sparse.canonicalize", "scheduler.schedule", "compile.coloring",
            "store.write", "cache.disk_load", "solvers.jacobi",
            "server.run_batch", "serve.kernel"} <= names


def test_untraced_runs_install_no_wrappers(tmp_path):
    from repro.core.compiled import CompiledSpmv
    from repro.sparse.coo import CooMatrix

    matvec, from_arrays = CompiledSpmv.matvec, vars(CooMatrix)["from_arrays"]
    _run(tmp_path, "warm-solve")
    assert CompiledSpmv.matvec is matvec
    assert vars(CooMatrix)["from_arrays"] is from_arrays
    with layers.Instrument():
        assert CompiledSpmv.matvec is not matvec
    assert CompiledSpmv.matvec is matvec


# -- oracles ------------------------------------------------------------------


def test_corrupted_compile_output_is_one_failure(tmp_path):
    checker = Checker(corrupt_first=True)
    raws = inputs.raw_triplets(workloads.TINY.compile_set, seed=5)
    session = paths.CompileSession(raws, tmp_path, seed=5)
    session.run(0.0, checker, layers.Untraced(), hostspeed.Speedometer(), max_rounds=1)
    assert checker.attempted == 3 * (1 + paths.DISK_RELOADS)
    assert checker.failed == 1 and not checker.correct
    assert list(checker.reasons) == ["compiled handle differs from the scatter oracle"]


def test_corrupted_solve_output_is_one_failure():
    checker = Checker(corrupt_first=True)
    session = paths.SolveSession(inputs.solve_problem("cage12", 128, seed=5))
    for _ in range(2):
        session.run(0.0, checker, layers.Untraced(), hostspeed.Speedometer())
    session.check_repeatable(checker, layers.Untraced())
    assert checker.attempted == 3
    assert checker.failed == 1 and not checker.correct


def test_corrupted_served_reply_is_one_failure():
    checker = Checker(corrupt_first=True)
    session = paths.ServeSession(inputs.tenants(workloads.TINY.tenants, seed=5))
    session.start(seed=5)
    session.run_low(400, 0.2, layers.Untraced())
    session.run_ladder((1000,), 0.1, layers.Untraced())
    result = session.finish(checker, layers.Untraced())
    answered = sum(r.outcome == "ok" for s in result.ladder for r in s.requests)
    assert checker.attempted == 80 + answered
    assert checker.failed == 1 and not checker.correct
    assert list(checker.reasons) == ["served reply matches no live value version"]
    assert all(rung.lag_max_ms >= rung.lag_ms for rung in result.rungs)
    assert 0 < result.capacity_rps == max(r.answered_rps for r in result.rungs)


def test_worker_callback_keeps_the_reply_and_the_generator_fingerprints_it():
    outstanding = paths._Outstanding()
    request = paths.Request(tenant=0, vector=0, due=0.0)
    future = concurrent.futures.Future()
    outstanding.add()
    future.add_done_callback(lambda f: outstanding.settle(request, f))
    reply = np.arange(5.0)
    future.set_result(reply)
    assert request.outcome == "ok" and request.reply is None
    assert request.value is reply
    assert outstanding.wait(timeout=1.0)
    assert request.value is None and request.reply == paths.fingerprint(reply)


def test_fingerprint_sees_one_changed_or_swapped_element():
    rng = np.random.default_rng(0)
    y = rng.normal(size=257)
    changed = y.copy()
    changed[100] = np.nextafter(changed[100], 1.0)
    swapped = y.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    base = paths.fingerprint(y)
    assert base == paths.fingerprint(y.copy())
    assert base != paths.fingerprint(changed)
    assert base != paths.fingerprint(swapped)
    assert paths.fingerprint(np.stack([y, y], axis=1)[:, 1]) == base


# -- determinism --------------------------------------------------------------


def test_one_seed_reproduces_counts_exactly(tmp_path):
    traced = [
        dict((k, v) for k, (v, _) in _run(tmp_path, "warm-solve", True).metrics.items())
        for _ in range(2)
    ]
    plain = [
        _run(tmp_path, "cold-compile").metrics["hw_utilization"][0]
        for _ in range(2)
    ]
    for name in ("scheduler.colors", "solvers.iterations", "solvers.spmv_count"):
        assert traced[0][name] == traced[1][name], name
    assert traced[0]["solvers.iterations"] > 1
    assert plain[0] == plain[1] and 0 < plain[0] <= 1


def test_seed_changes_inputs_not_structure():
    a = inputs.raw_triplets(workloads.TINY.compile_set[:1], seed=1)[0]
    b = inputs.raw_triplets(workloads.TINY.compile_set[:1], seed=1)[0]
    c = inputs.raw_triplets(workloads.TINY.compile_set[:1], seed=2)[0]
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.data, b.data)
    assert not np.array_equal(a.rows, c.rows)
    assert a.canonical().nnz == c.canonical().nnz


# -- tracing arithmetic -------------------------------------------------------


def _event(name, start, duration, thread=1):
    return {"name": name, "ph": "X", "ts_s": start, "dur_s": duration,
            "tid": thread, "args": {}}


def test_self_time_subtracts_same_thread_children_only():
    events = [
        _event("phase.cold", 0.0, 10.0),
        _event("pipeline.compile", 1.0, 5.0),
        _event("load_balance.balance", 1.5, 1.0),
        _event("sparse.canonicalize", 1.6, 0.5),
        _event("scheduler.schedule", 3.0, 2.0),
        _event("server.run_batch", 2.0, 4.0, thread=2),
        {"name": "serve.enqueue", "ph": "i", "ts_s": 1.0, "dur_s": 0.0,
         "tid": 1, "args": {}},
    ]
    spans = {s.name: s for s in layers.spans_with_self_time(events)}
    assert spans["pipeline.compile"].self_s == pytest.approx(2.0)
    assert spans["load_balance.balance"].self_s == pytest.approx(0.5)
    assert spans["sparse.canonicalize"].self_s == pytest.approx(0.5)
    assert spans["server.run_batch"].self_s == pytest.approx(4.0)
    grouped = layers.by_phase(list(spans.values()))
    assert {s.name for s in grouped["cold"]} == set(spans) - {"phase.cold"}


def test_program_spans_map_to_layers():
    assert layers.layer_of("compile.coloring") == "scheduler"
    assert layers.layer_of("compile.load_balance") == "load_balance"
    assert layers.layer_of("replay.execute") == "pipeline"
    assert layers.layer_of("store.read") == "store"
    assert layers.layer_of("cache.disk_load") == "cache"
    assert layers.layer_of("serve.kernel") == "server"


def test_l3_size_falls_back_from_sysconf_to_sysfs_to_default(tmp_path, monkeypatch):
    def unknown(name):
        raise ValueError(name)

    monkeypatch.setattr(roofline.os, "sysconf", unknown)
    size_file = tmp_path / "size"
    size_file.write_text("107520K\n")
    monkeypatch.setattr(roofline, "_SYSFS_L3", size_file)
    assert roofline.l3_cache_bytes() == 105 * 2**20
    monkeypatch.setattr(roofline, "_SYSFS_L3", tmp_path / "missing")
    assert roofline.l3_cache_bytes() == roofline.DEFAULT_L3_BYTES


def test_trimmed_mean_drops_one_stalled_round_in_ten():
    assert workloads._trimmed_mean([1.0] * 5 + [2.0] * 4 + [50.0]) == pytest.approx(1.5)
    assert workloads._trimmed_mean([3.0, 5.0]) == 4.0


def test_speedometer_scales_each_sample_by_the_readings_around_it(monkeypatch):
    reference = hostspeed.REFERENCE_S
    readings = iter([reference, 3 * reference, 2 * reference])
    monkeypatch.setattr(
        hostspeed.Speedometer, "_reading", lambda self: next(readings)
    )
    monkeypatch.setattr(hostspeed, "READ_PERIOD_S", math.inf)
    speed = hostspeed.Speedometer()
    scaled = []
    speed.add(scaled, 1.0)
    speed.add(scaled, 2.0)
    assert scaled == []
    speed.flush()
    assert scaled == pytest.approx([0.5, 1.0])
    speed.add(scaled, 5.0)
    speed.flush()
    assert scaled[-1] == pytest.approx(2.0)
    speed.flush()
    assert len(speed.readings) == 3
    assert speed.factor == pytest.approx(2.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert paths.tail_percentile(19) == 50
    assert paths.tail_percentile(40) == 75
    assert paths.tail_percentile(100) == 90
    assert paths.tail_percentile(1000) == 99
    assert paths.tail_percentile(10000) == 99.9


# -- the command --------------------------------------------------------------


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
