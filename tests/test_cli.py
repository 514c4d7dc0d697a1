"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

# Exact store/cache/validation counter assertions: opt out of the
# ambient GUST_FAULTS plan the fault-injection CI leg installs.
pytestmark = pytest.mark.usefixtures("no_faults")
from repro.sparse.mmio import read_matrix_market, write_matrix_market


@pytest.fixture
def matrix_file(tmp_path, small_matrix):
    path = tmp_path / "m.mtx"
    write_matrix_market(small_matrix, path)
    return path


class TestGenerate:
    def test_uniform(self, tmp_path, capsys):
        out = tmp_path / "u.mtx"
        code = main(
            [
                "generate", "--family", "uniform", "--dim", "64",
                "--density", "0.05", "--out", str(out),
            ]
        )
        assert code == 0
        matrix = read_matrix_market(out)
        assert matrix.shape == (64, 64)
        assert "wrote" in capsys.readouterr().out

    def test_dataset_surrogate(self, tmp_path, capsys):
        out = tmp_path / "d.mtx"
        code = main(
            [
                "generate", "--dataset", "wiki-Vote", "--scale", "64",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert read_matrix_market(out).nnz > 0

    def test_k_regular(self, tmp_path):
        out = tmp_path / "k.mtx"
        code = main(
            [
                "generate", "--family", "k_regular", "--dim", "32",
                "--k", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert (read_matrix_market(out).row_counts() == 3).all()


class TestScheduleAndSpmv:
    def test_schedule_then_spmv(self, matrix_file, tmp_path, capsys):
        sched = tmp_path / "m.sched"
        code = main(
            ["schedule", str(matrix_file), "--length", "16", "--out", str(sched)]
        )
        assert code == 0
        assert "utilization" in capsys.readouterr().out

        code = main(["spmv", str(sched), "--seed", "3"])
        assert code == 0
        assert "verified=True" in capsys.readouterr().out

    def test_spmv_backend_flag(self, matrix_file, tmp_path, capsys):
        sched = tmp_path / "m.sched"
        main(["schedule", str(matrix_file), "--length", "16", "--out", str(sched)])
        capsys.readouterr()
        for backend in ("bincount", "legacy-scatter"):
            code = main(["spmv", str(sched), "--backend", backend])
            out = capsys.readouterr().out
            assert code == 0
            assert f"backend: {backend}" in out
            assert "verified=True" in out

    def test_spmv_unknown_backend_errors(self, matrix_file, tmp_path, capsys):
        sched = tmp_path / "m.sched"
        main(["schedule", str(matrix_file), "--length", "16", "--out", str(sched)])
        capsys.readouterr()
        code = main(["spmv", str(sched), "--backend", "gpu"])
        assert code == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_spmv_cycle_accurate(self, matrix_file, tmp_path, capsys):
        sched = tmp_path / "m.sched"
        main(["schedule", str(matrix_file), "--length", "16", "--out", str(sched)])
        capsys.readouterr()
        code = main(["spmv", str(sched), "--cycle-accurate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "machine run" in out
        assert "verified=True" in out

    def test_inspect(self, matrix_file, tmp_path, capsys):
        sched = tmp_path / "m.sched"
        main(["schedule", str(matrix_file), "--length", "16", "--out", str(sched)])
        capsys.readouterr()
        code = main(["inspect", str(sched)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycles/SpMV" in out
        assert "window colors" in out

    def test_naive_algorithm(self, matrix_file, tmp_path, capsys):
        sched = tmp_path / "naive.sched"
        code = main(
            [
                "schedule", str(matrix_file), "--length", "16",
                "--algorithm", "naive", "--out", str(sched),
            ]
        )
        assert code == 0
        assert "naive" in capsys.readouterr().out


class TestPersistentCache:
    def test_second_run_warm_starts_from_disk(
        self, matrix_file, tmp_path, capsys
    ):
        """Two CLI invocations sharing --cache-dir model two worker
        processes: the second must report a disk hit, not a cold pass."""
        cache_dir = tmp_path / "store"
        argv = [
            "schedule", str(matrix_file), "--length", "16",
            "--out", str(tmp_path / "a.sched"), "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(cold)" in first
        assert "1 writes" in first

        argv[5] = str(tmp_path / "b.sched")
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(disk hit)" in second
        assert "disk: 1 hits" in second

    def test_default_store_honors_gust_cache_dir_env(
        self, matrix_file, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "env-store"
        monkeypatch.setenv("GUST_CACHE_DIR", str(target))
        code = main(
            [
                "schedule", str(matrix_file), "--length", "16",
                "--out", str(tmp_path / "s.sched"),
            ]
        )
        assert code == 0
        assert target.is_dir()
        assert any(p.suffix == ".sched" for p in target.iterdir())

    def test_no_disk_cache_writes_nothing(
        self, matrix_file, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "untouched"
        monkeypatch.setenv("GUST_CACHE_DIR", str(target))
        code = main(
            [
                "schedule", str(matrix_file), "--length", "16",
                "--out", str(tmp_path / "s.sched"), "--no-disk-cache",
            ]
        )
        assert code == 0
        assert not target.exists()
        assert "disk:" not in capsys.readouterr().out

    def test_repeats_report_memory_hits_over_disk(
        self, matrix_file, tmp_path, capsys
    ):
        code = main(
            [
                "schedule", str(matrix_file), "--length", "16",
                "--out", str(tmp_path / "r.sched"),
                "--cache-dir", str(tmp_path / "store"), "--repeats", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("(hit)") == 2, "repeats are memory hits, not disk"

    def test_cache_stats_and_clear(self, matrix_file, tmp_path, capsys):
        cache_dir = tmp_path / "store"
        main(
            [
                "schedule", str(matrix_file), "--length", "16",
                "--out", str(tmp_path / "s.sched"),
                "--cache-dir", str(cache_dir),
            ]
        )
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 artifacts" in out
        assert str(cache_dir) in out

        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared 1 artifacts" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 artifacts" in capsys.readouterr().out


class TestCompare:
    def test_compare_table(self, matrix_file, capsys):
        code = main(["compare", str(matrix_file), "--length", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GUST-EC/LB" in out
        assert "1D" in out
        assert "Serpens" in out


class TestBackendsCommand:
    def test_lists_backends_and_verdicts(self, capsys):
        code = main(["backends", "--dim", "64"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("scatter", "bincount", "reduceat"):
            assert name in out
        assert "auto selects:" in out
        assert "allclose only" in out  # reduceat's verdict
        assert "PROBE FAILED" not in out


class TestExperiment:
    def test_known_experiment(self, capsys):
        code = main(["experiment", "table5"])
        assert code == 0
        assert "crossbar" in capsys.readouterr().out.lower()

    def test_unknown_experiment(self, capsys):
        code = main(["experiment", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestJobsFlag:
    def test_schedule_jobs_byte_identical(self, matrix_file, tmp_path, capsys):
        """--jobs 2 is a throughput knob only: the written schedule must be
        byte-identical to the serial one."""
        serial = tmp_path / "serial.sched"
        pooled = tmp_path / "pooled.sched"
        assert main(
            ["schedule", str(matrix_file), "--length", "16",
             "--out", str(serial)]
        ) == 0
        assert main(
            ["schedule", str(matrix_file), "--length", "16",
             "--jobs", "2", "--out", str(pooled)]
        ) == 0
        capsys.readouterr()
        assert pooled.read_bytes() == serial.read_bytes()

    def test_schedule_jobs_invalid(self, matrix_file, tmp_path, capsys):
        code = main(
            ["schedule", str(matrix_file), "--length", "16",
             "--jobs", "0", "--out", str(tmp_path / "x.sched")]
        )
        assert code == 2
        assert "--jobs" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["schedule", "no_such.mtx", "--out", "x.sched"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_generate_args(self, tmp_path, capsys):
        out = tmp_path / "bad.mtx"
        code = main(
            [
                "generate", "--family", "uniform", "--dim", "16",
                "--density", "2.0", "--out", str(out),
            ]
        )
        assert code == 1


class TestServe:
    def test_serve_synthetic_tenants(self, capsys):
        code = main(
            [
                "serve", "--tenants", "2", "--clients", "4",
                "--requests", "24", "--dim", "96", "--density", "0.05",
                "--length", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verified=True" in out
        assert "batch histogram" in out
        assert "registered tenant0" in out

    def test_serve_matrix_file(self, matrix_file, capsys):
        code = main(
            [
                "serve", "--matrix", str(matrix_file), "--clients", "2",
                "--requests", "10", "--length", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verified=True" in out

    def test_serve_rejects_bad_request_count(self, capsys):
        code = main(["serve", "--requests", "0"])
        assert code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestObservability:
    def test_stats_local_workload_prints_prometheus(self, capsys):
        code = main(["stats", "--dim", "64", "--requests", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE gust_requests_total counter" in out
        assert "gust_batch_size_bucket" in out
        assert out.rstrip().startswith("# ")

    def test_stats_json_parses(self, capsys):
        import json

        code = main(["stats", "--json", "--dim", "64", "--requests", "8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gust_requests_total"]["type"] == "counter"

    def test_stats_unreachable_url_exits_one(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["stats", "--url", f"http://127.0.0.1:{free_port}"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_trace_export_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main(
            ["trace", "export", "--out", str(out), "--dim", "64",
             "--length", "16"]
        )
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert "compile.coloring" in names
        assert "replay.execute" in names

    def test_serve_with_metrics_port_and_trace(self, tmp_path, capsys):
        import json

        trace_out = tmp_path / "serve-trace.json"
        code = main(
            [
                "serve", "--tenants", "1", "--clients", "2",
                "--requests", "12", "--dim", "64", "--length", "16",
                "--metrics-port", "0", "--trace", str(trace_out),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verified=True" in out
        assert "/metrics" in out
        names = {
            event["name"]
            for event in json.loads(trace_out.read_text())["traceEvents"]
        }
        assert {"serve.batch", "serve.kernel", "serve.enqueue"} <= names
