"""Run the GUST benchmark.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: ``cold-compile`` and ``warm-solve`` (see
``gustbench/workloads.py``), or ``all`` to run each in its own process and
print one row per workload.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` installs the layer wrappers and reports the per-layer
metrics, and writes the Chrome trace to ``--out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from the ``src/`` directory beside this one; without it the run
fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"


def _arguments(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workload_names, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".perfbench_out",
        help="directory for the results file and the Chrome trace",
    )
    return parser.parse_args(argv)


def _import_library():
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"error: the library source is missing: {SOURCE / 'repro'}")
    sys.path[:0] = [str(SOURCE), str(HERE)]


def _table(rows: dict[str, dict], failures: dict[str, tuple[int, int]]) -> str:
    """One row per workload, one column per metric (name [unit])."""
    names = [name for name in next(iter(rows.values())) if name != "failed_frac"]
    header = ["workload"] + [
        f"{name} [{next(iter(rows.values()))[name][1]}]" for name in names
    ] + ["failed_frac [ratio]"]
    lines = [header]
    for workload, metrics in rows.items():
        failed, attempted = failures[workload]
        lines.append(
            [workload]
            + [f"{metrics[name][0]:.6g}" for name in names]
            + [f"{failed / attempted:.6g}"]
        )
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        for line in lines
    )


def _run_one(args) -> dict:
    from gustbench import workloads
    from repro.obs import trace as obs_trace

    # Tracing stays off in untraced runs whatever the environment says.
    obs_trace.install(obs_trace.Tracer(enabled=False))
    workload = workloads.WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        work_dir.mkdir(parents=True, exist_ok=True)
        result = workloads.run(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work_dir=work_dir,
            trace_path=args.out / f"{stem}.trace.json" if args.trace else None,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }
    with open(args.out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {**summary, "notes": result.notes, "details": result.details},
            handle,
            indent=1,
        )
    print(_table({workload.name: result.metrics},
                 {workload.name: (result.failed, result.attempted)}))
    for name, note in result.notes.items():
        print(f"  {name}: {note}")
    if result.details["reasons"]:
        print(f"  failures: {result.details['reasons']}")
    return summary


def _run_all(args, workload_names) -> dict:
    """Each workload in its own process (peak memory is per workload)."""
    rows, failures = {}, {}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(args.out),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        summary = json.loads(child.stdout.strip().splitlines()[-1])
        rows[name] = {
            metric: (entry["value"], entry["unit"])
            for metric, entry in summary["metrics"].items()
        }
        failures[name] = (summary["failed"], summary["attempted"])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for metric, entry in summary["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(_table(rows, failures))
    return combined


def main(argv=None) -> int:
    _import_library()
    from gustbench.workloads import WORKLOADS

    args = _arguments(argv, list(WORKLOADS))
    if args.workload == "all":
        summary = _run_all(args, list(WORKLOADS))
    else:
        summary = _run_one(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
