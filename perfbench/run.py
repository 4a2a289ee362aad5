"""Benchmark of afdeconv: three workloads, each one call of `afdeconv.cli.main`
per operation, timed end to end or traced per module.

    python3 perfbench/run.py --workload rate-ladder --seed 1 --seconds 10 --trace 0

Run it from anywhere; it finds the repository from its own location and
imports the package from `src`.  With `--trace 0` it sets the workload up
a fixed number of times (the workload's `setups`), each in a fresh process
and directory, then runs the operations in one more process, and reports
`setup_s` (median set-up), `op_s` (median operation) and `peak_rss_mib`
(peak resident memory of the operations' process).  With `--trace 1` the
operations' process sets up once itself and reports the per-layer metrics
of `BENCHMARK.json` for the set-up plus the first operation (see
`spans.per_layer`).  `--smoke` runs the small sizes.

Every run writes a record to `perfbench_out/records/`; the last line of
standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
# A run must end within 180 s; the worker processes share this budget.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], env: dict, deadline: float, capture: bool) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the run ended")
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr) as proc:
        # A blocking wait ends when the process does (a wait with a timeout
        # polls, which rounds set-up times up); the timer enforces the budget.
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
    if proc.returncode < 0:
        raise BenchError(f"worker {args[0]} was stopped by signal {-proc.returncode}")
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return out or ""


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "afdeconv" / "__init__.py").is_file():
        raise BenchError(f"no afdeconv sources under {ROOT / 'src'}")
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    deadline = time.monotonic() + BUDGET_S
    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
           "OPENBLAS_NUM_THREADS": str(nproc), "OMP_NUM_THREADS": str(nproc)}
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setups = 0 if trace else (workloads.SMOKE if smoke else workloads.WORKLOADS)[workload].setups
    setup_times = []
    setdir = workdir / "setup0"
    try:
        setdir.mkdir(parents=True)
        for index in range(setups):
            if index:
                # Deleting a set-up's files at once drops their unwritten
                # pages, so the next set-up does not wait behind their write-back.
                shutil.rmtree(setdir)
                setdir = workdir / f"setup{index}"
                setdir.mkdir()
            start = time.perf_counter()
            _worker(["setup", *common, "--workdir", str(setdir)], env, deadline,
                    capture=False)
            setup_times.append(time.perf_counter() - start)
        out = _worker(["measure", *common, "--workdir", str(setdir),
                       "--seconds", str(seconds), "--trace", str(int(trace))],
                      env, deadline, capture=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    if trace:
        wanted = spec["per_layer"]
        measured = result["layers"]
    else:
        wanted = spec["end_to_end"]
        measured = {"setup_s": statistics.median(setup_times),
                    "op_s": statistics.median(result["op_times"]),
                    "peak_rss_mib": result["peak_rss_mib"]}
    # A layer that the workload never calls has no spans: zero calls, 0 s.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, **line,
              "setup_times": setup_times,
              **{k: v for k, v in result.items() if k not in line}}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its small size")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.smoke)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (records / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
