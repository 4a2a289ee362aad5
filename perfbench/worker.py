"""One workload in one process: its set-up, or its timed operations.

    python3 perfbench/worker.py setup   --workload W --seed S --workdir D
    python3 perfbench/worker.py measure --workload W --seed S --workdir D \
        --seconds R --trace 0|1

`run.py` starts this with `src` on PYTHONPATH.  Both phases import the
package at start, as a user's first command would, so the set-up time
covers its imports.  `setup` builds the inputs in the work directory.  `measure` runs whole operations until their summed
time reaches R seconds (at least one), then checks every operation's
outputs, and prints one JSON object as its last line of standard output.
With `--trace 1` it also runs the set-up itself, so that the spans cover
one set-up and the operations.  `--smoke` selects the small sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from afdeconv import cli

import spans
import workloads


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th operation of a run, derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def checked(workload, workdir: Path, outdir: Path, seed: int) -> list[str]:
    """The workload's check failures for one operation; a check that raises
    on a missing or garbled output file fails with the exception's text."""
    try:
        return workload.check(workdir, outdir, seed)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def measure(workload, workdir: Path, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        workload.setup(workdir, seed)
    op_times, outcomes = [], []
    log_path = workdir / "operations.log"
    with open(log_path, "w") as log:
        while not op_times or sum(op_times) < seconds:
            index = len(op_times)
            outdir = workdir / f"op{index:03d}"
            argv = workload.argv(workdir, outdir, op_seed(seed, index))
            if tracer is not None:
                tracer.phase = f"op{index}"
            gc.collect()
            with contextlib.redirect_stdout(log):
                start = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # an operation that raises counts as failed
                    code = None
                    traceback.print_exc(file=log)
                op_times.append(perf_counter() - start)
            outcomes.append((outdir, code))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    failed_ops = [f"{outdir.name}: exit code {code}"
                  for outdir, code in outcomes if code != 0]
    check_failures = [f"{outdir.name}: {msg}"
                      for outdir, code in outcomes if code == 0
                      for msg in checked(workload, workdir, outdir, seed)]
    layers = {}
    if tracer is not None:
        try:
            layers = spans.per_layer(tracer.totals(),
                                     [f"op{i}" for i in range(len(op_times))])
        except ValueError as exc:
            check_failures.append(str(exc))
    result = {
        "attempted": len(op_times),
        "failed": len(failed_ops),
        "correct": not check_failures,
        "failed_operations": failed_ops,
        "check_failures": check_failures,
        "op_times": op_times,
        "peak_rss_mib": peak_rss_mib,
        "operations_log": log_path.read_text()[-20000:],
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = layers
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    if args.phase == "setup":
        workload.setup(args.workdir, args.seed)
        return 0
    result = measure(workload, args.workdir, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
