"""Benchmark of cauchydos: one workload per run, through the public CLI and library.

usage: python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in its own process with
BLAS pinned to one thread, CAUCHYDOS_THREADS set per workload and the
checkout's ``src`` directory on an absolute PYTHONPATH. With ``--trace 0`` the
last line of standard output holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run. See benchmark/README.md for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("dos-trace", "ids-charfn", "exact-curves")
THREADS = {"dos-trace": 2, "ids-charfn": 1, "exact-curves": 1}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cauchydos.cli\n"
    "t1 = time.perf_counter()\n"
    "import os, cauchydos\n"
    "print(repr(t1 - t0), os.path.dirname(cauchydos.__file__))\n"
)


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # absolute, so the child's cwd does not matter
    for var in BLAS_VARS:
        env[var] = "1"
    env["CAUCHYDOS_THREADS"] = str(THREADS[workload])
    return env


def measure_setup(env: dict, deadline: float) -> float:
    """Median import time of cauchydos with numpy/scipy over fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import cauchydos from {SRC}:\n{proc.stderr}")
        seconds, package = proc.stdout.split()
        if Path(package).resolve() != SRC / "cauchydos":
            raise RuntimeError(f"imported cauchydos from {package}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "cauchydos" / "__init__.py").is_file():
        print(f"error: no cauchydos package under {SRC}", file=sys.stderr)
        return 2

    env = child_env(args.workload)
    out = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None
        if args.trace == "0":
            setup_s = measure_setup(env, deadline)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
             repr(args.seconds), args.trace, str(out)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    if proc.returncode != 0:
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": result["rounds"],
                      "work_per_round": f"{result['work_per_round']} {result['work_unit']}",
                      "sizes": result["sizes"],
                      "environment": dict(result["environment"], nproc=os.cpu_count(),
                                          blas_threads=1,
                                          CAUCHYDOS_THREADS=THREADS[args.workload])}))
    for name, gate in sorted(result["gates"].items()):
        status = "ok" if gate["misses"] == 0 else f"MISSED {gate['misses']}x"
        print(f"gate {name}: worst {gate['worst']:.4g} <= {gate['limit']:g} "
              f"over {gate['checks']} checks: {status}")
    for failure in result["failures"]:
        print(f"failed operation: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
