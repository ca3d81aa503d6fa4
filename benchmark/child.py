"""Workload process: runs rounds of one workload for a time budget and reports.

Started by run.py with BLAS pinned to one thread, CAUCHYDOS_THREADS set for
the workload and an absolute ``src`` path. Prints log lines, then one JSON
object as its last line of standard output.

usage: child.py WORKLOAD SEED SECONDS TRACE OUT_DIR
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import LAYER_METRICS, Tracer

END_TO_END = {"wall_s": "s", "cpu_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB",
              "pass_ratio": "ratio"}
MIN_ROUNDS = 3
MAX_ROUNDS = 999  # master seeds are 1000 * seed + round


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Counts operations and the ones that failed, by name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, op) -> None:
        self.attempted += 1
        try:
            op.run()
        except workloads.GateMiss as miss:
            self.failures.append(f"{op.name}: {miss}")
        except (Exception, SystemExit) as exc:  # an op that crashes is a failed op
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{op.name}: {type(exc).__name__}: {exc}")


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path,
                 sizes: dict | None = None, min_rounds: int = MIN_ROUNDS) -> dict:
    workload = workloads.WORKLOADS[name](seed, out, sizes)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    runner = Runner()
    rounds = []  # (wall_s, cpu_s, work)
    start = time.perf_counter()
    try:
        for r in range(MAX_ROUNDS):
            ops, work = workload.round_ops(r)
            span = tracer.open("bench") if tracer else None
            c0, t0 = cpu_seconds(), time.perf_counter()
            for op in ops:
                runner.run(op)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            if span:
                tracer.close(span)
            rounds.append((wall, cpu, work))
            # stop when the next round would likely end past the budget
            if len(rounds) >= min_rounds and time.perf_counter() - start + wall > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    for op in workload.final_ops():
        runner.run(op)

    if trace:
        metrics, units = tracer.metrics(len(rounds)), LAYER_METRICS
    else:
        units = END_TO_END
        metrics = {
            "wall_s": statistics.median(w for w, _, _ in rounds),
            "cpu_s": statistics.median(c for _, c, _ in rounds),
            "work_per_s": statistics.median(n / w for w, _, n in rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (runner.attempted - len(runner.failures)) / runner.attempted,
        }
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "rounds": len(rounds),
        "work_per_round": rounds[0][2],
        "work_unit": workload.work_unit,
        "sizes": workload.sizes,
        "gates": workload.gates.worst,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "environment": versions(),
    }


def main(argv: list) -> int:
    name, seed, seconds, trace, out = argv
    result = run_workload(name, int(seed), float(seconds), trace == "1", Path(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
