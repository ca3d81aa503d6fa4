"""Self-test of the benchmark at tiny sizes (under a minute on two cores).

usage: python3 benchmark/selftest.py

Checks that
* every metric named in BENCHMARK.json is printed with its unit, for every
  workload, traced and untraced;
* ``check semigroup --force-threshold 0`` counts as one failed operation;
* dos-trace output files are byte-identical at 1 and 2 workers.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (sets no state on import)

# BLAS threads are fixed before numpy loads, as run.py does for its children.
os.environ.update({k: v for k, v in run.child_env("dos-trace").items()
                   if k in run.BLAS_VARS})
sys.path.insert(0, str(run.SRC))

import child  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "dos-trace": {"ring": 64, "ring_samples": 4, "depth": 11, "tree_samples": 2,
                  "verify_ring_samples": 4, "verify_tree_samples": 2},
    "ids-charfn": {"box": 20, "h": 0.1, "ids_samples": 2, "verify_ids_samples": 2,
                   "sites": 32, "charfn_samples": 2, "verify_charfn_samples": 2},
    "exact-curves": {"step": 0.1},
}


def check_metric_names(out: Path) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"] if m["name"] != "setup_s"},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            os.environ["CAUCHYDOS_THREADS"] = str(run.THREADS[name])
            result = child.run_workload(name, 1, 0.0, trace == "1", out / f"{name}-{trace}",
                                        sizes=TINY[name], min_rounds=1)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{name} trace {trace}: printed {sorted(printed.items())}, "
                                f"expected {sorted(expected[trace].items())}")
            if result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: no operation attempted")
    setup_s = run.measure_setup(run.child_env("exact-curves"), time.monotonic() + 60.0)
    if not setup_s > 0:
        problems.append(f"setup_s = {setup_s}")
    return problems


def check_forced_failure(out: Path) -> list:
    exact = workloads.ExactCurves(1, out, TINY["exact-curves"])
    runner = child.Runner()
    runner.run(exact.cli_op("check-semigroup-forced",
                            ["check", "semigroup", "--force-threshold", "0"],
                            exact._check_report("semigroup")))
    if runner.attempted == 1 and len(runner.failures) == 1 \
            and runner.failures[0].startswith("check-semigroup-forced:"):
        return []
    return [f"attempted {runner.attempted}, failures {runner.failures}"]


def check_worker_determinism(out: Path) -> list:
    outputs = {}
    for threads in ("1", "2"):
        os.environ["CAUCHYDOS_THREADS"] = threads
        dos = workloads.DosTrace(1, out / f"threads-{threads}", TINY["dos-trace"])
        ops, _ = dos.round_ops(0)
        for op in ops:
            op.run()
        outputs[threads] = {p.relative_to(dos.out): p.read_bytes()
                            for p in sorted(dos.out.rglob("*.csv"))}
    if outputs["1"] and outputs["1"] == outputs["2"]:
        return []
    return [f"CSV files differ between 1 and 2 workers: {sorted(map(str, outputs['1']))}"]


def main() -> int:
    out = run.OUT / f"selftest-{os.getpid()}"
    failed = 0
    try:
        for check in (check_metric_names, check_forced_failure, check_worker_determinism):
            problems = check(out)
            print(f"{'PASS' if not problems else 'FAIL'} {check.__name__}")
            for problem in problems:
                print(f"  {problem}")
            failed += bool(problems)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if run.OUT.is_dir() and not any(run.OUT.iterdir()):
            run.OUT.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
