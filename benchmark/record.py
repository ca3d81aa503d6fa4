"""Run every workload on several seeds and record the spread of each metric.

usage: python3 benchmark/record.py [--runs 10] [--first-seed 1] [--workloads ...]
                                   [--out benchmark/results.json]

For each workload the end-to-end metrics of ``--runs`` untraced runs (seeds
``first-seed ...``) are reduced to median, quartiles and the quartile spread
as a share of the median, which is compared with a third of the bound in
BENCHMARK.json. One traced run per workload gives the per-layer metrics.
The file also records the machine, library versions, thread settings, git
commit and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"header": json.loads(lines[0]), "log": lines[1:-1], "result": json.loads(lines[-1])}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", default=str(HERE / "results.json"))
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, traced = {w: [] for w in args.workloads}, {}
    started = time.time()
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            record = run(workload, seed, seconds, 0)
            runs[workload].append(record)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in record["result"]["metrics"].items()),
                file=sys.stderr, flush=True)
        traced[workload] = {k: v["value"] for k, v in
                            run(workload, args.first_seed, seconds, 1)["result"]["metrics"].items()}

    report = {"workloads": {}}
    for workload, records in runs.items():
        layers = traced[workload]
        self_sum = sum(v for k, v in layers.items()
                       if k.endswith("_s") and k not in ("bench.wall_s", "trace.overhead_s"))
        report["workloads"][workload] = {
            "seeds": [r["header"]["seed"] for r in records],
            "rounds": [r["header"]["rounds"] for r in records],
            "work_per_round": records[0]["header"]["work_per_round"],
            "sizes": records[0]["header"]["sizes"],
            "failed": [r["result"]["failed"] for r in records],
            "gates": records[0]["log"],
            "end_to_end": {name: summarize([r["result"]["metrics"][name]["value"]
                                            for r in records], bound)
                           for name, bound in bounds.items()},
            "traced": {"seed": args.first_seed, "self_times_sum_s": self_sum,
                       "metrics": layers},
        }
    header = runs[args.workloads[0]][0]["header"]["environment"]
    report["environment"] = {
        "cpu_model": cpu_model(), "nproc": header["nproc"], "python": header["python"],
        "numpy": header["numpy"], "scipy": header["scipy"], "blas": header["blas"],
        "blas_threads": header["blas_threads"],
        "cauchydos_threads": {w: runs[w][0]["header"]["environment"]["CAUCHYDOS_THREADS"]
                              for w in args.workloads},
        "git_commit": git_commit(), "src_lines": src_lines(),
        "run_seconds": seconds, "runs_per_workload": args.runs,
        "order": "the runs of one workload back to back, workloads in BENCHMARK.json order",
        "recording_wall_s": round(time.time() - started, 1),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
