"""The benchmark's workloads: what one round runs and how its outputs are checked.

A round is a fixed list of operations (CLI invocations or check calls) with a
fixed amount of work. Round ``r`` of a run with seed ``s`` uses the master
seed ``1000 * s + r``, so the same seed gives the same inputs. Every output is
checked by gates that do not depend on the seed: independent oracles for the
exact columns and curves, and the deterministic checks' own thresholds.

Monte Carlo gates use the frozen thresholds of ``cauchydos.checks``. On a
correct program they miss for a few percent of seeds or more at benchmark
sample counts, so they run once per run after the timed rounds, on estimates
drawn with the checks' default seed 0: the verdict does not depend on the
run's seed.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from cauchydos import checks, cli

import oracles

# Exact curves must agree with the independent oracles to 1e-6: two orders
# inside the tightest threshold that consumes them (semigroup sup_dist 1e-4).
EXACT_TOL = 1e-6
# check_dos_identity thresholds.
MAX_Z = 4.0
Z_P95 = 2.5
# check_charfn_identity threshold: |mean - exact| <= max(0.03, 4 SE).
CHARFN_FLOOR = 0.03
CHARFN_SE = 4.0
SE_FLOOR = 1e-15
# master seed of the verification estimates: the checks' default seed
VERIFY_SEED = 0


class GateMiss(Exception):
    """An output failed a correctness gate."""


@dataclass
class Op:
    name: str
    run: Callable[[], None]


@dataclass
class Gates:
    """Worst value seen per gate over a run, and the misses."""

    worst: dict = field(default_factory=dict)

    def check(self, name: str, value: float, limit: float, misses: list) -> None:
        value = float(value)
        entry = self.worst.setdefault(name, {"worst": value, "limit": limit, "checks": 0,
                                             "misses": 0})
        entry["checks"] += 1
        if not value <= entry["worst"]:
            entry["worst"] = value
        if not value <= limit:
            entry["misses"] += 1
            misses.append(f"{name} = {value:.4g} > {limit:g}")


def read_csv(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def grid_arg(lo: float, hi: float, step: float) -> str:
    return f"{lo!r}:{hi!r}:{step!r}"


class Workload:
    """Base: subclasses define ``round_ops`` and optionally ``final_ops``."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, out: Path, sizes: dict | None = None):
        self.seed = seed
        self.out = out
        self.gates = Gates()
        self.sizes = dict(self.SIZES, **(sizes or {}))

    def master_seed(self, r: int) -> int:
        return 1000 * self.seed + r

    def cli_op(self, name: str, argv: list, check: Callable[[Path, list], None]) -> Op:
        """One CLI invocation; ``check(out_dir, misses)`` gates its output files."""
        out = self.out / name

        def run():
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([*argv, "--out", str(out)])
            if code != 0:
                raise GateMiss(f"exit code {code}")
            misses = []
            check(out, misses)
            if misses:
                raise GateMiss("; ".join(misses))

        return Op(name, run)

    def round_ops(self, r: int) -> tuple[list, int]:
        raise NotImplementedError

    def final_ops(self) -> list:
        return []


class DosTrace(Workload):
    """Energy-domain trace DOS: dense eigvalsh on a ring, tree recursion above DENSE_CAP."""

    name = "dos-trace"
    work_unit = "disorder samples"
    SIZES = {"ring": 1000, "ring_samples": 24, "depth": 12, "tree_samples": 8,
             "verify_ring_samples": 60, "verify_tree_samples": 20}
    LAM, ETA = 1.0, 0.1
    RING_GRID = (-6.0, 6.0, 0.02)
    TREE_GRID = (-3.0, 3.0, 0.02)
    # frozen thresholds of check_dos_identity (ring) and check_bethe_dos (tree)
    SUP_TOL = {"ring": 0.005, "tree": 0.01}

    def _argv(self, kind: str, samples: int, seed: int) -> list:
        s = self.sizes
        if kind == "ring":
            model = ["--model", "lattice", "--dim", "1", "--size", str(s["ring"]),
                     "--grid", grid_arg(*self.RING_GRID)]
        else:
            model = ["--model", "bethe", "--k", "2", "--depth", str(s["depth"]),
                     "--grid", grid_arg(*self.TREE_GRID)]
        return ["sample", *model, "--samples", str(samples), "--lambda", repr(self.LAM),
                "--broaden", repr(self.ETA), "--compare-exact", "--seed", str(seed)]

    def _check(self, kind: str, verify: bool):
        depth = self.sizes["depth"]
        oracle = (oracles.chain_stieltjes if kind == "ring"
                  else lambda z: oracles.truncated_tree_mean_stieltjes(2, depth, z))

        def check(out: Path, misses: list):
            name = "sample_lattice.csv" if kind == "ring" else "sample_bethe.csv"
            csv = read_csv(out / name)
            x = csv["x"]
            exact = oracles.density(oracle(x + 1j * (self.LAM + self.ETA)))
            self.gates.check(f"{self.name}.{kind}.exact-vs-oracle",
                             np.max(np.abs(csv["exact"] - exact)), EXACT_TOL, misses)
            if verify:
                prefix = f"{self.name}.{kind}.verify"
                self.gates.check(f"{prefix}.sup_dist", np.max(np.abs(csv["mean"] - exact)),
                                 self.SUP_TOL[kind], misses)
                self.gates.check(f"{prefix}.max_z", np.max(csv["z"]), MAX_Z, misses)
                self.gates.check(f"{prefix}.z_p95", np.percentile(csv["z"], 95.0), Z_P95,
                                 misses)

        return check

    def round_ops(self, r):
        s = self.sizes
        seed = self.master_seed(r)
        return ([self.cli_op("ring", self._argv("ring", s["ring_samples"], seed),
                             self._check("ring", False)),
                 self.cli_op("tree", self._argv("tree", s["tree_samples"], seed),
                             self._check("tree", False))],
                s["ring_samples"] + s["tree_samples"])

    def final_ops(self):
        s = self.sizes
        return [self.cli_op(f"verify-{kind}",
                            self._argv(kind, s[f"verify_{kind}_samples"], VERIFY_SEED),
                            self._check(kind, True))
                for kind in ("ring", "tree")]


class IdsCharfn(Workload):
    """One-worker Monte Carlo: eigenvalue counting with the dense solver
    (checks.check_continuum_ids) and time-domain Chebyshev propagation (charfn)."""

    name = "ids-charfn"
    work_unit = "disorder samples"
    # charfn runs 256 sites rather than 512: the cost of a sample follows its
    # heavy-tailed Gershgorin radius, so the median cost moves less between seeds.
    SIZES = {"box": 100, "h": 0.05, "ids_samples": 2, "verify_ids_samples": 10,
             "sites": 256, "charfn_samples": 2, "verify_charfn_samples": 40}
    # sup_dist of check_continuum_ids is calibrated for 100 samples at box 200;
    # it decides the verification call only. free_sup_dist does not depend on the seed.
    ROUND_GATES = ("free_sup_dist",)
    LAM = 1.0
    T_GRID = (0.0, 6.0, 0.1)

    def _ids_op(self, name: str, samples: int, seed: int, gated: tuple | None) -> Op:
        """A check call gated on the thresholds in ``gated`` (all of them if None)."""

        def run():
            report = checks.check_continuum_ids(box=self.sizes["box"], h=self.sizes["h"],
                                                n_samples=samples, seed=seed)
            misses = []
            for metric, limit in report.thresholds.items():
                if gated is None or metric in gated:
                    self.gates.check(f"{self.name}.{name}.{metric}", report.metrics[metric],
                                     limit, misses)
            if misses:
                raise GateMiss("; ".join(misses))

        return Op(name, run)

    def _charfn_op(self, name: str, samples: int, seed: int, verify: bool) -> Op:
        argv = ["charfn", "--model", "lattice", "--dim", "1", "--size", str(self.sizes["sites"]),
                "--samples", str(samples), "--lambda", repr(self.LAM),
                "--t-grid", grid_arg(*self.T_GRID), "--seed", str(seed)]

        def check(out: Path, misses: list):
            csv = read_csv(out / "charfn_lattice.csv")
            exact = csv["exact"] + 1j * csv["exact_im"]
            mean = csv["mean"] + 1j * csv["mean_im"]
            self.gates.check(f"{self.name}.charfn.exact-vs-oracle",
                             np.max(np.abs(exact - oracles.lattice_charfn_d1(csv["t"], self.LAM))),
                             EXACT_TOL, misses)
            self.gates.check(f"{self.name}.charfn.t0-amplitude", abs(mean[0] - 1.0), 1e-12,
                             misses)
            if verify:
                se = np.maximum(csv["std_error"], SE_FLOOR)
                allowed = np.maximum(CHARFN_FLOOR, CHARFN_SE * se)
                self.gates.check(f"{self.name}.{name}.excess_ratio",
                                 np.max(np.abs(mean - exact) / allowed), 1.0, misses)

        return self.cli_op(name, argv, check)

    def round_ops(self, r):
        s = self.sizes
        seed = self.master_seed(r)
        return ([self._ids_op("continuum-ids", s["ids_samples"], seed, self.ROUND_GATES),
                 self._charfn_op("charfn", s["charfn_samples"], seed, False)],
                s["ids_samples"] + s["charfn_samples"])

    def final_ops(self):
        s = self.sizes
        return [self._ids_op("verify-ids", s["verify_ids_samples"], VERIFY_SEED, None),
                self._charfn_op("verify-charfn", s["verify_charfn_samples"], VERIFY_SEED, True)]


class ExactCurves(Workload):
    """free_models quadratures and the deterministic checks; no sampling runs."""

    name = "exact-curves"
    work_unit = "energy points"
    SIZES = {"step": 0.01}
    LAM = 0.05

    def _curve_check(self, stem: str, column: str, oracle):
        def check(out: Path, misses: list):
            csv = read_csv(out / f"{stem}.csv")
            self.gates.check(f"{self.name}.{stem}.vs-oracle",
                             np.max(np.abs(csv[column] - oracle(csv["energy"]))),
                             EXACT_TOL, misses)

        return check

    def _mass_check(self, stem: str, d: int):
        """Sum rule: the smoothed mass in [a, b] lies between the Cauchy masses of
        [a + 2d, b - 2d] and [a - 2d, b + 2d], because the free spectrum is [-2d, 2d]."""

        def cauchy_mass(lo, hi):
            return (math.atan(hi / self.LAM) - math.atan(lo / self.LAM)) / math.pi

        def check(out: Path, misses: list):
            csv = read_csv(out / f"{stem}.csv")
            e, p = csv["energy"], csv["density"]
            mass = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(e)))
            lo = cauchy_mass(e[0] + 2 * d, e[-1] - 2 * d)
            hi = cauchy_mass(e[0] - 2 * d, e[-1] + 2 * d)
            self.gates.check(f"{self.name}.{stem}.mass-outside-bounds",
                             max(lo - mass, mass - hi, 0.0), EXACT_TOL, misses)
            self.gates.check(f"{self.name}.{stem}.negative-density", max(-p.min(), 0.0),
                             EXACT_TOL, misses)

        return check

    def _check_report(self, check_name: str):
        def check(out: Path, misses: list):
            report = json.loads((out / f"check_{check_name}.json").read_text())
            for metric, limit in report["thresholds"].items():
                self.gates.check(f"{self.name}.{check_name}.{metric}",
                                 report["metrics"][metric], limit, misses)
            if not report["passed"]:
                misses.append(f"{check_name} report not passed")

        return check

    def round_ops(self, r):
        step = self.sizes["step"]
        # the seed moves the grids by a fraction of a step; the point counts stay fixed
        shift = step * np.random.default_rng([self.seed, r]).random()
        lam = self.LAM
        grids = {"d1": (-6.0, 6.0), "d2": (-6.0, 6.0), "d3": (-8.0, 8.0), "bethe": (-4.0, 4.0),
                 "continuum": (-1.0, 4.0)}
        grid = {k: grid_arg(lo + shift, hi + shift, step) for k, (lo, hi) in grids.items()}
        points = sum(int(math.floor((hi - lo) / step + 1e-9)) + 1 for lo, hi in grids.values())
        exact = ["exact", "--lambda", repr(lam)]
        ops = [
            self.cli_op("lattice-d1", [*exact, "--model", "lattice", "--dim", "1",
                                       "--grid", grid["d1"]],
                        self._curve_check("exact_lattice_d1", "density", lambda e: oracles.density(
                            oracles.chain_stieltjes(e + 1j * lam)))),
            self.cli_op("lattice-d2", [*exact, "--model", "lattice", "--dim", "2",
                                       "--grid", grid["d2"]],
                        self._mass_check("exact_lattice_d2", 2)),
            self.cli_op("lattice-d3", [*exact, "--model", "lattice", "--dim", "3",
                                       "--grid", grid["d3"]],
                        self._mass_check("exact_lattice_d3", 3)),
            self.cli_op("bethe-k2", [*exact, "--model", "bethe", "--k", "2",
                                     "--grid", grid["bethe"]],
                        self._curve_check("exact_bethe_k2", "density", lambda e: oracles.density(
                            oracles.kesten_mckay_stieltjes(2, e + 1j * lam)))),
            self.cli_op("continuum", [*exact, "--model", "continuum", "--grid", grid["continuum"]],
                        self._curve_check("exact_continuum", "ids", lambda e: (
                            oracles.continuum_ids_smoothed(e, lam)))),
            self.cli_op("check-semigroup", ["check", "semigroup"],
                        self._check_report("semigroup")),
            self.cli_op("check-strip", ["check", "strip"], self._check_report("strip")),
        ]
        return ops, points


WORKLOADS = {cls.name: cls for cls in (DosTrace, IdsCharfn, ExactCurves)}
