"""Named, reproducible pass/fail checks bundling the exact and Monte Carlo routes.

Each check compares an independently computed exact curve against a sampled
estimate (or against a second exact route) and reduces the outcome to a few
metrics with frozen thresholds. A report passes if and only if every metric
with a threshold stays at or below it. Each check function returns only its
metrics; its ``_check`` decorator names it, states its thresholds and builds
the report. The check functions take no threshold argument: ``run_check``,
which the CLI's --force-threshold goes through, is the only place a threshold
can move.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import free_models as fm
from .ensemble import BumpFamily, LatticeBoxSpec, TreeSpec
from .errors import OutsideStripError
from .measures import CauchyKernel, EnergyGrid, grid_convolve
from .spectra import charfn_mc, dos_mc, ids_mc

__all__ = [
    "CHECK_NAMES",
    "CheckReport",
    "check_analytic_strip",
    "check_bethe_dos",
    "check_charfn_identity",
    "check_continuum_ids",
    "check_dos_identity",
    "check_semigroup",
    "reference_curve",
    "run_check",
]

_SE_FLOOR = 1e-15


@dataclass
class CheckReport:
    """Outcome of one named check: metrics, thresholds, and the derived pass flag."""

    name: str
    parameters: dict
    metrics: dict
    thresholds: dict
    seed: int | None
    runtime_seconds: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return all(self.metrics[k] <= self.thresholds[k] for k in self.thresholds)

    def to_json_dict(self) -> dict:
        """Deterministic serialization; wall time is deliberately excluded."""
        return {
            "name": self.name,
            "parameters": self.parameters,
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "passed": self.passed,
            "seed": self.seed,
        }

    def table_row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = max(
            (self.metrics[k] / self.thresholds[k] if self.thresholds[k] > 0 else math.inf)
            for k in self.thresholds
        ) if self.thresholds else 0.0
        return (f"{self.name:<16} {status}  worst metric/threshold = {worst:.3g}  "
                f"({self.runtime_seconds:.1f} s)")


def reference_curve(spec, lam: float, estimator: str, energies: np.ndarray) -> np.ndarray:
    """The exact expectation of ``dos_mc``'s ``estimator`` curve on ``spec`` at
    total smoothing ``lam`` (disorder scale plus per-sample broadening).

    A box gives the Z^d curve (both estimators, by translation invariance); a
    tree gives the truncated free tree's vertex mean ("trace") or root
    ("site"). A continuum mesh has no sampled-DOS reference: ValueError.
    """
    if isinstance(spec, LatticeBoxSpec):
        return fm.exact_smoothed(fm.LatticeFreeModel(spec.d), CauchyKernel(lam), energies)
    if not isinstance(spec, TreeSpec):
        raise ValueError("a continuum sample has no exact DOS reference (trees and boxes do)")
    root, mean = fm.truncated_tree_stieltjes(spec.K, spec.depth, energies + 1j * lam)
    return (mean if estimator == "trace" else root).imag / np.pi


def _recorded(value):
    """A parameter as the report records it: a grid as [e_min, e_max, step],
    a tuple as a list, anything else as given."""
    if isinstance(value, EnergyGrid):
        return [value.e_min, value.e_max, value.step]
    return list(value) if isinstance(value, tuple) else value


# check name -> (function name, whether it takes a seed), in definition order
_CHECKS: dict[str, tuple[str, bool]] = {}


def _check(name: str, thresholds: dict, **constants):
    """Register the decorated function as the check ``name``.

    The function returns only its metrics. The wrapper builds the report: the
    call's arguments with defaults applied (less ``seed``, which is the
    report's seed) followed by ``constants`` are its parameters, and
    ``thresholds`` are frozen here, beside the check.
    """
    def register(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def run(*args, **kwargs) -> CheckReport:
            t0 = time.perf_counter()
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            metrics = fn(*args, **kwargs)
            return CheckReport(
                name=name,
                parameters={k: _recorded(v) for k, v in {**call.arguments, **constants}.items()
                            if k != "seed"},
                metrics={k: float(v) for k, v in metrics.items()},
                thresholds={k: float(v) for k, v in thresholds.items()},
                seed=call.arguments.get("seed"),
                runtime_seconds=time.perf_counter() - t0,
            )

        _CHECKS[name] = (fn.__name__, "seed" in signature.parameters)
        return run
    return register


_SEMIGROUP_WINDOW = 8.0
_STRIP_ENERGIES = (-3.0, -1.0, 0.0, 1.5, 3.0)
_STRIP_FD_STEP = 1e-4
_DOS_ESTIMATOR = "trace"


@_check("semigroup", {"sup_dist": 1e-4}, window=_SEMIGROUP_WINDOW)
def check_semigroup(lam1: float = 0.5, lam2: float = 0.5, d: int = 1) -> dict:
    """Convolving the lam1-smoothed lattice curve with the lam2 kernel must
    reproduce the (lam1+lam2)-smoothed curve; both routes are deterministic."""
    model = fm.LatticeFreeModel(d)
    wide = EnergyGrid(-60.0, 60.0, 0.01)
    curve1 = fm.exact_smoothed(model, CauchyKernel(lam1), wide.points)
    convolved = grid_convolve(curve1, wide.step, CauchyKernel(lam2))
    direct = fm.exact_smoothed(model, CauchyKernel(lam1 + lam2), wide.points)
    window = np.abs(wide.points) <= _SEMIGROUP_WINDOW + 1e-12
    return {"sup_dist": np.max(np.abs(convolved[window] - direct[window]))}


@_check("strip", {"max_cr_residual": 1e-5, "outside_strip_misses": 0.5},
        e_points=_STRIP_ENERGIES, fd_step=_STRIP_FD_STEP)
def check_analytic_strip(d: int = 1, lam: float = 1.0, heights=(0.25, 0.5, -0.5)) -> dict:
    """Complex energies inside |Im z| < lam: central-difference Cauchy-Riemann
    residuals of the smoothed-DOS evaluator must vanish to 1e-5, and
    evaluation on or beyond the strip boundary must raise."""
    model = fm.LatticeFreeModel(d)
    kernel = CauchyKernel(lam)
    h = _STRIP_FD_STEP
    z = (np.array(_STRIP_ENERGIES) + 1j * np.array(heights)[:, None]).ravel()
    fxp, fxm, fyp, fym = (fm.exact_smoothed(model, kernel, z + step)
                          for step in (h, -h, 1j * h, -1j * h))
    df_dx = (fxp - fxm) / (2 * h)
    df_dy = (fyp - fym) / (2 * h)
    worst = np.max(np.abs(df_dx.real - df_dy.imag) + np.abs(df_dx.imag + df_dy.real))
    raises_ok = 0.0
    for bad in (1.05 * lam, -1.05 * lam, lam):
        try:
            fm.exact_smoothed(model, kernel, complex(0.0, bad))
            raises_ok = 1.0
        except OutsideStripError:
            pass
    return {"max_cr_residual": worst, "outside_strip_misses": raises_ok}


@_check("charfn", {"excess_ratio": 1.0})
def check_charfn_identity(d: int = 1, lam: float = 1.0, side: int = 512,
                          n_samples: int = 400, t_max: float = 6.0, t_step: float = 0.1,
                          seed: int = 0, psi_offset: int = 0) -> dict:
    """Time domain: the sampled <phi, exp(itH) psi> average must match
    exp(-lam|t|) times the free amplitude, pointwise within max(0.03, 4 SE)."""
    spec = LatticeBoxSpec(d, side)
    grid = EnergyGrid(0.0, t_max, t_step)
    est = charfn_mc(spec, CauchyKernel(lam), grid, n_samples, seed,
                    phi_site=0, psi_site=psi_offset % spec.n_sites)
    exact = fm.lattice_box_charfn(fm.LatticeFreeModel(d), CauchyKernel(lam), side, 0,
                                  psi_offset % spec.n_sites, grid.points)
    dev = np.abs(est.mean - exact)
    se = np.maximum(est.std_error, _SE_FLOOR)
    allowed = np.maximum(0.03, 4.0 * se)
    return {
        "excess_ratio": np.max(dev / allowed),
        "max_abs_dev": np.max(dev),
        "max_z": np.max(dev / se),
    }


@_check("dos", {"sup_dist": 0.005, "max_z": 4.0, "z_p95": 2.5}, estimator=_DOS_ESTIMATOR)
def check_dos_identity(d: int = 1, lam: float = 1.0, eta: float = 0.1, side: int = 2000,
                       n_samples: int = 200, grid: EnergyGrid = EnergyGrid(-6.0, 6.0, 0.02),
                       seed: int = 0) -> dict:
    """Energy domain: the eta-broadened sampled DOS must match the exact curve
    smoothed at lam + eta: sup distance <= 0.005, pointwise |z| <= 4 and 95th
    percentile |z| <= 2.5. The trace estimator is used."""
    spec = LatticeBoxSpec(d, side)
    est = dos_mc(spec, CauchyKernel(lam), grid, n_samples, seed, eta)
    exact = reference_curve(spec, lam + eta, _DOS_ESTIMATOR, grid.points)
    dev = np.abs(est.mean - exact)
    z = dev / np.maximum(est.std_error, _SE_FLOOR)
    return {"sup_dist": np.max(dev), "max_z": np.max(z), "z_p95": np.percentile(z, 95.0)}


@_check("bethe", {"sup_corrected": 0.01})
def check_bethe_dos(K: int = 2, lam: float = 1.0, eta: float = 0.1, depth: int = 14,
                    n_samples: int = 100, grid: EnergyGrid = EnergyGrid(-2.9, 2.9, 0.02),
                    seed: int = 0) -> dict:
    """Truncated tree: the sampled broadened DOS must match the smeared
    Kesten-McKay law once the exactly known finite-depth bias is subtracted.

    The bias is the difference between the depth-truncated free tree's
    vertex-averaged curve (one pivot sweep) and the infinite-tree curve, both
    at lam + eta.
    """
    spec = TreeSpec(K, depth)
    est = dos_mc(spec, CauchyKernel(lam), grid, n_samples, seed, eta)
    truncated = reference_curve(spec, lam + eta, "trace", grid.points)
    km = fm.exact_smoothed(fm.BetheFreeModel(K), CauchyKernel(lam + eta), grid.points)
    bias = truncated - km
    dev = np.abs(est.mean - km - bias)
    return {
        "sup_corrected": np.max(dev),
        "max_z": np.max(dev / np.maximum(est.std_error, _SE_FLOOR)),
        "bias_sup": np.max(np.abs(bias)),
    }


@_check("continuum-ids", {"sup_dist": 0.02, "free_sup_dist": 0.01})
def check_continuum_ids(lam: float = 0.2, box: int = 200, h: float = 0.05,
                        n_samples: int = 100, e_grid: EnergyGrid = EnergyGrid(0.0, 4.0, 0.05),
                        seed: int = 0) -> dict:
    """Continuum: the sample-averaged eigenvalue-counting IDS must match the
    Cauchy-smoothed free IDS, and the disorder-off control must match the
    free square-root law on [0.5, 4]."""
    bumps = BumpFamily(box, h)
    e_points = e_grid.points
    est = ids_mc(bumps, CauchyKernel(lam), e_points, n_samples, seed)
    model = fm.ContinuumFreeModel()
    exact = fm.exact_smoothed(model, CauchyKernel(lam), e_points)
    free_pts = np.arange(0.5, 4.0 + 1e-9, 0.05)
    free_emp = ids_mc(bumps, None, free_pts, 1, seed).mean
    free = fm.free_stieltjes(model, free_pts + 0j).imag / np.pi
    return {"sup_dist": np.max(np.abs(est.mean - exact)),
            "free_sup_dist": np.max(np.abs(free_emp - free))}


CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, seed: int = 0, threshold_override: float | None = None) -> CheckReport:
    """Run one named check at its default (acceptance-scale) parameters.

    The check is looked up in this module when called, so a wrapper bound in
    its place (as the benchmark tracer binds one) is the one that runs. Only
    a check that takes a seed is given ``seed``. ``threshold_override``
    replaces every threshold of the report, and the pass flag follows; it is
    how the CLI's --force-threshold reaches a check.
    """
    if name not in _CHECKS:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    function_name, seeded = _CHECKS[name]
    check = globals()[function_name]
    report = check(seed=seed) if seeded else check()
    if threshold_override is not None:
        report.thresholds = dict.fromkeys(report.thresholds, float(threshold_override))
    return report
