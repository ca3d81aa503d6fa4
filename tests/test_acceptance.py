"""Acceptance suite: every criterion at its stated tolerance, one line each.

The heavy Monte Carlo criteria run at full scale (hundreds of samples on
boxes of a few thousand sites), so this module takes several minutes; run it
with ``pytest -v tests/test_acceptance.py``. Pass/fail lines are echoed in a
terminal-summary section after the run (and printed live under ``-s``).
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy.special import jv

from cauchydos.checks import (
    check_analytic_strip,
    check_bethe_dos,
    check_charfn_identity,
    check_continuum_ids,
    check_dos_identity,
    check_semigroup,
)
from cauchydos.free_models import LatticeFreeModel, exact_smoothed
from cauchydos.measures import CauchyKernel


def announce(num: int, label: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} [{label}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)


@contextmanager
def criterion(num: int, label: str, detail_holder: dict):
    try:
        yield
    except Exception:
        announce(num, label, False, detail_holder.get("detail", ""))
        raise
    announce(num, label, True, detail_holder.get("detail", ""))


def test_criterion_1_exact_curve_constants():
    info = {}
    with criterion(1, "exact constants", info):
        model = LatticeFreeModel(1)
        exact_smoothed(model, CauchyKernel(1.0), 0.0)  # warm caches
        t0 = time.perf_counter()
        p1 = exact_smoothed(model, CauchyKernel(1.0), 0.0)
        p2 = exact_smoothed(model, CauchyKernel(0.5), 0.0)
        elapsed = time.perf_counter() - t0
        info["detail"] = f"p(1)={p1:.7f}, p(0.5)={p2:.7f}, {elapsed:.3f}s"
        assert abs(p1 - 1.0 / (math.pi * math.sqrt(5.0))) <= 1e-6
        assert abs(p2 - 1.0 / (math.pi * math.sqrt(4.25))) <= 1e-6
        assert elapsed < 1.0


def test_criterion_2_semigroup_identity():
    info = {}
    with criterion(2, "semigroup", info):
        report = check_semigroup(0.5, 0.5, 1)
        info["detail"] = (f"sup={report.metrics['sup_dist']:.2e}, "
                          f"{report.runtime_seconds:.1f}s")
        assert report.metrics["sup_dist"] <= 1e-4
        assert report.runtime_seconds < 5.0
        assert report.passed


def test_criterion_3_time_domain_identity():
    info = {}
    with criterion(3, "charfn identity", info):
        report = check_charfn_identity(d=1, lam=1.0, side=512, n_samples=400,
                                       t_max=6.0, t_step=0.1, seed=0)
        info["detail"] = (f"excess={report.metrics['excess_ratio']:.3f}, "
                          f"max_dev={report.metrics['max_abs_dev']:.4f}, "
                          f"{report.runtime_seconds:.0f}s")
        assert report.metrics["excess_ratio"] <= 1.0  # dev <= max(0.03, 4 SE)
        assert report.runtime_seconds < 120.0
        assert report.passed


def test_criterion_4_energy_domain_identity():
    info = {}
    with criterion(4, "dos identity", info):
        report = check_dos_identity(d=1, lam=1.0, eta=0.1, side=2000, n_samples=200,
                                    seed=0)
        info["detail"] = (f"sup={report.metrics['sup_dist']:.5f}, "
                          f"max_z={report.metrics['max_z']:.2f}, "
                          f"{report.runtime_seconds:.0f}s")
        assert report.metrics["sup_dist"] <= 0.005
        assert report.metrics["max_z"] <= 4.0
        assert report.runtime_seconds < 600.0
        assert report.passed


def test_criterion_5_bethe_lattice():
    info = {}
    with criterion(5, "bethe dos", info):
        report = check_bethe_dos(K=2, lam=1.0, eta=0.1, depth=14, n_samples=100,
                                 seed=0)
        info["detail"] = (f"sup_corrected={report.metrics['sup_corrected']:.5f}, "
                          f"bias_sup={report.metrics['bias_sup']:.4f}, "
                          f"{report.runtime_seconds:.0f}s")
        assert report.metrics["sup_corrected"] <= 0.01
        assert report.runtime_seconds < 600.0
        assert report.passed


def test_criterion_6_analytic_strip():
    info = {}
    with criterion(6, "analytic strip", info):
        report = check_analytic_strip(d=1, lam=1.0, heights=(0.25, 0.5, -0.5))
        info["detail"] = (f"CR={report.metrics['max_cr_residual']:.2e}, "
                          f"{report.runtime_seconds:.1f}s")
        assert report.metrics["max_cr_residual"] <= 1e-5
        assert report.metrics["outside_strip_misses"] == 0.0
        assert report.runtime_seconds < 10.0
        assert report.passed


def test_criterion_7_continuum_ids():
    info = {}
    with criterion(7, "continuum ids", info):
        report = check_continuum_ids(lam=0.2, box=200, h=0.05, n_samples=100, seed=0)
        info["detail"] = (f"sup={report.metrics['sup_dist']:.4f}, "
                          f"free_sup={report.metrics['free_sup_dist']:.4f}, "
                          f"{report.runtime_seconds:.0f}s")
        assert report.metrics["sup_dist"] <= 0.02
        assert report.metrics["free_sup_dist"] <= 0.01
        assert report.runtime_seconds < 600.0
        assert report.passed


def test_criterion_8_numerical_kernels():
    from conftest import random_sparse_symmetric

    from cauchydos.spectra import chebyshev_evolve, eig_sym

    info = {}
    with criterion(8, "numerical kernels", info):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        # eig invariants on 100 random instances up to n = 512
        for k in range(100):
            n = int(rng.integers(16, 513))
            op = random_sparse_symmetric(n, 1000 + k, density=0.03)
            dense = op.to_dense()
            values, vectors = eig_sym(op)
            scale = max(np.max(np.abs(dense)), 1e-30)
            residual = np.max(np.abs(dense @ vectors - vectors * values))
            assert residual <= 1e-10 * n * scale
            assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) < 1e-10
        # Chebyshev evolution against eigendecomposition, n = 200, t <= 10
        op = random_sparse_symmetric(200, 77, density=0.05)
        values, vectors = eig_sym(op)
        v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        v /= np.linalg.norm(v)
        worst_evolve = 0.0
        for t in (0.5, 2.0, 5.0, 10.0):
            direct = vectors @ (np.exp(1j * t * values) * (vectors.T @ v))
            worst_evolve = max(worst_evolve,
                               float(np.max(np.abs(chebyshev_evolve(op, v, t) - direct))))
        assert worst_evolve <= 1e-8
        # three-term recurrence residual
        worst_rec = 0.0
        for x in np.arange(0.1, 50.0, 0.9):
            seq = [jv(n, float(x)) for n in range(52)]
            for n in range(1, 51):
                lhs = seq[n - 1] + seq[n + 1]
                rhs = (2.0 * n / x) * seq[n]
                scale = max(abs(seq[n - 1]), abs(rhs), 1e-300)
                worst_rec = max(worst_rec, abs(lhs - rhs) / scale)
        assert worst_rec <= 1e-10
        elapsed = time.perf_counter() - t0
        info["detail"] = (f"evolve_err={worst_evolve:.1e}, recurrence={worst_rec:.1e}, "
                          f"{elapsed:.0f}s")
        assert elapsed < 120.0


def _run_cli(args, cwd, threads="1"):
    from conftest import child_env

    env = child_env()
    env["CAUCHYDOS_THREADS"] = threads
    return subprocess.run([sys.executable, "-m", "cauchydos.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_criterion_9_byte_determinism(tmp_path):
    info = {}
    with criterion(9, "determinism", info):
        sample_args = ["sample", "--model", "lattice", "--size", "128",
                       "--samples", "10", "--lambda", "1", "--broaden", "0.2",
                       "--grid", "-4:4:0.1", "--seed", "7"]
        dirs = [tmp_path / name for name in ("s1", "s2", "s3")]
        runs = []
        for d, threads in zip(dirs, ("1", "1", "2")):
            d.mkdir()
            runs.append(_run_cli(sample_args + ["--out", str(d)], tmp_path, threads))
        assert all(r.returncode == 0 for r in runs)
        ref = (dirs[0] / "sample_lattice.csv").read_bytes()
        assert (dirs[1] / "sample_lattice.csv").read_bytes() == ref
        assert (dirs[2] / "sample_lattice.csv").read_bytes() == ref

        check_dirs = [tmp_path / name for name in ("c1", "c2")]
        for d in check_dirs:
            d.mkdir()
            proc = _run_cli(["check", "semigroup", "--seed", "7", "--out", str(d)],
                            tmp_path)
            assert proc.returncode == 0
        ref_report = (check_dirs[0] / "check_semigroup.json").read_bytes()
        assert (check_dirs[1] / "check_semigroup.json").read_bytes() == ref_report
        info["detail"] = "sample x3 (incl. 2 threads) and check x2 byte-identical"
