"""Eigensolution, local spectral measures, time evolution, and disorder averaging.

Two independent experimental routes are provided: an energy-domain one built
on eigendecomposition (on trees, on a leaf-to-root sweep over the LDL^T
pivots of H - z; for the IDS of chains, rings and meshes, on a Sturm count of
the pivots of H - E), and a time-domain one built on a Lanczos (Krylov)
propagator for exp(itH). A bug in either is caught by disagreement with the
exact curves of ``free_models``, which nothing here imports. The Chebyshev
expansion of exp(itH) cross-checks the Lanczos propagator.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ensemble import (
    BumpFamily,
    LatticeBoxSpec,
    SymmetricOperator,
    TreeSpec,
    build_operator,
    draw_sample,
    site_count,
    tree_level_sizes,
)
from .errors import CapExceededError, EnclosureError, SolverError
from .measures import MAX_GRID_POINTS, CauchyKernel, EnergyGrid, cauchy_density

__all__ = [
    "DENSE_CAP",
    "EigenDecomposition",
    "McEstimate",
    "charfn_mc",
    "chebyshev_evolve",
    "dos_mc",
    "eig_sym",
    "eigvals_sym",
    "ids_mc",
    "krylov_charfn",
    "worker_count",
]

DENSE_CAP = 4096


def worker_count() -> int:
    """Thread count for sample-level parallelism, from CAUCHYDOS_THREADS (default 1)."""
    raw = os.environ.get("CAUCHYDOS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"CAUCHYDOS_THREADS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvectors as matrix columns."""

    values: np.ndarray
    vectors: np.ndarray


def _guarded_solve(op: SymmetricOperator, solve):
    """Run ``solve()``, a LAPACK symmetric solve of ``op``, capped at DENSE_CAP.

    A convergence failure names the matrix by a SHA-256 digest of its
    triples, which is the same in every process.
    """
    if op.n > DENSE_CAP:
        raise CapExceededError(f"dense eigensolve of n={op.n} exceeds cap {DENSE_CAP}")
    try:
        return solve()
    except np.linalg.LinAlgError as exc:
        digest = hashlib.sha256()
        for part in (op.rows, op.cols, op.vals):
            digest.update(part.tobytes())
        raise SolverError(f"eigensolver failed to converge "
                          f"(matrix sha256 {digest.hexdigest()[:16]})") from exc


def _band_form(op: SymmetricOperator) -> np.ndarray | None:
    """Lower band form of ``op`` with its sites interleaved 0, n-1, 1, n-2, ...

    The width is w = max(2, largest index offset of a bond) in that order:
    2 for chains, rings and continuum meshes, 2*side for periodic d=2 boxes.
    Returns the (w+1, n) band when w <= 2*sqrt(n), where its eigenvalues cost
    a band reduction, O(n w^2), below a dense one, O(n^3); None otherwise
    (d>=3 boxes, trees, general sparse operators).
    """
    k = np.arange(op.n)
    pos = np.where(k < (op.n + 1) // 2, 2 * k, 2 * (op.n - 1 - k) + 1)
    offset = np.abs(pos[op.rows] - pos[op.cols])
    w = max(2, int(offset.max(initial=0)))
    if w * w > 4 * op.n:
        return None
    band = np.zeros((w + 1, op.n))
    band[offset, np.minimum(pos[op.rows], pos[op.cols])] = op.vals
    return band


def eig_sym(op: SymmetricOperator) -> EigenDecomposition:
    """Dense symmetric eigendecomposition (LAPACK), capped at DENSE_CAP."""
    return EigenDecomposition(*_guarded_solve(op, lambda: np.linalg.eigh(op.to_dense())))


def eigvals_sym(op: SymmetricOperator) -> np.ndarray:
    """Ascending eigenvalues only: a band solve where ``_band_form`` finds one, else dense."""

    def solve():
        band = _band_form(op)
        if band is None:
            return np.linalg.eigvalsh(op.to_dense())
        from scipy.linalg import eigvals_banded

        return eigvals_banded(band, lower=True, check_finite=False)

    return _guarded_solve(op, solve)


# sites per block of the Sturm sweep, whose pivots are counted a block at a time
_STURM_BLOCK = 64


def _sturm_counts(op: SymmetricOperator, e: np.ndarray) -> np.ndarray:
    """Number of eigenvalues E_k <= E of a chain, ring or mesh at each E in ``e``.

    No eigenvalue is computed. ``op`` has bonds (k, k+1) only, plus the
    wrapping bond (0, n-1) of a ring.
    Site 0 removed, the open path on sites 1..n-1 (0..n-1 without a wrapping
    bond) has as many eigenvalues below E as H - E has negative pivots

        d_k = (a_k - E) - b_{k-1}^2 / d_{k-1}

    (Dean, Proc. R. Soc. A 254, 507, 1960). A pivot with |d| < pivmin =
    tiny * max(1, max b^2) becomes -pivmin, as in LAPACK's dstebz, so a zero
    pivot counts and the path's count is that of E_k <= E. By Cauchy
    interlacing a ring has the path's count or one more; the sign of
    det(H - E) picks which. That sign is the sign of the permutation times
    those of diag(U) from one banded LU with partial pivoting per energy
    (``dgbtrf``, backward stable) on the interleaved band of ``_band_form``
    (w = 2); at an energy that is an eigenvalue of the ring, rounding decides
    it, as rounding decides a band solver's count there. Work O(n m), memory
    O(m) for m energies. The counts take the shape of ``e``.
    """
    shape, e = e.shape, e.ravel()
    n = op.n
    on = op.rows == op.cols
    diag = np.zeros(n)
    diag[op.rows[on]] = op.vals[on]
    step = op.cols == op.rows + 1
    bond2 = np.zeros(n)  # bond2[k] = b_{k-1}^2, the bond of sites k-1 and k squared
    bond2[op.cols[step]] = op.vals[step] ** 2
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(op.vals[~on] ** 2, initial=0.0)))
    ring = n > 2 and bool(np.any(op.cols - op.rows == n - 1))
    count = np.zeros(e.size, dtype=np.int64)
    pivot = None
    for start in range(int(ring), n, _STURM_BLOCK):
        block = diag[start:start + _STURM_BLOCK, None] - e
        for k, row in enumerate(block, start):
            if pivot is not None:
                row -= bond2[k] / pivot
            np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
            pivot = row
        count += np.count_nonzero(block < 0, axis=0)
    if ring:
        from scipy.linalg.lapack import dgbtrf

        band = _band_form(op)
        w = band.shape[0] - 1
        # general band storage of dgbtrf: diagonal in row 2w, w rows left for fill-in
        general = np.zeros((3 * w + 1, n))
        for r in range(w + 1):
            general[2 * w - r, r:] = general[2 * w + r, :n - r] = band[r, :n - r]
        unswapped = np.arange(n)
        odd = np.empty(e.size, dtype=bool)
        for j, energy in enumerate(e):
            shifted = general.copy()
            shifted[2 * w] -= energy
            lu, piv, _ = dgbtrf(shifted, w, w, overwrite_ab=True)
            # a zero on diag(U) counts as negative, as a zero pivot does above
            flips = np.count_nonzero(piv != unswapped) + np.count_nonzero(lu[2 * w] <= 0)
            odd[j] = flips % 2 == 1
        count += (count % 2 == 1) != odd
    return count.reshape(shape)


# ---------------------------------------------------------------------------
# Chebyshev time evolution.
# ---------------------------------------------------------------------------


def chebyshev_evolve(op: SymmetricOperator, v: np.ndarray, t: float,
                     bound: tuple[float, float] | None = None) -> np.ndarray:
    """Apply exp(itH) to ``v`` by Chebyshev-Bessel expansion.

    With the spectrum enclosed in [b-a, b+a],

        exp(itH) = exp(ibt) * sum_n (2 - delta_n0) (i sgn t)^n J_n(a|t|) T_n((H-b)/a),

    summed over the whole window n <= a|t| + 100 + 14 (a|t|)^(1/3), past which
    |J_n(a|t|)| is below 1e-15. Norm drift beyond 1e-6 signals a violated
    enclosure and raises EnclosureError.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.n,):
        raise ValueError(f"vector length {v.size} does not match operator size {op.n}")
    if t == 0.0:
        return v.copy()
    if bound is None:
        lo, hi = op.gershgorin_interval()
        bound = (0.5 * (hi - lo) + 1e-9, 0.5 * (hi + lo))
    a, b = bound
    x = a * abs(t)
    # the Bessel tail turns over within ~x^(1/3) orders past n = x
    n_max = int(math.ceil(x + 40)) + 60 + int(math.ceil(14.0 * x ** (1.0 / 3.0)))
    from scipy.special import jv

    coeffs = jv(np.arange(n_max + 1), x)
    csr = op.to_csr()
    inv_a = 1.0 / a
    shift = b * inv_a
    unit = 1j if t > 0 else -1j
    t_prev = v
    t_cur = csr.dot(v) * inv_a - shift * v
    out = coeffs[0] * t_prev + (2.0 * unit * coeffs[1]) * t_cur
    phase_n = unit
    for n in range(2, n_max + 1):
        phase_n = phase_n * unit
        t_next = 2.0 * (csr.dot(t_cur) * inv_a - shift * t_cur) - t_prev
        t_prev, t_cur = t_cur, t_next
        out += (2.0 * phase_n * coeffs[n]) * t_cur
    out *= np.exp(1j * b * t)
    norm_in = np.linalg.norm(v)
    drift = abs(np.linalg.norm(out) - norm_in)
    if drift > 1e-6 * max(norm_in, 1.0):
        raise EnclosureError(
            f"norm drift {drift:.3e} after evolving t={t}; spectral enclosure violated"
        )
    return out


# ---------------------------------------------------------------------------
# Lanczos (Krylov) time evolution.
# ---------------------------------------------------------------------------

# an estimate, not a bound: on criterion 3's rings 1e-12 left errors up to 6e-11,
# while 1e-13 reaches the 3e-13 floor of dense propagation
KRYLOV_TOL = 1e-13


def krylov_charfn(op: SymmetricOperator, phi_site: int, psi_site: int,
                  times) -> tuple[np.ndarray, int]:
    """<phi, exp(itH) psi> at every time in ``times`` from one Lanczos run.

    The Krylov basis q_0 = e_psi, q_1, ..., q_{m-1} (the rows of Q) is fully
    reorthogonalised. The run stops at the first m with

        beta_m * max_t |e_m^T exp(itT_m) e_1| <= KRYLOV_TOL,

    the a-posteriori estimate of the error of exp(itH) psi ~ Q^T exp(itT_m) e_1
    (Saad, SIAM J. Numer. Anal. 29, 209, 1992), or when the Krylov space is
    invariant (beta_m == 0 or m == n). One eigendecomposition
    T_m = S diag(theta) S^T then serves every time:

        <phi, exp(itH) psi> = sum_k (Q[:, phi] S)_k S_0k exp(it theta_k).

    An isolated large diagonal entry becomes one Ritz value, so m does not
    grow with max|omega| the way a Chebyshev degree does. Memory is the
    n x m basis. A t=0 entry is <phi, psi> exactly. Returns the amplitudes
    and m. Every reduction is an einsum rather than a BLAS call, so the bytes
    do not depend on BLAS threading.
    """
    from scipy.linalg import eigh_tridiagonal

    times = np.asarray(times, dtype=float)
    n = op.n
    csr = op.to_csr()
    basis = np.zeros((min(n, 64), n))
    basis[0, psi_site] = 1.0
    alpha, beta = [], []
    while True:
        m = len(alpha)
        q = basis[m]
        w = csr.dot(q)
        if m:
            w -= beta[-1] * basis[m - 1]
        alpha.append(np.einsum("i,i->", q, w))
        w -= alpha[-1] * q
        done = basis[:m + 1]
        w -= np.einsum("k,ki->i", np.einsum("ki,i->k", done, w), done)
        b = math.sqrt(np.einsum("i,i->", w, w))
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta), check_finite=False)
        phases = np.exp(1j * np.outer(times, theta))
        m += 1
        residual = b * np.max(np.abs(np.einsum("tk,k->t", phases, s[-1] * s[0])))
        if b == 0.0 or m == n or residual <= KRYLOV_TOL:
            break
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.zeros((min(n, 2 * m) - m, n))])
        basis[m] = w / b
        beta.append(b)
    weights = np.einsum("k,kj->j", basis[:m, phi_site], s) * s[0]
    out = np.einsum("tk,k->t", phases, weights)
    out[times == 0.0] = float(phi_site == psi_site)
    return out, m


# ---------------------------------------------------------------------------
# Monte Carlo estimators.
# ---------------------------------------------------------------------------


@dataclass
class McEstimate:
    """Pointwise sample mean and standard error of a disorder average."""

    x: np.ndarray
    mean: np.ndarray
    std_error: np.ndarray | None
    n_samples: int

    def columns(self) -> dict:
        """``x, mean, mean_im, std_error, n_samples`` (SE omitted for 1 sample)."""
        columns = {"x": self.x, "mean": self.mean.real, "mean_im": self.mean.imag}
        if self.std_error is not None:
            columns["std_error"] = self.std_error
        columns["n_samples"] = np.full(self.x.size, self.n_samples)
        return columns


def _run_samples(per_sample, n_samples: int, workers: int, x: np.ndarray) -> McEstimate:
    """Evaluate per_sample(i), one curve over ``x``, for i in range(n_samples).

    Every run takes a pool of min(workers, n_samples) threads. The curves are
    reduced in index order afterwards to a pointwise mean and standard error,
    so the outcome is bit-identical no matter how many workers ran or how they
    were scheduled. The variance is var(re) + var(im); for real curves the
    second term is exactly 0. Failures are re-raised annotated with the
    offending sample index; samples not yet started are then cancelled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    def guarded(i):
        try:
            return per_sample(i)
        except Exception as exc:
            try:
                raise type(exc)(f"[sample {i}] {exc}") from exc
            except TypeError:
                raise RuntimeError(f"[sample {i}] {exc}") from exc

    with ThreadPoolExecutor(max_workers=min(workers, n_samples)) as pool:
        curves = np.array(list(pool.map(guarded, range(n_samples))))
    se = None
    if n_samples >= 2:
        var = curves.real.var(axis=0, ddof=1) + curves.imag.var(axis=0, ddof=1)
        se = np.sqrt(var / n_samples)
    return McEstimate(x, curves.mean(axis=0), se, n_samples)


def _operator_dim(model_spec) -> int:
    """Matrix dimension (mesh count for continuum, site count otherwise)."""
    if isinstance(model_spec, BumpFamily):
        return model_spec.n_mesh
    return site_count(model_spec)


_TREE_CHUNK = 48


def _refuse_dense(model_spec) -> None:
    """Refuse, before any sample is drawn, a LAPACK route above DENSE_CAP."""
    dim = _operator_dim(model_spec)
    if dim > DENSE_CAP:
        raise CapExceededError(
            f"dense eigensolve of n={dim} exceeds cap {DENSE_CAP}; use the charfn route"
        )


def _refuse_deep_tree(spec: TreeSpec) -> None:
    """Refuse, before any sample is drawn, a tree whose pivot sweep temporary,
    the deepest level times _TREE_CHUNK energies, exceeds MAX_GRID_POINTS entries."""
    entries = tree_level_sizes(spec)[-1] * _TREE_CHUNK
    if entries > MAX_GRID_POINTS:
        raise CapExceededError(f"tree pivot sweep of depth {spec.depth} needs "
                               f"{entries} entries per temporary > {MAX_GRID_POINTS}")


def _in_blocks(curve, energies: np.ndarray, size: int) -> np.ndarray:
    """``curve`` evaluated on consecutive blocks of ``size`` energies, joined."""
    return np.concatenate([curve(energies[start:start + size])
                           for start in range(0, energies.size, size)])


def _tree_green_diagonals(spec: TreeSpec, omegas: np.ndarray, z: np.ndarray,
                          mode: str) -> np.ndarray:
    """Broadened local density on the truncated tree from the LDL^T pivots of H - z.

    One leaf-to-root sweep gives the pivots d_v = omega_v - z - sum_c 1/d_c and
    d'_v = -1 + sum_c d'_c/d_c^2 over the children c of v. mode="site" returns
    (1/pi) Im G_00 = (1/pi) Im 1/d_root; mode="trace" the vertex average of
    (1/pi) Im G_vv, as Tr G = -sum_v d'_v/d_v. Im z > 0 keeps |d_v| >= Im z.
    """
    trace = mode == "trace"
    end = omegas.size
    pivots = slopes = None
    total = 0.0
    for size in reversed(tree_level_sizes(spec)):
        d = omegas[end - size:end, None] - z
        s = np.full_like(d, -1.0) if trace else None
        end -= size
        if pivots is not None:
            # each vertex's children are one contiguous block of the level below;
            # the level's pivots and slopes are not read again, so overwrite them
            inv = np.divide(1.0, pivots, out=pivots).reshape(size, -1, z.size)
            d -= inv.sum(axis=1)
            if trace:
                w = np.multiply(slopes, pivots, out=slopes).reshape(size, -1, z.size)
                total = total + w.sum(axis=(0, 1))
                s += np.multiply(w, inv, out=w).sum(axis=1)
        pivots, slopes = d, s
    g_root = 1.0 / pivots[0]
    if not trace:
        return g_root.imag / np.pi
    return -(total + slopes[0] * g_root).imag / np.pi / omegas.size


def dos_mc(model_spec, kernel: CauchyKernel | None, grid: EnergyGrid, n_samples: int,
           master_seed: int, broaden: float, estimator: str = "trace") -> McEstimate:
    """Disorder-averaged broadened local density of states on a grid.

    Per sample the spectrum is broadened with the Cauchy kernel of scale
    ``broaden``; the expectation then equals the exact free curve smoothed at
    scale lam + broaden. estimator="trace" averages the local measure over all
    sites (unbiased for translation-invariant boxes, far lower variance);
    "site" uses the single-site measure at the origin/root. Trees take the
    leaf-to-root pivot sweep, bounded by its temporaries, in blocks of
    _TREE_CHUNK energies; lattices and continuum meshes take LAPACK, bounded by
    DENSE_CAP, and broaden in blocks of at most MAX_GRID_POINTS entries.
    """
    if not (broaden > 0):
        raise ValueError(f"broaden must be > 0 for density estimates, got {broaden}")
    if estimator not in ("trace", "site"):
        raise ValueError(f"unknown estimator {estimator!r}")
    energies = grid.points
    n_sites = site_count(model_spec)
    smear = CauchyKernel(broaden)

    if isinstance(model_spec, TreeSpec):
        _refuse_deep_tree(model_spec)

        def per_sample(i):
            omegas = draw_sample(kernel, n_sites, master_seed, i).omegas

            def curve(e):
                return _tree_green_diagonals(model_spec, omegas, e + 1j * broaden, estimator)
            return _in_blocks(curve, energies, _TREE_CHUNK)

    else:
        _refuse_dense(model_spec)
        block = max(1, MAX_GRID_POINTS // _operator_dim(model_spec))

        def per_sample(i):
            op = build_operator(model_spec, draw_sample(kernel, n_sites, master_seed, i))
            if estimator == "trace":
                values, weights = eigvals_sym(op), None
            else:
                eig = eig_sym(op)
                values, weights = eig.values, eig.vectors[0] * eig.vectors[0]

            def curve(e):
                poisson = cauchy_density(smear, e[:, None] - values)
                return poisson.sum(axis=1) / values.size if weights is None else poisson @ weights
            return _in_blocks(curve, energies, block)

    return _run_samples(per_sample, n_samples, worker_count(), energies)


def ids_mc(model_spec, kernel: CauchyKernel | None, e_points: np.ndarray, n_samples: int,
           master_seed: int) -> McEstimate:
    """Disorder-averaged eigenvalue-counting IDS evaluated at fixed energies.

    Counts are divided by the box volume: the bump count for continuum meshes,
    the site count otherwise. Chains, rings and meshes (d=1 boxes and bump
    families) are counted by ``_sturm_counts`` and have no size cap; trees and
    d>=2 boxes count the eigenvalues of ``eigvals_sym``, bounded by DENSE_CAP.
    A NaN or infinite energy raises ValueError before any sample is drawn.
    """
    e_points = np.asarray(e_points, dtype=float)
    if not np.all(np.isfinite(e_points)):
        raise ValueError("ids_mc requires finite energies")
    n_sites = site_count(model_spec)
    volume = float(model_spec.length if isinstance(model_spec, BumpFamily) else n_sites)
    if isinstance(model_spec, BumpFamily) or (isinstance(model_spec, LatticeBoxSpec)
                                              and model_spec.d == 1):
        count = _sturm_counts
    else:
        _refuse_dense(model_spec)

        def count(op, e):
            # both LAPACK drivers return ascending eigenvalues; N(E) counts E_k <= E
            return np.searchsorted(eigvals_sym(op), e, side="right")

    def per_sample(i):
        op = build_operator(model_spec, draw_sample(kernel, n_sites, master_seed, i))
        return count(op, e_points) / volume

    return _run_samples(per_sample, n_samples, worker_count(), e_points)


def charfn_mc(model_spec, kernel: CauchyKernel | None, t_grid: EnergyGrid, n_samples: int,
              master_seed: int, phi_site: int = 0, psi_site: int = 0) -> McEstimate:
    """Disorder average of <phi, exp(itH) psi> on a uniform t-grid.

    Each sample takes one Lanczos run from psi for the whole grid
    (:func:`krylov_charfn`): it stops once beta_m * max_t |e_m^T exp(itT_m) e_1|
    <= KRYLOV_TOL, holds an n x m basis (m is a few dozen on the d=1 rings of
    the checks), and its cost does not depend on max|omega|. The t=0 entry is
    <phi, psi> exactly, with zero variance.
    """
    times = t_grid.points
    n_sites = site_count(model_spec)
    dim = _operator_dim(model_spec)
    if not (0 <= phi_site < dim and 0 <= psi_site < dim):
        raise IndexError(f"phi/psi sites out of range for n={dim}")

    def per_sample(i):
        op = build_operator(model_spec, draw_sample(kernel, n_sites, master_seed, i))
        return krylov_charfn(op, phi_site, psi_site, times)[0]

    return _run_samples(per_sample, n_samples, worker_count(), times)
