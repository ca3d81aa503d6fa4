"""Eigensolution, local spectral measures, time evolution, and disorder averaging.

Two independent experimental routes are provided: an energy-domain one built
on eigendecomposition and pivot sweeps, and a time-domain one built on a
Lanczos (Krylov) propagator for exp(itH). In the energy domain ``dos_mc`` and
``ids_mc`` hand their reductions to one function, ``_sampled``, which picks a
sample's kernel from the operator's structure: the LDL^T pivots of chains,
rings and meshes (a block of samples at a time) or of trees, or LAPACK. A bug
in either route is caught by disagreement with the exact curves of
``free_models``, which nothing here imports. The Chebyshev expansion of
exp(itH) cross-checks the Lanczos propagator.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
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
    """Thread count for sample-level parallelism, from CAUCHYDOS_THREADS (default 1).

    A value that is not an integer >= 1 raises ValueError.
    """
    raw = os.environ.get("CAUCHYDOS_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CAUCHYDOS_THREADS must be an integer >= 1, got {raw!r}")
    return workers


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


def _eigensolve(op: SymmetricOperator, vectors: bool):
    """The LAPACK solve of ``eig_sym`` (``vectors``) or ``eigvals_sym``, capped at DENSE_CAP.

    A convergence failure names the matrix by a SHA-256 digest of its
    triples, which is the same in every process.
    """
    if op.n > DENSE_CAP:
        raise CapExceededError(f"dense eigensolve of n={op.n} exceeds cap {DENSE_CAP}")
    try:
        if vectors:
            return np.linalg.eigh(op.to_dense())
        band = _band_form(op)
        if band is None:
            return np.linalg.eigvalsh(op.to_dense())
        from scipy.linalg import eigvals_banded

        return eigvals_banded(band, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        digest = hashlib.sha256()
        for part in (op.rows, op.cols, op.vals):
            digest.update(part.tobytes())
        raise SolverError(f"eigensolver failed to converge "
                          f"(matrix sha256 {digest.hexdigest()[:16]})") from exc


def eig_sym(op: SymmetricOperator) -> tuple[np.ndarray, np.ndarray]:
    """Dense ascending eigenvalues and orthonormal eigenvectors (matrix columns)."""
    return _eigensolve(op, vectors=True)


def eigvals_sym(op: SymmetricOperator) -> np.ndarray:
    """Ascending eigenvalues only: a band solve where ``_band_form`` finds one, else dense."""
    return _eigensolve(op, vectors=False)


# sites per block of the Sturm sweep, whose pivots are counted a block at a time
_STURM_BLOCK = 64


def _chain_couplings(op: SymmetricOperator) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Diagonal a, path bonds b and wrapping bond of a chain, ring or mesh.

    ``op`` has bonds (k, k+1) only, plus the wrapping bond (0, n-1) of a
    ring. b[k] couples sites k-1 and k (b[0] = 0). The wrapping bond is None
    without one; at n <= 2 the bond (0, n-1) is a path bond.
    """
    on = op.rows == op.cols
    diag = np.zeros(op.n)
    diag[op.rows[on]] = op.vals[on]
    step = op.cols == op.rows + 1
    bond = np.zeros(op.n)
    bond[op.cols[step]] = op.vals[step]
    wrapping = op.cols - op.rows == op.n - 1
    wrap = float(op.vals[wrapping].sum()) if op.n > 2 and wrapping.any() else None
    return diag, bond, wrap


def _sturm_counts(couplings: list, e: np.ndarray) -> np.ndarray:
    """Number of eigenvalues E_k <= E of chains, rings or meshes at each E in ``e``.

    No eigenvalue is computed. One sweep serves a block of operators of one
    size n, each given by its ``_chain_couplings``, with one row of counts per
    operator. Site 0 removed, the open path on sites 1..n-1 (0..n-1 without a
    wrapping bond) has as many eigenvalues below E as H - E has negative pivots

        d_k = (a_k - E) - b_{k-1}^2 / d_{k-1}

    (Dean, Proc. R. Soc. A 254, 507, 1960). A pivot with |d| < pivmin =
    tiny * max(1, max b^2) over the path's bonds becomes -pivmin, as in
    LAPACK's dstebz, so a zero pivot counts and the path's count is that of
    E_k <= E. By Cauchy interlacing a ring has the path's count or one more;
    the sign of det(H - E) picks which. That sign is the sign of the
    permutation times those of diag(U) from one banded LU with partial
    pivoting per operator and energy (``dgbtrf``, backward stable) on the
    interleaved band of ``_band_form`` (w = 2). An entry of diag(U) at or
    below n eps (max|band| + |E|), the LU's backward error, counts as zero and
    so as negative: at an energy that is an eigenvalue of the ring, det(H - E)
    = 0 and the tie is counted. Each entry is counted alone, so the rows do
    not depend on the block.
    """
    n, ring = couplings[0][0].size, couplings[0][2] is not None
    # (site, operator, 1): a site's row broadcasts against the energies; bond2[k] = b_{k-1}^2
    diag, bond2 = (np.stack(part, axis=1)[:, :, None] for part in list(zip(*couplings))[:2])
    bond2 **= 2
    pivmin = np.finfo(float).tiny * np.maximum(1.0, bond2[1 + ring:].max(axis=0, initial=0.0))
    count = np.zeros((len(couplings), e.size), dtype=np.int64)
    pivot = None
    for start in range(int(ring), n, _STURM_BLOCK):
        block = diag[start:start + _STURM_BLOCK] - e
        for k, row in enumerate(block, start):
            if pivot is not None:
                row -= bond2[k] / pivot
            np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
            pivot = row
        count += np.count_nonzero(block < 0, axis=0)
    if ring:
        from scipy.linalg.lapack import dgbtrf

        sites = np.arange(n)
        rows, cols = np.r_[sites, sites[:-1], 0], np.r_[sites, sites[1:], n - 1]
        tol = n * np.finfo(float).eps
        for j, (a, b, wrap) in enumerate(couplings):
            band = _band_form(SymmetricOperator(n, rows, cols, np.r_[a, b[1:], wrap]))
            w = band.shape[0] - 1
            # general band storage of dgbtrf: diagonal in row 2w, w rows left for fill-in
            general = np.zeros((3 * w + 1, n))
            for r in range(w + 1):
                general[2 * w - r, r:] = general[2 * w + r, :n - r] = band[r, :n - r]
            scale = float(np.max(np.abs(band)))
            odd = np.empty(e.size, dtype=bool)
            for i, energy in enumerate(e):
                shifted = general.copy()
                shifted[2 * w] -= energy
                lu, piv, _ = dgbtrf(shifted, w, w, overwrite_ab=True)
                # an entry within the LU's backward error of zero counts as zero, so as
                # negative, as a zero pivot does above
                zero = tol * (scale + abs(energy))
                flips = np.count_nonzero(piv != sites) + np.count_nonzero(lu[2 * w] <= zero)
                odd[i] = flips % 2 == 1
            count[j] += (count[j] % 2 == 1) != odd
    return count


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
# Krylov vectors in the first block of the basis, which then doubles as needed
_KRYLOV_BLOCK = 64


def _krylov_rows(rows: int, n: int) -> int:
    """min(rows, n), a Krylov basis size for length-n vectors; CapExceededError
    when that basis would hold more than MAX_GRID_POINTS entries."""
    rows = min(rows, n)
    if rows * n > MAX_GRID_POINTS:
        raise CapExceededError(f"Krylov basis of {rows} vectors of length {n} "
                               f"exceeds {MAX_GRID_POINTS} entries")
    return rows


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
    n x m basis, refused by ``_krylov_rows`` past MAX_GRID_POINTS entries. A
    t=0 entry is <phi, psi> exactly. Returns the amplitudes and m. Every
    reduction is an einsum rather than a BLAS call, so the bytes do not depend
    on BLAS threading.
    """
    from scipy.linalg import eigh_tridiagonal

    times = np.asarray(times, dtype=float)
    n = op.n
    csr = op.to_csr()
    basis = np.zeros((_krylov_rows(_KRYLOV_BLOCK, n), n))
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
            # rows past m are written before they are read
            grown = np.empty((_krylov_rows(2 * m, n), n))
            grown[:m] = basis
            basis = grown
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


# entries (samples x energies) per temporary of the chain sweep, 128 KiB of
# complex numbers: a block of samples spreads the interpreter's per-site cost
# over its rows while each array stays in cache
_SWEEP_ENTRIES = 8192


def _run_samples(per_sample, n_samples: int, workers: int, x: np.ndarray,
                 sweep=None, cap: int = 1) -> McEstimate:
    """Evaluate one curve over ``x`` per sample i in range(n_samples).

    per_sample(i) is sample i's curve, or with ``sweep`` its input,
    sweep(inputs) returning a block's curves as rows. One task handles a
    block of at most ``cap`` consecutive samples: there are k =
    max(ceil(n_samples / cap), min(workers, n_samples)) blocks, block j
    starting at sample floor(j n_samples / k), so every worker gets a block
    however few the energies. A sweep computes each row alone, so the
    partition moves no byte. The tasks run on a pool of up to ``workers``
    threads. The curves are reduced in index order afterwards to a pointwise
    mean and standard error, so the outcome is bit-identical no matter how
    many workers ran or how they were scheduled. The variance is var(re) +
    var(im); for real curves the second term is exactly 0. Failures are
    re-raised annotated with the offending sample index; tasks not yet
    started are then cancelled, and running blocks draw no further sample.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    blocks = max(-(-n_samples // cap), min(workers, n_samples))
    bounds = [j * n_samples // blocks for j in range(blocks + 1)]
    failed = threading.Event()

    def guarded(i):
        try:
            return per_sample(i)
        except Exception as exc:
            try:
                raise type(exc)(f"[sample {i}] {exc}") from exc
            except TypeError:
                raise RuntimeError(f"[sample {i}] {exc}") from exc

    def run_block(start, stop):
        try:
            inputs = []
            for i in range(start, stop):
                if failed.is_set():
                    return None  # the failed block raises in pool.map; this is never read
                inputs.append(guarded(i))
            return inputs if sweep is None else sweep(inputs)
        except Exception:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=min(workers, blocks)) as pool:
        curves = np.concatenate(list(pool.map(run_block, bounds[:-1], bounds[1:])))
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


def _in_blocks(curve, energies: np.ndarray, size: int) -> np.ndarray:
    """``curve`` evaluated on consecutive blocks of ``size`` energies, joined on its last axis."""
    return np.concatenate([curve(energies[start:start + size])
                           for start in range(0, energies.size, size)], axis=-1)


def _chain_green_diagonals(couplings: list, z: np.ndarray, mode: str) -> np.ndarray:
    """Broadened local density of chains, rings or meshes from the LDL^T pivots of H - z.

    One sweep serves a block of operators of one size n, each given by its
    ``_chain_couplings``, with one row per operator in every array. The path
    1..n-1 is eliminated first, with the pivots and their z-derivatives

        d_k = a_k - z - b_{k-1}^2 / d_{k-1},   d'_k = -1 + b_{k-1}^2 d'_{k-1} / d_{k-1}^2,

    and the fill toward site 0, c_1 = b_0 and c_{k+1} = w_{k+1} - b_k c_k / d_k
    (w_{n-1} the wrapping bond, 0 elsewhere). Site 0, last, is left with
    s = a_0 - z - sum_k c_k^2 / d_k. mode="site" returns (1/pi) Im G_00 =
    (1/pi) Im 1/s; mode="trace" the site average of (1/pi) Im G_kk, as
    Tr G = -sum_k d'_k/d_k - s'/s. Until the wrapping bond the fill's
    derivative needs no array of its own: c'_k / c_k = -L_{k-1}, where
    L_k = sum_{j<=k} d'_j/d_j, so (c_k^2/d_k)' = -(c_k^2/d_k)(2 L_{k-1} + d'_k/d_k).
    A ring's last site takes c'_{n-1} = b_{n-2} (c_{n-2}/d_{n-2}) L_{n-2}.
    Im z > 0 keeps every |d_k| >= Im z and |c_k| <= |b_0 b_{k-1}| / Im z, so
    no pivoting is needed. Each entry is computed alone, so the rows do not
    depend on the block.
    """
    n, trace = couplings[0][0].size, mode == "trace"
    ring = couplings[0][2] is not None
    # (site, operator, 1): a site's row broadcasts against the energies; bond[k] = b_{k-1}
    diag, bond = (np.stack(part, axis=1)[:, :, None] for part in list(zip(*couplings))[:2])
    wrap = np.array([[0.0 if w is None else w] for _, _, w in couplings])
    shape = (len(couplings), z.size)
    fills = np.zeros(shape, complex)  # sum_k c_k^2 / d_k
    if trace:
        logs = np.zeros(shape, complex)  # L_k = sum_{j<=k} d'_j / d_j
        slopes = np.zeros(shape, complex)  # sum_k (c_k^2 / d_k)'
    if n > 1:
        r, v, t, c = (np.empty(shape, complex) for _ in range(4))
        d = np.subtract(diag[1], z)
        c[...] = bond[1]
        if trace:
            u, w = np.empty(shape, complex), np.empty(shape, complex)
            dp = np.full(shape, -1.0 + 0j)
    for k in range(1, n):
        np.divide(1.0, d, out=r)
        np.multiply(c, r, out=v)  # c/d
        fills += np.multiply(c, v, out=t)  # c^2/d
        if trace:
            np.multiply(dp, r, out=u)  # d'/d
            if ring and k == n - 1:
                # w holds c'_{n-1}: (c^2/d)' = (c/d)(2c' - c d'/d)
                w += w
                w -= np.multiply(c, u, out=r)
                slopes += np.multiply(w, v, out=w)
            else:  # (c^2/d)' = -(c^2/d)(2 L_{k-1} + d'/d)
                np.add(logs, logs, out=w)
                w += u
                slopes -= np.multiply(w, t, out=w)
            logs += u
        if k == n - 1:
            break
        np.multiply(v, -bond[k + 1], out=c)
        if k + 1 == n - 1:
            c += wrap
            if trace and ring:  # c'_{n-1} = b_{n-2} (c/d) L_{n-2}
                np.multiply(v, logs, out=w)
                w *= bond[k + 1]
        r *= bond[k + 1] ** 2  # b_k^2 / d_k
        if trace:
            np.multiply(r, u, out=dp)
            dp -= 1.0
        np.subtract(diag[k + 1], r, out=d)
        d -= z
    s = np.subtract(diag[0], z) - fills
    if not trace:
        return (1.0 / s).imag / np.pi
    # s' = -1 - slopes
    return ((1.0 + slopes) / s - logs).imag / np.pi / n


# energies per call of the tree sweep, and vertices of the deepest level per
# group of it: at 48 energies a group's largest buffer is 1.5 MiB, within a 2 MiB L2
_TREE_CHUNK = 48
_TREE_GROUP = 2048


def _tree_green_diagonals(spec: TreeSpec, omegas: np.ndarray, z: np.ndarray,
                          mode: str) -> np.ndarray:
    """Broadened local density on the truncated tree from the LDL^T pivots of H - z.

    One leaf-to-root sweep gives the pivots d_v = omega_v - z - sum_c 1/d_c and
    d'_v = -1 + sum_c d'_c/d_c^2 over the children c of v. mode="site" returns
    (1/pi) Im G_00 = (1/pi) Im 1/d_root; mode="trace" the vertex average of
    (1/pi) Im G_vv, as Tr G = -sum_v d'_v/d_v. Im z > 0 keeps |d_v| >= Im z.

    In BFS order the descendants of consecutive vertices are one slice of
    every deeper level. Below the split level, the shallowest level l >= 1
    whose vertices have at most _TREE_GROUP descendants at the deepest one,
    the sweep runs one group of _TREE_GROUP // K^(depth - l) vertices of
    level l at a time, in buffers sized by the group and allocated once; the
    levels above take the split level's pivots and slopes whole. A level's
    trace terms are summed row by row across the groups, the order of
    numpy's sum over a whole level, so the curves do not depend on the
    groups. numpy sums a one-energy column pairwise instead, so one energy
    takes the whole tree as one group.
    """
    trace = mode == "trace"
    K, depth, nz = spec.K, spec.depth, z.size
    sizes = tree_level_sizes(spec)
    starts = np.cumsum([0] + sizes)
    limit = _TREE_GROUP if nz > 1 else sizes[-1]
    split = next((m for m in range(1, depth + 1) if K ** (depth - m) <= limit), 0)
    group = limit // K ** (depth - split)
    sums = np.empty((depth + 1, nz), complex)  # sums[m]: level m's trace terms so far

    def sweep(m, lo, n, below, out, tmp):
        """Pivots (and slopes) of the n vertices of level m from its lo-th into
        rows 1..n of the buffers ``out``, from their children's in rows 1.. of
        ``below``; row 0 of a buffer is spare and carries level m+1's sum
        from the groups before."""
        d = out[0][1:n + 1]
        np.subtract(omegas[starts[m] + lo:starts[m] + lo + n, None], z, out=d)
        if m == depth:
            return  # a leaf's slope d'_v is -1 and is not stored
        # each vertex's children are one contiguous block of the level below;
        # their pivots and slopes are not read again, so overwrite them
        rows = n * K if m else sizes[1]
        inv = np.divide(1.0, below[0][1:rows + 1], out=below[0][1:rows + 1])
        np.subtract(d, np.sum(inv.reshape(n, -1, nz), axis=1, out=tmp[:n]), out=d)
        if not trace:
            return
        leaves = m + 1 == depth
        held = below[0] if leaves else below[1]
        terms = inv if leaves else np.multiply(held[1:rows + 1], inv, out=held[1:rows + 1])
        if lo == 0:
            np.sum(terms, axis=0, out=sums[m + 1])
        else:
            held[0] = sums[m + 1]
            np.sum(held[:rows + 1], axis=0, out=sums[m + 1])
        s = out[1][1:n + 1]
        np.sum(np.multiply(terms, inv, out=terms).reshape(n, -1, nz), axis=1, out=s)
        if leaves:
            np.negative(s, out=s)
        s -= 1.0

    def span(m):  # a group's rows of level m below the split, after a spare row
        return 1 + group * K ** (m - split) if m > split else 0

    # one allocation holds the group's five buffers: the pivots of levels depth
    # and depth-1, the slopes of levels depth-2 and depth-1 and the child sums,
    # so that malloc reuses its pages from call to call (five allocations
    # faulted in about 900 fresh pages per call on a depth-12 tree)
    widths = [span(depth), span(depth - 1)] + [span(depth - 2), span(depth - 1)] * trace
    children = group * K ** (depth - split) // K if depth > split else 0
    parts = np.split(np.empty((sum(widths) + children, nz), complex), np.cumsum(widths))
    pivots, slopes, tmp = parts[:2], parts[2:4] if trace else [None, None], parts[-1]
    level = [np.empty((1 + sizes[split], nz), complex) for _ in range(1 + trace)]
    for lo in range(0, sizes[split], group):
        n = min(group, sizes[split] - lo)
        below = None
        for m in range(depth, split - 1, -1):
            grown = K ** (m - split)
            out = ([b[lo:] for b in level] if m == split else
                   (pivots[(depth - m) % 2], slopes[(depth - m) % 2]))
            sweep(m, lo * grown, n * grown, below, out, tmp)
            below = out
    for m in range(split - 1, -1, -1):
        out = [np.empty((1 + sizes[m], nz), complex) for _ in range(1 + trace)]
        sweep(m, 0, sizes[m], level, out, np.empty((sizes[m], nz), complex))
        level = out
    g_root = 1.0 / level[0][1]
    if not trace:
        return g_root.imag / np.pi
    total = 0.0
    if depth:
        total = -sums[depth]
        for m in range(depth - 1, 0, -1):
            total = total + sums[m]
    slope = -1.0 if depth == 0 else level[1][1]
    return -(total + slope * g_root).imag / np.pi / omegas.size


def _sampled(spec, kernel: CauchyKernel | None, energies: np.ndarray, n_samples: int,
             master_seed: int, *, chain, solve, spectrum, tree=None) -> McEstimate:
    """One curve over ``energies`` per sample, by the route that ``spec`` picks.

    The route is picked once, and its one bound is checked before any sample
    is drawn: a pivot sweep refuses a spec whose one sample holds more than
    MAX_GRID_POINTS couplings, LAPACK one above DENSE_CAP. The routes:

    - chain sweep, for chains, rings and meshes (d=1 boxes and bump
      families): sample i's input is ``_chain_couplings`` of its operator,
      and chain(couplings, e) gives a block of samples' rows at the energies
      e. A block's couplings hold at most MAX_GRID_POINTS entries, samples x
      sites, and it is swept in energy blocks whose temporaries, samples x
      energies, hold at most _SWEEP_ENTRIES entries.
    - tree sweep, for trees when ``tree`` is given: tree(omegas, e) is one
      sample's curve, in blocks of _TREE_CHUNK energies.
    - LAPACK otherwise: spectrum(solve(op), e) is one sample's curve, in
      blocks of energies whose energies x n entries are at most MAX_GRID_POINTS.
    """
    n_sites, dim = site_count(spec), _operator_dim(spec)
    chained = isinstance(spec, BumpFamily) or (isinstance(spec, LatticeBoxSpec) and spec.d == 1)
    route = "chain" if chained else "tree" if tree and isinstance(spec, TreeSpec) else "lapack"
    if route != "lapack" and dim > MAX_GRID_POINTS:
        raise CapExceededError(f"{route} pivot sweep of n={dim} sites exceeds {MAX_GRID_POINTS}")
    if route == "lapack" and dim > DENSE_CAP:
        raise CapExceededError(f"dense eigensolve of n={dim} exceeds cap {DENSE_CAP}; "
                               "use the charfn route")
    sweep, cap = None, 1
    if route == "chain":
        cap = max(1, min(_SWEEP_ENTRIES // energies.size, MAX_GRID_POINTS // dim))

        def sweep(couplings):
            return _in_blocks(lambda e: chain(couplings, e), energies,
                              max(1, _SWEEP_ENTRIES // len(couplings)))

    def per_sample(i):
        sample = draw_sample(kernel, n_sites, master_seed, i)
        if route == "tree":
            return _in_blocks(lambda e: tree(sample.omegas, e), energies, _TREE_CHUNK)
        op = build_operator(spec, sample)
        if route == "chain":
            return _chain_couplings(op)
        solved = solve(op)
        return _in_blocks(lambda e: spectrum(solved, e), energies, max(1, MAX_GRID_POINTS // dim))

    return _run_samples(per_sample, n_samples, worker_count(), energies, sweep, cap)


def dos_mc(model_spec, kernel: CauchyKernel | None, grid: EnergyGrid, n_samples: int,
           master_seed: int, broaden: float, estimator: str = "trace") -> McEstimate:
    """Disorder-averaged broadened local density of states on a grid.

    Per sample the spectrum is broadened with the Cauchy kernel of scale
    ``broaden``; the expectation then equals the exact free curve smoothed at
    scale lam + broaden. estimator="trace" averages the local measure over all
    sites (unbiased for translation-invariant boxes, far lower variance);
    "site" uses the single-site measure at the origin/root. ``_sampled`` picks
    the route: the pivots of H - E - i broaden (``_chain_green_diagonals``,
    ``_tree_green_diagonals``), or LAPACK's eigenvalues, and for "site" its
    eigenvectors, broadened by ``cauchy_density``.
    """
    if not (broaden > 0):
        raise ValueError(f"broaden must be > 0 for density estimates, got {broaden}")
    if estimator not in ("trace", "site"):
        raise ValueError(f"unknown estimator {estimator!r}")
    smear = CauchyKernel(broaden)

    def solve(op):
        values, vectors = eig_sym(op) if estimator == "site" else (eigvals_sym(op), None)
        return values, None if vectors is None else vectors[0] * vectors[0]

    def spectrum(solved, e):
        values, weights = solved
        poisson = cauchy_density(smear, e[:, None] - values)
        return poisson.sum(axis=1) / values.size if weights is None else poisson @ weights

    return _sampled(
        model_spec, kernel, grid.points, n_samples, master_seed, solve=solve, spectrum=spectrum,
        chain=lambda couplings, e: _chain_green_diagonals(couplings, e + 1j * broaden, estimator),
        tree=lambda omegas, e: _tree_green_diagonals(model_spec, omegas, e + 1j * broaden,
                                                     estimator))


def ids_mc(model_spec, kernel: CauchyKernel | None, e_points, n_samples: int,
           master_seed: int) -> McEstimate:
    """Disorder-averaged eigenvalue-counting IDS at a 1-d array of energies.

    A scalar energy is one point. Counts are divided by the box volume,
    ``site_count`` (the bump count of a continuum mesh). ``_sampled`` picks
    the route: ``_sturm_counts`` for chains, rings and meshes, and for trees
    and d>=2 boxes the eigenvalues of ``eigvals_sym``. An empty, non-1-d,
    NaN or infinite energy array raises ValueError before any sample is drawn.
    """
    e_points = np.atleast_1d(np.asarray(e_points, dtype=float))
    if e_points.ndim != 1 or not e_points.size or not np.all(np.isfinite(e_points)):
        raise ValueError("ids_mc requires a non-empty 1-d array of finite energies")
    n_sites = site_count(model_spec)
    # both LAPACK drivers return ascending eigenvalues; N(E) counts E_k <= E
    return _sampled(
        model_spec, kernel, e_points, n_samples, master_seed, solve=eigvals_sym,
        spectrum=lambda values, e: np.searchsorted(values, e, side="right") / n_sites,
        chain=lambda couplings, e: _sturm_counts(couplings, e) / n_sites)


def charfn_mc(model_spec, kernel: CauchyKernel | None, t_grid: EnergyGrid, n_samples: int,
              master_seed: int, phi_site: int = 0, psi_site: int = 0) -> McEstimate:
    """Disorder average of <phi, exp(itH) psi> on a uniform t-grid.

    Each sample takes one Lanczos run from psi for the whole grid
    (:func:`krylov_charfn`): it stops once beta_m * max_t |e_m^T exp(itT_m) e_1|
    <= KRYLOV_TOL, holds an n x m basis (m is a few dozen on the d=1 rings of
    the checks), and its cost does not depend on max|omega|. A site outside
    [0, n) raises ValueError, and a spec whose first basis block exceeds
    MAX_GRID_POINTS entries CapExceededError, both before any sample is
    drawn. The t=0 entry is <phi, psi> exactly, with zero variance.
    """
    times = t_grid.points
    n_sites = site_count(model_spec)
    dim = _operator_dim(model_spec)
    if not (0 <= phi_site < dim and 0 <= psi_site < dim):
        raise ValueError(f"phi_site {phi_site} and psi_site {psi_site} must lie in [0, {dim})")
    _krylov_rows(_KRYLOV_BLOCK, dim)

    def per_sample(i):
        op = build_operator(model_spec, draw_sample(kernel, n_sites, master_seed, i))
        return krylov_charfn(op, phi_site, psi_site, times)[0]

    return _run_samples(per_sample, n_samples, worker_count(), times)
