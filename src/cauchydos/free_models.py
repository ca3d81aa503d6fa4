"""Clean (disorder-free) reference operators and their exact smoothed spectra.

Three families are covered:

* hypercubic lattice adjacency on Z^d, local spectral measure at the origin;
* the infinite (K+1)-regular tree, whose root measure is the Kesten-McKay law,
  together with its depth-truncated finite counterpart;
* the 1-d negative Laplacian, through its integrated density of states.

By the Lloyd identity every Cauchy-smoothed curve is (1/pi) Im m(E + i*lam),
where m(z) = int dmu(x) / (x - z) is the Stieltjes transform of the free
measure. Inside the strip |Im E| < lam it continues analytically as

    p(E) = (m(E + i*lam) - m(E - i*lam)) / (2*pi*i).

``exact_smoothed`` is the one evaluator. It uses closed forms where they
exist: the Kesten-McKay transform (the chain Z is its K = 1 case) and the
continuum IDS Re sqrt(E + i*lam) / pi. The d >= 2 lattice keeps the
time-domain integral of the diagonal free amplitude J_0(2t)^d,

    p(E) = (1/pi) * int_0^inf exp(-lam t) cos(E t) J_0(2t)^d dt,

evaluated as a Laplace transform at lam -+ iE on shared Gauss-Legendre
nodes: blocks of panels factor exp(-zeta t) into a block phase times an
in-block factor, so the node sum is one matrix product. Bessel values come
from ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, jv

from .errors import OutsideStripError
from .measures import MAX_GRID_POINTS, CauchyKernel

__all__ = [
    "BetheFreeModel",
    "ContinuumFreeModel",
    "LatticeFreeModel",
    "bessel_j",
    "continuum_free_ids",
    "exact_smoothed",
    "lattice_box_charfn",
    "lattice_dos_smoothed",
    "truncated_tree_stieltjes",
]

TRUNCATION_EPS = 1e-14
# kernel-matrix entries per block of energies in the time-domain integral
_BLOCK = 1 << 20
# Gauss-Legendre panels per block of time nodes in the time-domain integral
_GROUP = 8


@dataclass(frozen=True)
class LatticeFreeModel:
    """Adjacency operator of Z^d; spectrum [-2d, 2d]."""

    d: int

    def __post_init__(self):
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError("lattice dimension must be an integer >= 1")


@dataclass(frozen=True)
class BetheFreeModel:
    """Adjacency operator of the infinite (K+1)-regular tree; spectrum [-2 sqrt K, 2 sqrt K]."""

    K: int

    def __post_init__(self):
        if not (isinstance(self.K, int) and self.K >= 2):
            raise ValueError("branching number K must be an integer >= 2")


@dataclass(frozen=True)
class ContinuumFreeModel:
    """The 1-d negative Laplacian -d^2/dx^2; free IDS sqrt(max(E,0))/pi."""


# ---------------------------------------------------------------------------
# The exact smoothed curves.
# ---------------------------------------------------------------------------


def exact_smoothed(model, kernel: CauchyKernel, energy):
    """Cauchy-smoothed free curve at real or complex energies, scalar or array.

    Lattice and Bethe models give the smoothed density of states at the
    origin/root, the continuum model the smoothed IDS per unit length. Real
    energies give real values. Complex energies inside the strip |Im E| < lam
    give the analytic continuation; on or beyond its boundary
    OutsideStripError is raised.
    """
    real = not np.iscomplexobj(energy)
    e = np.asarray(energy, dtype=float if real else complex)
    lam = kernel.lam
    height = float(np.max(np.abs(e.imag), initial=0.0))
    if height >= lam:
        raise OutsideStripError(f"|Im E| = {height} is outside the strip of width lambda = {lam}")
    if isinstance(model, ContinuumFreeModel):
        p = (np.sqrt(e + 1j * lam) + np.sqrt(e - 1j * lam)) / (2.0 * np.pi)
    elif isinstance(model, LatticeFreeModel) and model.d > 1:
        p = _lattice_time_integral(model.d, lam, e)
    elif isinstance(model, (LatticeFreeModel, BetheFreeModel)):
        K = model.K if isinstance(model, BetheFreeModel) else 1  # the chain Z is the K = 1 tree
        p = (_tree_stieltjes(K, e + 1j * lam) - _tree_stieltjes(K, e - 1j * lam)) / (2j * np.pi)
    else:
        raise TypeError(f"unsupported free model {type(model).__name__}")
    if real:
        p = p.real
    return p.item() if p.ndim == 0 else p


def _tree_stieltjes(K: int, z):
    """Root Stieltjes transform of the infinite (K+1)-regular tree, z off [-2 sqrt K, 2 sqrt K].

    The Kesten-McKay transform (McKay, Linear Algebra Appl. 40, 203, 1981),
    written as 2K / ((1-K) z - (K+1) sqrt(z^2 - 4K)) so that no cancellation
    occurs near the removable pole z^2 = (K+1)^2. K = 1 gives the arcsine law
    of the chain, -1 / sqrt(z^2 - 4).
    """
    r = 2.0 * math.sqrt(K)
    return 2.0 * K / ((1 - K) * z - (K + 1) * (np.sqrt(z - r) * np.sqrt(z + r)))


def _lattice_time_integral(d: int, lam: float, energies: np.ndarray) -> np.ndarray:
    """(1/pi) int_0^T exp(-lam t) cos(E t) J_0(2t)^d dt for real or complex E.

    T follows from the strip margin lam - max|Im E| so that the discarded tail
    is below 1e-14. [0, T] is cut into equal Gauss-Legendre panels no wider
    than the fastest oscillation allows, so their count grows with T and
    max|Re E|; past MAX_GRID_POINTS nodes ValueError is raised before anything
    is allocated. Panels are grouped in blocks of ``_GROUP``, so every node is
    t = tau_b + s_k. The integral is the Laplace sum
    L(zeta) = sum_t w_t J_0(2t)^d exp(-zeta t) as p = (L(lam - iE) + L(lam + iE))
    / (2 pi), i.e. Re L(lam - iE) / pi for real E. As exp(-zeta t) =
    exp(-zeta tau_b) exp(-zeta s_k), the node sum is one matrix product with
    exp(-s zeta) and a contraction with exp(-tau zeta): a few hundred
    exponentials per energy. Re zeta > 0 in the strip and tau, s >= 0, so no
    factor exceeds 1.
    """
    e = np.asarray(energies)
    margin = lam - np.max(np.abs(e.imag), initial=0.0)
    tmax = -math.log(TRUNCATION_EPS) / margin
    e_max = float(np.max(np.abs(e.real), initial=0.0))
    n_panels = int(math.ceil(tmax / min(0.5, 8.0 / max(e_max + 2.0 * d, 1.0))))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    if nodes.size * n_panels > MAX_GRID_POINTS:
        raise ValueError(f"the d={d} time integral at max|E| = {e_max:g} (strip margin "
                         f"{margin:g}) needs {nodes.size * n_panels} nodes > {MAX_GRID_POINTS}")
    n_blocks = -(-n_panels // _GROUP)
    h = tmax / n_panels
    s = (h * (np.arange(_GROUP)[:, None] + 0.5 * (1.0 + nodes))).ravel()
    tau = h * _GROUP * np.arange(n_blocks)
    # panels past tmax only pad the last block and carry weight 0
    live = (np.arange(n_blocks * _GROUP) < n_panels).reshape(n_blocks, _GROUP, 1)
    w = (0.5 * h * weights * live).reshape(n_blocks, -1)
    g = j0(2.0 * (tau[:, None] + s)) ** d * w
    flat, real = e.ravel(), not np.iscomplexobj(e)
    zeta = lam - 1j * flat if real else np.concatenate((lam - 1j * flat, lam + 1j * flat))
    laplace = np.empty(zeta.size, dtype=complex)
    cols = max(1, _BLOCK // (n_blocks + s.size))
    for start in range(0, zeta.size, cols):
        z = zeta[start:start + cols]
        # real g times complex phases as one real product on (re, im) pairs
        inner = (g @ np.exp(-np.multiply.outer(s, z)).view(float)).view(complex)
        phase = np.exp(-np.multiply.outer(tau, z))
        laplace[start:start + cols] = np.sum(inner * phase, axis=0)
    p = laplace.real if real else 0.5 * (laplace[:flat.size] + laplace[flat.size:])
    return p.reshape(e.shape) / np.pi


def lattice_dos_smoothed(model: LatticeFreeModel, kernel: CauchyKernel, energy):
    """Cauchy-smoothed lattice density of states; see ``exact_smoothed``."""
    return exact_smoothed(model, kernel, energy)


# ---------------------------------------------------------------------------
# Bessel functions of the first kind and lattice free amplitudes.
# ---------------------------------------------------------------------------


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), integer order n >= 0."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError("order n must be a nonnegative integer")
    return float(jv(n, x))


def lattice_box_charfn(model: LatticeFreeModel, kernel: CauchyKernel, side: int,
                       phi_site: int, psi_site: int, times) -> np.ndarray:
    """Exact average exp(-lam|t|) <delta_phi, exp(itH) delta_psi> for two box sites.

    The linear site indices of a periodic box with ``side`` sites per axis are
    decoded with axis 0 fastest, as ``ensemble.build_lattice`` numbers them.
    The free amplitude is taken at the per-axis offset x to the nearest
    periodic image, so offset side-1 on a ring counts as -1. On Z^d it
    factorizes over axes as prod_j i^{x_j} J_{x_j}(2t), and negative offsets
    enter through J_{-m}(y) = (-1)^m J_m(y).
    """
    shape = (side,) * model.d
    phi = np.array(np.unravel_index(phi_site, shape, order="F"))
    psi = np.array(np.unravel_index(psi_site, shape, order="F"))
    offset = (psi - phi + side // 2) % side - side // 2
    times = np.asarray(times, dtype=float)
    free = np.full(times.shape, 1.0 + 0.0j)
    for m in offset:
        a = abs(int(m))
        # i^(-a) J_(-a) = i^a J_a, so only the magnitude of the offset enters
        free *= (1j ** a) * jv(a, 2.0 * times)
    return np.exp(-kernel.lam * np.abs(times)) * free


# ---------------------------------------------------------------------------
# Bethe lattice: truncated-tree transforms.
# ---------------------------------------------------------------------------


def truncated_tree_stieltjes(K: int, depth: int, z):
    """Root and vertex-averaged Stieltjes transforms of the depth-truncated tree.

    The leaf-to-root LDL^T sweep of H - z with every vertex of a level sharing
    one pivot d_l and its z-derivative d'_l: leaves d = -z, d' = -1; a vertex
    with c children d = -z - c/d_child, d' = -1 + c d'_child/d_child^2. The
    root transform is 1/d_root; the trace is the log-determinant derivative
    -sum_l count_l d'_l/d_l. Valid for Im z > 0. Returns (root, mean).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("truncated_tree_stieltjes requires Im z > 0")
    d, slope, trace = -z, -1.0, 0.0
    for level in range(depth, 0, -1):
        children = K + 1 if level == 1 else K
        trace = trace - (K + 1) * K ** (level - 1) * slope / d
        d, slope = -z - children / d, -1.0 + children * slope / d**2
    trace = trace - slope / d
    return 1.0 / d, trace / (1 + (K + 1) * (K ** depth - 1) // (K - 1))


# ---------------------------------------------------------------------------
# 1-d continuum Laplacian: free integrated density of states.
# ---------------------------------------------------------------------------


def continuum_free_ids(model: ContinuumFreeModel, energy):
    """Free IDS of -d^2/dx^2 per unit length: sqrt(max(E, 0)) / pi."""
    e = np.asarray(energy, dtype=float)
    out = np.sqrt(np.clip(e, 0.0, None)) / np.pi
    return float(out) if out.ndim == 0 else out


