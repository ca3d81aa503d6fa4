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
in-block factor, so the node sum is one matrix product. Scalar Bessel values
come from ``scipy.special``; the Miller sweep ``bessel_j_sequence`` gives the whole
coefficient sequence the Chebyshev propagator needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, jv

from .errors import OutsideStripError
from .measures import CauchyKernel

__all__ = [
    "BetheFreeModel",
    "ContinuumFreeModel",
    "LatticeFreeModel",
    "bessel_j",
    "bessel_j_sequence",
    "continuum_free_ids",
    "exact_smoothed",
    "lattice_box_charfn",
    "lattice_dos_smoothed",
    "lattice_offdiag_charfn",
    "truncated_tree_mean_stieltjes",
    "truncated_tree_root_stieltjes",
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

    @property
    def band_edge(self) -> float:
        return 2.0 * math.sqrt(self.K)


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
    than the fastest oscillation allows, grouped in blocks of ``_GROUP``
    panels, so every node is t = tau_b + s_k. The integral is the Laplace sum
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
    max_freq = np.max(np.abs(e.real), initial=0.0) + 2.0 * d
    n_panels = int(math.ceil(tmax / min(0.5, 8.0 / max(max_freq, 1.0))))
    n_blocks = -(-n_panels // _GROUP)
    h = tmax / n_panels
    nodes, weights = np.polynomial.legendre.leggauss(16)
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


def bessel_j_sequence(nmax: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_nmax(x) for x >= 0 by one downward Miller sweep.

    Normalized with J_0 + 2 sum_k J_{2k} = 1; rescaled on the fly to avoid
    overflow of the unnormalized recurrence.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if x < 0:
        raise ValueError("bessel_j_sequence requires x >= 0")
    out = np.zeros(nmax + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    top = max(nmax, int(math.ceil(x)))
    start = top + 1 + int(math.ceil(math.sqrt(40.0 * top)))
    if start % 2:
        start += 1
    fp = 0.0
    f = 1e-300
    even_sum = 0.0
    for m in range(start, 0, -1):
        fm = (2.0 * m / x) * f - fp
        fp, f = f, fm
        idx = m - 1
        if idx <= nmax:
            out[idx] = fm
        if idx > 0 and idx % 2 == 0:
            even_sum += 2.0 * fm
        if abs(f) > 1e250:
            f *= 1e-250
            fp *= 1e-250
            even_sum *= 1e-250
            out *= 1e-250
    norm = f + even_sum  # f now holds the unnormalized J_0
    return out / norm


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x), integer order n >= 0."""
    if not (isinstance(n, (int, np.integer)) and n >= 0):
        raise ValueError("order n must be a nonnegative integer")
    return float(jv(n, x))


def lattice_offdiag_charfn(model: LatticeFreeModel, x, t: float) -> complex:
    """Off-diagonal free amplitude <delta_0, exp(itH0) delta_x> on Z^d.

    Factorizes over axes as prod_j i^{x_j} J_{x_j}(2t); negative offsets are
    handled through J_{-m}(y) = (-1)^m J_m(y).
    """
    x = np.atleast_1d(np.asarray(x, dtype=int))
    if x.size != model.d:
        raise ValueError(f"offset has {x.size} components, model dimension is {model.d}")
    amp = 1.0 + 0.0j
    for m in x:
        a = abs(int(m))
        # i^(-a) J_(-a) = i^a J_a, so only the magnitude of the offset enters
        amp *= (1j ** a) * bessel_j(a, 2.0 * t)
    return amp


def lattice_box_charfn(model: LatticeFreeModel, kernel: CauchyKernel, side: int,
                       phi_site: int, psi_site: int, times) -> np.ndarray:
    """Exact average exp(-lam|t|) <delta_phi, exp(itH) delta_psi> for two box sites.

    The linear site indices of a periodic box with ``side`` sites per axis are
    decoded with axis 0 fastest, as ``ensemble.build_lattice`` numbers them.
    The free amplitude is taken at the per-axis offset to the nearest periodic
    image, so offset side-1 on a ring counts as -1.
    """
    shape = (side,) * model.d
    phi = np.array(np.unravel_index(phi_site, shape, order="F"))
    psi = np.array(np.unravel_index(psi_site, shape, order="F"))
    offset = (psi - phi + side // 2) % side - side // 2
    times = np.asarray(times, dtype=float)
    free = np.array([lattice_offdiag_charfn(model, offset, t) for t in times])
    return np.exp(-kernel.lam * np.abs(times)) * free


# ---------------------------------------------------------------------------
# Bethe lattice: truncated-tree transforms.
# ---------------------------------------------------------------------------


def truncated_tree_root_stieltjes(K: int, depth: int, z):
    """Stieltjes transform at the root of the depth-truncated (K+1)-regular tree.

    Continued fraction built leaves-up: s_0 = -1/z, s_h = 1/(-z - K s_{h-1}),
    root value 1/(-z - (K+1) s_{depth-1}). Valid for Im z > 0.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("truncated_tree_root_stieltjes requires Im z > 0")
    if depth == 0:
        return -1.0 / z
    s = -1.0 / z
    for _ in range(1, depth):
        s = 1.0 / (-z - K * s)
    return 1.0 / (-z - (K + 1) * s)


def truncated_tree_mean_stieltjes(K: int, depth: int, z):
    """Vertex-averaged Stieltjes transform of the depth-truncated tree.

    The leaf-to-root LDL^T sweep of H - z with every vertex of a level sharing
    one pivot d_l and its z-derivative d'_l: leaves d = -z, d' = -1; a vertex
    with c children d = -z - c/d_child, d' = -1 + c d'_child/d_child^2. The
    trace is the log-determinant derivative -sum_l count_l d'_l/d_l.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0):
        raise ValueError("truncated_tree_mean_stieltjes requires Im z > 0")
    d, slope, trace = -z, -1.0, 0.0
    for level in range(depth, 0, -1):
        children = K + 1 if level == 1 else K
        trace = trace - (K + 1) * K ** (level - 1) * slope / d
        d, slope = -z - children / d, -1.0 + children * slope / d**2
    trace = trace - slope / d
    return trace / (1 + (K + 1) * (K ** depth - 1) // (K - 1))


# ---------------------------------------------------------------------------
# 1-d continuum Laplacian: free integrated density of states.
# ---------------------------------------------------------------------------


def continuum_free_ids(model: ContinuumFreeModel, energy):
    """Free IDS of -d^2/dx^2 per unit length: sqrt(max(E, 0)) / pi."""
    e = np.asarray(energy, dtype=float)
    out = np.sqrt(np.clip(e, 0.0, None)) / np.pi
    return float(out) if out.ndim == 0 else out


