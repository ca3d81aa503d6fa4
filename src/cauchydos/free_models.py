"""Clean (disorder-free) reference operators and their exact smoothed spectra.

Three families are covered:

* hypercubic lattice adjacency on Z^d, local spectral measure at the origin;
* the infinite (K+1)-regular tree, whose root measure is the Kesten-McKay law,
  together with its depth-truncated finite counterpart;
* the 1-d negative Laplacian, through its integrated density of states.

By the Lloyd identity every Cauchy-smoothed curve is (1/pi) Im m(E + i*lam),
where m(z) = int dmu(x) / (x - z) is the Stieltjes transform of the free
measure. Inside the strip |Im E| < lam it continues analytically as

    p(E) = (m(E + i*lam) - conj(m(conj(E) + i*lam))) / (2*pi*i).

``free_stieltjes`` is the one transform per model and ``exact_smoothed`` the
one formula over it. Closed forms are used where they exist: the
Kesten-McKay transform (the chain Z is its K = 1 case), the arithmetic-
geometric mean of Z^2, Joyce's complete elliptic integral of Z^3, taken
through the same AGM, and i*sqrt(z) for the continuum IDS. Z^d with d >= 4
keeps the time-domain integral of the diagonal free amplitude J_0(2t)^d,

    m(z) = i * int_0^inf exp(i z t) J_0(2t)^d dt,

evaluated as a Laplace transform at zeta = -i z on shared Gauss-Legendre
nodes: blocks of panels factor exp(-zeta t) into a block phase times an
in-block factor, so the node sum is one matrix product, and both factors are
powers of a few exponentials per energy taken by recurrence. Bessel values
come from ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideStripError
from .measures import MAX_GRID_POINTS, CauchyKernel

__all__ = [
    "BetheFreeModel",
    "ContinuumFreeModel",
    "LatticeFreeModel",
    "exact_smoothed",
    "free_stieltjes",
    "lattice_box_charfn",
    "truncated_tree_stieltjes",
]

TRUNCATION_EPS = 1e-14
# kernel-matrix entries per block of energies in the time-domain integral,
# about 1 MiB of complex temporaries
_BLOCK = 1 << 16
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
    up = free_stieltjes(model, e + 1j * lam)
    down = up if real else free_stieltjes(model, np.conj(e) + 1j * lam)
    p = (up - np.conj(down)) / (2j * np.pi)
    p = p.real if real else p
    return p.item() if p.ndim == 0 else p


def free_stieltjes(model, z):
    """Stieltjes transform m(z) = int dmu(x) / (x - z) of the free model, Im z > 0.

    On the real axis the Kesten-McKay and continuum forms give the boundary
    value m(E + i0), which ``checks.check_continuum_ids`` reads; the Z^d
    routes for d >= 2 are valid for Im z > 0 only. Outside its domain, and
    at a NaN or infinite z, ValueError is raised.

    * Bethe tree and chain: the Kesten-McKay transform (McKay, Linear Algebra
      Appl. 40, 203, 1981), written as 2K / ((1-K) z - (K+1) sqrt(z^2 - 4K))
      so that no cancellation occurs near the removable pole z^2 = (K+1)^2.
      The chain is K = 1, the arcsine law -1 / sqrt(z^2 - 4).
    * Z^2: -1 / (z AGM(1, sqrt(1 - 16/z^2))) (Cox, Enseign. Math. 30, 275,
      1984). For Im z > 0 the start sqrt(1 - 16/z^2), formed as a product of
      two roots, lies in the right half-plane, where ``_agm`` needs it.
    * Z^3: -P(6/z) / z with P(u) = (1 - 9 xi^4) / ((1 - xi)^3 (1 + 3 xi))
      (2 K(k) / pi)^2, k^2 = 16 xi^3 / ((1 - xi)^3 (1 + 3 xi)) and xi^2 =
      (1 - r9) / (1 + r1), r9 = sqrt(1 - u^2/9), r1 = sqrt(1 - u^2) (Joyce,
      Phil. Trans. R. Soc. A 273, 583, 1973; this single-K form in Proc. R.
      Soc. A 445, 463, 1994). K(k) = pi / (2 AGM(1, sqrt(1 - k^2))), and k^2
      never meets the cut [1, inf) for Im z > 0. Each root is a product of
      two, 1 - r9 is (u/3)^2 / (1 + r9) and 1 - 9 xi^4 goes through r1 - 3 r9
      = -8 / (r1 + 3 r9), so nothing cancels at small |z| and u^2 never forms.
    * Z^d, d >= 4: i L(-i z) with the Laplace sum ``_lattice_laplace``.
    * Continuum: i sqrt(z), whose (1/pi) Im on the real axis is the free IDS
      sqrt(max(E, 0)) / pi.
    """
    z = np.asarray(z, dtype=complex)
    strict = isinstance(model, LatticeFreeModel) and model.d >= 2
    below = z.imag <= 0 if strict else z.imag < 0
    if np.any(below | ~np.isfinite(z)):
        raise ValueError(f"free_stieltjes for this model requires Im z {'>' if strict else '>='} 0"
                         " and a finite z")
    if isinstance(model, ContinuumFreeModel):
        return 1j * np.sqrt(z)
    if isinstance(model, LatticeFreeModel) and model.d == 2:
        return -1.0 / (z * _agm(np.sqrt(1.0 - 4.0 / z) * np.sqrt(1.0 + 4.0 / z)))
    if isinstance(model, LatticeFreeModel) and model.d == 3:
        u = 6.0 / z
        r9 = np.sqrt(1.0 - u / 3.0) * np.sqrt(1.0 + u / 3.0)
        r1 = np.sqrt(1.0 - u) * np.sqrt(1.0 + u)
        w = ((u / 3.0) / (1.0 + r9)) * (u / 3.0)  # 1 - r9, in an order that cannot overflow
        xi, xi2 = np.sqrt(w) / np.sqrt(1.0 + r1), w / (1.0 + r1)
        den = (1.0 - xi) ** 3 * (1.0 + 3.0 * xi)
        # 1 - 9 xi^4, as r1 - 3 r9 = -8 / (r1 + 3 r9)
        num = (1.0 - 3.0 * xi2) * (4.0 - 8.0 / (r1 + 3.0 * r9)) / (1.0 + r1)
        return -num / (den * z * _agm(np.sqrt(1.0 - 16.0 * xi * xi2 / den)) ** 2)
    if isinstance(model, LatticeFreeModel) and model.d > 3:
        return 1j * _lattice_laplace(model.d, -1j * z)
    if isinstance(model, (LatticeFreeModel, BetheFreeModel)):
        K = model.K if isinstance(model, BetheFreeModel) else 1
        r = 2.0 * math.sqrt(K)
        return 2.0 * K / ((1 - K) * z - (K + 1) * (np.sqrt(z - r) * np.sqrt(z + r)))
    raise TypeError(f"unsupported free model {type(model).__name__}")


def _agm(b: np.ndarray) -> np.ndarray:
    """The arithmetic-geometric mean AGM(1, b) of an array b in the right half-plane.

    Every a and b then stays in the right half-plane, so sqrt(a) sqrt(b) is
    the right root |a - b| <= |a + b|, and as two roots it cannot overflow.
    """
    a = np.ones_like(b)
    for _ in range(64):  # quadratic convergence needs far fewer steps
        if not np.any(np.abs(a - b) > 1e-15 * np.abs(a)):
            return a
        a, b = (a + b) / 2.0, np.sqrt(a) * np.sqrt(b)
    raise ValueError("the arithmetic-geometric mean did not converge in 64 steps")


def _lattice_laplace(d: int, zeta) -> np.ndarray:
    """L(zeta) = int_0^inf exp(-zeta t) J_0(2t)^d dt for Re zeta > 0, as a node sum.

    ``free_stieltjes`` takes it for Z^d with d >= 4; at d <= 3 it is the
    independent second route that the closed forms are tested against.

    T follows from the margin min Re zeta so that the discarded tail is below
    1e-14. [0, T] is cut into equal Gauss-Legendre panels no wider than the
    fastest oscillation max|Im zeta| allows, so their count grows with T and
    max|Im zeta|; past MAX_GRID_POINTS nodes ValueError is raised before
    anything is allocated. Panels of width h are grouped in blocks of
    ``_GROUP``, so every node is t = tau_b + s_k with tau_b = b H, H = _GROUP h.
    As exp(-zeta t) = exp(-zeta tau_b) exp(-zeta s_k), the node sum is one
    matrix product with exp(-s zeta) and a contraction with exp(-tau zeta).
    Neither is taken by exp: the block phases are the powers q^b of q =
    exp(-zeta H) (``_powers``), and exp(-zeta s) at s = p h + s_k, k < 16, is
    exp(-zeta h)^p exp(-zeta s_k). That is 18 exponentials per energy, none of
    a large argument: q^b carries about b roundings, where exp(-zeta tau_b)
    inherited the rounding of an argument of up to tau_b |E|, thousands of
    radians. Energies go in blocks of at most ``_BLOCK`` entries of the
    product, so the temporaries stay in cache. Re zeta > 0 and tau, s >= 0, so
    no factor exceeds 1.
    """
    from scipy.special import j0

    zeta = np.asarray(zeta, dtype=complex)
    margin = float(np.min(zeta.real, initial=np.inf))
    tmax = -math.log(TRUNCATION_EPS) / margin
    e_max = float(np.max(np.abs(zeta.imag), initial=0.0))
    n_panels = max(1, int(math.ceil(tmax / min(0.5, 8.0 / max(e_max + 2.0 * d, 1.0)))))
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
    flat = zeta.ravel()
    laplace = np.empty(flat.size, dtype=complex)
    cols = max(1, _BLOCK // (n_blocks + s.size))
    for start in range(0, flat.size, cols):
        z = flat[start:start + cols]
        # exp(-z s) at s = h p + s_k, k < 16, is exp(-z h)^p exp(-z s_k)
        factor = (_powers(np.exp(-h * z), _GROUP)[:, None]
                  * np.exp(-np.multiply.outer(s[:nodes.size], z))).reshape(s.size, z.size)
        # real g times complex phases as one real product on (re, im) pairs
        inner = (g @ factor.view(float)).view(complex)
        del factor
        inner *= _powers(np.exp(-h * _GROUP * z), n_blocks)
        laplace[start:start + cols] = np.sum(inner, axis=0)
        del inner
    return laplace.reshape(zeta.shape)


def _powers(q: np.ndarray, count: int) -> np.ndarray:
    """The rows q^0, ..., q^(count-1) of a 1-d array q, by doubling.

    Each pass multiplies the rows found so far by the next q^(2^k), so the
    cost is O(log count) numpy calls, and row b carries a relative error of
    about b roundings instead of the error of exp at b times the argument.
    """
    out = np.empty((count, q.size), dtype=complex)
    out[0] = 1.0
    done, step = 1, q
    while done < count:
        more = min(done, count - done)
        np.multiply(out[:more], step, out=out[done:done + more])
        done += more
        step = step * step
    return out


# ---------------------------------------------------------------------------
# Lattice free amplitudes.
# ---------------------------------------------------------------------------


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
    from scipy.special import jv

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
    -sum_l count_l d'_l/d_l. Valid for Im z > 0; at a NaN or infinite z, as
    outside that domain, ValueError is raised. Returns (root, mean).
    """
    z = np.asarray(z, dtype=complex)
    if np.any((z.imag <= 0) | ~np.isfinite(z)):
        raise ValueError("truncated_tree_stieltjes requires Im z > 0 and a finite z")
    d, slope, trace = -z, -1.0, 0.0
    for level in range(depth, 0, -1):
        children = K + 1 if level == 1 else K
        trace = trace - (K + 1) * K ** (level - 1) * slope / d
        d, slope = -z - children / d, -1.0 + children * slope / d**2
    trace = trace - slope / d
    return 1.0 / d, trace / (1 + (K + 1) * (K ** depth - 1) // (K - 1))
