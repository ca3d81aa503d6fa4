"""Independent reference values for the benchmark's correctness gates.

Every exact curve of the package is (1/pi) Im m(E + i*lam) for the Stieltjes
transform m(z) = int dmu(x) / (x - z) of the free measure, so the closed forms
below check the package's quadratures without sharing any code with them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j0


def chain_stieltjes(z):
    """Free d=1 lattice (arcsine law on [-2, 2]): m = -1 / (sqrt(z-2) sqrt(z+2))."""
    z = np.asarray(z, dtype=complex)
    return -1.0 / (np.sqrt(z - 2.0) * np.sqrt(z + 2.0))


def kesten_mckay_stieltjes(K: int, z):
    """Root of the (K+1)-regular tree (McKay, Linear Algebra Appl. 40, 203, 1981)."""
    z = np.asarray(z, dtype=complex)
    r = 2.0 * np.sqrt(K)
    root = np.sqrt(z - r) * np.sqrt(z + r)
    return -((K - 1) * z - (K + 1) * root) / (2.0 * ((K + 1) ** 2 - z * z))


def truncated_tree_mean_stieltjes(K: int, depth: int, z):
    """Vertex average of the resolvent trace of the free depth-truncated tree.

    Leaf-to-root LDL^T pivots d_v of H - z with their z-derivatives give
    Tr (H - z)^{-1} = -sum_v d'_v / d_v; all vertices of one level share a pivot.
    This is a different algorithm from the package's two-pass continued fraction.
    """
    z = np.asarray(z, dtype=complex)
    level_size = [1] + [(K + 1) * K ** (level - 1) for level in range(1, depth + 1)]
    d = -z
    dd = -np.ones_like(z)
    trace = level_size[depth] * dd / d
    for level in range(depth - 1, -1, -1):
        children = K + 1 if level == 0 else K
        d, dd = -z - children / d, -1.0 + children * dd / (d * d)
        trace = trace + level_size[level] * dd / d
    return -trace / sum(level_size)


def density(m):
    """Smoothed density (1/pi) Im m on the shifted line."""
    return np.asarray(m).imag / np.pi


def continuum_ids_smoothed(energies, lam: float):
    """Cauchy-smoothed free IDS of -d^2/dx^2 per unit length: Re sqrt(E + i lam) / pi."""
    return np.sqrt(np.asarray(energies, dtype=float) + 1j * lam).real / np.pi


def lattice_charfn_d1(times, lam: float):
    """exp(-lam |t|) J_0(2t): the Lloyd-averaged diagonal amplitude on Z."""
    times = np.asarray(times, dtype=float)
    return np.exp(-lam * np.abs(times)) * j0(2.0 * times)
