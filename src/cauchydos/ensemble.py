"""Disorder sampling and finite-volume Hamiltonian construction.

Samples are drawn from counter-based Philox streams keyed by
(master_seed, sample_index); the position in the stream is the site index,
so regeneration is bit-for-bit reproducible and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import CauchyKernel, cauchy_sample

__all__ = [
    "BumpFamily",
    "DisorderSample",
    "LatticeBoxSpec",
    "SymmetricOperator",
    "TreeSpec",
    "build_continuum",
    "build_lattice",
    "build_operator",
    "build_tree",
    "continuum_potential",
    "draw_sample",
    "site_count",
    "tree_level_sizes",
]


@dataclass(frozen=True)
class DisorderSample:
    """One realization of i.i.d. Cauchy couplings."""

    omegas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omegas", np.asarray(self.omegas, dtype=float))


def draw_sample(kernel: CauchyKernel | None, count: int, master_seed: int,
                sample_index: int) -> DisorderSample:
    """Draw ``count`` Cauchy couplings from the stream (master_seed, sample_index).

    Uniforms are taken as (k + 1/2) / 2^53 with k a 53-bit Philox integer, so
    they lie strictly inside (0, 1); cauchy_sample maps them to couplings.
    ``kernel=None`` yields the disorder-off sample (all couplings zero).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if master_seed < 0 or sample_index < 0:
        raise ValueError("master_seed and sample_index must be nonnegative")
    if kernel is None:
        return DisorderSample(np.zeros(count))
    bitgen = np.random.Philox(key=np.array([master_seed, sample_index], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    k = gen.integers(0, 1 << 53, size=count, dtype=np.uint64)
    u = (k.astype(float) + 0.5) / float(1 << 53)
    return DisorderSample(cauchy_sample(kernel, u))


@dataclass(frozen=True)
class LatticeBoxSpec:
    """Periodic box of Z^d with ``side`` sites per axis."""

    d: int
    side: int

    def __post_init__(self):
        if not (self.d >= 1 and self.side >= 1):
            raise ValueError("need dimension >= 1 and side >= 1")

    @property
    def n_sites(self) -> int:
        return self.side ** self.d


@dataclass(frozen=True)
class TreeSpec:
    """Rooted (K+1)-regular tree truncated at ``depth``; root index 0, BFS order."""

    K: int
    depth: int

    def __post_init__(self):
        if not (self.K >= 2 and self.depth >= 0):
            raise ValueError("need branching K >= 2 and depth >= 0")

    @property
    def n_vertices(self) -> int:
        return 1 + (self.K + 1) * (self.K ** self.depth - 1) // (self.K - 1)


def tree_level_sizes(spec: TreeSpec) -> list[int]:
    """Vertices per BFS level: 1, K+1, (K+1)K, ..."""
    return [1] + [(spec.K + 1) * spec.K ** (l - 1) for l in range(1, spec.depth + 1)]


@dataclass(frozen=True)
class BumpFamily:
    """Triangular unit hats centered at integers 0..length-1 on a periodic mesh.

    Hats of width 2 form an exact partition of unity at every mesh point.
    """

    length: int
    h: float

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not self.h > 0:
            raise ValueError(f"mesh step h must be positive, got {self.h}")
        per = 1.0 / self.h
        if abs(per - round(per)) > 1e-9 or round(per) < 4:
            raise ValueError("1/h must be an integer >= 4 so the mesh resolves the bumps")

    @property
    def points_per_cell(self) -> int:
        return int(round(1.0 / self.h))

    @property
    def n_mesh(self) -> int:
        return self.length * self.points_per_cell


@dataclass(frozen=True)
class SymmetricOperator:
    """Sparse real symmetric matrix stored as upper-triangle coordinate triples."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=float)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have equal shapes")
        if rows.size and (rows.min() < 0 or cols.max() >= self.n):
            raise ValueError("indices out of range")
        if np.any(rows > cols):
            raise ValueError("entries must satisfy row <= col")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("all values must be finite")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        off = self.rows != self.cols
        a[self.cols[off], self.rows[off]] = self.vals[off]
        return a

    def to_csr(self):
        from scipy.sparse import coo_matrix

        off = self.rows != self.cols
        r = np.concatenate([self.rows, self.cols[off]])
        c = np.concatenate([self.cols, self.rows[off]])
        v = np.concatenate([self.vals, self.vals[off]])
        return coo_matrix((v, (r, c)), shape=(self.n, self.n)).tocsr()

    def gershgorin_interval(self) -> tuple[float, float]:
        """Enclosing interval from row sums of absolute off-diagonal entries."""
        diag = np.zeros(self.n)
        radius = np.zeros(self.n)
        on = self.rows == self.cols
        diag[self.rows[on]] = self.vals[on]
        off = ~on
        np.add.at(radius, self.rows[off], np.abs(self.vals[off]))
        np.add.at(radius, self.cols[off], np.abs(self.vals[off]))
        return float(np.min(diag - radius)), float(np.max(diag + radius))


def _check_sample(sample: DisorderSample | None, count: int) -> np.ndarray:
    if sample is None:
        return np.zeros(count)
    if sample.omegas.size != count:
        raise ValueError(
            f"sample has {sample.omegas.size} couplings, operator needs {count}"
        )
    return sample.omegas


def _with_diagonal(rows: list, cols: list, hopping: float,
                   diagonal: np.ndarray) -> SymmetricOperator:
    """Each bond block (rows[k], cols[k]) at ``hopping``, then ``diagonal``; this
    order of the triples fixes the summation order of ``to_csr``."""
    n = diagonal.size
    rows = np.concatenate([*rows, np.arange(n)])
    cols = np.concatenate([*cols, np.arange(n)])
    vals = np.concatenate([np.full(rows.size - n, hopping), diagonal])
    return SymmetricOperator(n, rows, cols, vals)


def build_lattice(spec: LatticeBoxSpec, sample: DisorderSample | None = None) -> SymmetricOperator:
    """Nearest-neighbor hopping 1 on the periodic box, disorder on the diagonal.

    Sites are indexed lexicographically. Every axis wraps; at side <= 2 the
    wrapping bond would repeat a bond already present, so it is left out.
    """
    omegas = _check_sample(sample, spec.n_sites)
    n, L, d = spec.n_sites, spec.side, spec.d
    idx = np.arange(n)
    rows, cols = [], []
    stride = 1
    for _ in range(d):
        wrap = (idx // stride) % L == L - 1
        nbr = idx + stride - np.where(wrap, L * stride, 0)
        keep = ~wrap | (L > 2)
        rows.append(np.minimum(idx[keep], nbr[keep]))
        cols.append(np.maximum(idx[keep], nbr[keep]))
        stride *= L
    return _with_diagonal(rows, cols, 1.0, omegas)


def build_tree(spec: TreeSpec, sample: DisorderSample | None = None) -> SymmetricOperator:
    """Adjacency of the truncated (K+1)-regular rooted tree plus diagonal disorder.

    BFS indexing: the root's K+1 children are 1..K+1; below that, the j-th
    vertex of a level owns the contiguous block of K children in the next.
    """
    omegas = _check_sample(sample, spec.n_vertices)
    sizes = tree_level_sizes(spec)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows, cols = [], []
    for level in range(len(sizes) - 1):
        parents = np.arange(offsets[level], offsets[level + 1])
        children = np.arange(offsets[level + 1], offsets[level + 2])
        per = sizes[level + 1] // sizes[level]
        rows.append(np.repeat(parents, per))
        cols.append(children)
    return _with_diagonal(rows, cols, 1.0, omegas)


def continuum_potential(bumps: BumpFamily, sample: DisorderSample | None = None) -> np.ndarray:
    """Potential values sum_n omega_n u_n(x_j) on the periodic mesh.

    Each mesh point sits between two adjacent hat centers, so the sum has at
    most two terms with weights (1 - frac, frac); the hats add to one exactly.
    """
    omegas = _check_sample(sample, bumps.length)
    x = np.arange(bumps.n_mesh) * bumps.h
    left = np.floor(x).astype(int)
    frac = x - left
    return omegas[left % bumps.length] * (1.0 - frac) + omegas[(left + 1) % bumps.length] * frac


def build_continuum(bumps: BumpFamily, sample: DisorderSample | None = None) -> SymmetricOperator:
    """Second-difference Laplacian on the periodic mesh plus the bump potential.

    Stencil 2/h^2 on the diagonal and -1/h^2 on the neighbors, wrapped.
    """
    v = continuum_potential(bumps, sample)
    h2 = bumps.h * bumps.h
    idx = np.arange(bumps.n_mesh)
    nbr = (idx + 1) % bumps.n_mesh
    return _with_diagonal([np.minimum(idx, nbr)], [np.maximum(idx, nbr)], -1.0 / h2, 2.0 / h2 + v)


def site_count(spec) -> int:
    """Number of disorder couplings an operator spec consumes."""
    if isinstance(spec, LatticeBoxSpec):
        return spec.n_sites
    if isinstance(spec, TreeSpec):
        return spec.n_vertices
    if isinstance(spec, BumpFamily):
        return spec.length
    raise TypeError(f"unsupported model spec {type(spec).__name__}")


def build_operator(spec, sample: DisorderSample | None = None) -> SymmetricOperator:
    """Dispatch to the family-specific builder."""
    if isinstance(spec, LatticeBoxSpec):
        return build_lattice(spec, sample)
    if isinstance(spec, TreeSpec):
        return build_tree(spec, sample)
    if isinstance(spec, BumpFamily):
        return build_continuum(spec, sample)
    raise TypeError(f"unsupported model spec {type(spec).__name__}")
