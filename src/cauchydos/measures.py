"""Spectral measures, the Cauchy kernel, and exact convolution of the two.

A finite point measure with weights w_i at energies E_i convolved with the
Cauchy (Lorentzian) kernel of scale ``lam`` has the closed form

    p(E) = sum_i w_i * (1/pi) * lam / (lam^2 + (E - E_i)^2),

so smoothing, Stieltjes transforms and cumulative integration are all exact
finite sums here; the only approximation anywhere is grid truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CauchyKernel",
    "EnergyGrid",
    "GridDensity",
    "StepIDS",
    "WeightedSpectrum",
    "cauchy_charfn",
    "cauchy_density",
    "cauchy_sample",
    "grid_convolve",
    "ids_of",
    "smear_spectrum",
    "stieltjes_eval",
    "window_tail_mass",
    "write_csv",
]

CSV_FLOAT = "%.12g"


def write_csv(path, columns: dict) -> None:
    """Write ``columns`` (name -> 1-d array, in order) as a header row and one
    row per index, every value as ``CSV_FLOAT``; UTF-8, commas, LF line ends."""
    row = ",".join([CSV_FLOAT] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for values in zip(*(np.asarray(c).tolist() for c in columns.values())):
            fh.write(row % values)


@dataclass(frozen=True)
class CauchyKernel:
    """Cauchy (Lorentzian) single-coupling distribution of scale ``lam``.

    Density (1/pi) * lam / (lam^2 + x^2), characteristic function exp(-lam|s|).
    """

    lam: float

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError(f"Cauchy scale must be positive and finite, got {self.lam}")


def cauchy_density(kernel: CauchyKernel, x):
    """Density of the Cauchy distribution at ``x`` (scalar or array)."""
    lam = kernel.lam
    return (lam / np.pi) / (lam * lam + np.square(x))


def cauchy_charfn(kernel: CauchyKernel, s):
    """Characteristic function exp(-lam * |s|)."""
    return np.exp(-kernel.lam * np.abs(s))


def cauchy_sample(kernel: CauchyKernel, u):
    """Inverse-CDF transform: uniform u in (0,1) -> Cauchy variate lam*tan(pi*(u - 1/2))."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("uniform input must lie strictly inside (0, 1)")
    out = kernel.lam * np.tan(np.pi * (u - 0.5))
    return float(out) if out.ndim == 0 else out


def window_tail_mass(kernel: CauchyKernel, half_width: float) -> float:
    """Cauchy mass outside [-W, W]: 1 - (2/pi) * arctan(W / lam)."""
    return 1.0 - (2.0 / np.pi) * math.atan(half_width / kernel.lam)


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform closed grid: points e_min + k*step, k = 0 .. floor((e_max-e_min)/step)."""

    e_min: float
    e_max: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.e_min, self.e_max, self.step)):
            raise ValueError("grid bounds and step must be finite")
        if not (self.step > 0):
            raise ValueError("grid step must be positive")
        if not (self.e_max >= self.e_min):
            raise ValueError("grid requires e_max >= e_min")

    @property
    def count(self) -> int:
        return int(math.floor((self.e_max - self.e_min) / self.step + 1e-9)) + 1

    @property
    def points(self) -> np.ndarray:
        return self.e_min + self.step * np.arange(self.count)

    @classmethod
    def parse(cls, text: str) -> "EnergyGrid":
        """Parse the CLI grid syntax ``min:max:step``."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be min:max:step, got {text!r}")
        try:
            lo, hi, st = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"grid must be numeric min:max:step, got {text!r}") from exc
        return cls(lo, hi, st)


@dataclass(frozen=True)
class WeightedSpectrum:
    """Finite point measure: energies ``points`` with (possibly complex) ``weights``."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights)
        if wts.dtype.kind != "c":
            wts = wts.astype(float)
        if pts.shape != wts.shape or pts.ndim != 1:
            raise ValueError("points and weights must be 1-d arrays of equal length")
        if pts.size and not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("points and weights must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    def __len__(self) -> int:
        return self.points.size

    def total_weight(self) -> complex:
        return complex(self.weights.sum()) if len(self) else 0.0 + 0.0j

    def is_probability(self, tol: float = 1e-10) -> bool:
        """True when weights are real, nonnegative, and sum to 1 within tol."""
        if not len(self):
            return False
        w = self.weights
        if np.iscomplexobj(w) and np.max(np.abs(w.imag)) > tol:
            return False
        wr = w.real if np.iscomplexobj(w) else w
        return bool(np.all(wr >= -tol) and abs(wr.sum() - 1.0) <= tol)


@dataclass
class GridDensity:
    """Real density sampled on a uniform energy grid (optionally with an imaginary part)."""

    e_min: float
    e_max: float
    step: float
    values: np.ndarray
    values_im: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        grid = EnergyGrid(self.e_min, self.e_max, self.step)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (grid.count,):
            raise ValueError(
                f"values length {self.values.size} does not match grid count {grid.count}"
            )
        if self.values_im is not None:
            self.values_im = np.asarray(self.values_im, dtype=float)
            if self.values_im.shape != self.values.shape:
                raise ValueError("values_im must match values in length")

    @property
    def grid(self) -> EnergyGrid:
        return EnergyGrid(self.e_min, self.e_max, self.step)

    @property
    def energies(self) -> np.ndarray:
        return self.grid.points

    def trapezoid_mass(self) -> float:
        v = self.values
        if v.size < 2:
            return 0.0
        return float((0.5 * (v[0] + v[-1]) + v[1:-1].sum()) * self.step)

    def to_csv(self, path) -> None:
        """Write ``energy,density`` rows (plus ``density_im`` when present)."""
        columns = {"energy": self.energies, "density": self.values}
        if self.values_im is not None:
            columns["density_im"] = self.values_im
        write_csv(path, columns)


@dataclass
class StepIDS:
    """Nondecreasing cumulative spectral function sampled at ``jumps``."""

    jumps: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        self.jumps = np.asarray(self.jumps, dtype=float)
        self.cumulative = np.asarray(self.cumulative, dtype=float)
        if self.jumps.shape != self.cumulative.shape or self.jumps.ndim != 1:
            raise ValueError("jumps and cumulative must be 1-d arrays of equal length")
        if self.jumps.size:
            if np.any(np.diff(self.jumps) < 0):
                raise ValueError("jumps must be sorted ascending")
            if np.any(np.diff(self.cumulative) < -1e-12):
                raise ValueError("cumulative values must be nondecreasing")

    def at(self, energy) -> np.ndarray:
        """Right-continuous evaluation N(E) with N = 0 left of the first jump."""
        idx = np.searchsorted(self.jumps, np.asarray(energy, dtype=float), side="right")
        padded = np.concatenate(([0.0], self.cumulative))
        return padded[idx]

    def to_csv(self, path) -> None:
        write_csv(path, {"energy": self.jumps, "ids": self.cumulative})


def smear_spectrum(
    spec: WeightedSpectrum,
    kernel: CauchyKernel,
    grid: EnergyGrid,
    include_imag: bool = False,
) -> GridDensity:
    """Exact convolution of a point measure with the Cauchy kernel on a grid.

    Returns sum_i Re(w_i) * psi_lam(E - E_i); the imaginary-weight part is
    evaluated the same way and attached when ``include_imag`` is set.
    An empty spectrum yields the zero density.
    """
    energies = grid.points
    meta = {"window_tail_mass": window_tail_mass(kernel, max(abs(grid.e_min), abs(grid.e_max)))}
    if not len(spec):
        zero = np.zeros_like(energies)
        return GridDensity(grid.e_min, grid.e_max, grid.step, zero,
                           zero.copy() if include_imag else None, meta)
    poisson = cauchy_density(kernel, energies[:, None] - spec.points[None, :])
    w = spec.weights
    values = poisson @ (w.real if np.iscomplexobj(w) else w)
    values_im = poisson @ w.imag if (include_imag and np.iscomplexobj(w)) else (
        np.zeros_like(values) if include_imag else None
    )
    return GridDensity(grid.e_min, grid.e_max, grid.step, values, values_im, meta)


def stieltjes_eval(spec: WeightedSpectrum, z: complex) -> complex:
    """Stieltjes transform m(z) = sum_i w_i / (E_i - z) for Im z > 0.

    (1/pi) * Im m(E + i*lam) equals the lam-smeared density at E exactly.
    """
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("stieltjes_eval requires Im z > 0")
    if not len(spec):
        return 0.0 + 0.0j
    return complex(np.sum(spec.weights / (spec.points - z)))


def ids_of(density: GridDensity) -> StepIDS:
    """Cumulative trapezoid integral of a nonnegative grid density."""
    if np.any(density.values < 0):
        raise ValueError("ids_of requires a nonnegative density")
    v = density.values
    inc = 0.5 * (v[1:] + v[:-1]) * density.step
    cumulative = np.concatenate(([0.0], np.cumsum(inc)))
    return StepIDS(density.energies, cumulative)


def grid_convolve(density: GridDensity, kernel: CauchyKernel) -> GridDensity:
    """Trapezoid-rule convolution of a grid density with the Cauchy kernel.

    The result lives on the same grid; values near the window edges are
    biased by truncation, so compare on the interior only.
    """
    energies = density.energies
    n = energies.size
    offsets = density.step * np.arange(-(n - 1), n)
    kern = cauchy_density(kernel, offsets)
    # trapezoid end weights on the density side
    v = density.values.copy()
    if n > 1:
        v[0] *= 0.5
        v[-1] *= 0.5
    # zero-padded FFT product; length >= 2n - 1 keeps wrap-around off the n entries kept
    size = 1 << (2 * n - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(v, size) * np.fft.rfft(kern, size), size)
    values = full[n - 1 : 2 * n - 1] * density.step
    return GridDensity(density.e_min, density.e_max, density.step, values, None,
                       dict(density.meta))
