"""The Cauchy kernel, uniform energy grids, grid convolution and the file writers.

The Cauchy (Lorentzian) density of scale ``lam`` is

    psi_lam(x) = (1/pi) * lam / (lam^2 + x^2).

Broadening a point measure with weights w_i at energies E_i gives the finite
sum sum_i w_i * psi_lam(E - E_i), which each estimator evaluates in place as
one product with ``cauchy_density``. ``grid_convolve`` smooths a curve sampled
on a uniform grid by the trapezoid rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CauchyKernel",
    "EnergyGrid",
    "MAX_GRID_POINTS",
    "cauchy_density",
    "cauchy_sample",
    "grid_convolve",
    "window_tail_mass",
    "write_csv",
    "write_json",
]

# the largest grid any check, test or workload uses has 12,001 points; the d >= 4
# exact curve's time integral takes at most this many nodes too
MAX_GRID_POINTS = 10**7
CSV_FLOAT = "%.12g"


def write_csv(path, columns: dict) -> None:
    """Write ``columns`` (name -> 1-d array, in order) as a header row and one
    row per index, every value as ``CSV_FLOAT``; UTF-8, commas, LF line ends."""
    row = ",".join([CSV_FLOAT] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for values in zip(*(np.asarray(c).tolist() for c in columns.values())):
            fh.write(row % values)


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON: indent 2, sorted keys, UTF-8, LF line ends, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        # also rejects a span/step that overflows to inf
        if not (self.e_max - self.e_min) / self.step < MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {MAX_GRID_POINTS} points")

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


def grid_convolve(values: np.ndarray, step: float, kernel: CauchyKernel) -> np.ndarray:
    """Trapezoid-rule convolution of a uniform-grid curve with the Cauchy kernel.

    ``values`` are samples at spacing ``step``. The result lives on the same
    grid; values near the window edges are biased by truncation, so compare
    on the interior only.
    """
    n = values.size
    kern = cauchy_density(kernel, step * np.arange(-(n - 1), n))
    # trapezoid end weights on the curve side
    v = np.array(values, dtype=float)
    if n > 1:
        v[0] *= 0.5
        v[-1] *= 0.5
    # zero-padded FFT product; length >= 2n - 1 keeps wrap-around off the n entries kept
    size = 1 << (2 * n - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(v, size) * np.fft.rfft(kern, size), size)
    return full[n - 1 : 2 * n - 1] * step
