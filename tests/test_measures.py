import math

import numpy as np
import pytest
from scipy.integrate import quad

from cauchydos.ensemble import LatticeBoxSpec
from cauchydos.measures import (
    MAX_GRID_POINTS,
    CauchyKernel,
    EnergyGrid,
    cauchy_density,
    cauchy_sample,
    grid_convolve,
    window_tail_mass,
    write_csv,
)
from cauchydos.spectra import dos_mc

K1 = CauchyKernel(1.0)


def test_kernel_requires_positive_scale():
    with pytest.raises(ValueError):
        CauchyKernel(0.0)
    with pytest.raises(ValueError):
        CauchyKernel(-1.0)
    with pytest.raises(ValueError):
        CauchyKernel(float("nan"))


def test_density_at_zero_is_one_over_pi():
    assert cauchy_density(K1, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)
    # lam=0.5 at x=0.5 collapses to the same value
    assert cauchy_density(CauchyKernel(0.5), 0.5) == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_density_decays_and_is_even():
    xs = np.array([0.0, 1.0, 3.0, 10.0, 100.0])
    vals = cauchy_density(K1, xs)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-4
    assert np.allclose(cauchy_density(K1, -xs), vals, rtol=0, atol=0)


def test_density_normalizes():
    total, _ = quad(lambda x: cauchy_density(K1, x), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_charfn_values():
    # the Fourier transform of the density is exp(-lam |s|), which the time-domain
    # check multiplies onto the free amplitude
    for lam, s in ((1.0, 2.0), (0.5, -3.0), (2.0, 0.25)):
        half, _ = quad(lambda x: cauchy_density(CauchyKernel(lam), x), 0.0, np.inf,
                       weight="cos", wvar=s)
        assert 2.0 * half == pytest.approx(math.exp(-lam * abs(s)), abs=1e-9)


def test_sample_quantiles():
    assert cauchy_sample(K1, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert cauchy_sample(K1, 0.75) == pytest.approx(1.0, abs=1e-12)
    assert cauchy_sample(CauchyKernel(2.0), 0.25) == pytest.approx(-2.0, abs=1e-12)


def test_sample_rejects_boundary():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            cauchy_sample(K1, bad)


def test_energy_grid_parse_and_count():
    g = EnergyGrid.parse("-6:6:0.01")
    assert g.count == 1201
    assert g.points[0] == -6.0
    assert g.points[-1] == pytest.approx(6.0, abs=1e-9)
    with pytest.raises(ValueError):
        EnergyGrid.parse("1:2")
    with pytest.raises(ValueError):
        EnergyGrid.parse("a:b:c")
    with pytest.raises(ValueError):
        EnergyGrid(0.0, 1.0, -0.1)
    for bad in ((0.0, math.inf, 0.5), (-math.inf, 0.0, 0.5), (0.0, 1.0, math.inf),
                (math.nan, 1.0, 0.5), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            EnergyGrid(*bad)
    # a span/step that overflows, and a finite count above the bound, are
    # rejected before any point is allocated
    for bad in ((0.0, 1e300, 1e-300), (0.0, 1e12, 1.0)):
        with pytest.raises(ValueError, match="more than"):
            EnergyGrid(*bad)
    assert EnergyGrid(0.0, MAX_GRID_POINTS - 1.0, 1.0).count == MAX_GRID_POINTS


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, {"b": np.array([0.1, 1.0 / 3.0, -2.5e-20]), "a": np.array([0.0, -0.0, 1e13]),
                     "n": np.full(3, 7)})
    assert path.read_bytes() == b"b,a,n\n0.1,0,7\n0.333333333333,-0,7\n-2.5e-20,1e+13,7\n"


def _site_curve(spec, grid, eta):
    """Broadened site-0 density of one disorder-free box, as dos_mc computes it."""
    return dos_mc(spec, None, grid, 1, 0, eta, estimator="site").mean


def _smeared(points, weights, lam, grid):
    return cauchy_density(CauchyKernel(lam), grid.points[:, None] - points[None, :]) @ weights


def test_smear_point_mass_reproduces_kernel():
    # a single site without disorder has the point measure at 0
    grid = EnergyGrid(-5.0, 5.0, 0.1)
    out = _site_curve(LatticeBoxSpec(1, 1), grid, 1.0)
    assert np.allclose(out, cauchy_density(K1, grid.points), atol=1e-15)


def test_smear_two_masses_value_at_zero():
    # the free 2-site chain: masses 1/2 at -1 and +1 for either site
    grid = EnergyGrid(-1.0, 1.0, 1.0)
    out = _site_curve(LatticeBoxSpec(1, 2), grid, 1.0)
    assert out[1] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)


def test_smear_even_spectrum_is_even():
    # the free 8-ring has a spectrum symmetric about 0
    grid = EnergyGrid(-4.0, 4.0, 0.25)
    v = _site_curve(LatticeBoxSpec(1, 8), grid, 1.0)
    assert np.max(np.abs(v - v[::-1])) < 1e-12


def test_smear_windowed_mass_matches_arctan_correction():
    # trapezoid mass over [-W, W] must match the per-mass Cauchy CDF difference;
    # the free 6-ring puts mass 1/6 at each 2 cos(2 pi k / 6)
    lam = 0.8
    pts = 2.0 * np.cos(2.0 * np.pi * np.arange(6) / 6.0)
    w_half = 50 * lam + 2.0
    grid = EnergyGrid(-w_half, w_half, 0.01)
    v = _site_curve(LatticeBoxSpec(1, 6), grid, lam)
    mass = (0.5 * (v[0] + v[-1]) + v[1:-1].sum()) * grid.step
    expected = sum(
        (math.atan((w_half - e) / lam) + math.atan((w_half + e) / lam)) / math.pi
        for e in pts
    ) / 6.0
    assert mass == pytest.approx(expected, abs=1e-6)


def test_smear_semigroup_through_grid_convolution():
    pts, wts = np.array([-1.0, 0.5]), np.array([0.5, 0.5])
    lam1, lam2 = 0.6, 0.4
    grid = EnergyGrid(-60.0, 60.0, 0.01)
    twice = grid_convolve(_smeared(pts, wts, lam1, grid), grid.step, CauchyKernel(lam2))
    direct = _smeared(pts, wts, lam1 + lam2, grid)
    interior = np.abs(grid.points) <= 8.0
    assert np.max(np.abs(twice[interior] - direct[interior])) < 1e-6


def test_grid_convolve_commutes():
    pts, wts = np.array([-1.0, 0.5]), np.array([0.5, 0.5])
    grid = EnergyGrid(-60.0, 60.0, 0.01)
    a = grid_convolve(_smeared(pts, wts, 0.7, grid), grid.step, CauchyKernel(0.3))
    b = grid_convolve(_smeared(pts, wts, 0.3, grid), grid.step, CauchyKernel(0.7))
    interior = np.abs(grid.points) <= 8.0
    assert np.max(np.abs(a[interior] - b[interior])) < 1e-12


def test_stieltjes_poisson_consistency_with_smear():
    # the Cauchy-broadened point measure is (1/pi) Im m(E + i lam) of its
    # Stieltjes transform m(z) = sum_i w_i / (E_i - z)
    rng = np.random.default_rng(11)
    pts = rng.normal(size=8)
    wts = rng.uniform(0.05, 0.3, size=8)
    lam = 0.9
    grid = EnergyGrid(-3.0, 3.0, 0.5)
    smeared = _smeared(pts, wts, lam, grid)
    via_m = np.array([np.sum(wts / (pts - (e + 1j * lam))).imag / math.pi for e in grid.points])
    assert np.max(np.abs(smeared - via_m)) < 1e-10


def test_window_tail_mass():
    assert window_tail_mass(K1, 50.0) == pytest.approx(1 - (2 / math.pi) * math.atan(50.0),
                                                       abs=1e-15)
    # the trapezoid mass of the density over the window plus the declared tail is 1
    v = cauchy_density(K1, EnergyGrid(-50.0, 50.0, 0.01).points)
    inside = (0.5 * (v[0] + v[-1]) + v[1:-1].sum()) * 0.01
    assert inside == pytest.approx(0.9873, abs=1e-3)
    assert inside + window_tail_mass(K1, 50.0) == pytest.approx(1.0, abs=1e-6)
