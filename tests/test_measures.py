import math

import numpy as np
import pytest
from scipy.integrate import quad

from cauchydos.measures import (
    CauchyKernel,
    EnergyGrid,
    GridDensity,
    StepIDS,
    WeightedSpectrum,
    cauchy_charfn,
    cauchy_density,
    cauchy_sample,
    grid_convolve,
    ids_of,
    smear_spectrum,
    stieltjes_eval,
    window_tail_mass,
    write_csv,
)

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
    assert cauchy_charfn(K1, 0.0) == 1.0
    assert cauchy_charfn(K1, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert cauchy_charfn(CauchyKernel(0.5), -3.0) == pytest.approx(math.exp(-1.5), abs=1e-12)


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


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, {"b": np.array([0.1, 1.0 / 3.0, -2.5e-20]), "a": np.array([0.0, -0.0, 1e13]),
                     "n": np.full(3, 7)})
    assert path.read_bytes() == b"b,a,n\n0.1,0,7\n0.333333333333,-0,7\n-2.5e-20,1e+13,7\n"


def test_weighted_spectrum_validation():
    with pytest.raises(ValueError):
        WeightedSpectrum(np.array([0.0, 1.0]), np.array([1.0]))
    spec = WeightedSpectrum(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert spec.is_probability()
    assert not WeightedSpectrum(np.array([0.0]), np.array([0.5])).is_probability()


def test_smear_point_mass_reproduces_kernel():
    spec = WeightedSpectrum(np.array([0.0]), np.array([1.0]))
    grid = EnergyGrid(-5.0, 5.0, 0.1)
    out = smear_spectrum(spec, K1, grid)
    assert np.allclose(out.values, cauchy_density(K1, grid.points), atol=1e-15)


def test_smear_two_masses_value_at_zero():
    spec = WeightedSpectrum(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    grid = EnergyGrid(-1.0, 1.0, 1.0)
    out = smear_spectrum(spec, K1, grid)
    assert out.values[1] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)


def test_smear_empty_spectrum_is_zero():
    spec = WeightedSpectrum(np.array([]), np.array([]))
    out = smear_spectrum(spec, K1, EnergyGrid(-1.0, 1.0, 0.5))
    assert np.all(out.values == 0.0)


def test_smear_even_spectrum_is_even():
    spec = WeightedSpectrum(np.array([-2.0, -0.5, 0.5, 2.0]),
                            np.array([0.25, 0.25, 0.25, 0.25]))
    grid = EnergyGrid(-4.0, 4.0, 0.25)
    v = smear_spectrum(spec, K1, grid).values
    assert np.max(np.abs(v - v[::-1])) < 1e-12


def test_smear_windowed_mass_matches_arctan_correction():
    # trapezoid mass over [-W, W] must match the per-mass Cauchy CDF difference
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=5)
    wts = rng.uniform(0.1, 1.0, size=5)
    wts /= wts.sum()
    lam = 0.8
    spec = WeightedSpectrum(pts, wts)
    w_half = 50 * lam + float(np.max(np.abs(pts)))
    grid = EnergyGrid(-w_half, w_half, 0.01)
    out = smear_spectrum(spec, CauchyKernel(lam), grid)
    expected = sum(
        w * (math.atan((w_half - e) / lam) + math.atan((w_half + e) / lam)) / math.pi
        for e, w in zip(pts, wts)
    )
    assert out.trapezoid_mass() == pytest.approx(expected, abs=1e-6)


def test_smear_complex_weights_reported_separately():
    spec = WeightedSpectrum(np.array([0.0, 1.0]), np.array([0.5 + 0.25j, 0.5 - 0.25j]))
    grid = EnergyGrid(-2.0, 2.0, 0.5)
    out = smear_spectrum(spec, K1, grid, include_imag=True)
    assert out.values_im is not None
    direct_im = 0.25 * cauchy_density(K1, grid.points) - 0.25 * cauchy_density(
        K1, grid.points - 1.0)
    assert np.allclose(out.values_im, direct_im, atol=1e-14)


def test_smear_semigroup_through_grid_convolution():
    spec = WeightedSpectrum(np.array([-1.0, 0.5]), np.array([0.5, 0.5]))
    lam1, lam2 = 0.6, 0.4
    grid = EnergyGrid(-60.0, 60.0, 0.01)
    once = smear_spectrum(spec, CauchyKernel(lam1), grid)
    twice = grid_convolve(once, CauchyKernel(lam2))
    direct = smear_spectrum(spec, CauchyKernel(lam1 + lam2), grid)
    interior = np.abs(grid.points) <= 8.0
    assert np.max(np.abs(twice.values[interior] - direct.values[interior])) < 1e-6


def test_grid_convolve_commutes():
    spec = WeightedSpectrum(np.array([-1.0, 0.5]), np.array([0.5, 0.5]))
    grid = EnergyGrid(-60.0, 60.0, 0.01)
    a = grid_convolve(smear_spectrum(spec, CauchyKernel(0.7), grid), CauchyKernel(0.3))
    b = grid_convolve(smear_spectrum(spec, CauchyKernel(0.3), grid), CauchyKernel(0.7))
    interior = np.abs(grid.points) <= 8.0
    assert np.max(np.abs(a.values[interior] - b.values[interior])) < 1e-12


def test_stieltjes_point_mass():
    spec = WeightedSpectrum(np.array([0.0]), np.array([1.0]))
    m = stieltjes_eval(spec, 1j)
    assert m == pytest.approx(1j, abs=1e-15)
    assert m.imag / math.pi == pytest.approx(cauchy_density(K1, 0.0), abs=1e-15)


def test_stieltjes_empty_and_errors():
    assert stieltjes_eval(WeightedSpectrum(np.array([]), np.array([])), 1j) == 0
    spec = WeightedSpectrum(np.array([1.0]), np.array([1.0]))
    for z in (1.0, 1.0 - 0.5j):
        with pytest.raises(ValueError):
            stieltjes_eval(spec, z)


def test_stieltjes_poisson_consistency_with_smear():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=8)
    wts = rng.uniform(0.05, 0.3, size=8)
    spec = WeightedSpectrum(pts, wts)
    lam = 0.9
    grid = EnergyGrid(-3.0, 3.0, 0.5)
    smeared = smear_spectrum(spec, CauchyKernel(lam), grid).values
    via_m = np.array([stieltjes_eval(spec, e + 1j * lam).imag / math.pi for e in grid.points])
    assert np.max(np.abs(smeared - via_m)) < 1e-10


def test_ids_of_zero_density():
    grid = EnergyGrid(-1.0, 1.0, 0.5)
    ids = ids_of(GridDensity(-1.0, 1.0, 0.5, np.zeros(grid.count)))
    assert np.all(ids.cumulative == 0.0)


def test_ids_of_cauchy_window_mass():
    grid = EnergyGrid(-50.0, 50.0, 0.01)
    density = GridDensity(-50.0, 50.0, 0.01, cauchy_density(K1, grid.points))
    ids = ids_of(density)
    expected = (2.0 / math.pi) * math.atan(50.0)
    assert abs(ids.cumulative[-1] - expected) < 1e-3
    assert abs(ids.cumulative[-1] - 0.9873) < 1e-3
    assert ids.cumulative[-1] == pytest.approx(density.trapezoid_mass(), abs=1e-12)


def test_ids_of_uniform_ramp():
    grid = EnergyGrid(-1.0, 1.0, 0.01)
    density = GridDensity(-1.0, 1.0, 0.01, np.full(grid.count, 0.5))
    ids = ids_of(density)
    idx = int(round((0.5 - (-1.0)) / 0.01))
    assert ids.cumulative[idx] == pytest.approx(0.75, abs=1e-12)


def test_ids_of_rejects_negative():
    with pytest.raises(ValueError):
        ids_of(GridDensity(0.0, 1.0, 0.5, np.array([0.1, -0.2, 0.1])))


def test_grid_density_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, 0.5, np.array([1.0, 2.0]))
    gd = GridDensity(0.0, 1.0, 0.5, np.array([1.0, 2.0, 3.0]))
    path = tmp_path / "curve.csv"
    gd.to_csv(path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "energy,density"
    assert lines[1] == "0,1"
    assert "\r" not in text


def test_grid_density_csv_with_imag(tmp_path):
    gd = GridDensity(0.0, 1.0, 1.0, np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    path = tmp_path / "curve.csv"
    gd.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "energy,density,density_im"
    assert lines[2] == "1,2,-0.5"


def test_step_ids_validation_eval_and_csv(tmp_path):
    with pytest.raises(ValueError):
        StepIDS(np.array([0.0, 1.0]), np.array([0.5, 0.2]))
    with pytest.raises(ValueError):
        StepIDS(np.array([1.0, 0.0]), np.array([0.2, 0.5]))
    ids = StepIDS(np.array([0.0, 1.0]), np.array([0.25, 1.0]))
    assert ids.at(-0.5) == 0.0
    assert ids.at(0.0) == 0.25
    assert ids.at(2.0) == 1.0
    path = tmp_path / "ids.csv"
    ids.to_csv(path)
    assert path.read_text().splitlines()[0] == "energy,ids"


def test_window_tail_mass():
    assert window_tail_mass(K1, 50.0) == pytest.approx(1 - (2 / math.pi) * math.atan(50.0),
                                                       abs=1e-15)
