import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0, jv

from cauchydos.errors import OutsideStripError
from cauchydos.free_models import (
    BetheFreeModel,
    ContinuumFreeModel,
    LatticeFreeModel,
    bessel_j,
    exact_smoothed,
    free_stieltjes,
    lattice_box_charfn,
    lattice_dos_smoothed,
    truncated_tree_stieltjes,
    _BLOCK,
    _GROUP,
    _lattice_laplace,
)
from cauchydos.measures import CauchyKernel, EnergyGrid, window_tail_mass

J0_FIRST_ZERO = 2.404825557695773


def kesten_mckay_density(model: BetheFreeModel, energy):
    """Root spectral density of the infinite (K+1)-regular tree (the lam -> 0 oracle).

    rho(E) = (K+1) sqrt(4K - E^2) / (2 pi ((K+1)^2 - E^2)) on |E| <= 2 sqrt K.
    """
    K = model.K
    e = np.asarray(energy, dtype=float)
    inside = 4.0 * K - np.square(e)
    if e.ndim == 0:
        if inside <= 0:
            return 0.0
        return float((K + 1) * np.sqrt(inside) / (2.0 * np.pi * ((K + 1) ** 2 - e * e)))
    out = np.zeros_like(inside)
    band = inside > 0  # the (K+1)^2 - E^2 pole sits outside the band
    out[band] = ((K + 1) * np.sqrt(inside[band])
                 / (2.0 * np.pi * ((K + 1) ** 2 - np.square(e[band]))))
    return out

# frozen against an independent high-precision series evaluation (mpmath, 40 digits)
BESSEL_ORACLE = {
    (0, 1.0): 0.76519768655796655,
    (1, 1.0): 0.44005058574493352,
    (0, 4.0): -0.39714980986384737,
    (0, 2.0): 0.22389077914123567,
    (5, 0.9): 0.00014865802167459598,
    (2, 7.3): -0.26559491188343688,
    (10, 40.5): 0.12656702528995299,
    (0, 99.5): -0.019543066407440784,
    (37, 25.0): 3.5561707400457492e-05,
    (200, 100.0): 2.0594424939411679e-41,
    (0, 1500.25): -0.012400451715742773,
    (3, 5000.5): 0.011189140292646451,
}


def test_bessel_small_order_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-12


def test_bessel_against_high_precision_oracle():
    for (n, x), expected in BESSEL_ORACLE.items():
        assert bessel_j(n, x) == pytest.approx(expected, abs=1e-12), (n, x)


def test_bessel_negative_argument_parity():
    assert bessel_j(2, -7.3) == bessel_j(2, 7.3)
    assert bessel_j(1, -1.0) == -bessel_j(1, 1.0)


def test_bessel_rejects_negative_order():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)


def test_bessel_recurrence_relative_residual():
    worst = 0.0
    for x in np.arange(0.1, 50.0, 1.7):
        seq = [bessel_j(n, float(x)) for n in range(52)]
        for n in range(1, 51):
            lhs = seq[n - 1] + seq[n + 1]
            rhs = (2.0 * n / x) * seq[n]
            scale = max(abs(seq[n - 1]), abs(rhs), 1e-300)
            worst = max(worst, abs(lhs - rhs) / scale)
    assert worst < 1e-10


def free_amplitude(d, offset, t, side=64):
    """<delta_0, exp(itH0) delta_x> on Z^d, read off lattice_box_charfn on a box
    wide enough that x is its own nearest periodic image."""
    site = sum((x % side) * side ** j for j, x in enumerate(offset))
    value = lattice_box_charfn(LatticeFreeModel(d), CauchyKernel(1.0), side, 0, site, [t])[0]
    return value / math.exp(-abs(t))


def test_lattice_free_charfn_values():
    # the diagonal free amplitude is J_0(2t)^d
    assert free_amplitude(3, [0, 0, 0], 0.0) == 1.0
    assert free_amplitude(2, [0, 0], 0.5) == pytest.approx(0.58552749951366402, abs=1e-12)
    assert abs(free_amplitude(1, [0], J0_FIRST_ZERO / 2.0)) < 1e-12


def test_lattice_offdiag_reduces_to_diagonal():
    for t in (0.0, 0.7, 2.3):
        assert free_amplitude(2, [0, 0], t) == pytest.approx(j0(2.0 * t) ** 2, abs=1e-13)


def test_lattice_offdiag_values():
    assert free_amplitude(1, [1], 0.0) == 0.0
    val = free_amplitude(1, [1], 0.5)
    assert val == pytest.approx(1j * 0.44005058574493352, abs=1e-12)
    # negative offsets give the same amplitude on the symmetric lattice
    assert free_amplitude(1, [-1], 0.5) == pytest.approx(val, abs=1e-14)
    # a site outside the box has no offset
    with pytest.raises(ValueError):
        lattice_box_charfn(LatticeFreeModel(1), CauchyKernel(1.0), 64, 0, 64, [0.5])


def test_lattice_offdiag_matches_ring_eigendecomposition():
    # wrap-around is negligible for t << L / (2 * speed)
    from cauchydos.ensemble import LatticeBoxSpec, build_lattice
    from cauchydos.spectra import eig_sym

    L = 64
    eig = eig_sym(build_lattice(LatticeBoxSpec(1, L, "periodic"), None))
    for x, t in ((0, 1.5), (1, 1.5), (3, 2.5)):
        amp = np.sum(np.exp(1j * t * eig.values) * eig.vectors[0, :] * eig.vectors[x, :])
        assert free_amplitude(1, [x], t, side=L) == pytest.approx(amp, abs=1e-10)


def test_lattice_dos_closed_forms():
    m = LatticeFreeModel(1)
    assert lattice_dos_smoothed(m, CauchyKernel(1.0), 0.0) == pytest.approx(
        1.0 / (math.pi * math.sqrt(5.0)), abs=1e-10)
    assert lattice_dos_smoothed(m, CauchyKernel(0.5), 0.0) == pytest.approx(
        1.0 / (math.pi * math.sqrt(4.25)), abs=1e-10)


def test_lattice_dos_regression_constants():
    # frozen from 30-digit quadrature of the defining integral
    assert lattice_dos_smoothed(LatticeFreeModel(1), CauchyKernel(1.0), 2.0) == pytest.approx(
        0.123559836172875, abs=1e-9)
    assert lattice_dos_smoothed(LatticeFreeModel(2), CauchyKernel(1.0), 0.0) == pytest.approx(
        0.139100768708961, abs=1e-9)
    assert lattice_dos_smoothed(LatticeFreeModel(3), CauchyKernel(1.0), 0.0) == pytest.approx(
        0.114414320188398, abs=1e-9)


def test_lattice_dos_even():
    m = LatticeFreeModel(2)
    k = CauchyKernel(0.7)
    for e in (0.5, 1.7, 3.2):
        assert lattice_dos_smoothed(m, k, e) == pytest.approx(
            lattice_dos_smoothed(m, k, -e), abs=1e-11)


def test_lattice_dos_outside_strip_raises():
    m = LatticeFreeModel(1)
    k = CauchyKernel(1.0)
    for y in (1.0, 1.05, -1.2):
        with pytest.raises(OutsideStripError):
            lattice_dos_smoothed(m, k, 0.5 + 1j * y)


def test_lattice_dos_complex_real_axis_consistency():
    m = LatticeFreeModel(1)
    k = CauchyKernel(1.0)
    real = lattice_dos_smoothed(m, k, 1.3)
    cplx = lattice_dos_smoothed(m, k, 1.3 + 0.4j)
    assert abs(lattice_dos_smoothed(m, k, complex(1.3, 0.0)) - real) < 1e-11
    # Schwarz reflection: real on the real axis forces p(conj z) = conj p(z)
    assert lattice_dos_smoothed(m, k, 1.3 - 0.4j) == pytest.approx(np.conj(cplx), abs=1e-10)


def test_lattice_dos_curve_matches_scalar():
    m = LatticeFreeModel(1)
    k = CauchyKernel(1.0)
    grid = EnergyGrid(-6.0, 6.0, 0.75)
    curve = exact_smoothed(m, k, grid.points)
    scal = np.array([lattice_dos_smoothed(m, k, e) for e in grid.points])
    assert np.max(np.abs(curve - scal)) < 1e-10


def test_lattice_dos_curve_mass_with_declared_tail():
    for d in (1, 2):
        lam = 1.0
        half = 2 * d + 60 * lam
        grid = EnergyGrid(-half, half, 0.02)
        v = exact_smoothed(LatticeFreeModel(d), CauchyKernel(lam), grid.points)
        inside = (0.5 * (v[0] + v[-1]) + v[1:-1].sum()) * grid.step
        mass = inside + window_tail_mass(CauchyKernel(lam), half)
        assert abs(mass - 1.0) < 2e-3


def test_kesten_mckay_values_and_support():
    b = BetheFreeModel(2)
    assert kesten_mckay_density(b, 0.0) == pytest.approx(math.sqrt(2) / (3 * math.pi),
                                                         abs=1e-12)
    assert kesten_mckay_density(b, 3.0) == 0.0
    assert kesten_mckay_density(b, 2.0 * math.sqrt(2) + 1e-9) == 0.0


def test_kesten_mckay_normalizes():
    for K in (2, 3):
        b = BetheFreeModel(K)
        r = 2.0 * math.sqrt(K)
        total, _ = quad(lambda e: kesten_mckay_density(b, e), -r, r, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_bethe_smoothed_resolvent_oracle():
    # independent route: m(z) = 1/(-z - (K+1) s) with K s^2 + z s + 1 = 0, Im s > 0
    def resolvent_value(K, lam, e):
        z = complex(e, lam)
        s = (-z + np.sqrt(z * z - 4 * K)) / (2 * K)
        if s.imag <= 0:
            s = (-z - np.sqrt(z * z - 4 * K)) / (2 * K)
        return (1.0 / (-z - (K + 1) * s)).imag / math.pi

    for K, lam, e in ((2, 1.0, 0.0), (2, 0.6, 1.3), (3, 0.8, -2.0)):
        assert exact_smoothed(BetheFreeModel(K), CauchyKernel(lam), e) == pytest.approx(
            resolvent_value(K, lam, e), abs=1e-9)
    assert exact_smoothed(BetheFreeModel(2), CauchyKernel(1.0), 0.0) == pytest.approx(
        2.0 / (5.0 * math.pi), abs=1e-10)


def test_bethe_smoothed_small_lambda_recovers_kesten_mckay():
    b = BetheFreeModel(2)
    for e in (0.0, 0.7, -1.4):
        assert exact_smoothed(b, CauchyKernel(1e-3), e) == pytest.approx(
            kesten_mckay_density(b, e), abs=1e-2)


def test_bethe_smoothed_even():
    b = BetheFreeModel(2)
    k = CauchyKernel(0.9)
    for e in (0.4, 1.9, 2.7):
        assert exact_smoothed(b, k, e) == pytest.approx(exact_smoothed(b, k, -e), abs=1e-10)


def test_bethe_curve_matches_scalar():
    b = BetheFreeModel(2)
    k = CauchyKernel(1.1)
    grid = EnergyGrid(-2.9, 2.9, 0.29)
    curve = exact_smoothed(b, k, grid.points)
    scal = np.array([exact_smoothed(b, k, e) for e in grid.points])
    assert np.max(np.abs(curve - scal)) < 1e-9


def test_truncated_tree_transforms_match_dense_eigensolve():
    from cauchydos.ensemble import TreeSpec, build_tree
    from cauchydos.spectra import eig_sym

    K, depth = 2, 5
    spec = TreeSpec(K, depth)
    eig = eig_sym(build_tree(spec, None))
    z = np.array([0.3 + 0.5j, -1.2 + 0.25j, 2.0 + 1.0j])
    weights = eig.vectors[0] ** 2
    root_direct = np.array([np.sum(weights / (eig.values - zz)) for zz in z])
    root, mean = truncated_tree_stieltjes(K, depth, z)
    assert np.max(np.abs(root - root_direct)) < 1e-12
    mean_direct = np.array(
        [np.mean(1.0 / (eig.values - zz)) for zz in z])
    # mean over the diagonal equals the eigenvalue average by the trace
    assert np.max(np.abs(mean - mean_direct)) < 1e-12


def test_truncated_tree_requires_upper_half_plane():
    with pytest.raises(ValueError):
        truncated_tree_stieltjes(2, 3, 1.0 + 0j)
    with pytest.raises(ValueError):
        truncated_tree_stieltjes(2, 3, np.array([1j, -1j]))


def test_truncated_tree_converges_to_kesten_mckay():
    b = BetheFreeModel(2)
    k = CauchyKernel(1.0)
    z = 0.5 + 1j * k.lam
    deep = truncated_tree_stieltjes(2, 28, z)[0].imag / math.pi
    assert deep == pytest.approx(exact_smoothed(b, k, 0.5), abs=1e-3)


def test_depth_fourteen_free_root_close_to_kesten_mckay():
    # finite-depth boundary bias at the root, broadened at 0.5, is below 0.01
    # on the interior window |E| <= 2.5
    grid = EnergyGrid(-2.5, 2.5, 0.02)
    z = grid.points + 0.5j
    root = truncated_tree_stieltjes(2, 14, z)[0].imag / math.pi
    km = exact_smoothed(BetheFreeModel(2), CauchyKernel(0.5), grid.points)
    assert np.max(np.abs(root - km)) <= 0.01


def test_continuum_free_ids_values():
    # the free IDS is the boundary value (1/pi) Im F(E + i0) of the continuum transform
    m = ContinuumFreeModel()

    def free_ids(e):
        return float(free_stieltjes(m, e + 0j).imag) / math.pi

    assert free_ids(0.0) == 0.0
    assert free_ids(-3.0) == 0.0
    assert free_ids(1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert free_ids(4.0) == pytest.approx(2.0 / math.pi, abs=1e-15)


def test_continuum_ids_smoothed_regression():
    # frozen from two independent 30-digit quadratures (tan substitution and
    # direct heavy-tail integral)
    m = ContinuumFreeModel()
    assert exact_smoothed(m, CauchyKernel(0.2), 1.0) == pytest.approx(
        0.31988194865360675, abs=1e-9)


def test_continuum_ids_smoothed_limits():
    m = ContinuumFreeModel()
    assert exact_smoothed(m, CauchyKernel(1e-4), 1.0) == pytest.approx(
        1.0 / math.pi, abs=1e-3)
    vals = [exact_smoothed(m, CauchyKernel(0.3), e) for e in (-1.0, -3.0, -8.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.02


# ---------------------------------------------------------------------------
# Independent quadrature oracles for every closed form and for the shared-node
# time integral. Each integrates the defining convolution directly with
# adaptive quadrature instead of the closed forms or the shared-node rule.
# ---------------------------------------------------------------------------

ORACLE_TOL = 1e-9
QUAD_ABS_TOL = 1e-10


def laplace_smoothed(d, lam, energies):
    """(L(lam - iE) + L(lam + iE)) / (2 pi) = (1/pi) int exp(-lam t) cos(E t) J_0(2t)^d dt
    from the Laplace sum at any d, bypassing ``free_stieltjes``."""
    e = np.asarray(energies)
    p = (_lattice_laplace(d, lam - 1j * e) + _lattice_laplace(d, lam + 1j * e)) / (2 * math.pi)
    return p if np.iscomplexobj(e) else p.real


def cosine_contraction(d, lam, energies):
    """The per-node route the factored integrator replaced: one cos(E t) per
    (energy, node) pair on the same panels, nodes and weights."""
    e = np.asarray(energies)
    margin = lam - np.max(np.abs(e.imag), initial=0.0)
    tmax = -math.log(1e-14) / margin
    width = min(0.5, 8.0 / max(np.max(np.abs(e.real), initial=0.0) + 2.0 * d, 1.0))
    edges = np.linspace(0.0, tmax, int(math.ceil(tmax / width)) + 1)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    f = j0(2.0 * t) ** d * w
    out = np.empty(e.shape, dtype=e.dtype)
    for start in range(0, e.size, 256):
        x = np.multiply.outer(e[start:start + 256], t)
        if np.iscomplexobj(e):
            # cos(E t) alone overflows near the strip edge: pair each of its
            # exponentials with the decay exp(-lam t) before evaluating it
            kernel = 0.5 * (np.exp(1j * x - lam * t) + np.exp(-1j * x - lam * t))
        else:
            kernel = np.cos(x) * np.exp(-lam * t)
        out[start:start + 256] = kernel @ f
    return out / np.pi


def square_lattice_stieltjes(z):
    """m(z) of Z^2, Im z > 0, as the chain's m averaged over the other axis:
    (1/pi) int_0^pi G_1(z - 2 cos th) dth with G_1(w) = -1/(sqrt(w-2) sqrt(w+2))."""

    def chain(th):
        w = z - 2.0 * math.cos(th)
        return -1.0 / (np.sqrt(w - 2.0) * np.sqrt(w + 2.0))

    re, _ = quad(lambda th: chain(th).real, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12, limit=400)
    im, _ = quad(lambda th: chain(th).imag, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12, limit=400)
    return complex(re, im) / math.pi


def lattice_quad(d, lam, e):
    """(1/pi) int_0^T exp(-lam t) cos(E t) J_0(2t)^d dt, tail below 1e-14."""
    tmax = -math.log(1e-14) / lam
    val, _ = quad(lambda t: math.exp(-lam * t) * math.cos(e * t) * j0(2.0 * t) ** d,
                  0.0, tmax, epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=400)
    return val / math.pi


def bethe_quad(K, lam, e):
    """Kesten-McKay law against the Cauchy kernel; x = 2 sqrt(K) sin(theta)
    removes the square-root band edges."""
    r = 2.0 * math.sqrt(K)

    def integrand(theta):
        x = r * math.sin(theta)
        co = r * math.cos(theta)
        rho_dx = (K + 1) * co * co / (2.0 * math.pi * ((K + 1) ** 2 - x * x))
        return rho_dx * (lam / math.pi) / (lam * lam + (e - x) ** 2)

    # for small lam the kernel is a narrow spike at sin(theta) = E/r
    points = [math.asin(e / r)] if abs(e) < r else None
    val, _ = quad(integrand, -math.pi / 2, math.pi / 2, points=points,
                  epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=300)
    return val


def continuum_quad(lam, e):
    """Smoothed free IDS: E' = E - lam tan(theta) maps the heavy-tailed
    convolution to (1/pi) int N0(E - lam tan theta) d(theta), split at the
    square-root kink."""

    def integrand(theta):
        arg = e - lam * math.tan(theta)
        return math.sqrt(arg) / math.pi if arg > 0 else 0.0

    kink = math.atan2(e, lam)
    points = [kink] if -math.pi / 2 < kink < math.pi / 2 else None
    val, _ = quad(integrand, -math.pi / 2, math.pi / 2, points=points,
                  epsabs=QUAD_ABS_TOL, epsrel=1e-12, limit=200)
    return val / math.pi


@pytest.mark.parametrize("lam", [0.05, 1.0])
@pytest.mark.parametrize("K", [2, 3, 5])
def test_bethe_closed_form_matches_quadrature(K, lam):
    b, k = BetheFreeModel(K), CauchyKernel(lam)
    grid = EnergyGrid(-4.0, 4.0, 0.1)
    oracle = np.array([bethe_quad(K, lam, e) for e in grid.points])
    assert np.max(np.abs(exact_smoothed(b, k, grid.points) - oracle)) <= ORACLE_TOL
    scalar = np.array([exact_smoothed(b, k, e) for e in grid.points])
    assert np.max(np.abs(scalar - oracle)) <= ORACLE_TOL


@pytest.mark.parametrize("lam", [0.05, 1.0])
def test_continuum_closed_form_matches_quadrature(lam):
    m, k = ContinuumFreeModel(), CauchyKernel(lam)
    e = EnergyGrid(-1.0, 4.0, 0.25).points
    oracle = np.array([continuum_quad(lam, x) for x in e])
    assert np.max(np.abs(exact_smoothed(m, k, e) - oracle)) <= ORACLE_TOL
    scalar = np.array([exact_smoothed(m, k, x) for x in e])
    assert np.max(np.abs(scalar - oracle)) <= ORACLE_TOL


@pytest.mark.parametrize("lam", [0.05, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_dos_matches_time_domain_quadrature(d, lam):
    m, k = LatticeFreeModel(d), CauchyKernel(lam)
    grid = EnergyGrid(-5.0, 5.0, 0.5)
    oracle = np.array([lattice_quad(d, lam, e) for e in grid.points])
    assert np.max(np.abs(exact_smoothed(m, k, grid.points) - oracle)) <= ORACLE_TOL
    scalar = np.array([lattice_dos_smoothed(m, k, e) for e in grid.points])
    assert np.max(np.abs(scalar - oracle)) <= ORACLE_TOL


@pytest.mark.parametrize("lam", [0.05, 1.0])
def test_shared_node_integral_matches_chain_closed_form(lam):
    # the d >= 2 integrator run at d = 1, where the arcsine closed form is exact
    m, k = LatticeFreeModel(1), CauchyKernel(lam)
    e = EnergyGrid(-5.0, 5.0, 0.1).points
    for z in (e, e[::5] + 0.25j * lam, e[::5] + 0.5j * lam, e[::5] - 0.5j * lam):
        dev = np.abs(laplace_smoothed(1, lam, z) - exact_smoothed(m, k, z))
        assert np.max(dev) <= ORACLE_TOL


@pytest.mark.parametrize("lam", [0.05, 1.0])
@pytest.mark.parametrize("d", [2, 3])
def test_factored_integral_matches_cosine_contraction(d, lam):
    e = EnergyGrid(-8.0, 8.0, 0.1).points
    for z in (e, e[::8] + 0.25j * lam, e[::8] + 0.5j * lam, e[::8] - 0.5j * lam,
              e[::8] + 0.9j * lam):
        fast = laplace_smoothed(d, lam, z)
        assert fast.dtype == z.dtype
        assert np.max(np.abs(fast - cosine_contraction(d, lam, z))) <= 1e-13


def test_factored_integral_spans_several_energy_blocks():
    # every energy needs more than 16 * _GROUP matrix entries, so this grid
    # cannot fit in one _BLOCK and the energy loop runs at least twice
    e = EnergyGrid(-10.0, 10.0, 0.002).points
    assert e.size * 16 * _GROUP > _BLOCK
    dev = np.abs(laplace_smoothed(2, 1.0, e) - cosine_contraction(2, 1.0, e))
    assert np.max(dev) <= 1e-13


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_square_lattice_complex_energies_match_stieltjes_quadrature(lam):
    # p(E) = (m(E + i lam) - conj m(conj(E - i lam))) / (2 pi i) inside the strip
    m, k = LatticeFreeModel(2), CauchyKernel(lam)
    z = np.array([0.0, 0.7, -1.9, 3.1, 4.6]) + lam * np.array([0.25, 0.5, -0.5, 0.9, 0.5]) * 1j
    oracle = np.array([(square_lattice_stieltjes(x + 1j * lam)
                        - np.conj(square_lattice_stieltjes(np.conj(x - 1j * lam)))) / (2j * math.pi)
                       for x in z])
    assert np.max(np.abs(exact_smoothed(m, k, z) - oracle)) <= ORACLE_TOL


def test_exact_smoothed_outside_strip_raises_for_every_model():
    k = CauchyKernel(0.5)
    for model in (LatticeFreeModel(1), LatticeFreeModel(2), BetheFreeModel(3),
                  ContinuumFreeModel()):
        with pytest.raises(OutsideStripError):
            exact_smoothed(model, k, np.array([0.1 + 0.2j, 0.3 + 0.5j]))
        assert isinstance(exact_smoothed(model, k, 0.3 + 0.2j), complex)
        assert isinstance(exact_smoothed(model, k, 0.3), float)


def test_time_integral_refuses_node_counts_past_the_grid_cap():
    # the d >= 3 node count grows with max|E| and with 1/(lam - |Im E|); both are
    # refused before any node is allocated rather than growing memory without bound
    k = CauchyKernel(1.0)
    with pytest.raises(ValueError, match=r"max\|E\| = 200000"):
        exact_smoothed(LatticeFreeModel(3), k, 2e5)
    with pytest.raises(ValueError, match="margin 1e-05"):
        exact_smoothed(LatticeFreeModel(3), k, 0.5 + 0.99999j)
    # the closed forms cost the same at any energy; far out Z^2 is the kernel tail
    for model in (LatticeFreeModel(1), LatticeFreeModel(2), BetheFreeModel(2),
                  ContinuumFreeModel()):
        assert math.isfinite(exact_smoothed(model, k, 1e9))
    tail = k.lam / (math.pi * 2e5**2)
    assert exact_smoothed(LatticeFreeModel(2), k, 2e5) == pytest.approx(tail, rel=1e-8)


def test_nan_energy_gives_nan_on_the_agm_and_time_integral_routes():
    # a NaN neither stalls the AGM loop nor sizes the d >= 3 node grid
    k, e = CauchyKernel(1.0), np.array([np.nan, 0.5])
    with np.errstate(invalid="ignore"):  # complex division by NaN warns, as in every closed form
        agm = exact_smoothed(LatticeFreeModel(2), k, e)
    for p in (agm, exact_smoothed(LatticeFreeModel(3), k, e)):
        assert np.isnan(p[0]) and np.isfinite(p[1])


def test_free_stieltjes_refuses_points_outside_its_domain():
    # Im z < 0 is refused for every model; the real axis is the boundary value
    # of the Kesten-McKay and continuum forms but outside the Z^d routes, d >= 2
    for model in (LatticeFreeModel(1), LatticeFreeModel(2), LatticeFreeModel(3),
                  BetheFreeModel(2), ContinuumFreeModel()):
        with pytest.raises(ValueError, match="requires Im z"):
            free_stieltjes(model, np.array([0.5 + 0.1j, 0.5 - 0.1j]))
    for model in (LatticeFreeModel(2), LatticeFreeModel(3)):
        with pytest.raises(ValueError, match="requires Im z > 0"):
            free_stieltjes(model, 0.5 + 0j)
    for model in (LatticeFreeModel(1), BetheFreeModel(2), ContinuumFreeModel()):
        assert math.isfinite(free_stieltjes(model, 0.5 + 0j).imag)


@pytest.mark.parametrize("lam", [0.05, 1.0])
def test_square_lattice_agm_matches_laplace_sum(lam):
    m, k = LatticeFreeModel(2), CauchyKernel(lam)
    e = EnergyGrid(-9.0, 9.0, 0.01).points
    assert np.max(np.abs(exact_smoothed(m, k, e) - laplace_smoothed(2, lam, e))) <= 1e-13
    z = e[::9] + 1j * lam * np.linspace(-0.9, 0.9, e[::9].size)
    assert np.max(np.abs(exact_smoothed(m, k, z) - laplace_smoothed(2, lam, z))) <= 1e-13


def test_square_lattice_agm_matches_stieltjes_quadrature():
    z = np.array([0.0 + 0.05j, 0.5 + 1j, -3.9 + 0.2j, 4.1 + 0.05j, 7.0 + 3j, -12.0 + 0.5j])
    oracle = np.array([square_lattice_stieltjes(x) for x in z])
    assert np.max(np.abs(free_stieltjes(LatticeFreeModel(2), z) - oracle)) <= ORACLE_TOL


def test_lattice_box_charfn_uses_nearest_periodic_image():
    t = np.array([0.0, 0.7, 1.9])
    k = CauchyKernel(1.0)
    decay = np.exp(-t)
    # d = 1, offset 63 on a 64-ring is the neighbour at -1
    ring = lattice_box_charfn(LatticeFreeModel(1), k, 64, 0, 63, t)
    assert np.allclose(ring, decay * 1j * jv(1, 2 * t), atol=1e-14)
    # d = 2, side 8: site 9 is (1, 1) with axis 0 fastest; site 7 is (-1, 0)
    assert np.allclose(lattice_box_charfn(LatticeFreeModel(2), k, 8, 0, 9, t),
                       -decay * jv(1, 2 * t) ** 2, atol=1e-14)
    assert np.allclose(lattice_box_charfn(LatticeFreeModel(2), k, 8, 9, 2, t),
                       -decay * jv(1, 2 * t) ** 2, atol=1e-14)
    assert np.allclose(lattice_box_charfn(LatticeFreeModel(2), k, 8, 0, 7, t),
                       decay * 1j * jv(1, 2 * t) * j0(2 * t), atol=1e-14)
