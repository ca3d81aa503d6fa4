import math
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from scipy.special import jv

from cauchydos.ensemble import (
    BumpFamily,
    LatticeBoxSpec,
    SymmetricOperator,
    TreeSpec,
    build_lattice,
    build_operator,
    build_tree,
    draw_sample,
    site_count,
)
from cauchydos.errors import CapExceededError, EnclosureError
from cauchydos.free_models import lattice_dos_smoothed, LatticeFreeModel
from cauchydos.measures import CauchyKernel, EnergyGrid, cauchy_density, write_csv
from cauchydos.spectra import (
    DENSE_CAP,
    McEstimate,
    _band_form,
    _refuse_deep_tree,
    _sturm_counts,
    _tree_green_diagonals,
    charfn_mc,
    chebyshev_evolve,
    dos_mc,
    eig_sym,
    eigvals_sym,
    ids_mc,
    krylov_charfn,
)

from conftest import child_env, random_sparse_symmetric

K1 = CauchyKernel(1.0)
SWAP = SymmetricOperator(2, [0], [1], [1.0])


def test_eig_swap_matrix():
    eig = eig_sym(SWAP)
    assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)


def _path(omegas):
    """The open chain with hopping 1 and ``omegas`` on the diagonal."""
    n = omegas.size
    return SymmetricOperator(n, np.r_[np.arange(n - 1), np.arange(n)],
                             np.r_[np.arange(1, n), np.arange(n)], np.r_[np.ones(n - 1), omegas])


def test_eig_path_graph_closed_form():
    op = _path(np.zeros(5))
    expected = sorted(2.0 * math.cos(k * math.pi / 6.0) for k in range(1, 6))
    assert np.allclose(eig_sym(op).values, expected, atol=1e-12)


def test_eig_diagonal_matrix_is_sorted_couplings():
    omegas = draw_sample(K1, 12, 4, 0).omegas
    op = SymmetricOperator(12, np.arange(12), np.arange(12), omegas)
    assert np.allclose(eig_sym(op).values, np.sort(omegas), atol=0)


def test_eig_invariants_random_instances():
    for seed in range(5):
        n = 40 + 17 * seed
        op = random_sparse_symmetric(n, seed)
        dense = op.to_dense()
        eig = eig_sym(op)
        scale = max(np.max(np.abs(dense)), 1e-30)
        residual = np.max(np.abs(dense @ eig.vectors - eig.vectors * eig.values))
        assert residual <= 1e-10 * n * scale
        gram = eig.vectors.T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_eig_periodic_box_spectrum_enumeration():
    # d=1 and d=2 free periodic boxes against the plane-wave closed form
    op1 = build_lattice(LatticeBoxSpec(1, 16), None)
    expect1 = np.sort([2.0 * math.cos(2.0 * math.pi * k / 16) for k in range(16)])
    assert np.max(np.abs(eig_sym(op1).values - expect1)) < 1e-9
    op2 = build_lattice(LatticeBoxSpec(2, 6), None)
    expect2 = np.sort([
        2.0 * math.cos(2.0 * math.pi * k / 6) + 2.0 * math.cos(2.0 * math.pi * j / 6)
        for k in range(6) for j in range(6)
    ])
    assert np.max(np.abs(eig_sym(op2).values - expect2)) < 1e-9


def test_eig_cap():
    # the cap is checked before the matrix is densified or solved
    n = DENSE_CAP + 1
    op = SymmetricOperator(n, np.arange(n), np.arange(n), np.zeros(n))
    with pytest.raises(CapExceededError):
        eig_sym(op)
    with pytest.raises(CapExceededError):
        eigvals_sym(op)


def _band_case_id(spec):
    # every box is periodic, and its id says so
    if isinstance(spec, LatticeBoxSpec):
        return f"LatticeBoxSpec(d={spec.d}, side={spec.side}, boundary='periodic')"
    return repr(spec)


@pytest.mark.parametrize("spec", [
    LatticeBoxSpec(1, 1), LatticeBoxSpec(1, 2), LatticeBoxSpec(1, 3), LatticeBoxSpec(1, 301),
    pytest.param(300, id="path-300"), BumpFamily(25, 0.1),
    LatticeBoxSpec(2, 1), LatticeBoxSpec(2, 2), LatticeBoxSpec(2, 3), LatticeBoxSpec(2, 8),
    LatticeBoxSpec(2, 45),
], ids=_band_case_id)
def test_eigvals_sym_band_route_matches_dense(spec):
    # chains (an int: the open path of that many sites), rings and d=2 boxes
    # (interleaved width 2*side = 2*sqrt(n), the rule's edge) take the band
    # solver; it must agree with the dense one
    if isinstance(spec, int):
        op = _path(draw_sample(CauchyKernel(0.5), spec, 7, 0).omegas)
    else:
        sample = draw_sample(CauchyKernel(0.5), spec.n_sites if isinstance(spec, LatticeBoxSpec)
                             else spec.length, 7, 0)
        op = build_operator(spec, sample)
    dense = np.linalg.eigvalsh(op.to_dense())
    band = eigvals_sym(op)
    assert band.shape == dense.shape
    assert np.all(np.diff(band) >= 0)
    assert np.max(np.abs(band - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))


def test_eigvals_sym_general_sparse_stays_dense():
    # interleaved widths past 2*sqrt(n): a d=3 side-4 box (32 > 16), a tree, random sparse
    ops = [random_sparse_symmetric(60, 5),
           build_operator(LatticeBoxSpec(3, 4), draw_sample(K1, 64, 7, 0)),
           build_tree(TreeSpec(2, 5), draw_sample(K1, TreeSpec(2, 5).n_vertices, 7, 0))]
    for op in ops:
        assert np.array_equal(eigvals_sym(op), np.linalg.eigvalsh(op.to_dense()))


def test_local_measure_diagonal_sums_to_one():
    # the weights v_k(phi) v_k(psi) of the local measure at the eigenvalues
    op = random_sparse_symmetric(60, 2)
    eig = eig_sym(op)
    weights = eig.vectors[7] * eig.vectors[7]
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(weights >= -1e-12)
    # any unit pair: total weight bounded by 1 (orthonormal columns)
    for psi in (7, 8, 31):
        assert abs(np.sum(eig.vectors[7] * eig.vectors[psi])) <= 1.0 + 1e-10


def test_local_measure_swap_matrix():
    eig = eig_sym(SWAP)
    diag = eig.vectors[0] * eig.vectors[0]
    assert np.allclose(diag, [0.5, 0.5], atol=1e-14)
    off = eig.vectors[0] * eig.vectors[1]
    assert np.allclose(np.sort(off), [-0.5, 0.5], atol=1e-14)
    assert off[0] == pytest.approx(-0.5, abs=1e-14)  # at eigenvalue -1


def test_empirical_ids_free_ring():
    # spectrum {2, 0, 0, -2}; the double zero splits at machine precision,
    # so probe just off zero as the one-sided limits
    ids = ids_mc(LatticeBoxSpec(1, 4), None, [-1e-9, 1e-9, 2.0 + 1e-9], 1, 0)
    assert np.allclose(ids.mean, [0.25, 0.75, 1.0], rtol=0, atol=1e-15)


def test_empirical_ids_single_site_and_shift():
    # the count is right-continuous: a jump at E belongs to N(E)
    box = LatticeBoxSpec(1, 1)
    assert np.array_equal(ids_mc(box, None, [-1e-12, 0.0], 1, 0).mean, [0.0, 1.0])
    # with disorder the one eigenvalue is the coupling itself
    omega = draw_sample(K1, 1, 3, 0).omegas[0]
    at = [np.nextafter(omega, -np.inf), omega]
    assert np.array_equal(ids_mc(box, K1, at, 1, 3).mean, [0.0, 1.0])


def _free_ring_spectrum(side):
    """2 cos(2 pi k / side); at sides 1 and 2 no bond wraps, so the open path's."""
    if side <= 2:
        return np.array({1: [0.0], 2: [-1.0, 1.0]}[side])
    return np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(side) / side))


@pytest.mark.parametrize("side", range(1, 13))
def test_sturm_counts_of_free_rings_match_the_closed_form(side):
    # E=0 on an odd side makes the first pivot of the path exactly zero; a
    # Schur complement of site 0 carried through the sweep loses its sign there
    spectrum = _free_ring_spectrum(side)
    probes = np.concatenate([spectrum - 1e-9, spectrum + 1e-9, [0.0] if side % 2 else []])
    counts = _sturm_counts(build_lattice(LatticeBoxSpec(1, side)), probes)
    assert np.array_equal(counts, np.searchsorted(spectrum, probes, side="right"))


@pytest.mark.parametrize("spec, scale", [
    *[(LatticeBoxSpec(1, side), 1.0) for side in (1, 2, 3, 4, 7, 50)],
    (LatticeBoxSpec(1, 50), 1e8), (BumpFamily(25, 0.1), 1.0), (BumpFamily(25, 0.1), 1e8),
], ids=repr)
def test_sturm_counts_match_the_band_eigenvalue_count(spec, scale):
    # 200 Cauchy-spread energies at the disorder's scale, about the centre of
    # the clean spectrum (0 on a ring, 2/h^2 on a mesh)
    kernel = CauchyKernel(scale)
    op = build_operator(spec, draw_sample(kernel, site_count(spec), 11, 0))
    centre = 2.0 / spec.h ** 2 if isinstance(spec, BumpFamily) else 0.0
    energies = centre + scale * np.tan(np.pi * (np.arange(200) + 0.5) / 200 - np.pi / 2)
    expected = np.searchsorted(eigvals_sym(op), energies, side="right")
    assert np.array_equal(_sturm_counts(op, energies), expected)
    # the counts take the shape of the energies, as searchsorted's do
    assert np.array_equal(_sturm_counts(op, energies.reshape(20, 10)), expected.reshape(20, 10))
    assert _sturm_counts(op, energies[7:8].reshape(())) == expected[7]


def test_ids_mc_counts_a_ring_above_the_dense_cap():
    # the Sturm route has no DENSE_CAP: its work is O(n m) and its memory O(m)
    from scipy.linalg import eigvals_banded

    spec = LatticeBoxSpec(1, DENSE_CAP + 1)
    energies = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    op = build_operator(spec, draw_sample(K1, spec.n_sites, 0, 0))
    values = eigvals_banded(_band_form(op), lower=True)
    expected = np.searchsorted(values, energies, side="right") / spec.n_sites
    assert np.array_equal(ids_mc(spec, K1, energies, 1, 0).mean, expected)


def test_chebyshev_identity_at_zero():
    v = np.array([0.3 + 0.1j, -0.2j, 0.5])
    op = random_sparse_symmetric(3, 1)
    out = chebyshev_evolve(op, v, 0.0)
    assert np.array_equal(out, v.astype(complex))


def test_chebyshev_swap_closed_form():
    out = chebyshev_evolve(SWAP, np.array([1.0, 0.0]), 1.0)
    assert out[0] == pytest.approx(math.cos(1.0), abs=1e-12)
    assert out[1] == pytest.approx(1j * math.sin(1.0), abs=1e-12)


def test_chebyshev_matches_eigendecomposition():
    op = random_sparse_symmetric(200, 7, density=0.05)
    eig = eig_sym(op)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    v /= np.linalg.norm(v)
    for t in (0.5, 3.0, 10.0, -4.0):
        direct = eig.vectors @ (np.exp(1j * t * eig.values) * (eig.vectors.T @ v))
        out = chebyshev_evolve(op, v, t)
        assert np.max(np.abs(out - direct)) < 1e-8


def test_chebyshev_unitary_norm():
    op = random_sparse_symmetric(300, 3)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(300) + 0j
    nrm = np.linalg.norm(v)
    for t in (1.0, 17.0, 50.0):
        out = chebyshev_evolve(op, v, t)
        assert abs(np.linalg.norm(out) - nrm) < 1e-9 * nrm


def test_chebyshev_enclosure_violation_raises():
    # the expansion is entire, so only a strong violation (eigenvalues far
    # outside [b-a, b+a] relative to the truncation length) diverges visibly
    op = SymmetricOperator(4, np.arange(4), np.arange(4),
                           np.array([50.0, -50.0, 1.0, -1.0]))
    v = np.full(4, 0.5, dtype=complex)
    with pytest.raises(EnclosureError):
        chebyshev_evolve(op, v, 4.0, bound=(1.0, 0.0))


def test_charfn_mc_t_zero_exact():
    spec = LatticeBoxSpec(1, 32)
    est = charfn_mc(spec, K1, EnergyGrid(0.0, 2.0, 0.5), 6, 0)
    assert est.mean[0] == 1.0 + 0.0j
    assert est.std_error[0] == 0.0


def test_charfn_mc_free_matches_ring_eigensum():
    spec = LatticeBoxSpec(1, 64)
    grid = EnergyGrid(0.0, 3.0, 0.5)
    est = charfn_mc(spec, None, grid, 1, 0)
    eig = eig_sym(build_lattice(spec, None))
    w = eig.vectors[0, :] ** 2
    for j, t in enumerate(grid.points):
        direct = np.sum(w * np.exp(1j * t * eig.values))
        assert est.mean[j] == pytest.approx(direct, abs=1e-9)


def test_charfn_mc_free_ring_close_to_infinite_lattice():
    # disorder off: the L=512 ring amplitude tracks J_0(2t) for t <= 6
    # (signal speed 2, so wrap-around is far away)
    spec = LatticeBoxSpec(1, 512)
    grid = EnergyGrid(0.0, 6.0, 0.25)
    est = charfn_mc(spec, None, grid, 1, 0)
    exact = jv(0, 2.0 * grid.points)
    assert np.max(np.abs(est.mean - exact)) <= 2e-2


def test_charfn_mc_worker_count_bit_identical(monkeypatch):
    spec = LatticeBoxSpec(1, 48)
    grid = EnergyGrid(0.0, 2.0, 0.25)
    monkeypatch.setenv("CAUCHYDOS_THREADS", "1")
    a = charfn_mc(spec, K1, grid, 8, 3)
    monkeypatch.setenv("CAUCHYDOS_THREADS", "3")
    b = charfn_mc(spec, K1, grid, 8, 3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std_error, b.std_error)


def test_charfn_mc_on_tree_matches_eig_route():
    spec = TreeSpec(2, 3)
    grid = EnergyGrid(0.0, 2.0, 0.5)
    est = charfn_mc(spec, None, grid, 1, 0, phi_site=0, psi_site=1)
    eig = eig_sym(build_tree(spec, None))
    w = eig.vectors[0, :] * eig.vectors[1, :]
    for j, t in enumerate(grid.points):
        direct = np.sum(w * np.exp(1j * t * eig.values))
        assert est.mean[j] == pytest.approx(direct, abs=1e-10)


def test_charfn_mc_se_scaling():
    spec = LatticeBoxSpec(1, 64)
    grid = EnergyGrid(2.0, 2.0, 1.0)  # single t
    se_n = charfn_mc(spec, K1, grid, 80, 0).std_error[0]
    se_2n = charfn_mc(spec, K1, grid, 160, 0).std_error[0]
    ratio = se_2n / se_n
    assert abs(ratio - 1.0 / math.sqrt(2.0)) < 0.2 * (1.0 / math.sqrt(2.0))


# criterion 3's ensemble; at seed 0 samples 243, 99 and 26 carry the largest
# Gershgorin radii (about 30,800, 19,200 and 12,400 against a median of about 300)
RING_512 = LatticeBoxSpec(1, 512)
CHARFN_TIMES = EnergyGrid(0.0, 6.0, 0.1).points


def _ring_512_operator(i):
    return build_operator(RING_512, draw_sample(K1, RING_512.n_sites, 0, i))


def _dense_amplitudes(op, phi, psi, times):
    eig = eig_sym(op)
    weights = eig.vectors[phi, :] * eig.vectors[psi, :]
    return np.exp(1j * np.outer(times, eig.values)) @ weights


def _chained_chebyshev_states(op, site, times):
    """exp(itH) e_site at every time, by Chebyshev steps chained along the grid."""
    v = np.zeros(op.n, dtype=complex)
    v[site] = 1.0
    out = [v]
    for dt in np.diff(times):
        v = chebyshev_evolve(op, v, float(dt))
        out.append(v)
    return np.array(out)


@pytest.mark.parametrize("sample", [243, 26])
def test_krylov_charfn_matches_dense_and_chebyshev_on_outlier_samples(sample):
    op = _ring_512_operator(sample)
    # exp(itH) is symmetric, so one Chebyshev chain from e_0 gives
    # <0, exp(itH) psi> = <psi, exp(itH) 0> for psi = 0 and psi = 1
    cheb = _chained_chebyshev_states(op, 0, CHARFN_TIMES)
    for psi in (0, 1):
        amp, _ = krylov_charfn(op, 0, psi, CHARFN_TIMES)
        assert np.max(np.abs(amp - _dense_amplitudes(op, 0, psi, CHARFN_TIMES))) < 1e-10
        assert np.max(np.abs(amp - cheb[:, psi])) < 1e-10


def test_krylov_charfn_steps_do_not_follow_the_largest_outlier():
    radius = {}
    steps = {}
    for i in list(range(40)) + [99, 243]:
        op = _ring_512_operator(i)
        lo, hi = op.gershgorin_interval()
        radius[i] = 0.5 * (hi - lo)
        steps[i] = krylov_charfn(op, 0, 0, CHARFN_TIMES)[1]
    others = [steps[i] for i in range(40) if i != 26]
    assert radius[243] > 50 * np.median([radius[i] for i in range(40)])
    for outlier in (243, 99, 26):
        assert min(others) <= steps[outlier] <= max(others)


@pytest.mark.parametrize("side", [1, 2, 3])
def test_krylov_charfn_tiny_boxes_break_down_exactly(side):
    spec = LatticeBoxSpec(1, side)
    op = build_operator(spec, draw_sample(K1, side, 0, 0))
    times = EnergyGrid(-2.0, 2.0, 0.5).points
    for phi in range(side):
        for psi in range(side):
            amp, steps = krylov_charfn(op, phi, psi, times)
            assert steps <= side
            assert np.max(np.abs(amp - _dense_amplitudes(op, phi, psi, times))) < 1e-12


def test_krylov_charfn_invariant_start_vector_stops_after_one_step():
    # no hopping: e_0 is an eigenvector, so beta_1 == 0 exactly
    op = SymmetricOperator(3, np.arange(3), np.arange(3), np.array([0.7, -1.3, 2.0]))
    times = EnergyGrid(0.0, 3.0, 0.5).points
    amp, steps = krylov_charfn(op, 0, 0, times)
    assert steps == 1
    assert np.max(np.abs(amp - np.exp(0.7j * times))) < 1e-15
    amp, steps = krylov_charfn(op, 1, 0, times)
    assert steps == 1 and np.all(amp == 0.0)


def test_krylov_charfn_t_zero_is_exact_inner_product():
    op = _ring_512_operator(243)
    times = EnergyGrid(-1.0, 1.0, 0.25).points
    assert np.count_nonzero(times == 0.0) == 1
    diag, _ = krylov_charfn(op, 0, 0, times)
    off, _ = krylov_charfn(op, 0, 1, times)
    assert diag[times == 0.0][0] == 1.0 + 0.0j
    assert off[times == 0.0][0] == 0.0


def _site_stieltjes(eig, energies, eta):
    """(1/pi) Im sum_k v_0k^2 / (theta_k - E - i eta), the site-0 resolvent."""
    z = energies[:, None] + 1j * eta
    return np.sum(eig.vectors[0] ** 2 / (eig.values - z), axis=1).imag / np.pi


def test_dos_mc_site_route_equals_explicit_smear():
    spec = LatticeBoxSpec(1, 24)
    grid = EnergyGrid(-3.0, 3.0, 0.5)
    eta = 0.4
    est = dos_mc(spec, K1, grid, 1, 5, eta, estimator="site")
    sample = draw_sample(K1, 24, 5, 0)
    eig = eig_sym(build_lattice(spec, sample))
    assert np.max(np.abs(est.mean - _site_stieltjes(eig, grid.points, eta))) < 1e-13


def test_dos_mc_trace_and_site_agree_statistically():
    spec = LatticeBoxSpec(1, 64)
    grid = EnergyGrid(-2.0, 2.0, 0.5)
    eta = 0.5
    tr = dos_mc(spec, K1, grid, 200, 1, eta, estimator="trace")
    si = dos_mc(spec, K1, grid, 200, 1, eta, estimator="site")
    z = np.abs(tr.mean - si.mean) / np.sqrt(tr.std_error**2 + si.std_error**2)
    assert np.max(z) < 5.0


def test_dos_mc_mean_mass_bounded_by_one():
    spec = LatticeBoxSpec(1, 64)
    grid = EnergyGrid(-30.0, 30.0, 0.05)
    est = dos_mc(spec, K1, grid, 10, 2, 0.3)
    mass = (0.5 * (est.mean[0] + est.mean[-1]) + est.mean[1:-1].sum()) * grid.step
    assert mass <= 1.0 + 1e-9


def test_dos_mc_free_matches_exact_curve():
    spec = LatticeBoxSpec(1, 2000)
    grid = EnergyGrid(-4.0, 4.0, 0.25)
    est = dos_mc(spec, None, grid, 1, 0, 1.0)
    model = LatticeFreeModel(1)
    exact = np.array([lattice_dos_smoothed(model, K1, e) for e in grid.points])
    assert np.max(np.abs(est.mean - exact)) < 0.01


def test_dos_mc_validation():
    spec = LatticeBoxSpec(1, 16)
    grid = EnergyGrid(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        dos_mc(spec, K1, grid, 4, 0, 0.0)
    with pytest.raises(ValueError):
        dos_mc(spec, K1, grid, 0, 0, 0.1)
    with pytest.raises(ValueError):
        dos_mc(spec, K1, grid, 4, 0, 0.1, estimator="bogus")
    with pytest.raises(CapExceededError):
        dos_mc(LatticeBoxSpec(2, 70), K1, grid, 2, 0, 0.1)


def test_dos_mc_tree_recursion_equals_dense_route():
    # the pivot sweep against a dense eigendecomposition of the same samples:
    # all eigenvalues broadened (trace) and the root's resolvent (site)
    grid = EnergyGrid(-2.5, 2.5, 0.5)
    eta = 0.35
    smear = CauchyKernel(eta)
    for spec in (TreeSpec(2, 5), TreeSpec(3, 3)):
        trace_curves, site_curves = [], []
        for i in range(3):
            eig = eig_sym(build_tree(spec, draw_sample(K1, spec.n_vertices, 9, i)))
            poisson = cauchy_density(smear, grid.points[:, None] - eig.values[None, :])
            trace_curves.append(poisson.sum(axis=1) / eig.values.size)
            site_curves.append(_site_stieltjes(eig, grid.points, eta))
        trace = dos_mc(spec, K1, grid, 3, 9, eta, estimator="trace")
        assert np.max(np.abs(trace.mean - np.mean(trace_curves, axis=0))) < 1e-12
        site = dos_mc(spec, K1, grid, 3, 9, eta, estimator="site")
        assert np.max(np.abs(site.mean - np.mean(site_curves, axis=0))) < 1e-12
    # the dense cap does not apply to trees
    big = TreeSpec(2, 11)
    assert big.n_vertices > DENSE_CAP
    one = dos_mc(big, K1, EnergyGrid(0.0, 0.0, 1.0), 1, 9, eta)
    assert one.mean.shape == (1,) and 0.0 < one.mean[0] < np.inf


def test_tree_sweep_bound_admits_k2_up_to_depth_17():
    # deepest level times the 48-energy chunk: 3 * 2^16 * 48 = 9.4e6 <= MAX_GRID_POINTS
    _refuse_deep_tree(TreeSpec(2, 17))
    with pytest.raises(CapExceededError):
        _refuse_deep_tree(TreeSpec(2, 18))


def test_dos_mc_depth_zero_tree_is_pure_cauchy():
    # a single site has H = omega_0, so the broadened average is the Cauchy
    # density at the combined scale
    from cauchydos.measures import cauchy_density

    grid = EnergyGrid(-3.0, 3.0, 0.25)
    est = dos_mc(TreeSpec(2, 0), K1, grid, 400, 0, 0.1)
    exact = cauchy_density(CauchyKernel(1.1), grid.points)
    z = np.abs(est.mean - exact) / np.maximum(est.std_error, 1e-15)
    assert np.max(z) < 4.0


def test_tree_green_depth_zero_single_site():
    spec = TreeSpec(2, 0)
    z = np.array([0.2 + 0.3j])
    out = _tree_green_diagonals(spec, np.array([1.5]), z, "site")
    expected = (1.0 / (1.5 - z)).imag / np.pi
    assert out[0] == pytest.approx(expected[0], abs=1e-15)


def test_dos_mc_deterministic_across_runs_and_workers(monkeypatch):
    grid = EnergyGrid(-2.0, 2.0, 0.25)
    for spec in (LatticeBoxSpec(1, 48), TreeSpec(2, 6)):
        monkeypatch.setenv("CAUCHYDOS_THREADS", "1")
        a = dos_mc(spec, K1, grid, 12, 4, 0.3)
        monkeypatch.setenv("CAUCHYDOS_THREADS", "2")
        b = dos_mc(spec, K1, grid, 12, 4, 0.3)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std_error, b.std_error)


def test_ids_mc_refuses_a_tree_above_the_dense_cap_before_sampling(monkeypatch):
    # ids_mc counts a tree's eigenvalues with dense LAPACK, so DENSE_CAP bounds
    # it, not the pivot sweep's bound that dos_mc applies to trees
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the cap check")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    assert TreeSpec(2, 11).n_vertices > DENSE_CAP
    with pytest.raises(CapExceededError):
        ids_mc(TreeSpec(2, 11), K1, [0.0], 1, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("spec", [LatticeBoxSpec(1, 8), BumpFamily(5, 0.2), TreeSpec(2, 2)])
def test_ids_mc_refuses_a_non_finite_energy_before_sampling(monkeypatch, spec, bad):
    # the Sturm count and searchsorted would each give a NaN energy its own count
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the energies were checked")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    with pytest.raises(ValueError, match="finite"):
        ids_mc(spec, K1, [bad, 0.5], 1, 0)


def test_dos_mc_energy_blocks_do_not_move_the_curves(monkeypatch):
    # a cap of 2000 broadening entries splits 161 energies into blocks of
    # 6 (ring), 13 (d=2 box) and 8 (mesh) energies, the last one short
    grid = EnergyGrid(-4.0, 4.0, 0.05)
    specs = (LatticeBoxSpec(1, 300), LatticeBoxSpec(2, 12), BumpFamily(25, 0.1))
    whole = {(spec, est): dos_mc(spec, K1, grid, 3, 5, 0.2, estimator=est)
             for spec in specs for est in ("trace", "site")}
    monkeypatch.setattr("cauchydos.spectra.MAX_GRID_POINTS", 2000)
    for (spec, est), ref in whole.items():
        blocks = dos_mc(spec, K1, grid, 3, 5, 0.2, estimator=est)
        if est == "trace":
            assert np.array_equal(blocks.mean, ref.mean)
            assert np.array_equal(blocks.std_error, ref.std_error)
        else:
            # the site curve is a BLAS product, whose rounding may follow the block
            assert np.max(np.abs(blocks.mean - ref.mean)) <= 1e-14 * np.max(np.abs(ref.mean))


def test_ids_mc_free_single_sample_matches_direct_count():
    # past pi^2 the count exceeds one state per unit length
    bumps = BumpFamily(20, 0.1)
    pts = np.concatenate((np.arange(0.0, 4.0001, 0.5), [12.0, 16.0, 25.0]))
    est = ids_mc(bumps, None, pts, 1, 0)
    vals = eigvals_sym(build_operator(bumps, None))
    direct = np.count_nonzero(vals[:, None] <= pts, axis=0) / 20.0
    assert np.array_equal(est.mean, direct)
    assert est.std_error is None
    high = np.array([12.0, 16.0, 25.0])
    fine = ids_mc(BumpFamily(100, 0.05), None, high, 1, 0).mean
    assert np.max(np.abs(fine - np.sqrt(high) / np.pi)) <= 0.01


def test_mc_estimate_csv_single_sample_drops_se(tmp_path):
    est = McEstimate(np.array([0.0, 1.0]), np.array([1.0, 2.0]), None, 1)
    p = tmp_path / "est.csv"
    write_csv(p, est.columns())
    lines = p.read_text().splitlines()
    assert lines[0] == "x,mean,mean_im,n_samples"
    est2 = McEstimate(np.array([0.0]), np.array([1.0 + 2.0j]), np.array([0.1]), 3)
    p2 = tmp_path / "est2.csv"
    write_csv(p2, est2.columns())
    lines2 = p2.read_text().splitlines()
    assert lines2[0] == "x,mean,mean_im,std_error,n_samples"
    assert lines2[1] == "0,1,2,0.1,3"


def test_sample_failure_is_annotated():
    # draw_sample validates the seed inside the per-sample task
    spec = LatticeBoxSpec(1, 16)
    grid = EnergyGrid(-1.0, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"\[sample 0\]"):
        dos_mc(spec, K1, grid, 2, -3, 0.1)
    # a ring of DENSE_CAP + 1 sites is refused before any sample is drawn
    with pytest.raises(CapExceededError):
        dos_mc(LatticeBoxSpec(1, DENSE_CAP + 1), K1, grid, 2, 0, 0.1)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sample_stops_the_pool(monkeypatch, workers):
    # the samples queued behind a failure are cancelled, not drawn
    calls = []

    def failing_first(kernel, n_sites, master_seed, i):
        calls.append(i)
        if i == 0:
            raise ValueError("drawn to fail")
        time.sleep(0.05)
        return draw_sample(kernel, n_sites, master_seed, i)

    monkeypatch.setenv("CAUCHYDOS_THREADS", str(workers))
    monkeypatch.setattr("cauchydos.spectra.draw_sample", failing_first)
    with pytest.raises(ValueError, match=r"\[sample 0\] drawn to fail"):
        dos_mc(LatticeBoxSpec(1, 16), K1, EnergyGrid(-1.0, 1.0, 0.5), 40, 0, 0.1)
    assert len(calls) <= workers + 1


def test_solver_error_digest_is_the_same_in_every_process():
    # str hashes are salted per process; the digest must not be
    script = textwrap.dedent("""
        import numpy as np
        from cauchydos import spectra
        from cauchydos.ensemble import LatticeBoxSpec, build_lattice, draw_sample
        from cauchydos.errors import SolverError
        from cauchydos.measures import CauchyKernel

        import scipy.linalg

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        np.linalg.eigh = np.linalg.eigvalsh = scipy.linalg.eigvals_banded = fail
        for spec in (LatticeBoxSpec(2, 4), LatticeBoxSpec(1, 16)):
            op = build_lattice(spec, draw_sample(CauchyKernel(1.0), spec.n_sites, 3, 0))
            for solve in (spectra.eig_sym, spectra.eigvals_sym):
                try:
                    solve(op)
                except SolverError as exc:
                    print(exc)
    """)
    outputs = []
    for hash_seed in ("1", "2"):
        env = child_env()
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("eigensolver failed to converge") == 4
    assert outputs[0] == outputs[1]
