import math
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

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
    tree_level_sizes,
)
from cauchydos.errors import CapExceededError, EnclosureError
from cauchydos.free_models import exact_smoothed, LatticeFreeModel
from cauchydos.measures import CauchyKernel, EnergyGrid, cauchy_density, write_csv
from cauchydos.spectra import (
    DENSE_CAP,
    McEstimate,
    _band_form,
    _chain_couplings,
    _chain_green_diagonals,
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
    values, _ = eig_sym(SWAP)
    assert np.allclose(values, [-1.0, 1.0], atol=1e-14)


def _path(omegas):
    """The open chain with hopping 1 and ``omegas`` on the diagonal."""
    n = omegas.size
    return SymmetricOperator(n, np.r_[np.arange(n - 1), np.arange(n)],
                             np.r_[np.arange(1, n), np.arange(n)], np.r_[np.ones(n - 1), omegas])


def test_eig_path_graph_closed_form():
    op = _path(np.zeros(5))
    expected = sorted(2.0 * math.cos(k * math.pi / 6.0) for k in range(1, 6))
    assert np.allclose(eig_sym(op)[0], expected, atol=1e-12)


def test_eig_diagonal_matrix_is_sorted_couplings():
    omegas = draw_sample(K1, 12, 4, 0).omegas
    op = SymmetricOperator(12, np.arange(12), np.arange(12), omegas)
    assert np.allclose(eig_sym(op)[0], np.sort(omegas), atol=0)


def test_eig_invariants_random_instances():
    for seed in range(5):
        n = 40 + 17 * seed
        op = random_sparse_symmetric(n, seed)
        dense = op.to_dense()
        values, vectors = eig_sym(op)
        scale = max(np.max(np.abs(dense)), 1e-30)
        residual = np.max(np.abs(dense @ vectors - vectors * values))
        assert residual <= 1e-10 * n * scale
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_eig_periodic_box_spectrum_enumeration():
    # d=1 and d=2 free periodic boxes against the plane-wave closed form
    op1 = build_lattice(LatticeBoxSpec(1, 16), None)
    expect1 = np.sort([2.0 * math.cos(2.0 * math.pi * k / 16) for k in range(16)])
    assert np.max(np.abs(eig_sym(op1)[0] - expect1)) < 1e-9
    op2 = build_lattice(LatticeBoxSpec(2, 6), None)
    expect2 = np.sort([
        2.0 * math.cos(2.0 * math.pi * k / 6) + 2.0 * math.cos(2.0 * math.pi * j / 6)
        for k in range(6) for j in range(6)
    ])
    assert np.max(np.abs(eig_sym(op2)[0] - expect2)) < 1e-9


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
    _, vectors = eig_sym(op)
    weights = vectors[7] * vectors[7]
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(weights >= -1e-12)
    # any unit pair: total weight bounded by 1 (orthonormal columns)
    for psi in (7, 8, 31):
        assert abs(np.sum(vectors[7] * vectors[psi])) <= 1.0 + 1e-10


def test_local_measure_swap_matrix():
    _, vectors = eig_sym(SWAP)
    diag = vectors[0] * vectors[0]
    assert np.allclose(diag, [0.5, 0.5], atol=1e-14)
    off = vectors[0] * vectors[1]
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
    counts = _sturm_counts([_chain_couplings(build_lattice(LatticeBoxSpec(1, side)))], probes)[0]
    assert np.array_equal(counts, np.searchsorted(spectrum, probes, side="right"))


def test_sturm_counts_count_every_exact_eigenvalue_of_a_free_ring():
    # the 24 eigenvalues in {-2, -1, 0, 1, 2} of the free rings of sides 3-12;
    # at E=-2 on an even side det(H - E) = 0, but the LU's last pivot comes
    # out at a few 1e-16 above zero
    ties_seen = 0
    for side in range(3, 13):
        spectrum = np.round(_free_ring_spectrum(side), 12)
        ties = np.intersect1d(spectrum, [-2.0, -1.0, 0.0, 1.0, 2.0])
        expected = np.searchsorted(spectrum, ties, side="right")
        spec = LatticeBoxSpec(1, side)
        assert np.array_equal(_sturm_counts([_chain_couplings(build_lattice(spec))], ties)[0],
                              expected), side
        assert np.array_equal(ids_mc(spec, None, ties, 1, 0).mean, expected / side), side
        ties_seen += ties.size
    assert ties_seen == 24


@pytest.mark.parametrize("spec, scale", [
    *[(LatticeBoxSpec(1, side), 1.0) for side in (1, 2, 3, 4, 7, 50)],
    *[(LatticeBoxSpec(1, side), 1e8) for side in (1, 2, 3, 7, 50)],
    (BumpFamily(25, 0.1), 1.0), (BumpFamily(25, 0.1), 1e8),
], ids=repr)
def test_sturm_counts_match_the_band_eigenvalue_count(spec, scale):
    # 200 Cauchy-spread energies at the disorder's scale, about the centre of
    # the clean spectrum (0 on a ring, 2/h^2 on a mesh); a block of 5 samples
    # counts each as it is counted alone
    kernel = CauchyKernel(scale)
    ops = [build_operator(spec, draw_sample(kernel, site_count(spec), 11, i)) for i in range(5)]
    centre = 2.0 / spec.h ** 2 if isinstance(spec, BumpFamily) else 0.0
    energies = centre + scale * np.tan(np.pi * (np.arange(200) + 0.5) / 200 - np.pi / 2)
    block = _sturm_counts([_chain_couplings(op) for op in ops], energies)
    assert block.shape == (5, 200)
    for op, counts in zip(ops, block):
        expected = np.searchsorted(eigvals_sym(op), energies, side="right")
        assert np.array_equal(_sturm_counts([_chain_couplings(op)], energies)[0], expected)
        assert np.array_equal(counts, expected)


def test_ids_mc_counts_a_ring_above_the_dense_cap():
    # the Sturm route has no DENSE_CAP: its work is O(n m) per sample
    from scipy.linalg import eigvals_banded

    spec = LatticeBoxSpec(1, DENSE_CAP + 1)
    energies = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    op = build_operator(spec, draw_sample(K1, spec.n_sites, 0, 0))
    values = eigvals_banded(_band_form(op), lower=True)
    expected = np.searchsorted(values, energies, side="right") / spec.n_sites
    assert np.array_equal(ids_mc(spec, K1, energies, 1, 0).mean, expected)


@pytest.mark.parametrize("spec, band", [
    (LatticeBoxSpec(2, 6), True), (LatticeBoxSpec(3, 4), False), (TreeSpec(2, 4), False),
], ids=repr)
def test_ids_mc_counts_eigvals_sym_on_trees_and_boxes_above_d1(spec, band):
    # the searchsorted route: a d=2 box takes the band solve, a d=3 box and a tree dense
    energies = np.array([-4.0, -1.5, -1e-3, 0.0, 0.7, 2.5, 9.0])
    n = site_count(spec)
    curves = []
    for i in range(3):
        op = build_operator(spec, draw_sample(K1, n, 4, i))
        assert (_band_form(op) is not None) == band
        curves.append(np.searchsorted(eigvals_sym(op), energies, side="right") / n)
    assert np.array_equal(ids_mc(spec, K1, energies, 3, 4).mean, np.array(curves).mean(axis=0))


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
    values, vectors = eig_sym(op)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    v /= np.linalg.norm(v)
    for t in (0.5, 3.0, 10.0, -4.0):
        direct = vectors @ (np.exp(1j * t * values) * (vectors.T @ v))
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
    values, vectors = eig_sym(build_lattice(spec, None))
    w = vectors[0, :] ** 2
    for j, t in enumerate(grid.points):
        direct = np.sum(w * np.exp(1j * t * values))
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
    values, vectors = eig_sym(build_tree(spec, None))
    w = vectors[0, :] * vectors[1, :]
    for j, t in enumerate(grid.points):
        direct = np.sum(w * np.exp(1j * t * values))
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
    values, vectors = eig_sym(op)
    weights = vectors[phi, :] * vectors[psi, :]
    return np.exp(1j * np.outer(times, values)) @ weights


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


def test_krylov_charfn_refuses_to_grow_its_basis_past_the_bound(monkeypatch):
    # the free 512-ring needs more than one block of 64 vectors up to t = 40
    op = build_lattice(RING_512, None)
    times = EnergyGrid(0.0, 40.0, 5.0).points
    assert krylov_charfn(op, 0, 0, times)[1] > 64
    monkeypatch.setattr("cauchydos.spectra.MAX_GRID_POINTS", 64 * RING_512.n_sites)
    with pytest.raises(CapExceededError, match="Krylov basis of 128 vectors"):
        krylov_charfn(op, 0, 0, times)


def test_krylov_charfn_grows_its_basis_without_a_zero_block():
    # growing from 64 to 128 rows holds the old and the new basis, 1.5 times
    # the grown one (1.56 measured); a zero block joined on holds 64 rows more
    # (2.05 measured)
    times = EnergyGrid(0.0, 40.0, 0.5).points
    krylov_charfn(build_lattice(LatticeBoxSpec(1, 16)), 0, 0, times)  # imports and caches
    spec = LatticeBoxSpec(1, 20_000)
    op = build_lattice(spec)
    tracemalloc.start()
    try:
        steps = krylov_charfn(op, 0, 0, times)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 64 < steps <= 128
    assert peak <= 1.75 * 128 * spec.n_sites * 8


def test_krylov_charfn_t_zero_is_exact_inner_product():
    op = _ring_512_operator(243)
    times = EnergyGrid(-1.0, 1.0, 0.25).points
    assert np.count_nonzero(times == 0.0) == 1
    diag, _ = krylov_charfn(op, 0, 0, times)
    off, _ = krylov_charfn(op, 0, 1, times)
    assert diag[times == 0.0][0] == 1.0 + 0.0j
    assert off[times == 0.0][0] == 0.0


def _site_stieltjes(values, vectors, energies, eta):
    """(1/pi) Im sum_k v_0k^2 / (theta_k - E - i eta), the site-0 resolvent."""
    z = energies[:, None] + 1j * eta
    return np.sum(vectors[0] ** 2 / (values - z), axis=1).imag / np.pi


def test_dos_mc_site_route_equals_explicit_smear():
    spec = LatticeBoxSpec(1, 24)
    grid = EnergyGrid(-3.0, 3.0, 0.5)
    eta = 0.4
    est = dos_mc(spec, K1, grid, 1, 5, eta, estimator="site")
    sample = draw_sample(K1, 24, 5, 0)
    values, vectors = eig_sym(build_lattice(spec, sample))
    assert np.max(np.abs(est.mean - _site_stieltjes(values, vectors, grid.points, eta))) < 1e-13


def _eigen_curves(op, energies, eta, estimator):
    """The broadened eigenvalues of ``op`` (trace) or its site-0 resolvent (site)."""
    if estimator == "trace":
        values = eigvals_sym(op)
        return cauchy_density(CauchyKernel(eta), energies[:, None] - values).sum(axis=1) / op.n
    return _site_stieltjes(*eig_sym(op), energies, eta)


CHAIN_SPECS = ([LatticeBoxSpec(1, side) for side in (*range(1, 13), 50, 300)]
               + [BumpFamily(1, 0.25), BumpFamily(5, 0.25), BumpFamily(30, 0.1)])


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=repr)
def test_chain_sweep_matches_the_eigen_routes(spec, scale):
    # LAPACK's eigenvalues carry an absolute error near eps max|omega|, which
    # at scale 1e8 moves the far tails that make up these curves by up to
    # ~1e-10 of their size; the sweep's pivots keep their relative accuracy
    energies = np.linspace(-4.0, 4.0, 33)
    eta = 0.3
    ops = [build_operator(spec, draw_sample(CauchyKernel(scale), site_count(spec), 4, i))
           for i in range(3)]
    couplings = [_chain_couplings(op) for op in ops]
    tol = 1e-12 if scale == 1.0 else 1e-9
    for estimator in ("trace", "site"):
        curves = _chain_green_diagonals(couplings, energies + 1j * eta, estimator)
        ref = np.array([_eigen_curves(op, energies, eta, estimator) for op in ops])
        assert curves.shape == ref.shape
        assert np.max(np.abs(curves - ref)) <= tol * np.max(np.abs(ref)), estimator


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e-3])
@pytest.mark.parametrize("spec", [LatticeBoxSpec(1, side) for side in (1, 2, 3, 4, 7)]
                         + [BumpFamily(25, 0.1), BumpFamily(100, 0.05)], ids=repr)
def test_chain_trace_recurrence_matches_broadened_eigenvalues(spec, scale):
    # the fill's derivative from c'_k / c_k = -L_{k-1}: a 2-site box is a path
    # (no wrapping bond) and takes that rule at every site; a ring from 3
    # sites takes c'_{n-1} explicitly after the wrap. Dense LAPACK's eigenvalues
    # carry an absolute error near eps times the spectral radius: max|omega|
    # at scale 1e8, and 4/h^2 (1600 at h = 0.05) on the meshes
    energies = np.linspace(-4.0, 4.0, 33)
    eta = 0.3
    ops = [build_operator(spec, draw_sample(CauchyKernel(scale), site_count(spec), 6, i))
           for i in range(3)]
    couplings = [_chain_couplings(op) for op in ops]
    assert (couplings[0][2] is None) == (ops[0].n <= 2)
    curves = _chain_green_diagonals(couplings, energies + 1j * eta, "trace")
    smear = CauchyKernel(eta)
    ref = np.array([cauchy_density(smear, energies[:, None] - np.linalg.eigvalsh(op.to_dense()))
                    .mean(axis=1) for op in ops])
    tol = 1e-11 if isinstance(spec, BumpFamily) else 1e-12
    if scale == 1e8:
        tol = 1e-9
    assert np.max(np.abs(curves - ref)) <= tol * np.max(np.abs(ref))


def test_chain_sweep_blocks_equal_single_sample_sweeps():
    # every entry is computed alone, so neither the sample block nor the
    # energy block moves a bit of a curve
    grid = EnergyGrid(-4.0, 4.0, 0.05)
    z = grid.points + 0.2j
    for spec in (LatticeBoxSpec(1, 37), BumpFamily(9, 0.25)):
        couplings = [_chain_couplings(build_operator(spec, draw_sample(K1, site_count(spec), 5, i)))
                     for i in range(7)]
        for estimator in ("trace", "site"):
            block = _chain_green_diagonals(couplings, z, estimator)
            alone = [_chain_green_diagonals([c], z[j:j + 50], estimator)[0]
                     for c in couplings for j in range(0, z.size, 50)]
            assert np.array_equal(block.ravel(), np.concatenate(alone))
            est = dos_mc(spec, K1, grid, 7, 5, 0.2, estimator=estimator)
            assert np.array_equal(est.mean, block.mean(axis=0))


def test_dos_mc_chain_blocks_follow_the_coupling_bound(monkeypatch):
    # 25 samples of a 5000-site ring at 3 energies: at most 50,000 // 5000
    # = 10 samples of couplings per block, so 3 blocks of 8, 8 and 9; a block
    # holds about 32 bytes per site and sample (1.4 MiB peak measured), where
    # one block of all 25 samples' operators peaked at 9.6 MiB
    sizes = []

    def recorded(couplings, z, mode):
        sizes.append(len(couplings))
        return _chain_green_diagonals(couplings, z, mode)

    grid = EnergyGrid(-1.0, 1.0, 1.0)
    dos_mc(LatticeBoxSpec(1, 16), K1, grid, 2, 0, 0.1)  # imports and caches
    monkeypatch.setenv("CAUCHYDOS_THREADS", "1")
    monkeypatch.setattr("cauchydos.spectra.MAX_GRID_POINTS", 50_000)
    monkeypatch.setattr("cauchydos.spectra._chain_green_diagonals", recorded)
    tracemalloc.start()
    try:
        dos_mc(LatticeBoxSpec(1, 5000), K1, grid, 25, 0, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [8, 8, 9]
    assert peak <= 48 * 50_000
    # a ring whose one sample would hold more is refused before any sample is
    # drawn, by both estimators
    monkeypatch.setattr("cauchydos.spectra.draw_sample", None)
    with pytest.raises(CapExceededError, match="chain pivot sweep"):
        dos_mc(LatticeBoxSpec(1, 50_001), K1, grid, 25, 0, 0.1)
    with pytest.raises(CapExceededError, match="chain pivot sweep"):
        ids_mc(LatticeBoxSpec(1, 50_001), K1, [0.0], 25, 0)


@pytest.mark.parametrize("estimator", ["trace", "site"])
def test_dos_mc_chain_blocks_follow_the_worker_count(monkeypatch, estimator):
    # 40 samples at 5 energies fit one block of the sweep's bound; two workers
    # still get a block each, and 5 samples on four workers four blocks,
    # starting at samples 0, 1, 2 and 3; the curves keep their bytes
    sizes = []

    def recorded(couplings, z, mode):
        sizes.append(len(couplings))
        return _chain_green_diagonals(couplings, z, mode)

    monkeypatch.setattr("cauchydos.spectra._chain_green_diagonals", recorded)
    for n_samples, blocks in ((40, {1: [40], 2: [20, 20]}), (5, {1: [5], 4: [1, 1, 1, 2]})):
        curves = set()
        for workers, expected in blocks.items():
            monkeypatch.setenv("CAUCHYDOS_THREADS", str(workers))
            sizes.clear()
            est = dos_mc(LatticeBoxSpec(1, 64), K1, EnergyGrid(-1.0, 1.0, 0.5), n_samples, 3,
                         0.1, estimator=estimator)
            curves.add(est.mean.tobytes() + est.std_error.tobytes())
            assert sorted(sizes) == expected
        assert len(curves) == 1


def test_ids_mc_chain_blocks_do_not_move_the_counts(monkeypatch):
    # the same bytes on 1, 2 and 3 workers, and with a cap of 100 sweep
    # entries, which counts 161 energies one sample at a time in energy blocks
    # of 100 and 61
    grid = EnergyGrid(-4.0, 4.0, 0.05).points
    for spec in [*[LatticeBoxSpec(1, side) for side in (1, 2, 7, 300)], BumpFamily(25, 0.1)]:
        # a mesh's spectrum lies about [0, 4/h^2]
        energies = 2.0 / spec.h ** 2 + 50.0 * grid if isinstance(spec, BumpFamily) else grid
        outputs = set()
        for workers, entries in ((1, 8192), (2, 8192), (3, 8192), (2, 100)):
            monkeypatch.setenv("CAUCHYDOS_THREADS", str(workers))
            monkeypatch.setattr("cauchydos.spectra._SWEEP_ENTRIES", entries)
            est = ids_mc(spec, K1, energies, 7, 5)
            outputs.add(est.mean.tobytes() + est.std_error.tobytes())
        assert len(outputs) == 1, spec


def test_a_failing_block_stops_the_running_blocks(monkeypatch):
    # sample 0 fails while the second block is drawing its first sample;
    # that block draws no further sample
    calls = []
    second_started = threading.Event()

    def failing_first(kernel, n_sites, master_seed, i):
        calls.append(i)
        if i == 0:
            second_started.wait(timeout=10.0)
            raise ValueError("drawn to fail")
        if i == 20:
            second_started.set()
            time.sleep(0.05)
        return draw_sample(kernel, n_sites, master_seed, i)

    monkeypatch.setenv("CAUCHYDOS_THREADS", "2")
    monkeypatch.setattr("cauchydos.spectra.draw_sample", failing_first)
    with pytest.raises(ValueError, match=r"\[sample 0\] drawn to fail"):
        dos_mc(LatticeBoxSpec(1, 16), K1, EnergyGrid(-1.0, 1.0, 0.5), 40, 0, 0.1)
    assert sorted(calls) == [0, 20]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failure_inside_a_sweep_block_names_its_sample(monkeypatch, workers):
    def failing_fifth(kernel, n_sites, master_seed, i):
        if i == 5:
            raise ValueError("drawn to fail")
        return draw_sample(kernel, n_sites, master_seed, i)

    monkeypatch.setenv("CAUCHYDOS_THREADS", str(workers))
    monkeypatch.setattr("cauchydos.spectra.draw_sample", failing_fifth)
    # 12 samples of 5 energies are one block at one worker and two at two
    with pytest.raises(ValueError, match=r"\[sample 5\] drawn to fail"):
        dos_mc(LatticeBoxSpec(1, 16), K1, EnergyGrid(-1.0, 1.0, 0.5), 12, 0, 0.1)


def test_dos_mc_sweeps_a_ring_above_the_dense_cap():
    # the chain sweep has no DENSE_CAP: its work is O(n m) per sample
    spec = LatticeBoxSpec(1, DENSE_CAP + 1)
    grid = EnergyGrid(-1.0, 1.0, 1.0)
    for estimator in ("trace", "site"):
        est = dos_mc(spec, K1, grid, 2, 0, 0.1, estimator=estimator)
        assert np.all(np.isfinite(est.mean)) and np.all(est.mean > 0.0)


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
    exact = np.array([exact_smoothed(model, K1, e) for e in grid.points])
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
            values, vectors = eig_sym(build_tree(spec, draw_sample(K1, spec.n_vertices, 9, i)))
            poisson = cauchy_density(smear, grid.points[:, None] - values[None, :])
            trace_curves.append(poisson.sum(axis=1) / values.size)
            site_curves.append(_site_stieltjes(values, vectors, grid.points, eta))
        trace = dos_mc(spec, K1, grid, 3, 9, eta, estimator="trace")
        assert np.max(np.abs(trace.mean - np.mean(trace_curves, axis=0))) < 1e-12
        site = dos_mc(spec, K1, grid, 3, 9, eta, estimator="site")
        assert np.max(np.abs(site.mean - np.mean(site_curves, axis=0))) < 1e-12
    # the dense cap does not apply to trees
    big = TreeSpec(2, 11)
    assert big.n_vertices > DENSE_CAP
    one = dos_mc(big, K1, EnergyGrid(0.0, 0.0, 1.0), 1, 9, eta)
    assert one.mean.shape == (1,) and 0.0 < one.mean[0] < np.inf


def test_tree_sweep_bound_admits_k2_up_to_depth_21_and_k3_up_to_depth_14(monkeypatch):
    # the bound is one sample's couplings, a float per vertex: 1 + 3 (2^21 - 1) = 6.3e6
    # and 1 + 2 (3^14 - 1) = 9.6e6 vertices are within MAX_GRID_POINTS, one level
    # deeper is not; an admitted spec reaches the first draw, a refused one draws nothing
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted("admitted")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", admitted)
    grid = EnergyGrid(-1.0, 1.0, 0.5)
    for spec in (TreeSpec(2, 21), TreeSpec(3, 14)):
        with pytest.raises(Admitted):
            dos_mc(spec, K1, grid, 1, 0, 0.1)
    for spec in (TreeSpec(2, 22), TreeSpec(3, 15)):
        with pytest.raises(CapExceededError, match="tree pivot sweep"):
            dos_mc(spec, K1, grid, 1, 0, 0.1)


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


def _level_by_level_tree_sweep(spec, omegas, z, mode):
    """The tree pivot sweep one whole BFS level at a time, the reference for the grouped one."""
    trace = mode == "trace"
    end = omegas.size
    pivots = slopes = None
    total = 0.0
    for size in reversed(tree_level_sizes(spec)):
        d = omegas[end - size:end, None] - z
        end -= size
        s = None
        if pivots is not None:
            inv = np.divide(1.0, pivots, out=pivots).reshape(size, -1, z.size)
            d -= inv.sum(axis=1)
            if trace and slopes is None:
                total = -inv.sum(axis=(0, 1))
                s = -np.multiply(inv, inv, out=inv).sum(axis=1) - 1.0
            elif trace:
                w = np.multiply(slopes, pivots, out=slopes).reshape(size, -1, z.size)
                total = total + w.sum(axis=(0, 1))
                s = np.multiply(w, inv, out=w).sum(axis=1) - 1.0
        pivots, slopes = d, s
    g_root = 1.0 / pivots[0]
    if not trace:
        return g_root.imag / np.pi
    slope = -1.0 if slopes is None else slopes[0]
    return -(total + slope * g_root).imag / np.pi / omegas.size


@pytest.mark.parametrize("K,depth", [(K, depth) for K in (2, 3, 4) for depth in (0, 1, 2, 5, 6, 7)]
                         + [(2, 12)])
def test_grouped_tree_sweep_equals_the_level_by_level_sweep(monkeypatch, K, depth):
    # groups of at most 4 deepest vertices split these trees into many groups
    # at split levels depth - 2 (K=2) and depth - 1 (K=3, 4); the default
    # groups split the depth-12 tree in 3. Each level's trace terms are summed
    # row by row across the groups, as numpy sums a whole level, so no bit
    # moves; one energy, which numpy sums pairwise, takes one group
    spec = TreeSpec(K, depth)
    for group in (4, 2048):
        monkeypatch.setattr("cauchydos.spectra._TREE_GROUP", group)
        for scale in (1.0, 1e8):
            omegas = draw_sample(CauchyKernel(scale), spec.n_vertices, 11, depth).omegas
            for count in (48, 13, 1):
                z = np.linspace(-3.0, 3.0, count) + 0.1j
                for mode in ("trace", "site"):
                    grouped = _tree_green_diagonals(spec, omegas, z, mode)
                    whole = _level_by_level_tree_sweep(spec, omegas, z, mode)
                    assert grouped.tobytes() == whole.tobytes(), (group, scale, count, mode)


def test_grouped_tree_sweep_temporaries_do_not_follow_the_deepest_level():
    # one 48-energy chunk of a depth-14 tree: the level-by-level sweep peaked
    # at 40.8 MiB (its deepest level, 24,576 x 48 entries, twice); the
    # groups' buffers hold about 4.4 MiB at any depth
    spec = TreeSpec(2, 14)
    omegas = draw_sample(K1, spec.n_vertices, 0, 0).omegas
    z = np.linspace(-3.0, 3.0, 48) + 0.1j
    tracemalloc.start()
    try:
        _tree_green_diagonals(spec, omegas, z, "trace")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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


@pytest.mark.parametrize("energies", [[np.nan, 0.5], [np.inf, 0.5], [], [[0.0, 0.5]]],
                         ids=["nan", "inf", "empty", "2-d"])
@pytest.mark.parametrize("spec", [LatticeBoxSpec(1, 8), BumpFamily(5, 0.2), TreeSpec(2, 2)])
def test_ids_mc_refuses_a_non_finite_energy_before_sampling(monkeypatch, spec, energies):
    # the Sturm count and searchsorted would each give a NaN energy its own count;
    # no energy would divide by zero in the chain block cap, and a 2-d array
    # would fail to broadcast on chains but give a 2-d estimate on trees
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the energies were checked")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    with pytest.raises(ValueError, match="non-empty 1-d array of finite energies"):
        ids_mc(spec, K1, energies, 1, 0)


def test_dos_mc_energy_blocks_do_not_move_the_curves(monkeypatch):
    # a cap of 2000 broadening entries splits 161 energies into blocks of 13
    # for the d=2 box, the last one short; a cap of 100 sweep entries splits
    # the 3 samples of the ring and the mesh, one block at the default cap,
    # into single samples in energy blocks of 100 and 61, on two threads; the
    # LAPACK counts of ids_mc take the same blocks, of 13 energies for the d=2
    # box and of 21 for the 94-vertex tree
    grid = EnergyGrid(-4.0, 4.0, 0.05)
    specs = (LatticeBoxSpec(1, 300), LatticeBoxSpec(2, 12), BumpFamily(25, 0.1))
    counted = (LatticeBoxSpec(2, 12), TreeSpec(2, 5))
    monkeypatch.setenv("CAUCHYDOS_THREADS", "1")
    whole = {(spec, est): dos_mc(spec, K1, grid, 3, 5, 0.2, estimator=est)
             for spec in specs for est in ("trace", "site")}
    counts = {spec: ids_mc(spec, K1, grid.points, 3, 5) for spec in counted}
    monkeypatch.setattr("cauchydos.spectra.MAX_GRID_POINTS", 2000)
    monkeypatch.setattr("cauchydos.spectra._SWEEP_ENTRIES", 100)
    monkeypatch.setenv("CAUCHYDOS_THREADS", "2")
    for (spec, est), ref in whole.items():
        blocks = dos_mc(spec, K1, grid, 3, 5, 0.2, estimator=est)
        if est == "site" and spec == specs[1]:
            # the d=2 site curve is a BLAS product, whose rounding may follow the block
            assert np.max(np.abs(blocks.mean - ref.mean)) <= 1e-14 * np.max(np.abs(ref.mean))
        else:
            assert np.array_equal(blocks.mean, ref.mean)
            assert np.array_equal(blocks.std_error, ref.std_error)
    for spec, ref in counts.items():
        blocks = ids_mc(spec, K1, grid.points, 3, 5)
        assert np.array_equal(blocks.mean, ref.mean)
        assert np.array_equal(blocks.std_error, ref.std_error)


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
    # a d=3 box of 17^3 > DENSE_CAP sites is refused before any sample is drawn
    with pytest.raises(CapExceededError):
        dos_mc(LatticeBoxSpec(3, 17), K1, grid, 2, 0, 0.1)


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec, entries", [(LatticeBoxSpec(2, 4), 8192),
                                           (LatticeBoxSpec(1, 16), 1)], ids=["d2", "d1"])
def test_a_failing_sample_cancels_the_queued_tasks(monkeypatch, workers, spec, entries):
    # one task per sample: a d=2 box, and a chain sweep with one sample per block
    calls = []

    def failing_first(kernel, n_sites, master_seed, i):
        calls.append(i)
        if i == 0:
            raise ValueError("drawn to fail")
        time.sleep(0.05)
        return draw_sample(kernel, n_sites, master_seed, i)

    monkeypatch.setenv("CAUCHYDOS_THREADS", str(workers))
    monkeypatch.setattr("cauchydos.spectra._SWEEP_ENTRIES", entries)
    monkeypatch.setattr("cauchydos.spectra.draw_sample", failing_first)
    with pytest.raises(ValueError, match=r"\[sample 0\] drawn to fail"):
        dos_mc(spec, K1, EnergyGrid(-1.0, 1.0, 0.5), 40, 0, 0.1)
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
