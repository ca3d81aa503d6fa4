import math

import numpy as np
import pytest

from cauchydos.ensemble import (
    BumpFamily,
    DisorderSample,
    LatticeBoxSpec,
    SymmetricOperator,
    TreeSpec,
    build_continuum,
    build_lattice,
    build_operator,
    build_tree,
    continuum_potential,
    draw_sample,
    site_count,
    tree_level_sizes,
)
from cauchydos.measures import CauchyKernel

K1 = CauchyKernel(1.0)


def test_draw_sample_is_reproducible():
    a = draw_sample(K1, 64, 7, 3)
    b = draw_sample(K1, 64, 7, 3)
    assert np.array_equal(a.omegas, b.omegas)
    c = draw_sample(K1, 64, 7, 4)
    assert not np.array_equal(a.omegas, c.omegas)
    d = draw_sample(K1, 64, 8, 3)
    assert not np.array_equal(a.omegas, d.omegas)


def test_draw_sample_prefix_stability():
    # the site index is the position in the counter stream, so a longer draw
    # extends the same vector
    short = draw_sample(K1, 16, 5, 2).omegas
    long = draw_sample(K1, 48, 5, 2).omegas
    assert np.array_equal(long[:16], short)


def test_draw_sample_scale_equivariance():
    # shared uniforms: scaling lam scales every coupling exactly
    a = draw_sample(CauchyKernel(1.0), 128, 3, 1).omegas
    b = draw_sample(CauchyKernel(2.0), 128, 3, 1).omegas
    assert np.allclose(b, 2.0 * a, rtol=0, atol=0)


def test_draw_sample_median_and_central_mass():
    omegas = draw_sample(K1, 100_000, 0, 0).omegas
    assert abs(np.median(omegas)) < 0.02
    frac = np.mean(np.abs(omegas) <= 1.0)
    assert abs(frac - 0.5) < 0.01


def test_draw_sample_disorder_off_and_validation():
    assert np.all(draw_sample(None, 10, 0, 0).omegas == 0.0)
    with pytest.raises(ValueError):
        draw_sample(K1, 0, 0, 0)
    with pytest.raises(ValueError):
        draw_sample(K1, 4, -1, 0)


def test_lattice_smallest_dirichlet_box():
    op = build_lattice(LatticeBoxSpec(1, 2, "dirichlet"), None)
    vals = np.linalg.eigvalsh(op.to_dense())
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_lattice_periodic_ring_spectrum():
    op = build_lattice(LatticeBoxSpec(1, 4, "periodic"), None)
    vals = np.sort(np.linalg.eigvalsh(op.to_dense()))
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_lattice_torus_degree():
    op = build_lattice(LatticeBoxSpec(2, 3, "periodic"), None)
    dense = op.to_dense()
    np.fill_diagonal(dense, 0.0)
    assert np.allclose(dense.sum(axis=1), 4.0)


def test_lattice_periodic_side_two_not_doubled():
    op = build_lattice(LatticeBoxSpec(1, 2, "periodic"), None)
    dense = op.to_dense()
    assert dense[0, 1] == 1.0


def test_lattice_sample_length_mismatch():
    with pytest.raises(ValueError):
        build_lattice(LatticeBoxSpec(1, 8, "periodic"), draw_sample(K1, 7, 0, 0))


def test_builders_are_symmetric_and_deterministic():
    spec = LatticeBoxSpec(2, 4, "periodic")
    s = draw_sample(K1, 16, 1, 0)
    a = build_lattice(spec, s).to_dense()
    b = build_lattice(spec, s).to_dense()
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.T)


def test_tree_depth_zero_and_star():
    op0 = build_tree(TreeSpec(2, 0), None)
    assert op0.n == 1
    assert np.all(op0.to_dense() == 0.0)
    star = build_tree(TreeSpec(2, 1), None)
    vals = np.sort(np.linalg.eigvalsh(star.to_dense()))
    assert np.allclose(vals, [-math.sqrt(3), 0.0, 0.0, math.sqrt(3)], atol=1e-12)


def test_tree_vertex_count_and_levels():
    spec = TreeSpec(2, 2)
    assert spec.n_vertices == 10
    assert tree_level_sizes(spec) == [1, 3, 6]
    assert TreeSpec(3, 3).n_vertices == 1 + 4 * (27 - 1) // 2


def test_tree_sample_length_mismatch():
    with pytest.raises(ValueError):
        build_tree(TreeSpec(2, 2), draw_sample(K1, 9, 0, 0))


def test_continuum_free_ground_state():
    op = build_continuum(BumpFamily(100, 0.05), None)
    vals = np.linalg.eigvalsh(op.to_dense())
    assert abs(vals[0]) < 1e-10


def test_continuum_free_counting_matches_square_root_law():
    box, h = 240, 0.05
    bumps = BumpFamily(box, h)
    vals = np.linalg.eigvalsh(build_continuum(bumps, None).to_dense())
    n_mesh = bumps.n_mesh
    modes = np.arange(-(n_mesh // 2) + 1, n_mesh // 2 + 1)
    dispersion = (2.0 - 2.0 * np.cos(2.0 * np.pi * modes / n_mesh)) / h**2
    for e in (0.5, 1.0, 2.0, 4.0):
        count = np.count_nonzero(vals <= e)
        # exact against the discrete-dispersion mode count
        assert count == np.count_nonzero(dispersion <= e)
        # and within 2% of the continuum square-root law per unit length
        assert count / box == pytest.approx(math.sqrt(e) / math.pi, rel=0.02)


def test_continuum_constant_coupling_is_exact_shift():
    bumps = BumpFamily(5, 0.1)
    base = np.linalg.eigvalsh(build_continuum(bumps, None).to_dense())
    c = 0.7319
    shifted_sample = DisorderSample(np.full(5, c))
    shifted = np.linalg.eigvalsh(build_continuum(bumps, shifted_sample).to_dense())
    assert np.max(np.abs(shifted - (base + c))) < 1e-11


def test_continuum_mesh_validation():
    with pytest.raises(ValueError):
        BumpFamily(10, 0.3)  # 1/h not an integer
    with pytest.raises(ValueError):
        BumpFamily(10, 0.5)  # mesh too coarse
    for h in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="positive"):
            BumpFamily(10, h)


def test_partition_of_unity_on_mesh():
    bumps = BumpFamily(7, 0.125)
    ones = DisorderSample(np.ones(7))
    v = continuum_potential(bumps, ones)
    assert np.max(np.abs(v - 1.0)) < 4e-16
    zero = continuum_potential(bumps, None)
    assert np.all(zero == 0.0)


def test_constant_shift_covariance_lattice_and_tree():
    c = -1.25
    for spec in (LatticeBoxSpec(1, 50, "periodic"), TreeSpec(2, 3)):
        n = site_count(spec)
        s = draw_sample(K1, n, 9, 1)
        shifted = DisorderSample(s.omegas + c)
        base_vals = np.linalg.eigvalsh(build_operator(spec, s).to_dense())
        new_vals = np.linalg.eigvalsh(build_operator(spec, shifted).to_dense())
        assert np.max(np.abs(new_vals - (base_vals + c))) < 1e-12 * max(
            1.0, np.max(np.abs(base_vals)))


def test_symmetric_operator_validation():
    with pytest.raises(ValueError):
        SymmetricOperator(3, [1], [0], [1.0])  # row > col
    with pytest.raises(ValueError):
        SymmetricOperator(2, [0], [5], [1.0])
    with pytest.raises(ValueError):
        SymmetricOperator(2, [0], [1], [float("inf")])


def test_gershgorin_encloses_spectrum():
    spec = LatticeBoxSpec(1, 40, "periodic")
    s = draw_sample(K1, 40, 2, 5)
    op = build_lattice(spec, s)
    lo, hi = op.gershgorin_interval()
    vals = np.linalg.eigvalsh(op.to_dense())
    assert lo <= vals[0] and vals[-1] <= hi


def test_dispatch_helpers():
    assert site_count(LatticeBoxSpec(2, 5)) == 25
    assert site_count(TreeSpec(2, 2)) == 10
    assert site_count(BumpFamily(30, 0.25)) == 30
    with pytest.raises(TypeError):
        site_count(object())
    with pytest.raises(TypeError):
        build_operator(object())
