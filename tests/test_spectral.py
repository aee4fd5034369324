import numpy as np
import pytest
import scipy.linalg as sla

from holisde.grid import ElementField, build_grid, inner_product, seminorm
from holisde.spectral import (assemble_operator, condense, eig_gamma, eig_gamma0,
                              expand_ground_mode)


def analytic_level_tuples(eig0, level):
    """All eigenfield tuples of one decoupled level, shape (M*m_k, M, 2, n+1)."""
    idx = np.nonzero(eig0.levels == level)[0]
    grid = eig0.grid
    out = np.zeros((grid.M * idx.size, grid.M, 2, grid.subgrid_n + 1))
    row = 0
    for j in range(grid.M):
        for l in idx:
            out[row, j] = eig0.local_shapes[l]
            row += 1
    return out


def principal_angles(fields_a, fields_b, grid):
    """Principal angles between two H-orthonormal eigenfield families.

    Only subspaces are comparable across coupling strengths: degenerate
    clusters mix their members arbitrarily, so convergence statements are
    made on spans, never on individual eigenvector labels.
    """
    gram = np.einsum("amhi,ij,bmhj->ab", fields_a, grid.mass_block, fields_b)
    return np.arccos(np.clip(sla.svdvals(gram), -1.0, 1.0))


def test_assemble_rejects_bad_gamma(grid8):
    with pytest.raises(ValueError):
        assemble_operator(grid8, -0.1)
    with pytest.raises(ValueError):
        assemble_operator(grid8, 1.2)


@pytest.mark.parametrize("gamma", [0.0, 0.6, 1.0])
def test_condense_refuses_coupled_or_unequal_interiors(grid8, gamma):
    op = assemble_operator(grid8, gamma)
    A = (op.M_red + 1e-3 * op.K_red).tolil()
    perm, inv, *_ = condense(A, op.Z, grid8.M)
    m = inv.shape[0]
    assert sorted(perm) == list(range(op.n_reduced)) and len(perm) == grid8.M * (m + 1)
    for i, j in ((perm[0], perm[m]), (perm[m - 1], perm[3 * m])):    # elements 0-1 and 0-3
        bad = A.copy()
        bad[i, j] = bad[j, i] = 1e-3
        with pytest.raises(ValueError, match="couples two elements"):
            condense(bad, op.Z, grid8.M)
    bad = A.copy()
    bad[perm[2 * m], perm[2 * m]] *= 1.0 + 1e-12   # element 2's block alone
    with pytest.raises(ValueError, match="blocks differ"):
        condense(bad, op.Z, grid8.M)


def test_gamma0_constraints_are_insulating(grid8, rng):
    op = assemble_operator(grid8, 0.0)
    u = op.field_from_reduced(rng.standard_normal(op.n_reduced))
    vals = u.values
    centres = vals[:, 0, -1]
    assert np.allclose(vals[:, 0, 0], centres, atol=1e-12)   # u_j(X_{j-1}) = u_j(X_j)
    assert np.allclose(vals[:, 1, -1], centres, atol=1e-12)  # u_j(X_{j+1}) = u_j(X_j)
    assert np.allclose(vals[:, 1, 0], centres, atol=1e-12)   # centre continuity


def test_gamma1_constraints_are_interelement_continuity(grid8, rng):
    op = assemble_operator(grid8, 1.0)
    u = op.field_from_reduced(rng.standard_normal(op.n_reduced))
    vals = u.values
    centres = vals[:, 0, -1]
    assert np.allclose(vals[:, 1, -1], np.roll(centres, -1), atol=1e-12)
    assert np.allclose(vals[:, 0, 0], np.roll(centres, 1), atol=1e-12)


def test_mixed_gamma_value_condition(grid8, rng):
    g = 0.37
    op = assemble_operator(grid8, g)
    u = op.field_from_reduced(rng.standard_normal(op.n_reduced))
    vals = u.values
    centres = vals[:, 0, -1]
    rhs = (1.0 - g) * centres + g * np.roll(centres, -1)
    assert np.allclose(vals[:, 1, -1], rhs, atol=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.5, 1.0])
def test_self_adjointness_random_fields(grid8, gamma, rng):
    op = assemble_operator(grid8, gamma)
    for _ in range(10):
        u = op.field_from_reduced(rng.standard_normal(op.n_reduced))
        v = op.field_from_reduced(rng.standard_normal(op.n_reduced))
        lu, lv = op.apply(u), op.apply(v)
        lhs = inner_product(lu, v)
        rhs = inner_product(u, lv)
        nu = seminorm(u, 0)
        nv = seminorm(v, 0)
        assert abs(lhs - rhs) <= 1e-8 * nu * nv


@pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
def test_energy_identity(grid8, gamma, rng):
    op = assemble_operator(grid8, gamma)
    for _ in range(10):
        u = op.field_from_reduced(rng.standard_normal(op.n_reduced))
        energy = -inner_product(op.apply(u), u)
        assert energy == pytest.approx(seminorm(u, 1) ** 2, rel=1e-9)
        assert energy >= 0.0


def test_analytic_spectrum_unit_spacing(grid_h1):
    eig0 = eig_gamma0(grid_h1, 4)
    pi2 = np.pi**2
    levels = {}
    for lam, lev in zip(eig0.eigenvalues, eig0.levels):
        levels.setdefault(int(lev), []).append(lam)
    assert levels[0] == [0.0]
    assert np.allclose(levels[1], [pi2])
    assert np.allclose(levels[2], [4 * pi2] * 3)
    assert np.allclose(levels[3], [9 * pi2])
    assert np.allclose(levels[4], [16 * pi2] * 3)
    assert [len(levels[k]) for k in range(5)] == [1, 1, 3, 1, 3]


def test_analytic_ground_mode_value():
    g = build_grid(2.0, 4, 16)  # h = 0.5
    eig0 = eig_gamma0(g, 1)
    assert np.allclose(eig0.local_shapes[0], 1.0, rtol=1e-12)


def test_analytic_modes_orthonormal(grid8):
    eig0 = eig_gamma0(grid8, 6)
    mb = grid8.mass_block
    G = np.einsum("lhi,ij,khj->lk", eig0.local_shapes, mb, eig0.local_shapes)
    assert np.allclose(G, np.eye(eig0.n_modes), atol=5e-6)


def test_numeric_matches_analytic_at_gamma0(grid_h1):
    # full-system multiplicities are M copies of the per-element pattern
    M = grid_h1.M
    eig = eig_gamma(assemble_operator(grid_h1, 0.0), 9 * M)
    pi2 = np.pi**2
    expected = np.concatenate(
        [np.zeros(M), np.full(M, pi2), np.full(3 * M, 4 * pi2),
         np.full(M, 9 * pi2), np.full(3 * M, 16 * pi2)]
    )
    rel = np.abs(eig.eigenvalues - expected) / np.maximum(expected, 1.0)
    assert np.max(rel) < 1e-3  # n = 32 here; the acceptance run pins n = 128


def test_eigenfields_orthonormal_and_small_residual(grid8):
    eig = eig_gamma(assemble_operator(grid8, 0.4), 12)
    mb = grid8.mass_block
    G = np.einsum("amhi,ij,bmhj->ab", eig.fields, mb, eig.fields)
    assert np.allclose(G, np.eye(12), atol=1e-10)
    scale = max(eig.eigenvalues.max(), 1.0)
    assert np.max(eig.residuals) <= 1e-10 * scale


def test_eigenvalue_continuity_towards_decoupled(grid8):
    # every level approaches its decoupled value monotonically as gamma -> 0;
    # comparing against the numeric gamma = 0 solve isolates the coupling
    # effect from the (shared) discretization error
    k_check = [1, grid8.M - 1, grid8.M, grid8.M + 1]
    ref = eig_gamma(assemble_operator(grid8, 0.0), grid8.M + 2).eigenvalues
    gaps = []
    for g in (0.2, 0.1, 0.05, 0.025):
        eig = eig_gamma(assemble_operator(grid8, g), grid8.M + 2)
        gaps.append(sum(abs(eig.eigenvalues[k] - ref[k]) for k in k_check))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * gaps[0]


def test_ground_eigenvalue_quadratic_in_gamma(grid8):
    gammas = np.array([0.02, 0.01, 0.005])
    tops = []
    for g in gammas:
        eig = eig_gamma(assemble_operator(grid8, g), grid8.M)
        tops.append(eig.eigenvalues[grid8.M - 1])
    slope = np.polyfit(np.log(gammas), np.log(tops), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_slow_band_matches_discrete_laplacian(grid8):
    # leading order of the slow band: gamma^2 times the grid-Laplacian spectrum
    g = 0.01
    eig = eig_gamma(assemble_operator(grid8, g), grid8.M)
    pred = np.sort(g**2 * 4.0 / grid8.h**2 * np.sin(np.pi * np.arange(grid8.M) / grid8.M) ** 2)
    assert np.allclose(eig.eigenvalues[: grid8.M], pred, rtol=0.05, atol=1e-12)


def test_uniform_field_in_kernel_at_full_coupling(grid8):
    op = assemble_operator(grid8, 1.0)
    c = ElementField(np.ones((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    lc = op.apply(c)
    assert seminorm(lc, 0) < 1e-10
    eig = eig_gamma(op, 2)
    assert abs(eig.eigenvalues[0]) < 1e-10


def test_kernel_is_simple_for_positive_coupling(grid8):
    eig = eig_gamma(assemble_operator(grid8, 0.05), grid8.M + 1)
    assert eig.multiplicity(0) == 1
    assert eig.eigenvalues[0] == 0.0
    assert eig.eigenvalues[1] > 0.0


def test_subspace_convergence_principal_angles(grid8):
    # level-1 eigenspace approaches the decoupled one as coupling vanishes
    eig0 = eig_gamma0(grid8, 2)
    tuples = analytic_level_tuples(eig0, 1)          # (M, M, 2, n+1)
    M = grid8.M
    worst = []
    for g in (0.2, 0.1, 0.05):
        eig = eig_gamma(assemble_operator(grid8, g), 2 * M)
        band = eig.fields[M : 2 * M]
        worst.append(np.max(principal_angles(band, tuples, grid8)))
    assert all(b < a for a, b in zip(worst, worst[1:]))
    assert worst[-1] < 0.05


def test_expansion_trivial_for_uniform_ground_mode(grid8):
    eig = eig_gamma(assemble_operator(grid8, 0.1), grid8.M + 1)
    exp = expand_ground_mode(eig, grid8, mode="ground")
    assert np.allclose(exp.F1, 0.0, atol=1e-9)
    assert np.allclose(exp.A, 0.0, atol=1e-9)
    assert exp.remainder_norm < 1e-8
    assert np.allclose(exp.centres, exp.centres[0], rtol=1e-10)


def test_expansion_f1_endpoint_value(grid8):
    eig = eig_gamma(assemble_operator(grid8, 0.1), grid8.M + 1)
    exp = expand_ground_mode(eig, grid8, mode="top-slow")
    # right-half endpoint of F1 carries the neighbour centre difference
    for j in range(grid8.M):
        diff = exp.centres[(j + 1) % grid8.M] - exp.centres[j]
        assert exp.F1[j, 1, -1] == pytest.approx(diff, rel=1e-12)
    # curvature is the second centre difference over 2 h^2
    d2 = np.roll(exp.centres, 1) - 2 * exp.centres + np.roll(exp.centres, -1)
    assert np.allclose(exp.A, d2 / (2 * grid8.h**2), rtol=1e-12)


def test_expansion_remainder_third_order(grid8):
    gammas = [0.2, 0.1, 0.05]
    rems = []
    for g in gammas:
        eig = eig_gamma(assemble_operator(grid8, g), grid8.M + 1)
        rems.append(expand_ground_mode(eig, grid8, mode="top-slow").remainder_norm)
    ratios = [rems[i] / gammas[i] ** 3 for i in range(3)]
    assert max(ratios) / min(ratios) < 2.0  # remainder/gamma^3 stays bounded
    slope = np.polyfit(np.log(gammas), np.log(rems), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.3)


def test_expansion_rejects_degenerate_mode(grid8):
    eig = eig_gamma(assemble_operator(grid8, 0.1), grid8.M + 1)
    with pytest.raises(ValueError, match="degenerate"):
        expand_ground_mode(eig, grid8, mode=1)  # paired slow eigenvalue


def test_expansion_rejects_fast_mode(grid8):
    eig = eig_gamma(assemble_operator(grid8, 0.1), grid8.M + 2)
    with pytest.raises(ValueError, match="slow band"):
        expand_ground_mode(eig, grid8, mode=grid8.M + 1)


def test_eig_rejects_bad_kmax(grid8):
    with pytest.raises(ValueError):
        eig_gamma(assemble_operator(grid8, 0.2), 0)
