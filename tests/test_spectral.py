import numpy as np
import pytest
import scipy.linalg as sla

from holisde import spectral
from holisde.grid import ElementField, build_grid, inner_product, seminorm
from holisde.spectral import (assemble_operator, eig_gamma, eig_gamma0,
                              expand_ground_mode)
from test_dynamics import galerkin, injection


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


def h_gram(fields_a, fields_b, grid):
    """H inner products of two eigenfield families, (a, b)."""
    return np.einsum("amhi,ij,bmhj->ab", fields_a, grid.mass_block, fields_b, optimize=True)


def largest_angle_sine(fields_a, fields_b, grid):
    """sin of the largest principal angle between the spans of two
    H-orthonormal families, from what of a is left after projecting onto b
    (an arccos of the Gram singular values resolves no angle below 1e-8)."""
    rest = fields_a - np.einsum("ba,bmhi->amhi", h_gram(fields_b, fields_a, grid), fields_b)
    return np.sqrt(max(np.linalg.eigvalsh(h_gram(rest, rest, grid))[-1], 0.0))


@pytest.mark.parametrize("gamma", [0.0, 0.005, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("M, subgrid_n", [(8, 16), (32, 16), (4, 32)])
def test_eig_gamma_matches_dense_generalized_eigh(M, subgrid_n, gamma):
    # oracle: the dense pair (K, M) = Z^T (I x B) Z from the value conditions,
    # solved by scipy as the shifted pair (M, K + M), 1 / (lambda + 1): eigh's
    # vectors of (K, M) itself err by ~eps lambda_max / gap, 6e-8 here at
    # gamma = 0.005; (32, 16) at gamma = 0.05, kmax = 2 is criterion 11's
    # case, whose slow band is 32-fold near-degenerate
    grid = build_grid(2.0 * np.pi, M, subgrid_n)
    op = assemble_operator(grid, gamma)
    Z = injection(grid, gamma)
    K, B = galerkin(grid, Z, grid.stiffness_block), galerkin(grid, Z, grid.mass_block)
    mu, V = sla.eigh(B, K + B, subset_by_index=[len(B) - 3 * M, len(B) - 1])
    lam_ref, V = 1.0 / mu[::-1] - 1.0, V[:, ::-1]
    # one inverse-iteration step per cluster, shifted just below it, then a
    # Rayleigh-Ritz on the cluster: the oracle's spans move by up to 3.8e-9 in
    # sine, and a second step moves them by 1e-11 more
    for a, b in spectral._cluster(lam_ref, grid):
        shift = lam_ref[a:b].mean() - 1e-6 * max(abs(lam_ref[a:b].mean()), 1.0)
        X = np.linalg.solve(K - shift * B, B @ V[:, a:b])
        V[:, a:b] = X @ sla.eigh(X.T @ K @ X, X.T @ B @ X)[1]
    ref = (Z @ V).T.reshape(3 * M, M, 2, subgrid_n + 1)
    ref /= np.sqrt(np.diagonal(h_gram(ref, ref, grid)))[:, None, None, None]
    for kmax in (1, 2, M, M + 2, 2 * M):
        eig = eig_gamma(op, kmax)
        scale = max(lam_ref[kmax - 1], 1.0)
        assert np.max(np.abs(eig.eigenvalues - lam_ref[:kmax])) <= 1e-10 * scale
        assert eig.clusters == spectral._cluster(lam_ref[:kmax], grid)
        assert np.max(np.abs(h_gram(eig.fields, eig.fields, grid) - np.eye(kmax))) <= 1e-10
        for a, b in spectral._cluster(lam_ref, grid):
            if b <= kmax:
                assert largest_angle_sine(eig.fields[a:b], ref[a:b], grid) <= 1e-8, (kmax, a, b)
    again = eig_gamma(op, kmax)
    for name in ("eigenvalues", "fields", "residuals"):
        assert np.array_equal(getattr(again, name), getattr(eig, name))


def test_eig_gamma_returns_every_pair_beyond_the_reduced_size():
    grid = build_grid(2.0 * np.pi, 3, 8)
    op = assemble_operator(grid, 0.3)
    Z = injection(grid, 0.3)
    lam_ref = sla.eigh(galerkin(grid, Z, grid.stiffness_block), galerkin(grid, Z, grid.mass_block),
                       eigvals_only=True)
    eig = eig_gamma(op, op.n_reduced + 5)
    assert eig.n_computed == op.n_reduced
    assert np.max(np.abs(eig.eigenvalues - lam_ref)) <= 1e-10 * lam_ref[-1]
    assert np.max(eig.residuals) <= 1e-10 * lam_ref[-1]
