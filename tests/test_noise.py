import numpy as np
import pytest

from holisde.dynamics import BatchJob, FullSpdeSolver, SpdeConfig, run_batches
from holisde.grid import build_grid
from holisde.models import DiscreteModel, build_drivers, simulate_models
from holisde.noise import (
    QWienerSpec,
    fourier_basis,
    project_to_element_modes,
    sample_global_path,
)
from holisde.spectral import assemble_operator, eig_gamma, eig_gamma0


def coupled_trace_bound(spec, eig, grid):
    """sum_l lambda_l * q_l over whole mode tuples, q_l = sum_k q_k <e_k, mode_l>^2.

    The tuple-level decomposition is orthonormal (unlike per-element
    restrictions of coupled tuples, which are overcomplete), so this is the
    quantity that stays bounded uniformly in the coupling strength at a
    fixed truncation.
    """
    basis = fourier_basis(grid.all_nodes(), spec.n_modes, grid.L)
    shapes = eig.element_mode_shapes(grid)
    w = np.einsum("kmhi,ij,lmhj->lk", basis, grid.mass_block, shapes)
    return float(np.sum(eig.eigenvalues * (w**2 @ spec.q)))


def einsum_projection_weights(spec, eig, grid, min_restriction_mass=1e-8):
    """Projection weights by two three-operand einsums, normalizing the shapes first."""
    mb = grid.mass_block
    basis = fourier_basis(grid.all_nodes(), spec.n_modes, grid.L)
    shapes = eig.element_mode_shapes(grid)
    norms2 = np.einsum("lmhi,ij,lmhj->lm", shapes, mb, shapes)
    mask = norms2.T > min_restriction_mass
    safe = np.where(norms2 > min_restriction_mass, norms2, 1.0)
    shapes = shapes / np.sqrt(safe)[:, :, None, None]
    weights = np.einsum("kmhi,ij,lmhj->mlk", basis, mb, shapes)
    return np.where(mask[:, :, None], weights, 0.0)


def predicted_driver_correlation(proj, j1, l1, j2, l2):
    """Correlation of two element-mode drivers implied by the weights."""
    w1, w2 = proj.weights[j1, l1, :], proj.weights[j2, l2, :]
    den = np.sqrt(proj.qh[j1, l1] * proj.qh[j2, l2])
    return float(np.sum(proj.q * w1 * w2)) / den if den > 0 else 0.0


def test_spec_validation():
    QWienerSpec.from_decay(17, 3.0)
    with pytest.raises(ValueError):
        QWienerSpec.from_decay(17, 1.0)
    with pytest.raises(ValueError):
        QWienerSpec(np.array([1.0, -0.1, 0.0]))
    # slowly decaying explicit tails are rejected, finite support is fine
    k = np.arange(32, dtype=float)
    with pytest.raises(ValueError):
        QWienerSpec((1.0 + k) ** -1.0)
    q = np.zeros(32)
    q[:4] = 1.0
    QWienerSpec(q)


def test_fourier_basis_orthonormal():
    L = 2.0 * np.pi
    x = L * np.arange(4096) / 4096
    B = fourier_basis(x, 9, L)
    G = (B @ B.T) * (L / x.size)
    assert np.allclose(G, np.eye(9), atol=1e-12)


def test_sample_path_deterministic(qspec):
    dt = 0.01
    p1 = sample_global_path(qspec, dt, 100, [99])
    p2 = sample_global_path(qspec, dt, 100, [99])
    assert p1.shape == (1, qspec.n_modes, 100)
    assert np.array_equal(p1, p2)
    p3 = sample_global_path(qspec, dt, 100, [100])
    assert not np.array_equal(p1, p3)
    # a row is its seed's draw whatever else is in the batch
    batch = sample_global_path(qspec, dt, 100, [100, 99])
    assert np.array_equal(batch, np.concatenate([p3, p1]))
    want = np.random.default_rng(99).standard_normal((qspec.n_modes, 100)) * np.sqrt(dt)
    assert np.array_equal(p1[0], want)


def test_sample_path_rejects_bad_times(qspec, grid8, proj8):
    # a path's shape is checked where it is stepped: 3-D, with the config's step count
    cfg = SpdeConfig(dt=0.25, T=1.0)
    solver = FullSpdeSolver(2.0 * np.pi, 64, qspec)
    for bad in (np.zeros((qspec.n_modes, 4)),      # one path without its member axis
                np.zeros((1, qspec.n_modes, 5)), np.zeros((1, qspec.n_modes, 3))):
        with pytest.raises(ValueError, match="path"):
            run_batches([BatchJob(solver, cfg, bad)])
    for n_steps in (3, 5):
        drivers = build_drivers(grid8, proj8, np.zeros((1, qspec.n_modes, n_steps)), [0], cfg.dt)
        with pytest.raises(ValueError, match="steps"):
            simulate_models([DiscreteModel("conventional_fd")], cfg, drivers)


def test_increment_variance_band(qspec):
    # 3-sigma chi^2 band around Var = dt for 1e5 increments
    dt = 0.01
    path = sample_global_path(qspec, dt, 100_000, [7])
    for k in (0, 3, 11):
        v = np.var(path[0, k], ddof=1)
        assert 0.0094 <= v <= 0.0106


def test_zero_spectrum_gives_zero_field():
    q = np.zeros(9)
    spec = QWienerSpec(q)
    path = sample_global_path(spec, 0.1, 10, [5])
    x = np.linspace(0.0, 1.0, 33)
    basis = fourier_basis(x, spec.n_modes, 1.0)
    incr = np.tensordot(np.sqrt(spec.q) * path[0, :, 0], basis, axes=(0, 0))
    assert np.all(incr == 0.0)


def test_projection_weights_against_dense_quadrature(grid8, qspec, eig0_8, proj8):
    # oracle: Simpson quadrature of the analytic integrand at 20x resolution
    from scipy.integrate import simpson

    j, l = 2, 0
    xj = grid8.grid_points[j]
    xs = np.linspace(xj - grid8.h, xj + grid8.h, 20 * grid8.subgrid_n + 1)
    mode = np.full_like(xs, grid8.centre_mode_value)
    for k in range(qspec.n_modes):
        ek = fourier_basis(xs, qspec.n_modes, grid8.L)[k]
        oracle = simpson(ek * mode, x=xs)
        # agreement limited by the subgrid quadrature itself (4th order, n = 16)
        assert proj8.weights[j, l, k] == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("gamma", [None, 0.5])
def test_projection_weights_match_einsum_oracle(grid8, qspec, eig0_8, gamma):
    eig = eig0_8 if gamma is None else eig_gamma(assemble_operator(grid8, gamma), 10)
    want = einsum_projection_weights(qspec, eig, grid8)
    got = project_to_element_modes(qspec, eig, grid8).weights
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_projection_single_global_mode(grid8, eig0_8):
    q = np.zeros(9)
    q[0] = 1.0
    spec = QWienerSpec(q)
    proj = project_to_element_modes(spec, eig0_8, grid8)
    # <sqrt(1/L), e_{j,0}> = 2h / sqrt(2 h L) = sqrt(2h/L)
    expected = np.sqrt(2.0 * grid8.h / grid8.L)
    assert np.allclose(proj.weights[:, 0, 0], expected, rtol=1e-12)
    assert np.allclose(proj.qh[:, 0], 2.0 * grid8.h / grid8.L, rtol=1e-12)


def test_qh_nonnegative_and_trace_bounded(proj8, qspec, eig0_8):
    assert np.all(proj8.qh >= 0.0)
    # trace bound at the truncation, uniform over coupling by construction:
    # max_j sum_l lambda_l q^h_{j,l} against sum_k k q_k
    trace_bound = np.max(np.sum(eig0_8.eigenvalues[None, :] * proj8.qh, axis=1))
    assert trace_bound < 50.0 * np.sum(np.arange(qspec.n_modes) * qspec.q)


def test_trace_bound_uniform_over_coupling(grid8, qspec):
    bounds = []
    for g in (0.1, 0.5, 1.0):
        eig = eig_gamma(assemble_operator(grid8, g), 30)
        bounds.append(coupled_trace_bound(qspec, eig, grid8))
    assert max(bounds) < 10.0  # one constant covers the whole sweep


def test_qh_slow_scales_linearly_in_h(qspec):
    ratios = []
    for M in (8, 16, 32, 64):
        g = build_grid(2.0 * np.pi, M, 16)
        eig0 = eig_gamma0(g, 1)
        proj = project_to_element_modes(qspec, eig0, g)
        ratios.append(proj.qh[0, 0] / g.h)
    diffs = np.abs(np.diff(ratios))
    assert diffs[-1] < diffs[0]
    assert abs(ratios[-1] - ratios[-2]) / ratios[-1] < 0.05


def test_gridvalue_driver_correlation_formula(grid8, qspec, proj8):
    # slow driver vs pointwise evaluation: correlation from the weights
    j = 1
    w = proj8.weights[j, 0, :]
    ex = fourier_basis(np.array([grid8.grid_points[j]]), qspec.n_modes, grid8.L)[:, 0]
    q = qspec.q
    corr = np.sum(q * w * ex) / np.sqrt(np.sum(q * w**2) * np.sum(q * ex**2))
    # Monte-Carlo confirmation on sampled increments
    path = sample_global_path(qspec, 5e-5, 20_000, [17])
    a = (np.sqrt(q) * w) @ path[0]
    b = (np.sqrt(q) * ex) @ path[0]
    mc = np.corrcoef(a, b)[0, 1]
    assert mc == pytest.approx(corr, abs=0.02)
    assert corr > 0.9  # already high at h = L/8


def test_neighbour_driver_correlation_matches_prediction(grid8, qspec, proj8):
    pred = predicted_driver_correlation(proj8, 2, 0, 3, 0)
    path = sample_global_path(qspec, 5e-5, 20_000, [23])
    d = (proj8.weights[:, 0, :] * np.sqrt(qspec.q)) @ path[0]
    mc = np.corrcoef(d[2], d[3])[0, 1]
    assert 0.0 < pred < 1.0
    assert mc == pytest.approx(pred, abs=0.02)


def test_fast_mass_fraction_shrinks_under_refinement(qspec):
    fracs = []
    for M, n in ((8, 16), (16, 16), (32, 16)):
        g = build_grid(2.0 * np.pi, M, n)
        eig0 = eig_gamma0(g, 6)
        proj = project_to_element_modes(qspec, eig0, g)
        fracs.append(float(np.max(proj.fast_mass_fraction())))
    assert fracs[2] < fracs[1] < fracs[0]
    assert fracs[2] < 0.02


def test_projection_rejects_grid_mismatch(qspec, eig0_8):
    other = build_grid(2.0 * np.pi, 8, 32)
    with pytest.raises(ValueError, match="grid"):
        project_to_element_modes(qspec, eig0_8, other)


def test_numeric_eig_projection_slow_mode_is_constant(grid8, qspec):
    # the coupled kernel field restricts to the constant on every element
    eig = eig_gamma(assemble_operator(grid8, 0.5), 10)
    proj = project_to_element_modes(qspec, eig, grid8)
    eig0 = eig_gamma0(grid8, 1)
    proj0 = project_to_element_modes(qspec, eig0, grid8)
    assert np.allclose(proj.qh[:, 0], proj0.qh[:, 0], rtol=1e-8)
