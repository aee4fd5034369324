from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holisde import models
from holisde.averaging import AveragedCoeffs, averaged_coeffs, ou_stationary_stats
from holisde.dynamics import NumericalAbort, SpdeConfig, initial_profile
from holisde.grid import build_grid
from holisde.models import (
    DiscreteModel,
    ModelDrivers,
    build_drivers,
    reduced_slow_sde,
    simulate_models,
)
from holisde.noise import PathDraw, project_to_element_modes, sample_global_path
from holisde.spectral import assemble_operator, eig_gamma0


def _coeffs(proj8, eig0_8, alpha=1.0, sigma=0.5):
    return averaged_coeffs(proj8, eig0_8, alpha, sigma)


def _drivers(grid, qspec, proj, cfg, seed=0, dev_seed=1):
    """Driver tables of a batch of one, (M, n_steps, 1)."""
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, [seed])
    return build_drivers(grid, proj, path, [dev_seed], cfg.dt)


def _manual_drivers(grid, tables):
    zeros = np.zeros_like(tables["slow"])
    return ModelDrivers(
        grid=grid,
        slow=tables.get("slow", zeros),
        gridpoint=tables.get("gridpoint", zeros),
        deviation=tables.get("deviation", zeros),
    )


# ---------------------------------------------------------------------------
# conventional finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["conventional_fd", "holistic"])
@pytest.mark.parametrize("root", [1.0, -1.0, 0.0])
def test_fd_cubic_root_stationary(grid8, qspec, proj8, eig0_8, kind, root):
    # the sigma = 0 holistic model (hat_alpha = alpha, Q_j = 0) shares the fixed points
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=1e-3)
    drv = _drivers(grid8, qspec, proj8, cfg)
    model = DiscreteModel(kind, coeffs=_coeffs(proj8, eig0_8, sigma=0.0))
    U = np.full(grid8.M, root)
    out = simulate_models([model], cfg, drv, U)[-1, 0, :, 0]
    assert np.array_equal(out, U)


def test_fd_discrete_decay_symbol():
    # one noise-free step multiplies the lowest grid mode by 1 - dt * symbol,
    # and the symbol approaches the continuum rate quadratically in h
    errs = []
    for M in (8, 16, 32):
        g = build_grid(2.0 * np.pi, M, 8)
        cfg = SpdeConfig(alpha=0.0, sigma=0.0, dt=1e-4, T=1e-4)
        U0 = np.sin(2.0 * np.pi * g.grid_points / g.L)
        tables = {"slow": np.zeros((M, 1, 1)), "deviation": np.zeros((M, 1, 1)),
                  "gridpoint": np.zeros((M, 1, 1))}
        drv = _manual_drivers(g, tables)
        out = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U0)[-1, 0, :, 0]
        symbol = 4.0 * np.sin(np.pi * g.h / g.L) ** 2 / g.h**2
        expected = (1.0 - cfg.dt * symbol) * U0
        assert np.allclose(out, expected, atol=1e-14)
        errs.append(abs(symbol - (2.0 * np.pi / g.L) ** 2))
    assert errs[1] < errs[0] / 3.0 and errs[2] < errs[1] / 3.0


def test_fd_hand_computed_step_m4():
    g = build_grid(4.0, 4, 8)
    cfg = SpdeConfig(alpha=0.0, sigma=1.0, dt=0.01, T=0.01)
    U0 = np.array([0.5, -0.25, 0.0, 1.0])
    dW = np.array([0.02, -0.01, 0.03, 0.0])
    tables = {"gridpoint": dW[:, None, None], "slow": np.zeros((4, 1, 1)),
              "deviation": np.zeros((4, 1, 1))}
    drv = _manual_drivers(g, tables)
    out = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U0)[-1, 0, :, 0]
    lap = np.array([
        U0[3] - 2 * U0[0] + U0[1],
        U0[0] - 2 * U0[1] + U0[2],
        U0[1] - 2 * U0[2] + U0[3],
        U0[2] - 2 * U0[3] + U0[0],
    ]) / g.h**2
    expected = U0 + cfg.dt * lap + 1.0 * dW
    assert np.allclose(out, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# holistic model
# ---------------------------------------------------------------------------


def test_holistic_equals_fd_without_noise(grid8, qspec, proj8, eig0_8):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.05)
    co = _coeffs(proj8, eig0_8, sigma=0.0)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=5)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    t_fd = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U0, store=True)
    t_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)
    assert np.array_equal(t_fd, t_h)


def test_holistic_drift_fixed_point(grid8):
    # sigma = 0 run with externally supplied coefficients: U = sqrt(hat/alpha)
    hat = 0.81
    co = AveragedCoeffs(hat_alpha=np.full(grid8.M, hat), qj=np.zeros(grid8.M),
                        qj_truncation=np.zeros(grid8.M), alpha=1.0)
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=1e-3)
    tables = {"slow": np.zeros((grid8.M, 1, 1)), "gridpoint": np.zeros((grid8.M, 1, 1)),
              "deviation": np.zeros((grid8.M, 1, 1))}
    drv = _manual_drivers(grid8, tables)
    U0 = np.full(grid8.M, np.sqrt(hat))
    out = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0)[-1, 0, :, 0]
    assert np.allclose(out, U0, atol=1e-15)


def test_holistic_uniform_noise_gets_no_stencil_correction(grid8, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=0.0, sigma=1.0, dt=1e-3, T=1e-3)
    delta = 0.37
    tables = {"slow": np.full((grid8.M, 1, 1), delta),
              "gridpoint": np.zeros((grid8.M, 1, 1)),
              "deviation": np.zeros((grid8.M, 1, 1))}
    drv = _manual_drivers(grid8, tables)
    U0 = np.zeros(grid8.M)
    out = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0)[-1, 0, :, 0]
    # spatially uniform driver increments: only the direct sigma*dS term acts
    assert np.allclose(out, cfg.sigma * delta, atol=1e-15)


def test_holistic_noise_stencil_variance(grid8, qspec, proj8, eig0_8):
    # per-step variance of (sigma/4)(dS_{j-1} - 2 dS_j + dS_{j+1}) against the
    # closed form from the driver covariance
    sigma = 0.8
    cfg = SpdeConfig(alpha=0.0, sigma=sigma, dt=1e-3, T=4.0)
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, [3])
    slow = proj8.slow_map @ path[0]                    # (M, N)
    sten = np.roll(slow, 1, axis=0) - 2.0 * slow + np.roll(slow, -1, axis=0)
    term = (sigma / 4.0) * sten
    emp = np.var(term, axis=1, ddof=1) / cfg.dt
    W = proj8.weights[:, 0, :] * np.sqrt(qspec.q)[None, :] * grid8.centre_mode_value
    cov = W @ W.T
    S = np.roll(np.eye(grid8.M), 1, axis=1) - 2 * np.eye(grid8.M) + np.roll(np.eye(grid8.M), -1, axis=1)
    pred = (sigma / 4.0) ** 2 * np.diag(S @ cov @ S.T)
    se = pred * np.sqrt(2.0 / (cfg.n_steps - 1))
    assert np.all(np.abs(emp - pred) < 4.0 * se)


def test_intro_variant_uses_gridpoint_noise(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.02)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=9)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    t_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)
    t_i = simulate_models([DiscreteModel("holistic_intro", coeffs=co)], cfg, drv, U0,
                          store=True)
    assert not np.array_equal(t_h, t_i)
    # but they stay close: the drivers agree up to O(h)
    assert np.max(np.abs(t_h[-1] - t_i[-1])) < 0.05


def test_deviation_alpha_flag_scales_term(grid8, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8, alpha=2.0)
    cfg = SpdeConfig(alpha=2.0, sigma=0.0, dt=1e-3, T=1e-3)
    tables = {"slow": np.zeros((grid8.M, 1, 1)), "gridpoint": np.zeros((grid8.M, 1, 1)),
              "deviation": np.full((grid8.M, 1, 1), 0.1)}
    drv = _manual_drivers(grid8, tables)
    U0 = np.full(grid8.M, 0.5)
    out_plain = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0)[-1, 0, :, 0]
    out_alpha = simulate_models([DiscreteModel("holistic", coeffs=co, deviation_alpha=True)],
                                cfg, drv, U0)[-1, 0, :, 0]
    dev_plain = out_plain - U0 - cfg.dt * (co.hat_alpha * U0 - cfg.alpha * U0**3)
    dev_alpha = out_alpha - U0 - cfg.dt * (co.hat_alpha * U0 - cfg.alpha * U0**3)
    assert np.allclose(dev_alpha, co.alpha * dev_plain, rtol=1e-10)


# ---------------------------------------------------------------------------
# gamma-expanded model
# ---------------------------------------------------------------------------


def test_gamma_reduced_truncated_equals_holistic_bitwise(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=1.0, dt=1e-3, T=0.05)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=13)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    t_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)
    t_g = simulate_models([DiscreteModel("gamma_reduced", coeffs=co)],
                          cfg, drv, U0, store=True)
    assert np.array_equal(t_h, t_g)


def test_gamma_reduced_small_gamma_decouples(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    g = 1e-4
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=g, dt=1e-3, T=1e-3)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=17)
    U0 = np.linspace(-0.5, 0.5, grid8.M)
    model = DiscreteModel("gamma_reduced", coeffs=co)
    out = simulate_models([model], cfg, drv, U0)[-1, 0, :, 0]
    pure_cubic = U0 + cfg.dt * (-cfg.alpha * U0**3)
    assert np.max(np.abs(out - pure_cubic)) < 5.0 * g


def test_gamma_reduced_term_families_have_tagged_orders(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    M = grid8.M
    U0 = np.zeros(M)
    gammas = np.array([0.08, 0.04, 0.02])
    model = DiscreteModel("gamma_reduced", coeffs=co)

    def one_step(tables, g):
        cfg = SpdeConfig(alpha=0.0, sigma=1.0, gamma=g, dt=1e-3, T=1e-3)
        drv = _manual_drivers(grid8, tables)
        return simulate_models([model], cfg, drv, U0)[-1, 0, :, 0]

    # family gamma^1: uniform slow driver (stencil part cancels)
    mags = [np.max(np.abs(one_step({"slow": np.full((M, 1, 1), 0.3),
                                    "deviation": np.zeros((M, 1, 1))}, g)))
            for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(mags), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-9)

    # family gamma^2: deviation driver on a nonzero state
    U1 = np.full(M, 0.5)
    def dev_step(g):
        cfg = SpdeConfig(alpha=0.0, sigma=1.0, gamma=g, dt=1e-3, T=1e-3)
        drv = _manual_drivers(grid8, {"slow": np.zeros((M, 1, 1)),
                                      "deviation": np.full((M, 1, 1), 0.2)})
        out = simulate_models([model], cfg, drv, U1)[-1, 0, :, 0]
        return np.max(np.abs(out - U1))
    mags = [dev_step(g) for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(mags), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_second_moment_regression_bound(grid8, qspec, proj8, eig0_8):
    # frozen regression constant for the default-style configuration
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=1.0)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=29)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    states = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)
    assert float(np.max(states**2)) < 2.0


# ---------------------------------------------------------------------------
# reduced slow equation
# ---------------------------------------------------------------------------


def test_reduced_slow_zero_state_stays_zero(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8, sigma=0.0)
    stats = ou_stationary_stats(proj8, eig0_8, 0.0)
    op = assemble_operator(grid8, 0.1)
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, gamma=0.1, dt=1e-3, T=0.01)
    d = _drivers(grid8, qspec, proj8, cfg, seed=1)
    drv = _manual_drivers(grid8, {"slow": d.slow, "deviation": d.deviation})
    a = np.zeros(grid8.M)
    for i in range(5):
        a = reduced_slow_sde(a, cfg, op, stats, co, drv, i)
    assert np.all(a == 0.0)


def test_reduced_slow_abort_names_step_and_member(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    stats = ou_stationary_stats(proj8, eig0_8, 0.5)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.1, dt=1e-3, T=0.01)
    drv = _drivers(grid8, qspec, proj8, cfg)
    drv.slow[:, 3] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        reduced_slow_sde(np.zeros(grid8.M), cfg, assemble_operator(grid8, 0.1), stats, co, drv, 3)
    assert (err.value.step, err.value.member) == (3, 0)


def test_reduced_slow_drift_gap_is_third_order(grid8, qspec, proj8, eig0_8):
    # drift-only one-step comparison against the gamma-expanded grid model
    co = _coeffs(proj8, eig0_8, sigma=0.5)
    stats = ou_stationary_stats(proj8, eig0_8, 0.5)
    a0 = 0.2 * np.sin(2.0 * np.pi * np.arange(grid8.M) / grid8.M) + 0.05
    gammas = np.array([0.2, 0.1, 0.05])
    gaps = []
    for g in gammas:
        cfg = SpdeConfig(alpha=1.0, sigma=0.0, gamma=g, dt=1e-3, T=1e-3)
        op = assemble_operator(grid8, g)
        tables = {"slow": np.zeros((grid8.M, 1, 1)), "deviation": np.zeros((grid8.M, 1, 1))}
        drv = _manual_drivers(grid8, tables)
        a1 = reduced_slow_sde(a0.copy(), cfg, op, stats, co, drv, 0)
        u1 = simulate_models([DiscreteModel("gamma_reduced", coeffs=co)],
                             cfg, drv, a0.copy())[-1, 0, :, 0]
        gaps.append(np.max(np.abs(a1 - u1)) / cfg.dt)
    slope = np.polyfit(np.log(gammas), np.log(gaps), 1)[0]
    assert slope >= 2.7


def test_reduced_slow_linearized_decouples_in_dft_modes(grid8, qspec, proj8, eig0_8):
    # with the cubic dropped the one-step map is linear and circulant
    co = _coeffs(proj8, eig0_8)
    stats = ou_stationary_stats(proj8, eig0_8, 0.5)
    op = assemble_operator(grid8, 0.2)
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, gamma=0.2, dt=1e-3, T=1e-3)
    tables = {"slow": np.zeros((grid8.M, 1, 1)), "deviation": np.zeros((grid8.M, 1, 1))}
    drv = _manual_drivers(grid8, tables)
    M = grid8.M
    A = np.empty((M, M))
    for j in range(M):
        e = np.zeros(M)
        e[j] = 1.0
        A[:, j] = reduced_slow_sde(e, cfg, op, stats, co, drv, 0, linearize=True)
    F = np.fft.fft(np.eye(M), axis=0)
    D = F @ A @ np.linalg.inv(F)
    off = D - np.diag(np.diag(D))
    assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(np.diag(D)))


def test_build_drivers_takes_a_batch_of_one(grid8, qspec, proj8):
    cfg = SpdeConfig(dt=1e-3, T=0.01)
    two = sample_global_path(qspec, cfg.dt, cfg.n_steps, [0, 1])
    with pytest.raises(ValueError):
        build_drivers(grid8, proj8, two, [1], cfg.dt)  # one deviation seed per member
    one = build_drivers(grid8, proj8, two[1:], [1], cfg.dt)
    assert one.slow.shape == (grid8.M, cfg.n_steps, 1)
    assert np.array_equal(one.slow[..., 0], proj8.slow_map @ two[1])


@pytest.mark.parametrize("members", [1, 3, 40])
def test_drawn_rows_build_the_sampled_tables(grid8, qspec, proj8, members):
    cfg = SpdeConfig(dt=1e-3, T=0.2)
    seeds, dev_seeds = list(range(members)), [s + 100 for s in range(members)]
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, seeds)
    draw = PathDraw(qspec, cfg.dt, cfg.n_steps, seeds)
    rows = [row.copy() for row in draw]
    assert len(draw) == len(path) == members and draw.shape == path.shape
    assert all(np.array_equal(row, want) for row, want in zip(rows, path))
    want = build_drivers(grid8, proj8, path, dev_seeds, cfg.dt)
    got = build_drivers(grid8, proj8, draw, dev_seeds, cfg.dt)
    for name in ("slow", "gridpoint", "deviation"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.fixture(scope="module")
def grids_8_16(grid8, qspec, proj8, eig0_8):
    """(grid, projection, coefficients) at M = 8 and M = 16: on unpadded
    members, OpenBLAS rounds a slice of width 1 apart from the whole batch
    at M = 8, and slices of widths 1 to 4 at M = 16."""
    grid16 = build_grid(2.0 * np.pi, 16, 8)
    eig16 = eig_gamma0(grid16, 6)
    proj16 = project_to_element_modes(qspec, eig16, grid16)
    return [(grid8, proj8, _coeffs(proj8, eig0_8)), (grid16, proj16, _coeffs(proj16, eig16))]


def _all_kinds(co):
    return [DiscreteModel("conventional_fd"), DiscreteModel("holistic", coeffs=co),
            DiscreteModel("holistic_intro", coeffs=co), DiscreteModel("gamma_reduced", coeffs=co)]


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.sets(st.integers(1, 8)))
def test_member_slices_step_as_the_whole_batch(grids_8_16, qspec, cuts):
    # wide grid-model stepping rests on this: 70 steps cross two precomputed noise blocks
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.07)
    edges = [0] + sorted(cuts) + [9]
    for grid, proj, co in grids_8_16:
        drv = build_drivers(grid, proj, PathDraw(qspec, cfg.dt, cfg.n_steps, list(range(9))),
                            list(range(100, 109)), cfg.dt)
        kinds = _all_kinds(co)
        whole = simulate_models(kinds, cfg, drv, store=True)
        for lo, hi in zip(edges, edges[1:]):
            part = replace(drv, slow=drv.slow[..., lo:hi], gridpoint=drv.gridpoint[..., lo:hi],
                           deviation=drv.deviation[..., lo:hi])
            assert np.array_equal(simulate_models(kinds, cfg, part, store=True),
                                  whole[..., lo:hi])


def _stencil_oracle(kinds, cfg, drv):
    """Final states (K, M, R) of a per-kind, per-step loop whose stencils gather
    the neighbours by index: noise w d_j + s (d_{j-1} - 2 d_j + d_{j+1})."""
    M, n_steps, R = drv.slow.shape
    prev, nxt = np.roll(np.arange(M), 1), np.roll(np.arange(M), -1)
    u0 = initial_profile(cfg.initial, drv.grid.L)(drv.grid.grid_points)
    finals = []
    for model in kinds:
        g2, lin, dev, w, s, name = models._kind_terms(model, cfg, drv)
        d, dchk, U = getattr(drv, name), drv.deviation, np.repeat(u0[:, None], R, axis=1)
        for i in range(n_steps):
            lap = (U[prev] - 2.0 * U + U[nxt]) / drv.grid.h**2
            U = (U + cfg.dt * (g2 * lap + lin[:, None] * U - cfg.alpha * U**3)
                 + dev[:, None] * U * dchk[:, i]
                 + w * d[:, i] + s * (d[prev, i] - 2.0 * d[:, i] + d[nxt, i]))
        finals.append(U)
    return np.stack(finals)


def test_noise_product_matches_the_gathered_stencil(grids_8_16, qspec):
    # 70 steps fill two noise blocks and part of a third
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.07)
    for grid, proj, co in grids_8_16:
        drv = build_drivers(grid, proj, PathDraw(qspec, cfg.dt, cfg.n_steps, list(range(5))),
                            list(range(100, 105)), cfg.dt)
        got = simulate_models(_all_kinds(co), cfg, drv)[-1]
        want = _stencil_oracle(_all_kinds(co), cfg, drv)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("width", [1, 3, 8, 9, 30])
def test_member_replayed_alone_is_its_column(grids_8_16, qspec, width):
    # a member's tables built and stepped as a batch of one give its column bitwise;
    # 40 steps cross two noise blocks
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.04)
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, list(range(width)))
    dev_seeds = list(range(100, 100 + width))
    for grid, proj, co in grids_8_16:
        kinds = _all_kinds(co)
        whole = simulate_models(kinds, cfg, build_drivers(grid, proj, path, dev_seeds, cfg.dt))
        for r in range(width):
            one = build_drivers(grid, proj, path[r:r + 1], dev_seeds[r:r + 1], cfg.dt)
            assert np.array_equal(simulate_models(kinds, cfg, one), whole[..., r:r + 1])


def test_model_kind_validation(proj8, eig0_8):
    with pytest.raises(ValueError):
        DiscreteModel("nope")
    with pytest.raises(ValueError):
        DiscreteModel("holistic")  # missing coefficients


@pytest.mark.parametrize("R", [1, 3])
def test_abort_names_first_nonfinite_member(grid8, qspec, proj8, eig0_8, R):
    # member R // 2 blows up: a batch of one names member 0, not a grid index
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    slow = _drivers(grid8, qspec, proj8, cfg).slow
    blown = np.concatenate([1e200 * slow if r == R // 2 else slow for r in range(R)], axis=-1)
    drivers = _manual_drivers(grid8, {"slow": blown})
    model = DiscreteModel("holistic", coeffs=_coeffs(proj8, eig0_8))
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        simulate_models([model], cfg, drivers, np.zeros(grid8.M))
    assert err.value.member == R // 2
    assert err.value.step == 1


def test_abort_records_each_member_and_keeps_the_others(grid8, qspec, proj8, eig0_8):
    # member 2 of 5 goes non-finite at step 40 in every kind: the abort names it there
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.07)
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, list(range(5)))
    drv = build_drivers(grid8, proj8, path, list(range(100, 105)), cfg.dt)
    models = [DiscreteModel("conventional_fd"), DiscreteModel("holistic", coeffs=co)]
    for table in (drv.slow, drv.gridpoint, drv.deviation):
        table[:, 40, 2] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        simulate_models(models, cfg, drv, store=True)
    assert (err.value.step, err.value.member) == (40, 2)


@pytest.mark.parametrize("shape", [(8, 1), (8, 8)], ids=["M-by-1", "M-by-M"])
def test_initial_state_must_be_one_grid_profile(grid8, shape):
    # an (M, R) state would otherwise broadcast against the (K, M, R) state when M == R
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=1e-3)
    drivers = _manual_drivers(grid8, {"slow": np.zeros((grid8.M, 1, shape[1]))})
    with pytest.raises(ValueError, match="one grid profile"):
        simulate_models([DiscreteModel("conventional_fd")], cfg, drivers, np.zeros(shape))


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("store", [True, False])
def test_kind_stacking_is_independent(grid8, qspec, proj8, eig0_8, members, store):
    # 150 steps cross four precomputed noise blocks and end inside a fifth
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.15)
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, list(range(members)))
    drv = build_drivers(grid8, proj8, path, [s + 100 for s in range(members)], cfg.dt)
    models = [DiscreteModel("conventional_fd"), DiscreteModel("holistic", coeffs=co),
              DiscreteModel("holistic_intro", coeffs=co), DiscreteModel("gamma_reduced", coeffs=co)]
    stacked = simulate_models(models, cfg, drv, store=store)
    for k, model in enumerate(models):
        alone = simulate_models([model], cfg, drv, store=store)
        assert np.array_equal(stacked[:, k:k + 1], alone)
    assert stacked.shape == (drv.slow.shape[1] + 1 if store else 1, len(models), grid8.M, members)


def test_stacked_abort_names_kind_step_and_member(grid8, qspec, proj8, eig0_8):
    # only the holistic model reads the slow drivers, and only member 1's blow up
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    d = _drivers(grid8, qspec, proj8, cfg)
    slow = np.concatenate([d.slow, 1e200 * d.slow, d.slow], axis=-1)
    gridpoint = np.repeat(d.gridpoint, 3, axis=-1)
    drivers = _manual_drivers(grid8, {"slow": slow, "gridpoint": gridpoint})
    models = [DiscreteModel("conventional_fd"),
              DiscreteModel("holistic", coeffs=_coeffs(proj8, eig0_8))]
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        simulate_models(models, cfg, drivers, np.zeros(grid8.M))
    assert "holistic model" in str(err.value)
    assert "conventional_fd" not in str(err.value)
    assert err.value.step == 1
    assert err.value.member == 1
