import numpy as np
import pytest

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
from holisde.noise import NoisePath, sample_global_path
from holisde.spectral import assemble_operator, eig_gamma, expand_ground_mode


def _coeffs(proj8, eig0_8, alpha=1.0, sigma=0.5):
    return averaged_coeffs(proj8, eig0_8, alpha, sigma)


def _drivers(grid, qspec, proj, cfg, seed=0, dev_seed=1, **kw):
    path = sample_global_path(qspec, cfg.times(), [seed])
    return build_drivers(grid, proj, path, deviation_seed=dev_seed, **kw)


def _manual_drivers(grid, tables, dt):
    n = tables["slow"].shape[1]
    zeros = np.zeros_like(tables["slow"])
    return ModelDrivers(
        grid=grid,
        dt=np.full(n, dt),
        slow=tables.get("slow", zeros),
        gridpoint=tables.get("gridpoint", zeros),
        deviation=tables.get("deviation", zeros),
        aux=tables.get("aux"),
    )


# ---------------------------------------------------------------------------
# conventional finite differences
# ---------------------------------------------------------------------------


def test_fd_cubic_root_stationary(grid8, qspec, proj8):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=1e-3)
    drv = _drivers(grid8, qspec, proj8, cfg)
    U = np.ones(grid8.M)
    out = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U)[0].states[-1]
    assert np.array_equal(out, U)


def test_fd_discrete_decay_symbol():
    # one noise-free step multiplies the lowest grid mode by 1 - dt * symbol,
    # and the symbol approaches the continuum rate quadratically in h
    errs = []
    for M in (8, 16, 32):
        g = build_grid(2.0 * np.pi, M, 8)
        cfg = SpdeConfig(alpha=0.0, sigma=0.0, dt=1e-4, T=1e-3)
        U0 = np.sin(2.0 * np.pi * g.grid_points / g.L)
        tables = {"slow": np.zeros((M, 1)), "deviation": np.zeros((M, 1)),
                  "gridpoint": np.zeros((M, 1))}
        drv = _manual_drivers(g, tables, cfg.dt)
        out = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U0)[0].states[-1]
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
    tables = {"gridpoint": dW[:, None], "slow": np.zeros((4, 1)),
              "deviation": np.zeros((4, 1))}
    drv = _manual_drivers(g, tables, cfg.dt)
    out = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U0)[0].states[-1]
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
    t_fd = simulate_models([DiscreteModel("conventional_fd")], cfg, drv, U0, store=True)[0]
    t_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)[0]
    assert np.array_equal(t_fd.states, t_h.states)


def test_holistic_drift_fixed_point(grid8):
    # sigma = 0 run with externally supplied coefficients: U = sqrt(hat/alpha)
    hat = 0.81
    co = AveragedCoeffs(hat_alpha=np.full(grid8.M, hat), qj=np.zeros(grid8.M),
                        qj_truncation=np.zeros(grid8.M), alpha=1.0, sigma=0.5,
                        gamma=1.0, h=grid8.h)
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.01)
    tables = {"slow": np.zeros((grid8.M, 1)), "gridpoint": np.zeros((grid8.M, 1)),
              "deviation": np.zeros((grid8.M, 1))}
    drv = _manual_drivers(grid8, tables, cfg.dt)
    U0 = np.full(grid8.M, np.sqrt(hat))
    out = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0)[0].states[-1]
    assert np.allclose(out, U0, atol=1e-15)


def test_holistic_uniform_noise_gets_no_stencil_correction(grid8, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=0.0, sigma=1.0, dt=1e-3, T=0.01)
    delta = 0.37
    tables = {"slow": np.full((grid8.M, 1), delta),
              "gridpoint": np.zeros((grid8.M, 1)),
              "deviation": np.zeros((grid8.M, 1))}
    drv = _manual_drivers(grid8, tables, cfg.dt)
    U0 = np.zeros(grid8.M)
    out = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0)[0].states[-1]
    # spatially uniform driver increments: only the direct sigma*dS term acts
    assert np.allclose(out, cfg.sigma * delta, atol=1e-15)


def test_holistic_noise_stencil_variance(grid8, qspec, proj8, eig0_8):
    # per-step variance of (sigma/4)(dS_{j-1} - 2 dS_j + dS_{j+1}) against the
    # closed form from the driver covariance
    sigma = 0.8
    cfg = SpdeConfig(alpha=0.0, sigma=sigma, dt=1e-3, T=4.0)
    path = sample_global_path(qspec, cfg.times(), [3])
    slow = proj8.slow_map @ path.increments[0]         # (M, N)
    sten = np.roll(slow, 1, axis=0) - 2.0 * slow + np.roll(slow, -1, axis=0)
    term = (sigma / 4.0) * sten
    emp = np.var(term, axis=1, ddof=1) / cfg.dt
    W = proj8.weights[:, 0, :] * np.sqrt(qspec.q)[None, :] * grid8.centre_mode_value
    cov = W @ W.T
    S = np.roll(np.eye(grid8.M), 1, axis=1) - 2 * np.eye(grid8.M) + np.roll(np.eye(grid8.M), -1, axis=1)
    pred = (sigma / 4.0) ** 2 * np.diag(S @ cov @ S.T)
    se = pred * np.sqrt(2.0 / (path.n_steps - 1))
    assert np.all(np.abs(emp - pred) < 4.0 * se)


def test_intro_variant_uses_gridpoint_noise(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.02)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=9)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    t_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)[0]
    t_i = simulate_models([DiscreteModel("holistic_intro", coeffs=co)], cfg, drv, U0,
                          store=True)[0]
    assert not np.array_equal(t_h.states, t_i.states)
    # but they stay close: the drivers agree up to O(h)
    assert np.max(np.abs(t_h.states[-1] - t_i.states[-1])) < 0.05


def test_deviation_alpha_flag_scales_term(grid8, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8, alpha=2.0)
    cfg = SpdeConfig(alpha=2.0, sigma=0.0, dt=1e-3, T=0.01)
    tables = {"slow": np.zeros((grid8.M, 1)), "gridpoint": np.zeros((grid8.M, 1)),
              "deviation": np.full((grid8.M, 1), 0.1)}
    drv = _manual_drivers(grid8, tables, cfg.dt)
    U0 = np.full(grid8.M, 0.5)
    out_plain = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0)[0].states[-1]
    out_alpha = simulate_models([DiscreteModel("holistic", coeffs=co, deviation_alpha=True)],
                                cfg, drv, U0)[0].states[-1]
    dev_plain = out_plain - U0 - cfg.dt * (co.hat_alpha * U0 - cfg.alpha * U0**3)
    dev_alpha = out_alpha - U0 - cfg.dt * (co.hat_alpha * U0 - cfg.alpha * U0**3)
    assert np.allclose(dev_alpha, co.alpha * dev_plain, rtol=1e-10)


# ---------------------------------------------------------------------------
# gamma-expanded model
# ---------------------------------------------------------------------------


def _expansion(grid, gamma=0.1):
    eig = eig_gamma(assemble_operator(grid, gamma), grid.M + 1)
    return expand_ground_mode(eig, grid, mode="top-slow")


def test_gamma_reduced_truncated_equals_holistic_bitwise(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=1.0, dt=1e-3, T=0.05)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=13)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    t_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)[0]
    t_g = simulate_models([DiscreteModel("gamma_reduced", coeffs=co, truncate=True)],
                          cfg, drv, U0, store=True)[0]
    assert np.array_equal(t_h.states, t_g.states)


def test_gamma_reduced_small_gamma_decouples(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    stats = ou_stationary_stats(proj8, eig0_8, 0.5)
    exp = _expansion(grid8)
    g = 1e-4
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=g, dt=1e-3, T=1e-3)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=17, stats=stats,
                   eig0=eig0_8, expansion=exp, aux_seed=19)
    U0 = np.linspace(-0.5, 0.5, grid8.M)
    model = DiscreteModel("gamma_reduced", coeffs=co, truncate=False)
    out = simulate_models([model], cfg, drv, U0)[0].states[-1]
    pure_cubic = U0 + cfg.dt * (-cfg.alpha * U0**3)
    assert np.max(np.abs(out - pure_cubic)) < 5.0 * g


def test_gamma_reduced_term_families_have_tagged_orders(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    stats = ou_stationary_stats(proj8, eig0_8, 0.5)
    exp = _expansion(grid8)
    M = grid8.M
    U0 = np.zeros(M)
    gammas = np.array([0.08, 0.04, 0.02])
    model = DiscreteModel("gamma_reduced", coeffs=co, truncate=False)

    def one_step(tables, g):
        cfg = SpdeConfig(alpha=0.0, sigma=1.0, gamma=g, dt=1e-3, T=1e-3)
        drv = _manual_drivers(grid8, tables, cfg.dt)
        return simulate_models([model], cfg, drv, U0)[0].states[-1]

    # family gamma^1: uniform slow driver (stencil part cancels)
    mags = [np.max(np.abs(one_step({"slow": np.full((M, 1), 0.3),
                                    "deviation": np.zeros((M, 1)),
                                    "aux": np.zeros((M, 1))}, g)))
            for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(mags), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-9)

    # family gamma^2: deviation driver on a nonzero state
    U1 = np.full(M, 0.5)
    def dev_step(g):
        cfg = SpdeConfig(alpha=0.0, sigma=1.0, gamma=g, dt=1e-3, T=1e-3)
        drv = _manual_drivers(grid8, {"slow": np.zeros((M, 1)),
                                      "deviation": np.full((M, 1), 0.2),
                                      "aux": np.zeros((M, 1))}, cfg.dt)
        out = simulate_models([model], cfg, drv, U1)[0].states[-1]
        return np.max(np.abs(out - U1))
    mags = [dev_step(g) for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(mags), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-9)

    # family gamma^3: auxiliary stencil after removing the tagged gamma^2 part
    aux = np.array([0.1, -0.2, 0.15, 0.05, -0.1, 0.2, -0.15, -0.05])[:, None]
    def aux_step(g):
        cfg = SpdeConfig(alpha=0.0, sigma=1.0, gamma=g, dt=1e-3, T=1e-3)
        drv = _manual_drivers(grid8, {"slow": np.zeros((M, 1)),
                                      "deviation": np.zeros((M, 1)),
                                      "aux": aux}, cfg.dt)
        out = simulate_models([model], cfg, drv, U0)[0].states[-1]
        tagged_g2 = cfg.sigma * g**2 * aux[:, 0] * grid8.centre_mode_value
        return np.max(np.abs(out - U0 - tagged_g2))
    mags = [aux_step(g) for g in gammas]
    slope = np.polyfit(np.log(gammas), np.log(mags), 1)[0]
    assert slope == pytest.approx(3.0, abs=1e-9)


def test_gamma_reduced_needs_aux_when_untruncated(grid8, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.01)
    tables = {"slow": np.zeros((grid8.M, 1)), "deviation": np.zeros((grid8.M, 1))}
    drv = _manual_drivers(grid8, tables, cfg.dt)
    with pytest.raises(ValueError):
        simulate_models([DiscreteModel("gamma_reduced", coeffs=co, truncate=False)],
                        cfg, drv, np.zeros(grid8.M))


def test_second_moment_regression_bound(grid8, qspec, proj8, eig0_8):
    # frozen regression constant for the default-style configuration
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=1.0)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=29)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    traj = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg, drv, U0, store=True)[0]
    assert float(np.max(traj.states**2)) < 2.0


# ---------------------------------------------------------------------------
# reduced slow equation
# ---------------------------------------------------------------------------


def test_reduced_slow_zero_state_stays_zero(grid8, qspec, proj8, eig0_8):
    co = _coeffs(proj8, eig0_8, sigma=0.0)
    stats = ou_stationary_stats(proj8, eig0_8, 0.0)
    op = assemble_operator(grid8, 0.1)
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, gamma=0.1, dt=1e-3, T=0.01)
    drv = _drivers(grid8, qspec, proj8, cfg, seed=1)
    a = np.zeros(grid8.M)
    for i in range(5):
        a = reduced_slow_sde(a, cfg, op, stats, co, drv, i)
    assert np.all(a == 0.0)


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
        tables = {"slow": np.zeros((grid8.M, 1)), "deviation": np.zeros((grid8.M, 1)),
                  "aux": np.zeros((grid8.M, 1))}
        drv = _manual_drivers(grid8, tables, cfg.dt)
        a1 = reduced_slow_sde(a0.copy(), cfg, op, stats, co, drv, 0)
        u1 = simulate_models([DiscreteModel("gamma_reduced", coeffs=co, truncate=False)],
                             cfg, drv, a0.copy())[0].states[-1]
        gaps.append(np.max(np.abs(a1 - u1)) / cfg.dt)
    slope = np.polyfit(np.log(gammas), np.log(gaps), 1)[0]
    assert slope >= 2.7


def test_reduced_slow_linearized_decouples_in_dft_modes(grid8, qspec, proj8, eig0_8):
    # with the cubic dropped the one-step map is linear and circulant
    co = _coeffs(proj8, eig0_8)
    stats = ou_stationary_stats(proj8, eig0_8, 0.5)
    op = assemble_operator(grid8, 0.2)
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, gamma=0.2, dt=1e-3, T=1e-3)
    tables = {"slow": np.zeros((grid8.M, 1)), "deviation": np.zeros((grid8.M, 1))}
    drv = _manual_drivers(grid8, tables, cfg.dt)
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
    two = sample_global_path(qspec, cfg.times(), [0, 1])
    with pytest.raises(ValueError):
        build_drivers(grid8, proj8, two, deviation_seed=1)
    one = build_drivers(grid8, proj8, NoisePath(two.times, two.increments[1:]), deviation_seed=1)
    assert one.slow.shape == (grid8.M, cfg.n_steps)
    assert np.array_equal(one.slow, proj8.slow_map @ two.increments[1])


def test_model_kind_validation(proj8, eig0_8):
    with pytest.raises(ValueError):
        DiscreteModel("nope")
    with pytest.raises(ValueError):
        DiscreteModel("holistic")  # missing coefficients


def test_abort_names_first_nonfinite_member(grid8, qspec, proj8, eig0_8):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    d = _drivers(grid8, qspec, proj8, cfg)
    blown = np.stack([d.slow, 1e200 * d.slow, d.slow], axis=-1)
    drivers = _manual_drivers(grid8, {"slow": blown}, cfg.dt)
    model = DiscreteModel("holistic", coeffs=_coeffs(proj8, eig0_8))
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        simulate_models([model], cfg, drivers, np.zeros((grid8.M, 3)))
    assert err.value.member == 1
    assert err.value.step == 1


def _member_batch(grid, qspec, proj, cfg, seeds, **kw):
    """Driver tables, with auxiliary drivers, of several members on a trailing axis."""
    ds = [_drivers(grid, qspec, proj, cfg, seed=s, dev_seed=s + 100, aux_seed=s + 200, **kw)
          for s in seeds]
    stack = lambda name: np.stack([getattr(d, name) for d in ds], axis=-1)
    return ModelDrivers(grid=grid, dt=ds[0].dt, slow=stack("slow"), gridpoint=stack("gridpoint"),
                        deviation=stack("deviation"), aux=stack("aux"))


@pytest.mark.parametrize("members", [None, 3])
@pytest.mark.parametrize("store", [True, False])
def test_kind_stacking_is_independent(grid8, qspec, proj8, eig0_8, members, store):
    # 150 steps cross two precomputed driver blocks and end inside a third
    co = _coeffs(proj8, eig0_8)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.5, dt=1e-3, T=0.15)
    aux = dict(stats=ou_stationary_stats(proj8, eig0_8, 0.5), eig0=eig0_8,
               expansion=_expansion(grid8, 0.5))
    if members is None:
        drv = _drivers(grid8, qspec, proj8, cfg, seed=31, aux_seed=37, **aux)
    else:
        drv = _member_batch(grid8, qspec, proj8, cfg, range(members), **aux)
    U0 = initial_profile(cfg.initial, grid8.L)(grid8.grid_points)
    if members is not None:
        U0 = np.repeat(U0[:, None], members, axis=1)
    models = [DiscreteModel("conventional_fd"), DiscreteModel("holistic", coeffs=co),
              DiscreteModel("holistic_intro", coeffs=co),
              DiscreteModel("gamma_reduced", coeffs=co, truncate=False)]
    stacked = simulate_models(models, cfg, drv, U0, store=store)
    for model, traj in zip(models, stacked):
        alone = simulate_models([model], cfg, drv, U0, store=store)[0]
        assert traj.provenance == alone.provenance
        assert np.array_equal(traj.times, alone.times)
        assert np.array_equal(traj.states, alone.states)
    assert stacked[0].states.shape == (drv.n_steps + 1 if store else 1,) + U0.shape


def test_stacked_abort_names_kind_step_and_member(grid8, qspec, proj8, eig0_8):
    # only the holistic model reads the slow drivers, and only member 1's blow up
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    d = _drivers(grid8, qspec, proj8, cfg)
    slow = np.stack([d.slow, 1e200 * d.slow, d.slow], axis=-1)
    gridpoint = np.repeat(d.gridpoint[..., None], 3, axis=-1)
    drivers = _manual_drivers(grid8, {"slow": slow, "gridpoint": gridpoint}, cfg.dt)
    models = [DiscreteModel("conventional_fd"),
              DiscreteModel("holistic", coeffs=_coeffs(proj8, eig0_8))]
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        simulate_models(models, cfg, drivers, np.zeros((grid8.M, 3)))
    assert "holistic model" in str(err.value)
    assert "conventional_fd" not in str(err.value)
    assert err.value.step == 1
    assert err.value.member == 1
