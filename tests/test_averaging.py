import numpy as np
import pytest

from holisde.averaging import (
    FastModeStats,
    averaged_coeffs,
    averaged_drift,
    compute_qj,
    hat_alpha_from_tables,
    martingale_limit_driver,
    mc_qj_estimate,
    ou_integrated_variance,
    ou_stationary_stats,
    qj_from_tables,
    simulate_ou_ensemble,
)
from holisde.spectral import assemble_operator, eig_gamma, expand_ground_mode


def _stats(proj8, eig0_8, sigma=0.5):
    return ou_stationary_stats(proj8, eig0_8, sigma)


def test_stationary_variance_lyapunov_relation(proj8, eig0_8):
    stats = _stats(proj8, eig0_8)
    expected = stats.sigma**2 * stats.qh / (2.0 * stats.lam[None, :])
    assert np.allclose(stats.v, expected, rtol=1e-14)
    assert np.all(stats.v[stats.qh > 0] > 0.0)


def test_lyapunov_example_value():
    # rate pi^2, unit drive variance: stationary variance 1/(2 pi^2)
    lam = np.array([np.pi**2])
    drive = np.array([1.0])
    v = drive / (2.0 * lam)
    assert v[0] == pytest.approx(0.050660, abs=1e-6)
    # long-run Euler-Maruyama confirmation within 3 standard errors
    rng = np.random.default_rng(5)
    dt, n, R = 1e-3, 2000, 4000
    a = np.zeros(R)
    for _ in range(n):
        a = a - lam[0] * a * dt + np.sqrt(drive[0] * dt) * rng.standard_normal(R)
    var = np.var(a, ddof=1)
    se = var * np.sqrt(2.0 / (R - 1))
    assert abs(var - v[0]) < 3.0 * se + 0.002 * v[0]  # small EM bias allowance


def test_exact_ou_sampler_matches_stationary_law(rng):
    lam = np.array([4.0, 25.0])
    drive = np.array([0.8, 2.0])
    amps = simulate_ou_ensemble(lam, drive, 6000, 0.05, 40, rng)
    v = drive / (2 * lam)
    var = np.var(amps[-1], axis=0, ddof=1)
    se = v * np.sqrt(2.0 / 5999)
    assert np.all(np.abs(var - v) < 3.0 * se)


def test_sigma_zero_degenerates(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8, sigma=0.0)
    assert np.all(stats.v == 0.0)
    assert np.all(stats.field_second_moment == 0.0)
    co = averaged_coeffs(proj8, eig0_8, alpha=1.3, sigma=0.0)
    assert np.allclose(co.hat_alpha, 1.3, rtol=0.0)
    assert np.all(co.qj == 0.0)
    u = np.linspace(-1, 1, grid8.M)
    assert np.allclose(averaged_drift(u, stats), -u**3, rtol=0.0)


def test_averaged_drift_zero_at_origin(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8)
    assert np.all(averaged_drift(np.zeros(grid8.M), stats) == 0.0)


def test_averaged_drift_gaussian_moment_oracle(grid8):
    # E[-(u + eta)^3] = -(u^3 + 3 u v) for centred Gaussian eta with var v
    u, v = 0.7, 0.2
    rng = np.random.default_rng(42)
    draws = u + np.sqrt(v) * rng.standard_normal(1_000_000)
    mc = -np.mean(draws**3)
    se = np.std(draws**3, ddof=1) / np.sqrt(draws.size)
    expected = -(u**3 + 3 * u * v)
    assert expected == pytest.approx(-0.763, abs=1e-12)
    assert abs(mc - expected) < 3.0 * se


def test_hat_alpha_reduces_alpha(proj8, eig0_8, grid8):
    hat = averaged_coeffs(proj8, eig0_8, alpha=1.0, sigma=0.7).hat_alpha
    assert np.all(hat < 1.0)
    hat0 = averaged_coeffs(proj8, eig0_8, alpha=1.0, sigma=0.0).hat_alpha
    assert np.allclose(hat0, 1.0, rtol=0.0)


def test_hat_alpha_single_mode_arithmetic():
    # one fast mode, alpha = 1, sigma = 1, q^h = 0.1, lambda = pi^2, h = 1:
    # correction 3 * 0.1 / (2 pi^2) / 2 -> hat = 0.99240
    hat = hat_alpha_from_tables(
        np.array([[0.1]]), np.array([1.0]), alpha=1.0, sigma=1.0, h=1.0
    )
    assert hat[0] == pytest.approx(0.99240, abs=5e-6)
    # second path: direct evaluation of the defining sum
    lam = np.pi**2
    direct = 1.0 - 3.0 * 1.0 * (0.1 / (2.0 * lam)) * 0.5
    assert hat[0] == pytest.approx(direct, rel=1e-14)


def test_hat_alpha_h_square_scaling():
    q = np.array([[0.3, 0.1, 0.05]])
    levels = np.array([1.0, 2.0, 3.0])
    hs = np.array([1.0, 0.5, 0.25, 0.125])
    gaps = [abs(hat_alpha_from_tables(q, levels, 1.0, 1.0, h)[0] - 1.0) for h in hs]
    slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-10)


def test_qj_from_tables_matches_direct_sum():
    q = np.array([[0.3, 0.1]])
    levels = np.array([1.0, 2.0])
    sigma, h = 0.7, 0.5
    lam = (levels * np.pi / h) ** 2
    v = sigma**2 * q * h / (2 * lam)
    direct = np.sum(v**2 / lam) / (2 * h)
    assert qj_from_tables(q, levels, sigma, h)[0] == pytest.approx(direct, rel=1e-14)


def test_qj_nonnegative_and_zero_without_noise(proj8, eig0_8, grid8):
    stats0 = _stats(proj8, eig0_8, sigma=0.0)
    qj0, _ = compute_qj(stats0, eig0_8, grid8)
    assert np.all(qj0 == 0.0)
    stats = _stats(proj8, eig0_8)
    qj, bound = compute_qj(stats, eig0_8, grid8)
    assert np.all(qj >= 0.0)
    assert np.all(bound <= qj + 1e-30)


def test_qj_closed_form_matches_mc_oracle(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8, sigma=0.8)
    qj, _ = compute_qj(stats, eig0_8, grid8)
    est, se = mc_qj_estimate(stats, eig0_8, grid8, element=0, n_paths=4000, seed=9)
    assert abs(est - qj[0]) < 3.0 * se


def test_coefficients_deterministic(proj8, eig0_8):
    a = averaged_coeffs(proj8, eig0_8, 1.0, 0.5)
    b = averaged_coeffs(proj8, eig0_8, 1.0, 0.5)
    assert np.array_equal(a.hat_alpha, b.hat_alpha)
    assert np.array_equal(a.qj, b.qj)


def test_field_second_moment_pointwise_vs_mean(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8)
    # centre value only sees the cosine modes (sines and kinks vanish there)
    shapes = eig0_8.local_shapes[stats.mode_indices]
    centre_sq = shapes[:, 0, -1] ** 2
    expected_centre = (stats.v * centre_sq[None, :]).sum(axis=1)
    assert np.allclose(stats.centre_second_moment, expected_centre, rtol=1e-12)
    assert not np.allclose(stats.centre_second_moment, stats.mean_second_moment)


def test_martingale_driver_zero_for_flat_expansion(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8)
    eig = eig_gamma(assemble_operator(grid8, 0.1), grid8.M + 1)
    exp = expand_ground_mode(eig, grid8, mode="ground")  # flat centres: F1 = 0
    times = np.linspace(0.0, 1.0, 11)
    md = martingale_limit_driver(stats, eig0_8, exp, times, seed=3)
    assert np.allclose(md.weights, 0.0, atol=1e-9)
    assert np.allclose(md.combined, 0.0, atol=1e-9)


def test_martingale_driver_variance_identity(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8)
    eig = eig_gamma(assemble_operator(grid8, 0.1), grid8.M + 1)
    exp = expand_ground_mode(eig, grid8, mode="top-slow")
    times = np.linspace(0.0, 1.0, 4001)
    md = martingale_limit_driver(stats, eig0_8, exp, times, seed=11)
    rate = md.variance_rate
    assert np.all(rate > 0.0)
    emp = np.var(md.combined, axis=1, ddof=1) / np.diff(times)[0]
    se = rate * np.sqrt(2.0 / (md.combined.shape[1] - 1))
    assert np.all(np.abs(emp - rate) < 4.0 * se)
    # independent-sum structure: total variance = sum of per-mode weights^2
    assert np.allclose(rate, np.sum(md.weights**2, axis=1), rtol=1e-14)


def test_integrated_ou_variance_oracle(rng):
    # Var[(1/g) int_0^t eta] for stationary OU with rate lam/g^2
    lam, qh, sigma, g, T = 9.0, 0.4, 1.0, 0.25, 1.0
    target = ou_integrated_variance(lam, qh, sigma, g, T)
    rho = lam / g**2
    v = sigma**2 * qh / (2 * lam)
    n, R = 800, 6000
    dt = T / n
    a = rng.standard_normal(R) * np.sqrt(v)
    integral = np.zeros(R)
    rho_step = np.exp(-rho * dt)
    s = np.sqrt(v * (1 - rho_step**2))
    for _ in range(n):
        a_new = rho_step * a + s * rng.standard_normal(R)
        integral += 0.5 * (a + a_new) * dt
        a = a_new
    var_i = np.var(integral / g, ddof=1)
    se = var_i * np.sqrt(2.0 / (R - 1))
    assert abs(var_i - target) < 3.0 * se + 0.01 * target
    # gamma -> 0 limit of the formula
    assert ou_integrated_variance(lam, qh, sigma, 1e-4, T) == pytest.approx(
        sigma**2 * qh * T / lam**2, rel=1e-4
    )


def test_fast_set_excludes_zero_rate(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8)
    assert np.all(stats.lam > 0.0)
    assert np.all(eig0_8.levels[stats.mode_indices] >= 1)


def test_lam_max_cutoff(proj8, eig0_8, grid8):
    stats = _stats(proj8, eig0_8)
    assert np.all(stats.lam <= 400.0 / grid8.h**2)
    with pytest.raises(ValueError):
        ou_stationary_stats(proj8, eig0_8, 0.5, lam_max=0.5)
