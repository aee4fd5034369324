"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines as they complete.  Every check is deterministic given the
seeds pinned here.
"""

import time

import numpy as np
import pytest

from holisde.averaging import (
    averaged_coeffs,
    compute_qj,
    mc_qj_estimate,
    ou_stationary_stats,
)
from holisde.dynamics import SpdeConfig, initial_profile
from holisde.grid import build_grid, inner_product, seminorm
from holisde.harness import RunConfig, convergence_study
from holisde.models import (
    DiscreteModel,
    ModelDrivers,
    build_drivers,
    reduced_slow_sde,
    simulate_models,
)
from holisde.noise import QWienerSpec, fourier_basis, project_to_element_modes, sample_global_path
from holisde.spectral import assemble_operator, eig_gamma, eig_gamma0


def _report(num: int, name: str, ok: bool, detail: str, t0: float):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({time.time() - t0:.1f}s) {detail}")
    return ok


def test_criterion_01_spectral_ground_truth():
    t0 = time.time()
    grid = build_grid(4.0, 4, 128)          # h = 1
    M = grid.M
    eig = eig_gamma(assemble_operator(grid, 0.0), 9 * M)
    pi2 = np.pi**2
    expected_levels = [(0.0, M), (pi2, M), (4 * pi2, 3 * M), (9 * pi2, M), (16 * pi2, 3 * M)]
    expected = np.concatenate([np.full(mult, lam) for lam, mult in expected_levels])
    rel = np.abs(eig.eigenvalues - expected) / np.maximum(expected, 1.0)
    mults = [b - a for a, b in eig.clusters]
    ok = np.max(rel) <= 1e-4 and mults == [mult for _, mult in expected_levels]
    assert _report(1, "decoupled spectrum", ok,
                   f"max rel err {np.max(rel):.2e}, multiplicities {mults}", t0)
    assert np.max(rel) <= 1e-4
    assert mults == [mult for _, mult in expected_levels]


def test_criterion_02_self_adjointness_energy_identity():
    t0 = time.time()
    grid = build_grid(2.0 * np.pi, 8, 64)
    rng = np.random.default_rng(2024)
    worst_sym, worst_en = 0.0, 0.0
    for gamma in (0.0, 0.1, 0.5, 1.0):
        op = assemble_operator(grid, gamma)
        for _ in range(100):
            u = op.field_from_reduced(rng.standard_normal(op.n_reduced))
            v = op.field_from_reduced(rng.standard_normal(op.n_reduced))
            lu, lv = op.apply(u), op.apply(v)
            sym = abs(inner_product(lu, v) - inner_product(u, lv))
            sym /= seminorm(u, 0) * seminorm(v, 0)
            en_lhs = -inner_product(lu, u)
            en_rhs = seminorm(u, 1) ** 2
            en = abs(en_lhs - en_rhs) / en_rhs
            worst_sym = max(worst_sym, sym)
            worst_en = max(worst_en, en)
    ok = worst_sym <= 1e-8 and worst_en <= 1e-6
    assert _report(2, "self-adjointness + energy identity", ok,
                   f"worst symmetry {worst_sym:.2e}, worst energy {worst_en:.2e}", t0)
    assert worst_sym <= 1e-8
    assert worst_en <= 1e-6


def test_criterion_03_slow_eigenvalue_quadratic_order():
    t0 = time.time()
    cfg = RunConfig(M=8, subgrid_n=32, n_modes=17, T=0.1, ensemble=1, n_fine=256,
                    chunk_size=1)
    gammas = np.logspace(-3, -1, 5)
    tab = convergence_study(cfg, "lambda0", gammas)
    order = tab.orders["lambda_slow_top"]
    ok = abs(order - 2.0) <= 0.1
    assert _report(3, "slow-band eigenvalue order", ok, f"fitted order {order:.3f}", t0)
    assert order == pytest.approx(2.0, abs=0.1)


def test_criterion_04_expansion_remainder_order():
    t0 = time.time()
    cfg = RunConfig(M=8, subgrid_n=32, n_modes=17, T=0.1, ensemble=1, n_fine=256,
                    chunk_size=1)
    tab = convergence_study(cfg, "expansion", (0.2, 0.1, 0.05, 0.025))
    order = tab.orders["remainder"]
    ok = abs(order - 3.0) <= 0.3
    assert _report(4, "centre-expansion remainder order", ok, f"fitted order {order:.3f}", t0)
    assert order == pytest.approx(3.0, abs=0.3)


def test_criterion_05_ou_calibration():
    t0 = time.time()
    grid = build_grid(4.0, 4, 32)           # h = 1
    spec = QWienerSpec.from_decay(17, 3.0)
    eig0 = eig_gamma0(grid, 6)
    proj = project_to_element_modes(spec, eig0, grid)
    sigma = 1.0
    stats = ou_stationary_stats(proj, eig0, sigma)
    R, dt = 10_000, 2e-4
    rng = np.random.default_rng(7)
    results = []
    for l in (0, 1, 2):                      # first three fast modes of element 0
        lam = stats.lam[l]
        qh = stats.qh[0, l]
        target = stats.v[0, l]
        n_steps = int(round(8.0 / lam / dt))
        a = np.zeros(R)
        drive = sigma * np.sqrt(qh * dt)
        for _ in range(n_steps):
            a = a - lam * a * dt + drive * rng.standard_normal(R)
        var = np.var(a, ddof=1)
        se = target * np.sqrt(2.0 / (R - 1))
        results.append((var, target, se))
    ok = all(abs(v - tgt) < 3.0 * se for v, tgt, se in results)
    detail = "; ".join(f"var {v:.3e} vs {tgt:.3e} (se {se:.1e})" for v, tgt, se in results)
    assert _report(5, "fast-mode OU calibration", ok, detail, t0)
    for v, tgt, se in results:
        assert abs(v - tgt) < 3.0 * se


def test_criterion_06_qj_oracle_equivalence():
    t0 = time.time()
    grid = build_grid(2.0 * np.pi, 8, 64)    # default configuration
    spec = QWienerSpec.from_decay(33, 3.0)
    eig0 = eig_gamma0(grid, 6)
    proj = project_to_element_modes(spec, eig0, grid)
    stats = ou_stationary_stats(proj, eig0, 0.5)
    qj, _ = compute_qj(stats, eig0, grid)
    est, se = mc_qj_estimate(stats, eig0, grid, element=0, n_paths=10_000, seed=6)
    ok = abs(est - qj[0]) < 3.0 * se
    assert _report(6, "deviation variance closed form vs MC", ok,
                   f"closed {qj[0]:.4e}, MC {est:.4e} +- {se:.1e}", t0)
    assert abs(est - qj[0]) < 3.0 * se


def test_criterion_07_coefficient_spacing_orders():
    t0 = time.time()
    cfg = RunConfig(L=8.0, M=8, subgrid_n=32, n_modes=33, T=0.1, ensemble=1,
                    n_fine=256, chunk_size=1, sigma=0.5, alpha=1.0)
    tab = convergence_study(cfg, "coeff-h", (1.0, 0.5, 0.25, 0.125))
    hat_order = tab.orders["hat_alpha_gap"]
    qj_order = tab.orders["qj"]
    hat_ok = abs(hat_order - 2.0) <= 0.2
    qj_ok = abs(qj_order - 2.0) <= 0.3
    # the family's algebra, with q^h = q h and lambda = (k pi / h)^2
    derivation = ("v = sigma^2 q^h / (2 lambda) ~ h^3, lambda ~ h^-2, <e_k^2, e_0>^2 = 1/(2h): "
                  "Q_j = sum v^2 / lambda / (2h) ~ h^7, hat_alpha - alpha ~ v / h ~ h^2")
    assert _report(7, "coefficient spacing orders", hat_ok and qj_ok,
                   f"hat_alpha order {hat_order:.3f} (want 2.0+-0.2); "
                   f"Qj order {qj_order:.3f} (want 2.0+-0.3); {derivation}", t0)
    assert hat_order == pytest.approx(2.0, abs=0.2)
    # The deviation variance follows its closed form (validated against the
    # Monte-Carlo oracle in criterion 6, and at each spacing of this family in
    # test_averaging), which scales like h^7 under the frozen-intensity
    # family; the 2.0 +- 0.3 band is asserted as specified.
    assert qj_order == pytest.approx(2.0, abs=0.3)


def test_criterion_08_full_coupling_limit():
    t0 = time.time()
    cfg = RunConfig(M=8, subgrid_n=32, n_modes=33, decay_r=4.0, alpha=1.0,
                    sigma=0.5, dt=2.5e-4, T=0.5, ensemble=64, n_fine=2048,
                    master_seed=2024)
    tab = convergence_study(cfg, "coupling-gap", (0.9, 0.99, 1.0))
    ms = tab.metrics["ms_gap"]
    rms = tab.metrics["rms_gap"]
    det = tab.metrics["det_gap"][0]
    mono = bool(ms[0] > ms[1] > ms[2])
    within = rms[2] <= 2.0 * det
    ok = mono and within
    assert _report(8, "full-coupling pathwise limit", ok,
                   f"ms gaps {ms[0]:.3e} > {ms[1]:.3e} > {ms[2]:.3e}; "
                   f"rms at gamma=1 {rms[2]:.3e} vs det {det:.3e}", t0)
    assert mono
    assert within


def test_criterion_09_weak_consistency_in_h():
    t0 = time.time()
    cfg = RunConfig(M=8, subgrid_n=16, n_modes=33, decay_r=3.0, alpha=0.0,
                    sigma=0.5, dt=5e-4, T=0.5, ensemble=256, n_fine=1024,
                    master_seed=2024,
                    initial={"kind": "sine", "amplitude": 0.3, "mode": 1})
    L = cfg.L
    tab = convergence_study(cfg, "weak-h", (L / 8, L / 16, L / 32))
    mean_o = tab.orders["mean_gap"]
    var_o = tab.orders["var_gap"]
    dec = bool(np.all(np.diff(tab.metrics["mean_gap"]) < 0)
               and np.all(np.diff(tab.metrics["var_gap"]) < 0))
    ok = dec and mean_o >= 0.8 and var_o >= 0.8
    assert _report(9, "weak consistency under spacing refinement", ok,
                   f"mean order {mean_o:.2f}, var order {var_o:.2f}, "
                   f"gaps {tab.metrics['mean_gap']}", t0)
    assert dec
    assert mean_o >= 0.8
    assert var_o >= 0.8


def test_criterion_10_model_identity_gates():
    t0 = time.time()
    grid = build_grid(2.0 * np.pi, 8, 32)
    spec = QWienerSpec.from_decay(33, 3.0)
    eig0 = eig_gamma0(grid, 6)
    proj = project_to_element_modes(spec, eig0, grid)
    stats = ou_stationary_stats(proj, eig0, 0.5)
    U0 = initial_profile({"kind": "sine", "amplitude": 0.3, "mode": 1}, grid.L)(
        grid.grid_points
    )

    # (a) sigma = 0: holistic is bitwise the conventional scheme
    cfg0 = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.1)
    path0 = sample_global_path(spec, cfg0.dt, cfg0.n_steps, [41])
    co0 = averaged_coeffs(proj, eig0, 1.0, 0.0)
    d0 = build_drivers(grid, proj, path0, [43], cfg0.dt)
    a_fd = simulate_models([DiscreteModel("conventional_fd")], cfg0, d0, U0, store=True)
    a_h = simulate_models([DiscreteModel("holistic", coeffs=co0)], cfg0, d0, U0, store=True)
    gate_a = np.array_equal(a_fd, a_h)

    # (b) the gamma-expanded model at gamma = 1 is the holistic stepper, bitwise
    cfg1 = SpdeConfig(alpha=1.0, sigma=0.5, gamma=1.0, dt=1e-3, T=0.1)
    path1 = sample_global_path(spec, cfg1.dt, cfg1.n_steps, [47])
    co = averaged_coeffs(proj, eig0, 1.0, 0.5)
    d1 = build_drivers(grid, proj, path1, [53], cfg1.dt)
    b_h = simulate_models([DiscreteModel("holistic", coeffs=co)], cfg1, d1, U0, store=True)
    b_g = simulate_models([DiscreteModel("gamma_reduced", coeffs=co)], cfg1, d1, U0, store=True)
    gate_b = np.array_equal(b_h, b_g)

    # (c) one-step drift gap of the reduced slow equation is O(gamma^3)
    a0 = 0.2 * np.sin(2.0 * np.pi * np.arange(grid.M) / grid.M) + 0.05
    gammas = np.array([0.2, 0.1, 0.05, 0.025])
    gaps = []
    M = grid.M
    for g in gammas:
        cfg = SpdeConfig(alpha=1.0, sigma=0.0, gamma=g, dt=1e-3, T=1e-3)
        tables = dict(slow=np.zeros((M, 1, 1)), gridpoint=np.zeros((M, 1, 1)),
                      deviation=np.zeros((M, 1, 1)))
        drv = ModelDrivers(grid=grid, **tables)
        op = assemble_operator(grid, g)
        a1 = reduced_slow_sde(a0.copy(), cfg, op, stats, co, drv, 0)
        u1 = simulate_models([DiscreteModel("gamma_reduced", coeffs=co)],
                             cfg, drv, u0=a0)[-1, 0, :, 0]
        gaps.append(np.max(np.abs(a1 - u1)) / cfg.dt)
    slope = float(np.polyfit(np.log(gammas), np.log(gaps), 1)[0])
    gate_c = slope >= 2.7

    ok = gate_a and gate_b and gate_c
    assert _report(10, "model identity gates", ok,
                   f"(a) bitwise {gate_a}; (b) bitwise {gate_b}; (c) drift-gap "
                   f"order {slope:.2f}", t0)
    assert gate_a and gate_b and gate_c


def test_criterion_11_noise_projection_consistency():
    t0 = time.time()
    spec = QWienerSpec.from_decay(33, 3.0)

    # slow-driver correlation with the pointwise noise at h = L/32, gamma = 0.05
    grid = build_grid(2.0 * np.pi, 32, 16)
    eig = eig_gamma(assemble_operator(grid, 0.05), 2)
    proj = project_to_element_modes(spec, eig, grid)
    ex = fourier_basis(grid.grid_points, spec.n_modes, grid.L)
    corrs = []
    for j in range(grid.M):
        w = proj.weights[j, 0, :]
        e = ex[:, j]
        corrs.append(np.sum(spec.q * w * e)
                     / np.sqrt(np.sum(spec.q * w**2) * np.sum(spec.q * e**2)))
    min_corr = float(np.min(corrs))

    # higher-mode mass fraction under joint (h, gamma) refinement
    fracs = []
    for M, n in ((8, 16), (16, 16), (32, 16)):
        g = build_grid(2.0 * np.pi, M, n)
        eig0 = eig_gamma0(g, 6)
        p = project_to_element_modes(spec, eig0, g)
        fracs.append(float(np.max(p.fast_mass_fraction())))
    shrinking = fracs[0] > fracs[1] > fracs[2]

    ok = min_corr > 0.99 and shrinking and fracs[2] < 0.01
    assert _report(11, "noise projection consistency", ok,
                   f"min corr {min_corr:.5f}; fast-mass fractions {fracs}", t0)
    assert min_corr > 0.99
    assert shrinking
    assert fracs[2] < 0.01
