import ast
import ctypes
import functools
import inspect
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import holisde
from holisde import dynamics, harness, spectral
from holisde.dynamics import (
    BatchJob,
    CoupledElementSolver,
    FullSpdeSolver,
    NumericalAbort,
    SpdeConfig,
    initial_profile,
    run_batches,
)
from holisde.grid import ElementField, build_grid, inner_product, seminorm
from holisde.noise import QWienerSpec, fourier_basis, sample_global_path
from holisde.spectral import assemble_operator, eig_gamma, eig_gamma0


def slow_fast_decompose(state, eig):
    """Split a field into per-element slow amplitudes and the fast remainder.

    The slow direction on element j is the restriction of the designated
    ground eigenfield; amplitudes are a_j = <u_j, e_j> / ||e_j||^2, and the
    remainder is orthogonal element-wise, so recomposition is exact.
    """
    grid = state.grid
    shapes = eig.element_mode_shapes(grid)
    ground = shapes[0]                                     # (M, 2, n+1)
    mb = grid.mass_block
    num = np.einsum("mhi,ij,mhj->m", state.values, mb, ground)
    den = np.einsum("mhi,ij,mhj->m", ground, mb, ground)
    a = num / den
    fast = state.values - a[:, None, None] * ground
    return a, ElementField(fast, grid)


def simulate(solver, cfg, path, u0=None):
    """One job's final field, stepped by the block runner."""
    return run_batches([BatchJob(solver, cfg, path, u0)])[0]


def _quiet_path(spec, cfg, seed=0):
    return sample_global_path(spec, cfg.dt, cfg.n_steps, [seed])


def _batch(spec, cfg, members):
    return sample_global_path(spec, cfg.dt, cfg.n_steps, range(members))


def workspace(solver, cfg, members):
    """Work buffers and implicit reciprocal, repeated per (re, im) pair, of
    FullSpdeSolver.step for a batch."""
    return (np.empty((members, solver.n)), np.empty((members, solver.n // 2 + 1), dtype=complex),
            np.repeat(1.0 / (1.0 + cfg.dt * solver.symbol), 2))


def whole_batch_reference(solver, cfg, path):
    """Oracle: step the whole batch as one block with the solver's step, (n, R),
    gathering each step's increments member by member."""
    u0 = initial_profile(cfg.initial, solver.L)(solver.x)
    rows = list(path)
    u = np.repeat(u0[None, :], len(rows), axis=0)
    work = workspace(solver, cfg, len(rows))
    for i in range(cfg.n_steps):
        db = solver.sqrt_q[:, None] * np.stack([row[:, i] for row in rows], axis=-1)
        solver.step(u, cfg, solver.noise_increment(db), *work)
        if not np.all(np.isfinite(u)):
            return i, int(np.argmax(~np.isfinite(u).all(axis=1)))
    return u.T


def coupled_noise(solver, cfg, path, i):
    """The element noise increment, sigma included, of step i of a (R, K+1, n_steps) path."""
    return solver.noise_rhs(cfg.sigma * (solver.sqrt_q[:, None] * path[:, :, i].T))


def whole_batch_coupled(solver, cfg, path):
    """Oracle: step the whole batch as one block with the solver's step_reduced,
    (M, 2, n+1, R)."""
    c = np.repeat(solver.initial_reduced(cfg)[:, None], len(path), axis=1)
    work = solver.workspace(len(path))
    for i in range(cfg.n_steps):
        solver.step_reduced(c, cfg, coupled_noise(solver, cfg, path, i), work)
    return solver._batch_fields(c)


class Interrupted(Exception):
    pass


def interrupted_wait(pool):
    """A solver pool that starts every block on `pool`, then interrupts the wait."""
    class InterruptedWait:
        _max_workers = 2

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                pool.submit(fn, *args)
            raise Interrupted

    return InterruptedWait


# 7 members x 32768 nodes is 1.75 MiB: blocks of 2, 2 and 3 members
BLOCKED_N, BLOCKED_R = 32768, 7


def test_heat_decay_oracle(qspec):
    L = 2.0 * np.pi
    cfg = SpdeConfig(alpha=0.0, sigma=0.0, dt=1e-3, T=0.01)
    solver = FullSpdeSolver(L, 512, qspec)
    path = _quiet_path(qspec, cfg)
    u = np.sin(2.0 * np.pi * solver.x / L)[None, :]
    kappa2 = (2.0 * np.pi / L) ** 2
    v = u.copy()
    dw_hat = solver.noise_increment(solver.sqrt_q[:, None] * path[0, :, :1])
    solver.step(v, cfg, dw_hat, *workspace(solver, cfg, 1))
    factor = v[0, 10] / u[0, 10]
    assert abs(factor - np.exp(-kappa2 * cfg.dt)) < 5.0 * cfg.dt**2
    # the same factor per step through the runner, which steps alpha = 0 in rfft space
    factor = (simulate(solver, cfg, path, u[0])[10, 0] / u[0, 10]) ** (1.0 / cfg.n_steps)
    assert abs(factor - np.exp(-kappa2 * cfg.dt)) < 5.0 * cfg.dt**2


def test_zero_state_is_fixed_point(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.01,
                     initial={"kind": "zero"})
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    u = simulate(solver, cfg, _quiet_path(qspec, cfg))
    assert np.all(u[..., 0] == 0.0)


@pytest.mark.parametrize("ustar", [-1.0, 0.0, 1.0])
def test_cubic_roots_are_stationary(qspec, ustar):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.02,
                     initial={"kind": "constant", "amplitude": ustar})
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    u = simulate(solver, cfg, _quiet_path(qspec, cfg))
    assert np.allclose(u[..., 0], ustar, atol=1e-12)


def test_coupled_insulated_constants_are_stationary(grid8, qspec):
    # gamma = 0, alpha = sigma = 0: per-element constants sit in the kernel
    cfg = SpdeConfig(alpha=0.0, sigma=0.0, gamma=0.0, dt=1e-3, T=0.02)
    op = assemble_operator(grid8, 0.0)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    consts = np.arange(1.0, grid8.M + 1.0)
    vals = np.repeat(consts[:, None, None], 2, axis=1)
    vals = np.repeat(vals, grid8.subgrid_n + 1, axis=2)
    u0 = ElementField(vals, grid8)
    u = simulate(solver, cfg, _quiet_path(qspec, cfg), u0=u0)
    assert np.allclose(u[..., 0], vals, atol=1e-10)


def test_coupled_full_coupling_tracks_reference(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.3, gamma=1.0, dt=5e-4, T=0.05)
    op = assemble_operator(grid8, 1.0)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    fine = FullSpdeSolver(grid8.L, 2048, qspec)
    path = _quiet_path(qspec, cfg, seed=21)
    u = simulate(solver, cfg, path)
    ref = simulate(fine, cfg, path)
    # compare right-half centre values against the reference at grid points
    centres = u[..., 0][:, 0, -1]
    stride = 2048 // grid8.M
    ref_at_x = ref[..., 0][(stride * np.arange(1, grid8.M + 1)) % 2048]
    assert np.max(np.abs(centres - ref_at_x)) < 5e-3


def test_coupled_step_function_projects_state(grid8, qspec):
    cfg = SpdeConfig(alpha=0.5, sigma=0.2, gamma=0.6, dt=1e-3, T=0.01)
    op = assemble_operator(grid8, 0.6)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    path = _quiet_path(qspec, cfg, seed=4)
    u0 = ElementField(np.sin(grid8.all_nodes()), grid8)
    c = solver.initial_reduced(cfg, u0)[:, None]
    solver.step_reduced(c, cfg, coupled_noise(solver, cfg, path, 0), solver.workspace(1))
    vals = solver._batch_fields(c)[..., 0]
    centres = vals[:, 0, -1]
    assert np.max(np.abs(centres - vals[:, 1, 0])) <= 1e-9     # centre copies agree
    # coupling value conditions hold after the step
    rhs = 0.4 * centres + 0.6 * np.roll(centres, -1)
    assert np.allclose(vals[:, 1, -1], rhs, atol=1e-9)


def injection(grid, gamma):
    """Oracle Z, (M 2 (n+1), nred): the nodal values of reduced coordinates in
    the solver's order (each half's interior nodes, element by element, then
    the M centre values), written from the value conditions."""
    M, n = grid.M, grid.subgrid_n
    m = 2 * M * (n - 1)
    Z = np.zeros((M, 2, n + 1, m + M))
    Z[:, :, 1:n, :m] = np.eye(m).reshape(M, 2, n - 1, m)
    for j in range(M):
        Z[j, 0, n, m + j] = Z[j, 1, 0, m + j] = 1.0         # both copies of u_j(X_j)
        Z[j, 0, 0, m + j] = Z[j, 1, n, m + j] = 1.0 - gamma  # u_j(X_{j-+1}) = gamma' u_j(X_j)
        Z[j, 0, 0, m + (j - 1) % M] += gamma                 #   + gamma u_{j-+1}(X_{j-+1})
        Z[j, 1, n, m + (j + 1) % M] += gamma
    return Z.reshape(-1, m + M)


def galerkin(grid, Z, block):
    """Oracle Z^T (I x block) Z, block a half-element matrix."""
    return Z.T @ np.kron(np.eye(2 * grid.M), block) @ Z


@pytest.mark.parametrize("M, subgrid_n, gamma", [(3, 8, 0.0), (3, 64, 1.0), (4, 8, 0.3),
                                                (8, 16, 0.5), (8, 32, 1.0), (5, 64, 0.9)])
def test_condensed_step_matches_splu(qspec, M, subgrid_n, gamma):
    # oracle: M_red c + Z^T (I x mb) (dt reaction + noise) solved densely
    grid = build_grid(2.0 * np.pi, M, subgrid_n)
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=gamma, dt=1e-3, T=0.01)
    solver = CoupledElementSolver(assemble_operator(grid, gamma), qspec, cfg.dt)
    Z = injection(grid, gamma)
    ZtM = Z.T @ np.kron(np.eye(2 * M), grid.mass_block)
    A = galerkin(grid, Z, grid.mass_block + cfg.dt * grid.stiffness_block)
    rng = np.random.default_rng(M * subgrid_n)
    for R in (1, 2, 64):
        c = rng.standard_normal((len(Z.T), R))
        noise = rng.standard_normal((M, 2, subgrid_n + 1, R))
        u = Z @ c
        weak = ZtM @ (u + cfg.dt * cfg.alpha * (cfg.gamma**2 * u - u * u * u)
                      + noise.reshape(len(Z), R))
        want = np.linalg.solve(A, weak)
        got = c.copy()
        solver.step_reduced(got, cfg, noise, solver.workspace(R))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        fields = (Z @ got).reshape(M, 2, subgrid_n + 1, R)
        assert np.max(np.abs(solver._batch_fields(got) - fields)) <= 1e-15 * np.max(np.abs(got))
    u0 = ElementField(rng.standard_normal(grid.all_nodes().shape), grid)
    want = np.linalg.solve(ZtM @ Z, ZtM @ u0.values.ravel())
    assert np.max(np.abs(solver.initial_reduced(cfg, u0) - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("gamma", [0.0, 0.6, 1.0])
def test_half_blocks_rebuild_the_reduced_matrix(grid8, gamma):
    # the operator's condensed action, from the half-element blocks and the
    # value conditions alone, against -M_red^-1 K_red c of Z^T (I x B) Z
    op = assemble_operator(grid8, gamma)
    Z = injection(grid8, gamma)
    c = np.random.default_rng(5).standard_normal(len(Z.T))
    want = -np.linalg.solve(galerkin(grid8, Z, grid8.mass_block),
                            galerkin(grid8, Z, grid8.stiffness_block) @ c)
    assert np.max(np.abs(op.apply_reduced(c) - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(op.field_from_reduced(c).values.ravel() - Z @ c)) <= 1e-15 * np.max(np.abs(c))


def test_fast_mode_relaxation_rate(grid8, qspec):
    # insulated, noise-free: a level-1 mode decays at exactly 2 lambda_1 in energy
    cfg = SpdeConfig(alpha=0.0, sigma=0.0, gamma=0.0, dt=2e-5, T=2e-3)
    op = assemble_operator(grid8, 0.0)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    eig0 = eig_gamma0(grid8, 2)
    vals = np.broadcast_to(eig0.local_shapes[1], (grid8.M, 2, grid8.subgrid_n + 1)).copy()
    u0 = ElementField(vals, grid8)
    start = op.field_from_reduced(op.reduce(u0)).values
    end = simulate(solver, cfg, _quiet_path(qspec, cfg), u0=u0)[..., 0]
    lam1 = np.pi**2 / grid8.h**2
    e0 = np.einsum("mhi,ij,mhj->", start, grid8.mass_block, start)
    e1 = np.einsum("mhi,ij,mhj->", end, grid8.mass_block, end)
    t_span = cfg.T
    rate = -np.log(e1 / e0) / t_span
    assert rate == pytest.approx(2.0 * lam1, rel=0.02)


def test_slow_fast_decompose_eigenvector(grid8, qspec):
    eig = eig_gamma(assemble_operator(grid8, 0.3), 4)
    c = 0.7
    state = ElementField(c * eig.fields[0], grid8)
    a, fast = slow_fast_decompose(state, eig)
    assert np.allclose(a, c, rtol=1e-10)
    assert seminorm(fast, 0) < 1e-10


def test_slow_fast_decompose_orthogonal_state(grid8):
    eig0 = eig_gamma0(grid8, 2)
    vals = np.zeros((grid8.M, 2, grid8.subgrid_n + 1))
    vals[2] = eig0.local_shapes[1]
    state = ElementField(vals, grid8)  # a pure fast mode on one element
    a, fast = slow_fast_decompose(state, eig0)
    assert np.allclose(a, 0.0, atol=1e-12)
    assert np.allclose(fast.values, state.values)


def test_slow_fast_pythagoras(grid8, rng):
    eig = eig_gamma(assemble_operator(grid8, 0.2), 4)
    state = ElementField(rng.standard_normal((grid8.M, 2, grid8.subgrid_n + 1)), grid8)
    a, fast = slow_fast_decompose(state, eig)
    shapes = eig.element_mode_shapes(grid8)
    slow_vals = a[:, None, None] * shapes[0]
    slow = ElementField(slow_vals, grid8)
    # recomposition is exact, split is orthogonal
    assert np.allclose(slow.values + fast.values, state.values, atol=1e-12)
    total = inner_product(state, state)
    parts = inner_product(slow, slow) + inner_product(fast, fast)
    assert total == pytest.approx(parts, rel=1e-10)


def test_trajectory_determinism(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.4, gamma=0.8, dt=1e-3, T=0.02)
    op = assemble_operator(grid8, 0.8)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    u1 = simulate(solver, cfg, _quiet_path(qspec, cfg, seed=33))
    u2 = simulate(solver, cfg, _quiet_path(qspec, cfg, seed=33))
    assert np.array_equal(u1[..., 0], u2[..., 0])


def test_coupled_member_replays_bitwise_as_a_batch_of_one(grid8, qspec):
    # every coupled product runs on the members padded to a multiple of 8 columns
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, gamma=0.9, dt=1e-3, T=0.01)
    solver = CoupledElementSolver(assemble_operator(grid8, 0.9), qspec, cfg.dt)
    path = _batch(qspec, cfg, 11)
    whole = simulate(solver, cfg, path)
    for r in (0, 5, 10):
        assert np.array_equal(simulate(solver, cfg, path[r : r + 1])[..., 0], whole[..., r])


def test_reference_member_replays_bitwise_as_a_batch_of_one(qspec):
    # a one-member noise product is padded to two members, whose GEMM rounds a row alike
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.01)
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    path = _batch(qspec, cfg, 11)
    whole = simulate(solver, cfg, path)
    for r in (0, 5, 10):
        assert np.array_equal(simulate(solver, cfg, path[r : r + 1])[:, 0], whole[:, r])


def test_linear_mode_variance_calibration(qspec):
    # alpha = 0: each Fourier mode is an OU process; the simulated stationary
    # variance of a low mode must match sigma^2 q_k / (2 kappa^2) within MC error
    L = 2.0 * np.pi
    sigma = 0.5
    cfg = SpdeConfig(alpha=0.0, sigma=sigma, dt=2e-3, T=6.0,
                     initial={"kind": "zero"})
    solver = FullSpdeSolver(L, 128, qspec)
    R = 48
    path = sample_global_path(qspec, cfg.dt, cfg.n_steps, [1000 + r for r in range(R)])
    finals = simulate(solver, cfg, path).T          # (R, n)
    coeff = (finals @ np.sin(solver.x)) * (L / solver.n) * np.sqrt(2.0 / L)
    k = 1                                            # sin(2 pi x / L) mode
    kappa2 = (2.0 * np.pi / L) ** 2
    target = sigma**2 * qspec.q[k] / (2.0 * kappa2)
    var = np.var(coeff, ddof=1)
    se = var * np.sqrt(2.0 / (R - 1))
    assert abs(var - target) < 3.0 * se + 0.05 * target


def test_slow_amplitude_stays_small_on_slow_timescale(grid8, qspec):
    # amplitudes initialized at O(gamma) stay O(gamma) up to t = T/gamma^2
    results = {}
    for g in (0.45, 0.3):
        T = 0.08 / g**2
        cfg = SpdeConfig(alpha=1.0, sigma=0.2, gamma=g, dt=1e-3, T=T,
                         initial={"kind": "sine", "amplitude": 0.5 * g, "mode": 1})
        op = assemble_operator(grid8, g)
        solver = CoupledElementSolver(op, qspec, cfg.dt)
        path = _quiet_path(qspec, cfg, seed=8)
        eig = eig_gamma(op, 2)
        c = solver.initial_reduced(cfg)[:, None]
        work = solver.workspace(1)
        max_amp = 0.0
        for i in range(cfg.n_steps):
            solver.step_reduced(c, cfg, coupled_noise(solver, cfg, path, i), work)
            if i % 20 == 0:
                field = ElementField(solver._batch_fields(c)[..., 0], grid8)
                a, _ = slow_fast_decompose(field, eig)
                max_amp = max(max_amp, np.max(np.abs(a)))
        results[g] = max_amp / g
    assert all(v < 3.0 for v in results.values())


def test_fast_moment_matches_stationary_ou_as_coupling_vanishes(grid8, qspec):
    # linear configuration: the fast-component second moment, normalized by
    # gamma^2, settles to a coupling-independent limit as gamma -> 0
    from holisde.spectral import eig_gamma0

    eig0 = eig_gamma0(grid8, 2)
    moments = {}
    for g in (0.5, 0.25, 0.125):
        cfg = SpdeConfig(alpha=0.0, sigma=0.5, gamma=g, dt=5e-4, T=0.4,
                         initial={"kind": "zero"})
        op = assemble_operator(grid8, g)
        solver = CoupledElementSolver(op, qspec, cfg.dt)
        acc, count = 0.0, 0
        for r in range(4):
            path = sample_global_path(qspec, cfg.dt, cfg.n_steps, [500 + r])
            c = solver.initial_reduced(cfg)[:, None]
            work = solver.workspace(1)
            for i in range(cfg.n_steps):
                solver.step_reduced(c, cfg, coupled_noise(solver, cfg, path, i), work)
                if i > cfg.n_steps // 2 and i % 40 == 0:
                    field = ElementField(solver._batch_fields(c)[..., 0], grid8)
                    _, fast = slow_fast_decompose(field, eig0)
                    acc += inner_product(fast, fast)
                    count += 1
        moments[g] = acc / count / g**2
    vals = [moments[g] for g in (0.5, 0.25, 0.125)]
    gaps = [abs(vals[0] - vals[1]), abs(vals[1] - vals[2])]
    assert gaps[1] < gaps[0]  # Cauchy-decreasing toward the stationary limit


def test_config_validation():
    with pytest.raises(ValueError):
        SpdeConfig(dt=-1.0)
    with pytest.raises(ValueError):
        SpdeConfig(gamma=1.5)
    with pytest.raises(ValueError, match="finite step count"):
        SpdeConfig(dt=1e-320, T=1.0)
    with pytest.raises(ValueError):
        initial_profile({"kind": "nope"}, 1.0)


@pytest.mark.parametrize("n_fine", [256, 16])
def test_rfft_noise_matches_sampled_basis(n_fine):
    # 33 modes reach bin 16: unaliased on 256 nodes, folded onto bins <= 8 on 16
    spec = QWienerSpec.from_decay(33, 3.0)
    L = 2.0 * np.pi
    solver = FullSpdeSolver(L, n_fine, spec)
    db = solver.sqrt_q[:, None] * np.random.default_rng(5).standard_normal((33, 3))
    direct = np.tensordot(db, fourier_basis(solver.x, 33, L), axes=(0, 0))   # (3, n)
    hat = solver.noise_increment(db)
    field = np.fft.irfft(np.pad(hat, [(0, 0), (0, n_fine // 2 + 1 - hat.shape[-1])]), n=n_fine,
                         axis=-1)
    assert np.max(np.abs(field - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_reference_reciprocal_is_the_implicit_division(qspec):
    # oracle: the step as first written, dividing the rfft bins by 1 + dt symbol
    cfg = SpdeConfig(alpha=0.7, sigma=0.5, dt=1e-3, T=0.005)
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    path = _batch(qspec, cfg, 3)
    u = np.repeat(initial_profile(cfg.initial, solver.L)(solver.x)[None, :], 3, axis=0)
    denom = 1.0 + cfg.dt * solver.symbol
    for i in range(cfg.n_steps):
        dw_hat = solver.noise_increment(solver.sqrt_q[:, None] * path[:, :, i].T)
        rhat = np.fft.rfft(u + cfg.dt * (cfg.alpha * (u - u * u * u)), axis=-1)
        rhat[:, : dw_hat.shape[-1]] += cfg.sigma * dw_hat
        u = np.fft.irfft(rhat / denom, n=solver.n, axis=-1)
    assert np.array_equal(simulate(solver, cfg, path), u.T)


def test_reference_simulate_batch_shape(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    solver = FullSpdeSolver(2.0 * np.pi, 64, qspec)
    u = simulate(solver, cfg, _batch(qspec, cfg, 3))
    assert u.shape == (64, 3)


def test_abort_names_first_nonfinite_member(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    path = _batch(qspec, cfg, 3)
    path[1] *= 1e200
    solvers = (FullSpdeSolver(grid8.L, 64, qspec),
               CoupledElementSolver(assemble_operator(grid8, 1.0), qspec, cfg.dt))
    for solver in solvers:
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
            simulate(solver, cfg, path)
        assert err.value.member == 1
        assert err.value.step == 1


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_blocked_reference_matches_whole_batch(qspec, monkeypatch, solver_pool, workers):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.004)
    solver = FullSpdeSolver(2.0 * np.pi, BLOCKED_N, qspec)
    path = _batch(qspec, cfg, BLOCKED_R)
    want = whole_batch_reference(solver, cfg, path)
    rows, step = [], solver.step
    monkeypatch.setattr(solver, "step", lambda u, *args: (rows.append(len(u)), step(u, *args)))
    with solver_pool(workers):
        got = simulate(solver, cfg, path)
    assert np.array_equal(got, want)
    assert sorted(rows) == [2] * 2 * cfg.n_steps + [3] * cfg.n_steps


def round_trip_tol(solver, cfg, path):
    """Per member, how far the runner's alpha = 0 fields may sit from the oracle's.

    The oracle's steps differ from the runner's by one irfft-rfft round trip
    per step, and in the bins no noise reaches by one product inv^n_steps for
    n_steps products by inv.  Each transform errs by at most about log2(n) eps
    times the field's 2-norm, and the factor 1 / (1 + dt symbol) <= 1 only
    damps what earlier steps left, so a member's final fields differ by at
    most n_steps 2 log2(n) eps times its largest 2-norm over the steps.
    """
    u0 = initial_profile(cfg.initial, solver.L)(solver.x)
    norms = [np.full(len(path), np.linalg.norm(u0))]
    norms += [np.linalg.norm(whole_batch_reference(solver, replace(cfg, T=k * cfg.dt), path),
                             axis=0) for k in range(1, cfg.n_steps + 1)]
    return cfg.n_steps * 2 * np.log2(solver.n) * np.finfo(float).eps * np.max(norms, axis=0)


@pytest.mark.parametrize("workers", [1, 8])
@pytest.mark.parametrize("n_fine, blocks", [(64, 1), (BLOCKED_N, 1)])
def test_linear_reference_steps_in_fourier_space(qspec, monkeypatch, solver_pool,
                                                 n_fine, blocks, workers):
    # at alpha = 0 the runner steps each block's spectrum: one rfft per block,
    # one irfft per job, no transform per step; a lone job fills the pool, in
    # at least `workers` blocks of two members or more.  A block steps only
    # the nb noise bins, 16 nb bytes a member, so at both sizes all members
    # fit one L2 block and the pool's width sets the count.
    blocks = max(blocks, min(workers, BLOCKED_R // 2))
    cfg = SpdeConfig(alpha=0.0, sigma=0.5, dt=1e-3, T=0.004)
    solver = FullSpdeSolver(2.0 * np.pi, n_fine, qspec)
    path = _batch(qspec, cfg, BLOCKED_R)
    want = whole_batch_reference(solver, cfg, path)
    tol = round_trip_tol(solver, cfg, path)
    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, lambda *a, _name=name, _fft=getattr(np.fft, name), **kw:
                            calls.append(_name) or _fft(*a, **kw))
    with solver_pool(workers):
        got = simulate(solver, cfg, path)
    assert sorted(calls) == ["irfft"] + ["rfft"] * blocks
    assert np.all(np.linalg.norm(got - want, axis=0) <= tol)


def test_linear_reference_decays_the_bins_above_the_noise_once(monkeypatch):
    # 33 modes reach bin 16 (nb = 17); a sine of mode 20 puts the field's
    # content in a bin no noise reaches, which the runner multiplies once by
    # inv^n_steps when it takes the block's rfft.  Four steps leave a quarter
    # of that bin, far above round-off.
    spec = QWienerSpec.from_decay(33, 3.0)
    cfg = SpdeConfig(alpha=0.0, sigma=0.5, dt=1e-3, T=0.004, initial={"kind": "sine", "mode": 20})
    solver = FullSpdeSolver(2.0 * np.pi, 256, spec)
    assert solver.basis_hat.shape[1] == 17
    path = _batch(spec, cfg, BLOCKED_R)
    want, tol = whole_batch_reference(solver, cfg, path), round_trip_tol(solver, cfg, path)
    spectra, irfft = [], np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda a, *args, **kw: spectra.append(a.copy())
                        or irfft(a, *args, **kw))
    got = simulate(solver, cfg, path)
    assert np.all(np.linalg.norm(got - want, axis=0) <= tol)
    u0 = initial_profile(cfg.initial, solver.L)(solver.x)
    inv = 1.0 / (1.0 + cfg.dt * solver.symbol)
    bin20 = np.fft.rfft(u0)[20] * inv[20] ** cfg.n_steps
    assert abs(bin20) > 0.2 * abs(np.fft.rfft(u0)[20])
    assert np.all(np.abs(spectra[-1][:, 20] - bin20) <= 4 * np.finfo(float).eps * abs(bin20))


def test_noise_rows_do_not_depend_on_layout_or_width(qspec):
    # the runner's blocks and a member replayed alone rest on this: a
    # member's row of the noise product has the same bits at every width
    # and for a C-ordered, F-ordered or strided db
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    path = solver.sqrt_q[:, None] * np.random.default_rng(4).standard_normal((30, qspec.n_modes, 3))
    want = solver.noise_increment(np.ascontiguousarray(path[:, :, 1].T))
    for width in (2, 3, 8, 9, 30):
        view = path[:width, :, 1].T
        for db in (np.ascontiguousarray(view), np.asfortranarray(view), view):
            assert np.array_equal(solver.noise_increment(db), want[:width])
    one = path[:1, :, 1].T
    padded = solver.noise_increment(np.hstack([one, np.zeros_like(one)]))
    assert np.array_equal(solver.noise_increment(one), padded[:1])
    assert np.array_equal(padded[:1], want[:1])


def test_solver_pool_pins_blas_to_one_thread(qspec, monkeypatch):
    # the workers are the parallelism: the pool pins numpy's OpenBLAS when it starts
    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    blas.scipy_openblas_set_num_threads64_(2)
    monkeypatch.setattr(dynamics, "_pool", functools.cache(dynamics._pool.__wrapped__))
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.002)
    try:
        simulate(FullSpdeSolver(2.0 * np.pi, 64, qspec), cfg, _batch(qspec, cfg, 2))
        assert blas.scipy_openblas_get_num_threads64_() == 1
    finally:
        dynamics._pool().shutdown(wait=True)


def test_blocked_reference_stops_when_the_caller_stops_waiting(qspec, monkeypatch):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.2)
    solver = FullSpdeSolver(2.0 * np.pi, BLOCKED_N, qspec)
    path = _batch(qspec, cfg, BLOCKED_R)
    rows, step = [], solver.step
    monkeypatch.setattr(solver, "step", lambda u, *args: (rows.append(len(u)), step(u, *args)))
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(dynamics, "_pool", interrupted_wait(pool))
    with pytest.raises(Interrupted):
        simulate(solver, cfg, path)
    pool.shutdown(wait=True)
    assert sum(rows) < BLOCKED_R * cfg.n_steps // 4      # member steps taken


def test_coupled_job_stops_when_the_caller_stops_waiting(grid8, qspec, monkeypatch):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=1.0)
    solver = CoupledElementSolver(assemble_operator(grid8, 1.0), qspec, cfg.dt)
    path = _batch(qspec, cfg, 64)
    steps, step = [], solver.step_reduced
    monkeypatch.setattr(solver, "step_reduced", lambda *args: (steps.append(1), step(*args)))
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(dynamics, "_pool", interrupted_wait(pool))
    with pytest.raises(Interrupted):
        simulate(solver, cfg, path)
    pool.shutdown(wait=True)
    assert len(steps) < cfg.n_steps // 4


# 80 members: the reference (1024 nodes) and every gamma batch (M = 8,
# n = 64) split into two blocks, the sigma = 0 pair are batches of one
GAP_CFG = dict(M=8, subgrid_n=64, n_modes=17, dt=1e-3, T=0.004, ensemble=80, n_fine=1024)


def serial_coupling_gap(cfg, gammas):
    """Oracle: the coupling-gap study's (ms_gap, det_gap) with every batch
    stepped whole, one after another on the calling thread."""
    grid, spec, spde0 = cfg.grid(), cfg.qwiener(), cfg.spde()
    path = sample_global_path(spec, spde0.dt, spde0.n_steps,
                              harness.member_seeds(cfg.master_seed, range(cfg.ensemble), 0))
    fine = FullSpdeSolver(grid.L, cfg.n_fine, spec)

    def gap(spde, path, ref):
        solver = CoupledElementSolver(assemble_operator(grid, spde.gamma), spec, spde.dt)
        field = whole_batch_coupled(solver, spde, path)
        return harness._right_half_gap(field, harness._right_half_values(ref, grid), grid)

    ref = whole_batch_reference(fine, spde0, path)
    ms = np.mean(np.stack([gap(cfg.spde(gamma=g), path, ref) for g in gammas]) ** 2, axis=1)
    det, one = cfg.spde(gamma=1.0, sigma=0.0), path[:1]
    return ms, gap(det, one, whole_batch_reference(fine, det, one))[0]


# the gamma batches of 80 members on 2,040 reduced unknowns (n = 128) split
# into three blocks of 26 or 27, widths that are not multiples of 8
GAP_CFG_ODD = dict(GAP_CFG, subgrid_n=128)


@pytest.mark.parametrize("workers, gap_cfg", [
    *(pytest.param(w, GAP_CFG, id=str(w)) for w in (None, 1, 8)),
    *(pytest.param(w, GAP_CFG_ODD, id=f"{w}-odd-blocks") for w in (None, 1, 8)),
])
def test_coupling_gap_study_matches_serial_oracle(solver_pool, workers, gap_cfg):
    cfg = harness.RunConfig(**gap_cfg)
    gammas = np.array([0.9, 0.99, 1.0])
    ms, det = serial_coupling_gap(cfg, gammas)
    with solver_pool(workers):
        got = harness.convergence_study(cfg, "coupling-gap", gammas).metrics
    assert np.array_equal(got["ms_gap"], ms)
    assert np.array_equal(got["det_gap"], np.full(3, det))


def test_coupling_gap_study_makes_one_runner_call(monkeypatch):
    # the reference, then the gamma batches, then the sigma = 0 pair: the serial order
    cfg = harness.RunConfig(**GAP_CFG)
    gammas = np.array([0.9, 0.99, 1.0])
    with monkeypatch.context() as m:        # oracle: the reference alone, then the rest
        m.setattr(harness, "run_batches",
                  lambda jobs: run_batches(jobs[:1]) + run_batches(jobs[1:]))
        want = harness.convergence_study(cfg, "coupling-gap", gammas).metrics
    calls = []
    for module in (harness, dynamics):
        monkeypatch.setattr(module, "run_batches",
                            lambda jobs: calls.append(jobs) or run_batches(jobs))
    got = harness.convergence_study(cfg, "coupling-gap", gammas).metrics
    assert len(calls) == 1
    assert [(type(job.solver).__name__, len(job.path)) for job in calls[0]] == (
        [("FullSpdeSolver", cfg.ensemble)] + [("CoupledElementSolver", cfg.ensemble)] * 3
        + [("FullSpdeSolver", 1), ("CoupledElementSolver", 1)])
    assert list(got) == list(want)
    assert all(np.array_equal(got[name], want[name]) for name in want)


def test_runner_raises_the_first_aborting_job(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.006)
    solver = CoupledElementSolver(assemble_operator(grid8, 1.0), qspec, cfg.dt)
    first, second = _batch(qspec, cfg, 3), _batch(qspec, cfg, 3)
    # a huge increment at step k - 1 overflows the cube at step k
    first[2, :, 3] *= 1e200
    second[1, :, 0] *= 1e200
    with np.errstate(all="ignore"):
        for path, want in ((first, (4, 2)), (second, (1, 1))):      # one job at a time
            with pytest.raises(NumericalAbort) as err:
                simulate(solver, cfg, path)
            assert (err.value.step, err.value.member) == want
        with pytest.raises(NumericalAbort) as err:
            run_batches([BatchJob(solver, cfg, first), BatchJob(solver, cfg, second)])
    assert (err.value.step, err.value.member) == (4, 2)


def test_runner_abort_keeps_the_finished_jobs_fields(qspec):
    # the first aborting job in list order raises: a later job's earlier abort does not count
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.006)
    solver = FullSpdeSolver(2.0 * np.pi, 64, qspec)
    paths = [sample_global_path(qspec, cfg.dt, cfg.n_steps, [10 * j, 10 * j + 1]) for j in range(4)]
    paths[2][1, :, 2] *= 1e200
    paths[3][0, :, 0] *= 1e200
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        run_batches([BatchJob(solver, cfg, path) for path in paths])
    assert (err.value.step, err.value.member) == (3, 1)


def test_runner_refuses_to_run_on_a_pool_worker(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.002)
    job = BatchJob(FullSpdeSolver(2.0 * np.pi, 64, qspec), cfg, _batch(qspec, cfg, 2))
    nested = dynamics._pool().submit(run_batches, [job])
    with pytest.raises(RuntimeError, match="pool worker"):
        nested.result(timeout=60)


def test_blocked_abort_names_earliest_step_then_member(qspec):
    solver = FullSpdeSolver(2.0 * np.pi, BLOCKED_N, qspec)
    # at alpha = 1 members 1, 2 and 5 sit in the first, second and third L2
    # block; at alpha = 0 the noise bins fit one, so the pool's width sets the
    # count (on two workers, 1 and 2 share the first block and 5 sits in the
    # second).  A huge increment at step k - 1 overflows the cube at step k,
    # and with no cube (alpha = 0) nothing overflows, so an infinite one
    # aborts at step k - 1
    for alpha, scale, step in ((1.0, 1e200, 2), (0.0, np.inf, 1)):
        cfg = SpdeConfig(alpha=alpha, sigma=0.5, dt=1e-3, T=0.006)
        path = _batch(qspec, cfg, BLOCKED_R)
        for member, k in ((1, 4), (2, 2), (5, 2)):
            path[member, :, k - 1] *= scale
        for want in ((step, 2), (step, 5)):
            with np.errstate(all="ignore"):
                assert whole_batch_reference(solver, cfg, path) == want
                with pytest.raises(NumericalAbort) as err:
                    simulate(solver, cfg, path)
            assert (err.value.step, err.value.member) == want
            path[2] = _quiet_path(qspec, cfg, seed=2)[0]


@pytest.mark.parametrize("members", [1, 3])
def test_coupled_maps_match_einsum_oracle(grid8, qspec, members):
    solver = CoupledElementSolver(assemble_operator(grid8, 0.7), qspec, 1e-3)
    rng = np.random.default_rng(8)
    db = solver.sqrt_q[:, None] * rng.standard_normal((qspec.n_modes, members))
    basis = fourier_basis(np.mod(grid8.all_nodes(), grid8.L), qspec.n_modes, grid8.L)
    want = 0.7 * np.einsum("kr,kmhi->mhir", db, basis)
    assert np.max(np.abs(solver.noise_rhs(db) - want)) <= 1e-13 * np.max(np.abs(want))


def test_no_cube_by_pow():
    # `x**3` takes numpy's generic pow loop; every cube is written x * x * x
    src = Path(holisde.__file__).parent
    hits = [f"{p.name}:{i}" for p in sorted(src.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(r"\*\*\s*3", line)]
    assert hits == []


def test_gemm_padding_has_one_home():
    # the members' mod-8 padding is spelled once, in `spectral._gemm_width`
    src, pad = Path(holisde.__file__).parent, re.compile(r"//\s*8\s*\)\s*\*\s*8")
    hits = [p.name for p in sorted(src.glob("*.py")) for line in p.read_text().splitlines()
            if pad.search(line)]
    assert hits == ["spectral.py"] and pad.search(inspect.getsource(spectral._gemm_width))


def test_solver_pool_has_one_home():
    # only `dynamics` reads the solver pool or its width: the runner fills the pool
    src, pool = Path(holisde.__file__).parent, {"_pool", "_max_workers", "pool_width"}
    readers = {p.name for p in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(p.read_text()))
               if pool & {getattr(node, a, None) for a in ("id", "attr", "name")}}
    assert readers == {"dynamics.py"}
