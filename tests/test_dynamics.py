import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import holisde
from holisde import dynamics, harness
from holisde.dynamics import (
    BatchJob,
    CoupledElementSolver,
    FullSpdeSolver,
    NumericalAbort,
    SpdeConfig,
    initial_profile,
    run_batches,
)
from holisde.grid import ElementField, inner_product, seminorm
from holisde.noise import NoisePath, QWienerSpec, fourier_basis, sample_global_path
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


def _quiet_path(spec, cfg, seed=0):
    return sample_global_path(spec, cfg.times(), [seed])


def _batch(spec, cfg, members):
    return sample_global_path(spec, cfg.times(), range(members))


def workspace(solver, cfg, members):
    """Work buffers and implicit denominator of FullSpdeSolver.step for a batch."""
    return (np.empty((members, solver.n)), np.empty((members, solver.n // 2 + 1), dtype=complex),
            1.0 + cfg.dt * solver.symbol)


def cube_buffer(solver, c):
    """The nodal work buffer of CoupledElementSolver.step_reduced for a reduced state c."""
    return np.empty(solver.nodal_shape + c.shape[1:])


def whole_batch_reference(solver, cfg, path):
    """Oracle: step the whole batch as one block with the solver's step, (n, R),
    gathering each step's increments member by member."""
    u0 = initial_profile(cfg.initial, solver.L)(solver.x)
    rows = list(path.increments)
    u = np.repeat(u0[None, :], len(rows), axis=0)
    work = workspace(solver, cfg, len(rows))
    for i in range(cfg.n_steps):
        db = solver.sqrt_q[:, None] * np.stack([row[:, i] for row in rows], axis=-1)
        solver.step(u, cfg, solver.noise_increment(db), *work)
        if not np.all(np.isfinite(u)):
            return i, int(np.argmax(~np.isfinite(u).all(axis=1)))
    return u.T


def whole_batch_coupled(solver, cfg, path):
    """Oracle: step the whole batch as one block with the solver's step_reduced,
    (M, 2, n+1, R)."""
    c = np.repeat(solver.initial_reduced(cfg)[:, None], len(path.increments), axis=1)
    cube = cube_buffer(solver, c)
    for i in range(cfg.n_steps):
        db = solver.sqrt_q[:, None] * path.increments[:, :, i].T
        solver.step_reduced(c, cfg, solver.noise_rhs(db), cube)
    return (solver.op.Z @ c).reshape(solver.nodal_shape + (-1,))


class Interrupted(Exception):
    pass


def interrupted_wait(pool):
    """A solver pool that starts every block on `pool`, then interrupts the wait."""
    class InterruptedWait:
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
    dw_hat = solver.noise_increment(solver.sqrt_q[:, None] * path.increments[0, :, :1])
    solver.step(v, cfg, dw_hat, *workspace(solver, cfg, 1))
    factor = v[0, 10] / u[0, 10]
    assert abs(factor - np.exp(-kappa2 * cfg.dt)) < 5.0 * cfg.dt**2


def test_zero_state_is_fixed_point(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.01,
                     initial={"kind": "zero"})
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    u = solver.simulate(cfg, _quiet_path(qspec, cfg))
    assert np.all(u[..., 0] == 0.0)


@pytest.mark.parametrize("ustar", [-1.0, 0.0, 1.0])
def test_cubic_roots_are_stationary(qspec, ustar):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.02,
                     initial={"kind": "constant", "amplitude": ustar})
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    u = solver.simulate(cfg, _quiet_path(qspec, cfg))
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
    u = solver.simulate(cfg, _quiet_path(qspec, cfg), u0=u0)
    assert np.allclose(u[..., 0], vals, atol=1e-10)


def test_coupled_full_coupling_tracks_reference(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.3, gamma=1.0, dt=5e-4, T=0.05)
    op = assemble_operator(grid8, 1.0)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    fine = FullSpdeSolver(grid8.L, 2048, qspec)
    path = _quiet_path(qspec, cfg, seed=21)
    u = solver.simulate(cfg, path)
    ref = fine.simulate(cfg, path)
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
    c = op.reduce(u0)
    solver.step_reduced(c, cfg, solver.noise_rhs(solver.sqrt_q * path.increments[0, :, 0]),
                        cube_buffer(solver, c))
    vals = op.field_from_reduced(c).values
    centres = vals[:, 0, -1]
    assert np.max(np.abs(centres - vals[:, 1, 0])) <= 1e-9     # centre copies agree
    # coupling value conditions hold after the step
    rhs = 0.4 * centres + 0.6 * np.roll(centres, -1)
    assert np.allclose(vals[:, 1, -1], rhs, atol=1e-9)


def test_fast_mode_relaxation_rate(grid8, qspec):
    # insulated, noise-free: a level-1 mode decays at exactly 2 lambda_1 in energy
    cfg = SpdeConfig(alpha=0.0, sigma=0.0, gamma=0.0, dt=2e-5, T=2e-3)
    op = assemble_operator(grid8, 0.0)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    eig0 = eig_gamma0(grid8, 2)
    vals = np.broadcast_to(eig0.local_shapes[1], (grid8.M, 2, grid8.subgrid_n + 1)).copy()
    u0 = ElementField(vals, grid8)
    start = op.field_from_reduced(op.reduce(u0)).values
    end = solver.simulate(cfg, _quiet_path(qspec, cfg), u0=u0)[..., 0]
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
    u1 = solver.simulate(cfg, _quiet_path(qspec, cfg, seed=33))
    u2 = solver.simulate(cfg, _quiet_path(qspec, cfg, seed=33))
    assert np.array_equal(u1[..., 0], u2[..., 0])


def test_linear_mode_variance_calibration(qspec):
    # alpha = 0: each Fourier mode is an OU process; the simulated stationary
    # variance of a low mode must match sigma^2 q_k / (2 kappa^2) within MC error
    L = 2.0 * np.pi
    sigma = 0.5
    cfg = SpdeConfig(alpha=0.0, sigma=sigma, dt=2e-3, T=6.0,
                     initial={"kind": "zero"})
    solver = FullSpdeSolver(L, 128, qspec)
    R = 48
    path = sample_global_path(qspec, cfg.times(), [1000 + r for r in range(R)])
    finals = solver.simulate(cfg, path).T           # (R, n)
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
        c = solver.initial_reduced(cfg)
        cube = cube_buffer(solver, c)
        max_amp = 0.0
        for i in range(path.n_steps):
            solver.step_reduced(c, cfg, solver.noise_rhs(solver.sqrt_q * path.increments[0, :, i]),
                                cube)
            if i % 20 == 0:
                field = solver.op.field_from_reduced(c)
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
            path = sample_global_path(qspec, cfg.times(), [500 + r])
            c = solver.initial_reduced(cfg)
            cube = cube_buffer(solver, c)
            for i in range(path.n_steps):
                solver.step_reduced(c, cfg,
                                    solver.noise_rhs(solver.sqrt_q * path.increments[0, :, i]),
                                    cube)
                if i > path.n_steps // 2 and i % 40 == 0:
                    field = solver.op.field_from_reduced(c)
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
    for hat, want in ((solver.noise_increment(db), direct),
                      (solver.noise_increment(db[:, 0]), direct[0])):
        pad = [(0, 0)] * (hat.ndim - 1) + [(0, n_fine // 2 + 1 - hat.shape[-1])]
        field = np.fft.irfft(np.pad(hat, pad), n=n_fine, axis=-1)
        assert np.max(np.abs(field - want)) <= 1e-13 * np.max(np.abs(want))


def test_reference_simulate_batch_shape(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    solver = FullSpdeSolver(2.0 * np.pi, 64, qspec)
    u = solver.simulate(cfg, _batch(qspec, cfg, 3))
    assert u.shape == (64, 3)


def test_abort_names_first_nonfinite_member(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    path = _batch(qspec, cfg, 3)
    path.increments[1] *= 1e200
    solvers = (FullSpdeSolver(grid8.L, 64, qspec),
               CoupledElementSolver(assemble_operator(grid8, 1.0), qspec, cfg.dt))
    for solver in solvers:
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
            solver.simulate(cfg, path)
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
        got = solver.simulate(cfg, path)
    assert np.array_equal(got, want)
    assert sorted(rows) == [2] * 2 * cfg.n_steps + [3] * cfg.n_steps


def test_blocked_reference_stops_when_the_caller_stops_waiting(qspec, monkeypatch):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.2)
    solver = FullSpdeSolver(2.0 * np.pi, BLOCKED_N, qspec)
    path = _batch(qspec, cfg, BLOCKED_R)
    rows, step = [], solver.step
    monkeypatch.setattr(solver, "step", lambda u, *args: (rows.append(len(u)), step(u, *args)))
    pool = ThreadPoolExecutor(2)
    monkeypatch.setattr(dynamics, "_pool", interrupted_wait(pool))
    with pytest.raises(Interrupted):
        solver.simulate(cfg, path)
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
        solver.simulate(cfg, path)
    pool.shutdown(wait=True)
    assert len(steps) < cfg.n_steps // 4


# 80 members: the reference (1024 nodes) and every gamma batch (M = 8,
# n = 64) split into two blocks, the sigma = 0 pair are batches of one
GAP_CFG = dict(M=8, subgrid_n=64, n_modes=17, dt=1e-3, T=0.004, ensemble=80, n_fine=1024)


def serial_coupling_gap(cfg, gammas):
    """Oracle: the coupling-gap study's (ms_gap, det_gap) with every batch
    stepped whole, one after another on the calling thread."""
    grid, spec, spde0 = cfg.grid(), cfg.qwiener(), cfg.spde()
    seeds = harness.member_seeds(cfg.master_seed, cfg.ensemble)
    path = sample_global_path(spec, spde0.times(), harness.member_streams(seeds)[0])
    fine = FullSpdeSolver(grid.L, cfg.n_fine, spec)

    def gap(spde, path, ref):
        solver = CoupledElementSolver(assemble_operator(grid, spde.gamma), spec, spde.dt)
        field = whole_batch_coupled(solver, spde, path)
        return harness._right_half_gap(field, harness._right_half_values(ref, grid), grid)

    ref = whole_batch_reference(fine, spde0, path)
    ms = np.mean(np.stack([gap(cfg.spde(gamma=g), path, ref) for g in gammas]) ** 2, axis=1)
    det, one = cfg.spde(gamma=1.0, sigma=0.0), NoisePath(path.times, path.increments[:1])
    return ms, gap(det, one, whole_batch_reference(fine, det, one))[0]


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_coupling_gap_study_matches_serial_oracle(solver_pool, workers):
    cfg = harness.RunConfig(**GAP_CFG)
    gammas = np.array([0.9, 0.99, 1.0])
    ms, det = serial_coupling_gap(cfg, gammas)
    with solver_pool(workers):
        got = harness.convergence_study(cfg, "coupling-gap", gammas).metrics
    assert np.array_equal(got["ms_gap"], ms)
    assert np.array_equal(got["det_gap"], np.full(3, det))


def test_runner_raises_the_first_aborting_job(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.006)
    solver = CoupledElementSolver(assemble_operator(grid8, 1.0), qspec, cfg.dt)
    first, second = _batch(qspec, cfg, 3), _batch(qspec, cfg, 3)
    # a huge increment at step k - 1 overflows the cube at step k
    first.increments[2, :, 3] *= 1e200
    second.increments[1, :, 0] *= 1e200
    with np.errstate(all="ignore"):
        for path, want in ((first, (4, 2)), (second, (1, 1))):      # one job at a time
            with pytest.raises(NumericalAbort) as err:
                solver.simulate(cfg, path)
            assert (err.value.step, err.value.member) == want
        with pytest.raises(NumericalAbort) as err:
            run_batches([BatchJob(solver, cfg, first), BatchJob(solver, cfg, second)])
    assert (err.value.step, err.value.member) == (4, 2)


def test_runner_refuses_to_run_on_a_pool_worker(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.002)
    job = BatchJob(FullSpdeSolver(2.0 * np.pi, 64, qspec), cfg, _batch(qspec, cfg, 2))
    nested = dynamics._pool().submit(run_batches, [job])
    with pytest.raises(RuntimeError, match="pool worker"):
        nested.result(timeout=60)


def test_blocked_abort_names_earliest_step_then_member(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.006)
    solver = FullSpdeSolver(2.0 * np.pi, BLOCKED_N, qspec)
    path = _batch(qspec, cfg, BLOCKED_R)
    # a huge increment at step k - 1 overflows the cube at step k; members
    # 1, 2 and 5 sit in the first, second and third block
    for member, k in ((1, 4), (2, 2), (5, 2)):
        path.increments[member, :, k - 1] *= 1e200
    with np.errstate(all="ignore"):
        assert whole_batch_reference(solver, cfg, path) == (2, 2)
        with pytest.raises(NumericalAbort) as err:
            solver.simulate(cfg, path)
    assert (err.value.step, err.value.member) == (2, 2)
    path.increments[2] = _quiet_path(qspec, cfg, seed=2).increments[0]
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        solver.simulate(cfg, path)
    assert (err.value.step, err.value.member) == (2, 5)


@pytest.mark.parametrize("members", [None, 3])
def test_coupled_maps_match_einsum_oracle(grid8, qspec, members):
    op = assemble_operator(grid8, 0.7)
    solver = CoupledElementSolver(op, qspec, 1e-3)
    rng = np.random.default_rng(8)
    tail = () if members is None else (members,)
    mb = grid8.mass_block

    def oracle_load(u):                                   # Z^T (I x M_b) u
        mu = np.einsum("ij,mhj...->mhi...", mb, u)
        return op.Z.T @ mu.reshape((grid8.ndof,) + u.shape[3:])

    u = rng.standard_normal(grid8.all_nodes().shape + tail)
    want = oracle_load(u)
    assert np.max(np.abs(op.weak_rhs(u) - want)) <= 1e-13 * np.max(np.abs(want))

    db = rng.standard_normal((qspec.n_modes,) + tail)
    db *= solver.sqrt_q.reshape((-1,) + (1,) * len(tail))
    basis = fourier_basis(np.mod(grid8.all_nodes(), grid8.L), qspec.n_modes, grid8.L)
    want = op.gamma * oracle_load(np.einsum("k...,kmhi->mhi...", db, basis))
    assert np.max(np.abs(solver.noise_rhs(db) - want)) <= 1e-13 * np.max(np.abs(want))


def test_no_cube_by_pow():
    # `x**3` takes numpy's generic pow loop; every cube is written x * x * x
    src = Path(holisde.__file__).parent
    hits = [f"{p.name}:{i}" for p in sorted(src.glob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(r"\*\*\s*3", line)]
    assert hits == []
