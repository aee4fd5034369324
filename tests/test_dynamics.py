import re
from pathlib import Path

import numpy as np
import pytest

import holisde
from holisde.dynamics import (
    CoupledElementSolver,
    FullSpdeSolver,
    NumericalAbort,
    SpdeConfig,
    initial_profile,
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
    shapes, _ = eig.element_mode_shapes(grid)
    ground = shapes[0]                                     # (M, 2, n+1)
    mb = grid.mass_block
    num = np.einsum("mhi,ij,mhj->m", state.values, mb, ground)
    den = np.einsum("mhi,ij,mhj->m", ground, mb, ground)
    a = num / den
    fast = state.values - a[:, None, None] * ground
    return a, ElementField(fast, grid)


def _quiet_path(spec, cfg, seed=0):
    return sample_global_path(spec, cfg.times(), seed)


def test_heat_decay_oracle(qspec):
    L = 2.0 * np.pi
    cfg = SpdeConfig(alpha=0.0, sigma=0.0, dt=1e-3, T=0.01)
    solver = FullSpdeSolver(L, 512, qspec)
    path = _quiet_path(qspec, cfg)
    u = np.sin(2.0 * np.pi * solver.x / L)
    kappa2 = (2.0 * np.pi / L) ** 2
    v = solver.step(u, cfg, solver.noise_increment(solver.sqrt_q * path.increments[:, 0]))
    factor = v[10] / u[10]
    assert abs(factor - np.exp(-kappa2 * cfg.dt)) < 5.0 * cfg.dt**2


def test_zero_state_is_fixed_point(qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.01,
                     initial={"kind": "zero"})
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    u = solver.simulate(cfg, [_quiet_path(qspec, cfg)])
    assert np.all(u[..., 0] == 0.0)


@pytest.mark.parametrize("ustar", [-1.0, 0.0, 1.0])
def test_cubic_roots_are_stationary(qspec, ustar):
    cfg = SpdeConfig(alpha=1.0, sigma=0.0, dt=1e-3, T=0.02,
                     initial={"kind": "constant", "amplitude": ustar})
    solver = FullSpdeSolver(2.0 * np.pi, 256, qspec)
    u = solver.simulate(cfg, [_quiet_path(qspec, cfg)])
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
    u = solver.simulate(cfg, [_quiet_path(qspec, cfg)], u0=u0)
    assert np.allclose(u[..., 0], vals, atol=1e-10)


def test_coupled_full_coupling_tracks_reference(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.3, gamma=1.0, dt=5e-4, T=0.05)
    op = assemble_operator(grid8, 1.0)
    solver = CoupledElementSolver(op, qspec, cfg.dt)
    fine = FullSpdeSolver(grid8.L, 2048, qspec)
    path = _quiet_path(qspec, cfg, seed=21)
    u = solver.simulate(cfg, [path])
    ref = fine.simulate(cfg, [path])
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
    c = solver.step_reduced(op.reduce(u0), cfg,
                            solver.noise_rhs(solver.sqrt_q * path.increments[:, 0]))
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
    end = solver.simulate(cfg, [_quiet_path(qspec, cfg)], u0=u0)[..., 0]
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
    shapes, _ = eig.element_mode_shapes(grid8)
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
    u1 = solver.simulate(cfg, [_quiet_path(qspec, cfg, seed=33)])
    u2 = solver.simulate(cfg, [_quiet_path(qspec, cfg, seed=33)])
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
    paths = [sample_global_path(qspec, cfg.times(), 1000 + r) for r in range(R)]
    finals = solver.simulate(cfg, paths).T           # (R, n)
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
        max_amp = 0.0
        for i in range(path.n_steps):
            c = solver.step_reduced(c, cfg,
                                    solver.noise_rhs(solver.sqrt_q * path.increments[:, i]))
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
            path = sample_global_path(qspec, cfg.times(), 500 + r)
            c = solver.initial_reduced(cfg)
            for i in range(path.n_steps):
                c = solver.step_reduced(c, cfg,
                                        solver.noise_rhs(solver.sqrt_q * path.increments[:, i]))
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
    paths = [_quiet_path(qspec, cfg, seed=s) for s in range(3)]
    u = solver.simulate(cfg, paths)
    assert u.shape == (64, 3)


def test_abort_names_first_nonfinite_member(grid8, qspec):
    cfg = SpdeConfig(alpha=1.0, sigma=0.5, dt=1e-3, T=0.005)
    paths = [_quiet_path(qspec, cfg, seed=s) for s in range(3)]
    paths[1] = NoisePath(paths[1].times, 1e200 * paths[1].increments)
    solvers = (FullSpdeSolver(grid8.L, 64, qspec),
               CoupledElementSolver(assemble_operator(grid8, 1.0), qspec, cfg.dt))
    for solver in solvers:
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
            solver.simulate(cfg, paths)
        assert err.value.member == 1
        assert err.value.step == 1


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
