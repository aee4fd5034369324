"""Discrete grid-value SDE models of the reaction-diffusion dynamics.

Four models evolve the vector (U_1 .. U_M) of grid values:

* conventional finite differences: second-difference stencil, bare cubic
  reaction, noise evaluated pointwise at the grid points;

* the holistic model: the same stencil, but with the averaged linear
  coefficient hat_alpha_j, the slow element-mode drivers in place of
  pointwise noise, a multiplicative deviation term 3 sqrt(2 Q_j) U_j and a
  noise-stencil correction (sigma/4)(dB_{j+1} - 2 dB_j + dB_{j-1}) coupling
  neighbouring drivers -- the subgrid noise/diffusion interaction that plain
  differencing misses; its introductory variant uses the pointwise noise;

* the gamma-expanded model: every term of the holistic model weighted by
  its power of the coupling strength, plus the two O(gamma^3) families (the
  auxiliary martingale driver and the deviation stencil) that the full-
  coupling truncation drops.  The holistic models are its gamma = 1
  truncation: they evaluate the same expression at g = 1, so the
  gamma-expanded model at gamma = 1 reproduces them bitwise.

All four are one Ito Euler-Maruyama update U + dt (g^2 lap U + lin U -
alpha U^3) + dev U dbeta_check + noise with per-kind coefficients.
`simulate_models` steps several kinds on a leading kind axis in one time
loop, with the U-independent noise precomputed in blocks; a single kind
is a batch of one.  States and driver tables may carry a trailing
ensemble axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import AveragedCoeffs, FastModeStats, MartingaleDriver, martingale_limit_driver
from .grid import DomainGrid, ElementField
from .noise import ElementNoiseProjection, NoisePath
from .spectral import CoupledOperator, GroundModeExpansion, expansion_fields
from .dynamics import ModelTrajectory, NumericalAbort, SpdeConfig, _check_finite

__all__ = [
    "ModelDrivers",
    "DiscreteModel",
    "build_drivers",
    "reduced_slow_sde",
    "simulate_models",
    "MODEL_KINDS",
]

MODEL_KINDS = ("conventional_fd", "holistic", "holistic_intro", "gamma_reduced")


@dataclass(frozen=True)
class DiscreteModel:
    """Model selection plus the coefficients it needs."""

    kind: str
    coeffs: Optional[AveragedCoeffs] = None
    truncate: bool = True          # gamma_reduced only: drop O(gamma^3) families
    deviation_alpha: bool = False  # include the reaction coefficient in the
                                   # multiplicative deviation term

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind != "conventional_fd" and self.coeffs is None:
            raise ValueError(f"model {self.kind!r} needs averaged coefficients")


@dataclass(frozen=True)
class ModelDrivers:
    """Precomputed noise-increment tables for the discrete models.

    slow[j, i]       increment of sqrt(q^h_{j,0}) beta_{j,0} e_{j,0}(X_j)
                     (slow element-mode driver evaluated as a grid value);
    gridpoint[j, i]  increment of W(X_j, t) (pointwise evaluation);
    deviation[j, i]  increment of the per-element unit Brownian beta_check_j;
    aux[j, i]        increment of the combined martingale-limit driver
                     (None unless an expansion was supplied).

    slow and gridpoint are linear images of the global Brownian matrix, so
    every model in a comparison run shares the same randomness; deviation
    and aux are fresh independent families with their own derived seeds.
    Tables may carry a trailing ensemble axis.
    """

    grid: DomainGrid
    dt: np.ndarray
    slow: np.ndarray
    gridpoint: np.ndarray
    deviation: np.ndarray
    aux: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return self.slow.shape[1]


def build_drivers(
    grid: DomainGrid,
    proj: ElementNoiseProjection,
    path: NoisePath,
    deviation_seed,
    stats: Optional[FastModeStats] = None,
    eig0=None,
    expansion: Optional[GroundModeExpansion] = None,
    aux_seed=None,
) -> ModelDrivers:
    """Assemble all driver tables for one noise path, a batch of one (else ValueError).

    The slow and gridpoint tables are the projection's member-independent
    maps applied to `path`; the deviation (and, if an expansion is given,
    auxiliary) Brownian families are drawn from their own seeds so replays
    stay bitwise: the tables are those of `driver_tables`, without the member axis.
    """
    if len(path.increments) != 1:
        raise ValueError(f"build_drivers takes a batch of one path, got {len(path.increments)}")
    slow, gridpoint, deviation = driver_tables(proj, path.increments, path.dt,
                                               [deviation_seed])[..., 0]
    aux = None
    if expansion is not None:
        if stats is None or eig0 is None:
            raise ValueError("auxiliary drivers need fast-mode stats and the analytic modes")
        md: MartingaleDriver = martingale_limit_driver(stats, eig0, expansion, path.times, aux_seed)
        aux = md.combined
    return ModelDrivers(grid=grid, dt=path.dt, slow=slow, gridpoint=gridpoint,
                        deviation=deviation, aux=aux)


_SCRATCH_BYTES = 2**19   # 512 KiB of member-major table scratch: L2 / 4, as in dynamics


def driver_tables(proj: ElementNoiseProjection, increments: np.ndarray, dt: np.ndarray,
                  deviation_seeds) -> np.ndarray:
    """Slow, gridpoint and deviation tables (3, M, n_steps, R) of a member batch's
    path increments (R, K+1, n_steps) and deviation seeds.  Members are written
    in place into a member-major scratch of at most 512 KiB (or one member),
    one BLAS product per map and member as on its own, so each column is
    bitwise that member's tables; one transposing copy per block follows."""
    R, n, M = len(increments), dt.size, proj.slow_map.shape[0]
    tables = np.empty((3, M, n, R))
    B = min(R, max(1, _SCRATCH_BYTES // (3 * M * n * 8)))
    scratch = np.empty((B, 3, M, n))
    for r0 in range(0, R, B):
        block = scratch[:min(B, R - r0)]
        for member, inc, ss in zip(block, increments[r0:], deviation_seeds[r0:]):
            np.matmul(proj.slow_map, inc, out=member[0])
            np.matmul(proj.gridpoint_map, inc, out=member[1])
            np.random.default_rng(ss).standard_normal(out=member[2])
        block[:, 2] *= np.sqrt(dt)
        tables[..., r0:r0 + len(block)] = block.transpose(1, 2, 3, 0)
    return tables


_BLOCK = 64   # steps per precomputed noise block: a whole-run table would grow the RSS


def _deviation_coef(coeffs: AveragedCoeffs, grid: DomainGrid, deviation_alpha: bool) -> np.ndarray:
    """Amplitude of the multiplicative deviation term: 3 sqrt(2 Q_j) e_{j,0}(X_j)."""
    c = 3.0 * np.sqrt(2.0 * coeffs.qj) * grid.centre_mode_value
    return coeffs.alpha * c if deviation_alpha else c


def _kind_terms(model: DiscreteModel, cfg: SpdeConfig, drivers: ModelDrivers) -> tuple:
    """(stencil weight g^2, linear coefficient, deviation coefficient, noise families).

    A noise family (w, s, d) adds w d_j + s (d_{j-1} - 2 d_j + d_{j+1}).
    conventional_fd is the shared update with a unit stencil weight, lin =
    alpha, no deviation term and bare pointwise drivers, so the sigma = 0
    holistic model (hat_alpha = alpha, Q_j = 0) reproduces it bitwise.  Others
    weight each term by its gamma order: O(gamma) slow driver; O(gamma^2)
    stencil, averaged linear drift, deviation term and noise stencil; with
    truncate=False also the auxiliary driver at O(gamma^2), and its stencil
    and the deviation stencil (zero on a uniform grid) at O(gamma^3).  The
    holistic models use g = 1, exact in floating point, so gamma_reduced at
    gamma = 1 has their terms bitwise; holistic_intro reads the pointwise
    drivers W(X_j, .) in place of the slow ones.
    """
    grid = drivers.grid
    if model.kind == "conventional_fd":
        return (1.0, np.full(grid.M, cfg.alpha), np.zeros(grid.M),
                [(cfg.sigma, 0.0, drivers.gridpoint)])
    coeffs = model.coeffs
    g = cfg.gamma if model.kind == "gamma_reduced" else 1.0
    g2 = g * g
    dS = drivers.gridpoint if model.kind == "holistic_intro" else drivers.slow
    dev = g2 * _deviation_coef(coeffs, grid, model.deviation_alpha)
    families = [(cfg.sigma * g, cfg.sigma * g2 / 4.0, dS)]
    if model.kind == "gamma_reduced" and not model.truncate:
        if drivers.aux is None:
            raise ValueError("gamma_reduced without truncation needs auxiliary drivers")
        g3 = g2 * g
        ev = np.full(grid.M, grid.centre_mode_value)
        dev = dev + (3.0 * np.sqrt(2.0) / 4.0) * g3 * np.sqrt(coeffs.qj) * (
            np.roll(ev, 1) - 2.0 * ev + np.roll(ev, -1))
        families.append((cfg.sigma * g2, cfg.sigma * g3 / 4.0,       # B_hat at grid value
                         drivers.aux * grid.centre_mode_value))
    return g2, g2 * coeffs.hat_alpha, dev, families


def _stacked_kernel(models, cfg: SpdeConfig, drivers: ModelDrivers, ndim: int) -> tuple:
    """(step, noise) of several kinds on a leading kind axis, state (K, M[, R]).

    noise(i0, i1) holds the U-independent increments of steps i0 .. i1 - 1,
    time-major (B, K, M[, R]); step(U, dt, dchk, noise_i) is one Ito
    Euler-Maruyama step, dchk the deviation increments (M[, R]).  The
    neighbours j -+ 1 are precomputed periodic indices.
    """
    parts = [_kind_terms(m, cfg, drivers) for m in models]
    shape = (len(parts), -1) + (1,) * (ndim - 1)
    wl, lin, dev = (np.reshape([p[i] for p in parts], shape) for i in range(3))
    prev, nxt = np.roll(np.arange(drivers.grid.M), 1), np.roll(np.arange(drivers.grid.M), -1)
    h2, alpha = drivers.grid.h**2, cfg.alpha

    def family(w, s, d):                                          # d is (M, B[, R])
        return w * d + s * (d[prev] - 2.0 * d + d[nxt])

    def noise(i0, i1):
        return np.moveaxis(np.stack([sum(family(w, s, d[:, i0:i1]) for w, s, d in p[3])
                                     for p in parts]), 2, 0)

    def step(U, dt, dchk, noise_i):
        lap = (U.take(prev, axis=1) - 2.0 * U + U.take(nxt, axis=1)) / h2
        return U + dt * (wl * lap + lin * U - alpha * (U * U * U)) + dev * U * dchk + noise_i

    return step, noise


def reduced_slow_sde(
    a: np.ndarray,
    cfg: SpdeConfig,
    op: CoupledOperator,
    stats: FastModeStats,
    coeffs: AveragedCoeffs,
    drivers: ModelDrivers,
    step: int,
    linearize: bool = False,
) -> np.ndarray:
    """One step of the averaged slow equation in eigen-coordinates.

    The slow field is reconstructed from the amplitudes through the
    centre-value expansion, the coupled operator is applied to it, and the
    equation is read off at the element centres.  Used to validate the
    derivation chain: its one-step drift differs from the gamma-expanded
    grid model only through the operator-versus-stencil difference, which
    is O(gamma^3).
    """
    g = cfg.gamma
    grid = op.grid
    dt = drivers.dt[step]
    F1, F2, _ = expansion_fields(np.asarray(a, dtype=float), grid)
    vals = a[:, None, None] + g * F1 + g * g * F2
    c = op.reduce(ElementField(vals, grid))
    l_centre = (op.Z @ op.apply_reduced(c)).reshape(grid.M, 2, -1)[:, 0, -1]
    s = stats.mean_second_moment
    cubic = 0.0 if linearize else (a * a * a)
    drift = l_centre + cfg.alpha * g * g * a - cfg.alpha * (cubic + 3.0 * g * g * a * s)
    dS = drivers.slow[:, step]
    dchk = drivers.deviation[:, step]
    noise = cfg.sigma * g * dS + cfg.alpha * g * g * (
        3.0 * np.sqrt(2.0 * coeffs.qj) * grid.centre_mode_value
    ) * a * dchk
    out = a + dt * drift + noise
    if not np.all(np.isfinite(out)):
        raise NumericalAbort("non-finite values in reduced slow equation")
    return out


def simulate_models(
    models,
    cfg: SpdeConfig,
    drivers: ModelDrivers,
    U0: np.ndarray,
    store: bool = False,
) -> list:
    """One ModelTrajectory per model, all stepped from U0 (M[, R]) in one loop.

    Each kind's values are those of a run on its own.  Raises NumericalAbort
    naming the kind, the first non-finite step and its first non-finite
    member (column of U).
    """
    U0 = np.asarray(U0, dtype=float)
    advance, noise = _stacked_kernel(models, cfg, drivers, U0.ndim)
    U = np.repeat(U0[None], len(models), axis=0)
    out = [U] if store else None
    for i in range(drivers.n_steps):
        if i % _BLOCK == 0:
            block = noise(i, i + _BLOCK)
        U = advance(U, drivers.dt[i], drivers.deviation[:, i], block[i % _BLOCK])
        if not np.isfinite(U).all():
            k = int(np.argmin(np.isfinite(U).reshape(len(models), -1).all(axis=1)))
            _check_finite(U[k], -1, f"{models[k].kind} model", i)
        if store:
            out.append(U)
    times = np.concatenate([[0.0], np.cumsum(drivers.dt)])
    states = np.asarray(out) if store else U[None, ...]
    return [ModelTrajectory(times if store else times[-1:], states[:, k],
                            {"model": m.kind, "gamma": cfg.gamma})
            for k, m in enumerate(models)]

