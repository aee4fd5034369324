"""Discrete grid-value SDE models of the reaction-diffusion dynamics.

Four models evolve the vector (U_1 .. U_M) of grid values, all stepped by
`step_model`:

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

All models are Ito Euler-Maruyama updates and accept a trailing ensemble
axis on the state and the driver tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import AveragedCoeffs, FastModeStats, MartingaleDriver, martingale_limit_driver
from .grid import DomainGrid, ElementField
from .noise import ElementNoiseProjection, NoisePath, QWienerSpec
from .spectral import CoupledOperator, GroundModeExpansion, expansion_fields
from .dynamics import ModelTrajectory, NumericalAbort, SpdeConfig, _check_finite

__all__ = [
    "ModelDrivers",
    "DiscreteModel",
    "build_drivers",
    "step_model",
    "reduced_slow_sde",
    "simulate_model",
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
    spec: QWienerSpec,
    proj: ElementNoiseProjection,
    path: NoisePath,
    deviation_seed,
    stats: Optional[FastModeStats] = None,
    eig0=None,
    expansion: Optional[GroundModeExpansion] = None,
    aux_seed=None,
) -> ModelDrivers:
    """Assemble all driver tables for one noise path.

    The slow and gridpoint tables are the projection's member-independent
    maps applied to `path`; the deviation (and, if an expansion is given,
    auxiliary) Brownian families are drawn from their own seeds so replays
    stay bitwise.
    """
    slow = proj.slow_map @ path.increments
    gridpoint = proj.gridpoint_map @ path.increments
    rng = np.random.default_rng(deviation_seed)
    deviation = rng.standard_normal((grid.M, path.n_steps)) * np.sqrt(path.dt)[None, :]
    aux = None
    if expansion is not None:
        if stats is None or eig0 is None:
            raise ValueError("auxiliary drivers need fast-mode stats and the analytic modes")
        md: MartingaleDriver = martingale_limit_driver(stats, eig0, expansion, path.times, aux_seed)
        aux = md.combined
    return ModelDrivers(grid=grid, dt=path.dt, slow=slow, gridpoint=gridpoint,
                        deviation=deviation, aux=aux)


def _lap(U: np.ndarray, h: float) -> np.ndarray:
    """Periodic second difference (U_{j-1} - 2 U_j + U_{j+1}) / h^2."""
    return (np.roll(U, 1, axis=0) - 2.0 * U + np.roll(U, -1, axis=0)) / h**2


def _stencil(d: np.ndarray) -> np.ndarray:
    """Neighbour second difference of a driver table slice: d_{j-1} - 2 d_j + d_{j+1}."""
    return np.roll(d, 1, axis=0) - 2.0 * d + np.roll(d, -1, axis=0)


def _deviation_coef(coeffs: AveragedCoeffs, grid: DomainGrid, deviation_alpha: bool) -> np.ndarray:
    """Amplitude of the multiplicative deviation term: 3 sqrt(2 Q_j) e_{j,0}(X_j)."""
    c = 3.0 * np.sqrt(2.0 * coeffs.qj) * grid.centre_mode_value
    return coeffs.alpha * c if deviation_alpha else c


def _expand(coef: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Broadcast per-element coefficients over a possible ensemble axis."""
    return coef[:, None] if like.ndim > 1 else coef


def step_model(
    model: DiscreteModel, U: np.ndarray, cfg: SpdeConfig, drivers: ModelDrivers, step: int
) -> np.ndarray:
    """One Ito Euler-Maruyama step of any discrete model; U is (M,) or (M, R).

    conventional_fd: plain stencil, bare cubic reaction, pointwise noise.

    holistic, holistic_intro and gamma_reduced share one update whose terms
    carry their gamma order: O(gamma) slow driver; O(gamma^2) diffusion
    stencil, averaged linear drift, deviation term and noise stencil.  The
    holistic models evaluate it at g = 1, where every factor is exact in
    floating point, so gamma_reduced at gamma = 1 is the holistic update
    bitwise.  holistic_intro swaps the slow drivers for the pointwise
    evaluations W(X_j, .); the two agree up to O(h, gamma).

    gamma_reduced with truncate=False adds the auxiliary driver at
    O(gamma^2) and the O(gamma^3) auxiliary and deviation stencils.  The
    deviation stencil combines the same beta_check_j scaled by the neighbour
    centre-mode values, which cancel on a uniform grid; the auxiliary
    stencil combines the neighbour elements' drivers.
    """
    dt = drivers.dt[step]
    grid = drivers.grid
    if model.kind == "conventional_fd":
        # drift written term-by-term so the noise-free holistic update (whose
        # linear coefficient then equals alpha exactly) reproduces it bitwise
        return (U + dt * (_lap(U, grid.h) + cfg.alpha * U - cfg.alpha * (U * U * U))
                + cfg.sigma * drivers.gridpoint[:, step, ...])
    coeffs = model.coeffs
    g = cfg.gamma if model.kind == "gamma_reduced" else 1.0
    g2 = g * g
    dS = (drivers.gridpoint if model.kind == "holistic_intro" else drivers.slow)[:, step, ...]
    dchk = drivers.deviation[:, step, ...]
    lin = _expand(g2 * coeffs.hat_alpha, U)
    devb = _expand(g2 * _deviation_coef(coeffs, grid, model.deviation_alpha), U)
    Un = (
        U
        + dt * (g2 * _lap(U, grid.h) + lin * U - cfg.alpha * (U * U * U))
        + (cfg.sigma * g) * dS
        + devb * U * dchk
        + (cfg.sigma * g2 / 4.0) * _stencil(dS)
    )
    if model.kind != "gamma_reduced" or model.truncate:
        return Un
    if drivers.aux is None:
        raise ValueError("gamma_reduced without truncation needs auxiliary drivers")
    g3 = g2 * g
    daux = drivers.aux[:, step, ...] * grid.centre_mode_value   # B_hat at grid value
    ev = np.full(grid.M, grid.centre_mode_value)
    dev_sten = _expand(np.sqrt(coeffs.qj) * (np.roll(ev, 1) - 2.0 * ev + np.roll(ev, -1)), U)
    return (
        Un
        + (cfg.sigma * g2) * daux
        + (cfg.sigma * g3 / 4.0) * _stencil(daux)
        + (3.0 * np.sqrt(2.0) / 4.0) * g3 * U * dev_sten * dchk
    )


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


def simulate_model(
    model: DiscreteModel,
    cfg: SpdeConfig,
    grid: DomainGrid,
    drivers: ModelDrivers,
    U0: np.ndarray,
    store: bool = True,
) -> ModelTrajectory:
    """Run a discrete model over the whole driver table (built on `grid`).

    Raises NumericalAbort naming the first step whose state is not finite
    and the first member (column of U) that is not.
    """
    U = np.array(U0, dtype=float)
    out = [U] if store else None
    for i in range(drivers.n_steps):
        U = step_model(model, U, cfg, drivers, i)
        _check_finite(U, -1, f"{model.kind} model", i)
        if store:
            out.append(U)
    times = np.concatenate([[0.0], np.cumsum(drivers.dt)])
    states = np.asarray(out) if store else U[None, ...]
    return ModelTrajectory(times if store else times[-1:], states,
                           {"model": model.kind, "gamma": cfg.gamma})
