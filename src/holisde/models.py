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
  its power of the coupling strength, to O(gamma^2) as the averaging and
  slow-mode expansion give it.  The holistic models evaluate the same
  expression at g = 1, so the gamma-expanded model at gamma = 1 reproduces
  them bitwise.

All four are one Ito Euler-Maruyama update U + dt (g^2 lap U + lin U -
alpha U^3) + dev U dbeta_check + noise with per-kind coefficients, dt the
`SpdeConfig`'s, which also scales the paths.  `simulate_models` steps
several kinds and members in one time loop from the tables `build_drivers`
writes; a single kind or member is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .averaging import AveragedCoeffs, FastModeStats
from .grid import DomainGrid, ElementField
from .noise import ElementNoiseProjection, PathDraw
from .spectral import CoupledOperator, expansion_fields
from .dynamics import _L2_BUDGET, NumericalAbort, SpdeConfig, initial_profile

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
    deviation_alpha: bool = False  # include the reaction coefficient in the
                                   # multiplicative deviation term

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind != "conventional_fd" and self.coeffs is None:
            raise ValueError(f"model {self.kind!r} needs averaged coefficients")


@dataclass(frozen=True)
class ModelDrivers:
    """Precomputed noise-increment tables of a member batch for the discrete models.

    slow[j, i, r]       increment of sqrt(q^h_{j,0}) beta_{j,0} e_{j,0}(X_j)
                        (slow element-mode driver evaluated as a grid value);
    gridpoint[j, i, r]  increment of W(X_j, t) (pointwise evaluation);
    deviation[j, i, r]  increment of the per-element unit Brownian beta_check_j.

    slow and gridpoint are linear images of the global Brownian matrix, so
    every model in a comparison run shares the same randomness; deviation is
    a fresh independent family drawn from each member's own seed.
    """

    grid: DomainGrid
    slow: np.ndarray
    gridpoint: np.ndarray
    deviation: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.slow.shape[1]


def build_drivers(grid: DomainGrid, proj: ElementNoiseProjection, path: np.ndarray | PathDraw,
                  deviation_seeds, dt: float, out: Optional[np.ndarray] = None) -> ModelDrivers:
    """Driver tables (M, n_steps, R) of a member batch's path and deviation seeds.

    The path's increments (R, K+1, n_steps) were drawn at step dt, which
    scales the deviation increments too; a `PathDraw` is mapped row by row
    as drawn, so only one member's (K+1, n_steps) increments are held.
    Members are written in place into a member-major scratch of at most
    512 KiB (or one member), one BLAS product per map and member as on its
    own, so each column is bitwise that member's tables whatever the batch;
    one transposing copy per block follows, into `out` (3, M, n_steps, R)
    when given (a column slice of a group's buffer), else into new tables.
    Raises ValueError unless there is one seed per member and at least one step.
    """
    (R, _, n_steps), M = path.shape, proj.slow_map.shape[0]
    if len(deviation_seeds) != R or n_steps < 1:
        raise ValueError(f"need one deviation seed per member and a step, got "
                         f"{len(deviation_seeds)} seeds, {R} members, {n_steps} steps")
    tables = np.empty((3, M, n_steps, R)) if out is None else out
    B = min(R, max(1, _L2_BUDGET // (3 * M * n_steps * 8)))
    scratch = np.empty((B, 3, M, n_steps))
    members = zip(path, deviation_seeds)
    for r0 in range(0, R, B):
        block = scratch[:min(B, R - r0)]
        for member, (inc, ss) in zip(block, members):     # block first: no member is skipped
            np.matmul(proj.slow_map, inc, out=member[0])
            np.matmul(proj.gridpoint_map, inc, out=member[1])
            np.random.default_rng(ss).standard_normal(out=member[2])
        block[:, 2] *= np.sqrt(dt)
        tables[..., r0:r0 + len(block)] = block.transpose(1, 2, 3, 0)
    slow, gridpoint, deviation = tables
    return ModelDrivers(grid=grid, slow=slow, gridpoint=gridpoint, deviation=deviation)


# steps per precomputed noise block, 512 KiB for four kinds of a two-chunk group
# (M = 8, R = 64): a whole-run table would grow the RSS
_BLOCK = 32


def _deviation_coef(coeffs: AveragedCoeffs, grid: DomainGrid, deviation_alpha: bool) -> np.ndarray:
    """Amplitude of the multiplicative deviation term: 3 sqrt(2 Q_j) e_{j,0}(X_j)."""
    c = 3.0 * np.sqrt(2.0 * coeffs.qj) * grid.centre_mode_value
    return coeffs.alpha * c if deviation_alpha else c


def _kind_terms(model: DiscreteModel, cfg: SpdeConfig, drivers: ModelDrivers) -> tuple:
    """(stencil weight g^2, linear coefficient, deviation coefficient, w, s, d).

    The noise (w, s, d) adds w d_j + s (d_{j-1} - 2 d_j + d_{j+1}).
    conventional_fd is the shared update with a unit stencil weight, lin =
    alpha, no deviation term and bare pointwise drivers, so the sigma = 0
    holistic model (hat_alpha = alpha, Q_j = 0) reproduces it bitwise.  Others
    weight each term by its gamma order: O(gamma) slow driver; O(gamma^2)
    stencil, averaged linear drift, deviation term and noise stencil.  The
    holistic models use g = 1, exact in floating point, so gamma_reduced at
    gamma = 1 has their terms bitwise; holistic_intro reads the pointwise
    drivers W(X_j, .) in place of the slow ones.
    """
    grid = drivers.grid
    if model.kind == "conventional_fd":
        return 1.0, np.full(grid.M, cfg.alpha), np.zeros(grid.M), cfg.sigma, 0.0, drivers.gridpoint
    coeffs = model.coeffs
    g = cfg.gamma if model.kind == "gamma_reduced" else 1.0
    g2 = g * g
    dS = drivers.gridpoint if model.kind == "holistic_intro" else drivers.slow
    dev = g2 * _deviation_coef(coeffs, grid, model.deviation_alpha)
    return g2, g2 * coeffs.hat_alpha, dev, cfg.sigma * g, cfg.sigma * g2 / 4.0, dS


def _stacked_kernel(models, cfg: SpdeConfig, drivers: ModelDrivers) -> tuple:
    """(step, noise) of several kinds on a leading kind axis, state (K, M, R).

    noise(i0, i1) holds the U-independent increments of steps i0 .. i1 - 1,
    time-major (B, K, M, R), in one buffer; step(U, dt, dchk, noise_i) is
    one Ito Euler-Maruyama step of U in place, through two scratch states,
    dchk the deviation increments (M, R).  The coefficients are broadcast to
    the state's shape once, so every product runs over contiguous operands;
    the neighbours j -+ 1 are periodic indices.
    """
    parts = [_kind_terms(m, cfg, drivers) for m in models]
    M, _, R = drivers.slow.shape
    buf = np.empty((_BLOCK, len(parts), M, R))
    wl, lin, dev = (np.broadcast_to(np.reshape([p[i] for p in parts], (len(parts), -1, 1)),
                                    buf.shape[1:]).copy() for i in range(3))
    prev, nxt = np.roll(np.arange(M), 1), np.roll(np.arange(M), -1)
    h2, alpha = drivers.grid.h**2, cfg.alpha

    def noise(i0, i1):
        for k, (*_, w, s, d) in enumerate(parts):
            d = d[:, i0:i1]                                       # (M, B, R)
            np.add(w * d, s * (d[prev] - 2.0 * d + d[nxt]),
                   out=buf[:d.shape[1], k].transpose(1, 0, 2))
        return buf

    a, b = np.empty_like(wl), np.empty_like(wl)

    def step(U, dt, dchk, noise_i):
        # U + dt (wl lap + lin U - alpha U U U) + dev U dchk + noise_i, term by term
        U.take(prev, axis=1, out=a, mode="wrap")
        np.multiply(2.0, U, out=b)
        np.subtract(a, b, out=a)
        U.take(nxt, axis=1, out=b, mode="wrap")
        np.add(a, b, out=a)
        np.divide(a, h2, out=a)                 # lap
        np.multiply(wl, a, out=a)
        np.multiply(lin, U, out=b)
        np.add(a, b, out=a)
        np.multiply(U, U, out=b)
        np.multiply(b, U, out=b)
        np.multiply(alpha, b, out=b)
        np.subtract(a, b, out=a)
        np.multiply(dt, a, out=a)
        np.add(U, a, out=a)
        np.multiply(dev, U, out=b)
        np.multiply(b, dchk, out=b)
        np.add(a, b, out=a)
        np.add(a, noise_i, out=U)

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
    is O(gamma^3).  A one-member oracle: it reads member 0 of the tables.
    """
    g = cfg.gamma
    grid = op.grid
    F1, F2, _ = expansion_fields(np.asarray(a, dtype=float), grid)
    vals = a[:, None, None] + g * F1 + g * g * F2
    l_centre = op.apply(ElementField(vals, grid)).values[:, 0, -1]
    s = stats.mean_second_moment
    cubic = 0.0 if linearize else (a * a * a)
    drift = l_centre + cfg.alpha * g * g * a - cfg.alpha * (cubic + 3.0 * g * g * a * s)
    dS = drivers.slow[:, step, 0]
    dchk = drivers.deviation[:, step, 0]
    noise = cfg.sigma * g * dS + cfg.alpha * g * g * (
        3.0 * np.sqrt(2.0 * coeffs.qj) * grid.centre_mode_value
    ) * a * dchk
    out = a + cfg.dt * drift + noise
    if not np.all(np.isfinite(out)):
        raise NumericalAbort("non-finite values in reduced slow equation", step=step, member=0)
    return out


def _first_abort(models, record: np.ndarray) -> NumericalAbort:
    """The abort at a (K, R) record's earliest step, first kind, lowest member."""
    k, r = np.unravel_index(np.argmin(record), record.shape)
    return NumericalAbort(f"non-finite values in {models[k].kind} model", int(record[k, r]), int(r))


def simulate_models(
    models,
    cfg: SpdeConfig,
    drivers: ModelDrivers,
    u0: Optional[np.ndarray] = None,
    store: bool = False,
) -> np.ndarray:
    """States (n, K, M, R) of the K kinds `models`, stepped together in one loop.

    Every member starts from the grid profile u0 (M,) (default: cfg's
    initial profile at the grid points), R is the tables' member count, and
    n is 1, or n_steps + 1 with `store`.  Each kind's values are those of a
    run on its own.  Raises ValueError unless u0 is (M,) and the tables hold
    cfg.n_steps steps, each stepped with cfg.dt.  A member gone
    non-finite in a kind is recorded and zeroed, and all step to the end;
    then NumericalAbort names the earliest step, first kind, lowest member.
    """
    M, n_steps, R = drivers.slow.shape
    if n_steps != cfg.n_steps:
        raise ValueError(f"driver tables hold {n_steps} steps, the config {cfg.n_steps}")
    if u0 is None:
        u0 = initial_profile(cfg.initial, drivers.grid.L)(drivers.grid.grid_points)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (M,):
        raise ValueError(f"u0 must be one grid profile of shape ({M},), got {u0.shape}")
    advance, noise = _stacked_kernel(models, cfg, drivers)
    U = np.broadcast_to(u0[:, None], (len(models), M, R)).copy()
    out = [U.copy()] if store else None
    record = np.full((len(models), R), n_steps)
    for i in range(n_steps):
        if i % _BLOCK == 0:
            block = noise(i, i + _BLOCK)
        advance(U, cfg.dt, drivers.deviation[:, i], block[i % _BLOCK])
        if not np.isfinite(U).all():
            bad = ~np.isfinite(U).all(axis=1)
            record[bad & (record > i)] = i
            np.copyto(U, 0.0, where=bad[:, None])
        if store:
            out.append(U.copy())
    states = np.asarray(out) if store else U[None]
    if record.min() < n_steps:
        abort = _first_abort(models, record)
        abort.record, abort.states = record, states
        raise abort
    return states
