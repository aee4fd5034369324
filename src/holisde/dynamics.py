"""Time stepping for the continuum systems.

Two solvers share one sampled noise path:

* the full periodic reaction-diffusion equation
  du = (u_xx + alpha (u - u^3)) dt + sigma dW on a fine uniform grid,
  stepped semi-implicitly (second difference implicit via FFT, reaction and
  noise explicit) -- the reference truth for every comparison;

* the coupled overlapping-element system
  du_j = (L_gamma u_j + alpha gamma^2 u_j - alpha u_j^3) dt + sigma dW_j^gamma,
  stepped semi-implicitly in the reduced (constraint-eliminated) coordinates,
  so the coupling conditions hold exactly at every step.  The element noise
  is gamma times the weak projection of the same global increments, which is
  the resolved form of the element-mode noise series: summed over all modes
  the series reproduces the restriction of W to the element.

Each solver has one step, one noise method and one batched `simulate`
that advances a member batch in lock step; a single run is a batch of one.
The reference steps a member-major state (R, n), so both FFTs run along
the contiguous axis, and adds its noise in rfft space: the Fourier noise
modes are exact DFT bins of the fine grid.  The coupled solver carries
the members on a trailing axis and applies weak-load maps built once.
Each loop checks finiteness once per step and raises NumericalAbort naming
the step and the first non-finite member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .grid import ElementField
from .noise import QWienerSpec, fourier_basis
from .spectral import CoupledOperator

__all__ = [
    "SpdeConfig",
    "ModelTrajectory",
    "NumericalAbort",
    "FullSpdeSolver",
    "CoupledElementSolver",
    "initial_profile",
]


class NumericalAbort(RuntimeError):
    """A solve produced non-finite values; carries replay diagnostics."""

    def __init__(self, message: str, step: int | None = None, member: int | None = None, seed=None):
        super().__init__(message)
        self.step = step
        self.member = member
        self.seed = seed


@dataclass(frozen=True)
class SpdeConfig:
    """Reaction, noise and stepping parameters shared by the solvers.

    Both solvers step semi-implicitly (diffusion implicit, reaction and
    noise explicit), which is stable for every dt.
    """

    alpha: float = 1.0
    sigma: float = 0.5
    gamma: float = 1.0
    dt: float = 1e-3
    T: float = 1.0
    initial: dict = field(default_factory=lambda: {"kind": "sine", "amplitude": 0.3, "mode": 1})

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def initial_profile(spec: dict, L: float) -> Callable[[np.ndarray], np.ndarray]:
    """Initial-field factory: smooth low-mode profiles shared by all solvers."""
    kind = spec.get("kind", "sine")
    amp = float(spec.get("amplitude", 0.3))
    mode = int(spec.get("mode", 1))
    if kind == "zero":
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))
    if kind == "constant":
        return lambda x: np.full_like(np.asarray(x, dtype=float), amp)
    if kind == "sine":
        return lambda x: amp * np.sin(2.0 * np.pi * mode * np.asarray(x) / L)
    if kind == "mix":
        return lambda x: amp * (
            np.sin(2.0 * np.pi * mode * np.asarray(x) / L)
            + 0.5 * np.cos(4.0 * np.pi * mode * np.asarray(x) / L)
        )
    raise ValueError(f"unknown initial profile {kind!r}")


@dataclass(frozen=True)
class ModelTrajectory:
    """Time series of grid values produced by a discrete model.

    states has the time axis first, then the grid (and, for a member batch,
    the ensemble) axes.  provenance records which model and coupling
    generated it.
    """

    times: np.ndarray
    states: np.ndarray
    provenance: dict

    def __post_init__(self):
        if self.states.shape[0] != self.times.size:
            raise ValueError("states length must match times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _check_finite(x: np.ndarray, member_axis: int, what: str, step: int) -> None:
    """Raise NumericalAbort naming the step and the first non-finite member."""
    if np.all(np.isfinite(x)):
        return
    member = 0                                   # a single state is a batch of one
    if x.ndim > 1:
        bad = np.moveaxis(~np.isfinite(x), member_axis, 0).reshape(x.shape[member_axis], -1)
        member = int(np.argmax(bad.any(axis=1)))
    raise NumericalAbort(f"non-finite values in {what}", step=step, member=member)


def _weighted_increments(sqrt_q: np.ndarray, paths: list) -> Iterator[np.ndarray]:
    """Per step, the sqrt(q)-weighted increments of a member batch, (K+1, R)."""
    sq = sqrt_q[:, None]
    for i in range(paths[0].n_steps):
        yield sq * np.stack([p.increments[:, i] for p in paths], axis=-1)


# ---------------------------------------------------------------------------
# full periodic reference solver
# ---------------------------------------------------------------------------


class FullSpdeSolver:
    """Reference solver on a fine periodic grid, resolution-independent of M.

    The second difference is treated implicitly through its Fourier symbol
    2 (1 - cos(2 pi m / N)) / delta^2; reaction and noise are explicit.  The
    noise enters as rfft bins: basis_hat holds the rfft of every sampled
    noise mode up to the highest bin any mode reaches (aliased modes fold
    onto their bins exactly).
    """

    def __init__(self, L: float, n_fine: int, spec: QWienerSpec):
        self.L = float(L)
        self.n = int(n_fine)
        self.x = self.L * np.arange(self.n) / self.n
        self.delta = self.L / self.n
        nb = min(self.n // 2, spec.n_modes // 2) + 1
        basis = fourier_basis(self.x, spec.n_modes, self.L)                # (K+1, n)
        self.basis_hat = np.fft.rfft(basis, axis=-1)[:, :nb]              # (K+1, nb)
        self.sqrt_q = np.sqrt(spec.q)
        m = np.arange(self.n // 2 + 1)
        self.symbol = 2.0 * (1.0 - np.cos(2.0 * np.pi * m / self.n)) / self.delta**2

    def noise_increment(self, db: np.ndarray) -> np.ndarray:
        """Leading rfft bins of the fine-grid noise increment.

        db holds sqrt(q)-weighted coefficients, (K+1,) or (K+1, R); the
        result is (nb,) or (R, nb).
        """
        return np.tensordot(db, self.basis_hat, axes=(0, 0))

    def step(self, u: np.ndarray, cfg: SpdeConfig, dw_hat: np.ndarray) -> np.ndarray:
        """One step of u, (n,) or (R, n); dw_hat is the matching noise_increment."""
        reaction = cfg.alpha * (u - (u * u * u))
        rhat = np.fft.rfft(u + cfg.dt * reaction, axis=-1)
        rhat[..., : dw_hat.shape[-1]] += cfg.sigma * dw_hat
        rhat /= 1.0 + cfg.dt * self.symbol
        return np.fft.irfft(rhat, n=self.n, axis=-1)

    def simulate(self, cfg: SpdeConfig, paths: list,
                 u0: Optional[np.ndarray] = None) -> np.ndarray:
        """Fine field at the end of the paths for a member batch, shape (n, R).

        Every member starts from u0 (default: the configured initial
        profile) and is driven by its own path; the state is stepped
        member-major and returned transposed.
        """
        if u0 is None:
            u0 = initial_profile(cfg.initial, self.L)(self.x)
        u = np.repeat(np.asarray(u0, dtype=float)[None, :], len(paths), axis=0)
        for i, db in enumerate(_weighted_increments(self.sqrt_q, paths)):
            u = self.step(u, cfg, self.noise_increment(db))
            _check_finite(u, 0, "reference solve", i)
        return u.T


# ---------------------------------------------------------------------------
# coupled overlapping-element solver
# ---------------------------------------------------------------------------


class CoupledElementSolver:
    """Semi-implicit stepper for the gamma-coupled element system.

    Works in the reduced coordinates of the constraint basis, so the value
    coupling conditions are enforced exactly by construction; the flux
    condition is the natural condition of the Galerkin form.
    """

    def __init__(self, op: CoupledOperator, spec: QWienerSpec, dt: float):
        self.op = op
        self.dt = float(dt)
        grid = op.grid
        self.grid = grid
        nodes = np.mod(grid.all_nodes(), grid.L)
        basis = fourier_basis(nodes, spec.n_modes, grid.L).reshape(spec.n_modes, -1)
        self.load = op.gamma * (op.ZtM @ basis.T)                  # (nred, K+1)
        self.sqrt_q = np.sqrt(spec.q)
        self._semi_lu = spla.splu((op.M_red + self.dt * op.K_red).tocsc())

    def initial_reduced(self, cfg: SpdeConfig, u0: Optional[ElementField] = None) -> np.ndarray:
        """Project initial data onto the constrained subspace."""
        if u0 is None:
            f = initial_profile(cfg.initial, self.grid.L)
            u0 = ElementField(f(self.grid.all_nodes()), self.grid)
        return self.op.reduce(u0)

    def noise_rhs(self, db: np.ndarray) -> np.ndarray:
        """Reduced weak load of the element noise increment (without sigma).

        db holds sqrt(q)-weighted global coefficients, (K+1,) or (K+1, R).
        The increment field is gamma times the restriction of the global
        increment to every element, weak-projected through Z^T M: the
        precomputed load map gamma Z^T M basis, (nred, K+1).
        """
        return self.load @ db

    def step_reduced(self, c: np.ndarray, cfg: SpdeConfig, noise_rhs: np.ndarray) -> np.ndarray:
        """One step in reduced coordinates; c may be (nred,) or (nred, R)."""
        op = self.op
        uv = (op.Z @ c).reshape((self.grid.M, 2, self.grid.subgrid_n + 1) + c.shape[1:])
        reaction = cfg.alpha * (cfg.gamma**2 * uv - (uv * uv * uv))
        weak = op.weak_rhs(reaction)
        rhs = op.M_red @ c + cfg.dt * weak + cfg.sigma * noise_rhs
        return self._semi_lu.solve(rhs)

    def simulate(self, cfg: SpdeConfig, paths: list,
                 u0: Optional[ElementField] = None) -> np.ndarray:
        """Element fields at the end of the paths, shape (M, 2, n+1, R).

        Every member starts from the projection of u0 (default: the
        configured initial profile) and is driven by its own path.
        """
        if abs(cfg.dt - self.dt) > 1e-14 * self.dt:
            raise ValueError("config dt differs from the factorized step size")
        c = np.repeat(self.initial_reduced(cfg, u0)[:, None], len(paths), axis=1)
        for i, db in enumerate(_weighted_increments(self.sqrt_q, paths)):
            c = self.step_reduced(c, cfg, self.noise_rhs(db))
            _check_finite(c, -1, "coupled element solve", i)
        return (self.op.Z @ c).reshape(self.grid.M, 2, self.grid.subgrid_n + 1, -1)

