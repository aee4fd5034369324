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

Both steppers accept a trailing ensemble axis and advance whole member
batches in lock step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla

from .grid import ElementField
from .noise import NoisePath, QWienerSpec, fourier_basis
from .spectral import CoupledOperator

__all__ = [
    "SpdeConfig",
    "ModelTrajectory",
    "NumericalAbort",
    "FullSpdeSolver",
    "CoupledElementSolver",
    "slow_fast_decompose",
    "initial_profile",
    "sample_periodic",
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

    dt guards: the semi-implicit scheme is unconditionally stable; the
    explicit variant refuses dt * lambda_max > 2.
    """

    alpha: float = 1.0
    sigma: float = 0.5
    gamma: float = 1.0
    dt: float = 1e-3
    T: float = 1.0
    scheme: str = "semi_implicit"
    initial: dict = field(default_factory=lambda: {"kind": "sine", "amplitude": 0.3, "mode": 1})

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
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
    """Time series produced by a solver or discrete model.

    states has the time axis first; its trailing shape depends on the
    producer (grid-value vector, element field, ...).  provenance records
    which solver/config/seed generated it, enough to replay bitwise.
    """

    times: np.ndarray
    states: np.ndarray
    provenance: dict

    def __post_init__(self):
        if self.states.shape[0] != self.times.size:
            raise ValueError("states length must match times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def save(self, path) -> None:
        """Binary snapshot dump (full states; CSV export is for grid values)."""
        import json as _json

        np.savez_compressed(path, times=self.times, states=self.states,
                            provenance=np.array(_json.dumps(self.provenance, default=str)))

    @classmethod
    def load(cls, path) -> "ModelTrajectory":
        import json as _json

        data = np.load(path, allow_pickle=False)
        return cls(data["times"], data["states"], _json.loads(str(data["provenance"])))


def sample_periodic(values: np.ndarray, grid_x: np.ndarray, x: np.ndarray, L: float) -> np.ndarray:
    """Linear interpolation of a periodic nodal field at arbitrary points."""
    xq = np.mod(x, L)
    xg = np.concatenate([grid_x, [L]])
    vg = np.concatenate([values, values[:1]], axis=0)
    return np.interp(xq, xg, vg) if values.ndim == 1 else _interp_cols(xq, xg, vg)


def _interp_cols(xq, xg, vg):
    idx = np.clip(np.searchsorted(xg, xq, side="right") - 1, 0, xg.size - 2)
    w = (xq - xg[idx]) / (xg[idx + 1] - xg[idx])
    return vg[idx] * (1.0 - w[:, None]) + vg[idx + 1] * w[:, None]


# ---------------------------------------------------------------------------
# full periodic reference solver
# ---------------------------------------------------------------------------


class FullSpdeSolver:
    """Reference solver on a fine periodic grid, resolution-independent of M.

    The second difference is treated implicitly through its Fourier symbol
    2 (1 - cos(2 pi m / N)) / delta^2; reaction and noise are explicit.
    """

    def __init__(self, L: float, n_fine: int, spec: QWienerSpec):
        self.L = float(L)
        self.n = int(n_fine)
        self.spec = spec
        self.x = self.L * np.arange(self.n) / self.n
        self.delta = self.L / self.n
        self.basis = fourier_basis(self.x, spec.n_modes, self.L)   # (K+1, n)
        self.sqrt_q = np.sqrt(spec.q)
        m = np.arange(self.n // 2 + 1)
        self.symbol = 2.0 * (1.0 - np.cos(2.0 * np.pi * m / self.n)) / self.delta**2

    def noise_increment(self, db: np.ndarray) -> np.ndarray:
        """Field increment on the fine grid from sqrt(q)-weighted coefficients.

        db is (K+1,) or (K+1, R); the result is (n,) or (n, R).
        """
        return np.tensordot(db, self.basis, axes=(0, 0)).T

    def step(self, u: np.ndarray, cfg: SpdeConfig, dW: np.ndarray) -> np.ndarray:
        """One step; u and dW may carry a trailing ensemble axis."""
        reaction = cfg.alpha * (u - u**3)
        rhs = u + cfg.dt * reaction + cfg.sigma * dW
        if cfg.scheme == "semi_implicit":
            rhat = np.fft.rfft(rhs, axis=0)
            rhat /= (1.0 + cfg.dt * self.symbol)[(...,) + (None,) * (rhs.ndim - 1)]
            out = np.fft.irfft(rhat, n=self.n, axis=0)
        else:
            if cfg.dt * self.symbol.max() > 2.0:
                raise NumericalAbort(
                    f"explicit step unstable: dt*lambda_max = {cfg.dt * self.symbol.max():.3g} > 2"
                )
            lap = (np.roll(u, 1, axis=0) - 2.0 * u + np.roll(u, -1, axis=0)) / self.delta**2
            out = u + cfg.dt * (lap + reaction) + cfg.sigma * dW
        if not np.all(np.isfinite(out)):
            raise NumericalAbort("non-finite values in reference solve")
        return out

    def simulate(self, cfg: SpdeConfig, path: NoisePath, u0: Optional[np.ndarray] = None,
                 store: bool = False) -> ModelTrajectory:
        if u0 is None:
            u0 = initial_profile(cfg.initial, self.L)(self.x)
        u = np.array(u0, dtype=float)
        n_steps = path.n_steps
        snaps = [u.copy()] if store else None
        for i in range(n_steps):
            dW = self.noise_increment(self.sqrt_q * path.increments[:, i])
            u = self.step(u, cfg, dW)
            if store:
                snaps.append(u.copy())
        states = np.asarray(snaps) if store else u[None, :]
        times = path.times if store else path.times[-1:]
        return ModelTrajectory(times, states, {"solver": "full_spde", "seed": path.seed})


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
        self.spec = spec
        self.dt = float(dt)
        grid = op.grid
        self.grid = grid
        nodes = np.mod(grid.all_nodes(), grid.L)
        self.basis = fourier_basis(nodes, spec.n_modes, grid.L)  # (K+1, M, 2, n+1)
        self.sqrt_q = np.sqrt(spec.q)
        self._semi_lu = spla.splu((op.M_red + self.dt * op.K_red).tocsc())
        self._lambda_max: Optional[float] = None

    def _stability_guard(self):
        if self._lambda_max is None:
            lam = spla.eigsh(self.op.K_red, k=1, M=self.op.M_red, which="LM",
                             return_eigenvectors=False)
            self._lambda_max = float(lam[0])
        if self.dt * self._lambda_max > 2.0:
            raise NumericalAbort(
                f"explicit step unstable: dt*lambda_max = {self.dt * self._lambda_max:.3g} > 2"
            )

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
        increment to every element, weak-projected through Z^T M.
        """
        dw = np.einsum("k...,kmhi->mhi...", db, self.basis)      # (M, 2, n+1[, R])
        return self.op.gamma * self.op.weak_rhs(dw)

    def step_reduced(self, c: np.ndarray, cfg: SpdeConfig, noise_rhs: np.ndarray) -> np.ndarray:
        """One step in reduced coordinates; c may be (nred,) or (nred, R)."""
        op = self.op
        uv = (op.Z @ c).reshape((self.grid.M, 2, self.grid.subgrid_n + 1) + c.shape[1:])
        reaction = cfg.alpha * (cfg.gamma**2 * uv - uv**3)
        weak = op.weak_rhs(reaction)
        rhs = op.M_red @ c + cfg.dt * weak + cfg.sigma * noise_rhs
        if cfg.scheme == "semi_implicit":
            out = self._semi_lu.solve(rhs)
        else:
            self._stability_guard()
            out = c + op._lu().solve(-cfg.dt * (op.K_red @ c) + cfg.dt * weak
                                     + cfg.sigma * noise_rhs)
        if not np.all(np.isfinite(out)):
            raise NumericalAbort("non-finite values in coupled element solve")
        return out

    def simulate(self, cfg: SpdeConfig, path: NoisePath, u0: Optional[ElementField] = None,
                 store_stride: int = 0) -> ModelTrajectory:
        """Run to the end of the path; optionally store field snapshots."""
        if abs(cfg.dt - self.dt) > 1e-14 * self.dt:
            raise ValueError("config dt differs from the factorized step size")
        c = self.initial_reduced(cfg, u0)
        snaps, snap_times = [], []
        n_steps = path.n_steps
        for i in range(n_steps):
            if store_stride and i % store_stride == 0:
                snaps.append(self.op.field_from_reduced(c).values)
                snap_times.append(path.times[i])
            c = self.step_reduced(c, cfg, self.noise_rhs(self.sqrt_q * path.increments[:, i]))
        snaps.append(self.op.field_from_reduced(c).values)
        snap_times.append(path.times[-1])
        return ModelTrajectory(
            np.asarray(snap_times),
            np.asarray(snaps),
            {"solver": "coupled_elements", "gamma": cfg.gamma, "seed": path.seed},
        )


def slow_fast_decompose(state: ElementField, eig) -> tuple[np.ndarray, ElementField]:
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
