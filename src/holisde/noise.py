"""Spatially correlated driving noise and its per-element projections.

The driving process is an L^2(0, L)-valued Wiener process written in the
real Fourier basis,

    W(x, t) = sum_k sqrt(q_k) beta_k(t) e_k(x),

with independent scalar Brownian motions beta_k and user-chosen variances
q_k >= 0 decaying fast enough that sum_k k q_k stays bounded at the
truncation.  Everything downstream (reference solver, coupled element
system, driver tables) reads the *same* sampled Brownian coefficients, one
(R, K+1, n_steps) `NoisePath` per member batch (its rows drawn one by one,
a `PathDraw`, where only the driver tables read it), so comparisons between
solvers are common-random-number comparisons: pathwise gaps measure method
differences, not noise draws.

Per-element drivers are obtained by projecting W onto element modes: for
element j and mode shape e_{j,l} (unit L^2(I_j) norm) the projection
coefficient sqrt(q^h_{j,l}) beta_{j,l}(t) = <W(.,t), e_{j,l}>_{I_j} is a
Brownian motion with variance rate q^h_{j,l} = sum_k q_k <e_k, e_{j,l}>^2.
The weights <e_k, e_{j,l}> are computed once by quadrature; drivers of
neighbouring elements are correlated exactly as the overlapping supports
dictate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DomainGrid

__all__ = [
    "QWienerSpec",
    "NoisePath",
    "PathDraw",
    "ElementNoiseProjection",
    "fourier_basis",
    "sample_global_path",
    "project_to_element_modes",
]

# coupled mode tuples with at most this squared norm on an element are masked out
MIN_RESTRICTION_MASS = 1e-8


def fourier_basis(x: np.ndarray, n_modes: int, L: float) -> np.ndarray:
    """Evaluate the first n_modes orthonormal Fourier modes on [0, L].

    Ordering: e_0 = sqrt(1/L), e_{2m-1} = sqrt(2/L) sin(2 m pi x / L),
    e_{2m} = sqrt(2/L) cos(2 m pi x / L).  Returns shape (n_modes,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_modes,) + x.shape)
    out[0] = np.sqrt(1.0 / L)
    amp = np.sqrt(2.0 / L)
    for k in range(1, n_modes):
        m = (k + 1) // 2
        arg = 2.0 * np.pi * m * x / L
        out[k] = amp * (np.sin(arg) if k % 2 else np.cos(arg))
    return out


@dataclass(frozen=True)
class QWienerSpec:
    """Mode variances q_k of the driving noise, k = 0..K.

    Validation enforces the trace condition at the truncation: either the
    coefficients have finite support (<= 8 nonzeros) or their tail must
    decay at least like (1+k)^{-2}.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("need a 1-d coefficient array with K >= 1")
        if np.any(q < 0):
            raise ValueError("noise variances q_k must be nonnegative")
        nonzero = np.nonzero(q)[0]
        if nonzero.size > 8:
            # tail decay check: fit slope of log q over the upper half
            tail = nonzero[nonzero >= q.size // 2]
            if tail.size >= 3:
                slope = np.polyfit(np.log1p(tail), np.log(q[tail]), 1)[0]
                if slope > -2.0 + 1e-9:
                    raise ValueError(
                        f"q_k tail decays like k^{slope:.2f}; need exponent <= -2 "
                        "or finite support"
                    )

    @classmethod
    def from_decay(cls, n_modes: int, r: float = 3.0) -> "QWienerSpec":
        """Power-law spectrum q_k = (1+k)^{-r}; r >= 2 keeps the trace bound."""
        if r < 2:
            raise ValueError(f"decay exponent must be >= 2, got {r}")
        k = np.arange(n_modes, dtype=float)
        return cls((1.0 + k) ** (-r))

    @property
    def n_modes(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class NoisePath:
    """Sampled Brownian increments of every Fourier coefficient, for a member batch.

    increments[r, k, i] ~ N(0, t_{i+1} - t_i), independent across r, k and i;
    a single path is a batch of one.  Coefficient paths beta_k(t_i) are
    recovered exactly by cumulative summation; no re-sampling happens downstream.
    """

    times: np.ndarray
    increments: np.ndarray        # (R, K+1, n_steps)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        dw = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "increments", dw)
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if dw.ndim != 3 or dw.shape[2] != t.size - 1:
            raise ValueError("increments must be (members, modes, time steps)")

    def __len__(self) -> int:
        return len(self.increments)

    @property
    def n_steps(self) -> int:
        return self.increments.shape[2]

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)


def _draw(seed, sqrt_dt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One member's increments: `default_rng(seed)`'s standard normals times sqrt(dt), in out."""
    np.random.default_rng(seed).standard_normal(out=out)
    out *= sqrt_dt
    return out


def sample_global_path(spec: QWienerSpec, times: np.ndarray, seeds) -> NoisePath:
    """Draw the Brownian coefficient increments of every Fourier mode, one row per seed.

    Deterministic in (seed, times): row r is `default_rng(seeds[r])`'s standard
    normals scaled by sqrt(dt), bitwise whatever else is in the batch or
    consumes it afterwards.  A seed may be an int or a numpy SeedSequence;
    ensembles and studies pass `harness.member_seeds(master_seed, members, 0)`,
    the path stream of its table.  The time grid is validated once.
    """
    path = NoisePath(times, np.empty((len(seeds), spec.n_modes, np.size(times) - 1)))
    sqrt_dt = np.sqrt(path.dt)
    for seed, row in zip(seeds, path.increments):
        _draw(seed, sqrt_dt, row)
    return path


@dataclass(frozen=True)
class PathDraw:
    """`sample_global_path(spec, times, seeds)` without its batch: iterating
    `increments` draws each member's row, bitwise, into one reused buffer."""

    spec: QWienerSpec
    times: np.ndarray
    seeds: list
    dt = NoisePath.dt

    def __len__(self) -> int:
        return len(self.seeds)

    @property
    def increments(self):
        sqrt_dt = np.sqrt(self.dt)
        row = np.empty((self.spec.n_modes, sqrt_dt.size))
        return (_draw(seed, sqrt_dt, row) for seed in self.seeds)


@dataclass(frozen=True)
class ElementNoiseProjection:
    """Projection weights of the global noise onto element modes.

    weights[j, l, k] = <e_k, e_{j,l}>_{I_j} with e_{j,l} the unit-normalized
    restriction of mode l to element j; qh[j, l] = sum_k q_k weights^2 is the
    variance rate of the element-mode driver.

    slow_map and gridpoint_map take a path's increments to the grid-model
    driver tables: the slow element-mode driver at the grid value,
    sqrt(q_k) <e_k, e_{j,0}> e_{j,0}(X_j), and the pointwise noise
    sqrt(q_k) e_k(X_j).  Neither depends on the path, so they are built here
    once.
    """

    grid: DomainGrid
    q: np.ndarray                 # (K+1,)
    weights: np.ndarray           # (M, n_modes, K+1)
    qh: np.ndarray                # (M, n_modes)
    slow_map: np.ndarray          # (M, K+1)
    gridpoint_map: np.ndarray     # (M, K+1)

    def fast_mass_fraction(self) -> np.ndarray:
        """Per element: sum_{l>=1} q^h_{j,l} / q^h_{j,0}."""
        return np.sum(self.qh[:, 1:], axis=1) / self.qh[:, 0]


def project_to_element_modes(
    spec: QWienerSpec,
    eig,
    grid: DomainGrid,
) -> ElementNoiseProjection:
    """Compute projection weights of the Fourier modes onto element modes.

    `eig` is either the analytic decoupled eigensystem (per-element mode
    family) or a numeric coupled one (mode tuples spanning all elements);
    in the numeric case each tuple is restricted to the element and
    unit-normalized there, and tuples carrying negligible mass on an
    element are masked out (their restriction direction is noise).
    """
    mb = grid.mass_block
    nodes = grid.all_nodes()                       # (M, 2, n+1)
    basis = fourier_basis(nodes, spec.n_modes, grid.L)  # (K+1, M, 2, n+1)

    shapes = eig.element_mode_shapes(grid)         # (n_modes, M, 2, n+1)

    weighted = shapes @ mb          # M_b symmetric: serves the norms and the weights
    norms2 = np.sum(weighted * shapes, axis=(2, 3)).T   # (M, n_modes)
    mask = norms2 > MIN_RESTRICTION_MASS
    safe = np.where(mask, norms2, 1.0)
    weights = np.matmul(weighted.transpose(1, 0, 2, 3).reshape(grid.M, shapes.shape[0], -1),
                        basis.transpose(1, 2, 3, 0).reshape(grid.M, -1, spec.n_modes))
    weights = np.where(mask[:, :, None], weights / np.sqrt(safe)[:, :, None], 0.0)
    qh = weights**2 @ spec.q
    sqrt_q = np.sqrt(spec.q)[None, :]
    basis_x = fourier_basis(grid.grid_points, spec.n_modes, grid.L)    # (K+1, M)
    return ElementNoiseProjection(
        grid=grid,
        q=spec.q,
        weights=weights,
        qh=qh,
        slow_map=(weights[:, 0, :] * sqrt_q) * grid.centre_mode_value,
        gridpoint_map=basis_x.T * sqrt_q,
    )

