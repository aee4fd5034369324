"""Time stepping for the continuum systems.

Two solvers share one sampled member batch of noise paths:

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

Each solver has one step and one noise method, and `run_batches` advances
a NoisePath member batch in lock step, writing each step's weighted
(K+1, R) increments into one buffer; a single run is a batch of one.
The reference steps a member-major state (R, n), so both FFTs run along
the contiguous axis, and adds its noise in rfft space: the Fourier noise
modes are exact DFT bins of the fine grid.  The coupled solver carries the
members on a trailing axis, applies weak-load maps built once and writes its
per-step arrays into buffers made once per member block.

Both solvers step only through that runner: it splits every job's
batch into L2-sized member blocks and steps all blocks of all jobs in place
on a pool of one thread per usable CPU, each field bitwise as one
whole-batch loop.  A block stops at its first non-finite step; the runner
raises NumericalAbort naming the step and the first non-finite member of the
first aborting job, as one serial loop over the jobs would.

This module imports no scipy: the coupled solver gets its sparse LU factor
from `CoupledOperator.semi_implicit_lu`, so scipy's linear algebra loads
only where `spectral` builds the coupled operator, and the reference and
grid-model paths start without it.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import ElementField
from .noise import NoisePath, QWienerSpec, fourier_basis
from .spectral import CoupledOperator

__all__ = [
    "SpdeConfig",
    "BatchJob",
    "run_batches",
    "pool_width",
    "NumericalAbort",
    "FullSpdeSolver",
    "CoupledElementSolver",
    "initial_profile",
]


class NumericalAbort(RuntimeError):
    """A solve produced non-finite values; carries replay diagnostics.

    `job` is the index of the aborting job in a `run_batches` call, None
    outside one; `fields` then holds the fields of the jobs before it.
    """

    def __init__(self, message: str, step: int | None = None, member: int | None = None, seed=None):
        super().__init__(message)
        self.step = step
        self.member = member
        self.seed = seed
        self.job = None
        self.fields = []


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
    raise ValueError(f"unknown initial profile {kind!r}")


def _check_finite(x: np.ndarray, member_axis: int, what: str, step: int) -> None:
    """Raise NumericalAbort naming the step and the first non-finite member."""
    if np.all(np.isfinite(x)):
        return
    bad = np.moveaxis(~np.isfinite(x), member_axis, 0).reshape(x.shape[member_axis], -1)
    raise NumericalAbort(f"non-finite values in {what}", step=step,
                         member=int(np.argmax(bad.any(axis=1))))


# ---------------------------------------------------------------------------
# the block runner shared by both solvers
# ---------------------------------------------------------------------------


_WORKER = "holisde-solver"


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The solvers' block workers, one per usable CPU, made on first use."""
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)), thread_name_prefix=_WORKER)


def pool_width() -> int:
    """How many blocks `run_batches` steps at once: its pool's worker count."""
    return _pool()._max_workers


@dataclass(frozen=True)
class BatchJob:
    """One member batch for `run_batches`: every member starts from u0
    (default: cfg's initial profile) and is driven by its row of `path`."""

    solver: FullSpdeSolver | CoupledElementSolver
    cfg: SpdeConfig
    path: NoisePath
    u0: Optional[np.ndarray | ElementField] = None


def run_batches(jobs: list[BatchJob]) -> list[np.ndarray]:
    """Each job's fields at the end of its paths: the reference's fine field
    (n, R), the coupled solver's element fields (M, 2, n+1, R).

    Every job's state is split into near-equal member blocks of at most
    512 KiB where possible, never a block of one member unless R = 1, and all
    blocks of all jobs run in one pool map, each its own time loop in place.
    Members are independent, and each solver's noise product puts them on
    the GEMM's row axis (the reference's `tensordot`, the coupled solver's
    `db^T load^T`), where OpenBLAS rounds a member's row alike at every
    width above one, so every field is bitwise that of stepping the job's
    whole batch at once.  A block stops at its first non-finite step and
    every block stops once the caller stops waiting.  The abort raised is the
    first aborting job's in list order, at its earliest step, then its lowest
    member; its `job` is that job's index and its `fields` the finished
    fields of the jobs before it, as a serial loop would have them.  The
    runner waits on the pool, so a pool worker must not call it: with one
    worker per CPU, the nested wait can deadlock.
    """
    if threading.current_thread().name.startswith(_WORKER):
        raise RuntimeError("run_batches must not be called from a solver pool worker")
    states, blocks = [], []
    for j, job in enumerate(jobs):
        state = job.solver._batch_state(job.cfg, job.path, job.u0)
        R = len(job.path.increments)
        n_blocks = max(1, min(-(-state.nbytes // 2**19), R // 2))    # 512 KiB blocks: L2 / 4
        edges = [R * b // n_blocks for b in range(n_blocks + 1)]
        blocks += [(j, lo, hi, job.solver._block_stepper(job.cfg, state, lo, hi))
                   for lo, hi in zip(edges[:-1], edges[1:])]
        states.append(state)
    err = np.geterr()             # worker threads start from numpy's default error state
    stop = threading.Event()      # set when the caller stops waiting, e.g. on an interrupt

    def run(j: int, lo: int, hi: int, advance) -> Optional[NumericalAbort]:
        solver, path = jobs[j].solver, jobs[j].path
        sq = solver.sqrt_q[:, None]
        db = np.empty((sq.size, hi - lo))
        with np.errstate(**err):
            try:
                for i in range(path.n_steps):
                    if stop.is_set():
                        break
                    np.multiply(sq, path.increments[lo:hi, :, i].T, out=db)
                    _check_finite(advance(db), 0, solver._what, i)
            except NumericalAbort as abort:
                abort.member += lo
                return abort

    try:
        aborts = list(_pool().map(run, *zip(*blocks)))
    finally:
        stop.set()
    failed = [(j, a.step, a.member, a) for (j, *_), a in zip(blocks, aborts) if a is not None]
    done = len(jobs)
    if failed:
        done, *_, abort = min(failed, key=lambda f: f[:3])
    fields = [job.solver._batch_fields(state) for job, state in zip(jobs[:done], states)]
    if failed:
        abort.job, abort.fields = done, fields
        raise abort
    return fields


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
        # a copy: a view would keep all n // 2 + 1 bins of every mode alive
        self.basis_hat = np.fft.rfft(basis, axis=-1)[:, :nb].copy()       # (K+1, nb)
        self.sqrt_q = np.sqrt(spec.q)
        m = np.arange(self.n // 2 + 1)
        self.symbol = 2.0 * (1.0 - np.cos(2.0 * np.pi * m / self.n)) / self.delta**2

    def noise_increment(self, db: np.ndarray) -> np.ndarray:
        """Leading rfft bins of the fine-grid noise increment.

        db holds sqrt(q)-weighted coefficients, (K+1,) or (K+1, R); the
        result is (nb,) or (R, nb).
        """
        return np.tensordot(db, self.basis_hat, axes=(0, 0))

    def step(self, u: np.ndarray, cfg: SpdeConfig, dw_hat: np.ndarray, scratch: np.ndarray,
             rhat: np.ndarray, inv: np.ndarray) -> None:
        """u <- irfft((rfft(u + dt alpha (u - u u u)) + sigma dw_hat) inv), in place.

        u is (R, n), dw_hat its noise_increment, scratch an (R, n) and rhat an
        (R, n // 2 + 1) buffer, and inv the implicit reciprocal
        1 / (1 + dt symbol).  numpy divides a complex by a real through the
        real's reciprocal, so the multiply gives the division's bits at about
        a quarter of its cost.
        """
        np.multiply(u, u, out=scratch)
        np.multiply(scratch, u, out=scratch)
        np.subtract(u, scratch, out=scratch)
        np.multiply(cfg.alpha, scratch, out=scratch)
        np.multiply(cfg.dt, scratch, out=scratch)
        np.add(u, scratch, out=scratch)
        np.fft.rfft(scratch, axis=-1, out=rhat)
        rhat[:, : dw_hat.shape[-1]] += cfg.sigma * dw_hat
        np.multiply(rhat, inv, out=rhat)
        np.fft.irfft(rhat, n=self.n, axis=-1, out=u)

    # -- the runner's interface: whole-batch state, block step, result -------

    _what = "reference solve"

    def _batch_state(self, cfg: SpdeConfig, path: NoisePath,
                     u0: Optional[np.ndarray]) -> np.ndarray:
        if u0 is None:
            u0 = initial_profile(cfg.initial, self.L)(self.x)
        return np.repeat(np.asarray(u0, dtype=float)[None, :], len(path.increments), axis=0)

    def _block_stepper(self, cfg: SpdeConfig, u: np.ndarray, lo: int, hi: int):
        """advance(db) steps members lo:hi of u in place with their own buffers
        and returns them, members first."""
        ub, inv = u[lo:hi], 1.0 / (1.0 + cfg.dt * self.symbol)
        scratch, rhat = np.empty_like(ub), np.empty((hi - lo, inv.size), dtype=complex)

        def advance(db: np.ndarray) -> np.ndarray:
            self.step(ub, cfg, self.noise_increment(db), scratch, rhat, inv)
            return ub

        return advance

    def _batch_fields(self, u: np.ndarray) -> np.ndarray:
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
        self.nodal_shape = (grid.M, 2, grid.subgrid_n + 1)
        self.sqrt_q = np.sqrt(spec.q)
        self._semi_lu = op.semi_implicit_lu(self.dt)

    def initial_reduced(self, cfg: SpdeConfig, u0: Optional[ElementField] = None) -> np.ndarray:
        """Project initial data onto the constrained subspace."""
        if u0 is None:
            f = initial_profile(cfg.initial, self.grid.L)
            u0 = ElementField(f(self.grid.all_nodes()), self.grid)
        return self.op.reduce(u0)

    def noise_rhs(self, db: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Reduced weak load of the element noise increment (without sigma).

        db holds sqrt(q)-weighted global coefficients, (K+1,) or (K+1, R).
        The increment field is gamma times the restriction of the global
        increment to every element, weak-projected through Z^T M: the
        precomputed load map gamma Z^T M basis, (nred, K+1).  The product
        (db^T load^T)^T keeps the members on the GEMM's row axis, so each
        member's load is bitwise at every batch width above one; it is
        written into a member-major `out` (R, nred) when one is given.
        """
        return np.matmul(db.T, self.load.T, out=out).T

    def step_reduced(self, c: np.ndarray, cfg: SpdeConfig, noise_rhs: np.ndarray,
                     cube: np.ndarray) -> None:
        """One step in reduced coordinates, in place; c may be (nred,) or (nred, R).

        c <- (M_red + dt K_red)^-1 (M_red c + dt weak_rhs(reaction) + sigma noise_rhs),
        with the reaction alpha (gamma^2 u - u u u) of the nodal field u = Z c.
        cube is a nodal (M, 2, n+1[, R]) buffer; the reaction and the right-hand
        side are written over the sparse products they start from.
        """
        op = self.op
        uv = (op.Z @ c).reshape(cube.shape)
        np.multiply(uv, uv, out=cube)
        np.multiply(cube, uv, out=cube)
        np.multiply(cfg.gamma**2, uv, out=uv)
        np.subtract(uv, cube, out=uv)
        np.multiply(cfg.alpha, uv, out=uv)
        weak = op.weak_rhs(uv)
        np.multiply(cfg.dt, weak, out=weak)
        rhs = op.M_red @ c
        np.add(rhs, weak, out=rhs)
        np.multiply(cfg.sigma, noise_rhs, out=weak)
        np.add(rhs, weak, out=rhs)
        del uv, weak        # before the solve: a worker thread's arena keeps its high-water mark
        c[...] = self._semi_lu.solve(rhs)

    # -- the runner's interface: whole-batch state, block step, result -------

    _what = "coupled element solve"

    def _batch_state(self, cfg: SpdeConfig, path: NoisePath,
                     u0: Optional[ElementField]) -> np.ndarray:
        if abs(cfg.dt - self.dt) > 1e-14 * self.dt:
            raise ValueError("config dt differs from the factorized step size")
        return np.repeat(self.initial_reduced(cfg, u0)[:, None], len(path.increments), axis=1)

    def _block_stepper(self, cfg: SpdeConfig, c: np.ndarray, lo: int, hi: int):
        """advance(db) steps members lo:hi of c in place with their own buffers
        and returns them, members first."""
        cb = c[:, lo:hi]
        cube, load = np.empty(self.nodal_shape + (hi - lo,)), np.empty((hi - lo, cb.shape[0]))

        def advance(db: np.ndarray) -> np.ndarray:
            self.step_reduced(cb, cfg, self.noise_rhs(db, load), cube)
            return cb.T

        return advance

    def _batch_fields(self, c: np.ndarray) -> np.ndarray:
        return (self.op.Z @ c).reshape(self.nodal_shape + (-1,))
