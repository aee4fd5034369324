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

Each solver has one step and one noise method, and steps only through
`run_batches`, which advances member batches of Brownian increments
(R, K+1, n_steps) in lock step with `SpdeConfig.dt`, the one time step, in
L2-sized member blocks on a pool of one thread per usable CPU; a single run
is a batch of one.  The reference steps a member-major state (R, n), so both
FFTs run along the contiguous axis, and adds its noise in rfft space: the
Fourier noise modes are exact DFT bins of the fine grid.  At alpha = 0 the
step is diagonal in those bins, so the runner steps the spectrum instead:
one rfft per member block, one irfft per batch at the end, none per step, and
it steps only the nb bins that take noise, decaying the rest once by the
implicit factor's n_steps-th power.  That skips an irfft-rfft round trip per
step and moves the fields by round-off (criterion 09's gaps by 5.2e-11
relative); every alpha != 0 step stays bitwise `step`'s.  The coupled
solver carries the members on a trailing axis, writes its per-step arrays
into buffers made once per member block, and solves by `spectral`'s static
condensation per half-element: one inverse of the interior block serves all
2M halves, which meet only in the M centre values.  It projects its initial data by `CoupledOperator.reduce` and
rebuilds its fields by `field_from_reduced`, in the operator's one reduced
order.  No module of the package imports scipy.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import ElementField
from .noise import QWienerSpec, fourier_basis
from .spectral import CoupledOperator, _condensed, _gemm_width

__all__ = [
    "SpdeConfig",
    "BatchJob",
    "run_batches",
    "NumericalAbort",
    "FullSpdeSolver",
    "CoupledElementSolver",
    "initial_profile",
]


class NumericalAbort(RuntimeError):
    """A solve produced non-finite values; names the step, member and seed to replay."""

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
        if not np.isfinite(self.T / self.dt):
            raise ValueError(f"T / dt = {self.T / self.dt} is not a finite step count")
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


# ---------------------------------------------------------------------------
# the block runner shared by both solvers
# ---------------------------------------------------------------------------


_WORKER = "holisde-solver"
_L2_BUDGET = 2**19    # bytes of a solver's member block: L2 / 4


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The solvers' block workers, one per usable CPU, made on first use.  The
    workers are the parallelism, so this pins numpy's bundled OpenBLAS to one
    thread, and warns once where it cannot reach it."""
    try:        # dlsym on numpy's core module also searches the libraries it links
        pin = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        warnings.warn("numpy's bundled OpenBLAS was not found; set OPENBLAS_NUM_THREADS=1 so "
                      "that each solver worker runs BLAS on one thread", RuntimeWarning)
    else:
        pin.argtypes, pin.restype = [ctypes.c_int], None
        pin(1)
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)), thread_name_prefix=_WORKER)


@dataclass(frozen=True)
class BatchJob:
    """One member batch for `run_batches`: every member starts from u0
    (default: cfg's initial profile) and is driven by its row of `path`,
    the (R, K+1, cfg.n_steps) increments of `noise.sample_global_path`."""

    solver: FullSpdeSolver | CoupledElementSolver
    cfg: SpdeConfig
    path: np.ndarray
    u0: Optional[np.ndarray | ElementField] = None


def run_batches(jobs: list[BatchJob]) -> list[np.ndarray]:
    """Each job's fields at the end of its paths: the reference's fine field
    (n, R), the coupled solver's element fields (M, 2, n+1, R).

    Every job's members are split into near-equal blocks of at most 512 KiB
    of stepped state (the solver's `_member_bytes(cfg)` per member: at
    alpha = 0 the reference steps only its nb noise bins) where possible,
    and into at least ceil(workers / jobs) blocks, so that one job fills the
    pool; never a block of one member unless R = 1.  All blocks of all jobs
    run in one pool map, each its own time loop in place.
    Members are independent; the reference's noise product puts them on the
    GEMM's row axis (a C-ordered db's transpose, one member padded to two),
    where OpenBLAS rounds a row alike at every width above one, and the coupled solver's
    products run on them padded to `_gemm_width` columns, where it rounds a
    column alike at every width, so every field is bitwise that of
    stepping the whole batch.
    A block stops at its first non-finite step and
    every block stops once the caller stops waiting.  The abort raised is the
    first aborting job's in list order, at its earliest step, then its lowest
    member.  The runner waits on the pool, so a pool worker must not call it: with one
    worker per CPU, the nested wait can deadlock.  Raises ValueError for a
    path that is not 3-D or does not hold its config's n_steps steps.
    """
    if threading.current_thread().name.startswith(_WORKER):
        raise RuntimeError("run_batches must not be called from a solver pool worker")
    for job in jobs:
        if job.path.ndim != 3 or job.path.shape[2] != job.cfg.n_steps:
            raise ValueError(f"a path must be (members, modes, {job.cfg.n_steps} steps), "
                             f"got shape {job.path.shape}")
    states, blocks = [], []
    floor = -(-_pool()._max_workers // max(len(jobs), 1))       # blocks per job to fill the pool
    for j, job in enumerate(jobs):
        R = len(job.path)
        state = job.solver._batch_state(job.cfg, R, job.u0)
        member_bytes = job.solver._member_bytes(job.cfg)
        n_blocks = max(1, min(max(-(-R * member_bytes // _L2_BUDGET), floor), R // 2))
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
            for i in range(path.shape[2]):
                if stop.is_set():
                    break
                np.multiply(sq, path[lo:hi, :, i].T, out=db)
                u = advance(db)
                if not np.isfinite(u).all():      # name the block's first non-finite member
                    finite = np.isfinite(u).reshape(hi - lo, -1).all(axis=1)
                    return NumericalAbort(f"non-finite values in {solver._what}", i,
                                          lo + int(np.argmin(finite)))

    try:
        aborts = list(_pool().map(run, *zip(*blocks)))
    finally:
        stop.set()
    failed = [(j, a.step, a.member, a) for (j, *_), a in zip(blocks, aborts) if a is not None]
    if failed:
        raise min(failed, key=lambda f: f[:3])[-1]
    return [job.solver._batch_fields(state) for job, state in zip(jobs, states)]


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

    With alpha = 0 there is no reaction, so `step` is (rfft(u) + sigma
    dw_hat) inv, diagonal in the bins, and `run_batches` steps each block's
    spectrum through the same add and multiply, with no FFT per step.  The
    bins from nb up take no noise, so the block multiplies them once by
    inv^n_steps and steps the nb noise bins alone.  Its fields then differ
    from `step`'s by the skipped round trips, at most n_steps 2 log2(n) eps
    relative; alpha != 0 always steps through `step`.
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

    def _member_bytes(self, cfg: SpdeConfig) -> int:
        """Bytes a block steps per member: its noise bins at alpha = 0, else its field row."""
        return 16 * self.basis_hat.shape[1] if cfg.alpha == 0 else 8 * self.n

    def noise_increment(self, db: np.ndarray) -> np.ndarray:
        """Leading rfft bins of the fine-grid noise increment.

        db holds sqrt(q)-weighted coefficients (K+1, R); the result is
        (R, nb).  It is one real product of db's transpose with basis_hat's
        (re, im) pairs.  db is made C-ordered first, so the GEMM sees one
        layout whatever the caller's, and rounds a row alike at every width
        above one; a single member is padded to two, so a one-member batch
        steps bitwise as that member of any wider batch.
        """
        if db.shape[1] == 1:
            return self.noise_increment(np.hstack([db, np.zeros_like(db)]))[:1]
        return (np.ascontiguousarray(db).T @ self.basis_hat.view(float)).view(complex)

    def step(self, u: np.ndarray, cfg: SpdeConfig, dw_hat: np.ndarray, scratch: np.ndarray,
             rhat: np.ndarray, inv: np.ndarray) -> None:
        """u <- irfft((rfft(u + dt alpha (u - u u u)) + sigma dw_hat) inv), in place.

        u is (R, n), dw_hat its noise_increment, scratch an (R, n) and rhat an
        (R, n // 2 + 1) buffer, and inv the implicit reciprocal
        1 / (1 + dt symbol) repeated per (re, im) pair.  numpy divides a
        complex by a real through the real's reciprocal, so multiplying the
        bins' real view by inv gives the division's bits, with no complex cast.
        """
        np.multiply(u, u, out=scratch)
        np.multiply(scratch, u, out=scratch)
        np.subtract(u, scratch, out=scratch)
        np.multiply(cfg.alpha, scratch, out=scratch)
        np.multiply(cfg.dt, scratch, out=scratch)
        np.add(u, scratch, out=scratch)
        np.fft.rfft(scratch, axis=-1, out=rhat)
        rhat[:, : dw_hat.shape[-1]] += cfg.sigma * dw_hat
        np.multiply(rhat.view(float), inv, out=rhat.view(float))
        np.fft.irfft(rhat, n=self.n, axis=-1, out=u)

    # -- the runner's interface: whole-batch state, block step, result -------

    _what = "reference solve"

    def _batch_state(self, cfg: SpdeConfig, R: int, u0: Optional[np.ndarray]) -> tuple:
        """The field (R, n) and, at alpha = 0, a buffer for its spectrum (R, n // 2 + 1)."""
        if u0 is None:
            u0 = initial_profile(cfg.initial, self.L)(self.x)
        u = np.repeat(np.asarray(u0, dtype=float)[None, :], R, axis=0)
        return u, (np.empty((len(u), self.n // 2 + 1), dtype=complex) if cfg.alpha == 0 else None)

    def _block_stepper(self, cfg: SpdeConfig, state: tuple, lo: int, hi: int):
        """advance(db) steps members lo:hi of the state in place with their own
        buffers and returns them, members first: the field through `step`, or
        at alpha = 0 the (re, im) pairs of the nb noise bins.  `step` leaves
        the spectrum diagonal in the rfft bins, so the block takes one rfft
        here and none per step, and multiplies the noiseless bins above nb
        here, once, by inv^n_steps."""
        u, uhat = state
        ub, inv = u[lo:hi], 1.0 / (1.0 + cfg.dt * self.symbol)
        if uhat is not None:
            vb, nb = np.fft.rfft(ub, axis=-1, out=uhat[lo:hi]), self.basis_hat.shape[1]
            vb[:, nb:] *= inv[nb:] ** cfg.n_steps
            head, inv = vb.view(float)[:, : 2 * nb], np.repeat(inv[:nb], 2)

            def advance(db: np.ndarray) -> np.ndarray:
                np.add(head, cfg.sigma * self.noise_increment(db).view(float), out=head)
                return np.multiply(head, inv, out=head)

            return advance
        scratch, rhat = np.empty_like(ub), np.empty((hi - lo, inv.size), dtype=complex)
        inv = np.repeat(inv, 2)

        def advance(db: np.ndarray) -> np.ndarray:
            self.step(ub, cfg, self.noise_increment(db), scratch, rhat, inv)
            return ub

        return advance

    def _batch_fields(self, state: tuple) -> np.ndarray:
        u, uhat = state
        if uhat is not None:
            np.fft.irfft(uhat, n=self.n, axis=-1, out=u)
        return u.T


# ---------------------------------------------------------------------------
# coupled overlapping-element solver
# ---------------------------------------------------------------------------


class CoupledElementSolver:
    """Semi-implicit stepper for the gamma-coupled element system.

    Works in the operator's reduced coordinates, every element's interior
    nodes (left half, then right half) first and the M centre values last,
    so the value coupling conditions are enforced exactly by construction;
    the flux condition is the natural condition of the Galerkin form.  The
    solve is `_condensed`'s with B = mb + dt kb, built from the grid's
    half-element mass and stiffness matrices and the coupling strength alone.
    """

    def __init__(self, op: CoupledOperator, spec: QWienerSpec, dt: float):
        self.dt, self.op, self.ends = float(dt), op, op.ends
        grid = self.grid = op.grid
        n, mb = grid.subgrid_n, grid.mass_block
        self.T, self.centre, self.correct = _condensed(mb, mb + self.dt * grid.stiffness_block,
                                                       self.ends)
        basis = fourier_basis(np.mod(grid.all_nodes(), grid.L), spec.n_modes, grid.L)
        # gamma times the noise modes at every node, node by node: (n+1) 2M rows
        self.basis = op.gamma * basis.reshape(spec.n_modes, -1, n + 1).T.reshape(-1, spec.n_modes)
        self.sqrt_q = np.sqrt(spec.q)

    def _member_bytes(self, cfg: SpdeConfig) -> int:
        """Bytes a block steps per member: its reduced state."""
        return 8 * self.op.n_reduced

    def initial_reduced(self, cfg: SpdeConfig, u0: Optional[ElementField] = None) -> np.ndarray:
        """Project initial data onto the constrained subspace, (nred,)."""
        if u0 is None:
            u0 = ElementField(initial_profile(cfg.initial, self.grid.L)(self.grid.all_nodes()),
                              self.grid)
        return self.op.reduce(u0)

    def noise_rhs(self, db: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The element noise increment (without sigma), (M, 2, n+1, R): gamma
        times the global increment at every element node, for sqrt(q)-weighted
        global coefficients db (K+1, R).  It is one product with db padded to
        P = `_gemm_width(R)` columns, into a node-by-node buffer `out`
        (n+1, 2M, P) when one is given.
        """
        R, P = db.shape[1], _gemm_width(db.shape[1])
        if P > R:
            db = np.hstack([db, np.zeros((len(db), P - R))])
        n, M = self.grid.subgrid_n, self.grid.M
        out = np.empty((n + 1, 2 * M, P)) if out is None else out
        np.matmul(self.basis, db, out=out.reshape(-1, P))
        return out[..., :R].reshape(n + 1, M, 2, R).transpose(1, 2, 0, 3)

    def workspace(self, R: int) -> tuple:
        """Zeroed buffers for `step_reduced` on R members: the nodal values and
        T's product, node by node (n+1, 2M, P), and the centres (M, P).  Every
        product runs on these P = `_gemm_width(R)` columns, so a member steps
        bitwise alike at every batch width."""
        n, M, P = self.grid.subgrid_n, self.grid.M, _gemm_width(R)
        return np.zeros((n + 1, 2 * M, P)), np.zeros((n + 1, 2 * M, P)), np.zeros((M, P))

    def step_reduced(self, c: np.ndarray, cfg: SpdeConfig, noise: np.ndarray,
                     work: tuple) -> None:
        """One step in the solver's coordinates, in place; c is (nred, R).

        c <- A^-1 ZtM (u + dt alpha (gamma^2 - u u) u + noise) for u = Z c,
        A = M_red + dt K_red and `noise` the element noise increment with
        sigma, (M, 2, n+1, R), through `_condensed`'s pieces.  work is
        `workspace(R)`.
        """
        u, y, x_c = work
        n, M, R, P = self.grid.subgrid_n, self.grid.M, c.shape[1], u.shape[-1]
        interior, centres = c[:-M].reshape(2 * M, n - 1, R).transpose(1, 0, 2), c[-M:]
        x_c[:, :R] = centres
        np.matmul(self.ends, x_c, out=y[:2].reshape(-1, P))
        u[::n] = y[:2]
        u[1:n, :, :R] = interior
        np.multiply(u, u, out=y)                        # y: scratch until T's product
        np.subtract(cfg.gamma**2, y, out=y)
        np.multiply(y, u, out=y)
        np.multiply(cfg.dt * cfg.alpha, y, out=y)
        np.add(u, y, out=u)
        np.add(u[..., :R], noise.transpose(2, 0, 1, 3).reshape(n + 1, 2 * M, R), out=u[..., :R])
        np.matmul(self.T, u.reshape(n + 1, -1), out=y.reshape(n + 1, -1))
        np.matmul(self.centre, y[:2].reshape(-1, P), out=x_c)
        fix = u[: n - 1]                                 # spent: the interior corrections
        np.matmul(self.correct, x_c, out=fix.reshape(-1, P))
        np.subtract(y[2:, :, :R], fix[..., :R], out=interior)
        centres[:] = x_c[:, :R]

    # -- the runner's interface: whole-batch state, block step, result -------

    _what = "coupled element solve"

    def _batch_state(self, cfg: SpdeConfig, R: int, u0: Optional[ElementField]) -> np.ndarray:
        if abs(cfg.dt - self.dt) > 1e-14 * self.dt:
            raise ValueError("config dt differs from the condensed step size")
        return np.repeat(self.initial_reduced(cfg, u0)[:, None], R, axis=1)

    def _block_stepper(self, cfg: SpdeConfig, c: np.ndarray, lo: int, hi: int):
        """advance(db) steps members lo:hi of c in place with their own buffers
        and returns them, members first; sigma db goes to a padded buffer."""
        cb, work = c[:, lo:hi], self.workspace(hi - lo)
        db_pad, noise = np.zeros((len(self.sqrt_q), work[-1].shape[1])), np.empty_like(work[0])

        def advance(db: np.ndarray) -> np.ndarray:
            np.multiply(cfg.sigma, db, out=db_pad[:, : hi - lo])
            self.step_reduced(cb, cfg, self.noise_rhs(db_pad, noise)[..., : hi - lo], work)
            return cb.T

        return advance

    def _batch_fields(self, c: np.ndarray) -> np.ndarray:
        """The element fields (M, 2, n+1, R) of reduced states c, (nred, R)."""
        return self.op.field_from_reduced(c)
