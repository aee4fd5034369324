"""Monte-Carlo harness: configs, ensembles, convergence studies, reports.

Every run is reproducible from (config file, master seed) alone: member
seeds are spawned from the master seed, all noise consumed by the solvers
is a deterministic image of the sampled Brownian coefficient matrices, and
artifacts carry a manifest with the config hash.  Ensembles advance member
batches in lock step (the state arrays grow a trailing member axis), which
keeps the per-step work in BLAS instead of Python.  A batch's noise is one
`NoisePath`, read by every solver and by `models.build_drivers`; paths and
tables are drawn serially, in place, into whole-batch buffers, bitwise per
member.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import os
import sys
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import averaging, models, noise, spectral
from .dynamics import (
    BatchJob,
    CoupledElementSolver,
    FullSpdeSolver,
    NumericalAbort,
    SpdeConfig,
    initial_profile,
    pool_width,
    run_batches,
)
from .grid import DomainGrid, build_grid
from .models import DiscreteModel, simulate_models
from .noise import NoisePath, QWienerSpec, sample_global_path

__all__ = [
    "ConfigError",
    "RunConfig",
    "EnsembleStats",
    "ConvergenceTable",
    "run_ensemble",
    "convergence_study",
    "compare_models",
    "fit_order",
    "write_manifest",
    "write_csv",
]


class ConfigError(ValueError):
    """Invalid run configuration; carries every violated constraint."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite int or float, not a bool; NaN fails the comparison."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_list(v, item) -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


def _sweep_errors(axis: str, values) -> list:
    """Messages for sweep values off their axis: gamma in [0, 1], h and dt positive."""
    if axis == "gamma":
        bad = [float(v) for v in values if not 0 <= v <= 1]
        return [f"gamma sweep values must lie in [0, 1], got {bad}"] if bad else []
    bad = [float(v) for v in values if not v > 0]
    return [f"{axis} sweep values must be positive, got {bad}"] if bad else []


# a RunConfig field's annotation -> (accepts, normalizes, description) of its value
_FIELD_TYPES = {
    "int": (_is_int, int, "an integer"),
    "float": (_is_real, float, "a finite real number"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
    "bool": (lambda v: isinstance(v, bool), bool, "true or false"),
    "dict": (lambda v: isinstance(v, dict), dict, "an object"),
    "tuple[float, ...]": (lambda v: _is_list(v, _is_real), lambda v: tuple(map(float, v)),
                          "a list of finite real numbers"),
    "tuple[str, ...]": (lambda v: _is_list(v, lambda x: isinstance(x, str)), tuple,
                        "a list of strings"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one harness run.

    Defaults are the desk-scale configuration: minutes of laptop runtime;
    studies and acceptance checks override what they pin.
    """

    L: float = 2.0 * np.pi
    M: int = 8
    subgrid_n: int = 64
    n_modes: int = 33            # Fourier modes K+1 of the driving noise
    decay_r: float = 3.0
    q_list: Optional[tuple[float, ...]] = None
    master_seed: int = 2024

    alpha: float = 1.0
    sigma: float = 0.5
    gamma: float = 1.0
    dt: Optional[float] = None   # default 1e-4 h^2
    T: float = 1.0
    initial: dict = field(default_factory=lambda: {"kind": "sine", "amplitude": 0.3, "mode": 1})

    model_kinds: tuple[str, ...] = ("conventional_fd", "holistic")
    ensemble: int = 256
    n_fine: int = 1024
    kmax: int = 16
    n_levels: int = 6
    sweep_axis: Optional[str] = None
    sweep_values: tuple[float, ...] = ()
    out_dir: Optional[str] = None
    chunk_size: int = 32
    deviation_alpha: bool = False

    # -- validation ----------------------------------------------------------

    def __post_init__(self):
        errors = []
        # every value gets its annotated type before any comparison: ints and
        # floats are normalized to int and float, lists to tuples (annotations
        # are strings under `from __future__ import annotations`)
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type
            if kind.startswith("Optional["):
                if value is None:
                    continue
                kind = kind[len("Optional["):-1]
            accepts, normalize, what = _FIELD_TYPES[kind]
            if accepts(value):
                object.__setattr__(self, f.name, normalize(value))
            else:
                errors.append(f"{f.name} must be {what}, got {value!r}")
        if errors:
            raise ConfigError(errors)
        if self.L <= 0:
            errors.append(f"L must be positive, got {self.L}")
        if self.M < 3:
            errors.append(f"M must be >= 3, got {self.M}")
        if self.subgrid_n < 8 or self.subgrid_n % 2:
            errors.append(f"subgrid_n must be even and >= 8, got {self.subgrid_n}")
        if self.n_modes < 2:
            errors.append(f"need at least 2 noise modes, got {self.n_modes}")
        if self.q_list is None and self.decay_r < 2:
            errors.append(f"decay_r must be >= 2, got {self.decay_r}")
        if self.q_list is not None:
            try:
                QWienerSpec(np.asarray(self.q_list, dtype=float))
            except ValueError as exc:
                errors.append(f"bad q_list: {exc}")
        if self.master_seed < 0:
            errors.append(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.sigma < 0:
            errors.append(f"sigma must be nonnegative, got {self.sigma}")
        if not 0 <= self.gamma <= 1:
            errors.append(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.dt is not None and self.dt <= 0:
            errors.append(f"dt must be positive, got {self.dt}")
        if self.T <= 0:
            errors.append(f"T must be positive, got {self.T}")
        init = self.initial
        if (set(init) - {"kind", "amplitude", "mode"} or not _is_real(init.get("amplitude", 0.0))
                or not _is_int(init.get("mode", 1))):
            errors.append(f"bad initial profile {init!r}: it takes a kind, a finite real "
                          "amplitude and an integer mode")
        else:
            try:
                initial_profile(init, self.L)
            except ValueError as exc:
                errors.append(f"bad initial profile {init!r}: {exc}")
        for kind in self.model_kinds:
            if kind not in models.MODEL_KINDS + ("reference",):
                errors.append(f"unknown model kind {kind!r}")
        if self.ensemble < 1:
            errors.append(f"ensemble size must be >= 1, got {self.ensemble}")
        if self.n_fine < 4 * self.M:
            errors.append(f"n_fine={self.n_fine} too coarse for M={self.M}")
        if self.M > 0 and self.n_fine % self.M:
            errors.append("n_fine must be a multiple of M so grid points sit on fine nodes")
        if self.n_levels < 1:
            errors.append(f"n_levels must be >= 1, got {self.n_levels}")
        if self.kmax < 1:
            errors.append(f"kmax must be >= 1, got {self.kmax}")
        if self.chunk_size < 1:
            errors.append(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in ("gamma", "h", "dt"):
                errors.append(f"unknown sweep axis {self.sweep_axis!r}")
            else:
                errors += _sweep_errors(self.sweep_axis, self.sweep_values)
            if len(self.sweep_values) < 3:
                errors.append("sweeps need at least 3 values")
        if errors:
            raise ConfigError(errors)

    # -- derived objects -------------------------------------------------------

    @property
    def h(self) -> float:
        return self.L / self.M

    @property
    def dt_value(self) -> float:
        return self.dt if self.dt is not None else 1e-4 * self.h**2

    def grid(self) -> DomainGrid:
        return build_grid(self.L, self.M, self.subgrid_n)

    def qwiener(self) -> QWienerSpec:
        if self.q_list is not None:
            return QWienerSpec(np.asarray(self.q_list, dtype=float))
        return QWienerSpec.from_decay(self.n_modes, self.decay_r)

    def spde(self, **overrides) -> SpdeConfig:
        base = dict(alpha=self.alpha, sigma=self.sigma, gamma=self.gamma,
                    dt=self.dt_value, T=self.T, initial=self.initial)
        base.update(overrides)
        return SpdeConfig(**base)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["q_list"] = None if self.q_list is None else list(self.q_list)
        d["model_kinds"] = list(self.model_kinds)
        d["sweep_values"] = list(self.sweep_values)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ConfigError([f"unknown config key {k!r}" for k in sorted(unknown)])
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(payload, dict):
            raise ConfigError(["config must be a JSON object"])
        return cls.from_dict(payload)

    def digest(self) -> str:
        """Resume key: a hash of every field but out_dir, which moves no number."""
        d = self.to_dict()
        del d["out_dir"]
        return hashlib.sha256(json.dumps(d, sort_keys=True, indent=2).encode()).hexdigest()[:16]


def fit_order(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (the convergence order)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("order fits need at least 3 points")
    if np.any(y <= 0):
        raise ValueError("order fits need positive error values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# ---------------------------------------------------------------------------
# shared run machinery
# ---------------------------------------------------------------------------


@dataclass
class RunSetup:
    """Prebuilt immutable inputs shared by every ensemble member."""

    cfg: RunConfig
    grid: DomainGrid
    spec: QWienerSpec
    proj: noise.ElementNoiseProjection
    coeffs: averaging.AveragedCoeffs


def build_setup(cfg: RunConfig) -> RunSetup:
    grid = cfg.grid()
    spec = cfg.qwiener()
    eig0 = spectral.eig_gamma0(grid, cfg.n_levels)
    proj = noise.project_to_element_modes(spec, eig0, grid)
    coeffs = averaging.averaged_coeffs(proj, eig0, cfg.alpha, cfg.sigma, cfg.gamma)
    return RunSetup(cfg=cfg, grid=grid, spec=spec, proj=proj, coeffs=coeffs)


def member_seeds(master_seed: int, n: int) -> list:
    """Independent, replayable per-member seed trees."""
    return np.random.SeedSequence(master_seed).spawn(n)


def member_streams(seeds) -> tuple[list, list]:
    """(path seeds, deviation seeds) of a member batch, one child of each per member.

    Every call spawns three children per member (the third unused), which
    advances the member's spawn counter: a later call gets other children.
    """
    streams = [ss.spawn(3) for ss in seeds]
    return [s[0] for s in streams], [s[1] for s in streams]


def reference_grid_values(L: float, spec: QWienerSpec, path: NoisePath, spde: SpdeConfig,
                          n_fine: int) -> np.ndarray:
    """Fine reference field u(x, T) for a member batch, shape (n_fine, R).

    The fine solver advances all members in lock step from the same global
    coefficients the models consume (common random numbers); a single run
    is a batch of one.  `at_grid_points` reads off the grid values.
    """
    return FullSpdeSolver(L, n_fine, spec).simulate(spde, path)


def at_grid_points(u: np.ndarray, M: int) -> np.ndarray:
    """Rows of a periodic fine field (n_fine, ...) that sit on X_1 .. X_M."""
    n_fine = u.shape[0]
    return u[(n_fine // M) * np.arange(1, M + 1) % n_fine]


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleStats:
    """Per-observable first and second moments with standard errors."""

    n_members: int
    observables: dict   # name -> {"mean": array, "var": array, "stderr": array}

    def mean(self, name: str) -> np.ndarray:
        return self.observables[name]["mean"]

    def var(self, name: str) -> np.ndarray:
        return self.observables[name]["var"]

    def stderr(self, name: str) -> np.ndarray:
        return self.observables[name]["stderr"]


def _summaries(samples: dict, R: int) -> EnsembleStats:
    obs = {}
    for name, arr in samples.items():
        arr = np.asarray(arr)
        mean = arr.mean(axis=-1)
        var = arr.var(axis=-1, ddof=1) if R > 1 else np.zeros_like(mean)
        obs[name] = {
            "mean": mean,
            "var": var,
            "stderr": np.sqrt(var / R) if R > 1 else np.full_like(mean, np.nan),
        }
    return EnsembleStats(n_members=R, observables=obs)


def _flush_chunk(cache: Path, out: dict) -> None:
    """Write a chunk file whole or not at all: a temporary file, then a rename."""
    tmp = cache.with_name(cache.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **out)
    os.replace(tmp, cache)


def _load_chunk(cache: Path, keys: list, n_members: int) -> Optional[dict]:
    """A flushed chunk's arrays, or None when the file is missing, unreadable,
    or holds other keys or another member count than the chunk needs."""
    try:
        with open(cache, "rb") as fh, np.load(fh) as data:
            out = {k: data[k] for k in data.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile):
        return None
    if set(out) != set(keys) or any(v.shape[-1:] != (n_members,) for v in out.values()):
        return None
    return out


def _replay_context(abort: NumericalAbort, chunk: int, cfg: RunConfig) -> NumericalAbort:
    """An abort in member chunk `chunk`, renamed to the member's index in the
    ensemble, with the master seed."""
    abort.member += chunk * cfg.chunk_size
    abort.seed = cfg.master_seed
    return abort


def run_ensemble(cfg: RunConfig, out_dir: Optional[Path] = None) -> EnsembleStats:
    """Run the configured models over R common-random-number members.

    Observables: final grid values per model, their squares, and pairwise
    final-time gaps between models.  Member chunks are flushed to disk as
    they finish (when out_dir is given) and picked up on resume, keyed by
    the config digest; a chunk file is renamed into place only once written
    whole, and one that cannot be read or does not fit the chunk is
    recomputed.  The setup is built only if some chunk must be computed.

    The chunks to compute go in groups of one chunk per solver pool worker:
    each chunk's grid models step on the calling thread, its driver tables
    released before the next chunk's are drawn, then the group's reference
    batches step in one `run_batches` call.  So one chunk's path per worker
    is in flight (at the default T = 1, 32 x 33 x 16,211 x 8 B, about
    137 MB).  Values, flushed chunks and the abort raised are those of
    computing the chunks one after another: the earliest aborting chunk's,
    its models before its reference, with every chunk before it flushed.
    """
    spde = cfg.spde()
    times = spde.times()
    R = cfg.ensemble
    seeds = member_seeds(cfg.master_seed, R)
    needs_reference = "reference" in cfg.model_kinds
    model_kinds = [k for k in dict.fromkeys(cfg.model_kinds) if k != "reference"]

    flush_dir = None
    if out_dir is not None:
        flush_dir = Path(out_dir) / f"members_{cfg.digest()}"
        flush_dir.mkdir(parents=True, exist_ok=True)

    names = model_kinds + (["reference"] if needs_reference else [])
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    keys = names + [f"gap:{a}-{b}" for a, b in pairs]
    chunks = [seeds[i : i + cfg.chunk_size] for i in range(0, R, cfg.chunk_size)]
    caches = [flush_dir / f"chunk_{ci:04d}.npz" if flush_dir else None
              for ci in range(len(chunks))]
    outs = [_load_chunk(cache, keys, len(chunk)) if cache is not None else None
            for cache, chunk in zip(caches, chunks)]
    todo = [ci for ci, out in enumerate(outs) if out is None]
    groups = []
    if todo:
        setup = build_setup(cfg)
        U0 = initial_profile(spde.initial, setup.grid.L)(setup.grid.grid_points)
        grid_models = [DiscreteModel(kind=kind, coeffs=setup.coeffs,
                                     deviation_alpha=cfg.deviation_alpha)
                       for kind in model_kinds]
        fine = FullSpdeSolver(setup.grid.L, cfg.n_fine, setup.spec) if needs_reference else None
        width = pool_width()
        groups = [todo[g : g + width] for g in range(0, len(todo), width)]
    for group in groups:
        done, jobs, abort = [], [], None        # drops the last group's paths
        for ci in group:
            path_seeds, deviation_seeds = member_streams(chunks[ci])
            path = sample_global_path(setup.spec, times, path_seeds)
            drivers = models.build_drivers(setup.grid, setup.proj, path, deviation_seeds)
            U0b = np.repeat(U0[:, None], len(chunks[ci]), axis=1)
            try:
                trajs = simulate_models(grid_models, spde, drivers, U0b) if grid_models else []
            except NumericalAbort as exc:
                abort = _replay_context(exc, ci, cfg)
                break
            del drivers                         # before the next chunk's tables are drawn
            outs[ci] = {kind: traj.states[-1] for kind, traj in zip(model_kinds, trajs)}
            done.append(ci)
            if needs_reference:
                jobs.append(BatchJob(fine, spde, path))
        if jobs:
            try:
                finals = run_batches(jobs)
            except NumericalAbort as exc:
                # an earlier chunk's reference aborts before any later chunk;
                # the chunks before it step again so that they can be flushed
                abort = _replay_context(exc, done[exc.job], cfg)
                del done[exc.job :]
                finals = run_batches(jobs[: exc.job])
            for ci, u in zip(done, finals):
                outs[ci]["reference"] = at_grid_points(u, cfg.M)
        for ci in done:
            out = outs[ci]
            for a, b in pairs:
                gap = np.sqrt(np.mean((out[a] - out[b]) ** 2, axis=0))
                out[f"gap:{a}-{b}"] = gap[None, :]
            if caches[ci] is not None:
                _flush_chunk(caches[ci], out)
        if abort is not None:
            raise abort

    samples = {k: np.concatenate([out[k] for out in outs], axis=-1) for k in keys}
    return _summaries(samples, R)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceTable:
    """Sweep results: one row per swept value plus least-squares orders."""

    study: str
    axis: str
    values: np.ndarray
    metrics: dict          # name -> array aligned with values
    orders: dict           # name -> fitted order

    def rows(self) -> list:
        names = list(self.metrics)
        out = []
        for i, v in enumerate(self.values):
            row = {"value": float(v)}
            row.update({n: float(self.metrics[n][i]) for n in names})
            out.append(row)
        return out


def convergence_study(cfg: RunConfig, study: str, values=None) -> ConvergenceTable:
    """Run one of the named convergence studies.

    studies: "lambda0" (slow-band eigenvalue order in gamma), "expansion"
    (centre-expansion remainder order in gamma), "coeff-h" (averaged
    coefficient orders in the spacing), "coupling-gap" (pathwise gap to the
    reference as gamma -> 1), "weak-h" (weak model error in the spacing).
    The order-fitting studies need distinct, positive values and metrics
    that stay positive; anything else is a ConfigError.
    """
    if study not in STUDIES:
        raise ConfigError([f"unknown study {study!r}"])
    run, axis, fits = STUDIES[study]
    if cfg.sweep_axis is not None and cfg.sweep_axis != axis:
        raise ConfigError([f"study {study!r} sweeps {axis}, not {cfg.sweep_axis}"])
    if values is None:
        values = cfg.sweep_values
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ConfigError(["convergence studies need at least 3 sweep values"])
    errors = _sweep_errors(axis, values)
    if fits and not errors and (np.any(values <= 0) or np.unique(values).size < values.size):
        errors.append(f"study {study!r} fits orders: its {axis} values must be distinct and "
                      f"positive, got {values.tolist()}")
    if errors:
        raise ConfigError(errors)
    x, metrics = run(cfg, values)
    try:
        orders = {name: fit_order(x, y) for name, y in metrics.items()} if fits else {}
    except ValueError as exc:       # a metric that vanishes or is not finite somewhere
        raise ConfigError([f"study {study!r} cannot fit orders over {axis} = "
                           f"{x.tolist()}: {exc}"]) from exc
    return ConvergenceTable(study, axis, x, metrics, orders)


def _study_lambda0(cfg: RunConfig, gammas: np.ndarray) -> tuple:
    """Largest slow-band eigenvalue against gamma (kernel excluded).

    The literal smallest eigenvalue is the exact zero of the uniform kernel
    field for every coupling, so the quadratic-order statement is carried
    by the nonzero slow band; the top of the band is its cleanest member.
    """
    grid = cfg.grid()
    lam_top = []
    lam_first = []
    for g in gammas:
        eig = spectral.eig_gamma(spectral.assemble_operator(grid, g), grid.M)
        lam_top.append(eig.eigenvalues[grid.M - 1])
        lam_first.append(eig.eigenvalues[1])
    metrics = {"lambda_slow_top": np.asarray(lam_top), "lambda_slow_first": np.asarray(lam_first)}
    return gammas, metrics


def _study_expansion(cfg: RunConfig, gammas: np.ndarray) -> tuple:
    """Remainder of the top slow mode's centre expansion against gamma."""
    grid = cfg.grid()
    rem = []
    for g in gammas:
        eig = spectral.eig_gamma(spectral.assemble_operator(grid, g), grid.M + 1)
        try:
            exp = spectral.expand_ground_mode(eig, grid, mode="top-slow")
        except ValueError as exc:      # a degenerate top slow mode at this coupling
            raise ConfigError([f"expansion study at gamma={g}: {exc}"]) from exc
        rem.append(exp.remainder_norm)
    return gammas, {"remainder": np.asarray(rem)}


def _study_coeff_h(cfg: RunConfig, hs: np.ndarray) -> tuple:
    """Averaged-coefficient orders under the frozen-intensity spacing family.

    The per-mode intensities q_{j,l} are frozen from the projections at the
    coarsest spacing (q_{j,l} = q^h_{j,l} / h there) and the closed forms
    are swept with q^h = q_{j,l} h and lambda = k^2 pi^2 / h^2.
    """
    hs = np.sort(hs)[::-1]
    h_ref = hs[0]
    M_ref = max(int(round(cfg.L / h_ref)), 3)
    if M_ref > cfg.n_fine // 4:       # the bound RunConfig puts on M
        raise ConfigError([f"coeff-h spacing h={h_ref:g} needs {M_ref} elements, more than "
                           f"n_fine // 4 = {cfg.n_fine // 4}"])
    grid = build_grid(M_ref * h_ref, M_ref, cfg.subgrid_n)
    spec = cfg.qwiener()
    eig0 = spectral.eig_gamma0(grid, cfg.n_levels)
    proj = noise.project_to_element_modes(spec, eig0, grid)
    stats = averaging.ou_stationary_stats(proj, eig0, cfg.sigma)
    q_jl = stats.qh / h_ref
    levels = eig0.levels[stats.mode_indices].astype(float)

    hat_err, qj_val = [], []
    for h in hs:
        hat = averaging.hat_alpha_from_tables(q_jl, levels, cfg.alpha, cfg.sigma, h)
        qj = averaging.qj_from_tables(q_jl, levels, cfg.sigma, h)
        hat_err.append(np.max(np.abs(hat - cfg.alpha)))
        qj_val.append(np.max(qj))
    metrics = {"hat_alpha_gap": np.asarray(hat_err), "qj": np.asarray(qj_val)}
    return hs, metrics


def _right_half_values(ref: np.ndarray, grid: DomainGrid) -> np.ndarray:
    """A periodic fine field (n_fine, R) interpolated linearly to the right-half
    element nodes, (M, n+1, R)."""
    L = grid.L
    n_fine = ref.shape[0]
    xr = np.mod(grid.all_nodes()[:, 1, :], L)            # (M, n+1)
    xg = np.concatenate([L * np.arange(n_fine) / n_fine, [L]])
    vg = np.concatenate([ref, ref[:1]], axis=0)          # (n_fine+1, R)
    idx = np.clip(np.searchsorted(xg, xr.ravel(), side="right") - 1, 0, xg.size - 2)
    w = ((xr.ravel() - xg[idx]) / (xg[idx + 1] - xg[idx]))[:, None]
    return (vg[idx] * (1.0 - w) + vg[idx + 1] * w).reshape(xr.shape + (-1,))


def _right_half_gap(field_values: np.ndarray, ref_nodes: np.ndarray,
                    grid: DomainGrid) -> np.ndarray:
    """L2 gap over the non-overlapping right-half cover, batched over members.

    field_values: (M, 2, n+1, R); ref_nodes: the reference's `_right_half_values`.
    """
    diff = field_values[:, 1, :, :] - ref_nodes          # (M, n+1, R)
    mb = grid.mass_block
    gap2 = np.einsum("mir,ij,mjr->r", diff, mb, diff)
    return np.sqrt(np.maximum(gap2, 0.0))


def _study_coupling_gap(cfg: RunConfig, gammas: np.ndarray) -> tuple:
    """CRN mean-square gap between the element system and the reference.

    Shared Brownian coefficients make the gamma -> 1 distributional limit a
    trackable pathwise gap; the sigma = 0 run of the same configuration
    gives the pure discretization floor.  The reference never reads gamma,
    so one reference batch serves every gamma; the coupled batches and the
    sigma = 0 pair then step together in one `run_batches` call.
    """
    grid = cfg.grid()
    spec = cfg.qwiener()
    spde0 = cfg.spde()
    times = spde0.times()
    seeds = member_seeds(cfg.master_seed, cfg.ensemble)
    path = sample_global_path(spec, times, member_streams(seeds)[0])
    ref_nodes = _right_half_values(reference_grid_values(grid.L, spec, path, spde0, cfg.n_fine),
                                   grid)

    # sigma = 0 silences the noise, so any one path serves as the batch of one
    spde_det = cfg.spde(gamma=1.0, sigma=0.0)
    one = NoisePath(path.times, path.increments[:1])
    jobs = [BatchJob(_coupled_solver(grid, spec, spde), spde, path)
            for spde in (cfg.spde(gamma=float(g)) for g in gammas)]
    jobs += [BatchJob(FullSpdeSolver(grid.L, cfg.n_fine, spec), spde_det, one),
             BatchJob(_coupled_solver(grid, spec, spde_det), spde_det, one)]
    *fields, det_ref, det_field = run_batches(jobs)
    gaps = np.stack([_right_half_gap(f, ref_nodes, grid) for f in fields])
    det_gap = float(_right_half_gap(det_field, _right_half_values(det_ref, grid), grid)[0])
    mean_sq = np.mean(gaps**2, axis=1)
    metrics = {
        "ms_gap": mean_sq,
        "rms_gap": np.sqrt(mean_sq),
        "det_gap": np.full(gammas.size, det_gap),
    }
    return gammas, metrics


def _coupled_solver(grid: DomainGrid, spec: QWienerSpec, spde: SpdeConfig) -> CoupledElementSolver:
    """The coupled element solver at coupling spde.gamma and step spde.dt."""
    return CoupledElementSolver(spectral.assemble_operator(grid, spde.gamma), spec, spde.dt)


def _study_weak_h(cfg: RunConfig, hs: np.ndarray) -> tuple:
    """Weak error of the holistic model against the reference, per spacing.

    One reference ensemble (independent of h) serves every spacing; grid
    values are read at the fine nodes that coincide with each X_j.  Errors
    are RMS over grid points of the CRN-paired mean gap and of the
    variance gap at the final time.
    """
    hs = np.asarray(sorted(hs, reverse=True))
    Ms = [int(round(cfg.L / h)) for h in hs]
    if any(abs(m * h - cfg.L) > 1e-12 * cfg.L for m, h in zip(Ms, hs)):
        raise ConfigError(["sweep spacings must divide the domain length"])
    R = cfg.ensemble
    spde = cfg.spde()
    times = spde.times()
    seeds = member_seeds(cfg.master_seed, R)

    base = replace(cfg, M=Ms[0])
    setup0 = build_setup(base)
    path = sample_global_path(setup0.spec, times, member_streams(seeds)[0])
    ref = reference_grid_values(setup0.grid.L, setup0.spec, path, spde, cfg.n_fine)   # (n_fine, R)

    mean_err, var_err = [], []
    for M in Ms:
        setup = build_setup(replace(cfg, M=M))
        drivers = models.build_drivers(setup.grid, setup.proj, path, member_streams(seeds)[1])
        U0 = initial_profile(cfg.initial, setup.grid.L)(setup.grid.grid_points)
        model = DiscreteModel(kind="holistic", coeffs=setup.coeffs,
                              deviation_alpha=cfg.deviation_alpha)
        traj = simulate_models([model], spde, drivers, np.repeat(U0[:, None], R, axis=1))[0]
        U = traj.states[-1]                                   # (M, R)
        uref = at_grid_points(ref, M)
        mean_err.append(np.sqrt(np.mean(np.mean(U - uref, axis=1) ** 2)))
        var_err.append(np.sqrt(np.mean((np.var(U, axis=1, ddof=1)
                                        - np.var(uref, axis=1, ddof=1)) ** 2)))
    metrics = {"mean_gap": np.asarray(mean_err), "var_gap": np.asarray(var_err)}
    combined = metrics["mean_gap"] + metrics["var_gap"]
    metrics["combined"] = combined
    return hs, metrics


# name -> (study returning (swept values, metrics), axis, whether orders are fitted)
STUDIES = {
    "lambda0": (_study_lambda0, "gamma", True),
    "expansion": (_study_expansion, "gamma", True),
    "coeff-h": (_study_coeff_h, "h", True),
    "coupling-gap": (_study_coupling_gap, "gamma", False),
    "weak-h": (_study_weak_h, "h", True),
}


# ---------------------------------------------------------------------------
# model comparison report
# ---------------------------------------------------------------------------


def compare_models(cfg: RunConfig) -> dict:
    """Weak-error report of the configured discrete models vs the reference.

    Emits per-gridpoint mean/variance errors with Monte-Carlo confidence
    intervals plus a per-term variance budget of the holistic noise terms,
    computed in closed form from the driver covariances.  Findings are
    reported, not asserted.
    """
    kinds = tuple(k for k in cfg.model_kinds if k != "reference")
    run_cfg = replace(cfg, model_kinds=kinds + ("reference",))
    stats = run_ensemble(run_cfg)
    ref_mean = stats.mean("reference")
    ref_var = stats.var("reference")
    report: dict = {
        "config_digest": cfg.digest(),
        "n_members": stats.n_members,
        "models": {},
    }
    for kind in kinds:
        m = stats.mean(kind)
        v = stats.var(kind)
        se_m = stats.stderr(kind)
        gap_key = None
        for key in stats.observables:
            if key.startswith("gap:") and {kind, "reference"} == set(key[4:].split("-")):
                gap_key = key
        report["models"][kind] = {
            "mean_error_rms": float(np.sqrt(np.mean((m - ref_mean) ** 2))),
            "mean_error_ci": float(3.0 * np.sqrt(np.mean(se_m**2))),
            "var_error_rms": float(np.sqrt(np.mean((v - ref_var) ** 2))),
            "var_error_rel": float(np.mean(np.abs(v - ref_var) / np.maximum(ref_var, 1e-300))),
            "pathwise_gap_mean": (
                float(stats.mean(gap_key)[0]) if gap_key else None
            ),
        }
    report["term_budget"] = _holistic_term_budget(cfg)
    if cfg.sigma == 0.0:
        models_equal = all(
            report["models"][k]["mean_error_rms"] == report["models"][kinds[0]]["mean_error_rms"]
            for k in kinds
        )
        report["sigma_zero_models_identical"] = models_equal
    return report


def _holistic_term_budget(cfg: RunConfig) -> dict:
    """Per-step variance of each holistic noise family, from the weights."""
    setup = build_setup(cfg)
    grid = setup.grid
    W = setup.proj.slow_map                                          # (M, K+1)
    cov = W @ W.T
    var_slow = cfg.sigma**2 * np.diag(cov)
    sten = np.roll(np.eye(grid.M), 1, axis=1) - 2 * np.eye(grid.M) + np.roll(np.eye(grid.M), -1, axis=1)
    cov_sten = sten @ cov @ sten.T
    var_sten = (cfg.sigma / 4.0) ** 2 * np.diag(cov_sten)
    dev = models._deviation_coef(setup.coeffs, grid, cfg.deviation_alpha) ** 2
    return {
        "slow_driver_variance_rate": var_slow.tolist(),
        "stencil_variance_rate": var_sten.tolist(),
        "deviation_variance_rate_unit_U": dev.tolist(),
    }


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def write_manifest(cfg: RunConfig, out_dir: Path, extra: Optional[dict] = None) -> Path:
    """JSON run manifest: config, digest, seed and library versions."""
    import scipy

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": cfg.to_dict(),
        "config_digest": cfg.digest(),
        "master_seed": cfg.master_seed,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")
    return path


def write_csv(path: Path, header: list, rows) -> Path:
    """UTF-8 CSV with a mandatory header row and '.' decimals."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.17g}" if isinstance(x, float) else x for x in row])
    return path
