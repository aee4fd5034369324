"""The four benchmark workloads: configs from a seed, entry-point calls, checks.

Each workload builds its RunConfig from the workload seed (which becomes
``master_seed``), calls one public entry point of holisde, and returns the
parsed outputs.  ``check`` holds the gates that must pass for any seed;
``values`` names the numbers that must repeat bitwise across calls in a run
and, for seed 2024, match ``expected_2024.json`` within ``REL_TOL``.

Horizons are short versions of the acceptance configs: long enough that
time stepping dominates each call and the gates hold for every seed tried
(see README.md), short enough that a run collects several calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from holisde import cli, harness, spectral
from holisde.dynamics import CoupledElementSolver
from holisde.models import MODEL_KINDS

L = 2.0 * np.pi

# Recorded values may move by round-off only: reordering a sum or writing
# u*u*u for u**3 changes results in the last bits, which the observables
# below carry at relative sizes far below this.
REL_TOL = 1e-6
RECORD_SEED = 2024
RECORD_FILE = Path(__file__).resolve().parent / "expected_2024.json"

WEAK_H_T = 0.05            # 100 steps of dt = 5e-4
COUPLING_GAP_T = 0.01      # 40 steps of dt = 2.5e-4
DESK_COMPARE_T = 0.005     # 81 steps of the default dt = 1e-4 h^2
GRID_ENSEMBLE_T = 0.05     # 811 steps of the default dt

ORDER_FLOOR = 0.8          # criterion 09's order gate
GAMMA1_RMS_CEILING = 1e-6  # the gamma = 1 gap sits at the discretization floor


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], harness.RunConfig]
    run: Callable          # (cfg, work_dir, span) -> (seconds, result)
    setup: Callable        # cfg -> {call name: seconds}
    check: Callable        # result -> [failure messages]
    values: Callable       # result -> {key: [floats]}


def null_span(name, work=0):
    """Span factory for untraced calls."""
    return contextlib.nullcontext()


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cli(cfg: harness.RunConfig, work: Path, verb: list, span) -> tuple[float, int, Path]:
    """Run one CLI verb in-process on a config file; stdout is captured."""
    config_path = work / "config.json"
    config_path.write_text(cfg.to_json(), encoding="utf-8")
    out = _fresh(work / "out")
    argv = ["--config", str(config_path), "--out", str(out)] + verb
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        with span("harness.entry"):
            rc = cli.main(argv)
        seconds = perf_counter() - t0
    return seconds, rc, out


def _read_csv(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def _fit_order(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def value_mismatches(actual: dict, expected: dict, rel_tol: float) -> list:
    """Keys whose arrays differ by more than rel_tol times the expected max-norm.

    rel_tol = 0 demands bitwise equality.
    """
    fails = [f"{key}: missing" for key in expected if key not in actual]
    fails += [f"{key}: unexpected" for key in actual if key not in expected]
    for key in expected.keys() & actual.keys():
        a = np.asarray(actual[key], dtype=float)
        e = np.asarray(expected[key], dtype=float)
        if a.shape != e.shape:
            fails.append(f"{key}: shape {a.shape} != {e.shape}")
            continue
        err = float(np.max(np.abs(a - e))) if e.size else 0.0
        scale = float(np.max(np.abs(e))) if e.size else 0.0
        if not err <= rel_tol * scale:
            fails.append(f"{key}: max |diff| {err:.3e} exceeds {rel_tol:g} x {scale:.3e}")
    return sorted(fails)


# ---------------------------------------------------------------------------
# weak-h: criterion 09 through `holisde converge --study weak-h`
# ---------------------------------------------------------------------------


def weak_h_config(seed: int) -> harness.RunConfig:
    return harness.RunConfig(
        M=8, subgrid_n=16, n_modes=33, decay_r=3.0, alpha=0.0, sigma=0.5,
        dt=5e-4, T=WEAK_H_T, ensemble=256, n_fine=1024, master_seed=seed,
        sweep_axis="h", sweep_values=(L / 8, L / 16, L / 32),
    )


def weak_h_run(cfg, work: Path, span):
    seconds, rc, out = _cli(cfg, work, ["converge", "--study", "weak-h"], span)
    result = {"rc": rc}
    if rc == 0:
        table = _read_csv(out / "converge_weak-h.csv")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        result.update(h=table["h"], mean_gap=table["mean_gap"], var_gap=table["var_gap"],
                      orders={k: manifest["orders"][k] for k in ("mean_gap", "var_gap")})
    return seconds, result


def weak_h_setup(cfg) -> dict:
    times = {}
    for M in (8, 16, 32):
        sub = replace(cfg, M=M, sweep_axis=None, sweep_values=())
        times[f"harness.build_setup[M={M}]"] = _timed(harness.build_setup, sub)[0]
    return times


def weak_h_check(r: dict) -> list:
    if r.get("rc") != 0:
        return [f"converge exited {r.get('rc')}"]
    fails = []
    for name in ("mean_gap", "var_gap"):
        gap = r[name]
        if not (_all_finite(gap) and all(g > 0 for g in gap)):
            fails.append(f"{name} not finite and positive: {gap}")
            continue
        if not all(b < a for a, b in zip(gap, gap[1:])):
            fails.append(f"{name} does not strictly decrease as h shrinks: {gap}")
        order = _fit_order(r["h"], gap)
        if not order >= ORDER_FLOOR:
            fails.append(f"{name} order {order:.3f} below {ORDER_FLOOR}")
        if not math.isclose(order, r["orders"][name], rel_tol=1e-9):
            fails.append(f"{name} manifest order {r['orders'][name]} != fitted {order}")
    return fails


def weak_h_values(r: dict) -> dict:
    return {"mean_gap": r["mean_gap"], "var_gap": r["var_gap"]}


# ---------------------------------------------------------------------------
# coupling-gap: criterion 08 through `holisde converge --study coupling-gap`
# ---------------------------------------------------------------------------

GAMMAS = (0.9, 0.99, 1.0)


def coupling_gap_config(seed: int) -> harness.RunConfig:
    return harness.RunConfig(
        M=8, subgrid_n=32, n_modes=33, decay_r=4.0, alpha=1.0, sigma=0.5,
        dt=2.5e-4, T=COUPLING_GAP_T, ensemble=64, n_fine=2048, master_seed=seed,
        sweep_axis="gamma", sweep_values=GAMMAS,
    )


def coupling_gap_run(cfg, work: Path, span):
    seconds, rc, out = _cli(cfg, work, ["converge", "--study", "coupling-gap"], span)
    result = {"rc": rc}
    if rc == 0:
        table = _read_csv(out / "converge_coupling-gap.csv")
        result.update(gamma=table["gamma"], ms_gap=table["ms_gap"],
                      rms_gap=table["rms_gap"], det_gap=table["det_gap"])
    return seconds, result


def coupling_gap_setup(cfg) -> dict:
    grid, spec = cfg.grid(), cfg.qwiener()
    times = {}
    for g in cfg.sweep_values:
        t_op, op = _timed(spectral.assemble_operator, grid, g)
        times[f"spectral.assemble_operator[gamma={g}]"] = t_op
        times[f"CoupledElementSolver[gamma={g}]"] = _timed(
            CoupledElementSolver, op, spec, cfg.dt_value)[0]
    return times


def coupling_gap_check(r: dict) -> list:
    if r.get("rc") != 0:
        return [f"converge exited {r.get('rc')}"]
    fails = []
    if sorted(r["gamma"]) != list(GAMMAS):
        fails.append(f"unexpected gammas {r['gamma']}")
        return fails
    order = np.argsort(r["gamma"])
    ms = [r["ms_gap"][i] for i in order]
    rms = [r["rms_gap"][i] for i in order]
    if not _all_finite(ms + rms + r["det_gap"]):
        fails.append("non-finite gap")
        return fails
    if not all(b < a for a, b in zip(ms, ms[1:])):
        fails.append(f"ms_gap does not strictly decrease in gamma: {ms}")
    if not rms[-1] <= GAMMA1_RMS_CEILING:
        fails.append(f"gamma=1 rms gap {rms[-1]:.3e} above {GAMMA1_RMS_CEILING}")
    return fails


def coupling_gap_values(r: dict) -> dict:
    out = {f"ms_gap[gamma={g}]": [m] for g, m in zip(r["gamma"], r["ms_gap"])}
    out["det_gap"] = r["det_gap"][:1]
    return out


# ---------------------------------------------------------------------------
# desk-compare: the default RunConfig through `holisde compare`
# ---------------------------------------------------------------------------


def desk_compare_config(seed: int) -> harness.RunConfig:
    return harness.RunConfig(
        T=DESK_COMPARE_T, master_seed=seed,
        model_kinds=("conventional_fd", "holistic", "holistic_intro"),
    )


def desk_compare_run(cfg, work: Path, span):
    seconds, rc, out = _cli(cfg, work, ["compare"], span)
    result = {"rc": rc}
    if rc == 0:
        result["report"] = json.loads((out / "compare.json").read_text(encoding="utf-8"))
    return seconds, result


def desk_compare_setup(cfg) -> dict:
    return {"harness.build_setup": _timed(harness.build_setup, cfg)[0]}


def _leaves(node, prefix=""):
    """(dotted key, leaf) pairs of a JSON tree; list items get [i] suffixes."""
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _leaves(node[k], f"{prefix}.{k}" if prefix else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, f"{prefix}[{i}]")
    else:
        yield prefix, node


def desk_compare_check(r: dict) -> list:
    if r.get("rc") != 0:
        return [f"compare exited {r.get('rc')}"]
    report = r["report"]
    fails = [f"report field {key} = {v!r} is not finite"
             for key, v in _leaves(report)
             if key != "config_digest" and not _all_finite([v])]
    missing = {"conventional_fd", "holistic", "holistic_intro"} - set(report.get("models", {}))
    if missing:
        fails.append(f"report lacks models {sorted(missing)}")
    return fails


def desk_compare_values(r: dict) -> dict:
    return {key: [v] for key, v in _leaves(r["report"])
            if key != "config_digest" and isinstance(v, float)}


# ---------------------------------------------------------------------------
# grid-ensemble: harness.run_ensemble, then a resume call on the same out_dir
# ---------------------------------------------------------------------------


def grid_ensemble_config(seed: int) -> harness.RunConfig:
    return harness.RunConfig(T=GRID_ENSEMBLE_T, gamma=0.5, model_kinds=MODEL_KINDS,
                             master_seed=seed)


def _chunk_files(out: Path) -> dict:
    return {str(p.relative_to(out)): [p.stat().st_size, p.stat().st_mtime_ns]
            for p in sorted(out.rglob("chunk_*.npz"))}


def _stats_dict(stats: harness.EnsembleStats) -> dict:
    return {name: {k: np.asarray(v).tolist() for k, v in obs.items()}
            for name, obs in stats.observables.items()}


def grid_ensemble_run(cfg, work: Path, span):
    out = _fresh(work / "ensemble")
    t0 = perf_counter()
    with span("harness.entry"):
        first = harness.run_ensemble(cfg, out)
    t_first = perf_counter() - t0
    written = _chunk_files(out)
    t0 = perf_counter()
    with span("harness.resume"):
        resumed = harness.run_ensemble(cfg, out)
    t_resume = perf_counter() - t0
    result = {
        "n_chunks": math.ceil(cfg.ensemble / cfg.chunk_size),
        "written": written,
        "after_resume": _chunk_files(out),
        "first": _stats_dict(first),
        "resumed": _stats_dict(resumed),
        "flush_bytes": sum(size for size, _ in written.values()),
    }
    return t_first + t_resume, result


def grid_ensemble_setup(cfg) -> dict:
    t_setup, setup = _timed(harness.build_setup, cfg)
    t_op, op = _timed(spectral.assemble_operator, setup.grid, cfg.gamma)
    t_eig, eig = _timed(spectral.eig_gamma, op, cfg.M + 2)
    t_exp = _timed(lambda: spectral.expand_ground_mode(eig, setup.grid, mode="top-slow"))[0]
    return {"harness.build_setup": t_setup, "spectral.assemble_operator": t_op,
            "spectral.eig_gamma": t_eig, "spectral.expand_ground_mode": t_exp}


def grid_ensemble_check(r: dict) -> list:
    fails = []
    if len(r["written"]) != r["n_chunks"]:
        fails.append(f"{len(r['written'])} chunk files flushed, expected {r['n_chunks']}")
    if r["after_resume"] != r["written"]:
        fails.append("resume call rewrote or dropped chunk files instead of loading them")
    if r["resumed"] != r["first"]:
        fails.append("resumed statistics are not bitwise identical to the first run")
    expected = set(MODEL_KINDS)
    if not expected <= set(r["first"]):
        fails.append(f"missing model observables {sorted(expected - set(r['first']))}")
    bad = [key for key, v in _leaves(r["first"]) if not _all_finite([v])]
    if bad:
        fails.append(f"non-finite statistics: {bad[:5]}")
    return fails


def grid_ensemble_values(r: dict) -> dict:
    return {f"{name}.{k}": obs[k] for name, obs in r["first"].items() for k in ("mean", "var")}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("weak-h", weak_h_config, weak_h_run, weak_h_setup,
                 weak_h_check, weak_h_values),
        Workload("coupling-gap", coupling_gap_config, coupling_gap_run, coupling_gap_setup,
                 coupling_gap_check, coupling_gap_values),
        Workload("desk-compare", desk_compare_config, desk_compare_run, desk_compare_setup,
                 desk_compare_check, desk_compare_values),
        Workload("grid-ensemble", grid_ensemble_config, grid_ensemble_run, grid_ensemble_setup,
                 grid_ensemble_check, grid_ensemble_values),
    )
}
