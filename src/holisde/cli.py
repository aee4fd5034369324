"""Command-line front end.

Verbs: eig-sweep, expansion-check, coeffs, simulate, compare, converge.
Every verb reads one JSON config file, writes CSV plus a JSON manifest to
the output directory, and exits 0 on success, 2 on config errors, 3 on
numerical aborts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import spectral
from .dynamics import NumericalAbort, initial_profile
from .harness import (
    STUDIES,
    ConfigError,
    RunConfig,
    batch_driver_tables,
    build_setup,
    convergence_study,
    compare_models,
    member_seeds,
    write_csv,
    write_manifest,
)
from .models import DiscreteModel, simulate_models

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"cannot read config {args.config!r}: {exc}"]) from exc
        cfg = RunConfig.from_json(text)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.sweep is not None:
        axis, _, vals = args.sweep.partition("=")
        if axis not in ("gamma", "h", "dt") or not vals:
            raise ConfigError([f"bad --sweep {args.sweep!r}; expected AXIS=v1,v2,..."])
        try:
            overrides["sweep_values"] = tuple(float(v) for v in vals.split(","))
        except ValueError:
            raise ConfigError([f"bad --sweep value in {args.sweep!r}; expected numbers"]) from None
        overrides["sweep_axis"] = axis
    return replace(cfg, **overrides) if overrides else cfg


def _out_dir(cfg: RunConfig, args) -> Path:
    out = Path(cfg.out_dir or args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eig_sweep(cfg: RunConfig, args) -> int:
    gammas = cfg.sweep_values if cfg.sweep_axis == "gamma" else (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)
    grid = cfg.grid()
    rows = []
    for g in gammas:
        eig = spectral.eig_gamma(spectral.assemble_operator(grid, g), cfg.kmax)
        for k in range(eig.n_computed):
            rows.append((float(g), k, float(eig.eigenvalues[k]),
                         eig.multiplicity(k), float(eig.residuals[k])))
    out = _out_dir(cfg, args)
    write_csv(out / "eig_sweep.csv", ["gamma", "k", "lambda", "multiplicity", "residual"], rows)
    write_manifest(cfg, out, {"command": "eig-sweep"})
    return 0


def cmd_expansion_check(cfg: RunConfig, args) -> int:
    gammas = cfg.sweep_values if cfg.sweep_axis == "gamma" else (0.2, 0.1, 0.05, 0.025)
    table = convergence_study(cfg, "expansion", gammas)
    out = _out_dir(cfg, args)
    write_csv(out / "expansion.csv", ["gamma", "remainder"],
              [(r["value"], r["remainder"]) for r in table.rows()])
    write_manifest(cfg, out, {"command": "expansion-check", "orders": table.orders})
    print(f"remainder order: {table.orders['remainder']:.3f}")
    return 0


def cmd_coeffs(cfg: RunConfig, args) -> int:
    coeffs = build_setup(cfg).coeffs
    rows = [
        (j + 1, float(coeffs.hat_alpha[j]), float(coeffs.qj[j]), float(coeffs.qj_truncation[j]))
        for j in range(cfg.M)
    ]
    out = _out_dir(cfg, args)
    write_csv(out / "coeffs.csv", ["j", "hat_alpha", "Qj", "truncation_bound"], rows)
    write_manifest(cfg, out, {"command": "coeffs"})
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    """Member 0 of the configured ensemble, stepped by one model and stored."""
    setup = build_setup(cfg)
    spde = cfg.spde()
    drivers, _ = batch_driver_tables(setup, member_seeds(cfg.master_seed, 1), spde.times())
    kind = next((k for k in cfg.model_kinds if k in ("conventional_fd", "holistic", "holistic_intro")),
                "holistic")
    model = DiscreteModel(kind=kind, coeffs=setup.coeffs, deviation_alpha=cfg.deviation_alpha)
    U0 = initial_profile(cfg.initial, setup.grid.L)(setup.grid.grid_points)
    traj = simulate_models([model], spde, drivers, U0[:, None], store=True)[0]
    out = _out_dir(cfg, args)
    header = ["t"] + [f"U_{j+1}" for j in range(setup.grid.M)]
    n_times = traj.times.size
    stride = max(1, n_times // 2000)
    # every stride-th row, and always the row at T
    kept = list(range(0, n_times, stride))
    if kept[-1] != n_times - 1:
        kept.append(n_times - 1)
    rows = [
        tuple([float(traj.times[i])] + [float(v) for v in traj.states[i, :, 0]])
        for i in kept
    ]
    write_csv(out / f"trajectory_{kind}.csv", header, rows)
    write_manifest(cfg, out, {"command": "simulate", "model": kind})
    return 0


def cmd_compare(cfg: RunConfig, args) -> int:
    report = compare_models(cfg)
    out = _out_dir(cfg, args)
    (out / "compare.json").write_text(json.dumps(report, sort_keys=True, indent=2),
                                      encoding="utf-8")
    write_manifest(cfg, out, {"command": "compare"})
    for kind, entry in report["models"].items():
        print(f"{kind}: mean_err={entry['mean_error_rms']:.4g} "
              f"var_err={entry['var_error_rms']:.4g}")
    return 0


def cmd_converge(cfg: RunConfig, args) -> int:
    study = args.study
    table = convergence_study(cfg, study, cfg.sweep_values or None)
    out = _out_dir(cfg, args)
    names = list(table.metrics)
    rows = [tuple([r["value"]] + [r[n] for n in names]) for r in table.rows()]
    write_csv(out / f"converge_{study}.csv", [table.axis] + names, rows)
    write_manifest(cfg, out, {"command": "converge", "study": study, "orders": table.orders})
    for name, order in table.orders.items():
        print(f"{name}: fitted order {order:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="holisde",
                                description="overlapping-element stochastic reaction-diffusion toolkit")
    p.add_argument("--config", help="JSON config file", default=None)
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--sweep", default=None, help="AXIS=v1,v2,... sweep override")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("eig-sweep", help="eigenvalue sweep over coupling strengths")
    sub.add_parser("expansion-check", help="centre-expansion remainder orders")
    sub.add_parser("coeffs", help="averaged model coefficients per element")
    sub.add_parser("simulate", help="single seeded trajectory of one model")
    sub.add_parser("compare", help="weak-error comparison of the discrete models")
    conv = sub.add_parser("converge", help="named convergence study")
    conv.add_argument("--study", required=True, choices=list(STUDIES))
    return p


COMMANDS = {
    "eig-sweep": cmd_eig_sweep,
    "expansion-check": cmd_expansion_check,
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        rc = COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:   # every verb steps members of the master seed's ensemble
        print(f"numerical abort: {exc} (step={exc.step}, member={exc.member}, "
              f"seed={cfg.master_seed})", file=sys.stderr)
        return EXIT_NUMERIC
    return rc


if __name__ == "__main__":
    sys.exit(main())
