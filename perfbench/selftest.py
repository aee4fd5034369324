"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Every workload check must accept the recorded seed-2024 outputs and reject
each perturbed copy below; the record comparison must accept round-off and
reject a real change; the repeat comparison must reject a one-ulp change.
Prints one PASS/FAIL line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import numpy as np

import bootstrap


def _refit(r: dict) -> None:
    for name in ("mean_gap", "var_gap"):
        r["orders"][name] = float(np.polyfit(np.log(r["h"]), np.log(r[name]), 1)[0])


def _weak_h_flat_mean(r):
    r["mean_gap"][2] = r["mean_gap"][1] * 1.01
    _refit(r)


def _weak_h_low_order(r):
    h0 = r["h"][0]
    r["var_gap"] = [v * (h / h0) ** -1.0 for v, h in zip(r["var_gap"], r["h"])]
    _refit(r)


def _weak_h_stale_manifest(r):
    r["orders"]["mean_gap"] += 0.1


def _swap_gamma_gaps(r):
    for key in ("ms_gap", "rms_gap"):
        r[key][1], r[key][2] = r[key][2], r[key][1]


def _gamma1_gap_large(r):
    r["ms_gap"][2], r["rms_gap"][2] = 1e-8, 1e-4


def _resume_off_by_ulp(r):
    mean = r["resumed"]["holistic"]["mean"]
    mean[0] = float(np.nextafter(mean[0], np.inf))


def _chunk_rewritten(r):
    first = sorted(r["after_resume"])[0]
    r["after_resume"][first] = [r["after_resume"][first][0], r["after_resume"][first][1] + 1]


def _chunk_missing(r):
    last = sorted(r["written"])[-1]
    del r["written"][last]
    del r["after_resume"][last]


def _stats_nan(r):
    for key in ("first", "resumed"):
        r[key]["gamma_reduced"]["var"][3] = math.nan


def _set(path, value):
    def mutate(r):
        node = r
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


PERTURBATIONS = [
    ("weak-h", "non-zero exit", _set(("rc",), 1)),
    ("weak-h", "mean_gap not strictly decreasing", _weak_h_flat_mean),
    ("weak-h", "var_gap order 0.5 < 0.8", _weak_h_low_order),
    ("weak-h", "NaN mean_gap", _set(("mean_gap", 0), math.nan)),
    ("weak-h", "manifest order differs from the table", _weak_h_stale_manifest),
    ("coupling-gap", "non-zero exit", _set(("rc",), 3)),
    ("coupling-gap", "ms_gap not decreasing in gamma", _swap_gamma_gaps),
    ("coupling-gap", "gamma=1 gap far above the floor", _gamma1_gap_large),
    ("coupling-gap", "infinite det_gap", _set(("det_gap", 0), math.inf)),
    ("desk-compare", "non-zero exit", _set(("rc",), 1)),
    ("desk-compare", "infinite report field",
     _set(("report", "models", "holistic", "var_error_rms"), math.inf)),
    ("desk-compare", "null report field",
     _set(("report", "models", "holistic_intro", "pathwise_gap_mean"), None)),
    ("desk-compare", "NaN term budget", _set(("report", "term_budget", "stencil_variance_rate", 2),
                                             math.nan)),
    ("desk-compare", "model missing from the report",
     lambda r: r["report"]["models"].pop("conventional_fd")),
    ("grid-ensemble", "resumed stats off by one ulp", _resume_off_by_ulp),
    ("grid-ensemble", "resume rewrote a chunk", _chunk_rewritten),
    ("grid-ensemble", "a chunk was never flushed", _chunk_missing),
    ("grid-ensemble", "NaN statistic", _stats_nan),
]


def main() -> int:
    bootstrap.prepare()
    import workloads

    record = json.loads(workloads.RECORD_FILE.read_text(encoding="utf-8"))
    failures = 0

    def report(ok: bool, what: str):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {what}")

    for name, wl in workloads.WORKLOADS.items():
        problems = wl.check(record[name])
        report(not problems, f"{name}: accepts the seed-{workloads.RECORD_SEED} record {problems or ''}")
    for name, what, mutate in PERTURBATIONS:
        result = copy.deepcopy(record[name])
        mutate(result)
        problems = workloads.WORKLOADS[name].check(result)
        report(bool(problems), f"{name}: rejects {what}: {problems[:1]}")

    for name, wl in workloads.WORKLOADS.items():
        values = wl.values(record[name])
        for factor, should_pass in ((1 + 1e-12, True), (1 + 10 * workloads.REL_TOL, False)):
            moved = {k: [v * factor for v in vs] for k, vs in values.items()}
            problems = workloads.value_mismatches(moved, values, workloads.REL_TOL)
            verdict = "accepts" if should_pass else "rejects"
            report(not problems if should_pass else bool(problems),
                   f"{name}: record comparison {verdict} a relative change of {factor - 1:.0e}")
        ulp = copy.deepcopy(values)
        key = sorted(ulp)[0]
        ulp[key][0] = float(np.nextafter(ulp[key][0], np.inf))
        report(bool(workloads.value_mismatches(ulp, values, 0.0)),
               f"{name}: repeat comparison rejects a one-ulp change in {key}")

    print(f"{failures} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
