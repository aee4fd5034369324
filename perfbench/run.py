"""holisde benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed becomes the config's master_seed.  The workload's entry
point is called back to back until S seconds have passed, and every call
is timed and checked.  There is no warm-up call: each CLI invocation a user
makes starts cold, and the median absorbs a slower first call.  BLAS is
pinned to one thread.

--trace 0 prints the end-to-end metrics: run_s (median call time), setup_s
(median over fresh processes of spawn-to-ready, see setup_probe.py) and
peak_rss_mb.  --trace 1 alternates traced and untraced calls and prints the
per-layer metrics from the spans (spans.py), averaged per traced call, plus
trace.overhead_frac, the median over adjacent (untraced, traced) pairs of
their time ratio, minus one.  Human-readable lines come first; the last line of
stdout is the JSON result.  Spans, samples and provenance are written to
.perfbench_work/results/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import bootstrap

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative (it seeds numpy's SeedSequence)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> list:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = []
    for index in sorted(base.glob("index*")):
        out.append({key: _read(index / key)
                    for key in ("level", "type", "size", "shared_cpu_list")})
    return out


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _caches()
    unified = [c for c in caches if c["type"] in ("Unified", "Data")]
    by_level = {c["level"]: c["size"] for c in unified}
    src_files = sorted((root / "src").rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_per_core": by_level.get("2"),
        "llc": by_level.get(max(by_level)) if by_level else None,
        "caches_cpu0": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in src_files),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_probe(root: Path, workload: str, seed: int) -> tuple[float, dict]:
    """Wall time from spawning a fresh interpreter to its set-up being done."""
    cmd = [sys.executable, str(root / "perfbench" / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                          timeout=PROBE_TIMEOUT_S)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return seconds, json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """One workload run: calls, checks, samples and (when traced) spans."""

    def __init__(self, root: Path, args, workloads, spans):
        self.root = root
        self.args = args
        self.wl = workloads.WORKLOADS[args.workload]
        self.workloads = workloads
        self.cfg = self.wl.config(args.seed)
        self.work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        self.tracer = spans.Tracer()
        self.targets = spans.layer_targets()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_values = None
        self.samples = {False: [], True: []}
        self.probes: list[tuple[float, dict]] = []
        self.traced_results: list[dict] = []

    def fail(self, message: str):
        self.failures.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def call(self, traced: bool):
        self.attempted += 1
        wl = self.wl
        try:
            if traced:
                self.tracer.run_id = f"{wl.name}-{self.args.seed}-{self.attempted}"
                with self.tracer.installed(self.targets):
                    seconds, result = wl.run(self.cfg, self.work, self.tracer.span)
            else:
                seconds, result = wl.run(self.cfg, self.work, self.workloads.null_span)
        except Exception:
            self.fail(f"call {self.attempted} raised:\n{traceback.format_exc()}")
            return
        problems = list(wl.check(result))
        if not problems:
            values = wl.values(result)
            if self.reference_values is None:
                self.reference_values = values
                problems += self.check_record(result)
            else:
                problems += [f"not reproducible across calls: {m}" for m in
                             self.workloads.value_mismatches(values, self.reference_values, 0.0)]
        if problems:
            self.fail(f"call {self.attempted}: " + "; ".join(problems))
            return
        self.samples[traced].append(seconds)
        if traced:
            self.traced_results.append(result)

    def check_record(self, result: dict) -> list:
        if self.args.seed != self.workloads.RECORD_SEED:
            return []
        record = json.loads(self.workloads.RECORD_FILE.read_text(encoding="utf-8"))
        expected = self.wl.values(record[self.wl.name])
        return [f"differs from the seed-{self.args.seed} record: {m}" for m in
                self.workloads.value_mismatches(self.wl.values(result), expected,
                                                self.workloads.REL_TOL)]

    def probe(self):
        self.attempted += 1
        try:
            self.probes.append(setup_probe(self.root, self.args.workload, self.args.seed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            self.fail(f"setup probe: {exc}")

    def measure(self, n_probes: int):
        """Call the entry point until --seconds of call time have passed.

        Set-up probes run between calls, so that they sample the same
        machine state as the calls; their time is not part of the window.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        t_start = perf_counter()
        probe_time = 0.0
        i = 0
        while True:
            traced = bool(self.args.trace) and i % 2 == 1
            self.call(traced)
            i += 1
            if self.failures and i >= 2:
                break                                     # failing calls: stop early
            done = perf_counter() - t_start - probe_time >= self.args.seconds
            enough = not self.args.trace or all(self.samples.values())
            if done and enough:
                break
            if i <= n_probes:
                t0 = perf_counter()
                self.probe()
                probe_time += perf_counter() - t0
        while i < n_probes + 1 and not self.failures:
            self.probe()                                  # window ended first
            i += 1


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _metric(value: float, unit: str) -> dict:
    """A metric entry; a value that could not be measured is null, never NaN."""
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        root = bootstrap.prepare()
        import holisde

        bootstrap.check_imported(holisde)
    except (bootstrap.MissingSource, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(root, args, workloads, spans)
    try:
        run.measure(0 if args.trace else SETUP_PROBES)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    untraced = run.samples[False]
    metrics: dict = {}
    if args.trace:
        traced = run.samples[True]
        layer = spans.summarize(run.tracer.spans, len(run.samples[True]))
        flush = run.traced_results[-1].get("flush_bytes", 0) if run.traced_results else 0
        layer["harness.flush_bytes"] = (flush, "bytes")
        # calls alternate untraced/traced, so each pair shares the machine's state
        ratios = [t / u for u, t in zip(untraced, traced)]
        layer["trace.overhead_frac"] = (_median(ratios) - 1.0, "ratio")
        metrics = {k: _metric(v, u) for k, (v, u) in sorted(layer.items())}
    else:
        metrics = {
            "run_s": _metric(_median(untraced), "s"),
            "setup_s": _metric(_median([p[0] for p in run.probes]), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MiB"),
        }

    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    prov = provenance(root)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "samples_untraced_s": untraced, "samples_traced_s": run.samples[True],
        "setup_probes": [{"seconds": s, "inside": inside} for s, inside in run.probes],
        "failures": run.failures, "untraced_targets": run.tracer.missing,
        "metrics": metrics, "spans": run.tracer.as_records(),
    }
    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {run.attempted}  timed samples {len(untraced)} untraced"
          + (f", {len(run.samples[True])} traced" if args.trace else ""))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']} {m['unit']}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
