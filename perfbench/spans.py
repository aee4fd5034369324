"""Span tracer for the traced benchmark run.

Spans are recorded around calls into each layer of holisde by wrappers that
this file installs from outside the package; nothing under src/ is edited.
Each wrapper is installed where its caller looks the name up: names that
harness imports with ``from ... import`` are patched on harness, solver
methods on their class, everything else on its own module.  Wrappers exist
only inside ``Tracer.installed()``, so untraced calls run the plain code.

A span holds its name, start, end, parent span and run id (one run id per
timed entry-point call), plus an optional work count used for per-unit
ratios.  Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Optional, Union


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    work: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run_id = ""
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, work: int = 0):
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.run_id, work)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: Union[str, Callable], work: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            units = work(*args, **kwargs) if work is not None else 0
            with self.span(label, units):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute, span name, work) target, then restore.

        A target whose attribute no longer exists is skipped and listed in
        ``missing``, so a refactor that removes a function leaves its
        metrics at zero instead of breaking the traced run.
        """
        saved = []
        try:
            for owner, attr, name, work in targets:
                original = vars(owner).get(attr)
                if original is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_targets() -> list[tuple]:
    """Wrapper targets for the seven layers, keyed to the per-layer metric names."""
    import numpy
    from holisde import averaging, dynamics, harness, models, noise, spectral

    ref = dynamics.FullSpdeSolver
    coupled = dynamics.CoupledElementSolver

    def state_size(solver, u, *args, **kwargs):
        return int(u.size)

    def model_name(model, *args, **kwargs):
        return f"models.simulate_model.{model.kind}"

    def model_steps(model, cfg, grid, drivers, *args, **kwargs):
        return int(drivers.n_steps)

    return [
        (harness, "build_grid", "grid.build_grid", None),
        (spectral, "assemble_operator", "spectral.assemble_operator", None),
        (spectral, "eig_gamma", "spectral.eig_gamma", None),
        (spectral, "eig_gamma0", "spectral.eig_gamma0", None),
        (spectral, "expand_ground_mode", "spectral.expand_ground_mode", None),
        (noise, "project_to_element_modes", "noise.project_to_element_modes", None),
        (harness, "sample_global_path", "noise.sample_global_path", None),
        (averaging, "averaged_coeffs", "averaging.averaged_coeffs", None),
        (averaging, "ou_stationary_stats", "averaging.ou_stationary_stats", None),
        (models, "martingale_limit_driver", "averaging.martingale_limit_driver", None),
        (ref, "step", "dynamics.reference_step", state_size),
        (ref, "noise_increment_batch", "dynamics.reference_noise", None),
        (ref, "noise_increment", "dynamics.reference_noise", None),
        (coupled, "step_reduced", "dynamics.coupled_step", None),
        (coupled, "noise_rhs_batch", "dynamics.coupled_noise", None),
        (coupled, "noise_rhs", "dynamics.coupled_noise", None),
        (coupled, "__init__", "dynamics.coupled_factor", None),
        (models, "build_drivers", "models.build_drivers", None),
        (harness, "simulate_model", model_name, model_steps),
        (harness, "build_setup", "harness.build_setup", None),
        (harness, "batch_driver_tables", "harness.batch_driver_tables", None),
        (harness, "reference_grid_values", "harness.reference_grid_values", None),
        # harness reaches the chunk files through np.load / np.savez
        (numpy, "load", "harness.chunk_load", None),
        (numpy, "savez", "harness.flush", None),
    ]


# Spans whose busy time and call count are reported as <name>_s / <name>_calls.
TIMED_SPANS = (
    "grid.build_grid",
    "spectral.assemble_operator",
    "spectral.eig_gamma",
    "spectral.eig_gamma0",
    "spectral.expand_ground_mode",
    "noise.project_to_element_modes",
    "noise.sample_global_path",
    "averaging.averaged_coeffs",
    "averaging.ou_stationary_stats",
    "averaging.martingale_limit_driver",
    "dynamics.reference_step",
    "dynamics.reference_noise",
    "dynamics.coupled_step",
    "dynamics.coupled_noise",
    "dynamics.coupled_factor",
    "models.build_drivers",
    "models.simulate_model.conventional_fd",
    "models.simulate_model.holistic",
    "models.simulate_model.holistic_intro",
    "models.simulate_model.gamma_reduced",
    "harness.build_setup",
    "harness.batch_driver_tables",
    "harness.reference_grid_values",
    "harness.resume",
    "harness.flush",
)

ENTRY_SPANS = ("harness.entry", "harness.resume")


def summarize(spans: list[Span], n_calls: int) -> dict:
    """Per-layer metrics, averaged per traced entry-point call.

    Busy time of a name counts only its outermost spans, so a wrapped call
    nested in another call of the same name is not counted twice.
    """
    by_id = {s.sid: s for s in spans}

    def nested_in_same(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == s.name:
                return True
            p = by_id[p].parent
        return False

    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for s in spans:
        if nested_in_same(s):
            continue
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work

    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    entries = [s for s in spans if s.name in ENTRY_SPANS]
    self_s = sum((s.end - s.start) - child_time.get(s.sid, 0.0) for s in entries)
    resume_ids = {s.sid for s in spans if s.name == "harness.resume"}
    chunks_resumed = sum(1 for s in spans
                         if s.name == "harness.chunk_load" and s.parent in resume_ids)

    per = 1.0 / max(n_calls, 1)
    out: dict[str, tuple] = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = (busy.get(name, 0.0) * per, "s")
        out[f"{name}_calls"] = (calls.get(name, 0) * per, "count")
    out["harness.self_s"] = (self_s * per, "s")
    out["harness.self_calls"] = (len(entries) * per, "count")
    out["harness.chunks_resumed"] = (chunks_resumed * per, "count")

    ref_nodes = work.get("dynamics.reference_step", 0)
    out["dynamics.reference_ns_per_node"] = (
        1e9 * busy.get("dynamics.reference_step", 0.0) / ref_nodes if ref_nodes else 0.0, "ns")
    out["dynamics.reference_state_bytes"] = (
        8 * max((s.work for s in spans if s.name == "dynamics.reference_step"), default=0),
        "bytes-computed")
    model_names = [n for n in busy if n.startswith("models.simulate_model.")]
    steps = sum(work[n] for n in model_names)
    out["models.step_us"] = (
        1e6 * sum(busy[n] for n in model_names) / steps if steps else 0.0, "us")
    return out
