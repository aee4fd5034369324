import contextlib
import gc
import io
import itertools
import json
import os
import tracemalloc
import warnings
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holisde import harness, models, noise, spectral
from holisde.cli import main as cli_main
from holisde.harness import (
    _load_chunk,
    ConfigError,
    RunConfig,
    _holistic_term_budget,
    build_setup,
    compare_models,
    convergence_study,
    fit_order,
    member_seeds,
    run_ensemble,
    write_csv,
    write_manifest,
)
from holisde.dynamics import (BatchJob, FullSpdeSolver, NumericalAbort, initial_profile,
                              run_batches)
from holisde.grid import build_grid
from holisde.models import DiscreteModel, build_drivers, simulate_models
from holisde.noise import sample_global_path

FAST = dict(
    subgrid_n=16, n_modes=17, T=0.02, dt=1e-3, ensemble=8, n_fine=256,
    model_kinds=("conventional_fd", "holistic"), chunk_size=4,
)


def test_config_roundtrip_identity():
    cfg = RunConfig(**FAST)
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert RunConfig.from_json(again.to_json()) == again
    assert cfg.digest() == again.digest()


def test_config_validation_collects_all_errors():
    with pytest.raises(ConfigError) as err:
        RunConfig(L=-1.0, M=2, sigma=-0.5, gamma=1.5, model_kinds=("coupled",))
    assert len(err.value.messages) >= 5


@pytest.mark.parametrize("L", [1e-300, 1e300])
def test_config_rejects_a_default_dt_out_of_range(L):
    # 1e-4 h^2 underflows to 0 at L = 1e-300 and overflows at L = 1e300
    with pytest.raises(ConfigError, match="default dt"):
        RunConfig(L=L)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"not_a_key": 1})


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError):
        RunConfig.from_json("{broken")


# a valid value of every field but out_dir, each unlike FAST's and the defaults
OTHER_VALUES = {
    "L": 3.0, "M": 4, "subgrid_n": 32, "n_modes": 9, "decay_r": 4.0, "q_list": (1.0, 0.5),
    "master_seed": 7, "alpha": 0.5, "sigma": 0.25, "gamma": 0.5, "dt": 2e-3, "T": 0.01,
    "initial": {"kind": "zero"}, "model_kinds": ("holistic",), "ensemble": 2, "n_fine": 128,
    "kmax": 8, "n_levels": 3, "sweep_axis": "gamma", "sweep_values": (0.1, 0.2, 0.4),
    "chunk_size": 2, "deviation_alpha": True,
}


def test_digest_is_keyed_on_every_field_but_out_dir():
    base = RunConfig(**{**FAST, "sweep_axis": "h", "sweep_values": (1.0, 0.5, 0.25)})
    assert set(OTHER_VALUES) | {"out_dir"} == set(base.to_dict())
    assert replace(base, out_dir="a").digest() == replace(base, out_dir="b").digest() \
        == base.digest()
    for name, value in OTHER_VALUES.items():
        assert replace(base, **{name: value}).digest() != base.digest(), name


_SCALARS = (st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats()
            | st.text(max_size=3) | st.sampled_from(["gamma", "h", "sine", "zero", "holistic"]))
_VALUES = (_SCALARS | st.lists(_SCALARS, max_size=4)
           | st.dictionaries(st.sampled_from(["kind", "amplitude", "mode", "x"]), _SCALARS,
                             max_size=3))


# each drawn field takes, about half the time, a valid value of its own
_FIELDS = st.sampled_from(sorted(OTHER_VALUES)).flatmap(
    lambda k: st.tuples(st.just(k), st.just(OTHER_VALUES[k]) | _VALUES))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.lists(_FIELDS | st.tuples(st.just("out_dir"), _VALUES), max_size=3).map(dict))
def test_config_dict_roundtrips_or_is_a_config_error(d):
    try:
        cfg = RunConfig.from_dict(d)
    except ConfigError:
        return
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_fit_order_exact_slopes():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    assert fit_order(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)
    assert fit_order(x, 0.1 * x**0.8) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ValueError):
        fit_order(x[:2], x[:2])
    with pytest.raises(ValueError):
        fit_order(x, np.array([1.0, 0.5, 0.0, 0.1]))


def test_single_member_matches_direct_simulation():
    cfg = RunConfig(**{**FAST, "ensemble": 1})
    stats = run_ensemble(cfg)
    setup = build_setup(cfg)
    spde = cfg.spde()
    path = sample_global_path(setup.spec, spde.dt, spde.n_steps,
                              member_seeds(cfg.master_seed, [0], 0))
    drivers = build_drivers(setup.grid, setup.proj, path, member_seeds(cfg.master_seed, [0], 1),
                            spde.dt)
    U0 = initial_profile(cfg.initial, setup.grid.L)(setup.grid.grid_points)
    states = simulate_models([DiscreteModel("holistic", coeffs=setup.coeffs)], spde, drivers, U0)
    assert np.array_equal(stats.mean("holistic"), states[-1, 0, :, 0])


def _member_oracle(setup, spde, master_seed, m, inc=None):
    """Member m's path increments (unless given), slow, gridpoint and deviation
    tables and deviation seed, drawn and mapped on its own with fresh temporaries."""
    (path_ss,), (dev_ss,) = (member_seeds(master_seed, [m], stream) for stream in (0, 1))
    sqrt_dt, n = np.sqrt(spde.dt), spde.n_steps
    if inc is None:
        inc = np.random.default_rng(path_ss).standard_normal((setup.spec.n_modes, n))
        inc = inc * sqrt_dt
    dev = np.random.default_rng(dev_ss).standard_normal((setup.grid.M, n)) * sqrt_dt
    return inc, setup.proj.slow_map @ inc, setup.proj.gridpoint_map @ inc, dev, dev_ss


def test_batch_driver_columns_are_member_tables():
    cfg = RunConfig(**{**FAST, "T": 0.2})
    setup, spde = build_setup(cfg), cfg.spde()
    M, n = setup.grid.M, spde.n_steps
    for R, given in itertools.product((1, 3, 30), (False, True)):
        path_seeds, deviation_seeds = (member_seeds(cfg.master_seed, range(R), stream)
                                       for stream in (0, 1))
        path = sample_global_path(setup.spec, spde.dt, n, [100 + r for r in range(R)] if given
                                  else path_seeds)
        with pytest.raises(ValueError):
            build_drivers(setup.grid, setup.proj, path, deviation_seeds[1:], spde.dt)
        drivers = build_drivers(setup.grid, setup.proj, path, deviation_seeds, spde.dt)
        tables = [drivers.slow, drivers.gridpoint, drivers.deviation]
        assert all(t.shape == (M, n, R) for t in tables)
        assert path.shape == (R, setup.spec.n_modes, n)
        assert path.flags.c_contiguous
        for a, b in itertools.combinations(tables + [path], 2):
            assert not np.shares_memory(a, b)
        for r in range(R):
            inc, slow, gridpoint, dev, dev_ss = _member_oracle(
                setup, spde, cfg.master_seed, r, path[r] if given else None)
            assert np.array_equal(path[r], inc)
            for table, want in zip(tables, (slow, gridpoint, dev)):
                assert np.array_equal(table[..., r], want)
            one = build_drivers(setup.grid, setup.proj, path[r:r + 1], [dev_ss],  # a batch of one
                                spde.dt)
            for name, want in zip(("slow", "gridpoint", "deviation"), (slow, gridpoint, dev)):
                assert np.array_equal(getattr(one, name)[..., 0], want)


def test_build_drivers_refuses_a_path_of_no_steps():
    setup = build_setup(RunConfig(**FAST))
    with pytest.raises(ValueError, match=", 0 steps"):
        build_drivers(setup.grid, setup.proj, np.zeros((1, setup.spec.n_modes, 0)), [0], 1e-3)


def test_member_seeds_draw_what_spawned_children_drew():
    # stream 3c + j of member m is child j of the c-th spawn(3) on member m's
    # tree spawned from the master seed: the seeding the streams replaced
    master, R = 2024, 5
    trees = np.random.SeedSequence(master).spawn(R)
    for c in range(4):
        children = [tree.spawn(3) for tree in trees]
        for j in range(3):
            for m, ss in enumerate(member_seeds(master, range(R), 3 * c + j)):
                want = np.random.default_rng(children[m][j]).standard_normal(8)
                assert np.array_equal(np.random.default_rng(ss).standard_normal(8), want)


def _replay_member(cfg, m, deviation_stream, kinds):
    """Final grid values (K, M) of member m, rebuilt alone as a batch of one from
    the config, the master seed, the member index and its deviation stream."""
    setup, spde = build_setup(cfg), cfg.spde()
    path = sample_global_path(setup.spec, spde.dt, spde.n_steps,
                              member_seeds(cfg.master_seed, [m], 0))
    drivers = build_drivers(setup.grid, setup.proj, path,
                            member_seeds(cfg.master_seed, [m], deviation_stream), spde.dt)
    grid_models = [DiscreteModel(k, coeffs=setup.coeffs, deviation_alpha=cfg.deviation_alpha)
                   for k in kinds]
    return simulate_models(grid_models, spde, drivers)[-1, ..., 0]


def test_member_replay_is_bitwise(tmp_path, monkeypatch):
    cfg = RunConfig(**FAST)
    stats1 = run_ensemble(cfg, out_dir=tmp_path)
    stats2 = run_ensemble(cfg)
    for name in stats1.observables:
        assert np.array_equal(stats1.mean(name), stats2.mean(name))
    # a member of a flushed chunk, from (config, seed, member index) alone
    flushed = tmp_path / f"members_{cfg.digest()}"
    for m in (0, 5, cfg.ensemble - 1):
        with np.load(flushed / f"chunk_{m // cfg.chunk_size:04d}.npz") as chunk:
            want = np.stack([chunk[kind][:, m % cfg.chunk_size] for kind in cfg.model_kinds])
        assert np.array_equal(_replay_member(cfg, m, 1, cfg.model_kinds), want)
    # a weak-h member at the k-th spacing, from (config, seed, member index, k) alone;
    # each spacing's members step in one or more groups, whatever the pool's width
    finals, simulate = {}, harness.simulate_models

    def recording(*args):
        states = simulate(*args)
        finals.setdefault(states.shape[2], []).append(states[-1, 0])
        return states

    monkeypatch.setattr(harness, "simulate_models", recording)
    convergence_study(cfg, "weak-h", (np.pi / 2, np.pi / 4, np.pi / 8))
    assert list(finals) == [4, 8, 16]
    for k, U in enumerate(np.concatenate(groups, axis=-1) for groups in finals.values()):
        assert U.shape[1] == cfg.ensemble
        for m in (0, 5, cfg.ensemble - 1):
            got = _replay_member(replace(cfg, M=U.shape[0]), m, 3 * k + 4, ["holistic"])
            assert np.array_equal(got[0], U[:, m])


def test_gamma_reduced_at_full_coupling_matches_holistic():
    # at gamma = 1 the truncated gamma-expanded model is the holistic model
    cfg = RunConfig(**{**FAST, "gamma": 1.0, "model_kinds": ("holistic", "gamma_reduced")})
    stats = run_ensemble(cfg)
    assert np.array_equal(stats.mean("holistic"), stats.mean("gamma_reduced"))
    assert np.array_equal(stats.var("holistic"), stats.var("gamma_reduced"))


def test_abort_names_step_member_and_seed():
    # every ensemble and study abort names the master seed
    cfg = RunConfig(**{**FAST, "master_seed": 7, "initial": {"kind": "constant", "amplitude": 1e200}})
    for run in (lambda: run_ensemble(cfg),
                lambda: run_ensemble(replace(cfg, model_kinds=("reference",))),
                lambda: convergence_study(cfg, "weak-h", WEAK_H),
                lambda: convergence_study(cfg, "coupling-gap", (0.25, 0.5, 1.0))):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as err:
            run()
        assert (err.value.step, err.value.member, err.value.seed) == (0, 0, 7)


def test_stderr_shrinks_with_ensemble_size():
    small = run_ensemble(RunConfig(**{**FAST, "ensemble": 16}))
    large = run_ensemble(RunConfig(**{**FAST, "ensemble": 64}))
    r = np.mean(small.stderr("holistic") / large.stderr("holistic"))
    assert abs(r - 2.0) < 0.8  # sqrt(4) up to sampling noise of the std estimate


def test_resume_uses_flushed_chunks(tmp_path):
    cfg = RunConfig(**{**FAST, "out_dir": str(tmp_path)})
    s1 = run_ensemble(cfg, out_dir=tmp_path)
    cache = list((tmp_path / f"members_{cfg.digest()}").glob("chunk_*.npz"))
    assert len(cache) == 2
    mtimes = {p: p.stat().st_mtime_ns for p in cache}
    s2 = run_ensemble(cfg, out_dir=tmp_path)
    assert {p: p.stat().st_mtime_ns for p in cache} == mtimes  # untouched
    for name in s1.observables:
        assert np.array_equal(s1.mean(name), s2.mean(name))


def test_full_resume_builds_no_setup(tmp_path, monkeypatch):
    cfg = RunConfig(**FAST)
    first = run_ensemble(cfg, out_dir=tmp_path)
    calls = []
    project = noise.project_to_element_modes
    monkeypatch.setattr(noise, "project_to_element_modes",
                        lambda *a, **k: calls.append(1) or project(*a, **k))
    again = run_ensemble(cfg, out_dir=tmp_path)
    assert calls == []
    for name in first.observables:
        for key in ("mean", "var", "stderr"):
            assert np.array_equal(first.observables[name][key], again.observables[name][key])


def test_resume_recomputes_truncated_chunk(tmp_path):
    cfg = RunConfig(**{**FAST, "out_dir": str(tmp_path)})
    fresh = run_ensemble(cfg)
    run_ensemble(cfg, out_dir=tmp_path)
    cache = sorted((tmp_path / f"members_{cfg.digest()}").glob("chunk_*.npz"))
    cache[1].write_bytes(cache[1].read_bytes()[:200])       # a flush cut short
    resumed = run_ensemble(cfg, out_dir=tmp_path)
    for name in fresh.observables:
        for key in ("mean", "var", "stderr"):
            assert np.array_equal(fresh.observables[name][key], resumed.observables[name][key])
    assert not list(cache[1].parent.glob("*.tmp"))


def test_truncated_chunk_file_is_closed(tmp_path):
    cfg = RunConfig(**{**FAST, "ensemble": 4})
    run_ensemble(cfg, out_dir=tmp_path)
    cache = next((tmp_path / f"members_{cfg.digest()}").glob("chunk_*.npz"))
    with np.load(cache) as data:
        keys = list(data.files)
    cache.write_bytes(cache.read_bytes()[:200])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert _load_chunk(cache, keys, 4) is None
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


# three chunks of 4, 4 and 2 members, each stepping its reference too
GROUPED = dict(FAST, ensemble=10, model_kinds=("conventional_fd", "holistic", "reference"))


def serial_ensemble(cfg):
    """Oracle: run_ensemble's statistics with every chunk computed whole, one
    after another, its reference through a one-job solve."""
    setup, spde = build_setup(cfg), cfg.spde()
    kinds = [k for k in cfg.model_kinds if k != "reference"]
    grid_models = [DiscreteModel(k, coeffs=setup.coeffs, deviation_alpha=cfg.deviation_alpha)
                   for k in kinds]
    U0 = initial_profile(cfg.initial, setup.grid.L)(setup.grid.grid_points)
    samples = {}
    for lo in range(0, cfg.ensemble, cfg.chunk_size):
        chunk = range(lo, min(lo + cfg.chunk_size, cfg.ensemble))
        path = sample_global_path(setup.spec, spde.dt, spde.n_steps,
                                  member_seeds(cfg.master_seed, chunk, 0))
        drivers = build_drivers(setup.grid, setup.proj, path,
                                member_seeds(cfg.master_seed, chunk, 1), spde.dt)
        out = dict(zip(kinds, simulate_models(grid_models, spde, drivers, U0)[-1]))
        if "reference" in cfg.model_kinds:
            solver = FullSpdeSolver(setup.grid.L, cfg.n_fine, setup.spec)
            fine = run_batches([BatchJob(solver, spde, path)])[0]
            out["reference"] = harness.at_grid_points(fine, cfg.M)
        for a, b in itertools.combinations(list(out), 2):
            out[f"gap:{a}-{b}"] = np.sqrt(np.mean((out[a] - out[b]) ** 2, axis=0))[None, :]
        for k, v in out.items():
            samples.setdefault(k, []).append(v)
    return harness._summaries({k: np.concatenate(v, axis=-1) for k, v in samples.items()},
                              cfg.ensemble)


def assert_same_stats(got, want):
    assert list(got.observables) == list(want.observables)
    for name in want.observables:
        for key in ("mean", "var", "stderr"):
            assert np.array_equal(got.observables[name][key], want.observables[name][key])


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_grouped_ensemble_matches_serial_oracle(monkeypatch, solver_pool, workers):
    # the chunks step one after another, their references on pools of every width
    cfg = RunConfig(**GROUPED)
    want = serial_ensemble(cfg)
    with monkeypatch.context() as m:
        m.setattr(harness, "run_ensemble", serial_ensemble)
        want_report = compare_models(cfg)
    with solver_pool(workers):
        got = run_ensemble(cfg)
        report = compare_models(cfg)
    assert_same_stats(got, want)
    assert report == want_report
    # without a reference no chunk's path batch is sampled: members are drawn row by row
    cfg = RunConfig(**{**GROUPED, "model_kinds": ("conventional_fd", "holistic")})
    want = serial_ensemble(cfg)
    with solver_pool(workers), monkeypatch.context() as m:
        m.setattr(harness, "sample_global_path", lambda *a: pytest.fail("path batch sampled"))
        got = run_ensemble(cfg)
    assert_same_stats(got, want)


def plant_blowups(monkeypatch, reference=(), model=()):
    """Blow up members once their chunk's driver tables are built: (chunk,
    member, step) in `reference` scales that step's path increments by 1e200,
    which only the reference reads from then on, so its cube overflows a step
    later; in `model`, it makes the tables non-finite at that step."""
    build, chunks = models.build_drivers, itertools.count()

    def planted(grid, proj, path, deviation_seeds, dt):
        drivers, chunk = build(grid, proj, path, deviation_seeds, dt), next(chunks)
        for member, step in [(m, i) for c, m, i in reference if c == chunk]:
            path[member, :, step] *= 1e200
        for member, step in [(m, i) for c, m, i in model if c == chunk]:
            for table in (drivers.slow, drivers.gridpoint, drivers.deviation):
                table[:, step, member] = np.inf
        return drivers

    monkeypatch.setattr(models, "build_drivers", planted)


@pytest.mark.parametrize("reference, model, want", [
    ([(1, 2, 5)], [], (6, 4 + 2, "reference")),              # the second chunk
    ([(0, 3, 5)], [(1, 1, 2)], (6, 3, "reference")),         # chunk 0's reference comes first
    ([(1, 3, 1)], [(1, 1, 4)], (4, 4 + 1, "model")),         # a chunk's models, then its reference
    ([], [(0, 2, 6), (1, 1, 3)], (6, 2, "model")),           # chunk 0's models, at a later step
], ids=["second-chunk", "earlier-chunk-reference", "models-first", "earlier-chunk-model"])
def test_grouped_abort_is_the_serial_loops(monkeypatch, solver_pool, reference, model, want):
    # on pools of one and two workers: the abort does not depend on the width
    cfg = RunConfig(**GROUPED)
    for workers in (1, 2):
        with monkeypatch.context() as m, solver_pool(workers), \
                np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as err:
            plant_blowups(m, reference, model)
            run_ensemble(cfg)
        step, member, solve = want
        assert (err.value.step, err.value.member, err.value.seed) == (step, member, cfg.master_seed)
        assert solve in str(err.value)


@pytest.mark.parametrize("reference, model, chunk", [
    ([(0, 1, 5)], [], 0), ([(1, 1, 5)], [], 1), ([], [(2, 1, 5)], 2), ([(3, 1, 5)], [], 3),
])
def test_abort_flushes_every_chunk_before_it(tmp_path, monkeypatch, solver_pool,
                                            reference, model, chunk):
    # four chunks, on pools of one and two workers; a models-only abort also
    # without a reference.  Each chunk up to the aborting one steps its models
    # in one call: none steps again to find the abort.
    kinds = [GROUPED["model_kinds"]] + ([] if reference else [("conventional_fd", "holistic")])
    for i, cfg in enumerate(RunConfig(**{**GROUPED, "ensemble": 16, "model_kinds": k})
                            for k in kinds):
        clean = tmp_path / f"clean{i}" / f"members_{cfg.digest()}"
        run_ensemble(cfg, out_dir=clean.parent)
        for workers in (1, 2):
            aborted = tmp_path / f"aborted{i}-{workers}" / f"members_{cfg.digest()}"
            widths, simulate = [], harness.simulate_models
            with monkeypatch.context() as m:
                plant_blowups(m, reference, model)
                m.setattr(harness, "simulate_models", lambda models, spde, drivers:
                          widths.append(drivers.slow.shape[-1]) or simulate(models, spde, drivers))
                with solver_pool(workers), np.errstate(over="ignore", invalid="ignore"), \
                        pytest.raises(NumericalAbort) as err:
                    run_ensemble(cfg, out_dir=aborted.parent)
            assert err.value.member == chunk * cfg.chunk_size + 1
            assert widths == [4] * (chunk + 1)
            assert sorted(p.name for p in aborted.iterdir()) == [f"chunk_{c:04d}.npz"
                                                                 for c in range(chunk)]
            assert_same_payloads(clean, aborted)


def assert_same_payloads(want_dir, got_dir):
    """Every chunk file in got_dir holds the arrays of want_dir's, byte for byte
    (the .npy members of the archives; the archives also stamp a write time)."""
    for got in got_dir.iterdir():
        with zipfile.ZipFile(got) as g, zipfile.ZipFile(want_dir / got.name) as w:
            assert g.namelist() == w.namelist()
            assert all(g.read(name) == w.read(name) for name in w.namelist())


def test_reference_abort_steps_each_reference_once(tmp_path, monkeypatch, solver_pool):
    # chunk 1's reference aborts: chunk 0's reference, stepped before it, is kept and flushed
    cfg = RunConfig(**{**GROUPED, "ensemble": 16})
    run_ensemble(cfg, out_dir=tmp_path / "clean")
    for workers in (1, 2):
        stepped, run = [], harness.run_batches
        with monkeypatch.context() as m, solver_pool(workers), \
                np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as err:
            plant_blowups(m, reference=[(1, 2, 5)])
            m.setattr(harness, "run_batches",
                      lambda jobs: stepped.extend(job.path for job in jobs) or run(jobs))
            run_ensemble(cfg, out_dir=tmp_path / f"aborted{workers}")
        assert (err.value.step, err.value.member) == (6, 4 + 2)
        assert len(stepped) == 2 and stepped[0] is not stepped[1]
        flushed = tmp_path / f"aborted{workers}" / f"members_{cfg.digest()}"
        assert [p.name for p in flushed.iterdir()] == ["chunk_0000.npz"]
        assert_same_payloads(tmp_path / "clean" / f"members_{cfg.digest()}", flushed)


WEAK_H = (np.pi / 2, np.pi / 4, np.pi / 8)     # M = 4, 8, 16


def serial_weak_h(cfg, hs, chunk_size=None):
    """Oracle: the weak-h study's metrics with each spacing's model stepped over
    member chunks of `chunk_size` (default: the whole ensemble), one call per
    chunk after another, each chunk's tables built alone; an abort is the first
    aborting chunk's, naming the member's index in the ensemble."""
    spde, spec = cfg.spde(), cfg.qwiener()
    R = cfg.ensemble
    path = sample_global_path(spec, spde.dt, spde.n_steps,
                              member_seeds(cfg.master_seed, range(R), 0))
    ref = run_batches([BatchJob(FullSpdeSolver(cfg.L, cfg.n_fine, spec), spde, path)])[0]
    mean_err, var_err = [], []
    for k, h in enumerate(sorted(hs, reverse=True)):
        M = int(round(cfg.L / h))
        setup = build_setup(replace(cfg, M=M))
        model = DiscreteModel("holistic", coeffs=setup.coeffs,
                              deviation_alpha=cfg.deviation_alpha)
        U = []
        for lo in range(0, R, chunk_size or R):
            members = range(lo, min(lo + (chunk_size or R), R))
            drivers = models.build_drivers(
                setup.grid, setup.proj, path[lo:members.stop],
                member_seeds(cfg.master_seed, members, 3 * k + 4), spde.dt)
            try:
                U.append(simulate_models([model], spde, drivers)[-1, 0])
            except NumericalAbort as exc:
                exc.member += lo
                raise
        U = np.concatenate(U, axis=-1)
        uref = harness.at_grid_points(ref, M)
        mean_err.append(np.sqrt(np.mean(np.mean(U - uref, axis=1) ** 2)))
        var_err.append(np.sqrt(np.mean((np.var(U, axis=1, ddof=1)
                                        - np.var(uref, axis=1, ddof=1)) ** 2)))
    mean_gap, var_gap = np.asarray(mean_err), np.asarray(var_err)
    return {"mean_gap": mean_gap, "var_gap": var_gap, "combined": mean_gap + var_gap}


@pytest.mark.parametrize("workers, groups", [(1, [4, 4, 2]), (2, [4, 4, 2]), (8, [4, 4, 2])])
def test_grouped_weak_h_matches_whole_batch_oracle(monkeypatch, solver_pool, workers, groups):
    # 10 members in chunks of 4, 4 and 2, one model call per chunk at every pool width
    cfg = RunConfig(**{**FAST, "ensemble": 10})
    want = serial_weak_h(cfg, WEAK_H)
    sizes, widths, build, simulate = [], [], models.build_drivers, harness.simulate_models
    monkeypatch.setattr(models, "build_drivers",
                        lambda grid, proj, path, *a, **kw:
                        sizes.append(len(path)) or build(grid, proj, path, *a, **kw))
    monkeypatch.setattr(harness, "simulate_models",
                        lambda models, spde, drivers: widths.append(drivers.slow.shape[-1])
                        or simulate(models, spde, drivers))
    with solver_pool(workers):
        got = convergence_study(cfg, "weak-h", WEAK_H).metrics
    assert sizes == [4, 4, 2] * len(WEAK_H)
    assert widths == groups * len(WEAK_H)
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def plant_member_blowups(monkeypatch, plants):
    """Make member m's driver tables non-finite at step i for each (m, i) in
    `plants`, in whatever batch or group it is built: the member is read from
    its deviation seed's spawn key, not from the call order."""
    build = models.build_drivers

    def planted(grid, proj, path, deviation_seeds, dt):
        drivers = build(grid, proj, path, deviation_seeds, dt)
        for col, ss in enumerate(deviation_seeds):
            for step in [i for m, i in plants if m == ss.spawn_key[0]]:
                for table in (drivers.slow, drivers.gridpoint, drivers.deviation):
                    table[:, step, col] = np.inf
        return drivers

    monkeypatch.setattr(models, "build_drivers", planted)


@pytest.mark.parametrize("plants, want", [
    ([(3, 6), (9, 2)], (6, 3)),       # the earlier chunk, though a later one aborts earlier
    ([(9, 4), (5, 4)], (4, 5)),       # both at one step: the earlier chunk
    ([(3, 6), (5, 2)], (6, 3)),       # the same, with the later chunk the next one
], ids=["later-group-earlier-step", "same-step", "later-chunk-earlier-step"])
def test_grouped_weak_h_abort_is_the_serial_loops(monkeypatch, solver_pool, plants, want):
    # chunks of members 0-3, 4-7 and 8-9, on pools of one and two workers
    cfg = RunConfig(**{**FAST, "ensemble": 10})
    plant_member_blowups(monkeypatch, plants)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalAbort) as oracle:
            serial_weak_h(cfg, WEAK_H, cfg.chunk_size)
        assert (oracle.value.step, oracle.value.member) == want
        for workers in (1, 2):
            with solver_pool(workers), pytest.raises(NumericalAbort) as err:
                convergence_study(cfg, "weak-h", WEAK_H)
            assert (err.value.step, err.value.member, err.value.seed) == want + (cfg.master_seed,)
            assert str(err.value) == str(oracle.value)


def test_grouped_weak_h_holds_one_group_of_tables(solver_pool):
    # 32 members in 8 chunks of 4 on two workers; tracemalloc counts numpy's buffers
    cfg = RunConfig(**{**FAST, "ensemble": 32, "T": 0.1})

    def traced_peak(study):
        tracemalloc.start()
        try:
            study(cfg, WEAK_H)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with solver_pool(2):
        harness._study_weak_h(cfg, WEAK_H)           # one-time allocations, untraced
        got = traced_peak(harness._study_weak_h)
        want = traced_peak(serial_weak_h)
    finest_tables = 3 * 16 * cfg.spde().n_steps * cfg.ensemble * 8
    assert got <= want - finest_tables / 2, (got, want, finest_tables)


def test_resume_recomputes_only_a_missing_chunk(tmp_path, monkeypatch):
    cfg = RunConfig(**{**GROUPED, "ensemble": 16})
    fresh = run_ensemble(cfg)
    run_ensemble(cfg, out_dir=tmp_path)
    cache = sorted((tmp_path / f"members_{cfg.digest()}").glob("chunk_*.npz"))
    assert len(cache) == 4
    cache[2].unlink()
    mtimes = {p: p.stat().st_mtime_ns for p in cache if p.exists()}
    sampled, sample = [], harness.sample_global_path
    monkeypatch.setattr(harness, "sample_global_path",
                        lambda *a: sampled.append(a) or sample(*a))
    resumed = run_ensemble(cfg, out_dir=tmp_path)
    assert len(sampled) == 1 and cache[2].exists()
    assert {p: p.stat().st_mtime_ns for p in mtimes} == mtimes
    assert_same_stats(resumed, fresh)


def test_sigma_zero_models_identical_in_report():
    cfg = RunConfig(**{**FAST, "sigma": 0.0, "ensemble": 2})
    report = compare_models(cfg)
    assert report["sigma_zero_models_identical"]
    gap = report["models"]["holistic"]["pathwise_gap_mean"]
    assert gap is not None


def test_compare_report_regenerates_identically():
    cfg = RunConfig(**{**FAST, "ensemble": 4})
    assert compare_models(cfg) == compare_models(cfg)


def test_convergence_lambda0_and_expansion_orders():
    cfg = RunConfig(**FAST)
    tab = convergence_study(cfg, "lambda0", values=(0.02, 0.01, 0.005))
    assert tab.orders["lambda_slow_top"] == pytest.approx(2.0, abs=0.1)
    tab2 = convergence_study(cfg, "expansion", values=(0.2, 0.1, 0.05))
    assert tab2.orders["remainder"] == pytest.approx(3.0, abs=0.3)


def test_convergence_coeff_h_orders():
    cfg = RunConfig(**FAST)
    tab = convergence_study(cfg, "coeff-h", values=(1.0, 0.5, 0.25, 0.125))
    # frozen-intensity family: the linear-coefficient gap is exactly quadratic,
    # the deviation variance follows its closed-form seventh-power scaling
    assert tab.orders["hat_alpha_gap"] == pytest.approx(2.0, abs=1e-6)
    assert tab.orders["qj"] == pytest.approx(7.0, abs=0.05)


def test_convergence_study_validation():
    cfg = RunConfig(**FAST)
    with pytest.raises(ConfigError):
        convergence_study(cfg, "lambda0", values=(0.1, 0.05))
    with pytest.raises(ConfigError):
        convergence_study(cfg, "unknown-study", values=(1, 2, 3))
    dt_sweep = RunConfig(**{**FAST, "sweep_axis": "dt", "sweep_values": (0.1, 0.05, 0.025)})
    with pytest.raises(ConfigError):
        convergence_study(dt_sweep, "lambda0")


def test_rows_align_with_values():
    cfg = RunConfig(**FAST)
    tab = convergence_study(cfg, "lambda0", values=(0.02, 0.01, 0.005))
    rows = tab.rows()
    assert [r["value"] for r in rows] == [0.02, 0.01, 0.005]
    assert all("lambda_slow_top" in r for r in rows)


def test_write_csv_and_manifest_regenerate_bitwise(tmp_path):
    cfg = RunConfig(**FAST)
    p1 = write_csv(tmp_path / "a.csv", ["x", "y"], [(1, 2.0), (3, 4.5)])
    m1 = write_manifest(cfg, tmp_path)
    b1 = p1.read_bytes()
    j1 = m1.read_bytes()
    write_csv(tmp_path / "a.csv", ["x", "y"], [(1, 2.0), (3, 4.5)])
    write_manifest(cfg, tmp_path)
    assert p1.read_bytes() == b1
    assert m1.read_bytes() == j1
    header = p1.read_text().splitlines()[0]
    assert header == "x,y"
    manifest = json.loads(j1)
    assert manifest["config_digest"] == cfg.digest()
    assert "numpy" in manifest["versions"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_cfg(tmp_path, **overrides):
    cfg = RunConfig(**{**FAST, **overrides})
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return path


def test_cli_coeffs_and_simulate(tmp_path):
    cfgp = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["--config", str(cfgp), "--out", str(out), "coeffs"]) == 0
    assert (out / "coeffs.csv").exists()
    assert (out / "manifest.json").exists()
    assert cli_main(["--config", str(cfgp), "--out", str(out), "simulate"]) == 0
    csvs = list(out.glob("trajectory_*.csv"))
    assert csvs and csvs[0].read_text().startswith("t,U_1")


def test_cli_simulate_is_ensemble_member_zero(tmp_path):
    # each grid model kind steps as itself, gamma_reduced too
    for kind in models.MODEL_KINDS:
        cfg = RunConfig(**{**FAST, "gamma": 0.5, "ensemble": 1, "model_kinds": (kind,)})
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(cfg.to_json(), encoding="utf-8")
        out = tmp_path / kind
        assert cli_main(["--config", str(cfgp), "--out", str(out), "simulate"]) == 0
        assert [p.name for p in out.glob("trajectory_*.csv")] == [f"trajectory_{kind}.csv"]
        lines = (out / f"trajectory_{kind}.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows[-1, 0] == pytest.approx(cfg.T)
        assert np.array_equal(rows[-1, 1:], run_ensemble(cfg).mean(kind)), kind


def test_cli_simulate_keeps_final_time(tmp_path):
    # 4001 steps are written with stride 2, so T is not on the stride
    cfg = RunConfig(**{**FAST, "dt": 1e-4, "T": 0.4001, "ensemble": 1,
                       "model_kinds": ("holistic",)})
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(cfg.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["--config", str(cfgp), "--out", str(out), "simulate"]) == 0
    lines = (out / "trajectory_holistic.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows[-1, 0] == pytest.approx(cfg.T)
    assert np.array_equal(rows[-1, 1:], run_ensemble(cfg).mean("holistic"))


def test_cli_eig_sweep(tmp_path):
    cfgp = _write_cfg(tmp_path, kmax=6)
    out = tmp_path / "out"
    rc = cli_main(["--config", str(cfgp), "--out", str(out),
                   "--sweep", "gamma=0.0,0.5,1.0", "eig-sweep"])
    assert rc == 0
    lines = (out / "eig_sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma,k,lambda,multiplicity,residual"
    assert len(lines) == 1 + 3 * 6


def test_cli_converge_expansion(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = cli_main(["--config", str(cfgp), "--out", str(out),
                   "--sweep", "gamma=0.2,0.1,0.05", "converge", "--study", "expansion"])
    assert rc == 0
    assert "fitted order" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 1}', encoding="utf-8")
    assert cli_main(["--config", str(bad), "coeffs"]) == 2
    assert cli_main(["--config", str(tmp_path / "missing.json"), "coeffs"]) == 2
    cfgp = _write_cfg(tmp_path)
    assert cli_main(["--config", str(cfgp), "--sweep", "bogus", "coeffs"]) == 2
    assert cli_main(["--config", str(cfgp), "--out", str(tmp_path / "out"),
                     "--sweep", "dt=0.1,0.05,0.025", "converge", "--study", "lambda0"]) == 2
    # sweep values off their axis, and values or metrics an order fit cannot use
    for argv in (["--sweep", "gamma=1.5,1.2,1.1", "eig-sweep"],
                 ["--sweep", "gamma=1.5,1.2,1.1", "converge", "--study", "lambda0"],
                 ["--sweep", "gamma=2,3,4", "converge", "--study", "coupling-gap"],
                 ["--sweep", "h=0,-1,2", "converge", "--study", "coeff-h"],
                 ["--sweep", "gamma=0,0.5,1", "converge", "--study", "lambda0"],
                 ["--sweep", "gamma=0,0.5,1", "converge", "--study", "expansion"],
                 ["--sweep", "gamma=0.2,0.1,0.2", "converge", "--study", "lambda0"],
                 ["--sweep", "gamma=0.25,0.5,1", "converge", "--study", "expansion"],
                 ["--sweep", "gamma=1e-12,1e-11,1e-10", "converge", "--study", "lambda0"]):
        assert cli_main(["--config", str(cfgp), "--out", str(tmp_path / "out")] + argv) == 2
        assert "config error: " in capsys.readouterr().err
    cases = [({"initial": {"kind": "bogus"}}, "simulate"),
             ({"initial": {"kind": "mix"}}, "simulate"),
             ({"n_levels": 0}, "coeffs"),
             ({"kmax": 0}, "eig-sweep"),
             ({"q_list": [1.0] * 16}, "coeffs"),
             ({"chunk_size": 0}, "compare"),
             ({"T": 1e-9}, "compare"),
             ({"ensemble": 1}, "compare")]
    for override, verb in cases:
        bad.write_text(json.dumps({**json.loads(RunConfig(**FAST).to_json()), **override}),
                       encoding="utf-8")
        assert cli_main(["--config", str(bad), "--out", str(tmp_path / "out"), verb]) == 2


def test_cli_coeff_h_grid_beyond_the_element_bound_exits_2(tmp_path, capsys, monkeypatch):
    # h = 3e-5 would freeze a grid of about 2e5 elements and a 1.9 GB noise basis
    def no_huge_grid(L, M, subgrid_n):
        assert M <= RunConfig(**FAST).n_fine // 4, f"built a grid of {M} elements"
        return build_grid(L, M, subgrid_n)

    monkeypatch.setattr(harness, "build_grid", no_huge_grid)
    cfgp = _write_cfg(tmp_path)
    assert cli_main(["--config", str(cfgp), "--out", str(tmp_path / "out"),
                     "--sweep", "h=1e-5,2e-5,3e-5", "converge", "--study", "coeff-h"]) == 2
    err = capsys.readouterr().err
    assert "config error: coeff-h spacing h=3e-05 needs 209440 elements" in err


@pytest.mark.parametrize("override, sweep", [
    ({"M": "8"}, None),
    ({"T": "1"}, None),
    ({"ensemble": 2.5}, None),
    ({}, "gamma=a,b,c"),
    (None, None),                   # the config path is a directory
    ({"dt": float("nan")}, None),
    ({"M": 0}, None),
    ({"master_seed": -1}, None),
    ({}, "gamma=1.5,1.2,1.1"),
    ({}, "h=0,-1,2"),
    ({"dt": 1e-320}, None),         # T / dt overflows to inf
    ({"dt": 1e-12, "ensemble": 4}, None),
    ({"subgrid_n": 7}, None),
    ({"n_modes": 1}, None),
    ({"decay_r": 1.5}, None),
    ({"dt": -1}, None),
    ({"T": -1}, None),
    ({"initial": {"kind": "sine", "amplitude": 0.3, "mode": 1, "phase": 0.0}}, None),
    ({"ensemble": 0}, None),
    ({"n_fine": 16}, None),         # below 4 M
    ({"n_fine": 1020}, None),       # not a multiple of M = 8
    ({"sweep_axis": "foo", "sweep_values": [1.0, 2.0, 3.0]}, None),
    ({"sweep_axis": "gamma", "sweep_values": [0.1, 0.2]}, None),
    ([1, 2, 3], None),              # a JSON list, not an object
], ids=["int-as-string", "float-as-string", "fractional-int", "sweep-value", "directory",
        "nan", "zero-elements", "negative-seed", "gamma-above-one", "h-not-positive",
        "step-count-not-finite", "path-exceeds-memory", "odd-subgrid", "one-noise-mode",
        "slow-decay", "negative-dt", "negative-T", "initial-extra-key", "empty-ensemble",
        "fine-grid-too-coarse", "fine-grid-off-M", "unknown-sweep-axis", "two-value-sweep",
        "json-list"])
def test_cli_config_errors_exit_2(tmp_path, capsys, override, sweep):
    cfgp = tmp_path
    if override is not None:
        cfgp = tmp_path / "cfg.json"
        payload = override if isinstance(override, list) else {**RunConfig(**FAST).to_dict(),
                                                                **override}
        cfgp.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["--config", str(cfgp), "--out", str(tmp_path / "out")]
    argv += ["--sweep", sweep] if sweep else []
    for verb in ("compare", "simulate"):
        assert cli_main(argv + [verb]) == 2
        assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("verb", [
    ["compare"],
    ["--sweep", f"h={np.pi / 2},{np.pi / 4},{np.pi / 8}", "converge", "--study", "weak-h"],
    ["--sweep", "gamma=0.9,0.99,1", "converge", "--study", "coupling-gap"],
    ["simulate"],
], ids=["compare", "weak-h", "coupling-gap", "simulate"])
def test_cli_abort_names_step_member_and_seed(tmp_path, capsys, verb):
    cfgp = _write_cfg(tmp_path, ensemble=2, initial={"kind": "constant", "amplitude": 1e200})
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "out")] + verb)
    assert rc == 3
    err = capsys.readouterr().err
    assert "step=0, member=0, seed=2024" in err


@pytest.mark.parametrize("verb", [["eig-sweep"], ["expansion-check"]])
def test_cli_eigensolve_failure_exits_3(tmp_path, capsys, monkeypatch, verb):
    # one sweep converges no pair on the FAST grid: an abort naming the
    # solve, not a traceback
    monkeypatch.setattr(spectral, "_MAX_SWEEPS", 1)
    rc = cli_main(["--config", str(_write_cfg(tmp_path)), "--out", str(tmp_path / "out")] + verb)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical abort: eigensolve failed at gamma=")
    assert "(M, n)=(8, 16), kmax=" in err and "no convergence in 1 sweeps" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def fast_cfg_path(tmp_path_factory):
    return _write_cfg(tmp_path_factory.mktemp("main"))


_CHEAP_VERBS = [["coeffs"], ["eig-sweep"], ["expansion-check"],
                ["converge", "--study", "lambda0"], ["converge", "--study", "expansion"],
                ["converge", "--study", "coeff-h"]]
# about half the values are valid for every axis, the others for none or only some
_SWEEPS = st.none() | st.tuples(
    st.sampled_from(["gamma", "h", "dt", "x"]),
    st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.5, 1.0]) | st.sampled_from([-1.0, 0.0, 1e-9, 2.0]),
             min_size=3, max_size=4))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_SWEEPS, st.sampled_from(_CHEAP_VERBS))
@example(("gamma", [1.5, 1.2, 1.1]), ["eig-sweep"])
@example(("gamma", [2.0, 3.0, 4.0]), ["converge", "--study", "lambda0"])
@example(("h", [0.0, -1.0, 2.0]), ["converge", "--study", "coeff-h"])
@example(("gamma", [0.0, 0.5, 1.0]), ["converge", "--study", "expansion"])
@example(("gamma", [0.2, 0.1, 0.05]), ["converge", "--study", "expansion"])
@example(("h", [1.0, 0.5, 0.25]), ["converge", "--study", "coeff-h"])
def test_cli_main_exits_0_2_or_3(fast_cfg_path, sweep, verb):
    # the exit-code contract: success, config error or numerical abort, never
    # an exit 1 or an escaping exception, whatever the sweep
    argv = ["--config", str(fast_cfg_path), "--out", str(fast_cfg_path.parent / "out")]
    if sweep is not None:
        argv += ["--sweep", f"{sweep[0]}=" + ",".join(map(repr, sweep[1]))]
    assert cli_main(argv + verb) in (0, 2, 3)


# values of the wrong type, non-finite or not positive: a field that takes one
# either rejects it or stays as cheap as FAST, so no drawn config runs long or
# allocates much (a tiny dt or a huge ensemble would)
_BAD_SCALARS = (st.none() | st.booleans() | st.integers(-3, 0)
                | st.sampled_from([float("nan"), float("inf"), -1.5, 0.0])
                | st.text(max_size=3) | st.sampled_from(["gamma", "h", "sine", "zero", "holistic"]))
_BAD_VALUES = (_BAD_SCALARS | st.lists(_BAD_SCALARS, max_size=4)
               | st.dictionaries(st.sampled_from(["kind", "amplitude", "mode", "x"]), _BAD_SCALARS,
                                 max_size=3))
_BAD_FIELDS = st.sampled_from(sorted(OTHER_VALUES)).flatmap(
    lambda k: st.tuples(st.just(k), st.just(OTHER_VALUES[k]) | _BAD_VALUES))

# a config file: FAST with up to three fields redrawn or unknown keys added, or
# text that is no config object; the argv around it adds a missing or a
# directory config, an output path on a file, bad flags, values and verbs
_CONFIG_TEXTS = (
    st.lists(_BAD_FIELDS | st.tuples(st.sampled_from(["x", "M ", "verb"]), _BAD_VALUES),
             max_size=3)
    .map(lambda kv: json.dumps({**RunConfig(**FAST).to_dict(), **dict(kv)}))
    | st.sampled_from(["", "{", "[1, 2]", "null", '"M"', "{\"M\": }", "\ufeff{}"])
)
_CONFIG_ARGS = st.sampled_from([["--config", "cfg.json"], ["--config", "missing.json"],
                                ["--config", "."], []])
_OPTION_ARGS = st.lists(st.sampled_from([["--out", "out"], ["--out", "cfg.json"],
                                         ["--seed", "3"], ["--seed", "-1"], ["--seed", "x"],
                                         ["--sweep", "h=1,0.5,0.25"], ["--sweep", "gamma"],
                                         ["--bogus"], ["--seed"]]), max_size=2)
_VERB_ARGS = st.sampled_from([["coeffs"], ["simulate"], ["bogus"], [], ["converge"],
                              ["converge", "--study", "nope"], ["coeffs", "extra"]])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_CONFIG_TEXTS, _CONFIG_ARGS, _OPTION_ARGS, _VERB_ARGS)
@example(RunConfig(**FAST).to_json(), ["--config", "cfg.json"], [["--out", "cfg.json"]],
         ["coeffs"])
@example(RunConfig(**FAST).to_json(), ["--config", "cfg.json"], [["--seed", "x"]], ["bogus"])
@example(RunConfig(**FAST).to_json(), ["--config", "cfg.json"], [["--seed", "3"]], ["simulate"])
@example('{"L": 1e-300}', ["--config", "cfg.json"], [], ["compare"])
@example('{"L": 1e300}', ["--config", "cfg.json"], [], ["compare"])
def test_cli_main_never_exits_1(tmp_path_factory, text, config, options, verb):
    # bad argv or config JSON is exit 2, never exit 1 or an escaping exception
    work = tmp_path_factory.mktemp("argv")
    (work / "cfg.json").write_text(text, encoding="utf-8")
    argv = config + sum(options, []) + verb
    cwd = os.getcwd()
    os.chdir(work)              # without --out the verbs write to ./out
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
    finally:
        os.chdir(cwd)
    assert rc in (0, 2, 3)


def test_term_budget_deviation_rate_carries_alpha():
    cfg = RunConfig(**{**FAST, "alpha": 2.0})
    rate = [np.asarray(_holistic_term_budget(replace(cfg, deviation_alpha=flag))
                       ["deviation_variance_rate_unit_U"]) for flag in (False, True)]
    assert np.all(rate[0] > 0.0)
    assert np.array_equal(rate[1], 4.0 * rate[0])


def test_cli_seed_override_changes_digest(tmp_path):
    cfgp = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli_main(["--config", str(cfgp), "--out", str(out1), "--seed", "1", "coeffs"])
    cli_main(["--config", str(cfgp), "--out", str(out2), "--seed", "2", "coeffs"])
    d1 = json.loads((out1 / "manifest.json").read_text())["config_digest"]
    d2 = json.loads((out2 / "manifest.json").read_text())["config_digest"]
    assert d1 != d2
