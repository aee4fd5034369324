import gc
import itertools
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holisde import harness, models, noise
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
    member_streams,
    run_ensemble,
    write_csv,
    write_manifest,
)
from holisde.dynamics import NumericalAbort, initial_profile
from holisde.grid import build_grid
from holisde.models import DiscreteModel, build_drivers, simulate_models
from holisde.noise import NoisePath, sample_global_path

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
    path_seeds, deviation_seeds = member_streams(member_seeds(cfg.master_seed, 1))
    path = sample_global_path(setup.spec, spde.times(), path_seeds)
    drivers = build_drivers(setup.grid, setup.proj, path, deviation_seeds)
    U0 = initial_profile(cfg.initial, setup.grid.L)(setup.grid.grid_points)
    traj = simulate_models([DiscreteModel("holistic", coeffs=setup.coeffs)], spde, drivers,
                           U0[:, None])[0]
    assert np.array_equal(stats.mean("holistic"), traj.states[-1][:, 0])


def _member_oracle(setup, times, ss, inc=None):
    """One member's path increments (unless given), slow, gridpoint and deviation
    tables and deviation seed, drawn and mapped on its own with fresh temporaries."""
    (path_ss,), (dev_ss,) = member_streams([ss])
    sqrt_dt = np.sqrt(np.diff(times))[None, :]
    if inc is None:
        inc = np.random.default_rng(path_ss).standard_normal((setup.spec.n_modes, times.size - 1))
        inc = inc * sqrt_dt
    dev = np.random.default_rng(dev_ss).standard_normal((setup.grid.M, times.size - 1)) * sqrt_dt
    return inc, setup.proj.slow_map @ inc, setup.proj.gridpoint_map @ inc, dev, dev_ss


def test_batch_driver_columns_are_member_tables():
    cfg = RunConfig(**{**FAST, "T": 0.2})    # 200 steps: 38,400 B of tables per member
    setup = build_setup(cfg)
    times = cfg.spde().times()
    M, n = setup.grid.M, times.size - 1
    per_block = models._SCRATCH_BYTES // (3 * M * n * 8)
    assert 2 * per_block < 30 < 3 * per_block    # two whole scratch blocks and a remainder
    for R, given in itertools.product((1, 3, 30), (False, True)):
        path_seeds, deviation_seeds = member_streams(member_seeds(cfg.master_seed, R))
        path = sample_global_path(setup.spec, times, [100 + r for r in range(R)] if given
                                  else path_seeds)
        with pytest.raises(ValueError):
            build_drivers(setup.grid, setup.proj, path, deviation_seeds[1:])
        drivers = build_drivers(setup.grid, setup.proj, path, deviation_seeds)
        tables = [drivers.slow, drivers.gridpoint, drivers.deviation]
        assert all(t.shape == (M, n, R) for t in tables)
        assert path.increments.shape == (R, setup.spec.n_modes, n)
        assert path.increments.flags.c_contiguous
        for a, b in itertools.combinations(tables + [path.increments], 2):
            assert not np.shares_memory(a, b)
        # fresh seed trees: member_streams advances a tree's spawn counter
        for r, ss in enumerate(member_seeds(cfg.master_seed, R)):
            inc, slow, gridpoint, dev, dev_ss = _member_oracle(
                setup, times, ss, path.increments[r] if given else None)
            assert np.array_equal(path.increments[r], inc)
            for table, want in zip(tables, (slow, gridpoint, dev)):
                assert np.array_equal(table[..., r], want)
            one = build_drivers(setup.grid, setup.proj,      # a batch of one
                                NoisePath(times, path.increments[r:r + 1]), [dev_ss])
            for name, want in zip(("slow", "gridpoint", "deviation"), (slow, gridpoint, dev)):
                assert np.array_equal(getattr(one, name)[..., 0], want)


def test_member_replay_is_bitwise(tmp_path):
    cfg = RunConfig(**FAST)
    stats1 = run_ensemble(cfg)
    stats2 = run_ensemble(cfg)
    for name in stats1.observables:
        assert np.array_equal(stats1.mean(name), stats2.mean(name))


def test_gamma_reduced_at_full_coupling_matches_holistic():
    # at gamma = 1 the truncated gamma-expanded model is the holistic model
    cfg = RunConfig(**{**FAST, "gamma": 1.0, "model_kinds": ("holistic", "gamma_reduced")})
    stats = run_ensemble(cfg)
    assert np.array_equal(stats.mean("holistic"), stats.mean("gamma_reduced"))
    assert np.array_equal(stats.var("holistic"), stats.var("gamma_reduced"))


def test_abort_names_step_member_and_seed():
    for kinds in (FAST["model_kinds"], ("reference",)):
        cfg = RunConfig(**{**FAST, "model_kinds": kinds,
                           "initial": {"kind": "constant", "amplitude": 1e200}})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalAbort) as err:
            run_ensemble(cfg)
        assert err.value.step == 0
        assert err.value.member == 0
        assert err.value.seed == cfg.master_seed


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
    seeds = member_seeds(cfg.master_seed, cfg.ensemble)
    samples = {}
    for lo in range(0, cfg.ensemble, cfg.chunk_size):
        chunk = seeds[lo : lo + cfg.chunk_size]
        path_seeds, deviation_seeds = member_streams(chunk)
        path = sample_global_path(setup.spec, spde.times(), path_seeds)
        drivers = build_drivers(setup.grid, setup.proj, path, deviation_seeds)
        trajs = simulate_models(grid_models, spde, drivers,
                                np.repeat(U0[:, None], len(chunk), axis=1))
        out = {k: traj.states[-1] for k, traj in zip(kinds, trajs)}
        fine = harness.reference_grid_values(setup.grid.L, setup.spec, path, spde, cfg.n_fine)
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
    # one chunk per worker: on two CPUs groups of 2 and 1 chunks, then 1 + 1 + 1, then all 3
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


def plant_blowups(monkeypatch, reference=(), model=()):
    """Blow up members once their chunk's driver tables are built: (chunk,
    member, step) in `reference` scales that step's path increments by 1e200,
    which only the reference reads from then on, so its cube overflows a step
    later; in `model`, it makes the tables non-finite at that step."""
    build, chunks = models.build_drivers, itertools.count()

    def planted(grid, proj, path, deviation_seeds):
        drivers, chunk = build(grid, proj, path, deviation_seeds), next(chunks)
        for member, step in [(m, i) for c, m, i in reference if c == chunk]:
            path.increments[member, :, step] *= 1e200
        for member, step in [(m, i) for c, m, i in model if c == chunk]:
            for table in (drivers.slow, drivers.gridpoint, drivers.deviation):
                table[:, step, member] = np.inf
        return drivers

    monkeypatch.setattr(models, "build_drivers", planted)


@pytest.mark.parametrize("reference, model, want", [
    ([(1, 2, 5)], [], (6, 4 + 2, "reference")),              # the second chunk of a group
    ([(0, 3, 5)], [(1, 1, 2)], (6, 3, "reference")),         # chunk 0's reference comes first
    ([(1, 3, 1)], [(1, 1, 4)], (4, 4 + 1, "model")),         # a chunk's models, then its reference
], ids=["second-chunk", "earlier-chunk-reference", "models-first"])
def test_grouped_abort_is_the_serial_loops(monkeypatch, solver_pool, reference, model, want):
    cfg = RunConfig(**GROUPED)
    plant_blowups(monkeypatch, reference, model)
    with solver_pool(2), np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalAbort) as err:
        run_ensemble(cfg)
    step, member, solve = want
    assert (err.value.step, err.value.member, err.value.seed) == (step, member, cfg.master_seed)
    assert solve in str(err.value)


@pytest.mark.parametrize("reference, model, chunk", [
    ([(0, 1, 5)], [], 0), ([(1, 1, 5)], [], 1), ([], [(2, 1, 5)], 2), ([(3, 1, 5)], [], 3),
])
def test_abort_flushes_every_chunk_before_it(tmp_path, monkeypatch, solver_pool,
                                            reference, model, chunk):
    # four chunks in groups (0, 1) and (2, 3)
    cfg = RunConfig(**{**GROUPED, "ensemble": 16})
    run_ensemble(cfg, out_dir=tmp_path / "clean")
    plant_blowups(monkeypatch, reference, model)
    with solver_pool(2), np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericalAbort) as err:
        run_ensemble(cfg, out_dir=tmp_path / "aborted")
    assert err.value.member == chunk * cfg.chunk_size + 1
    flushed = sorted(p.name for p in (tmp_path / "aborted" / f"members_{cfg.digest()}").iterdir())
    assert flushed == [f"chunk_{c:04d}.npz" for c in range(chunk)]
    for name in flushed:
        with np.load(tmp_path / "aborted" / f"members_{cfg.digest()}" / name) as got, \
                np.load(tmp_path / "clean" / f"members_{cfg.digest()}" / name) as want:
            assert got.files == want.files
            assert all(np.array_equal(got[k], want[k]) for k in want.files)


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
    cfg = RunConfig(**{**FAST, "ensemble": 1, "model_kinds": ("holistic",)})
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(cfg.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert cli_main(["--config", str(cfgp), "--out", str(out), "simulate"]) == 0
    lines = (out / "trajectory_holistic.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert rows[-1, 0] == pytest.approx(cfg.T)
    assert np.array_equal(rows[-1, 1:], run_ensemble(cfg).mean("holistic"))


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
             ({"n_levels": 0}, "coeffs"),
             ({"kmax": 0}, "eig-sweep"),
             ({"q_list": [1.0] * 16}, "coeffs"),
             ({"chunk_size": 0}, "compare")]
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
], ids=["int-as-string", "float-as-string", "fractional-int", "sweep-value", "directory",
        "nan", "zero-elements", "negative-seed", "gamma-above-one", "h-not-positive"])
def test_cli_config_errors_exit_2(tmp_path, capsys, override, sweep):
    cfgp = tmp_path
    if override is not None:
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({**RunConfig(**FAST).to_dict(), **override}), encoding="utf-8")
    argv = ["--config", str(cfgp), "--out", str(tmp_path / "out")]
    argv += ["--sweep", sweep] if sweep else []
    assert cli_main(argv + ["compare"]) == 2
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
