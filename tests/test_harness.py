import gc
import itertools
import json
import warnings

import numpy as np
import pytest

from holisde import models, noise
from holisde.cli import main as cli_main
from holisde.harness import (
    _load_chunk,
    ConfigError,
    RunConfig,
    batch_driver_tables,
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


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"not_a_key": 1})


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError):
        RunConfig.from_json("{broken")


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
    ss = member_seeds(cfg.master_seed, 1)[0]
    path_ss, dev_ss, _ = member_streams(ss)
    path = sample_global_path(setup.spec, spde.times(), path_ss)
    drivers = build_drivers(setup.grid, setup.proj, path, dev_ss)
    U0 = initial_profile(cfg.initial, setup.grid.L)(setup.grid.grid_points)
    traj = simulate_models([DiscreteModel("holistic", coeffs=setup.coeffs)], spde, drivers, U0)[0]
    assert np.array_equal(stats.mean("holistic"), traj.states[-1])


def _member_oracle(setup, times, ss, path=None):
    """One member's path increments, slow, gridpoint and deviation tables and
    deviation seed, drawn and mapped on its own with fresh temporaries."""
    path_ss, dev_ss, _ = member_streams(ss)
    sqrt_dt = np.sqrt(np.diff(times))[None, :]
    if path is None:
        inc = np.random.default_rng(path_ss).standard_normal((setup.spec.n_modes, times.size - 1))
        inc = inc * sqrt_dt
    else:
        inc = path.increments
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
        given_paths = ([sample_global_path(setup.spec, times, 100 + r) for r in range(R)]
                       if given else None)
        drivers, paths = batch_driver_tables(setup, member_seeds(cfg.master_seed, R), times,
                                             paths=given_paths)
        tables = [drivers.slow, drivers.gridpoint, drivers.deviation]
        assert all(t.shape == (M, n, R) for t in tables)
        if not given:   # sampled paths are the rows of one whole-batch buffer
            buf = paths[0].increments.base
            assert buf.shape == (R, setup.spec.n_modes, n)
            assert all(p.increments.base is buf for p in paths)
        for a, b in itertools.combinations(tables + [p.increments for p in paths], 2):
            assert not np.shares_memory(a, b)
        # fresh seed trees: member_streams advances a tree's spawn counter
        for r, ss in enumerate(member_seeds(cfg.master_seed, R)):
            inc, slow, gridpoint, dev, dev_ss = _member_oracle(
                setup, times, ss, given_paths[r] if given else None)
            assert np.array_equal(paths[r].increments, inc)
            for table, want in zip(tables, (slow, gridpoint, dev)):
                assert np.array_equal(table[..., r], want)
            one = build_drivers(setup.grid, setup.proj, paths[r], dev_ss)   # a batch of one
            for name, want in zip(("slow", "gridpoint", "deviation"), (slow, gridpoint, dev)):
                assert np.array_equal(getattr(one, name), want)


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


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 1}', encoding="utf-8")
    assert cli_main(["--config", str(bad), "coeffs"]) == 2
    assert cli_main(["--config", str(tmp_path / "missing.json"), "coeffs"]) == 2
    cfgp = _write_cfg(tmp_path)
    assert cli_main(["--config", str(cfgp), "--sweep", "bogus", "coeffs"]) == 2
    assert cli_main(["--config", str(cfgp), "--out", str(tmp_path / "out"),
                     "--sweep", "dt=0.1,0.05,0.025", "converge", "--study", "lambda0"]) == 2
    cases = [({"initial": {"kind": "bogus"}}, "simulate"),
             ({"n_levels": 0}, "coeffs"),
             ({"q_list": [1.0] * 16}, "coeffs"),
             ({"chunk_size": 0}, "compare")]
    for override, verb in cases:
        bad.write_text(json.dumps({**json.loads(RunConfig(**FAST).to_json()), **override}),
                       encoding="utf-8")
        assert cli_main(["--config", str(bad), "--out", str(tmp_path / "out"), verb]) == 2


def test_cli_seed_override_changes_digest(tmp_path):
    cfgp = _write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli_main(["--config", str(cfgp), "--out", str(out1), "--seed", "1", "coeffs"])
    cli_main(["--config", str(cfgp), "--out", str(out2), "--seed", "2", "coeffs"])
    d1 = json.loads((out1 / "manifest.json").read_text())["config_digest"]
    d2 = json.loads((out2 / "manifest.json").read_text())["config_digest"]
    assert d1 != d2
