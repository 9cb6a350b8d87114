import json
import os
import re

import numpy as np
import pytest

import epnls.cli
import epnls.sweep
from epnls.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPLETE,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
from epnls.config import ConfigError, parse_config, parse_config_text
from epnls.evolution import ModelParams, evolve_ep, evolve_nls, zero_state
from epnls.grid import EvenGrid, Grid, gaussian_initial
from epnls.sweep import config_hash

FAST_SWEEP_INI = """\
[grid]
N = 64
[sweep]
alphas = 0
epsilons = 1e-2,3e-3,1e-3
[solver]
T = 1.5
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- predict


def test_predict_prints_beta(capsys):
    assert main(["predict", "--alpha", "0", "--p", "3", "--model", "ep"]) == EXIT_OK
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header.startswith("alpha,beta,regime")
    cells = row.split(",")
    assert float(cells[1]) == pytest.approx(0.2)
    assert cells[2] == "exact"


def test_predict_json_regime_flag(capsys):
    assert main(["predict", "--alpha", "0.5", "--alpha", "0.1", "--json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["regime"] == "any-positive"
    assert rows[1]["regime"] == "exact"
    assert rows[1]["beta"] == pytest.approx(0.8 / 5)


def test_physics_defaults_are_the_model_params_defaults():
    params = ModelParams()
    sweep = parse_config_text("")
    predict = build_parser().parse_args(["predict", "--alpha", "0"])
    for name in ("p", "g", "gamma", "omega0"):
        assert getattr(sweep, name) == getattr(params, name)
    for name in ("p", "g", "gamma"):
        assert getattr(predict, name) == getattr(params, name)


def test_main_cached_parser_carries_nothing_between_runs(capsys, monkeypatch):
    # main builds its parser once per process: each run sees its own
    # arguments alone, and runs the cmd_<name> the module holds when it runs
    for alpha in (0.0, 0.1):
        assert main(["predict", "--alpha", str(alpha), "--json"]) == EXIT_OK
        assert [row["alpha"] for row in json.loads(capsys.readouterr().out)] == [alpha]
    calls = []

    def fake(args):
        calls.append((args.command, args.config, args.out))
        return EXIT_INCOMPLETE

    monkeypatch.setattr(epnls.cli, "cmd_sweep", fake)
    assert main(["sweep", "--out", "elsewhere"]) == EXIT_INCOMPLETE
    assert calls == [("sweep", None, "elsewhere")]
    assert build_parser() is not build_parser()


def test_predict_requires_alpha():
    with pytest.raises(SystemExit) as exc:
        main(["predict"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- lemma


def test_lemma_table(capsys):
    assert main(["lemma", "--eta", "0.1", "--delta", "0.5", "--json"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)
    assert row["y1"] == pytest.approx(0.5135435270201547, rel=1e-10)
    assert abs(row["residual_y1"]) < 1e-12


def test_lemma_no_roots(capsys):
    assert main(["lemma", "--eta", "1", "--delta", "1"]) == EXIT_NUMERICAL
    assert "no real roots" in capsys.readouterr().err


# ---------------------------------------------------------------- usage errors


@pytest.mark.parametrize("argv, named", [
    (["predict", "--alpha", "0", "--p", "0.5"], "p must exceed 1"),
    (["predict", "--alpha", "-1"], "alpha must be nonnegative"),
    (["lemma", "--eta", "-1", "--delta", "0.5"], "eta and delta must be nonnegative"),
    (["lemma", "--eta", "0.1", "--delta", "0.5", "--p", "1"], "p must exceed 1"),
    (["simulate", "--delta", "nan"], "--delta must be finite"),
    (["simulate", "--delta", "inf"], "--delta must be finite"),
    (["predict", "--alpha", "0", "--g", "nan"], "g must be finite, got nan"),
    (["predict", "--alpha", "0.1", "--M", "nan"], "M must be finite, got nan"),
    (["predict", "--alpha", "0.1", "--C2", "inf"], "C2 must be finite, got inf"),
    (["predict", "--alpha", "inf"], "alpha must be finite, got inf"),
], ids=["predict-p", "predict-alpha", "lemma-eta", "lemma-p", "simulate-nan",
        "simulate-inf", "predict-g-nan", "predict-M-nan", "predict-C2-inf",
        "predict-alpha-inf"])
def test_invalid_arguments_are_usage_errors(tmp_path, capsys, argv, named):
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- dispatch


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[physics]\np = 0.5\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "p must exceed 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    # a sweep samples every step, so T is a whole number of steps dt
    ("[solver]\ndt = 3e-3\n",
     "horizon T = 2.0 is not a positive multiple of the step size |dt| = 0.003"),
    ("[solver]\ndt = -1e-3\n", "dt must be positive"),
    # the sweep's clock is dt alone, uniform: no rate, and no growth
    ("[solver]\nsamples_per_unit_time = 30\n",
     "unknown key 'samples_per_unit_time' in section [solver]"),
    ("[solver]\nsample_growth = 0.03125\n",
     "unknown key 'sample_growth' in section [solver]"),
    # every sweep runs in the calling process: no worker count
    ("[solver]\nworkers = 2\n", "unknown key 'workers' in section [solver]"),
    ("[solver]\nT = 1.005\n", "horizon T = 1.005 is not a positive multiple of the step size"),
    ("[grid]\nn = 4\n", "dimension n must be 1, 2, or 3"),
    ("[grid]\nN = 64\nmax_points = 63\n", "exceeds the memory cap"),
    # one amplitude of 10 arrays of the 33 points N = 64 stores, alone or
    # with 5 further composite tolerances of 6 arrays, and room for one
    # crossing to re-step (20 arrays), and one point per curve for each of
    # the 21 samples of dt = 0.1 to T = 2
    ("[grid]\nN = 64\nmax_points = 100\n[sweep]\nalphas = 0\n",
     "needs 1011 points, which exceeds the memory cap of 100 points (with 21 samples "
     "per curve at dt = 0.1 to T = 2)"),
    ("[grid]\nN = 64\nmax_points = 1000\n[sweep]\ncomparator = composite\n",
     "needs 2106 points, which exceeds the memory cap of 1000 points"),
    # a clock far too fine for the cap is refused by arithmetic, before
    # any sample time is built: 20,001 samples of dt = 1e-5 to T = 0.2
    ("[physics]\nmodel = nls\n[grid]\nN = 16\nmax_points = 244\n[sweep]\nalphas = 0\n"
     "[solver]\ndt = 1e-5\n",
     "needs 20244 points, which exceeds the memory cap of 244 points (with 20001 "
     "samples per curve at dt = 1e-05 to T = 0.2)"),
    # an empty dir would write every output into the working directory
    ("[output]\ndir =\n", "outdir must name a directory"),
    # non-finite values are rejected by the object that owns each value
    ("[solver]\nT = inf\n", "horizon T = inf is not a positive multiple"),
    ("[sweep]\nalphas = nan\n", "alpha_set must be nonempty with finite alpha >= 0"),
    # a repeated alpha would fit its betas through coincident points
    ("[sweep]\nalphas = 0.1,0.1\n", "alpha_set must not repeat a value"),
    ("[physics]\ngamma = nan\n", "gamma must be finite, got nan"),
    ("[grid]\nL = inf\n", "half-width L must be positive and finite, got inf"),
    ("[physics]\np = inf\n", "p must be finite, got inf"),
    ("[sweep]\nepsilon_floor = nan\n", "epsilon_floor must be finite and nonnegative"),
], ids=["dt", "negative_dt", "samples_per_unit_time", "sample_growth", "workers", "T", "n",
        "max_points", "max_points_member", "max_points_composite", "max_points_samples",
        "empty_outdir", "T_inf", "alphas_nan", "alphas_repeat", "gamma_nan", "L_inf", "p_inf", "epsilon_floor_nan"])
def test_bad_solver_clock_or_grid_is_a_config_error(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)
    path = write_cfg(tmp_path, text)
    for command in ("simulate", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_out_under_a_regular_file_is_a_path_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"
    assert main(["simulate", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out) in err and "Traceback" not in err


def test_config_naming_a_directory_is_a_path_error(tmp_path, capsys):
    argv = ["sweep", "--config", str(tmp_path), "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert str(tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- simulate


def test_simulate_writes_trajectory_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nN = 64\n[solver]\nT = 0.5\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,norm_phi,norm_psi,mass"
    # 17-significant-digit printing roundtrips exactly
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    reparsed = [f"{float(v):.17g}" for v in first]
    assert reparsed == first
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["path"] for f in manifest["files"]}
    on_disk = {
        os.path.relpath(os.path.join(r, f), out)
        for r, _, fs in os.walk(out)
        for f in fs
    } - {"manifest.json"}
    assert listed == on_disk
    # the same hash a sweep of this config writes; delta goes in the detail
    assert manifest["config_hash"] == config_hash(parse_config(cfg))
    assert manifest["jobs"][0]["detail"].startswith("delta=1,")


@pytest.mark.parametrize("model", ["ep", "nls"])
def test_simulate_steps_the_sweeps_grid_and_matches_the_full_grid(tmp_path, capsys, model):
    # simulate steps solver_setup's grid, the even subspace at the default
    # N = 128, at sample_times; evolve_ep and evolve_nls on the full lattice
    # give the same times bitwise and the same norms and mass to rounding
    path = write_cfg(tmp_path, f"[physics]\nmodel = {model}\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    cfg = parse_config(path)
    grid, params, step = epnls.sweep.solver_setup(cfg)
    assert isinstance(grid, EvenGrid)
    phi0 = gaussian_initial(Grid(cfg.n, cfg.N, cfg.L), 1.0)
    if model == "ep":
        traj = evolve_ep(zero_state(phi0), params, step, cfg.T, record="norms")
        columns = [traj.times, traj.norm_phi, traj.norm_psi, traj.mass]
    else:
        traj = evolve_nls(phi0, params, step, cfg.T, record="norms")
        columns = [traj.times, traj.norm_phi, traj.mass]
    assert rows[:, 0].tobytes() == traj.times.tobytes()
    np.testing.assert_allclose(rows, np.column_stack(columns), rtol=1e-12, atol=0)


def test_simulate_huge_amplitude_is_a_numerical_failure(tmp_path, capsys):
    # the existence horizon of a cap past 1e154 is 0, not an OverflowError:
    # the advisory prints and the solver's rotation-angle check ends the
    # run at the first rotation of psi, whose |psi|^2 overflows
    out = tmp_path / "huge"
    assert main(["simulate", "--out", str(out), "--delta", "1e200"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "existence time 0 " in captured.out
    assert ("numerical failure: rotation angle inf rad in the sample interval "
            "from t = 0 reaches 2^52 rad") in captured.err


@pytest.mark.parametrize("physics", ["model = ep", "model = nls", "model = ep\ng = 0"],
                         ids=["ep", "nls", "g=0"])
@pytest.mark.parametrize("delta", [1e-300, 1e-150, 1.0, 1e7, 1e150, 1e160, 1e200])
def test_simulate_amplitude_extremes_exit_cleanly(tmp_path, capsys, recwarn,
                                                  physics, delta):
    # a run either reaches T with finite norms and mass drift or is a
    # numerical failure whose message names it, and no floating-point
    # warning reaches stderr.  The g = 0 flow is linear and always runs.
    # A nonlinear rotation angle past 2^52 rad carries no phase: at 1e150
    # it is ~1e295 rad (and inf once |u|^2 overflows), at 1e7 below 1e11.
    # The mass column is inf where the L2 norm passes ~1e154, as documented
    # T = 0.04 is not a whole number of the default EP step 0.1, so EP
    # runs take dt = 0.02
    clock = "" if physics == "model = nls" else "dt = 0.02\n"
    cfg = write_cfg(tmp_path, f"[grid]\nN = 64\n[physics]\n{physics}\n"
                              f"[solver]\nT = 0.04\n{clock}")
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out), "--delta", repr(delta)])
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    linear = "g = 0" in physics
    assert code == (EXIT_NUMERICAL if delta >= 1e150 and not linear else EXIT_OK)
    if code == EXIT_NUMERICAL:
        assert captured.err.startswith("numerical failure: rotation angle ")
        assert "reaches 2^52 rad" in captured.err
        return
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    norms, mass = values[:, 1:-1], values[:, -1]
    assert np.all(np.isfinite(norms))
    assert np.all(np.isfinite(mass) | ((mass == np.inf) & (norms.max(axis=1) > 1e154)))
    drift = float(captured.out.rsplit("mass drift ", 1)[1].rstrip(")\n"))
    assert drift < 1e-12


def test_simulate_zero_amplitude_reports_absolute_drift(tmp_path, capsys, recwarn):
    cfg = write_cfg(tmp_path, "[grid]\nN = 64\n[solver]\nT = 0.1\n")
    out = tmp_path / "zero"
    argv = ["simulate", "--config", cfg, "--out", str(out), "--delta", "0"]
    assert main(argv) == EXIT_OK
    assert "mass drift 0.000e+00" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["jobs"][0]["detail"] == "delta=0, mass drift 0.000e+00"
    assert len(recwarn) == 0


@pytest.mark.parametrize("physics, delta, advisory", [
    ("", "1", True),
    ("gamma = 0\ng = 0\n", "1", False),
    ("", "0", False),
], ids=["coupled", "free_flow", "zero_field"])
def test_simulate_existence_advisory(tmp_path, capsys, physics, delta, advisory):
    # the free flow (no coupling, no nonlinearity) and a zero field exist
    # for all time, so neither prints the existence-time advisory
    cfg = write_cfg(tmp_path, f"[grid]\nN = 64\n[physics]\n{physics}[solver]\nT = 0.1\n")
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--delta", delta]
    assert main(argv) == EXIT_OK
    assert ("advisory:" in capsys.readouterr().out) == advisory


def test_manifest_leaves_out_stray_temp_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nN = 64\n[solver]\nT = 0.1\n")
    out = tmp_path / "stray"
    out.mkdir()
    (out / "x.csv.tmp.123").write_text("partial")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["path"] for f in manifest["files"]}
    assert listed == {"config.ini", "trajectory.csv"}


def test_simulate_lockfile_excludes_concurrent_runs(tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").write_text("12345")
    code = main(["simulate", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "locked" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep


def test_sweep_outputs_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_SWEEP_INI)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("crossings.csv", "betas.csv", "summary.json", "config.ini"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == []
    # a single alpha cannot support the beta-vs-alpha meta fit
    assert summary["meta_fit"]["slope"] is None
    beta_line = (out / "betas.csv").read_text().splitlines()[1]
    assert float(beta_line.split(",")[1]) == pytest.approx(0.2, abs=0.05)
    curve_files = list((out / "curves").rglob("delta=*.csv"))
    assert len(curve_files) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {f["path"] for f in manifest["files"]}
    on_disk = {
        os.path.relpath(os.path.join(r, f), out)
        for r, _, fs in os.walk(out)
        for f in fs
    } - {"manifest.json"}
    assert listed == on_disk


def test_sweep_prints_short_alphas_and_writes_full_ones(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_SWEEP_INI.replace("alphas = 0", "alphas = 0,0.1"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("alpha=")]
    assert printed == ["alpha=0.0", "alpha=0.1"]
    # files keep the 17-digit form, so they parse back bit-exactly
    rows = (out / "betas.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "0.10000000000000001"]


def test_summary_records_each_curves_stop_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FAST_SWEEP_INI)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (curve,) = json.loads((out / "summary.json").read_text())["curves"]
    assert (curve["delta"], curve["epsilon_comp"]) == (1.0, None)
    assert np.isfinite(curve["t_stop"]) and 0 < curve["t_stop"] < 1.5
    (path,) = (out / "curves").rglob("*.csv")
    last_time = path.read_text().splitlines()[-1].split(",")[0]
    assert float(last_time) == curve["t_stop"]


@pytest.mark.parametrize("dt, samples", [("auto", 26), ("1e-3", 201)])
def test_summary_records_the_sample_clock(tmp_path, capsys, monkeypatch, dt, samples):
    # the NLS default clock, dt = 8e-3 to T = 0.2, against a finer one: the
    # summary's solver block records dt, the clock's samples and the
    # composition's stages, and no sample rate or growth of its own, as the
    # clock is dt alone
    cfg = write_cfg(tmp_path, f"[physics]\nmodel = nls\n[solver]\ndt = {dt}\n"
                    "[sweep]\nalphas = 0\nepsilons = 1e-2,5e-3,3e-3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    solver = json.loads((out / "summary.json").read_text())["solver"]
    assert solver["dt"] == (8e-3 if dt == "auto" else float(dt))
    assert solver["samples"] == samples
    assert solver["stages"] == 7
    assert sorted(solver) == ["T", "comparator", "dt", "samples", "stages"]


@pytest.mark.parametrize("text, stages", [
    ("", 7), ("[grid]\nn = 2\nN = 16\n", 3), ("[physics]\nmodel = nls\n", 7),
], ids=["ep-1d", "ep-2d", "nls"])
def test_summary_records_the_composition_that_ran(tmp_path, capsys, text, stages):
    # the composed step depends on the model and n (evolution._WEIGHTS):
    # the 7-stage sixth-order step, or the triple jump of 2D EP, which
    # shares its dt = 0.1 with 1D, so dt alone does not name the step
    cfg = write_cfg(tmp_path, text + "[sweep]\nalphas = 0\nepsilons = 1e-2,3e-3,1e-3\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    solver = json.loads((out / "summary.json").read_text())["solver"]
    assert solver["stages"] == stages


def test_warm_and_cold_sweep_outputs_are_byte_identical(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(
        tmp_path,
        FAST_SWEEP_INI.replace("alphas = 0", "alphas = 0,0.2")
        + f"[output]\ncache_dir = {tmp_path / 'cache'}\n",
    )
    runs = [tmp_path / "cold", tmp_path / "warm"]
    assert main(["sweep", "--config", cfg, "--out", str(runs[0])]) == EXIT_OK

    def refuse(*args):
        raise AssertionError("the warm run computed a curve")

    monkeypatch.setattr(epnls.sweep, "_curve_batch", refuse)
    assert main(["sweep", "--config", cfg, "--out", str(runs[1])]) == EXIT_OK

    def outputs(out):
        return {
            str(path.relative_to(out)): path.read_bytes()
            for path in out.rglob("*")
            if path.is_file() and path.name != "manifest.json"  # wall times
        }

    cold, warm = (outputs(out) for out in runs)
    assert len([name for name in cold if name.startswith("curves")]) == 4
    assert warm == cold

    def listed(out):
        files = json.loads((out / "manifest.json").read_text())["files"]
        return [(entry["path"], entry["bytes"]) for entry in files]

    # both manifests list every other output file, at its size
    assert listed(runs[0]) == listed(runs[1]) == sorted(
        (path, len(data)) for path, data in cold.items())


def _is_cache_record(path):
    """Whether path is a cached curve's one record: a .json of the digest
    of the source that wrote it, its t and rho from (0, 0) and its
    [tolerance, t_cross] crossings."""
    record = json.loads(path.read_text())
    return (path.suffix == ".json" and sorted(record) == ["code", "crossings", "rho", "t"]
            and record["code"] == epnls.sweep._source_digest()
            and record["t"][0] == record["rho"][0] == 0.0
            and len(record["t"]) == len(record["rho"])
            and bool(record["crossings"]) and all(len(c) == 2 for c in record["crossings"]))


def test_nls_sweep_writes_t_rho_and_caches_crossings(tmp_path, capsys, monkeypatch):
    # the cache keeps each curve as one record of its t, rho and
    # re-stepped crossings; the output curve files keep their t,rho form,
    # and a warm run writes the cold run's bytes
    cfg = write_cfg(tmp_path, "[physics]\nmodel = nls\n[grid]\nN = 64\n"
                    "[sweep]\nalphas = 0,0.2\nepsilons = 1e-2,5e-3,3e-3\n"
                    f"[output]\ncache_dir = {tmp_path / 'cache'}\n")
    runs = [tmp_path / "cold", tmp_path / "warm"]
    assert main(["sweep", "--config", cfg, "--out", str(runs[0])]) == EXIT_OK

    def refuse(*args):
        raise AssertionError("the warm run computed a curve")

    monkeypatch.setattr(epnls.sweep, "_curve_batch", refuse)
    assert main(["sweep", "--config", cfg, "--out", str(runs[1])]) == EXIT_OK
    cached = sorted(p for p in (tmp_path / "cache").rglob("*") if p.is_file())
    written = [sorted(out.rglob("curves/*/*.csv")) for out in runs]
    assert len(cached) == len(written[0]) == 4
    assert all(_is_cache_record(p) for p in cached)
    assert all(p.read_text().startswith("t,rho\n0,0\n") for p in written[0])
    assert [p.read_bytes() for p in written[0]] == [p.read_bytes() for p in written[1]]


def test_sweep_into_its_own_cache_dir_computes_no_curve_again(tmp_path, capsys,
                                                            monkeypatch):
    # an output directory that is also the cache keeps both, the output's
    # curve files and the cache's records with their crossings, so a rerun
    # into it is served from the cache and writes the same bytes
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, "[physics]\nmodel = nls\n[grid]\nN = 64\n"
                    "[sweep]\nalphas = 0,0.2\nepsilons = 1e-2,5e-3,3e-3\n"
                    f"[output]\ncache_dir = {out}\n")
    computed, compute = [], epnls.sweep._compute_curves

    def counted(c, specs):
        computed.append(len(specs))
        return compute(c, specs)

    monkeypatch.setattr(epnls.sweep, "_compute_curves", counted)
    blobs = []
    for _ in range(3):
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        written = sorted(out.glob("curves/*/*.csv"))
        assert len(written) == 4
        assert all(p.read_text().startswith("t,rho\n") for p in written)
        blobs.append([p.read_bytes() for p in written])
    assert computed == [4, 0, 0]
    assert blobs[0] == blobs[1] == blobs[2]
    cached = sorted(p for p in out.rglob("curve_cache/**/*") if p.is_file())
    assert len(cached) == 4
    assert all(_is_cache_record(p) for p in cached)


def test_composite_sweep_writes_one_curve_file_per_epsilon(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[grid]\nN = 64\n[sweep]\nalphas = 0\nepsilons = 1e-2,3e-3,1e-3\n"
        "comparator = composite\nc1 = 1\n[solver]\nT = 1.5\n",
    )
    out = tmp_path / "composite"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in (out / "curves").rglob("*.csv"))
    assert names == [
        f"delta=1__eps={e}.csv" for e in ("0.001", "0.0030000000000000001", "0.01")
    ]


def test_sweep_workers_flag_is_a_usage_error(tmp_path, capsys):
    # every sweep runs in the calling process: --workers is not an option
    cfg = write_cfg(tmp_path, FAST_SWEEP_INI)
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("c1", ["-1", "100"])
def test_sweep_bad_composite_c1_is_a_config_error(tmp_path, capsys, c1):
    # c1 = 100 puts the A-phase end t1 = 10 past the horizon T = 2
    cfg = write_cfg(
        tmp_path, f"[grid]\nN = 64\n[sweep]\ncomparator = composite\nc1 = {c1}\n"
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_truth_norm_underflow_is_a_numerical_failure(tmp_path, capsys):
    # delta = 1e-220 has a representable norm; 1e-330 rounds to 0
    cfg = write_cfg(
        tmp_path, "[grid]\nN = 64\n[sweep]\nalphas = 0,110\nepsilons = 1e-2,1e-3\n"
    )
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "underflow at t = 0 for delta = 0" in err
    assert "Traceback" not in err


def test_sweep_horizon_too_short_is_incomplete(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "[grid]\nN = 64\n[sweep]\nalphas = 0\nepsilons = 1e-2,5e-3\n"
        "[solver]\nT = 0.2\n",
    )
    out = tmp_path / "short"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_INCOMPLETE
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["failures"]) == 3  # two crossings + the regression
    # partial outputs are retained
    assert (out / "crossings.csv").exists()
    assert (out / "manifest.json").exists()


def test_sweep_env_override_outdir(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, FAST_SWEEP_INI)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("EPNLS_OUTDIR", str(env_out))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "ignored")]) == EXIT_OK
    assert (env_out / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------- verify


def test_verify_passes_and_writes_report(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] transform roundtrip" in out
    assert "[REPORT] exciton bound ratio" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    verdicts = {c["check"]: c["verdict"] for c in report["checks"]}
    assert verdicts["EP mass conservation"] == "PASS"
    assert verdicts["exciton bound ratio (Kp=1)"] == "REPORT"


def test_verify_writes_to_the_env_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EPNLS_OUTDIR", str(tmp_path / "env_out"))
    assert main(["verify"]) == EXIT_OK
    assert (tmp_path / "env_out" / "verify_report.json").exists()
    assert (tmp_path / "env_out" / "manifest.json").exists()
    (tmp_path / "env_out" / ".lock").write_text("12345")  # and takes its lock
    assert main(["verify"]) == EXIT_NUMERICAL


def test_verify_out_takes_the_output_lock(tmp_path, capsys):
    (tmp_path / ".lock").write_text("12345")
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "locked" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_reports_a_check_above_its_tolerance(tmp_path, capsys, monkeypatch):
    rows = [("transform roundtrip", 1e-16, 1e-13), ("time reversal", 2e-8, 1e-8)]
    monkeypatch.setattr(epnls.cli, "verify_checks", lambda: rows)
    assert main(["verify", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "[PASS] transform roundtrip" in captured.out
    assert "[FAIL] time reversal" in captured.out
    assert "1 checks failed" in captured.err
    report = json.loads((tmp_path / "verify_report.json").read_text())
    verdicts = {c["check"]: c["verdict"] for c in report["checks"]}
    assert verdicts == {"transform roundtrip": "PASS", "time reversal": "FAIL"}
