"""Tests of the benchmark's own machinery: span arithmetic, output
checks, absent-function reporting, workload generation, calibration."""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from epnls.config import parse_config  # noqa: E402
from epnls.sweep import CrossingRecord, SweepConfig, curve_specs  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, None]


# ----------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_direct_children_only():
    #  0 root [0, 10]
    #  ├─ 1 a [1, 5]
    #  │   └─ 2 b [2, 3]
    #  └─ 3 c [6, 9]
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 6.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 1.0, 3.0]
    # self times partition the root's interval
    assert sum(spans.self_times(tree)) == 10.0


def test_sweep_metrics_on_synthetic_tree():
    tree = [
        _span("sweep.run_algorithm_a", 0.0, 10.0, -1),
        _span("evolution.evolve_ep", 0.0, 4.0, 0),
        _span("grid.hs_norm_from_fft", 1.0, 1.5, 1),
        _span("evolution.evolve_ep", 4.0, 8.0, 0),
        _span("sweep.find_crossing", 8.0, 8.25, 0),
    ]
    tree[0][spans.INFO] = {"curves": 2}
    tree[1][spans.INFO] = {"key": "x", "steps": 100, "samples": 11}
    tree[3][spans.INFO] = {"key": "x", "steps": 100, "samples": 11}
    tree[1][spans.FFTS], tree[1][spans.FFT_POINTS] = 400, 400 * 256
    m = spans.sweep_metrics(tree, spans.self_times(tree), 0, len(tree))
    assert m["evolution.truth_s"] == 7.5
    assert m["evolution.truth_calls"] == 2
    assert m["evolution.truth_distinct_ratio"] == 0.5
    assert m["evolution.steps"] == 200
    assert m["evolution.fft_per_step"] == 2.0
    assert m["evolution.fft_bytes_computed"] == 400 * 256 * 32
    assert m["grid.hs_norm_calls"] == 1
    assert m["sweep.crossing_s"] == 0.25
    assert m["sweep.curves"] == 2


def test_traced_sweep_counts_match_the_solver_structure():
    cfg = SweepConfig(
        model="ep", N=32, dt=1e-2, alpha_set=(0.0, 0.1),
        epsilon_set=(1e-2, 3e-3, 1e-3),
    )
    import epnls.sweep

    tracer = spans.Tracer()
    tracer.install()
    try:
        epnls.sweep.run_algorithm_a(cfg)
    finally:
        tracer.uninstall()
    m = spans.sweep_metrics(tracer.spans, spans.self_times(tracer.spans), 0, len(tracer.spans))
    n_curves = len(curve_specs(cfg))
    assert m["sweep.curves"] == m["evolution.truth_calls"] == n_curves == 4
    assert m["evolution.steps"] == n_curves * 200
    assert m["evolution.samples"] == n_curves * 201
    # 4 FFTs per step, 2 per recorded sample for the norms
    assert m["evolution.fft_calls"] == n_curves * (4 * 200 + 2 * 201)
    # truth + comparator record 2 norms per sample, rho takes 2 more
    assert m["grid.hs_norm_calls"] == n_curves * 201 * 6
    assert epnls.sweep.evolve_ep.__module__ == "epnls.evolution"  # restored


# ----------------------------------------------------------------------
# absent functions


def test_missing_function_is_reported_absent():
    import epnls.sweep

    table = (
        ("epnls.sweep", "find_crossing", "sweep.find_crossing", None),
        ("epnls.sweep", "no_such_function", "sweep.no_such", None),
        ("epnls.no_such_module", "f", "x.f", None),
    )
    original = epnls.sweep.find_crossing
    tracer = spans.Tracer()
    tracer.install(table)
    try:
        assert epnls.sweep.find_crossing is not original
    finally:
        tracer.uninstall()
    assert epnls.sweep.find_crossing is original
    assert tracer.absent == ["epnls.sweep.no_such_function", "epnls.no_such_module.f"]
    absent = spans.absent_metrics(tracer.present)
    assert "sweep.crossing_s" not in absent
    assert "sweep.regress_s" in absent
    assert "evolution.truth_s" in absent


# ----------------------------------------------------------------------
# output checks


def _reference():
    return {(0.1, 1e-2): 0.5, (0.1, 1e-3): 0.25}


def test_crossing_within_tolerance_passes():
    tally = checks.Tally()
    table = {k: t * (1 + 0.5 * checks.REL_TOL) for k, t in _reference().items()}
    shift = checks.check_against(tally, table, _reference(), checks.REL_TOL, "ref")
    assert (tally.attempted, tally.failed) == (2, 0)
    assert shift == pytest.approx(0.5 * checks.REL_TOL)


def test_crossing_perturbed_beyond_tolerance_is_a_failure():
    tally = checks.Tally()
    table = dict(_reference())
    table[(0.1, 1e-3)] *= 1 + 2 * checks.REL_TOL
    checks.check_against(tally, table, _reference(), checks.REL_TOL, "ref")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "epsilon=0.001" in tally.notes[0]


def test_missing_crossing_is_a_failure():
    tally = checks.Tally()
    table = {(0.1, 1e-2): 0.5}
    assert checks.check_against(tally, table, _reference(), checks.REL_TOL, "ref") == np.inf
    assert tally.failed == 1


def test_sweep_result_with_missing_crossing_fails_its_operations():
    class Result:
        crossings = [CrossingRecord(alpha=0.0, delta=1.0, epsilon=1e-2, t_cross=0.4)]
        betas = []
        meta_slope = None

    tally = checks.Tally()
    checks.check_sweep(tally, Result(), (0.0,), (1e-2, 1e-3))
    # two crossings, one fit, the meta fit
    assert (tally.attempted, tally.failed) == (4, 3)


def test_cli_output_check_detects_a_changed_curve_file(tmp_path):
    from epnls.evolution import ErrorCurve

    curve = ErrorCurve(delta=0.5, times=np.array([0.0, 0.1]), rho=np.array([0.0, 1 / 3]))
    d = tmp_path / "curves" / "abc"
    d.mkdir(parents=True)
    path = d / "delta=0.5.csv"

    class Result:
        curves = [curve]

    path.write_text(f"t,rho\n0,0\n{0.1!r},{1 / 3:.17g}\n")
    tally = checks.Tally()
    checks.check_cli_outputs(tally, 0, str(tmp_path), Result())
    assert (tally.attempted, tally.failed) == (3, 0)

    path.write_text("t,rho\n0,0\n0.1,0.33333333333333\n")  # 14 digits: not bit-exact
    tally = checks.Tally()
    checks.check_cli_outputs(tally, 4, str(tmp_path), Result())
    assert (tally.attempted, tally.failed) == (3, 2)


def test_accuracy_against_closed_forms():
    class Beta:
        def __init__(self, alpha, beta):
            self.alpha, self.beta = alpha, beta

    class Result:
        betas = [Beta(0.0, 0.2 + 0.003), Beta(0.1, 0.16), Beta(0.6, 1.0)]
        meta_slope = -0.4 + 0.01

    beta_err, meta_err = checks.accuracy(Result(), 3.0, "ep")
    # alpha = 0.6 lies outside the EXACT regime of p = 3
    assert beta_err == pytest.approx(0.003)
    assert meta_err == pytest.approx(0.01)


# ----------------------------------------------------------------------
# workloads


def test_seed_zero_reproduces_the_four_configs_exactly(tmp_path):
    kw = workloads.sweep_kwargs
    assert SweepConfig(**kw("ep_sweep", 0)) == SweepConfig(model="ep")
    assert SweepConfig(**kw("nls_sweep", 0)) == SweepConfig(model="nls")
    assert SweepConfig(**kw("ep_2d_composite", 0)) == SweepConfig(
        model="ep", n=2, N=64, comparator="composite", c1=1.0,
        alpha_set=(0.0, 0.2), epsilon_set=tuple(np.logspace(-2, -3, 4)),
    )
    cache = str(tmp_path / "cache")
    ini = tmp_path / "run.ini"
    ini.write_text(workloads.rerun_ini(0, cache))
    parsed = parse_config(str(ini)).to_sweep_config()
    assert parsed == SweepConfig(model="nls", cache_dir=cache).resolved()
    assert SweepConfig(**kw("nls_rerun_warm", 0)) == SweepConfig(model="nls")


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 12345])
def test_other_seeds_jitter_the_ladder_but_keep_the_work(seed):
    for name, n_curves in (("ep_sweep", 18), ("nls_sweep", 18), ("ep_2d_composite", 8)):
        base = SweepConfig(**workloads.sweep_kwargs(name, 0))
        cfg = SweepConfig(**workloads.sweep_kwargs(name, seed))
        assert cfg != base
        assert replace(cfg, epsilon_set=base.epsilon_set) == base
        assert len(curve_specs(cfg)) == n_curves
        ratio = np.log(cfg.epsilon_set) / np.log(base.epsilon_set)
        assert np.all(np.abs(ratio - 1) <= workloads.LADDER_JITTER + 1e-12)
    assert workloads.sweep_kwargs("ep_sweep", seed) == workloads.sweep_kwargs("ep_sweep", seed)


def test_rerun_ini_ladder_parses_back_bit_exactly(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(workloads.rerun_ini(7, str(tmp_path / "cache")))
    parsed = parse_config(str(ini)).to_sweep_config()
    assert parsed.epsilon_set == workloads.sweep_kwargs("nls_rerun_warm", 7)["epsilon_set"]


# ----------------------------------------------------------------------
# calibration


def test_calibration_scales_by_the_bracketing_kernel_times():
    kernel_times = iter([9.0, 1.0, 2.0, 2.0])  # the first run is a warm-up
    clock = calibrate.Calibrated(kernel=lambda: next(kernel_times))
    ref = calibrate.REFERENCE_S
    assert clock.block([3.0, 6.0]) == [3.0 * ref / 1.5, 6.0 * ref / 1.5]
    assert clock.block([1.0]) == [ref / 2.0]
    assert clock.kernel_times == [1.0, 2.0, 2.0]


def test_calibration_kernels_run(tmp_path):
    assert 0 < calibrate.numpy_kernel(10, (8, 8)) < 1.0
    assert 0 < calibrate.csv_kernel(2, str(tmp_path / "k.csv")) < 1.0
    assert list(tmp_path.iterdir()) == []
