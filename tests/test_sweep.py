import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import epnls.restep
import epnls.sweep
from epnls.evolution import (
    ErrorCurve,
    ModelParams,
    SolverBlowupError,
    StepSpec,
    Trajectory,
    composite_seed,
    evolve_composite_tilde,
    evolve_ep,
    evolve_linear_b,
    evolve_nls,
    linear_pair_propagator,
    model_stream,
    relative_error_curve,
    sample_times,
    zero_state,
)
from epnls.grid import (
    DEFAULT_MAX_POINTS,
    EvenGrid,
    Grid,
    free_propagate,
    free_symbol,
    gaussian_initial,
    gaussian_rows,
    make_grid,
)
from epnls.runio import fmt, write_csv
from epnls.sweep import (
    AlgorithmAResult,
    CrossingRecord,
    NoCrossingError,
    SweepConfig,
    compute_error_curve,
    config_hash,
    curve_path,
    curve_specs,
    find_crossing,
    physics_signature,
    regress_loglog,
    run_algorithm_a,
    run_error_curves,
    solver_setup,
    sweep_times,
)

# small, fast sweep used by most machinery tests
FAST_EP = dict(model="ep", N=64, T=1.0, alpha_set=(0.0,), epsilon_set=(1e-2, 3e-3, 1e-3))


def synthetic_curve(times, rho, delta=1.0):
    return ErrorCurve(delta=delta, times=np.asarray(times), rho=np.asarray(rho))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="model"):
        SweepConfig(model="kdv")
    with pytest.raises(ValueError, match="decreasing"):
        SweepConfig(epsilon_set=(1e-3, 1e-2))
    with pytest.raises(ValueError, match="0, 1"):
        SweepConfig(epsilon_set=(2.0, 1e-2))
    with pytest.raises(ValueError, match="alpha"):
        SweepConfig(alpha_set=(-0.1,))
    with pytest.raises(ValueError, match="alpha_set must not repeat a value"):
        SweepConfig(alpha_set=(0.1, 0.1))
    with pytest.raises(ValueError, match="comparator"):
        SweepConfig(model="nls", comparator="systemB")
    with pytest.raises(ValueError, match="comparator"):
        SweepConfig(model="ep", comparator="linear-nls")
    with pytest.raises(ValueError, match="p must exceed 1"):
        SweepConfig(p=1.0)
    with pytest.raises(ValueError, match="gamma"):
        SweepConfig(gamma=-0.5)
    with pytest.raises(ValueError, match="even"):
        SweepConfig(N=63)
    with pytest.raises(ValueError, match="even"):
        SweepConfig(N=2)
    with pytest.raises(ValueError, match="L must be positive"):
        SweepConfig(L=0.0)
    with pytest.raises(ValueError, match="s must be nonnegative"):
        SweepConfig(s=-1.0)
    with pytest.raises(ValueError, match="c1 >= 0"):
        SweepConfig(comparator="composite", c1=-1.0)
    with pytest.raises(ValueError, match="t1 = .* = 10 within the horizon T = 2"):
        SweepConfig(comparator="composite", c1=100.0)  # t1 = 10 > T = 2
    # c1 is ignored by the other comparators
    assert SweepConfig(c1=100.0).c1 == 100.0
    # the clock is dt alone, one sample per step, so T is a whole number
    # of steps dt (test_any_dt_that_divides_t_is_a_sweep_clock)
    with pytest.raises(TypeError, match="samples_per_unit_time"):
        SweepConfig(samples_per_unit_time=30)
    with pytest.raises(ValueError, match=r"^horizon T = 2\.0 is not a positive multiple "
                       r"of the step size \|dt\| = 0\.03$"):
        SweepConfig(dt=0.03)
    with pytest.raises(ValueError, match=r"^horizon T = 2\.0 .* \|dt\| = 0\.3$"):
        SweepConfig(T=2.0, dt=0.3)


@pytest.mark.parametrize("dt, samples, rel", [(0.04, 51, 2e-6), (0.08, 26, 5e-5)])
def test_any_dt_that_divides_t_is_a_sweep_clock(dt, samples, rel):
    # no 1/n rule: a dt that divides T = 2, 1/25 or 2/25, gives samples
    # dt apart, each one composed step of dt, and the sweep runs on it; its
    # crossings lie within rel of the default clock's (dt = 0.1; measured
    # 1.7e-8 and 1.3e-8; the bounds were set for the triple jump, which
    # read 5.5e-7 and 1.7e-5 from its default of 1/30)
    cfg = SweepConfig(model="ep", dt=dt)
    assert sweep_times(cfg).tobytes() == (np.arange(samples) * dt).tobytes()
    result, default = run_algorithm_a(cfg), run_algorithm_a(SweepConfig(model="ep"))
    assert not result.failures and len(result.crossings) == 24
    for a, b in zip(result.crossings, default.crossings, strict=True):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        assert a.t_cross == pytest.approx(b.t_cross, rel=rel)


def test_config_resolution_defaults():
    # a constructed config is already resolved
    ep = SweepConfig(model="ep")
    assert (ep.T, ep.dt, ep.comparator, ep.s) == (2.0, 0.1, "systemB", 1.0)
    # EP's clock is one dt for every n; only its composition depends on n
    ep_2d, ep_3d = SweepConfig(model="ep", n=2, N=16), SweepConfig(model="ep", n=3, N=16)
    assert (ep_2d.dt, ep_3d.dt) == (0.1, 0.1)
    nls = SweepConfig(model="nls", n=2, N=32)
    assert (nls.T, nls.dt) == (0.2, 8e-3)
    # each clock is its dt alone, one sample per composed step of dt
    steps = [solver_setup(c)[2] for c in (ep, ep_2d, ep_3d, nls)]
    assert steps == [StepSpec(dt=0.1)] * 3 + [StepSpec(dt=8e-3)]
    assert nls.comparator == "linear-nls"
    assert nls.s == 2.0
    assert ep.resolved() is ep and ep.to_sweep_config() is ep


def test_delta_for_alpha_zero_degeneracy():
    cfg = SweepConfig()
    assert cfg.delta_for(0.0, 1e-3) == 1.0
    assert cfg.delta_for(0.5, 1e-2) == pytest.approx(0.1)


def test_signature_excludes_cosmetic_fields():
    a = SweepConfig(**FAST_EP)
    b = SweepConfig(**{**FAST_EP, "workers": 4, "cache_dir": "/tmp/x",
                       "epsilon_floor": 1e-9})
    assert physics_signature(a) == physics_signature(b)
    assert config_hash(a) == config_hash(b)
    c = SweepConfig(**{**FAST_EP, "p": 5.0})
    assert config_hash(a) != config_hash(c)


def test_curve_specs_dedup_alpha_zero():
    cfg = SweepConfig(model="ep", alpha_set=(0.0,), epsilon_set=(1e-2, 1e-3))
    assert curve_specs(cfg) == [(1.0, None)]


# ---------------------------------------------------------------- crossings


def test_find_crossing_identity_curve():
    t = np.linspace(0.0, 1.0, 2001)
    curve = synthetic_curve(t, t)
    assert find_crossing(curve, 0.1) == pytest.approx(0.1, abs=1e-6)


def test_find_crossing_quintic_curve():
    t = np.linspace(0.0, 0.3, 3001)
    curve = synthetic_curve(t, t**5)
    assert find_crossing(curve, 1e-5) == pytest.approx(0.1, rel=1e-4)


def test_find_crossing_loglog_exact_on_power_laws():
    # coarse sampling, but log t is linear in log rho, which the log-linear
    # rule reproduces
    t = np.logspace(-2, 0, 9)
    curve = synthetic_curve(np.concatenate([[0.0], t]),
                            np.concatenate([[0.0], t**3]))
    assert find_crossing(curve, 1e-3) == pytest.approx(0.1, rel=1e-12)


def test_find_crossing_returns_first_upcrossing():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    rho = np.array([0.0, 0.05, 0.2, 0.05, 0.3, 0.4])
    first = find_crossing(synthetic_curve(t, rho), 0.15)
    assert 1.0 < first < 2.0


def test_find_crossing_no_crossing():
    t = np.linspace(0, 1, 11)
    with pytest.raises(NoCrossingError, match="never reaches"):
        find_crossing(synthetic_curve(t, 1e-4 * t), 0.5)


def test_find_crossing_below_floor():
    t = np.linspace(0, 1, 11)
    with pytest.raises(ValueError, match="floor"):
        find_crossing(synthetic_curve(t, t), 1e-8, epsilon_floor=1e-6)


def test_find_crossing_too_coarse():
    curve = synthetic_curve([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(NoCrossingError, match="cadence"):
        find_crossing(curve, 0.5)


def _linear_crossing(t, rho, epsilon):
    """The linear (log t, log rho) rule between the bracketing samples."""
    i = int(np.argmax(np.asarray(rho) >= epsilon))
    tl, tr, rl, rr = t[i - 1], t[i], rho[i - 1], rho[i]
    frac = (np.log(epsilon) - np.log(rl)) / (np.log(rr) - np.log(rl))
    return float(np.exp(np.log(tl) + frac * (np.log(tr) - np.log(tl))))


def _quintic(eps):
    # rho = C t^q (1 + a t), no power law, on samples 0.02 apart
    t = np.arange(101) * 0.02
    return t, 0.01 * t**5 * (1.0 + 0.7 * t), eps


@pytest.mark.parametrize("times, rho, eps", [
    # an early crossing, every sample positive
    ([0.5, 1.0, 2.0, 3.0, 4.0], [1e-4, 1e-3, 8e-3, 2.7e-2, 6.4e-2], 2e-2),
    # zeros before the bracket
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 8e-3, 2.7e-2, 6.4e-2, 0.125], 5e-2),
    # rho falls before the bracket
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 2e-3, 1e-3, 2.7e-2, 6.4e-2, 0.125], 5e-2),
    # flat, then a steep bracket
    ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1e-3, 1.01e-3, 1.02e-3, 0.148], 1e-2),
    _quintic(1e-4), _quintic(1e-3), _quintic(3e-3), _quintic(1e-2),
], ids=["early", "zero", "falling", "flat-then-steep",
        "quintic-1e-4", "quintic-1e-3", "quintic-3e-3", "quintic-1e-2"])
def test_find_crossing_is_the_loglinear_rule(times, rho, eps):
    curve = synthetic_curve(times, rho)
    assert find_crossing(curve, eps) == _linear_crossing(times, rho, eps)


# ---------------------------------------------------------------- regression


def test_regress_exact_power_law():
    eps = np.logspace(-3, -2, 6)
    records = [
        CrossingRecord(alpha=0.1, delta=e**0.1, epsilon=e, t_cross=0.7 * e**0.2)
        for e in eps
    ]
    fit = regress_loglog(records)
    assert fit.beta == pytest.approx(0.2, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(0.7), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.npoints == 6


def test_regress_constant_crossing_time():
    eps = np.logspace(-3, -2, 5)
    records = [
        CrossingRecord(alpha=0.0, delta=1.0, epsilon=e, t_cross=0.42) for e in eps
    ]
    fit = regress_loglog(records)
    assert fit.beta == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_regress_needs_three_points():
    records = [
        CrossingRecord(alpha=0.0, delta=1.0, epsilon=1e-2, t_cross=0.1),
        CrossingRecord(alpha=0.0, delta=1.0, epsilon=1e-3, t_cross=0.2),
    ]
    with pytest.raises(ValueError, match="3"):
        regress_loglog(records)


def test_regress_rejects_mixed_alpha():
    records = [
        CrossingRecord(alpha=0.0, delta=1.0, epsilon=e, t_cross=t)
        for e, t in [(1e-2, 0.1), (3e-3, 0.08), (1e-3, 0.06)]
    ]
    records.append(CrossingRecord(alpha=0.1, delta=0.5, epsilon=1e-2, t_cross=0.1))
    with pytest.raises(ValueError, match="alpha"):
        regress_loglog(records)


# ---------------------------------------------------------------- curves


def test_error_curves_vanish_when_g_zero():
    cfg = SweepConfig(**{**FAST_EP, "g": 0.0})
    (curve,) = run_error_curves(cfg)
    assert np.max(curve.rho) < 1e-12


def test_tiny_amplitude_curve_is_finite():
    # |phi_hat|^2 of delta = 1e-220 underflows; its norm does not
    cfg = SweepConfig(**FAST_EP)
    curve = compute_error_curve(cfg, 1e-220)
    assert np.all(np.isfinite(curve.rho))
    assert curve.rho[0] == 0.0


def test_single_curve_serves_all_epsilons():
    cfg = SweepConfig(**FAST_EP)
    curves = run_error_curves(cfg)
    assert len(curves) == 1
    assert curves[0].delta == 1.0


def test_curve_early_time_slope_is_p_plus_2():
    cfg = SweepConfig(model="ep", T=1.0, alpha_set=(0.0,), epsilon_set=(1e-2,))
    curve = compute_error_curve(cfg, 1.0)
    m = (curve.times >= 0.05) & (curve.times <= 0.5)
    slope = np.polyfit(np.log(curve.times[m]), np.log(curve.rho[m]), 1)[0]
    assert slope == pytest.approx(5.0, rel=0.05)


def test_crossing_monotone_in_epsilon():
    cfg = SweepConfig(model="ep", T=1.5, alpha_set=(0.0,),
                      epsilon_set=tuple(np.logspace(-2, -3, 6)))
    res = run_algorithm_a(cfg)
    recs = sorted(res.crossings, key=lambda r: r.epsilon)
    ts = [r.t_cross for r in recs]
    assert all(a <= b for a, b in zip(ts, ts[1:]))


def test_crossing_stable_under_cadence_halving():
    # the cadence is the step: halving it doubles dt
    base = SweepConfig(model="ep", N=64, T=1.5, alpha_set=(0.0,), dt=1e-2,
                       epsilon_set=(1e-2,))
    halved = SweepConfig(model="ep", N=64, T=1.5, alpha_set=(0.0,), dt=2e-2,
                         epsilon_set=(1e-2,))
    t_base = run_algorithm_a(base).crossings[0].t_cross
    t_halved = run_algorithm_a(halved).crossings[0].t_cross
    assert abs(t_base - t_halved) < 1.0 / 50  # local sample spacing


def test_cache_cold_vs_warm_identical(tmp_path):
    cfg = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    cold = run_algorithm_a(cfg)
    cache_files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert [p.relative_to(tmp_path).parts[0] for p in cache_files] == ["curve_cache"]
    assert [p.suffix for p in cache_files] == [".json"]
    blob = cache_files[0].read_bytes()
    warm = run_algorithm_a(cfg)
    assert cache_files[0].read_bytes() == blob
    assert [r.t_cross for r in cold.crossings] == [r.t_cross for r in warm.crossings]
    assert [b.beta for b in cold.betas] == [b.beta for b in warm.betas]


def _check_warm_rerun_returns_the_cold_crossings(tmp_path, monkeypatch, cfg, n_curves,
                                                 spec):
    """A re-stepped crossing is no function of the cached (t, rho): the
    cache keeps each curve's crossings in its record keyed by tolerance, a
    warm rerun of cfg serves them bitwise, and a tolerance the record of
    spec's curve lacks is a miss."""
    cold = run_algorithm_a(cfg)
    records = sorted(tmp_path.rglob("*.json"))
    assert len(records) == len(cold.curves) == n_curves
    blobs = [p.read_bytes() for p in records]
    with monkeypatch.context() as patch:
        _no_batches(patch)
        warm = run_algorithm_a(cfg)
    assert [(r.alpha, r.epsilon, r.t_cross) for r in warm.crossings] == \
        [(r.alpha, r.epsilon, r.t_cross) for r in cold.crossings]
    assert [p.read_bytes() for p in records] == blobs
    path = Path(curve_path(str(tmp_path), cfg, *spec, cache=True))
    path.write_text(json.dumps(dict(json.loads(path.read_text()), crossings=[])))
    again = run_algorithm_a(cfg)
    assert [r.t_cross for r in again.crossings] == [r.t_cross for r in cold.crossings]
    assert [p.read_bytes() for p in records] == blobs  # recomputed and mended


def test_warm_ep_rerun_returns_the_cold_crossings_bitwise(tmp_path, monkeypatch):
    # delta = 1 with the comparator of 1e-3 loses its crossing
    kw = dict(FOUR_CURVES, comparator="composite", c1=0.5)
    _check_warm_rerun_returns_the_cold_crossings(
        tmp_path, monkeypatch, SweepConfig(**kw, cache_dir=str(tmp_path)), 6, (1.0, 1e-3))


def test_warm_nls_rerun_returns_the_cold_crossings_bitwise(tmp_path, monkeypatch):
    # delta = 1 loses its three crossings
    _check_warm_rerun_returns_the_cold_crossings(
        tmp_path, monkeypatch, SweepConfig(**FOUR_NLS_CURVES, cache_dir=str(tmp_path)), 4,
        (1.0, None))


def _check_a_mangled_record_is_recomputed_once(tmp_path, monkeypatch, mangle):
    """The delta = 1 record of a cold NLS sweep, passed through ``mangle``,
    is a miss: a rerun recomputes that curve alone, rewrites its record at
    its path as the cold run wrote it, [tolerance, t_cross] pairs, leaves
    no other file, and returns every curve and crossing bitwise."""
    cfg = SweepConfig(**FOUR_NLS_CURVES, cache_dir=str(tmp_path))
    cold = run_algorithm_a(cfg)
    files = sorted(tmp_path.rglob("*"))
    path = Path(curve_path(str(tmp_path), cfg, 1.0, cache=True))
    blob = path.read_bytes()
    record = json.loads(blob)
    assert record["code"] == epnls.sweep._source_digest()
    assert record["t"][0] == record["rho"][0] == 0.0
    assert len(record["crossings"]) == 3
    assert all(len(entry) == 2 for entry in record["crossings"])
    path.write_text(json.dumps(mangle(record)))
    computed, compute = [], epnls.sweep._compute_curves

    def counted(c, specs):
        computed.append(specs)
        return compute(c, specs)

    monkeypatch.setattr(epnls.sweep, "_compute_curves", counted)
    again = run_algorithm_a(cfg)
    assert computed == [[(1.0, None)]]
    assert _bits(again.curves) == _bits(cold.curves)
    assert [r.t_cross.hex() for r in again.crossings] == \
        [r.t_cross.hex() for r in cold.crossings]
    assert path.read_bytes() == blob
    assert sorted(tmp_path.rglob("*")) == files


def test_nls_cache_record_lacking_a_needed_tolerance_is_a_miss(tmp_path, monkeypatch):
    # an NLS curve is cached as one record of its t, rho and re-stepped
    # crossings; a record that lacks a tolerance its rho reaches is
    # recomputed, and the cache mended
    _check_a_mangled_record_is_recomputed_once(
        tmp_path, monkeypatch,
        lambda record: dict(record, crossings=record["crossings"][1:]))


def test_a_cache_record_of_crossing_triples_is_recomputed_once(tmp_path, monkeypatch):
    # a record of [tolerance, t_cross, null] triples, the former layout,
    # is a miss, recomputed once and rewritten as pairs
    _check_a_mangled_record_is_recomputed_once(
        tmp_path, monkeypatch,
        lambda record: dict(record, crossings=[[e, t, None] for e, t in record["crossings"]]))


@pytest.mark.parametrize("mangle", [
    lambda record: dict(record, code="0" * 64),
    lambda record: {k: v for k, v in record.items() if k != "code"},
], ids=["other-code", "no-code"])
def test_a_record_other_source_wrote_is_recomputed_once(tmp_path, monkeypatch, mangle):
    # a record keeps the digest of the package source that computed it: one
    # another source wrote, or one with no digest (the former layout), is a
    # miss, recomputed once and rewritten in place, under the same config
    # hash
    _check_a_mangled_record_is_recomputed_once(tmp_path, monkeypatch, mangle)


def test_an_edit_to_any_module_changes_the_source_digest(tmp_path, monkeypatch):
    # the digest covers every module of the package, comments included,
    # not only those that compute curves
    package = Path(epnls.sweep.__file__).parent
    real = epnls.sweep._source_digest()
    copy = tmp_path / "epnls"
    copy.mkdir()
    for source in package.glob("*.py"):
        (copy / source.name).write_bytes(source.read_bytes())
    monkeypatch.setattr(epnls.sweep, "__file__", str(copy / "sweep.py"))
    digest = epnls.sweep._source_digest.__wrapped__
    seen = [digest()]
    for module in sorted(copy.glob("*.py")):
        module.write_bytes(module.read_bytes() + b"# an edit\n")
        seen.append(digest())
    assert seen[0] == real
    assert len(set(seen)) == len(seen) == 1 + len(list(package.glob("*.py"))) >= 9


def test_a_sweep_without_a_cache_reads_no_source(monkeypatch):
    def unread():
        raise AssertionError("the package source was read")

    monkeypatch.setattr(epnls.sweep, "_source_digest", unread)
    assert len(run_algorithm_a(SweepConfig(**FAST_EP)).crossings) == 3


def test_a_sweep_reads_each_crossing_once(tmp_path, monkeypatch):
    # every crossing is read once, by its re-step: find_crossing reads
    # none of them, cold or warm, and is called only to say why a curve
    # never reaches a tolerance within T
    cfg = SweepConfig(**FOUR_NLS_CURVES, cache_dir=str(tmp_path))
    calls, read = [], epnls.sweep.find_crossing

    def counted(curve, epsilon, *args):
        calls.append(epsilon)
        return read(curve, epsilon, *args)

    monkeypatch.setattr(epnls.sweep, "find_crossing", counted)
    cold = run_algorithm_a(cfg)
    missed = [f["epsilon"] for f in cold.failures if "epsilon" in f]
    assert len(cold.crossings) == 4 and len(missed) == 2
    assert sorted(calls) == sorted(missed)
    calls.clear()
    warm = run_algorithm_a(cfg)
    assert sorted(calls) == sorted(missed)
    assert [r.t_cross for r in warm.crossings] == [r.t_cross for r in cold.crossings]


def test_a_former_csv_and_sidecar_cache_is_ignored(tmp_path, monkeypatch):
    # a cache of the former layout, each curve a t,rho CSV beside a JSON
    # sidecar of its crossings, is never read: every curve is computed
    # once and cached as one record, and the former files stay as they are
    cfg = SweepConfig(**FOUR_NLS_CURVES, cache_dir=str(tmp_path))
    cold = run_algorithm_a(cfg)
    records = [Path(curve_path(str(tmp_path), cfg, *spec, cache=True))
               for spec in curve_specs(cfg)]
    blobs = [p.read_bytes() for p in records]
    former = []
    for path in records:
        record = json.loads(path.read_text())
        path.unlink()
        write_csv(str(path.with_suffix(".csv")), ["t", "rho"],
                  zip(record["t"], record["rho"]))
        path.with_suffix(".crossings.json").write_text(json.dumps(record["crossings"]))
        former += [path.with_suffix(".csv"), path.with_suffix(".crossings.json")]
    former_blobs = [p.read_bytes() for p in former]
    computed, compute = [], epnls.sweep._compute_curves

    def counted(c, specs):
        computed.append(specs)
        return compute(c, specs)

    monkeypatch.setattr(epnls.sweep, "_compute_curves", counted)
    warm = run_algorithm_a(cfg)
    assert computed == [curve_specs(cfg)]
    assert [p.read_bytes() for p in records] == blobs
    assert [p.read_bytes() for p in former] == former_blobs
    assert len(list(tmp_path.rglob("*"))) == 2 + len(records) + len(former)  # 2 dirs
    assert [r.t_cross for r in warm.crossings] == [r.t_cross for r in cold.crossings]


def test_repeat_runs_bitwise_identical():
    cfg = SweepConfig(**FAST_EP)
    a = run_algorithm_a(cfg)
    b = run_algorithm_a(cfg)
    assert _bits(a.curves) == _bits(b.curves)
    assert [r.t_cross for r in a.crossings] == [r.t_cross for r in b.crossings]


def test_worker_pool_matches_sequential():
    kw = dict(model="ep", N=64, T=1.0, alpha_set=(0.0, 0.2),
              epsilon_set=(1e-2, 3e-3, 1e-3))
    seq = run_algorithm_a(SweepConfig(**kw, workers=1))
    par = run_algorithm_a(SweepConfig(**kw, workers=3))
    assert [r.t_cross for r in seq.crossings] == [r.t_cross for r in par.crossings]


def test_horizon_too_short_reported_not_fatal():
    # T = 0.2 never lets rho reach 1e-2 at delta = 1 (crossing ~ 0.73),
    # so every record fails but the sweep still returns a result
    cfg = SweepConfig(model="ep", N=64, T=0.2, alpha_set=(0.0,),
                      epsilon_set=(1e-2, 5e-3, 2e-3))
    res = run_algorithm_a(cfg)
    assert res.crossings == []
    assert len(res.failures) == 4  # 3 crossings + 1 regression
    assert all("never reaches" in f["error"] for f in res.failures[:3])
    assert res.meta_slope is None


def test_composite_comparator_runs():
    cfg = SweepConfig(model="ep", N=64, T=1.0, alpha_set=(0.0,),
                      epsilon_set=(1e-2, 3e-3, 1e-3),
                      comparator="composite", c1=0.5)
    res = run_algorithm_a(cfg)
    assert len(res.curves) == 3  # one per epsilon: t1 depends on epsilon
    assert len(res.crossings) == 3


def _full_lattice_comparator_symbols(c, grid, params, comps):
    """_comparator_symbols as it was before its rows were built on the
    |k|^2 levels: the same symbols and products on the full lattice (the
    public symbols equal their full-lattice formulas bitwise, as
    tests/test_evolution.py checks)."""
    if c.comparator == "linear-nls":
        return lambda t: free_symbol(grid, t)[None]
    t1s = [0.0 if e is None else c.c1 * np.sqrt(e) for e in comps]
    seeds = [composite_seed(grid, params, t1) for t1 in t1s]

    def symbols(t):
        free = free_symbol(grid, t) if t <= max(t1s) else None
        if t > min(t1s):
            u11, u12, _ = linear_pair_propagator(grid, c.gamma, c.omega0, t)
        return np.stack([free if t <= t1 else u11 * b_phi + u12 * b_psi
                         for t1, (b_phi, b_psi) in zip(t1s, seeds)])

    return symbols


@pytest.mark.parametrize("kw, comps", [
    (dict(model="ep"), [None]),
    (dict(model="ep", n=2, N=64), [None]),
    (dict(model="nls"), [None]),
    (dict(model="ep", comparator="composite", c1=1.0), [1e-2, 3e-3, 1e-3]),
    (dict(model="ep", n=2, N=64, comparator="composite", c1=1.0), [1e-2, 3e-3, 1e-3]),
], ids=["systemB-1d", "systemB-2d", "nls", "composite-1d", "composite-2d"])
def test_comparator_rows_on_levels_are_bitwise_the_full_lattice_rows(
        monkeypatch, kw, comps):
    c = SweepConfig(**kw)
    even, params, _ = epnls.sweep.solver_setup(c)
    assert isinstance(even, EvenGrid)
    sizes = []

    def spy(name):
        orig = getattr(epnls.sweep, name)

        def counted(k_sq, *args):
            sizes.append(k_sq.size)
            return orig(k_sq, *args)

        monkeypatch.setattr(epnls.sweep, name, counted)

    for name in ("_free_symbol_of", "_pair_propagator_of", "_composite_seed_of"):
        spy(name)
    # the sweep's grid, and the full lattice it stands for
    for grid in (even, Grid(c.n, c.N, c.L)):
        rows = epnls.sweep._comparator_symbols(c, grid, params, comps)
        reference = _full_lattice_comparator_symbols(c, grid, params, comps)
        # the composite's t1 = sqrt(epsilon) are 0.1, 0.055 and 0.032: times
        # before, at, between and after them
        times = (0.0, 0.02, 0.04, 0.1, 0.2, 1.5)
        for t in times:
            assert rows(t).shape == (len(comps), grid.k_levels.size)
            assert np.array_equal(grid.gather(rows(t)), reference(t))
        # a block of times, on both sides of every t1, and blocks on one
        # side: each time's rows bitwise its rows alone
        for block in (times, times[:2], times[-2:]):
            assert np.array_equal(rows(np.array(block)),
                                  np.stack([rows(t) for t in block]))
    # both grids have the same levels, and every symbol the sweep evaluates
    # itself is evaluated on them: 526 of 4,096 modes (1,089 stored) in 2D
    # at N = 64, 65 of 128 (65 stored) in 1D at N = 128
    assert np.array_equal(even.k_levels, grid.k_levels)
    assert set(sizes) == {grid.k_levels.size}


def test_nls_meta_fit_small():
    cfg = SweepConfig(model="nls", N=128, T=0.05, dt=5e-5,
                      alpha_set=(0.0, 0.1), epsilon_set=(1e-2, 3e-3, 1e-3))
    res = run_algorithm_a(cfg)
    assert isinstance(res, AlgorithmAResult)
    for b in res.betas:
        assert b.beta == pytest.approx(1.0 - 2.0 * b.alpha, abs=0.02)
    assert res.theory_slope == -2.0
    assert res.theory_intercept == 1.0


# ---------------------------------------------------------------- engine

# four curves from four distinct amplitudes
FOUR_CURVES = dict(model="ep", N=64, T=1.0, alpha_set=(0.0, 0.2),
                   epsilon_set=(1e-2, 3e-3, 1e-3))


def _bits(curves):
    return [(c.delta, c.times.tobytes(), c.rho.tobytes()) for c in curves]


def _needed_tolerance(cfg, spec):
    """The largest tolerance >= the floor read off the curve of spec (0 if
    there is none)."""
    composite = cfg.comparator == "composite"
    return max((e for a in cfg.alpha_set for e in cfg.epsilon_set
                if (cfg.delta_for(a, e), e if composite else None) == spec
                and e >= cfg.epsilon_floor), default=0.0)


def _stop_prefix(cfg, spec, curve):
    """A full-horizon curve of spec cut where the sweep stops it: at the
    first sample where rho reaches its needed tolerance, or at T if it
    never does."""
    above = np.flatnonzero(curve.rho >= _needed_tolerance(cfg, spec))
    end = above[0] + 1 if len(above) else len(curve.rho)
    return ErrorCurve(delta=curve.delta, times=curve.times[:end], rho=curve.rho[:end])


def _reference_curve(c, delta, epsilon_comp=None):
    """rho(t) the slow way: full-state trajectories of the truth and the
    comparator, diffed in physical space."""
    grid = make_grid(c.n, c.N, c.L)
    params = ModelParams(g=c.g, gamma=c.gamma, omega0=c.omega0, p=c.p, s=c.s)
    step = solver_setup(c)[2]
    phi0 = gaussian_initial(grid, delta)
    if c.model == "nls":
        truth = evolve_nls(phi0, params, step, c.T)
        comp = Trajectory(times=truth.times, policy="full", s=c.s,
                          phi=[free_propagate(phi0, t) for t in truth.times])
    else:
        truth = evolve_ep(zero_state(phi0), params, step, c.T)
        if c.comparator == "composite":
            comp = evolve_composite_tilde(phi0, params, c.c1, epsilon_comp, truth.times)
        else:
            comp = evolve_linear_b(zero_state(phi0), params,
                                   sample_times=truth.times)
    return relative_error_curve(comp, truth, c.s, delta=delta)


@pytest.mark.parametrize("kw, delta, eps_comp", [
    (dict(model="ep", N=64, T=1.0), 0.5, None),
    (dict(model="ep", n=2, N=16, L=6.0, T=1.0, dt=1e-2, comparator="composite",
          c1=1.0), 1.0, 4e-2),
    (dict(model="nls", N=64, T=0.02, dt=1e-4), 0.7, None),
    (dict(model="nls", N=64), 0.7, None),  # the default clock
])
def test_engine_matches_full_state_reference(kw, delta, eps_comp):
    cfg = SweepConfig(**kw)
    fast = compute_error_curve(cfg, delta, eps_comp)
    slow = _reference_curve(cfg, delta, eps_comp)
    assert np.array_equal(fast.times, slow.times)
    assert fast.rho[0] == 0.0
    # the reference diffs physical fields whose rounding is ~1e-16 of
    # their norm, i.e. ~1e-16/rho of rho: compare where that is < 1e-10
    visible = slow.rho > 1e-6
    assert visible.sum() > len(slow.rho) // 2
    rel = np.abs(fast.rho[visible] - slow.rho[visible]) / slow.rho[visible]
    assert np.max(rel) < 1e-9


@pytest.mark.parametrize("kw", [
    dict(model="ep", N=64),
    dict(model="ep", n=2, N=64, comparator="composite", c1=1.0, alpha_set=(0.0, 0.2),
         epsilon_set=tuple(np.logspace(-2.0, -3.0, 4))),
    # dt = 1e-3: on the default clock some curves stop at sample 1
    dict(model="nls", N=64, dt=1e-3),
], ids=["ep-1d", "composite-2d", "nls"])
def test_even_subspace_sweep_matches_the_full_grid(monkeypatch, kw):
    # the sweep's initial data are even in every coordinate and stay so:
    # stepped on the even subspace and on the full grid, the curves agree
    # to rounding, and so do the crossings
    cfg = SweepConfig(**kw)
    results = []
    for cutoff in (64, 32):  # even subspace, then the full grid
        monkeypatch.setattr(epnls.sweep, "_EVEN_MAX_N", cutoff)
        grid, _, _ = epnls.sweep.solver_setup(cfg)
        assert grid.shape == ((33,) if cutoff == 64 else (64,)) * cfg.n
        results.append(run_algorithm_a(cfg))
    even, full = results
    assert [len(c.times) for c in even.curves] == [len(c.times) for c in full.curves]
    for a, b in zip(even.curves, full.curves):
        visible = b.rho > 1e-6
        assert visible.sum() > len(b.rho) // 2
        np.testing.assert_allclose(a.rho[visible], b.rho[visible], rtol=1e-10, atol=0)
    assert len(even.crossings) == len(full.crossings) >= 8
    for a, b in zip(even.crossings, full.crossings):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        assert a.t_cross == pytest.approx(b.t_cross, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("kw, n_curves", [
    (dict(FOUR_CURVES, comparator="systemB", c1=0.5), 4),
    (dict(FOUR_CURVES, comparator="composite", c1=0.5), 6),
    (dict(FOUR_CURVES, n=2, N=16, comparator="composite", c1=0.5), 6),
    (dict(FOUR_CURVES, n=3, N=8, comparator="systemB"), 4),
], ids=["systemB-4", "composite-6", "composite-2d", "systemB-3d"])
def test_curve_bits_do_not_depend_on_the_batch(tmp_path, kw, n_curves):
    # composite: delta = 1 serves three comparator epsilons in one batch;
    # in 2D and 3D each even-grid transform is a gemm per batch row and
    # axis, of one shape whatever the batch
    cfg = SweepConfig(**kw)
    specs = curve_specs(cfg)
    alone = [compute_error_curve(cfg, d, e) for d, e in specs]
    # each spec's curve computed alone to its stop, with its crossings
    # re-stepped in a batch of one
    tolerances = epnls.sweep._curve_tolerances(cfg)
    single = [epnls.sweep._curve_batch(cfg, [spec], [tolerances[spec]])[0] for spec in specs]
    full = run_error_curves(cfg)
    pooled = run_error_curves(SweepConfig(**kw, workers=2))
    # half-warm cache: every other curve cached (to T, with the crossings
    # computed alone), the rest computed together
    cached = SweepConfig(**kw, cache_dir=str(tmp_path))
    epnls.sweep._write_cached(
        str(tmp_path), cached,
        [replace(a, crossings=s.crossings) for a, s in zip(alone, single)][::2])
    half_warm = run_error_curves(cached)
    assert len(alone) == n_curves
    # each curve stops where its batch left it: a bitwise prefix of its
    # full-horizon curve computed alone
    prefixes = [_stop_prefix(cfg, spec, c) for spec, c in zip(specs, alone)]
    assert any(len(p.times) < len(c.times) for p, c in zip(prefixes, alone))
    assert sum(len(s.crossings) for s in single) >= 4
    for curves in (full, pooled, half_warm):
        assert _bits(curves) == _bits(prefixes)
        assert [c.crossings for c in curves] == [s.crossings for s in single]


# four NLS curves from four distinct amplitudes, on a clock of dt = 1e-3
# (sample j at j dt), 20 steps to T, where the default clock's are 25 to
# T = 0.2
FOUR_NLS_CURVES = dict(model="nls", N=64, T=0.02, dt=1e-3, alpha_set=(0.0, 0.2),
                       epsilon_set=(1e-2, 3e-3, 1e-3))


def _sweep_bits(result):
    return _bits(result.curves), [(r.alpha, r.epsilon, r.t_cross) for r in result.crossings]


@pytest.mark.parametrize("kw", [
    FOUR_CURVES,
    dict(FOUR_CURVES, n=2, N=32, comparator="composite", c1=0.5),
    FOUR_NLS_CURVES,
    dict(FOUR_NLS_CURVES, T=0.2, dt=8e-3),
], ids=["systemB-1d", "composite-2d", "nls", "nls-default-clock"])
def test_curve_bits_do_not_depend_on_the_block(monkeypatch, kw):
    # one sample per block, the default blocks, and the whole horizon in
    # one block: the same curves (t, rho) and crossings, bitwise
    cfg = SweepConfig(**kw)
    default = _sweep_bits(run_algorithm_a(cfg))
    for block in (1, 2**40):
        monkeypatch.setattr(epnls.sweep, "_BLOCK_POINTS", block)
        monkeypatch.setattr(epnls.sweep, "_BLOCK_SAMPLES", block)
        assert _sweep_bits(run_algorithm_a(cfg)) == default
    assert len(default[1]) >= 3


def _patch_streams(monkeypatch, at_sample):
    """Make epnls.sweep.model_stream call at_sample(j, rows, spectra) on
    each sample j it yields, rows the initial batch rows it still steps."""
    stream = epnls.sweep.model_stream

    def patched(model, grid, params, step, T, phi_hat, psi_hat=None):
        rows = np.arange(len(phi_hat))
        inner = stream(model, grid, params, step, T, phi_hat, psi_hat)
        keep = None
        for j in range(len(sample_times(T, step))):
            if keep is not None:
                rows = rows[keep]
            sample = inner.send(keep)
            at_sample(j, rows, sample[1])
            keep = yield sample

    monkeypatch.setattr(epnls.sweep, "model_stream", patched)


def _sample_by_sample(monkeypatch, cfg):
    """The curves of cfg measured one sample per block, and the number of
    samples each batch row (one curve each) needs."""
    monkeypatch.setattr(epnls.sweep, "_BLOCK_POINTS", 1)
    monkeypatch.setattr(epnls.sweep, "_BLOCK_SAMPLES", 1)
    curves = run_error_curves(cfg)
    monkeypatch.undo()
    ends = np.array([len(c.times) for c in curves])
    assert len(set(ends)) > 1
    return curves, ends


def test_kernel_error_past_a_stop_reruns_the_batch_sample_by_sample(monkeypatch):
    # a kernel error while a row whose curve has stopped is still stepped
    # is one a sweep measured sample by sample never meets, so the sweep
    # must still return its curves.  On a clock of dt = 5e-4 a block of
    # three samples steps a stopped row
    cfg = SweepConfig(**dict(FOUR_NLS_CURVES, dt=5e-4))
    reference, ends = _sample_by_sample(monkeypatch, cfg)
    raised = []

    def fail(j, rows, spectra):
        if np.any(ends[rows] <= j):
            raised.append(j)
            raise SolverBlowupError(j * cfg.dt, j)

    _patch_streams(monkeypatch, fail)
    assert _bits(run_error_curves(cfg)) == _bits(reference)
    assert raised  # the blocks stepped a stopped row, and the batch reran


def test_vanishing_truth_past_a_stop_is_no_error(monkeypatch):
    # a zero truth norm is an error only at a sample a curve needs (on the
    # clock above, where a block steps a stopped row)
    cfg = SweepConfig(**dict(FOUR_NLS_CURVES, dt=5e-4))
    reference, ends = _sample_by_sample(monkeypatch, cfg)
    zeroed, streams = [], []

    def vanish(j, rows, spectra):
        stopped = ends[rows] <= j
        zeroed.append(stopped.any())
        spectra[0][stopped] = 0.0
        if j == 0:
            streams.append(rows)

    _patch_streams(monkeypatch, vanish)
    assert _bits(run_error_curves(cfg)) == _bits(reference)
    assert any(zeroed)
    # the blocks met the zero norm, and the batch was measured again one
    # sample per block, where no stopped row is stepped (one pass when clean)
    assert len(streams) == 2


def test_nls_blocks_fill_the_room_max_points_leaves(monkeypatch):
    # an NLS block's stack holds one field row per batch row, where EP's
    # holds two: a max_points that leaves room for three samples of the
    # four amplitudes' stack (4 truth and 4 difference rows, twice over
    # for temporaries) beside their arrays and six crossings gives every
    # block three samples while all four amplitudes step, the first
    # block included (on a clock of dt = 5e-4, whose shortest curve is
    # eight such blocks long)
    kw = dict(FOUR_NLS_CURVES, dt=5e-4)
    cfg = SweepConfig(**kw)
    points = epnls.sweep._grid_points(cfg)
    room = epnls.sweep._batch_points(cfg, 4, 4, 6) + 2 * points * (4 + 4) * 3
    sizes, symbols = [], epnls.sweep._comparator_symbols

    def recorded(*args):
        inner = symbols(*args)

        def at(t, **kwargs):  # each block's sample times, then the re-step's
            sizes.append(np.size(t))
            return inner(t, **kwargs)

        return at

    monkeypatch.setattr(epnls.sweep, "_comparator_symbols", recorded)
    curves = run_error_curves(SweepConfig(**kw, max_points=room))
    shortest, blocks = min(len(c.times) for c in curves), []
    while sum(blocks) < shortest:
        blocks.append(sizes[len(blocks)])
    assert blocks == [3] * 8


def _blocks(monkeypatch, cfg):
    """(samples, amplitudes stepped) of each block of cfg's sweep, read off
    its norm calls: a block's call follows the samples it measures, and a
    re-step's follows none."""
    blocks, samples = [], []
    _patch_streams(monkeypatch, lambda j, rows, spectra: samples.append(len(rows)))
    norm = epnls.sweep.hs_norm_from_fft

    def counted(*args):
        if samples:
            assert len(set(samples)) == 1  # a block steps the same rows throughout
            blocks.append((len(samples), samples[0]))
            samples.clear()
        return norm(*args)

    monkeypatch.setattr(epnls.sweep, "hs_norm_from_fft", counted)
    run_error_curves(cfg)
    monkeypatch.undo()
    return blocks


# the ep_2d_composite benchmark's sweep at its reference ladder: five
# amplitudes of 33 x 33 stored points
EP_2D_COMPOSITE = dict(n=2, N=64, comparator="composite", c1=1.0, alpha_set=(0.0, 0.2),
                       epsilon_set=tuple(np.logspace(-2.0, -3.0, 4)))


def test_2d_composite_blocks_of_three_and_its_bits_do_not_depend_on_them(monkeypatch):
    # 5 x 1,089 stored points per sample: three samples per block while all
    # five amplitudes step, and the curves and crossings of one sample per
    # block, bitwise
    cfg = SweepConfig(**EP_2D_COMPOSITE)
    blocks = _blocks(monkeypatch, cfg)
    full = [k for k, rows in blocks if rows == 5]
    assert len(full) >= 2 and set(full) == {3}
    assert max(k for k, _ in blocks) == 3
    default = _sweep_bits(run_algorithm_a(cfg))
    monkeypatch.setattr(epnls.sweep, "_BLOCK_POINTS", 1)
    monkeypatch.setattr(epnls.sweep, "_BLOCK_SAMPLES", 1)
    assert _sweep_bits(run_algorithm_a(cfg)) == default
    assert len(default[1]) == 8


def test_default_nls_sweep_steps_no_block_past_three_samples(monkeypatch):
    # the one-amplitude tail too: a retired amplitude is stepped at most
    # two samples past its stop
    blocks = _blocks(monkeypatch, SweepConfig(model="nls"))
    assert max(k for k, _ in blocks) == 3
    assert blocks[0] == (3, 18)


def test_2d_grid_of_128_measures_five_amplitudes_one_sample_per_block(monkeypatch):
    # 5 x 65^2 stored points exceed _BLOCK_POINTS: the stack stays one
    # sample's while the batch holds five amplitudes
    blocks = _blocks(monkeypatch, SweepConfig(**dict(EP_2D_COMPOSITE, N=128)))
    full = [k for k, rows in blocks if rows == 5]
    assert len(full) >= 5 and set(full) == {1}


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("error", ["kernel", "vanishing-truth"])
def test_an_error_a_curve_needs_is_the_sweeps_error(monkeypatch, which, error):
    # at the last sample of the shortest curve or of the longest: the same
    # error and message whatever the block.  Blocks of one sample (by
    # _BLOCK_SAMPLES, or by a max_points with no room for more) step only
    # rows with a running curve, so they stream the batch once; the default
    # blocks may step a stopped row, so they stream it again.  On a clock
    # of dt = 5e-4, sample j is at t = j / 2000
    kw = dict(FOUR_NLS_CURVES, dt=5e-4)
    cfg = SweepConfig(**kw)
    _, ends = _sample_by_sample(monkeypatch, cfg)
    sample = (min(ends) if which == "first" else max(ends)) - 1
    row = int(np.argmin(ends) if which == "first" else np.argmax(ends))
    streams = []

    def fail(j, rows, spectra):
        if j == 0:
            streams.append(rows)
        if j == sample and error == "kernel":
            raise SolverBlowupError(j * cfg.dt, j)
        if j == sample:
            spectra[0][rows == row] = 0.0

    kind = SolverBlowupError if error == "kernel" else ZeroDivisionError
    # the four amplitudes' arrays and the six crossings they hold
    no_room = epnls.sweep._batch_points(cfg, 4, 4, 6)
    messages, passes = [], []
    default = epnls.sweep._BLOCK_POINTS, epnls.sweep._BLOCK_SAMPLES
    for block, max_points in (((1, 1), cfg.max_points), (default, no_room),
                              (default, cfg.max_points)):
        monkeypatch.setattr(epnls.sweep, "_BLOCK_POINTS", block[0])
        monkeypatch.setattr(epnls.sweep, "_BLOCK_SAMPLES", block[1])
        _patch_streams(monkeypatch, fail)
        streams.clear()
        with pytest.raises(kind) as err:
            run_error_curves(SweepConfig(**kw, max_points=max_points))
        messages.append(str(err.value))
        passes.append(len(streams))
        monkeypatch.undo()
    assert messages == messages[:1] * 3
    assert passes == [1, 1, 2]
    if error == "vanishing-truth":
        delta = curve_specs(cfg)[row][0]
        assert messages[0] == (f"truth norm underflow at t = {sample / 2000:.6g} "
                               f"for delta = {delta:.6g}")


def _norm_calls(monkeypatch):
    calls = []
    norm = epnls.sweep.hs_norm_from_fft

    def counted(*args):
        calls.append(1)
        return norm(*args)

    monkeypatch.setattr(epnls.sweep, "hs_norm_from_fft", counted)
    return calls


def test_max_points_without_room_for_a_block_measures_each_sample(monkeypatch):
    # four amplitudes of 33 stored points: three samples per block by
    # default, one where max_points is just the batch's own arrays and the
    # six crossings it holds
    cfg = SweepConfig(**FOUR_NLS_CURVES)
    batch = epnls.sweep._batch_points(cfg, 4, 4, 6)
    calls = _norm_calls(monkeypatch)
    blocks = run_error_curves(cfg)
    assert len(calls) < 10
    calls.clear()
    tight = run_error_curves(SweepConfig(**FOUR_NLS_CURVES, max_points=batch))
    assert len(calls) == max(len(c.times) for c in tight)
    assert _bits(tight) == _bits(blocks)


@pytest.mark.parametrize("kw", [
    FOUR_CURVES,
    dict(FOUR_CURVES, comparator="composite", c1=0.5),
    dict(model="nls", N=64, T=0.024, alpha_set=(0.0, 0.2), epsilon_set=(1e-2, 3e-3, 1e-3)),
], ids=["systemB", "composite", "nls"])
def test_curves_carry_their_curve_specs_key(tmp_path, monkeypatch, kw):
    # computed in one process, in two, and served from the cache: every
    # curve carries the (delta, epsilon_comp) key curve_specs gives it
    specs = curve_specs(SweepConfig(**kw))
    computed = run_error_curves(SweepConfig(**kw, cache_dir=str(tmp_path)))
    pooled = run_error_curves(SweepConfig(**kw, workers=2))
    _no_batches(monkeypatch)
    cached = run_error_curves(SweepConfig(**kw, cache_dir=str(tmp_path)))
    for curves in (computed, pooled, cached):
        assert [(c.delta, c.epsilon_comp) for c in curves] == specs


def test_max_points_bounds_one_amplitudes_batch():
    # a config whose largest batch member cannot fit is rejected before any
    # run: one amplitude alone, and delta = 1 serving three composite
    # tolerances, on arrays of the 33 points the N = 64 even subspace stores,
    # each with room to re-step one crossing, and one point per curve for
    # each of the 11 samples of dt = 0.1 to T = 1
    member = 33 * (epnls.sweep._ARRAYS_PER_MEMBER["ep"] + epnls.sweep._ARRAYS_PER_CROSSING) + 11
    extra = 33 * epnls.sweep._ARRAYS_PER_EXTRA_CURVE + 11
    composite = dict(FAST_EP, comparator="composite", c1=0.5)
    for kw, points in ((FAST_EP, member), (composite, member + 2 * extra)):
        assert SweepConfig(**kw, max_points=points).max_points == points
        with pytest.raises(ValueError, match=f"needs {points} points, which exceeds "
                           f"the memory cap of {points - 1} points"):
            SweepConfig(**kw, max_points=points - 1)
    # 24 arrays of the 65^3 points a 3D N = 128 sweep stores fit the default
    # cap of 2^24; 24 of the 512^3 full grid do not (and 21 samples)
    assert SweepConfig(n=3, N=128).max_points == DEFAULT_MAX_POINTS
    with pytest.raises(ValueError, match="needs 3221225493 points"):
        SweepConfig(n=3, N=512)


def test_max_points_counts_every_sample_before_any_is_built(monkeypatch):
    # one point per curve per sample, of at most T / dt + 1 samples, checked
    # by arithmetic: 20,001 samples of dt = 1e-5 to T = 0.2 exceed a cap
    # just above the grid's arrays, and no sample time is built
    kw = dict(model="nls", N=16, T=0.2, alpha_set=(0.0,), epsilon_set=(1e-2,))
    grid_arrays = 9 * (epnls.sweep._ARRAYS_PER_MEMBER["nls"] + epnls.sweep._ARRAYS_PER_CROSSING)
    assert SweepConfig(**kw, max_points=grid_arrays + 401).max_points == grid_arrays + 401

    def refuse(*args):
        raise AssertionError("sample times were built")

    monkeypatch.setattr(epnls.sweep, "sample_times", refuse)
    message = (f"needs {grid_arrays + 20001} points, which exceeds the memory cap of "
               f"{grid_arrays + 1} points (with 20001 samples per curve at dt = 1e-05 to T = 0.2)")
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepConfig(**kw, dt=1e-5, max_points=grid_arrays + 1)


@pytest.mark.parametrize("n, N, even_max_n", [
    (1, 256, None), (1, 512, None), (2, 256, None), (2, 512, None), (3, 256, None),
    (3, 32, 16),  # a 512^3 Grid's own arrays take gigabytes, so a lower cutoff
])
def test_the_guard_counts_the_points_the_sweep_grid_stores(monkeypatch, n, N, even_max_n):
    # one unit on both sides of _EVEN_MAX_N: (N/2 + 1)^n on the even
    # subspace, N^n on the full grid
    if even_max_n is not None:
        monkeypatch.setattr(epnls.sweep, "_EVEN_MAX_N", even_max_n)
    kw = dict(n=n, N=N, T=0.1, alpha_set=(0.0,), epsilon_set=(1e-2,), max_points=2**26)
    cfg = SweepConfig(**kw)
    points = epnls.sweep.solver_setup(cfg)[0].level_index.size
    assert points == (N // 2 + 1 if N <= epnls.sweep._EVEN_MAX_N else N) ** n
    assert epnls.sweep._grid_points(cfg) == points
    # and one point for each sample of the one curve
    member = (epnls.sweep._ARRAYS_PER_MEMBER["ep"] + epnls.sweep._ARRAYS_PER_CROSSING) * points
    member += round(cfg.T / cfg.dt) + 1
    with pytest.raises(ValueError, match=f"needs {member} points, which exceeds"):
        SweepConfig(**dict(kw, max_points=member - 1))


def test_tiny_max_points_splits_the_batch_bitwise_identically(monkeypatch):
    whole = run_error_curves(SweepConfig(**FOUR_CURVES))
    sizes, held = [], []
    batch, restep = epnls.sweep._curve_batch, epnls.sweep._restep_crossings

    def spy(c, specs, tolerances=None):
        sizes.append(len(specs))
        return batch(c, specs, tolerances)

    def spy_restep(c, grid, params, symbols, crossings, rows):
        held.append(len(crossings))
        return restep(c, grid, params, symbols, crossings, rows)

    monkeypatch.setattr(epnls.sweep, "_curve_batch", spy)
    monkeypatch.setattr(epnls.sweep, "_restep_crossings", spy_restep)
    # N = 64 stores 33 points; delta = 1 re-steps three crossings, two
    # other amplitudes one each, and 1e-2^0.2 stays below 1e-2 up to T.
    # Each curve counts one point per sample, 11 of dt = 0.1 to T = 1
    member = 33 * epnls.sweep._ARRAYS_PER_MEMBER["ep"] + 11
    crossing = 33 * epnls.sweep._ARRAYS_PER_CROSSING
    # room for two amplitudes with four crossings: two batches, each
    # re-stepping all its crossings in one set of rounds at its end ...
    split = run_error_curves(SweepConfig(**FOUR_CURVES, max_points=2 * member + 4 * crossing))
    assert (sizes, held) == ([2, 2], [3, 2])
    # ... and for one amplitude holding one crossing: one batch per
    # amplitude, and delta = 1 runs the rounds of each held crossing before
    # it holds the next (an early flush)
    sizes.clear(), held.clear()
    tight = run_error_curves(SweepConfig(**FOUR_CURVES, max_points=member + crossing))
    assert (sizes, held) == ([1, 1, 1, 1], [1] * 5)
    for curves in (split, tight):
        assert _bits(curves) == _bits(whole)
        assert [c.crossings for c in curves] == [c.crossings for c in whole]
    assert [len(c.crossings) for c in whole] == [3, 0, 1, 1]


# ---------------------------------------------------------------- stop rule


def _no_batches(monkeypatch):
    """Make computing any curve fail, to show a run is served from cache."""
    def refuse(*args):
        raise AssertionError("a curve was computed")

    monkeypatch.setattr(epnls.sweep, "_curve_batch", refuse)


@pytest.mark.parametrize("floor", [1e-6, 2e-3])
def test_curves_end_at_their_last_needed_crossing(floor):
    # floor 2e-3 leaves the delta = 1e-3^0.2 curve no tolerance to reach
    cfg = SweepConfig(**FOUR_CURVES, epsilon_floor=floor)
    samples = len(compute_error_curve(cfg, 1.0).times)
    kinds = set()
    for spec, curve in zip(curve_specs(cfg), run_error_curves(cfg)):
        tol = _needed_tolerance(cfg, spec)
        assert np.all(curve.rho[:-1] < tol)
        if curve.rho[-1] >= tol:
            kinds.add("at its tolerance" if tol > 0 else "at its first sample")
        else:
            assert len(curve.times) == samples
            kinds.add("at T")
    expected = {"at its tolerance", "at T"}
    assert kinds == (expected if floor < 1e-3 else expected | {"at its first sample"})


def test_cache_record_reads_back_bitwise(tmp_path):
    # JSON writes each float as its shortest repr: t and rho read back
    # bitwise, and a curve that carries no crossings writes an empty list
    cfg = SweepConfig(**FAST_EP)
    curve = replace(compute_error_curve(cfg, 1.0), crossings=None)
    epnls.sweep._write_cached(str(tmp_path), cfg, [curve])
    record = json.loads(Path(curve_path(str(tmp_path), cfg, 1.0, cache=True)).read_text())
    assert record["crossings"] == []
    assert np.array(record["t"]).tobytes() == curve.times.tobytes()
    assert np.array(record["rho"]).tobytes() == curve.rho.tobytes()


def test_full_length_cache_is_served_cut(tmp_path, monkeypatch):
    cfg = SweepConfig(**FOUR_CURVES, cache_dir=str(tmp_path))
    specs = curve_specs(cfg)
    cold = run_error_curves(SweepConfig(**FOUR_CURVES))
    # each full-horizon curve cached with the crossings a sweep re-steps
    full = [replace(compute_error_curve(cfg, *spec), crossings=c.crossings)
            for spec, c in zip(specs, cold)]
    epnls.sweep._write_cached(str(tmp_path), cfg, full)
    files = sorted(tmp_path.rglob("*.json"))
    assert len(files) == len(full)
    blobs = [f.read_bytes() for f in files]
    _no_batches(monkeypatch)
    warm = run_error_curves(cfg)
    assert _bits(warm) == _bits(cold)
    assert [w.crossings for w in warm] == [c.crossings for c in cold]
    assert any(len(w.times) < len(f.times) for w, f in zip(warm, full))
    assert [f.read_bytes() for f in files] == blobs  # a longer cache stays


def test_cached_prefix_short_of_its_tolerance_is_recomputed(tmp_path):
    cfg = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    (cold,) = run_error_curves(cfg)
    assert len(cold.times) < 101  # stopped at 1e-2, before T
    path = Path(curve_path(str(tmp_path), cfg, 1.0, cache=True))
    blob = path.read_bytes()
    # a record cut one sample short of its stop, with the crossings it carried
    epnls.sweep._write_cached(str(tmp_path), cfg,
                              [replace(cold, times=cold.times[:-1], rho=cold.rho[:-1])])
    assert len(json.loads(path.read_text())["t"]) == len(cold.times) - 1
    (again,) = run_error_curves(cfg)
    assert _bits([again]) == _bits([cold])
    assert path.read_bytes() == blob  # the cache is mended


def test_write_csv_writes_floats_at_17_digits_and_the_rest_by_str(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(str(path), ["x", "n", "tag"],
              [(0.1, 3, "a"), (np.float64(1e-300), 10**20, "b")])
    assert path.read_text() == (
        "x,n,tag\n0.10000000000000001,3,a\n1e-300,"
        "100000000000000000000,b\n")


def test_prefix_cached_under_a_larger_tolerance_is_accepted(tmp_path, monkeypatch):
    larger = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    run_error_curves(larger)  # stops where rho reaches 1e-2
    (path,) = tmp_path.rglob("*.json")
    blob = path.read_bytes()
    kw = dict(FAST_EP, epsilon_set=(3e-3, 1e-3))
    (cold,) = run_error_curves(SweepConfig(**kw))
    _no_batches(monkeypatch)
    (warm,) = run_error_curves(SweepConfig(**kw, cache_dir=str(tmp_path)))
    assert _bits([warm]) == _bits([cold])
    assert len(warm.times) < len(json.loads(blob)["t"])  # served cut
    assert path.read_bytes() == blob


def test_a_cached_sweep_hashes_its_config_once_per_pass_over_its_curves(tmp_path,
                                                                        monkeypatch):
    # at most one config_hash per function that reads or writes curves: a
    # cold run's cache reads and its _write_cached, a warm run's reads and
    # write_curves, each at the paths curve_path gives
    cfg = SweepConfig(model="nls", cache_dir=str(tmp_path / "cache"))
    hashes, real = [], epnls.sweep.config_hash
    monkeypatch.setattr(epnls.sweep, "config_hash", lambda c: hashes.append(c) or real(c))
    counts = [len(run_error_curves(cfg)), len(hashes)]
    warm = run_error_curves(cfg)
    counts.append(len(hashes))
    epnls.sweep.write_curves(str(tmp_path / "out"), cfg, warm)
    counts.append(len(hashes))
    monkeypatch.undo()
    assert counts == [18, 2, 3, 4]
    assert sorted(map(str, tmp_path.rglob("*.json"))) == sorted(
        curve_path(cfg.cache_dir, cfg, *spec, cache=True) for spec in curve_specs(cfg))
    assert sorted(map(str, tmp_path.rglob("*.csv"))) == sorted(
        curve_path(str(tmp_path / "out"), cfg, c.delta, c.epsilon_comp) for c in warm)


# ---------------------------------------------------------------- engine cost


def test_max_points_counts_every_curve_of_a_delta(monkeypatch):
    kw = dict(FOUR_CURVES, comparator="composite", c1=0.5)
    whole = run_error_curves(SweepConfig(**kw))
    sizes = []
    batch = epnls.sweep._curve_batch

    def spy(c, specs, tolerances=None):
        sizes.append(len(specs))
        return batch(c, specs, tolerances)

    monkeypatch.setattr(epnls.sweep, "_curve_batch", spy)
    member = epnls.sweep._ARRAYS_PER_MEMBER["ep"]
    extra = epnls.sweep._ARRAYS_PER_EXTRA_CURVE
    crossing = epnls.sweep._ARRAYS_PER_CROSSING
    # arrays of 33 stored points: two amplitudes, two extra curves and
    # four crossings, and one point per curve for each of the 11 samples
    max_points = 33 * (2 * member + 2 * extra + 4 * crossing) + 4 * 11
    split = run_error_curves(SweepConfig(**kw, max_points=max_points))
    # delta = 1 serves three comparator epsilons (member + 2 extra, and
    # one crossing each), so it shares its batch with one more delta only
    assert sizes == [4, 2]
    assert _bits(split) == _bits(whole)


@pytest.mark.parametrize("model, steps, samples", [("ep", 100, 101), ("nls", 100, 101)])
def test_fft_calls_per_step_and_sample(fft_calls, even_transforms, model, steps, samples):
    # every block holds _BLOCK_SAMPLES = 3 samples, where 2^14 // (4 x 17
    # stored points) would admit 240; N = 32 steps the even subspace, whose
    # transforms are no numpy.fft calls
    blocks = _fft_call_blocks(even_transforms, model, steps, samples)
    assert set(np.diff(blocks)) == {3}
    assert fft_calls == []


@pytest.mark.parametrize("model", ["ep", "nls"])
def test_fft_calls_per_step_and_sample_in_small_blocks(even_transforms, monkeypatch, model):
    # 2^7 points of 17 per row: blocks of one sample while four amplitudes
    # step, two while three do and three while two or one do
    monkeypatch.setattr(epnls.sweep, "_BLOCK_POINTS", 2**7)
    blocks = _fft_call_blocks(even_transforms, model, 100, 101)
    assert len(blocks) > 5 and set(np.diff(blocks)) == {1, 2, 3}


@pytest.mark.parametrize("model", ["ep", "nls"])
def test_fft_calls_per_step_and_sample_above_the_even_cutoff(fft_calls, even_transforms,
                                                             model):
    # N = 512 steps the full grid: numpy.fft calls on 512-point rows, in
    # blocks of 3 samples (the cap; 2^14 // (4 x 512) admits 8) while all
    # four amplitudes step
    assert epnls.sweep._EVEN_MAX_N < 512
    assert _fft_call_blocks(fft_calls, model, 100, 101, N=512)[:3] == [0, 3, 6]
    assert even_transforms == []


def _fft_call_blocks(calls, model, steps, samples, N=32):
    """Check the exact transform sizes of a 4-amplitude sweep of N-point
    fields, as ``calls`` records them (the sweep grid's transforms, each a
    numpy.fft call on the full grid), and return the first sample of each
    block (and the end)."""
    if model == "ep":  # a clock of 101 samples, one sixth-order step each
        cfg = SweepConfig(model="ep", N=N, dt=0.02, alpha_set=(0.0, 0.1),
                          epsilon_set=(1e-2, 3e-3, 1e-3))
    else:  # dt = 5e-4: T / dt + 1 samples, one sixth-order step each
        cfg = SweepConfig(model="nls", N=N, T=0.05, dt=5e-4,
                          alpha_set=(0.0, 0.1), epsilon_set=(1e-2, 3e-3, 1e-3))
    specs = curve_specs(cfg)
    lengths = [len(_stop_prefix(cfg, spec, compute_error_curve(cfg, *spec)).times)
               for spec in specs]
    assert len(specs) == 4 and steps + 1 == samples >= max(lengths)
    assert min(lengths) < samples  # some member leaves the batch early
    rounds, jump = [], epnls.restep.jump

    def counted_jump(model, grid, params, spectra, h, count=1):
        assert count == 1  # no bracket starts at t = 0
        rounds.append(len(h))
        return jump(model, grid, params, spectra, h, count)

    calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epnls.restep, "jump", counted_jump)
        curves = run_error_curves(cfg)
    assert [len(c.times) for c in curves] == lengths
    # one transform of the initial photon fields, then 2 per rotation of
    # the composed step (in 1D both models' sixth-order step of 7 stages),
    # of the rotated field alone.  Both loops carry the truth's photon spectrum, so rho
    # costs no transform.  A block from sample i holds
    # K = min(_BLOCK_SAMPLES, _BLOCK_POINTS // (m x P)) samples (at least
    # one, fewer at T), m the amplitudes that some curve needs at sample i
    # and P the points a row stores: N on the full grid and N/2 + 1 on the
    # even subspace.  They are stepped through the block, and leave the
    # batch after it.  Every step moves one field of them (EP transforms
    # only psi).
    # Stepping ends with the last block.  The sweep then re-steps its
    # crossings: one transform of the photon fields of the amplitudes they
    # lie on, and per Newton round one composed step of m rows per slice of m
    # open crossings, 2 transforms per substep.  NLS's slope of rho takes a
    # transform pair per row (evolution.log_rho_rate): at the bracket ends,
    # as many at a time as the batch has amplitudes, and in each round.
    # The count is exact, not a bound: a bound would pass blocks that step
    # members longer than they must
    points = N if N > epnls.sweep._EVEN_MAX_N else N // 2 + 1
    per_step = 2 * 7
    expected, blocks = [4 * points], [0]
    while blocks[-1] < max(lengths):
        i = blocks[-1]
        m = sum(n > i for n in lengths)
        k = max(1, min(epnls.sweep._BLOCK_SAMPLES, epnls.sweep._BLOCK_POINTS // (m * points),
                       samples - i))
        expected += [m * points] * (per_step * (k - (i == 0)))  # sample 0: no step
        blocks.append(i + k)
    # the first round evaluates all six crossings, at most as many at once
    # as the batch stepped amplitudes
    assert sum(len(c.crossings) for c in curves) == 6 and rounds[:2] == [4, 2]
    expected += [len({c.delta for c in curves if c.crossings}) * points]
    slope = 2 if model == "nls" else 0
    for start in range(0, 2 * 6, 4):  # both ends of six crossings
        expected += [min(4, 2 * 6 - start) * points] * slope
    for m in rounds:
        expected += [m * points] * (per_step + slope)
    assert calls == expected
    return blocks


def _traced_peak(cfg, specs, tolerances=None):
    """tracemalloc peak of one batch, in complex arrays of the points the
    sweep's grid stores."""
    import tracemalloc

    points = epnls.sweep.solver_setup(cfg)[0].level_index.size
    tracemalloc.start()
    try:
        epnls.sweep._curve_batch(cfg, specs, tolerances)
        return tracemalloc.get_traced_memory()[1] / (points * 16)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model, n, N", [
    ("ep", 1, 4096), ("nls", 1, 4096), ("ep", 2, 128), ("nls", 2, 128), ("ep", 3, 32),
    ("nls", 3, 32),
], ids=["ep", "nls", "ep-2d-even", "nls-2d-even", "ep-3d-even", "nls-3d-even"])
def test_arrays_per_member_bounds_the_measured_footprint(model, n, N):
    # grids large enough that their arrays dominate the peak: the full grid
    # in 1D, the even subspace (65^2 and 17^3 stored points) in 2D and 3D.
    # EP runs two samples of the clock dt = 0.02, NLS three of its default
    clock = dict(T=0.02, dt=0.02) if model == "ep" else {"T": 0.016}
    cfg = SweepConfig(model=model, n=n, N=N, **clock)

    def peak(batch):
        return _traced_peak(cfg, [(1.0 - 0.1 * i, None) for i in range(batch)])

    per_member = (peak(6) - peak(2)) / 4
    assert per_member <= epnls.sweep._ARRAYS_PER_MEMBER[model]


@pytest.mark.parametrize("model, n, N", [
    ("ep", 1, 4096), ("ep", 2, 128), ("ep", 3, 32),
    ("nls", 1, 4096), ("nls", 2, 128), ("nls", 3, 32),
], ids=["1-4096", "2-128", "3-32", "nls-1-4096", "nls-2-128", "nls-3-32"])
def test_arrays_per_crossing_bounds_the_measured_footprint(model, n, N):
    # held crossings: one amplitude re-stepping 12 crossings against 2
    # (each adds its spectra at both bracket ends, EP's photon and exciton,
    # NLS's photon; the rounds take one row at a time: measured 4.0 and 2.0
    # arrays), and 6 amplitudes with one crossing each against 2 (a round
    # row each beside the held spectra: measured 20.0-20.5 for EP in 1D and
    # 3D, 14.3 in 2D and 10.5 for NLS with the member's arrays; a
    # sixth-order row holds 4 distinct linear maps, 2x2 for EP, where 2D
    # EP's triple jump holds 2, and NLS on the triple jump read 8.4-9.0;
    # the count bounds every model: 24 for EP, 21 for NLS).  The guard's
    # count of the whole batch bounds each peak.  NLS runs three samples of
    # its default clock, with crossings before and after sample 1
    clock = dict(T=1.0, dt=0.1) if model == "ep" else {"T": 0.024}
    cfg = SweepConfig(model=model, n=n, N=N, max_points=2**26, **clock)
    points = epnls.sweep._grid_points(cfg)
    member = epnls.sweep._ARRAYS_PER_MEMBER[model]
    crossing = epnls.sweep._ARRAYS_PER_CROSSING
    many = tuple(np.logspace(-2.0, -3.0, 12))
    peaks = [_traced_peak(cfg, [(1.0, None)], [tolerances]) for tolerances in (many, many[:2])]
    assert (peaks[0] - peaks[1]) / 10 <= crossing
    assert peaks[0] <= epnls.sweep._batch_points(cfg, 1, 1, len(many)) / points
    peaks = [_traced_peak(cfg, [(1.0 - 0.05 * i, None) for i in range(k)], [(1e-3,)] * k)
             for k in (6, 2)]
    assert (peaks[0] - peaks[1]) / 4 <= member + crossing
    assert peaks[0] <= epnls.sweep._batch_points(cfg, 6, 6, 6) / points


@pytest.mark.parametrize("n, N", [(1, 4096), (2, 128), (3, 32)])
def test_guard_counts_the_arrays_of_every_composite_curve(n, N):
    cfg = SweepConfig(model="ep", n=n, N=N, T=0.02, dt=0.02, comparator="composite",
                      c1=0.1)
    eps = [1e-2 / (i + 1) for i in range(6)]
    # one curve per delta, each with its own comparator epsilon ...
    members = [(1.0 - 0.1 * i, e) for i, e in enumerate(eps)]
    per_member = (_traced_peak(cfg, members) - _traced_peak(cfg, members[:2])) / 4
    assert per_member <= epnls.sweep._ARRAYS_PER_MEMBER["ep"]
    # ... and one delta serving every comparator epsilon
    curves = [(1.0, e) for e in eps]
    per_curve = (_traced_peak(cfg, curves) - _traced_peak(cfg, curves[:2])) / 4
    assert per_curve <= epnls.sweep._ARRAYS_PER_EXTRA_CURVE


@pytest.mark.parametrize("kwargs", [{"model": "ep"}, {"model": "nls"},
                                    {"model": "nls", "p": 5.0, "alpha_set": (0.0, 0.1, 0.2)}],
                         ids=["ep", "nls", "nls-p5"])
def test_default_grid_is_converged(kwargs):
    # the default N = 128 against N = 256: the Gaussian's spectrum and its
    # nonlinearity's are below 1e-17 at k_max = 20.1, so every crossing
    # agrees to rounding (measured <= 2.3e-12 relative, and N = 64 moves
    # NLS at p = 5 by 3.7e-8); at p = 5, alpha = 0.2 crosses within T on
    # neither grid
    coarse = run_algorithm_a(SweepConfig(**kwargs))
    fine = run_algorithm_a(SweepConfig(N=256, **kwargs))
    assert coarse.config.N == 128
    assert [f["error"] for f in coarse.failures] == [f["error"] for f in fine.failures]
    assert len(coarse.crossings) == len(fine.crossings) >= 12
    for a, b in zip(coarse.crossings, fine.crossings):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        assert a.t_cross == pytest.approx(b.t_cross, rel=1e-10, abs=0.0)


def _nls_crossing_errors(kw, fine):
    """The relative distance of each crossing of the NLS sweep kw from the
    same crossing of the sweep ``fine``, and the fine crossing's time."""
    result = run_algorithm_a(SweepConfig(model="nls", **kw))
    assert not result.failures and len(result.crossings) == len(fine.crossings) == 24
    errors = []
    for a, b in zip(result.crossings, fine.crossings, strict=True):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        errors.append((abs(a.t_cross / b.t_cross - 1), b.t_cross))
    return errors


def _nls_reference():
    # a clock 64x finer in samples and step than the default
    return run_algorithm_a(SweepConfig(model="nls", dt=1.25e-4))


def test_default_nls_clock_is_converged():
    # the default NLS clock, 26 samples of one sixth-order step of dt =
    # 8e-3 on [0, 0.2], against one 64x finer in samples and step, both
    # re-stepped: every crossing of the default sweep within 5e-11
    # (measured 1.8e-11; 2.7x margin), the six of the alpha = 0 curve
    # among them (its bits do not depend on the batch).  The ladder spans
    # two decades of t: seven crossings lie before sample 1, re-stepped
    # from t = 0, and seven past t = 0.064.  Both sweeps take ~0.2 s
    # together
    errors = _nls_crossing_errors({}, _nls_reference())
    assert max(e for e, _ in errors) <= 5e-11
    assert sum(t < 8e-3 for _, t in errors) >= 7
    assert sum(t > 0.064 for _, t in errors) >= 7


def test_default_nls_dt_is_the_coarsest_that_keeps_the_bound():
    # the next coarser step of whole milliseconds that divides T = 0.2,
    # dt = 1e-2 (20 steps), leaves the 5e-11 bound the test above holds
    # the default to (measured 8.7e-11 against the same reference; 22
    # steps, dt = 9.1e-3, read 4.5e-11), so the default is the coarsest
    # such step that keeps it
    assert SweepConfig(model="nls").dt == 8e-3
    errors = _nls_crossing_errors(dict(dt=1e-2), _nls_reference())
    assert max(e for e, _ in errors) > 5e-11


def test_default_ep_sweep_runs_on_the_uniform_clock(monkeypatch):
    # EP's clock, as every clock, is uniform: its times are bitwise
    # np.arange(n + 1) x interval, and its default sweep's curves are
    # bitwise those of a kernel fed its T and step, which yields those
    # times
    c = SweepConfig(model="ep")
    step = solver_setup(c)[2]
    assert step == StepSpec(dt=c.dt)
    uniform = np.arange(round(c.T / c.dt) + 1) * c.dt
    assert sweep_times(c).tobytes() == uniform.tobytes()
    curves = run_error_curves(c)
    kernel, fed = epnls.sweep.model_stream, []

    def on_uniform_clock(model, grid, params, step, T, *spectra):
        fed.append((step, T))
        inner, keep = kernel(model, grid, params, StepSpec(dt=step.dt), T, *spectra), None
        for u in uniform:
            t, sample = inner.send(keep)
            assert t == u
            keep = yield t, sample

    monkeypatch.setattr(epnls.sweep, "model_stream", on_uniform_clock)
    assert _bits(run_error_curves(c)) == _bits(curves)
    assert fed and all(f == (StepSpec(dt=c.dt), c.T) for f in fed)


COMPOSITE_2D = dict(model="ep", n=2, N=64, comparator="composite", c1=1.0,
                    alpha_set=(0.0, 0.2), epsilon_set=tuple(np.logspace(-2.0, -3.0, 4)))


@pytest.mark.parametrize("kw, fine, largest", [
    (dict(model="ep"), 1e-3, 2e-8),
    (COMPOSITE_2D, 2e-3, 3.4e-5),
    (dict(model="ep", n=3, N=16, alpha_set=(0.0, 0.2)), 2e-3, 3e-8),
], ids=["1d", "2d", "3d"])
def test_default_ep_clock_is_converged(kw, fine, largest):
    # every crossing of a default EP sweep, re-stepped on its clock of
    # dt = 0.1 (the sixth-order step in 1D and 3D, the triple jump in 2D),
    # against the same sweep re-stepped at a fine dt.  1D and 3D system B
    # (N = 16, alphas 0 and 0.2) are held just above their measured 1.67e-8
    # and 2.84e-8, so a return to the triple jump fails here: at dt = 1/30
    # it read 4.5e-7 and 2.2e-7.  The 2D composite is held to the largest
    # error of its former default (dt = 2e-2), 3.4e-5, and measures 1.9e-5.
    # About 0.6 s, 0.7 s and 1 s, nearly all in the fine sweep
    default = run_algorithm_a(SweepConfig(**kw))
    reference = run_algorithm_a(SweepConfig(**kw, dt=fine))
    assert not default.failures and len(default.crossings) == len(reference.crossings) >= 8
    for a, b in zip(default.crossings, reference.crossings, strict=True):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        assert a.t_cross == pytest.approx(b.t_cross, rel=largest, abs=0.0)


def test_finer_dt_buys_its_own_crossing_accuracy(monkeypatch):
    # every sample is one composed step of dt, so a re-step never jumps
    # further than the stream's step: at dt = 1/300 the default 1D EP
    # sweep reads within 1e-10 of dt = 1/900 (measured 6.6e-12, at the
    # floor of the fine clocks; dt = 1/120 reads 7.5e-12, the default
    # dt = 0.1 1.7e-8).  Sampled at a coarser interval than its step, each
    # re-step would jump up to that interval and throw the finer step away.
    # The reference re-steps by eight jumps of h/8, so it is fine whatever
    # it samples
    result = run_algorithm_a(SweepConfig(model="ep", dt=1 / 300))
    jump = epnls.restep.jump
    monkeypatch.setattr(epnls.restep, "jump",
                        lambda model, grid, params, spectra, h, count=1:
                        jump(model, grid, params, spectra, h, 8 * count))
    reference = run_algorithm_a(SweepConfig(model="ep", dt=1 / 900))
    assert not result.failures and len(result.crossings) == len(reference.crossings) == 24
    for a, b in zip(result.crossings, reference.crossings, strict=True):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        assert a.t_cross == pytest.approx(b.t_cross, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("kw, agree", [(dict(model="ep"), 1e-9), (COMPOSITE_2D, 5e-5)],
                         ids=["1d", "2d"])
def test_one_jump_of_h_matches_eight_of_h_over_8(monkeypatch, kw, agree):
    # each Newton evaluation re-steps its bracket by one composed step of h
    # from the left sample; eight jumps of h/8 move every default crossing
    # by one jump's local error: measured 4.4e-10 in 1D on the sixth-order
    # step (6.1e-8 on the triple jump at 1/30), and 3.3e-5 in 2D,
    # where a crossing lies 4 to 12 steps of 0.1 from t = 0, so one jump's
    # error is of the order of the stream's (the fine reference above is
    # 1.9e-5 from one jump and 2.8e-5 from eight)
    cfg = SweepConfig(**kw)
    one = run_algorithm_a(cfg)
    jump = epnls.restep.jump
    monkeypatch.setattr(epnls.restep, "jump",
                        lambda model, grid, params, spectra, h, count=1:
                        jump(model, grid, params, spectra, h, 8 * count))
    eight = run_algorithm_a(cfg)
    assert len(one.crossings) == len(eight.crossings) >= 8
    shifts = [abs(a.t_cross / b.t_cross - 1) for a, b in zip(one.crossings, eight.crossings)]
    assert 0 < max(shifts) < agree


# the ladders whose crossings all lie before sample 1, re-stepped from t = 0
EP_FROM_ZERO = dict(model="ep", T=0.1, alpha_set=(0.0,), epsilon_set=(1e-9, 1e-10, 1e-11),
                    epsilon_floor=1e-12)
NLS_FROM_ZERO = dict(model="nls", T=0.016, alpha_set=(0.0,),
                     epsilon_set=(3e-4, 3e-5, 3e-6), epsilon_floor=1e-7)


@pytest.mark.parametrize("kw, t0, h", [
    (dict(model="ep"), 0.5, 1e-3),
    (dict(model="ep", comparator="composite", c1=1.0), 0.5, 1e-3),
    (dict(model="nls"), 0.05, 1e-4),
], ids=["ep", "composite", "nls"])
def test_the_slope_is_rhos_derivative(kw, t0, h):
    # d log rho / d log t from the model's right-hand side
    # (evolution.log_rho_rate) against t times the fourth-order centred
    # difference of log rho over t0 -+ h, t0 -+ 2h on a fine uniform clock
    # (h / 4): measured within 2.3e-11 (EP), 6.0e-10 (composite) and 1.3e-11
    # (NLS)
    cfg = SweepConfig(**kw)
    grid, params, _ = epnls.sweep.solver_setup(cfg)
    comp = cfg.epsilon_set[0] if cfg.comparator == "composite" else None
    symbols = epnls.sweep._comparator_symbols(cfg, grid, params, [comp])
    phi0_hat = grid.fft(gaussian_rows(grid, [1.0]))
    clock, times, kept = StepSpec(dt=h / 4), [], []
    last = round((t0 + 2 * h) / clock.dt)
    stream = model_stream(cfg.model, grid, params, clock, t0 + 2 * h, phi0_hat.copy())
    for j, (t, spectra) in enumerate(stream):
        if (last - j) % 4 == 0 and last - j <= 16:
            times.append(t)
            kept.append([a[0].copy() for a in spectra])
    stack = np.empty((10,) + grid.shape, np.complex128)
    stack[:5] = [fields[0] for fields in kept]
    others = [np.array(field) for field in list(zip(*kept))[1:]]
    rho, slope = epnls.restep._rho_and_slope(cfg, grid, params, symbols, phi0_hat, [0] * 5,
                                             [0] * 5, np.array(times), stack, others)
    log_rho = np.log(rho)
    rate = (log_rho[0] - 8 * log_rho[1] + 8 * log_rho[3] - log_rho[4]) / (12 * h)
    assert times[2] == pytest.approx(t0, abs=1e-12)
    assert slope[2] == pytest.approx(t0 * rate, rel=1e-9)


@pytest.mark.parametrize("mismatch", [0.0, 1e-3])
def test_newton_finds_a_known_crossing(mismatch):
    # log rho = log eps + 5 u + 0.3 u^2 + 0.5 u^4, u = log(t / t*), crosses
    # eps at t*.  Newton from the bracket [0.8 t*, 1.25 t*] lands within
    # 1e-10 of t* in 2 evaluations (measured 2e-16 and 6.9e-13), also where
    # the slope it is sent departs from rho's own as a re-step's does: not
    # at all at the left end and by up to 1e-3 relative at the right,
    # growing as h^4 (at 1e-2 it takes 3)
    eps, t_star, t_left, t_right = 1e-3, 0.7, 0.56, 0.875
    asked = []

    def end(t):
        u = math.log(t / t_star)
        kappa = mismatch * ((t - t_left) / (t_right - t_left)) ** 4
        return t, eps * math.exp(5 * u + 0.3 * u * u + 0.5 * u**4), \
            (5 + 0.6 * u + 2 * u**3) * (1 + kappa)

    newton = epnls.restep._newton(eps, end(t_left), end(t_right), 5.0)
    try:
        t = next(newton)
        while True:
            asked.append(t)
            t = newton.send(end(t)[1:])
    except StopIteration as stop:
        found = stop.value
    assert found == pytest.approx(t_star, rel=1e-10, abs=0.0) and len(asked) == 2
    assert asked[0] == pytest.approx(t_star, rel=1e-3)  # the Hermite guess


def _evaluations(kw):
    """The re-step evaluations of each crossing of the sweep kw, one entry
    per Newton iteration, checked against the rows of every
    epnls.restep.jump."""
    rows, each, jump, newton = [], [], epnls.restep.jump, epnls.restep._newton

    def counted_jump(model, grid, params, spectra, h, count=1):
        rows.append(len(h))
        return jump(model, grid, params, spectra, h, count)

    def counted_newton(*args):
        each.append(0)
        n, inner = len(each) - 1, newton(*args)
        t = next(inner)
        while True:
            each[n] += 1
            try:
                t = inner.send((yield t))
            except StopIteration as stop:
                return stop.value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epnls.restep, "jump", counted_jump)
        patch.setattr(epnls.restep, "_newton", counted_newton)
        run_algorithm_a(SweepConfig(**kw))
    assert sum(rows) == sum(each)
    assert len(each) == (24 if kw.get("n", 1) == 1 else 8)
    return each


@pytest.mark.parametrize("kw, mean, most", [
    (dict(model="ep"), 36 / 24, 2), (dict(model="nls"), 28 / 24, 2), (COMPOSITE_2D, 2.0, 2),
], ids=["ep", "nls", "2d"])
def test_newton_takes_few_evaluations_per_crossing(kw, mean, most):
    # the default sweeps, seed 0: the exact slope and the Hermite guess
    # through the bracket ends' values and slopes take 36 evaluations for
    # the 24 EP 1D crossings (1.5, at most 2: the sixth-order clock's
    # brackets of 0.1 are 3x those of the former triple jump's 1/30, which
    # took 24), 28 for the 24 NLS crossings (1.167, at most 2: the
    # sixth-order clock's brackets are 8x those of the former triple
    # jump's, which took 24) and 1.875, at most 2, for the 2D composite
    # (the secant took 3.25, at most 4)
    each = _evaluations(kw)
    assert sum(each) / len(each) <= mean and max(each) <= most


@pytest.mark.parametrize("kw, agree", [
    (dict(model="ep"), 1e-10),
    (COMPOSITE_2D, 1e-10),
    (dict(model="ep", n=3, N=16), 1e-10),
    (dict(model="nls"), 1e-10),
    (dict(model="ep", p=5.0), 1e-10),
    (NLS_FROM_ZERO, 1e-10),
    (EP_FROM_ZERO, 1e-6),
], ids=["ep", "2d", "3d", "nls", "ep-p5", "nls-from-0", "ep-from-0"])
def test_newton_stops_close_to_a_tight_run(monkeypatch, kw, agree):
    # every crossing that Newton's estimated error stops at lies within
    # 1e-10 of the same sweep stopped at 1e-16 (measured at most 8.7e-13,
    # in 2D).  EP's ladder from t = 0 crosses at rho = 1e-9 to 1e-11, a
    # difference of O(1) photon spectra that rounding leaves only to about
    # 1e-6 relative: the tight run wanders within that floor (measured
    # 1.8e-8 from it), and so does any stop
    result = run_algorithm_a(SweepConfig(**kw))
    monkeypatch.setattr(epnls.restep, "_NEWTON_TOL", 1e-16)
    tight = run_algorithm_a(SweepConfig(**kw))
    assert len(result.crossings) == len(tight.crossings) >= 3
    for a, b in zip(result.crossings, tight.crossings, strict=True):
        assert (a.alpha, a.epsilon) == (b.alpha, b.epsilon)
        assert a.t_cross == pytest.approx(b.t_cross, rel=agree, abs=0.0)


@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("kw", [dict(model="ep"), dict(model="nls"), COMPOSITE_2D,
                                NLS_FROM_ZERO], ids=["ep", "nls", "2d", "nls-from-0"])
def test_a_crossing_is_bitwise_whatever_shares_its_round(monkeypatch, kw, rows):
    # the rounds, and the slopes at the bracket ends, take as many rows at
    # once as the batch has amplitudes; one row at a time, or every
    # crossing of the batch at once, gives every crossing its bits
    whole = run_error_curves(SweepConfig(**kw))
    restep = epnls.sweep._restep_crossings

    def in_rounds_of(c, grid, params, symbols, held, _):
        return restep(c, grid, params, symbols, held, rows)

    monkeypatch.setattr(epnls.sweep, "_restep_crossings", in_rounds_of)
    again = run_error_curves(SweepConfig(**kw))
    assert [c.crossings for c in again] == [c.crossings for c in whole]
    assert sum(len(c.crossings) for c in whole) >= 3


def _check_crossings_re_stepped_from_t0(monkeypatch, kw, fine, agree, decade, jumps):
    """Every crossing of the one-curve sweep kw lies before its first
    positive sample, where find_crossing reads none: the sweep re-steps it
    from t = 0, by ``jumps`` composed steps per evaluation.  Each lies
    within ``agree`` of the same sweep on the ``fine`` clock, and a decade
    of tolerance moves it by the leading law's ``decade`` (within 1e-3)."""
    counts, jump = [], epnls.restep.jump

    def counted_jump(model, grid, params, spectra, h, count=1):
        counts.append(count)
        return jump(model, grid, params, spectra, h, count)

    monkeypatch.setattr(epnls.restep, "jump", counted_jump)
    result = run_algorithm_a(SweepConfig(**kw))
    monkeypatch.undo()
    assert counts and set(counts) == {jumps}
    reference = run_algorithm_a(SweepConfig(**{**kw, **fine}))
    assert not result.failures and len(result.crossings) == 3
    (curve,) = result.curves
    for record, fine_record in zip(result.crossings, reference.crossings, strict=True):
        assert 0 < record.t_cross < curve.times[1]
        assert record.t_cross == pytest.approx(fine_record.t_cross, rel=agree, abs=0.0)
        with pytest.raises(NoCrossingError, match="before the first positive sample"):
            find_crossing(curve, record.epsilon)
    times = [r.t_cross for r in result.crossings]
    for early, earlier in zip(times, times[1:]):
        assert earlier / early == pytest.approx(decade, rel=1e-3)


def test_ep_crossing_before_the_first_positive_sample_is_re_stepped_from_t0(monkeypatch):
    # on the default 1D clock sample 1 is t = 0.1, where delta = 1 has rho
    # ~ 4.9e-7: tolerances 1e-9 to 1e-11 cross before it.  One triple jump
    # from t = 0 reads them 3.6 % early, as rho ~ t^(p+2) grows as fast as
    # the jump's error, so each evaluation takes 16 jumps (one sixth-order
    # step reads them within 3.3e-6).  They lie within 3e-6 of a fine
    # clock's (dt = 1e-3; measured 2.2e-8, 7.7e-8 and 2.1e-7, at the floor
    # of rho's rounding there) and on the leading law: a decade of
    # tolerance moves the crossing by 10^(-1/5) (measured within 4.2e-5)
    _check_crossings_re_stepped_from_t0(
        monkeypatch,
        dict(model="ep", T=0.1, alpha_set=(0.0,), epsilon_set=(1e-9, 1e-10, 1e-11),
             epsilon_floor=1e-12),
        dict(dt=1e-3), 3e-6, 10 ** (-1 / 5), 16)


def test_nls_crossing_before_the_first_positive_sample_is_re_stepped_from_t0(monkeypatch):
    # on the default NLS clock sample 1 is t = 8e-3, where delta = 1 has rho
    # ~ 7.8e-3: tolerances 3e-4 to 3e-6 cross before it.  rho ~ t, so one
    # jump from t = 0 is as accurate as any re-step.  They lie within 1e-11
    # of a clock of dt = 1e-6 at 10^6 samples per unit time, which brackets
    # each past its own sample 1 (measured 1.7e-13 at most), and on the
    # leading law: a decade of tolerance moves the crossing by a decade
    # (measured within 2.4e-7)
    _check_crossings_re_stepped_from_t0(
        monkeypatch,
        NLS_FROM_ZERO,
        dict(T=0.001, dt=1e-6), 1e-11, 0.1, 1)


def test_signature_writes_the_clock_as_dt_alone():
    # the clock is dt alone, written once, with no growth= and no spu=;
    # the signature names the physics, and no solver revision
    for cfg in (SweepConfig(model="nls"), SweepConfig(model="nls", dt=1e-3),
                SweepConfig(**FAST_EP)):
        parts = physics_signature(cfg).split(";")
        assert [p for p in parts if p.startswith(("dt=", "growth=", "spu="))] == \
            [f"dt={fmt(cfg.dt)}"]
        assert not [p for p in parts if p.startswith("solver=")]


def _set(key, i, value):
    """A corruption of a cache record: its key[i] set to value."""
    def corrupt(record):
        record[key][i] = value
        return json.dumps(record)
    return corrupt


def _crossing(t_cross):
    """A corruption of a cache record: its crossing of 1e-3 set to t_cross."""
    def corrupt(record):
        assert record["crossings"][0][0] == 1e-3
        record["crossings"][0][1] = t_cross
        return json.dumps(record)
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _set("t", 1, 0.0125),
    _set("rho", 2, float("nan")),  # written as the JSON token NaN
    _set("rho", 2, float("inf")),  # written as the JSON token Infinity
    lambda record: json.dumps(dict(record, t=record["t"][:-5], rho=record["rho"][:-5])),
    _set("rho", 1, "garbage"),
    lambda record: "",
    lambda record: json.dumps(dict(record, rho=record["rho"][1:])),
    lambda record: json.dumps({k: v for k, v in record.items() if k != "crossings"}),
    lambda record: json.dumps(dict(record, crossings=[c[:1] for c in record["crossings"]])),
    lambda record: json.dumps(dict(record, t=record["t"][0], rho=record["rho"][0])),
    _crossing(float("nan")),
    _crossing(-1.0),
    _crossing(50.0),
], ids=["shifted-time", "nan-rho", "inf-rho", "truncated", "garbage-row", "empty", "ragged",
        "no-crossings-key", "one-field-crossing", "t-not-1d", "nan-crossing",
        "negative-crossing", "crossing-past-t"])
def test_invalid_cached_curve_is_recomputed(tmp_path, corrupt):
    cfg = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    (cold,) = run_error_curves(cfg)
    path = Path(curve_path(str(tmp_path), cfg, 1.0, cache=True))
    blob = path.read_text()
    path.write_text(corrupt(json.loads(blob)))
    assert path.read_text() != blob
    (again,) = run_error_curves(cfg)
    assert _bits([again]) == _bits([cold])
    assert again.crossings == cold.crossings
    assert path.read_text() == blob  # the cache is mended too
