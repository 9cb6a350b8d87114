from pathlib import Path

import numpy as np
import pytest

import epnls.sweep
from epnls.evolution import (
    ErrorCurve,
    ModelParams,
    StepSpec,
    Trajectory,
    evolve_composite_tilde,
    evolve_ep,
    evolve_linear_b,
    evolve_nls,
    relative_error_curve,
    zero_state,
)
from epnls.grid import Field, free_propagate, gaussian_initial, make_grid, sobolev_norm
from epnls.runio import write_csv
from epnls.sweep import (
    SOLVER_REVISION,
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
    write_curves,
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


def test_config_resolution_defaults():
    # a constructed config is already resolved
    ep = SweepConfig(model="ep")
    assert (ep.T, ep.dt, ep.comparator, ep.s) == (2.0, 2e-2, "systemB", 1.0)
    assert ep.samples_per_unit_time == 50
    nls = SweepConfig(model="nls", n=2, N=32)
    assert (nls.T, nls.dt, nls.samples_per_unit_time) == (0.2, 5e-4, 2000)
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
    # coarse sampling, but log t is linear in log rho, which both the cubic
    # and the linear rule reproduce
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


def test_find_crossing_cubic_beats_linear():
    # rho = C t^q (1 + a t) is no power law, so neither rule is exact; on
    # the default EP sample spacing the cubic rule lands >= 5000x closer
    # to the root than the linear one
    from scipy.optimize import brentq

    def rho_of(t):
        return 0.01 * t**5 * (1.0 + 0.7 * t)

    t = np.arange(101) * 0.02
    curve = synthetic_curve(t, rho_of(t))
    for eps in (1e-4, 1e-3, 3e-3, 1e-2):
        root = brentq(lambda s: rho_of(s) - eps, 1e-3, 2.0, xtol=1e-15, rtol=1e-15)
        cubic = abs(find_crossing(curve, eps) - root)
        linear = abs(_linear_crossing(t, curve.rho, eps) - root)
        assert cubic * 10 <= linear


def _analytic_curve(times, with_slope):
    """rho = C t^5 (1 + a t), no power law, with its exact rho' if asked."""
    times = np.asarray(times, dtype=float)
    rho = 0.01 * times**5 * (1.0 + 0.7 * times)
    drho = 0.01 * times**4 * (5.0 + 6.0 * 0.7 * times) if with_slope else None
    return ErrorCurve(delta=1.0, times=times, rho=rho, drho=drho)


def test_find_crossing_hermite_beats_cubic():
    # with the exact rho', the cubic Hermite on the bracket lands >= 10x
    # closer to the root than the four-point cubic on the default EP
    # sample spacing (measured 15-500x)
    from scipy.optimize import brentq

    t = np.arange(101) * 0.02
    plain, sloped = _analytic_curve(t, False), _analytic_curve(t, True)
    for eps in (1e-4, 1e-3, 3e-3, 1e-2):
        root = brentq(lambda s: _analytic_curve([s], False).rho[0] - eps, 1e-3, 2.0,
                      xtol=1e-15, rtol=1e-15)
        hermite = abs(find_crossing(sloped, eps) - root)
        cubic = abs(find_crossing(plain, eps) - root)
        assert hermite * 10 <= cubic


@pytest.mark.parametrize("left, right", [
    (0.0, 1.0),  # rho' <= 0 at either end
    (1.0, -1.0),
    (1e-6, 1e-6),  # slopes 10^6 too steep: the Hermite value leaves the bracket
], ids=["zero-left", "negative-right", "outside-bracket"])
def test_find_crossing_hermite_falls_back_to_the_cubic_rule(left, right):
    # rho' scaled by left and right at the ends of the bracket
    t = np.arange(101) * 0.02
    eps = 1.0005e-3  # a quarter into its bracket
    curve = _analytic_curve(t, True)
    i = int(np.argmax(curve.rho >= eps))
    curve.drho[i - 1] *= left
    curve.drho[i] *= right
    assert find_crossing(curve, eps) == find_crossing(_analytic_curve(t, False), eps)


@pytest.mark.parametrize("times, rho, eps", [
    # the first sample at or above epsilon is sample 3 < 4 (every sample
    # positive, so only the index rules the cubic out)
    ([0.5, 1.0, 2.0, 3.0, 4.0], [1e-4, 1e-3, 8e-3, 2.7e-2, 6.4e-2], 2e-2),
    # a zero in the window i-3..i
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 8e-3, 2.7e-2, 6.4e-2, 0.125], 5e-2),
    # log rho not strictly increasing over the window (the cubic through
    # it would land inside the bracket)
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 2e-3, 1e-3, 2.7e-2, 6.4e-2, 0.125], 5e-2),
    # monotone, but the cubic leaves the bracket (t[i-1], t[i]]
    ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1e-3, 1.01e-3, 1.02e-3, 0.148], 1e-2),
], ids=["i<4", "zero", "non-monotone", "outside-bracket"])
def test_find_crossing_falls_back_to_the_linear_rule(times, rho, eps):
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


# a small NLS config for the slope tests
SMALL_NLS = dict(model="nls", N=64, T=0.02)


def test_drho_matches_a_centred_difference_of_a_fine_curve():
    # rho' at every interior sample of a curve sampled 10x finer than the
    # default against (rho[i+1] - rho[i-1]) / 2h, whose own error is
    # O(h^2) times the third derivative of rho
    cfg = SweepConfig(**SMALL_NLS, dt=5e-5, samples_per_unit_time=20000)
    curve = compute_error_curve(cfg, 0.8)
    h = 1.0 / cfg.samples_per_unit_time
    centred = (curve.rho[2:] - curve.rho[:-2]) / (2.0 * h)
    assert np.all(curve.drho > 0.0)
    assert np.max(np.abs(curve.drho[1:-1] - centred) / curve.drho[1:-1]) < 1e-7


@pytest.mark.parametrize("g", [1.0, -0.5])
def test_drho_at_t0_is_the_forcing_over_the_truth_norm(g):
    # at t = 0, D = 0 and D' = i g N_hat: rho' takes its one-sided limit
    # |g| ||N_hat||_s / ||T||_s, N = |phi|^(p-1) phi
    cfg = SweepConfig(**SMALL_NLS, g=g)
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi = gaussian_initial(grid, 0.7).values
    forcing = Field(grid, np.abs(phi) ** 2 * phi)
    expected = abs(g) * sobolev_norm(forcing, cfg.s) / sobolev_norm(Field(grid, phi), cfg.s)
    curve = compute_error_curve(cfg, 0.7)
    assert curve.rho[0] == 0.0
    assert curve.drho[0] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("delta", [1e-220, 1e-150, 1e6])
def test_drho_is_finite_at_extreme_amplitudes(delta):
    # |phi|^(p-1) phi underflows or grows as delta^p; the slope's inner
    # products are scaled row by row by powers of two, so rho' stays
    # finite and no RuntimeWarning (an error in these tests) is raised
    curve = compute_error_curve(SweepConfig(**SMALL_NLS), delta)
    assert np.all(np.isfinite(curve.drho)) and len(curve.drho) == len(curve.times)


def test_drho_is_exact_where_unscaled_products_overflow():
    # phi = delta psi turns g into g delta^2, so g = 1e-308 at delta = 1e154
    # is the delta = 1, g = 1 flow.  Its spectra reach ~1e155, and their
    # unscaled products would overflow; scaled, rho' is that flow's
    curve = compute_error_curve(SweepConfig(**SMALL_NLS, g=1e-308), 1e154)
    unit = compute_error_curve(SweepConfig(**SMALL_NLS), 1.0)
    assert curve.drho == pytest.approx(unit.drho, rel=1e-13)


def test_nls_cache_without_drho_is_recomputed(tmp_path):
    # a t,rho file at an NLS curve's cache path lacks the rho' column
    # find_crossing reads, so it misses, and the cache is mended
    cfg = SweepConfig(**SMALL_NLS, alpha_set=(0.0,), epsilon_set=(1e-2, 3e-3),
                      cache_dir=str(tmp_path))
    (cold,) = run_error_curves(cfg)
    path = Path(curve_path(str(tmp_path), cfg, 1.0))
    blob = path.read_text()
    assert blob.startswith("t,rho,drho\n")
    write_csv(str(path), ["t", "rho"], zip(cold.times, cold.rho))
    (again,) = run_error_curves(cfg)
    assert _bits([again]) == _bits([cold])
    assert path.read_text() == blob


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
    base = SweepConfig(model="ep", N=64, T=1.5, alpha_set=(0.0,), dt=1e-2,
                       epsilon_set=(1e-2,), samples_per_unit_time=100)
    halved = SweepConfig(model="ep", N=64, T=1.5, alpha_set=(0.0,), dt=1e-2,
                         epsilon_set=(1e-2,), samples_per_unit_time=50)
    t_base = run_algorithm_a(base).crossings[0].t_cross
    t_halved = run_algorithm_a(halved).crossings[0].t_cross
    assert abs(t_base - t_halved) < 1.0 / 50  # local sample spacing


def test_cache_cold_vs_warm_identical(tmp_path):
    cfg = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    cold = run_algorithm_a(cfg)
    cache_files = sorted(tmp_path.rglob("*.csv"))
    assert len(cache_files) == 1
    blob = cache_files[0].read_bytes()
    warm = run_algorithm_a(cfg)
    assert cache_files[0].read_bytes() == blob
    assert [r.t_cross for r in cold.crossings] == [r.t_cross for r in warm.crossings]
    assert [b.beta for b in cold.betas] == [b.beta for b in warm.betas]


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


def test_nls_meta_fit_small():
    cfg = SweepConfig(model="nls", N=128, T=0.05, dt=5e-5,
                      samples_per_unit_time=2000,
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
    return [(c.delta, c.times.tobytes(), c.rho.tobytes(),
             None if c.drho is None else c.drho.tobytes()) for c in curves]


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
    return ErrorCurve(delta=curve.delta, times=curve.times[:end], rho=curve.rho[:end],
                      drho=None if curve.drho is None else curve.drho[:end])


def _reference_curve(c, delta, epsilon_comp=None):
    """rho(t) the slow way: full-state trajectories of the truth and the
    comparator, diffed in physical space."""
    grid = make_grid(c.n, c.N, c.L)
    params = ModelParams(g=c.g, gamma=c.gamma, omega0=c.omega0, p=c.p, s=c.s)
    step = StepSpec(dt=c.dt, samples_per_unit_time=c.samples_per_unit_time)
    phi0 = gaussian_initial(grid, delta)
    if c.model == "nls":
        truth = evolve_nls(phi0, params, step, c.T)
        comp = Trajectory(times=truth.times, policy="full", s=c.s,
                          phi=[free_propagate(phi0, t) for t in truth.times])
    else:
        truth = evolve_ep(zero_state(phi0), params, step, c.T)
        if c.comparator == "composite":
            comp = evolve_composite_tilde(phi0, params, c.c1, epsilon_comp, c.T,
                                          sample_times=truth.times)
        else:
            comp = evolve_linear_b(zero_state(phi0), params,
                                   sample_times=truth.times)
    return relative_error_curve(comp, truth, c.s, delta=delta)


@pytest.mark.parametrize("kw, delta, eps_comp", [
    (dict(model="ep", N=64, T=1.0), 0.5, None),
    (dict(model="ep", n=2, N=16, L=6.0, T=1.0, dt=1e-2, comparator="composite",
          c1=1.0), 1.0, 4e-2),
    (dict(model="nls", N=64, T=0.02, dt=1e-4, samples_per_unit_time=1000),
     0.7, None),
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


@pytest.mark.parametrize("comparator, n_curves", [("systemB", 4), ("composite", 6)])
def test_curve_bits_do_not_depend_on_the_batch(tmp_path, comparator, n_curves):
    # composite: delta = 1 serves three comparator epsilons in one batch
    kw = dict(FOUR_CURVES, comparator=comparator, c1=0.5)
    cfg = SweepConfig(**kw)
    specs = curve_specs(cfg)
    alone = [compute_error_curve(cfg, d, e) for d, e in specs]
    full = run_error_curves(cfg)
    pooled = run_error_curves(SweepConfig(**kw, workers=2))
    # half-warm cache: every other curve cached (to T), the rest computed
    # together
    cached = SweepConfig(**kw, cache_dir=str(tmp_path))
    write_curves(str(tmp_path), cached, alone[::2])
    half_warm = run_error_curves(cached)
    assert len(alone) == n_curves
    # each curve stops where its batch left it: a bitwise prefix of its
    # full-horizon curve computed alone
    prefixes = [_stop_prefix(cfg, spec, c) for spec, c in zip(specs, alone)]
    assert any(len(p.times) < len(c.times) for p, c in zip(prefixes, alone))
    for curves in (full, pooled, half_warm):
        assert _bits(curves) == _bits(prefixes)


@pytest.mark.parametrize("kw", [
    FOUR_CURVES,
    dict(FOUR_CURVES, comparator="composite", c1=0.5),
    dict(model="nls", N=64, T=0.02, alpha_set=(0.0, 0.2), epsilon_set=(1e-2, 3e-3, 1e-3)),
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
    # tolerances
    member = 64 * epnls.sweep._ARRAYS_PER_MEMBER["ep"]
    extra = 64 * epnls.sweep._ARRAYS_PER_EXTRA_CURVE
    composite = dict(FAST_EP, comparator="composite", c1=0.5)
    for kw, points in ((FAST_EP, member), (composite, member + 2 * extra)):
        assert SweepConfig(**kw, max_points=points).max_points == points
        with pytest.raises(ValueError, match=f"needs {points} points, which exceeds "
                           f"the memory cap of {points - 1} points"):
            SweepConfig(**kw, max_points=points - 1)
    # 128^3 grid points fit the default cap of 2^24; 9 arrays of them do not
    with pytest.raises(ValueError, match="needs 18874368 points"):
        SweepConfig(n=3, N=128)


def test_tiny_max_points_splits_the_batch_bitwise_identically(monkeypatch):
    whole = run_error_curves(SweepConfig(**FOUR_CURVES))
    sizes = []
    batch = epnls.sweep._curve_batch

    def spy(c, specs, stops=None):
        sizes.append(len(specs))
        return batch(c, specs, stops)

    monkeypatch.setattr(epnls.sweep, "_curve_batch", spy)
    per_member = 64 * epnls.sweep._ARRAYS_PER_MEMBER["ep"]
    split = run_error_curves(SweepConfig(**FOUR_CURVES, max_points=3 * per_member))
    assert sizes == [3, 1]
    assert _bits(split) == _bits(whole)


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


def test_full_length_cache_is_served_cut(tmp_path, monkeypatch):
    cfg = SweepConfig(**FOUR_CURVES, cache_dir=str(tmp_path))
    specs = curve_specs(cfg)
    full = [compute_error_curve(cfg, *spec) for spec in specs]
    cold = run_error_curves(SweepConfig(**FOUR_CURVES))
    write_curves(str(tmp_path), cfg, full)
    files = sorted(tmp_path.rglob("*.csv"))
    blobs = [f.read_bytes() for f in files]
    _no_batches(monkeypatch)
    warm = run_error_curves(cfg)
    assert _bits(warm) == _bits(cold)
    assert any(len(w.times) < len(f.times) for w, f in zip(warm, full))
    assert [f.read_bytes() for f in files] == blobs  # a longer cache stays


def test_cached_prefix_short_of_its_tolerance_is_recomputed(tmp_path):
    cfg = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    (cold,) = run_error_curves(cfg)
    assert len(cold.times) < 101  # stopped at 1e-2, before T
    path = Path(curve_path(str(tmp_path), cfg, 1.0))
    blob = path.read_text()
    write_csv(str(path), ["t", "rho"], zip(cold.times[:-1], cold.rho[:-1]))
    (again,) = run_error_curves(cfg)
    assert _bits([again]) == _bits([cold])
    assert path.read_text() == blob  # the cache is mended


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
    (path,) = tmp_path.rglob("*.csv")
    blob = path.read_bytes()
    kw = dict(FAST_EP, epsilon_set=(3e-3, 1e-3))
    (cold,) = run_error_curves(SweepConfig(**kw))
    _no_batches(monkeypatch)
    (warm,) = run_error_curves(SweepConfig(**kw, cache_dir=str(tmp_path)))
    assert _bits([warm]) == _bits([cold])
    assert len(warm.times) < len(blob.splitlines()) - 1  # served cut
    assert path.read_bytes() == blob


# ---------------------------------------------------------------- engine cost


def test_max_points_counts_every_curve_of_a_delta(monkeypatch):
    kw = dict(FOUR_CURVES, comparator="composite", c1=0.5)
    whole = run_error_curves(SweepConfig(**kw))
    sizes = []
    batch = epnls.sweep._curve_batch

    def spy(c, specs, stops=None):
        sizes.append(len(specs))
        return batch(c, specs, stops)

    monkeypatch.setattr(epnls.sweep, "_curve_batch", spy)
    member = epnls.sweep._ARRAYS_PER_MEMBER["ep"]
    extra = epnls.sweep._ARRAYS_PER_EXTRA_CURVE
    max_points = 64 * (2 * member + 2 * extra)
    split = run_error_curves(SweepConfig(**kw, max_points=max_points))
    # delta = 1 serves three comparator epsilons (member + 2 extra), so it
    # shares its batch with one more delta only
    assert sizes == [4, 2]
    assert _bits(split) == _bits(whole)


@pytest.mark.parametrize("model, steps, samples", [("ep", 100, 101), ("nls", 100, 101)])
def test_fft_calls_per_step_and_sample(fft_calls, model, steps, samples):
    if model == "ep":
        cfg = SweepConfig(model="ep", N=32, alpha_set=(0.0, 0.1),
                          epsilon_set=(1e-2, 3e-3, 1e-3))
    else:  # the default clock
        cfg = SweepConfig(model="nls", N=32, T=0.05, alpha_set=(0.0, 0.1),
                          epsilon_set=(1e-2, 3e-3, 1e-3))
    specs = curve_specs(cfg)
    lengths = [len(_stop_prefix(cfg, spec, compute_error_curve(cfg, *spec)).times)
               for spec in specs]
    assert len(specs) == 4 and steps + 1 == samples >= max(lengths)
    assert min(lengths) < samples  # some member leaves the batch early
    fft_calls.clear()
    curves = run_error_curves(cfg)
    assert [len(c.times) for c in curves] == lengths
    # one transform of the initial photon fields, then 2 per inner substep
    # of each model's triple jump (3 per step: EP's linear substeps, NLS's
    # rotations).  Both loops carry the truth's photon spectrum, so rho
    # costs no transform; NLS's rho' costs 2 per sample, t = 0 included
    # (nls_forcing's inverse and forward transform).  Every call moves one
    # field of the amplitudes still stepping (EP transforms only psi):
    # those whose curves need this sample.  Stepping ends with the last one.
    per_step, per_sample = 2 * 3, (2 if model == "nls" else 0)
    live = [sum(n > k for n in lengths) for k in range(max(lengths))]
    assert fft_calls == [4 * 32] + [m * 32 for k, m in enumerate(live)
                                    for _ in range((per_step if k else 0) + per_sample)]


def _traced_peak(cfg, specs):
    """tracemalloc peak, in complex grid-sized arrays, of one batch."""
    import tracemalloc

    tracemalloc.start()
    try:
        epnls.sweep._curve_batch(cfg, specs)
        return tracemalloc.get_traced_memory()[1] / (cfg.N**cfg.n * 16)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", ["ep", "nls"])
def test_arrays_per_member_bounds_the_measured_footprint(model):
    # a grid large enough that grid-sized arrays dominate the peak
    if model == "ep":
        cfg = SweepConfig(model="ep", N=4096, T=0.02)
    else:
        cfg = SweepConfig(model="nls", N=4096, T=0.002)

    def peak(batch):
        return _traced_peak(cfg, [(1.0 - 0.1 * i, None) for i in range(batch)])

    per_member = (peak(6) - peak(2)) / 4
    assert per_member <= epnls.sweep._ARRAYS_PER_MEMBER[model]


@pytest.mark.parametrize("n, N", [(1, 4096), (2, 128)])
def test_guard_counts_the_arrays_of_every_composite_curve(n, N):
    cfg = SweepConfig(model="ep", n=n, N=N, T=0.02, comparator="composite", c1=0.1)
    eps = [1e-2 / (i + 1) for i in range(6)]
    # one curve per delta, each with its own comparator epsilon ...
    members = [(1.0 - 0.1 * i, e) for i, e in enumerate(eps)]
    per_member = (_traced_peak(cfg, members) - _traced_peak(cfg, members[:2])) / 4
    assert per_member <= epnls.sweep._ARRAYS_PER_MEMBER["ep"]
    # ... and one delta serving every comparator epsilon
    curves = [(1.0, e) for e in eps]
    per_curve = (_traced_peak(cfg, curves) - _traced_peak(cfg, curves[:2])) / 4
    assert per_curve <= epnls.sweep._ARRAYS_PER_EXTRA_CURVE


def test_default_nls_dt_is_converged():
    # crossings of the delta = 1 curve at the default clock (one triple
    # jump of 5e-4 per sample of 1/2000) against a 4x finer step at the
    # same samples: the step is not what limits the crossings (measured
    # 1.2e-12 apart; the whole default sweep is within 7.5e-12 of
    # dt = 2.5e-5)
    coarse = compute_error_curve(SweepConfig(model="nls"), 1.0)
    fine = compute_error_curve(SweepConfig(model="nls", dt=1.25e-4), 1.0)
    for eps in SweepConfig(model="nls").epsilon_set:
        t_coarse, t_fine = find_crossing(coarse, eps), find_crossing(fine, eps)
        assert t_coarse == pytest.approx(t_fine, rel=1e-6)


@pytest.mark.parametrize("power", [0.997, 1.0, 1.003])
def test_default_nls_crossings_lie_past_sample_1(power):
    # find_crossing's Hermite rule reads a crossing off the bracket
    # [t[i-1], t[i]] and needs t[i-1] > 0, so every default crossing must
    # lie past sample 1, also with the tolerances raised to 1 -+ 0.003, the
    # benchmark's ladder jitter: the earliest, alpha = 0 at the smallest
    # epsilon, lies at t ~ 1.0e-3, sample 2 of 1/2000.  Every crossing is
    # then read by the Hermite rule, as scipy's spline through the bracket
    # reads it
    from scipy.interpolate import CubicHermiteSpline

    ladder = tuple(e**power for e in SweepConfig(model="nls").epsilon_set)
    cfg = SweepConfig(model="nls", epsilon_set=ladder)
    result = run_algorithm_a(cfg)
    assert not result.failures and len(result.crossings) == 24
    assert min(c.t_cross for c in result.crossings) * cfg.samples_per_unit_time > 1
    curves = {c.delta: c for c in result.curves}
    for record in result.crossings:
        curve = curves[record.delta]
        i = int(np.argmax(curve.rho >= record.epsilon))
        t, rho, drho = (a[i - 1 : i + 1] for a in (curve.times, curve.rho, curve.drho))
        spline = CubicHermiteSpline(np.log(rho), np.log(t), rho / (t * drho))
        assert record.t_cross == pytest.approx(np.exp(spline(np.log(record.epsilon))),
                                               rel=1e-13)


def test_default_ep_dt_is_converged():
    # crossings of the delta = 1 curve at the default clock (one triple
    # jump of 2e-2 per sample of 1/50) against a 4x finer step and sample
    # rate, so that both the step and the cubic crossing error shrink:
    # measured 6.4e-7 apart
    coarse = compute_error_curve(SweepConfig(model="ep"), 1.0)
    fine = compute_error_curve(
        SweepConfig(model="ep", dt=5e-3, samples_per_unit_time=200), 1.0)
    for eps in SweepConfig(model="ep").epsilon_set:
        t_coarse, t_fine = find_crossing(coarse, eps), find_crossing(fine, eps)
        assert t_coarse == pytest.approx(t_fine, rel=1e-6)


def test_signature_carries_the_solver_revision():
    assert SOLVER_REVISION == {"ep": 5, "nls": 5}
    assert "solver=5" in physics_signature(SweepConfig(**FAST_EP))
    assert "solver=5" in physics_signature(SweepConfig(model="nls"))


@pytest.mark.parametrize("corrupt", [
    lambda lines: [lines[0], lines[1], "0.0125," + lines[2].split(",")[1]] + lines[3:],
    lambda lines: lines[:3] + [lines[3].split(",")[0] + ",nan"] + lines[4:],
    lambda lines: lines[:-5],
    lambda lines: lines[:2] + ["garbage"] + lines[3:],
    lambda lines: [],
], ids=["shifted-time", "nan-rho", "truncated", "garbage-row", "empty"])
def test_invalid_cached_curve_is_recomputed(tmp_path, corrupt):
    cfg = SweepConfig(**FAST_EP, cache_dir=str(tmp_path))
    (cold,) = run_error_curves(cfg)
    path = Path(curve_path(str(tmp_path), cfg, 1.0))
    blob = path.read_text()
    bad = corrupt(blob.splitlines())
    path.write_text("\n".join(bad) + ("\n" if bad else ""))
    (again,) = run_error_curves(cfg)
    assert _bits([again]) == _bits([cold])
    assert path.read_text() == blob  # the cache is mended too
