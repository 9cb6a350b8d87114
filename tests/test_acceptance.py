"""Acceptance suite: every shipping criterion at its stated tolerance,
one printed pass/fail line per criterion.

The sweep-based criteria run the production harness at its default
epsilon ladder (six points, log-spaced over [1e-3, 1e-2]), but for
criterion 11, which reads NLS crossings on a ladder three decades deep.  The solver
exactness checks (criterion 6 and the root residual of criterion 9) are
the battery `epnls verify` runs, asserted here at this file's own
tolerances.
"""

import time

import numpy as np
import pytest

from epnls.cli import verify_checks
from epnls.evolution import (
    ModelParams,
    StepSpec,
    evolve_ep,
    evolve_system_a,
    zero_state,
)
from epnls.grid import gaussian_initial, make_grid, sobolev_norm
from epnls.sweep import (
    SweepConfig,
    compute_error_curve,
    regress_loglog,
    run_algorithm_a,
    sweep_times,
)
from epnls.theory import (
    LemmaQInput,
    beta_predict,
    bound_constants,
    lemma_roots,
    q_eval,
    y1_series,
)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ep_sweep():
    cfg = SweepConfig(model="ep", n=1, N=256, L=10.0, p=3.0, s=1.0,
                      alpha_set=(0.0, 0.1, 0.2, 0.3))
    start = time.monotonic()
    result = run_algorithm_a(cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def nls_sweep():
    cfg = SweepConfig(model="nls", n=1, N=256, L=10.0, p=3.0,
                      alpha_set=(0.0, 0.1, 0.2))
    start = time.monotonic()
    result = run_algorithm_a(cfg)
    return result, time.monotonic() - start


def test_criterion_1_ep_scaling_law(ep_sweep):
    result, elapsed = ep_sweep
    assert not result.failures, result.failures
    errs = {b.alpha: abs(b.beta - (1 - 2 * b.alpha) / 5) for b in result.betas}
    worst = max(errs.values())
    slope_err = abs(result.meta_slope - (-0.4))
    icept_err = abs(result.meta_intercept - 0.2)
    ok = worst <= 0.05 and slope_err <= 0.05 and icept_err <= 0.05 and elapsed < 600
    report(
        1,
        ok,
        f"EP beta worst |err| {worst:.4f} (tol 0.05); meta slope err "
        f"{slope_err:.4f}, intercept err {icept_err:.4f} (tol 0.05); "
        f"{elapsed:.0f}s single-threaded (budget 600s)",
    )


def test_criterion_2_nls_scaling_law(nls_sweep):
    result, elapsed = nls_sweep
    assert not result.failures, result.failures
    worst = max(abs(b.beta - (1 - 2 * b.alpha)) for b in result.betas)
    slope_err = abs(result.meta_slope - (-2.0))
    ok = worst <= 0.05 and slope_err <= 0.1 and elapsed < 300
    report(
        2,
        ok,
        f"NLS beta worst |err| {worst:.4f} (tol 0.05); meta slope err "
        f"{slope_err:.4f} (tol 0.1); {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_3_dimension_independence(ep_sweep):
    result1d, _ = ep_sweep
    beta_1d = next(b.beta for b in result1d.betas if b.alpha == 0.0)
    start = time.monotonic()
    cfg2 = SweepConfig(model="ep", n=2, N=64, L=10.0, p=3.0, alpha_set=(0.0,))
    result2d = run_algorithm_a(cfg2)
    elapsed = time.monotonic() - start
    beta_2d = result2d.betas[0].beta
    ok = (
        abs(beta_1d - beta_2d) <= 0.08
        and abs(beta_1d - 0.2) <= 0.08
        and abs(beta_2d - 0.2) <= 0.08
        and elapsed < 900
    )
    report(
        3,
        ok,
        f"beta(n=1) = {beta_1d:.4f}, beta(n=2) = {beta_2d:.4f}, "
        f"|diff| {abs(beta_1d - beta_2d):.4f} (tol 0.08); "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_4_l2_norm_robustness():
    cfg = SweepConfig(model="ep", n=1, N=256, L=10.0, p=3.0, s=0.0,
                      alpha_set=(0.0, 0.1, 0.2, 0.3))
    result = run_algorithm_a(cfg)
    assert not result.failures, result.failures
    worst = max(abs(b.beta - (1 - 2 * b.alpha) / 5) for b in result.betas)
    report(4, worst <= 0.08,
           f"s = 0 variant: beta worst |err| {worst:.4f} (tol 0.08)")


def test_criterion_5_p_dependence():
    cfg = SweepConfig(model="ep", n=1, N=256, L=10.0, p=5.0, alpha_set=(0.0,))
    result = run_algorithm_a(cfg)
    beta = result.betas[0].beta
    err = abs(beta - 1.0 / 7.0)
    report(5, err <= 0.05,
           f"p = 5: beta = {beta:.4f} vs 1/7 = {1 / 7:.4f}, |err| {err:.4f} (tol 0.05)")


@pytest.fixture(scope="module")
def battery():
    """The values `epnls verify` reports, by check name."""
    return {name: value for name, value, _ in verify_checks()}


def test_criterion_6_solver_exactness(battery):
    expm_err = battery["linear system vs expm oracle"]
    drift = battery["EP mass conservation"]
    rev_err = battery["time reversal"]
    ok = expm_err <= 1e-10 and drift <= 1e-10 and rev_err <= 1e-8
    report(
        6,
        ok,
        f"expm oracle err {expm_err:.2e} (tol 1e-10); mass drift "
        f"{drift:.2e} (tol 1e-10); reversal err {rev_err:.2e} (tol 1e-8)",
    )


def test_criterion_7_early_time_power_law():
    cfg = SweepConfig(model="ep", n=1, N=256, L=10.0, p=3.0, T=1.0,
                      alpha_set=(0.0,), epsilon_set=(1e-2,))
    curve = compute_error_curve(cfg, 1.0)
    lo, hi = 0.05, 0.5  # one decade
    m = (curve.times >= lo) & (curve.times <= hi)
    slope = np.polyfit(np.log(curve.times[m]), np.log(curve.rho[m]), 1)[0]
    err = abs(slope - 5.0) / 5.0
    report(
        7,
        err <= 0.05,
        f"log-log slope {slope:.4f} over t in [{lo}, {hi}] vs p+2 = 5 "
        f"(rel err {err:.4f}, tol 0.05)",
    )


def test_criterion_8_small_time_exciton_growth():
    grid = make_grid(1, 256, 10.0)
    params = ModelParams(s=1.0)
    t = 1e-3
    epsilon, alpha = 0.5, 1.0  # initial amplitude eps^alpha = 0.5
    phi0 = gaussian_initial(grid, epsilon**alpha)
    m_norm = sobolev_norm(gaussian_initial(grid, 1.0), 1.0)
    expected = params.gamma * m_norm * epsilon**alpha * t

    a = evolve_system_a(phi0, params, sample_times=[t])
    ratio_a = sobolev_norm(a.psi[0], 1.0) / expected

    ep = evolve_ep(zero_state(phi0), params, StepSpec(dt=1e-5), t, record="norms")
    ratio_ep = ep.norm_psi[-1] / expected

    ok = 0.999 <= ratio_a <= 1.001 and 0.999 <= ratio_ep <= 1.001
    report(
        8,
        ok,
        f"||psi||/(gamma M eps^alpha t) at t = 1e-3: system A {ratio_a:.6f}, "
        f"full EP {ratio_ep:.6f} (window [0.999, 1.001])",
    )


def test_criterion_9_lemma_suite(battery):
    inp = LemmaQInput(eta=0.1, delta=0.5, p=3.0)
    y1, y2 = lemma_roots(inp)
    resid = battery["lemma root residuals"]

    # series order of accuracy: log-log exponent within +-0.2 of order+1
    exponent_ok = True
    exponents = []
    for order, window in ((1, (-4.0, -2.0)), (2, (-3.5, -2.0)), (3, (-2.5, -1.5))):
        zs, residuals = [], []
        for eta in np.logspace(*window, 9):
            q_in = LemmaQInput(eta=eta, delta=0.5, p=3.0)
            root, _ = lemma_roots(q_in)
            zs.append(q_in.z)
            residuals.append(abs(y1_series(q_in, order) - root))
        slope = np.polyfit(np.log(zs), np.log(residuals), 1)[0]
        exponents.append(slope)
        exponent_ok &= abs(slope - (order + 1)) <= 0.2

    ys = np.linspace(0.0, 1.5 * y2, 1000)
    qv = np.array([q_eval(y, inp) for y in ys])
    guard = 1e-9 * y2
    sign_ok = np.all(
        qv[(ys > y1 + guard) & (ys < y2 - guard)] < 0
    ) and np.all(qv[(ys < y1 - guard) | (ys > y2 + guard)] > 0)

    etas = np.logspace(-5, -3, 9)
    y2s = [lemma_roots(LemmaQInput(eta=e, delta=0.5, p=3.0))[1] for e in etas]
    y2_exp = np.polyfit(np.log(etas), np.log(y2s), 1)[0]
    y2_ok = abs(y2_exp - (-0.5)) <= 0.05

    ok = resid <= 1e-12 and exponent_ok and sign_ok and y2_ok
    report(
        9,
        ok,
        f"root residual {resid:.2e} (tol 1e-12); series exponents "
        f"{[f'{e:.2f}' for e in exponents]} vs [2, 3, 4] (tol 0.2); "
        f"sign scan {'ok' if sign_ok else 'violated'}; y2 eta-exponent "
        f"{y2_exp:.4f} vs -0.5 (tol 0.05)",
    )


def test_criterion_10_bound_constant_arithmetic():
    checks = []
    # unit case: B2 = 1/(p+2) = 1/5
    bc = bound_constants(ModelParams(g=1.0, gamma=1.0, p=3.0),
                         M=1.0, Kp=1.0, C=1.0, C1=0.0, C2=1.0, alpha=0.0)
    checks.append(abs(bc.B2 - 0.2) <= 1e-14)
    checks.append(abs(bc.B - 1.0) <= 1e-14)
    checks.append(abs(bc.q - 2.0) <= 1e-14)
    # rational case: B = 10, B1 = 9/32, B2 = 369/160, q = 2
    bc = bound_constants(ModelParams(g=-2.0, gamma=1.5, p=3.0),
                         M=2.0, Kp=0.25, C=5.0, C1=0.5, C2=1.0, alpha=0.25)
    checks.append(abs(bc.B - 10.0) <= 1e-14)
    checks.append(abs(bc.B1 - 9.0 / 32.0) <= 1e-14)
    checks.append(abs(bc.B2 - 369.0 / 160.0) <= 1e-14)
    checks.append(abs(bc.q - 2.0) <= 1e-14)
    # indicator: alpha > 1/2 drops the C2 term
    bc = bound_constants(ModelParams(g=3.0, gamma=2.0, p=3.0),
                         M=1.0, Kp=1.0, C=1.0, C1=0.25, C2=7.0, alpha=0.75)
    checks.append(abs(bc.B2 - bc.B1) <= 1e-14)
    report(
        10,
        all(checks),
        f"{sum(checks)}/{len(checks)} exact-rational constant checks within 1e-14",
    )


def test_criterion_11_deep_nls_ladder():
    # the default NLS sweep on a ladder three decades deep, to 1e-5: every
    # crossing before the clock's first positive sample (t = 8e-3; 28 of
    # them) is re-stepped from t = 0.  Those lie within 1e-9 of a uniform
    # clock of dt = 2e-5 at 50,000 samples per unit time run to that
    # sample, 400 steps, which holds them all and no other (measured
    # 4.1e-12), and the last decade's OLS beta (eps 1e-4 to 1e-5, five
    # points) lies within 1e-3 of theory for every default alpha (measured
    # 1.1e-8, 2.9e-7, 1.1e-5 and 3.8e-4).  The ladder takes ~0.01 s
    kw = dict(model="nls", epsilon_set=tuple(np.logspace(-2.0, -5.0, 13)),
              epsilon_floor=1e-6)
    cfg = SweepConfig(**kw)
    start = time.monotonic()
    result = run_algorithm_a(cfg)
    elapsed = time.monotonic() - start
    assert not result.failures, result.failures
    first = sweep_times(cfg)[1]
    fine = run_algorithm_a(SweepConfig(**kw, T=first, dt=2e-5))
    reference = {(r.alpha, r.epsilon): r.t_cross for r in fine.crossings}
    early = [abs(r.t_cross / reference[r.alpha, r.epsilon] - 1)
             for r in result.crossings if r.t_cross < first]
    last_decade = cfg.epsilon_set[-5:]
    errs = [abs(regress_loglog([r for r in result.crossings
                                if r.alpha == alpha and r.epsilon in last_decade]).beta
                - beta_predict(alpha, cfg.p, "nls").beta)
            for alpha in cfg.alpha_set]
    ok = (len(early) == len(reference) > 0 and max(early) <= 1e-9 and max(errs) <= 1e-3
          and elapsed < 5)
    report(
        11,
        ok,
        f"NLS ladder to 1e-5: {len(early)} crossings before sample 1 (expected "
        f"{len(reference)}), within {max(early, default=0.0):.2e} of a fine clock (tol "
        f"1e-9); last-decade beta |err| {[f'{e:.1e}' for e in errs]} (tol 1e-3); "
        f"{elapsed:.2f}s (budget 5s)",
    )
