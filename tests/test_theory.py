import numpy as np
import pytest

from epnls.evolution import ModelParams
from epnls.theory import (
    ANY_POSITIVE,
    EXACT,
    LemmaQInput,
    NoRealRootsError,
    beta_predict,
    bound_constants,
    existence_horizon,
    lemma_roots,
    q_eval,
    q_minimizer,
    y1_pow_p_series,
    y1_series,
    y_star,
    y_star_series,
)


def bisect_oracle_y1(eta, delta, p, iters=200):
    """Independent root oracle: plain bisection on [0, y_min]."""
    q = lambda y: eta * y**p - y + delta
    ymin = (1.0 / (p * eta)) ** (1.0 / (p - 1.0))
    lo, hi = 0.0, ymin
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if q(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_oracle_y2(eta, delta, p, iters=200):
    q = lambda y: eta * y**p - y + delta
    ymin = (1.0 / (p * eta)) ** (1.0 / (p - 1.0))
    hi = 2 * max(ymin, (1 / eta) ** (1 / (p - 1)))
    while q(hi) <= 0:
        hi *= 2
    lo = ymin
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if q(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- q_eval


def test_q_eval_at_zero_is_delta():
    inp = LemmaQInput(eta=0.2, delta=0.7, p=2.5)
    assert q_eval(0.0, inp) == 0.7


def test_q_eval_linear_case():
    assert q_eval(0.4, LemmaQInput(eta=0.0, delta=0.4, p=3.0)) == 0.0


def test_q_eval_arithmetic():
    assert q_eval(1.0, LemmaQInput(eta=0.1, delta=0.5, p=3.0)) == pytest.approx(
        -0.4, abs=1e-15
    )


def test_lemma_input_validation():
    with pytest.raises(ValueError):
        LemmaQInput(eta=-1.0, delta=0.5, p=3.0)
    with pytest.raises(ValueError):
        LemmaQInput(eta=0.1, delta=0.5, p=1.0)
    with pytest.raises(ValueError):
        LemmaQInput(eta=np.nan, delta=0.5, p=3.0)


# ---------------------------------------------------------------- roots


def test_roots_match_bisection_oracle():
    inp = LemmaQInput(eta=0.1, delta=0.5, p=3.0)
    y1, y2 = lemma_roots(inp)
    # frozen from the oracle above
    assert bisect_oracle_y1(0.1, 0.5, 3.0) == pytest.approx(
        0.5135435270201547, abs=1e-14
    )
    assert y1 == pytest.approx(0.5135435270201547, rel=1e-11)
    assert y2 == pytest.approx(bisect_oracle_y2(0.1, 0.5, 3.0), rel=1e-11)


@pytest.mark.parametrize(
    "eta,delta,p",
    [(0.1, 0.5, 3.0), (0.01, 0.9, 2.2), (0.3, 0.2, 5.0), (1e-4, 0.99, 1.5)],
)
def test_root_residuals_and_ordering(eta, delta, p):
    inp = LemmaQInput(eta=eta, delta=delta, p=p)
    y1, y2 = lemma_roots(inp)
    assert abs(q_eval(y1, inp)) <= 1e-12 * max(1.0, delta)
    # Q(y2) suffers eps-level cancellation when y2 is huge (eta*y^p vs y);
    # allow the evaluation noise floor on top of the nominal tolerance
    eps = np.finfo(float).eps
    noise = 8 * eps * (eta * y2**p + y2 + delta)
    assert abs(q_eval(y2, inp)) <= 1e-12 * max(1.0, delta) + noise
    assert y1 < q_minimizer(inp) < y2


def test_y1_tends_to_delta_monotonically_as_eta_vanishes():
    delta, p = 0.5, 3.0
    etas = [0.3, 0.1, 0.03, 0.01, 0.003, 0.001]
    roots = [lemma_roots(LemmaQInput(eta=e, delta=delta, p=p))[0] for e in etas]
    assert all(a > b for a, b in zip(roots, roots[1:]))
    assert all(r > delta for r in roots)
    assert roots[-1] == pytest.approx(delta, rel=1e-3)


def test_sign_structure_scan():
    inp = LemmaQInput(eta=0.1, delta=0.5, p=3.0)
    y1, y2 = lemma_roots(inp)
    ys = np.linspace(0.0, 1.5 * y2, 1000)
    q = np.array([q_eval(y, inp) for y in ys])
    guard = 1e-9 * max(1.0, y2)
    inner = (ys > y1 + guard) & (ys < y2 - guard)
    outer = (ys < y1 - guard) | (ys > y2 + guard)
    assert np.all(q[inner] < 0)
    assert np.all(q[outer] > 0)


def test_no_real_roots_reported():
    with pytest.raises(NoRealRootsError):
        lemma_roots(LemmaQInput(eta=1.0, delta=1.0, p=3.0))


def test_y2_eta_exponent():
    # dominant balance eta*y^p ~ y gives y2 ~ eta^(1/(1-p))
    delta, p = 0.5, 3.0
    etas = np.logspace(-5, -3, 9)
    y2s = [lemma_roots(LemmaQInput(eta=e, delta=delta, p=p))[1] for e in etas]
    slope = np.polyfit(np.log(etas), np.log(y2s), 1)[0]
    assert slope == pytest.approx(1.0 / (1.0 - p), abs=0.05)
    # and eta * y2^(p-1) -> 1 along the way
    assert etas[0] * y2s[0] ** (p - 1.0) == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------- series


def test_series_eta_zero_is_delta():
    inp = LemmaQInput(eta=0.0, delta=0.37, p=2.0)
    for order in (1, 2, 3):
        assert y1_series(inp, order) == 0.37


@pytest.mark.parametrize(
    "order,log_eta_window",
    [(1, (-4.0, -2.0)), (2, (-3.5, -2.0)), (3, (-2.5, -1.5))],
)
def test_series_order_of_accuracy(order, log_eta_window):
    # residual against the root must scale as z^(order+1); the eta window
    # per order keeps the residual above the double-precision floor
    delta, p = 0.5, 3.0
    etas = np.logspace(*log_eta_window, 9)
    zs, residuals = [], []
    for eta in etas:
        inp = LemmaQInput(eta=eta, delta=delta, p=p)
        y1, _ = lemma_roots(inp)
        zs.append(inp.z)
        residuals.append(abs(y1_series(inp, order) - y1))
    slope = np.polyfit(np.log(zs), np.log(residuals), 1)[0]
    assert slope == pytest.approx(order + 1, abs=0.2)


def test_series_order3_residual_constant():
    # measured with the bisection oracle: residual ~ 27.8 * z^4 for p = 3,
    # delta = 0.5 (the z^4 Taylor coefficient is 55 * delta)
    inp = LemmaQInput(eta=0.01, delta=0.5, p=3.0)
    y1 = bisect_oracle_y1(0.01, 0.5, 3.0)
    resid = abs(y1_series(inp, 3) - y1)
    assert resid <= 40.0 * inp.z**4


def test_series_monotone_in_delta():
    p, eta = 3.0, 0.05
    deltas = np.linspace(0.1, 0.9, 9)
    vals = [y1_series(LemmaQInput(eta=eta, delta=d, p=p), 3) for d in deltas]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_series_regime_guard():
    with pytest.raises(ValueError, match="regime"):
        y1_series(LemmaQInput(eta=2.0, delta=1.0, p=3.0), 2)


def test_pow_p_series_order_of_accuracy():
    delta, p = 0.5, 3.0
    for order, window in ((1, (-3.5, -2.0)), (2, (-2.5, -1.5))):
        etas = np.logspace(*window, 9)
        zs, residuals = [], []
        for eta in etas:
            inp = LemmaQInput(eta=eta, delta=delta, p=p)
            y1, _ = lemma_roots(inp)
            zs.append(inp.z)
            residuals.append(abs(y1_pow_p_series(inp, order) - y1**p))
        slope = np.polyfit(np.log(zs), np.log(residuals), 1)[0]
        assert slope == pytest.approx(order + 1, abs=0.2)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, 2.5])
@pytest.mark.parametrize("order", [1, 2])
def test_pow_p_series_is_the_y1_series_shifted_by_one_power(p, order):
    # y1 = delta + eta y1^p, so the z^k coefficient of y1^p / delta^p is
    # the z^(k+1) one of y1 / delta; the difference below loses about
    # log10(1/z) digits to cancellation
    delta = 0.5
    inp = LemmaQInput(eta=0.1 / delta ** (p - 1.0), delta=delta, p=p)  # z = 0.1
    shifted = (y1_series(inp, order + 1) - delta) / inp.eta
    assert y1_pow_p_series(inp, order) == pytest.approx(shifted, rel=1e-14)


# ---------------------------------------------------------------- beta


def test_beta_ep_alpha0():
    pred = beta_predict(0.0, 3.0, "ep")
    assert pred.beta == pytest.approx(0.2, abs=1e-15)
    assert pred.regime == EXACT


def test_beta_nls_alpha0():
    for p in (1.5, 3.0, 5.0):
        assert beta_predict(0.0, p, "nls").beta == 1.0


def test_beta_regime_boundary():
    for model in ("nls", "ep"):
        assert beta_predict(0.5, 3.0, model).regime == ANY_POSITIVE
        assert beta_predict(0.49, 3.0, model).regime == EXACT


def test_beta_joint_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = 1.0 + 4.0 * rng.random() + 1e-3
        alpha = rng.random() / (p - 1.0) * 0.999
        pred = beta_predict(alpha, p, "ep")
        assert pred.beta * (p + 2.0) + (p - 1.0) * alpha == pytest.approx(
            1.0, abs=1e-14
        )


# ---------------------------------------------------------------- constants


def test_bound_constants_c1_zero():
    params = ModelParams(g=1.0, gamma=2.0, p=3.0)
    bc = bound_constants(params, M=1.0, Kp=1.0, C=1.0, C1=0.0, C2=1.0, alpha=0.0)
    assert bc.B1 == 0.0


def test_bound_constants_unit_case():
    params = ModelParams(g=1.0, gamma=1.0, p=3.0)
    bc = bound_constants(params, M=1.0, Kp=1.0, C=1.0, C1=0.0, C2=1.0, alpha=0.0)
    assert bc.B2 == pytest.approx(0.2, abs=1e-16)


def test_bound_constants_indicator_drops_c2_term():
    params = ModelParams(g=1.0, gamma=1.0, p=3.0)
    bc = bound_constants(params, M=1.0, Kp=1.0, C=1.0, C1=1.0, C2=1.0, alpha=0.6)
    assert bc.B2 == bc.B1


def test_bound_constants_exact_rational_arithmetic():
    # g = -2, gamma = 3/2, p = 3, M = 2, Kp = 1/4, C = 5, C1 = 1/2,
    # C2 = 1, alpha = 1/4; hand-computed:
    #   B  = 2 * 1/4 * 5 * 4        = 10
    #   B1 = 1/2 * 9/4 * 1/4        = 9/32
    #   B2 = 9/32 + (1/5)*2*(1/4)*(3/2)^4*4 = 9/32 + 81/40 = 369/160
    #   q  = min(2, 1 + 3/2 + 2/4)  = 2
    params = ModelParams(g=-2.0, gamma=1.5, p=3.0)
    bc = bound_constants(params, M=2.0, Kp=0.25, C=5.0, C1=0.5, C2=1.0, alpha=0.25)
    assert bc.B == pytest.approx(10.0, abs=1e-14)
    assert bc.B1 == pytest.approx(9.0 / 32.0, abs=1e-14)
    assert bc.B2 == pytest.approx(369.0 / 160.0, abs=1e-14)
    assert bc.q == pytest.approx(2.0, abs=1e-14)


def test_bound_constants_q_below_two():
    params = ModelParams(g=1.0, gamma=1.0, p=1.5)
    bc = bound_constants(params, M=1.0, Kp=1.0, C=1.0, C1=0.0, C2=0.0, alpha=0.0)
    assert bc.q == pytest.approx(1.75, abs=1e-15)
    assert bc.q > 1.5


# ---------------------------------------------------------------- y_star


def test_y_star_small_time_ratio():
    params = ModelParams(g=1.0, gamma=1.0, p=3.0)
    t = 1e-3
    val = y_star(t, 0.1, params, M=1.0, Kp=1.0, alpha=0.0)
    assert val / (1.0 * 1.0 * t) == pytest.approx(1.0, abs=1e-6)


def test_y_star_zero_epsilon():
    params = ModelParams(g=1.0, gamma=1.0, p=3.0)
    assert y_star(0.05, 0.0, params, M=1.0, Kp=1.0, alpha=1.0) == 0.0


def test_y_star_root_vs_series():
    params = ModelParams(g=1.0, gamma=1.0, p=3.0)
    t = 0.05
    root_val = y_star(t, 0.1, params, M=1.0, Kp=1.0, alpha=0.0)
    series_val = y_star_series(t, 0.1, params, M=1.0, Kp=1.0, alpha=0.0)
    # next omitted order is O(t^4) relative to the leading term
    assert abs(root_val - series_val) <= 1.0 * t * t**4


def test_y_star_g_zero_closed_form():
    params = ModelParams(g=0.0, gamma=2.0, p=3.0)
    t, eps, alpha, M = 0.1, 0.3, 1.0, 1.5
    expect = 2.0 * M * eps**alpha * t / (1.0 - 0.5 * 4.0 * t**2)
    assert y_star(t, eps, params, M=M, Kp=1.0, alpha=alpha) == pytest.approx(
        expect, rel=1e-14
    )


def test_y_star_denominator_guard():
    params = ModelParams(g=1.0, gamma=1.0, p=3.0)
    with pytest.raises(ValueError, match="gamma"):
        y_star(2.0, 0.1, params, M=1.0, Kp=1.0, alpha=0.0)


# ---------------------------------------------------------------- horizon


def test_existence_horizon_g_zero():
    assert existence_horizon(2.0, 0.25, gamma=1.5, g=0.0) == pytest.approx(0.25)


def test_existence_horizon_of_the_free_flow_is_infinite():
    # no coupling and no nonlinearity: nothing limits the existence time
    assert existence_horizon(2.0, 0.5, gamma=0.0, g=0.0) == np.inf


def test_existence_horizon_r_limit():
    assert existence_horizon(1.0, 1 - 1e-12, gamma=1.0, g=1.0) < 1e-12


def test_existence_horizon_arithmetic():
    assert existence_horizon(2.0, 0.5, gamma=1.0, g=1.0, Ktilde=1.0) == pytest.approx(
        0.5 / 6.0, abs=1e-15
    )


def test_existence_horizon_of_a_huge_cap_is_zero():
    # N^2 overflows to inf for a cap past ~1e154, not to an OverflowError
    assert existence_horizon(1e200, 0.5, gamma=1.0, g=1.0) == 0.0


def test_existence_horizon_validation():
    with pytest.raises(ValueError):
        existence_horizon(2.0, 1.5, gamma=1.0, g=1.0)
    with pytest.raises(ValueError):
        existence_horizon(-1.0, 0.5, gamma=1.0, g=1.0)
