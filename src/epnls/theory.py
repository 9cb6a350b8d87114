"""Closed-form predictions for the short-time onset of nonlinear effects.

Covers the scalar equation Q(y) = eta*y^p - y + delta and its two positive
roots, the small-root power series, the crossing-exponent predictions
beta(alpha) for both the coupled photon-exciton model and the NLS
equation, the a-priori exciton-growth bound y_star(t, eps), and the
contraction-argument existence horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .evolution import ModelParams

SERIES_REGIME_LIMIT = 0.3
_BISECT_REL_TOL = 1e-6
_NEWTON_REL_TOL = 1e-12
_MAX_ITER = 200


class NoRealRootsError(ValueError):
    """Q has no positive real roots: eta or delta too large for the
    small-parameter regime (the minimum of Q over y > 0 is positive)."""


def _check_finite(**values):
    # as ModelParams checks its constants: a nan or inf argument would
    # come out as a nan or infinite result
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LemmaQInput:
    """Parameters (eta, delta, p) of Q(y) = eta*y^p - y + delta."""

    eta: float
    delta: float
    p: float

    def __post_init__(self):
        if not (self.eta >= 0 and self.delta >= 0):
            raise ValueError("eta and delta must be nonnegative")
        if not self.p > 1:
            raise ValueError("nonlinearity power p must exceed 1")
        _check_finite(eta=self.eta, delta=self.delta, p=self.p)

    @property
    def z(self):
        """The small expansion parameter eta * delta^(p-1)."""
        return self.eta * self.delta ** (self.p - 1)


def q_eval(y, inp):
    """Q(y) = eta*y^p - y + delta, evaluated for y >= 0."""
    if y < 0:
        raise ValueError("q_eval is defined for y >= 0")
    return inp.eta * y**inp.p - y + inp.delta


def q_minimizer(inp):
    """Location of the minimum of Q over y > 0: (1/(p*eta))^(1/(p-1))."""
    if inp.eta <= 0:
        raise ValueError("the minimizer exists only for eta > 0")
    return (1.0 / (inp.p * inp.eta)) ** (1.0 / (inp.p - 1.0))


def _bisect(f, lo, hi, rel_tol):
    flo = f(lo)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * max(1.0, abs(mid)):
            return mid
        fmid = f(mid)
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton_polish(f, df, y, lo, hi):
    for _ in range(_MAX_ITER):
        deriv = df(y)
        if deriv == 0:
            break
        step = f(y) / deriv
        y_new = y - step
        if not lo <= y_new <= hi:
            break
        if abs(step) <= _NEWTON_REL_TOL * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    return y


def lemma_roots(inp):
    """Both positive roots (y1, y2) of Q, y1 < y_min < y2.

    Brackets each root around the minimizer y_min = (1/(p*eta))^(1/(p-1)),
    bisects to 1e-6 relative, then polishes with Newton to 1e-12.
    Raises NoRealRootsError when Q(y_min) > 0, the computable form of the
    "eta and delta sufficiently small" hypothesis.
    """
    if inp.eta <= 0 or inp.delta <= 0:
        raise ValueError("lemma_roots requires eta > 0 and delta > 0")
    p, eta, delta = inp.p, inp.eta, inp.delta
    f = lambda y: eta * y**p - y + delta
    df = lambda y: p * eta * y ** (p - 1.0) - 1.0
    y_min = q_minimizer(inp)
    q_min = f(y_min)
    if q_min > 0:
        raise NoRealRootsError(
            f"Q(y_min) = {q_min:.6g} > 0: no real positive roots "
            f"(eta = {eta:.6g}, delta = {delta:.6g} outside the small regime)"
        )
    if q_min == 0:
        return y_min, y_min

    y1 = _bisect(f, 0.0, y_min, _BISECT_REL_TOL)
    y1 = _newton_polish(f, df, y1, 0.0, y_min)

    hi = 2.0 * max(y_min, (1.0 / eta) ** (1.0 / (p - 1.0)))
    for _ in range(_MAX_ITER):
        if f(hi) > 0:
            break
        hi *= 2.0
    y2 = _bisect(f, y_min, hi, _BISECT_REL_TOL)
    y2 = _newton_polish(f, df, y2, y_min, hi)
    return y1, y2


# Exact Taylor coefficients of the small root in z = eta*delta^(p-1):
#   y1     = delta  * (1 + z + p z^2 + (p^2 + p(p-1)/2) z^3 + ...)
#   y1^p   = delta^p * (1 + p z + (p^2 + p(p-1)/2) z^2 + ...)
def _y1_coeffs(p):
    return (1.0, 1.0, p, p * p + 0.5 * p * (p - 1.0))


def _check_series_regime(inp):
    if inp.z >= SERIES_REGIME_LIMIT:
        raise ValueError(
            f"series parameter eta*delta^(p-1) = {inp.z:.6g} is outside the "
            f"convergent regime (< {SERIES_REGIME_LIMIT})"
        )


def y1_series(inp, order):
    """Small-root power series truncated after the z^order term."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2, or 3")
    _check_series_regime(inp)
    c = _y1_coeffs(inp.p)
    z = inp.z
    total = 1.0
    for k in range(1, order + 1):
        total += c[k] * z**k
    return inp.delta * total


def y1_pow_p_series(inp, order):
    """Series for y1^p truncated after the z^order term."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    _check_series_regime(inp)
    # y1^p = (y1 - delta) / eta, so its z^k coefficient is y1's z^(k+1) one
    c = _y1_coeffs(inp.p)
    total = sum(c[k + 1] * inp.z**k for k in range(order + 1))
    return inp.delta**inp.p * total


EXACT = "exact"
ANY_POSITIVE = "any-positive"


@dataclass(frozen=True)
class BetaPrediction:
    """Predicted crossing-time exponent for t = C * eps^beta.

    In the ``exact`` regime (alpha < 1/(p-1)) the theory pins beta; for
    larger alpha it asserts only beta > 0 and ``beta`` here is the formula
    value extrapolated for reference.
    """

    alpha: float
    p: float
    model: str
    beta: float
    regime: str


def beta_predict(alpha, p, model):
    """beta(alpha): 1-(p-1)*alpha for NLS, divided by (p+2) for EP."""
    _check_finite(alpha=alpha, p=p)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if not p > 1:
        raise ValueError("p must exceed 1")
    model = model.lower()
    if model not in ("nls", "ep"):
        raise ValueError(f"model must be 'nls' or 'ep', got {model!r}")
    base = 1.0 - (p - 1.0) * alpha
    beta = base if model == "nls" else base / (p + 2.0)
    regime = EXACT if alpha < 1.0 / (p - 1.0) else ANY_POSITIVE
    return BetaPrediction(alpha=alpha, p=p, model=model, beta=beta, regime=regime)


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the linear-approximation error bounds.

    B bounds the NLS relative error; B1 and B2 bound the photon-exciton
    relative error on the early (system A) and late (system B) windows,
    with o(eps^q) remainder exponent q on the early window.
    """

    M: float
    Kp: float
    C: float
    C1: float
    C2: float
    alpha: float
    B: float
    B1: float
    B2: float
    q: float


def bound_constants(params, M, Kp, C, C1, C2, alpha):
    """B = |g| Kp C M^(p-1); B1 = gamma^2 C1^2 / 2; B2 adds the C2 term
    (1/(p+2)) |g| Kp gamma^(p+1) M^(p-1) C2^(p+2) when alpha <= 1/2;
    q = min(2, 1 + p/2 + alpha (p-1))."""
    _check_finite(M=M, Kp=Kp, C=C, C1=C1, C2=C2, alpha=alpha)
    for name, v in (("M", M), ("Kp", Kp), ("C", C), ("C1", C1), ("C2", C2), ("alpha", alpha)):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    if Kp == 0:
        raise ValueError("Kp must be positive")
    g, gamma, p = params.g, params.gamma, params.p
    B = abs(g) * Kp * C * M ** (p - 1.0)
    B1 = 0.5 * gamma**2 * C1**2
    B2 = B1
    if alpha <= 0.5:
        B2 = B1 + abs(g) * Kp * gamma ** (p + 1.0) * M ** (p - 1.0) * C2 ** (p + 2.0) / (p + 2.0)
    q = min(2.0, 1.0 + p / 2.0 + alpha * (p - 1.0))
    return BoundConstants(M=M, Kp=Kp, C=C, C1=C1, C2=C2, alpha=alpha, B=B, B1=B1, B2=B2, q=q)


def y_star(t, epsilon, params, M, Kp, alpha):
    """A-priori bound on the exciton norm grown from phi(0) = eps^alpha phi0.

    Evaluates eta^(1/p) * y1(eta, delta) with
    eta = (|g| Kp t / (1 - gamma^2 t^2 / 2))^p and
    delta = gamma M eps^alpha / (|g| Kp).  The g = 0 limit is the exact
    linear value gamma M eps^alpha t / (1 - gamma^2 t^2 / 2).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    g, gamma, p = params.g, params.gamma, params.p
    denom = 1.0 - 0.5 * gamma**2 * t**2
    if denom <= 0:
        raise ValueError(
            f"y_star requires gamma^2 t^2 / 2 < 1 (got t = {t}, gamma = {gamma})"
        )
    amp = M * epsilon**alpha
    if amp == 0 or t == 0:
        return 0.0
    if g == 0:
        return gamma * amp * t / denom
    eta = (abs(g) * Kp * t / denom) ** p
    delta = gamma * amp / (abs(g) * Kp)
    y1, _ = lemma_roots(LemmaQInput(eta=eta, delta=delta, p=p))
    return eta ** (1.0 / p) * y1


def y_star_series(t, epsilon, params, M, Kp, alpha):
    """Leading expansion gamma M eps^alpha t (1 + gamma^2 t^2/2
    + |g| Kp (gamma M)^(p-1) eps^(alpha(p-1)) t^p)."""
    g, gamma, p = params.g, params.gamma, params.p
    amp = M * epsilon**alpha
    lead = gamma * amp * t
    return lead * (
        1.0
        + 0.5 * gamma**2 * t**2
        + abs(g) * Kp * (gamma * amp) ** (p - 1.0) * t**p
    )


def existence_horizon(N, r, gamma, g, Ktilde=1.0):
    """Guaranteed existence time (1 - r) / (2 gamma + |g| Ktilde N^2), inf
    for the free flow (no coupling and no nonlinearity).

    Advisory only: simulations past this horizon are not necessarily
    invalid, but the contraction argument no longer vouches for them.
    """
    if not 0 < r < 1:
        raise ValueError("r must lie in (0, 1)")
    if N <= 0:
        raise ValueError("N must be positive")
    # N * N, not N**2: a float power raises OverflowError past ~1e154,
    # where the product rounds to inf and the horizon to 0
    rate = 2.0 * gamma + abs(g) * Ktilde * (N * N)
    return (1.0 - r) / rate if rate > 0 else float("inf")
