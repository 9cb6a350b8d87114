"""Crossing location by re-stepping the integrator inside its bracket, for
every curve the sweep computes.

Event location on the integrator as its own continuous extension (Hairer,
Norsett & Wanner, Solving ODEs I, 2nd ed., Sec. II.6; Shampine & Thompson
2000, Comput. Math. Appl. 39:43): where rho first reaches a tolerance
between the samples t_left and t_right, one composed step of h from the
state at t_left gives the state at t_left + h with the step's own
accuracy, and a safeguarded Newton on log rho against log t finds the h
where rho equals the tolerance.  rho's slope comes with every value, in
closed form from the model's right-hand side (evolution.log_rho_rate),
and the first guess is the cubic Hermite through the bracket ends'
values and slopes.  Every sweep sample is one composed step of dt, so h
is at most the bracket's width: a re-step's jump is never longer than
the stream's step across its bracket; only a bracket from t = 0 on a curve whose rho grows faster
than t takes shorter ones (_jumps_from_zero).  The sweep
(sweep._measure_batch) holds each crossing's spectra at both bracket
ends (_Held: EP's photon and exciton, NLS's photon) and runs the Newton
iterations of a batch together (_restep_crossings): on the default sweeps
1.5, at most 2, evaluations per crossing for EP 1D, 1.167, at most 2, for
NLS and 1.875, at most 2, in 2D.  This is the one reading of every sweep
crossing.  Read this way, the 21 samples of the default EP 1D clock give
its crossings within 1.7e-8 of a fine reference, where the log-linear
reading of stored samples (sweep.find_crossing) is off by 7.5e-4 on those
samples and by 6.9e-8 on the 2,001 of dt = 1e-3; NLS's default crossings
lie within 2.4e-11 of a fine reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import _WEIGHTS, jump, log_rho_rate
from .grid import gaussian_rows, hs_norm_from_fft
from .theory import beta_predict


@dataclass
class _Held:
    """A crossing of ``tolerance`` on curve ``curve`` (amplitude delta,
    comparator row comp) in the bracket of samples (t_left, t_right), where
    rho is rho_left < tolerance < rho_right: the spectra of its batch row
    at both ends, one per field the model steps (photon first; those at
    the right end go once its slope is known)."""

    curve: int
    tolerance: float
    delta: float
    comp: int
    t_left: float
    rho_left: float
    t_right: float
    rho_right: float
    spectra: list
    right: list


def _restep_crossings(c, grid, params, symbols, held, rows):
    """The times of the held crossings (_Held), each located by re-stepping
    the integrator inside its bracket.  rho's slope at every bracket end
    (_rho_and_slope) gives each crossing a safeguarded Newton (_newton),
    and all of them share one queue of rounds: a round evaluates rho and
    its slope at the next time t (_restepped) of the first ``rows`` open
    crossings, as many as the batch stepped amplitudes, so that it holds
    about what the stream held, and puts those still open at the back.
    The ends go as many at a time, and the spectra at the right ends go
    once their slopes are known.  Every operation acts on each row alone,
    so a crossing's bits depend neither on the batch nor on when it is
    located."""
    deltas = list(dict.fromkeys(h.delta for h in held))
    phi0_hat = grid.fft(gaussian_rows(grid, deltas))
    initial = [deltas.index(h.delta) for h in held]
    ends = [(n, h.t_left, h.spectra) for n, h in enumerate(held)
            if h.t_left > 0.0 and h.rho_left > 0.0]
    ends += [(n, h.t_right, h.right) for n, h in enumerate(held)]
    slope = {}
    for start in range(0, len(ends), rows):
        part = ends[start : start + rows]
        stack = np.empty((2 * len(part),) + grid.shape, np.complex128)
        np.stack([spectra[0] for _, _, spectra in part], out=stack[: len(part)])
        others = [np.array(f) for f in zip(*(spectra[1:] for _, _, spectra in part))]
        t = np.array([t for _, t, _ in part])
        _, slopes = _rho_and_slope(c, grid, params, symbols, phi0_hat,
                                   [initial[n] for n, _, _ in part],
                                   [held[n].comp for n, _, _ in part], t, stack, others)
        slope.update(((n, t), s) for (n, t, _), s in zip(part, slopes.tolist()))
        del stack, others, part
    del ends
    for h in held:
        h.right = None
    order = 1.0 / _leading_law(c)
    newtons = [_newton(h.tolerance, (h.t_left, h.rho_left, slope.get((n, h.t_left))),
                       (h.t_right, h.rho_right, slope[n, h.t_right]), order)
               for n, h in enumerate(held)]
    found = [None] * len(held)
    asks = [(n, next(newton)) for n, newton in enumerate(newtons)]  # open crossings
    while asks:
        part, asks = asks[:rows], asks[rows:]
        values = _restepped(c, grid, params, symbols, phi0_hat, [initial[n] for n, _ in part],
                            [held[n] for n, _ in part], np.array([t for _, t in part]))
        for (n, _), value in zip(part, zip(*(v.tolist() for v in values))):
            try:
                asks.append((n, newtons[n].send(value)))
            except StopIteration as result:
                found[n] = result.value
    return found


def _restepped(c, grid, params, symbols, phi0_hat, initial, held, t):
    """rho of each held crossing at its time t and its slope there
    (_rho_and_slope): one composed step (evolution.jump) of the row's own
    h = t - t_left from its held spectra (_jumps_from_zero of them from
    t = 0); phi0_hat[initial[i]] is row i's initial photon spectrum."""
    m, t_left = len(held), np.array([h.t_left for h in held])
    stack = None  # made after the first jump, whose maps it would outlive
    from_zero = _jumps_from_zero(1.0 / _leading_law(c), len(_WEIGHTS[c.model, grid.n]))
    for count, part in ((1, t_left > 0.0), (from_zero, t_left == 0.0)):
        if part.any():
            spectra = [np.array(rows) for rows in
                       zip(*(h.spectra for h, p in zip(held, part) if p))]
            jump(c.model, grid, params, spectra, t[part] - t_left[part], count)
            if stack is None:
                stack = np.empty((2 * m,) + grid.shape, np.complex128)
                others = [np.empty_like(stack[:m]) for _ in spectra[1:]]
            for field, a in zip([stack[:m], *others], spectra):
                field[part] = a
            del spectra
    return _rho_and_slope(c, grid, params, symbols, phi0_hat, initial, [h.comp for h in held],
                          t, stack, others)


def _rho_and_slope(c, grid, params, symbols, phi0_hat, initial, comps, t, stack, others):
    """rho of each of the m rows at its time t and its slope d log rho /
    d log t there, from the truth's spectra: its photon in stack[:m], of 2m
    rows, and the spectra of the model's other fields (EP's exciton) in
    ``others``.  The comparator is sweep._comparator_symbols' row comps[i]
    at t times the initial photon spectrum phi0_hat[initial[i]], indexed
    only here, after any jump, whose peak the rows' copy would raise.  Its
    difference from the truth goes to stack[m:], one norm call gives rho,
    and the slope comes from the model's right-hand side
    (evolution.log_rho_rate), which reuses that call's norms."""
    m = len(t)
    photon, drive = symbols(t, rows=comps)
    # level_index is in range, so mode="clip" only spares take a buffer
    np.take(photon, grid.level_index, axis=-1, out=stack[m:], mode="clip")
    del photon
    phi0_hat = phi0_hat[initial]
    stack[m:] *= phi0_hat
    stack[m:] -= stack[:m]
    norms = hs_norm_from_fft(stack, grid, c.s)
    if drive is not None:  # the comparator's exciton
        drive = np.take(drive, grid.level_index, axis=-1)
        drive *= phi0_hat
    rate = log_rho_rate(c.model, grid, params, [stack[:m], *others], stack[m:], drive,
                        norms[:m], norms[m:])
    return norms[m:] / norms[:m], t * rate


def _leading_law(c):
    """The leading law of the sweep c's curves at t = 0: rho grows as
    t^(1/law) (p + 2 for EP, 1 for NLS), and a crossing at delta = 1 as
    eps^law."""
    return beta_predict(0.0, c.p, c.model).beta


def _jumps_from_zero(order, stages):
    """Composed steps that re-step a bracket from t = 0 on a curve whose
    rho grows as t^order, for a step of ``stages`` rotations (the length of
    evolution._WEIGHTS of the model and n).  One step of order q (6 for the
    7 stages of NLS and of EP in 1D and 3D, 4 for 2D EP's 3-stage triple
    jump) has a local error of order h^(q + 1), so its error relative to rho
    is of order h^(q + 1 - order), and n steps of h/n cut it by n^q.  At
    order 1 (NLS) that is h^6, the relative accuracy of any re-step, so one
    step suffices at every h: on the default clock it reads the 28 crossings
    of a ladder to eps = 1e-5 that lie before sample 1 within 4.1e-12 of a
    fine uniform clock.  Past order 1 no fixed count matches the step's own
    accuracy at every h, so each step takes the count that cuts its error
    at least 2^16-fold: 16 triple jumps (16^4), 8 sixth-order steps (8^6).
    At EP's order p + 2 (p = 3) on a bracket of 0.1 from t = 0, crossings
    at eps = 1e-9..1e-11 against a dt = 1e-3 clock: one triple jump reads
    them 3.6 % early, 8 jumps 7.7-9.6e-6 and 16 up to 1.6e-6; one
    sixth-order step reads them within 3.3e-6, and 8 within 3.9e-7 in 1D
    and 1.2e-7 in 3D N = 16, at the floor of rho's rounding there (about
    1e-7; 16 read 2.1e-7 and 8.3e-7)."""
    if order <= 1:
        return 1
    return {3: 16, 7: 8}[stages]


# A re-stepped crossing is accepted once its estimated relative error is
# at most this, far below the step error of the default EP clocks (1.7e-8
# in 1D, 1.9e-5 in 2D).  The estimates (_newton) lay at most 1.07x below
# the error of the step they judged (every step on the default sweeps at
# seeds 0-2, 3D N = 16, p = 5 and NLS from t = 0, against runs stopped at
# 1e-16), so this is set a decade below the 1e-10 that the crossings are
# held to against such a run
_NEWTON_TOL = 1e-11
_NEWTON_EVALUATIONS = 60


def _newton(eps, left, right, order):
    """The time in (t_left, t_right) where rho reaches eps, given each end's
    (t, rho, slope) with rho_left < eps < rho_right and slope = d log rho /
    d log t (None at a left end of t = 0 or zero rho): a safeguarded Newton
    on f = log(rho / eps) against x = log t, as a generator that yields
    each time to evaluate, is sent (rho, slope) there and returns the
    crossing.

    The first guess is the root of the cubic Hermite through the bracket
    ends (_hermite); while the left end is t = 0 or a zero rho, where f is
    -inf, Newton's step from the right end stands in for it (the leading
    law rho ~ t^order through it, if its slope is not positive).  It keeps
    a bracket (a, b) with f(a) < 0 < f(b), and a step that leaves it gives
    way to that guess on the bracket, or to bisection.  A Newton step s
    leaves an error of about s times the rate the iteration contracts,
    which is |s| / |s'| after a step s', and otherwise is read off the
    first evaluation (_first_rate); once that error is at most _NEWTON_TOL
    the step's point is returned without evaluating it.  The slope is the
    model's at the re-stepped state, which differs from the re-step's own
    slope in h by the derivative of its error: zero at t_left and growing
    as h^q for a step of order q (6 for the sixth-order step, 4 for 2D
    EP's triple jump), up to 9e-4 relative at the right end of a default
    2D bracket.  So Newton contracts linearly there, and the estimate must
    see it."""
    right = _log_end(right, eps)
    b, fb, gb = right
    a, fa, ga = -math.inf, -math.inf, None
    if left[2] is not None:
        a, fa, ga = _log_end(left, eps)

    def guess():
        if a == -math.inf:
            return b - fb / (gb if 0.0 < gb < math.inf else order)
        if 0.0 < ga < math.inf and 0.0 < gb < math.inf:
            return _hermite(a, fa, ga, b, fb, gb)
        return 0.5 * (a + b)

    first = (a, fa, ga, *right)
    x, last = guess(), None
    for _ in range(_NEWTON_EVALUATIONS):
        rho, slope = yield math.exp(x)
        fx = math.log(rho / eps) if rho > 0.0 else -math.inf
        if fx == 0.0:
            return math.exp(x)
        if fx < 0.0:
            a, fa, ga = x, fx, slope
        else:
            b, fb, gb = x, fx, slope
        step = -fx / slope if 0.0 < slope < math.inf and fx > -math.inf else math.nan
        if math.isfinite(step):
            rate = abs(step) / last if last else _first_rate(*first, x, fx, slope, step)
            if abs(step) * rate <= _NEWTON_TOL:
                return math.exp(x + step)
        x, last = x + step, abs(step)
        if not a < x < b:
            x, last = guess(), None
    return math.exp(x)


def _log_end(end, eps):
    # a bracket end (t, rho, slope) as (x, f, slope)
    t, rho, slope = end
    return math.log(t), math.log(rho / eps), slope


def _first_rate(a, fa, ga, b, fb, gb, x, fx, slope, step):
    """The rate at which a Newton step from the first evaluation (x, fx,
    slope) inside the bracket (a, b) contracts.  On a bracket from t > 0,
    slope's distance from the slope at x of the cubic through (a, fa) with
    slope ga, (x, fx) and (b, fb), which takes no slope from where the
    re-step's own one departs from the model's, plus |step| over the
    bracket's width for the curvature.  From t = 0, where the re-step's
    relative error does not grow with h to leading order, the curvature
    term f'' |step| / (2 f') alone, f'' from the slopes at x and b."""
    if a == -math.inf:
        return abs(gb - slope) * abs(step) / (2.0 * slope * (b - x))
    d, w = x - a, b - a
    r0, rb = fx - fa - ga * d, fb - fa - ga * w
    cubic = ga + (r0 * (2.0 * w - 3.0 * d) / d + rb * d * d / (w * w)) / (w - d)
    return abs(cubic / slope - 1.0) + abs(step) / w


def _hermite(a, fa, ga, b, fb, gb):
    """The root in (a, b) of the cubic Hermite through (a, fa) and (b, fb)
    with slopes ga and gb, fa < 0 < fb: a safeguarded Newton on it in
    s = (x - a) / (b - a) from the linear interpolant's root."""
    w = b - a
    lo, hi, s = 0.0, 1.0, -fa / (fb - fa)
    for _ in range(_NEWTON_EVALUATIONS):
        u = 1.0 - s
        value = (fa * (1.0 + 2.0 * s) * u * u + w * ga * s * u * u
                 + fb * s * s * (3.0 - 2.0 * s) - w * gb * s * s * u)
        slope = (6.0 * s * u * (fb - fa)
                 + w * (ga * u * (1.0 - 3.0 * s) + gb * s * (3.0 * s - 2.0)))
        if value < 0.0:
            lo = s
        else:
            hi = s
        new = s - value / slope if slope > 0.0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - s) <= 1e-8:  # Newton's next step would be ~1e-16
            break
        s = new
    return a + new * w
