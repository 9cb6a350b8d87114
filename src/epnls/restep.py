"""Crossing location by re-stepping the integrator inside its bracket, for
every curve the sweep computes.

Event location on the integrator as its own continuous extension (Hairer,
Norsett & Wanner, Solving ODEs I, 2nd ed., Sec. II.6; Shampine & Thompson
2000, Comput. Math. Appl. 39:43): where rho first reaches a tolerance
between the samples t_left and t_right, one triple jump of h from the
state at t_left gives the state at t_left + h with the step's own
accuracy, and a safeguarded secant on log rho against log t finds the h
where rho equals the tolerance.  Every sweep sample is one triple jump
of dt (of m dt on an interval of m steps), so h is at most the bracket's
width: a re-step's jump is never longer than the stream's step across
its bracket; only a bracket from t = 0 on a curve whose rho grows
faster than t takes shorter ones (_jumps_from_zero).  The sweep
(sweep._measure_batch) holds each crossing's spectra at t_left (_Held:
EP's photon and exciton, NLS's photon) and runs the secants of a batch
together (_restep_crossings).
Read this way, the default EP clocks need 61 % (1D) to a fifth (2D) of the
samples that interpolating the stored samples (sweep.find_crossing) needs
for the same error, and NLS's default crossings lie within 4.4e-11 of a
fine reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import jump
from .grid import gaussian_initial, hs_norm_from_fft
from .theory import beta_predict


@dataclass
class _Held:
    """A crossing of ``tolerance`` on curve ``curve`` (amplitude delta,
    comparator row comp) whose bracket starts at t_left: the spectra of
    its batch row there, one per field the model steps (photon first), the
    secant (_secant) that locates it inside the bracket, and its first
    guess read off the samples (sweep.find_crossing), else None."""

    curve: int
    tolerance: float
    delta: float
    comp: int
    t_left: float
    spectra: list
    secant: object
    read: float | None


def _restep_crossings(c, grid, params, symbols, held, rows):
    """The times of the held crossings (_Held), each located by re-stepping
    the integrator inside its bracket.  Each crossing runs a safeguarded
    secant (_secant) from its guess, and all of them share one set of
    rounds: a round evaluates rho at each open crossing's next time t
    (_restepped_rho), ``rows`` crossings at a time, as many as the batch
    stepped amplitudes, so that a round holds about what the stream held.
    Every operation acts on each row alone, so a crossing's bits depend
    neither on the batch nor on when it is located."""
    deltas = list(dict.fromkeys(h.delta for h in held))
    phi0_hat = grid.fft([gaussian_initial(grid, d).values for d in deltas])
    found = [None] * len(held)
    asks = [(n, next(h.secant)) for n, h in enumerate(held)]  # open crossings
    while asks:
        still = []
        for start in range(0, len(asks), rows):
            part = asks[start : start + rows]
            rho = _restepped_rho(c, grid, params, symbols, phi0_hat, deltas,
                                 [held[n] for n, _ in part], np.array([t for _, t in part]))
            for (n, _), value in zip(part, rho.tolist()):
                try:
                    still.append((n, held[n].secant.send(value)))
                except StopIteration as result:
                    found[n] = result.value
        asks = still
    return found


def _restepped_rho(c, grid, params, symbols, phi0_hat, deltas, held, t):
    """rho of each held crossing at its time t: one triple jump
    (evolution.jump) of the row's own h = t - t_left from its held spectra
    (_jumps_from_zero of them from t = 0), the comparator of
    sweep._comparator_symbols at t and one norm call."""
    m, t_left = len(held), np.array([h.t_left for h in held])
    stack = None  # made after the first jump, whose maps it would outlive
    from_zero = _jumps_from_zero(1.0 / _leading_law(c))
    for count, part in ((1, t_left > 0.0), (from_zero, t_left == 0.0)):
        if part.any():
            spectra = [np.array(rows) for rows in
                       zip(*(h.spectra for h, p in zip(held, part) if p))]
            jump(c.model, grid, params, spectra, t[part] - t_left[part], count)
            if stack is None:
                stack = np.empty((2 * m,) + grid.shape, np.complex128)
            stack[:m][part] = spectra[0]
            del spectra
    np.take(symbols(t)[np.arange(m), [h.comp for h in held]], grid.level_index,
            axis=-1, out=stack[m:], mode="clip")
    stack[m:] *= phi0_hat[[deltas.index(h.delta) for h in held]]
    stack[m:] -= stack[:m]
    norms = hs_norm_from_fft(stack, grid, c.s)
    return norms[m:] / norms[:m]


def _leading_law(c):
    """The leading law of the sweep c's curves at t = 0: rho grows as
    t^(1/law) (p + 2 for EP, 1 for NLS), and a crossing at delta = 1 as
    eps^law."""
    return beta_predict(0.0, c.p, c.model).beta


def _jumps_from_zero(order):
    """Triple jumps that re-step a bracket from t = 0 on a curve whose rho
    grows as t^order.  One jump of h has a local error of order h^5, so
    its error relative to rho is of order h^(5 - order), and n jumps of
    h/n cut it by n^4.  At order 1 (NLS) that is h^4, the relative
    accuracy of any re-step, so one jump suffices at every h: on the
    default clock it reads the 13 crossings of a ladder to eps = 1e-5
    that lie before sample 1 within 3.3e-12 of a fine uniform clock, and
    16 jumps within 3.5e-12.  Past order 1 no fixed count matches the
    step's own accuracy at every h.  At EP's order p + 2 one jump's error
    is of the order of rho itself: it reads EP crossings there 3.6 % early
    (p = 3), 8 jumps 9e-6 and 16 about 6e-7, the error of the default 1D
    clock."""
    return 1 if order <= 1 else 16


# A re-stepped crossing is accepted once its estimated relative error is
# at most this: far below the step error of the default EP clocks (4.5e-7
# in 1D, 1.9e-5 in 2D).  The estimate is loose: NLS's default crossings,
# 4.4e-11 from a fine reference, move by 1.1e-12 at 1e-16
_SECANT_TOL = 1e-10
_SECANT_EVALUATIONS = 60


def _secant(eps, t_left, rho_left, t_right, rho_right, guess, order):
    """The time in (t_left, t_right) where rho reaches eps, given rho_left
    < eps < rho_right: a safeguarded secant on f = log(rho / eps) against
    x = log t, as a generator that yields each time to evaluate, is sent
    rho there and returns the crossing.  It starts at ``guess`` and keeps a
    bracket (a, b) with f(a) < 0 < f(b).  Each next point is the inverse
    quadratic through the last three points (the first time through the
    bracket ends and the guess), else the secant through the last two,
    kept inside the bracket by bisection.  While the left end is t = 0 or a
    zero rho, where f is -inf, the leading law rho ~ t^order through the
    right end stands in for the inverse quadratic.  A step s after a step
    s' (the bracket's width before the first) leaves the new point about
    s^2 / s' from the root, as the steps converge superlinearly; once that
    is at most _SECANT_TOL, the new point is returned without evaluating
    it.  Measured on the default sweeps: 1.0-1.1 evaluations per crossing
    for EP in 1D, 3.1-3.3 (at most 4) in 2D, and 1.0 for NLS (every
    crossing of seeds 0-2, and of a ladder to eps = 1e-5, whose 13
    crossings before sample 1 start from t = 0)."""

    def f(rho):
        return math.log(rho / eps) if rho > 0.0 else -math.inf

    b, fb = math.log(t_right), f(rho_right)
    if t_left > 0.0 and rho_left > 0.0:
        a = math.log(t_left)
        recent, last_step = [(a, f(rho_left)), (b, fb)], b - a
    else:
        a, recent, last_step = -math.inf, [(b, fb)], 1.0
    x = math.log(guess)
    for _ in range(_SECANT_EVALUATIONS):
        if not a < x < b:
            x = b - fb / order if a == -math.inf else 0.5 * (a + b)
        fx = f((yield math.exp(x)))
        if fx == 0.0:
            return math.exp(x)
        if fx < 0.0:
            a = x
        else:
            b, fb = x, fx
        recent = (recent + [(x, fx)])[-3:]
        values = [v for _, v in recent]
        new = None
        if len(recent) == 3 and math.isfinite(min(values)) and len(set(values)) == 3:
            new = sum(xi * math.prod(fm / (fm - fi) for _, fm in recent if fm != fi)
                      for xi, fi in recent)
        if not (new is not None and a < new < b) and len(recent) > 1:
            (x0, f0), (x1, f1) = recent[-2:]
            new = x1 - f1 * (x1 - x0) / (f1 - f0) if math.isfinite(f0) and f0 != f1 else None
        if new is None or not a < new < b:
            new = b - fb / order if a == -math.inf else 0.5 * (a + b)
        step = abs(new - x)
        if step * step <= _SECANT_TOL * last_step:
            return math.exp(new)
        x, last_step = new, step
    return math.exp(x)
