"""End-to-end crossing-time sweep: simulate the nonlinear system against
its linear comparator over a ladder of initial amplitudes, locate the
times where the relative error reaches each tolerance, and regress the
scaling exponent beta per alpha.

The procedure follows the two-loop structure: error curves rho(t; delta)
are simulated once per distinct amplitude delta, only up to the last
crossing read off them, and reused across every alpha (delta = eps^alpha
ties amplitude to tolerance; alpha = 0 pins delta = 1 and sweeps eps
directly off that single curve).  Crossing times t(alpha, eps) then obey
t = C eps^beta with beta = 1 - (p-1) alpha for NLS and
beta = (1 - (p-1) alpha)/(p+2) for the coupled system.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .evolution import (
    DEFAULT_DT,
    DEFAULT_SAMPLES_PER_UNIT_TIME,
    EP,
    NLS,
    ErrorCurve,
    ModelParams,
    StepSpec,
    composite_seed,
    linear_pair_propagator,
    model_stream,
    nls_forcing,
    sample_times,
)
from .grid import (
    DEFAULT_MAX_POINTS,
    check_grid_args,
    default_sobolev_index,
    free_symbol,
    gaussian_initial,
    hs_norm_from_fft,
    make_grid,
)
from .runio import fmt, read_curve_csv, sha256_hex, write_csv
from .theory import EXACT, beta_predict

COMPARATOR_SYSTEM_B = "systemB"
COMPARATOR_COMPOSITE = "composite"
COMPARATOR_LINEAR_NLS = "linear-nls"

# per-model solver defaults: EP crossings land at t ~ 0.3-1.5, NLS
# crossings at t ~ 1e-3 - 1e-1, so NLS needs a much denser clock.  Both
# take one fourth-order triple jump per sample, so that the sample spacing,
# not the step, limits the crossings.  EP, read by find_crossing's cubic
# rule: dt = 2e-2 at 50 samples per unit time, crossings within 6.4e-7 of
# a fine reference in 1D and 3.4e-5 in 2D.  NLS curves carry rho', and
# find_crossing reads them by cubic Hermite from the two samples that
# bracket a crossing: dt = 5e-4 at 2,000 samples per unit time, within
# 1.3e-9 of a triple jump at dt = 2e-5 with 50,000 samples (the cubic rule
# needed 4,000 samples for 2.5e-9).  The earliest default crossing,
# t ~ 1.0e-3, lies past sample 1, as the Hermite rule needs
_MODEL_DEFAULTS = {
    EP: {"T": 2.0, "dt": DEFAULT_DT,
         "samples_per_unit_time": DEFAULT_SAMPLES_PER_UNIT_TIME,
         "comparator": COMPARATOR_SYSTEM_B},
    NLS: {"T": 0.2, "dt": 5e-4, "samples_per_unit_time": 2000,
          "comparator": COMPARATOR_LINEAR_NLS},
}

DEFAULT_ALPHAS = (0.0, 0.1, 0.2, 0.3)
DEFAULT_EPSILONS = tuple(np.logspace(-2.0, -3.0, 6))

# Part of every cache key, per model; bumped whenever the bits of that
# model's computed curves change, so a cache never serves curves an older
# solver wrote.
SOLVER_REVISION = {EP: 5, NLS: 5}

# Complex grid-sized arrays a batch member with one curve keeps alive at
# the peak of _curve_batch, measured and rounded up (EP ~5.0 with system B
# and ~8.4-8.9 with the composite, NLS ~6.5; checked by
# tests/test_sweep.py): the curve's phi_hat(0) copy, the spectra the
# split-step loop owns (EP: phi_hat, and psi in whichever space it is in;
# NLS: one field, whose spectrum is dropped while it is rotated), the
# temporaries of a rotation or a 2x2 step, the truth-and-difference stack
# of the one norm call per sample (for NLS with its forcing row, which
# rho' needs) and, for the composite, the seed pair of the curve's
# comparator epsilon.  Each further curve of one delta (the composite's
# other epsilons) adds its phi_hat(0) copy, stack row, norm temporaries
# and seed pair (~5.4-5.8).  max_points bounds grid x the sum of these
# over a batch (_member_points).
_ARRAYS_PER_MEMBER = {EP: 9, NLS: 7}
_ARRAYS_PER_EXTRA_CURVE = 6


class NoCrossingError(RuntimeError):
    """The error curve never reaches the requested tolerance (or reaches
    it before the first positive sample, i.e. the cadence is too coarse)."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one full run: grid, physics, amplitude
    ladder, solver clock and output places.

    Fields left None (s, T, dt, samples_per_unit_time, comparator) are
    filled with the model's defaults at construction, so every instance
    is fully resolved.  Grid, physics and clock are checked by the
    objects they describe (check_grid_args, ModelParams, StepSpec and
    sample_times), and max_points by the largest batch member the sweep
    needs, so an invalid config fails here, before any run.
    """

    model: str = EP
    n: int = 1
    N: int = 256
    L: float = 10.0
    p: float = ModelParams.p
    g: float = ModelParams.g
    gamma: float = ModelParams.gamma
    omega0: float = ModelParams.omega0
    s: float | None = None
    alpha_set: tuple = DEFAULT_ALPHAS
    epsilon_set: tuple = DEFAULT_EPSILONS
    T: float | None = None
    dt: float | None = None
    samples_per_unit_time: int | None = None
    comparator: str | None = None
    c1: float = 0.0
    epsilon_floor: float = 1e-6
    workers: int = 1
    cache_dir: str | None = None
    max_points: int = DEFAULT_MAX_POINTS
    outdir: str = "runs"

    def __post_init__(self):
        if self.model not in (EP, NLS):
            raise ValueError(f"model must be '{EP}' or '{NLS}', got {self.model!r}")
        for name, value in _MODEL_DEFAULTS[self.model].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.s is None:
            object.__setattr__(self, "s", default_sobolev_index(self.n))
        _model_params(self)
        check_grid_args(self.n, self.N, self.L)
        if not self.dt > 0:  # StepSpec admits dt < 0, for stepping back
            raise ValueError(f"dt must be positive for a sweep, got {self.dt}")
        sample_times(self.T, _solver_step(self))
        eps = tuple(float(e) for e in self.epsilon_set)
        if not eps or any(not 0 < e <= 1 for e in eps):
            raise ValueError("epsilon_set values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_set must be strictly decreasing")
        alphas = tuple(float(a) for a in self.alpha_set)
        if not alphas or any(not 0 <= a < np.inf for a in alphas):
            raise ValueError("alpha_set must be nonempty with finite alpha >= 0")
        valid = (
            (COMPARATOR_SYSTEM_B, COMPARATOR_COMPOSITE)
            if self.model == EP
            else (COMPARATOR_LINEAR_NLS,)
        )
        if self.comparator not in valid:
            raise ValueError(
                f"comparator {self.comparator!r} is not valid for model "
                f"{self.model!r} (expected one of {valid})"
            )
        if not 0 <= self.epsilon_floor < np.inf:
            raise ValueError("epsilon_floor must be finite and nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.outdir:
            raise ValueError(f"outdir must name a directory, got {self.outdir!r}")
        t1 = self.c1 * np.sqrt(eps[0])
        if self.comparator == COMPARATOR_COMPOSITE and not 0 <= t1 <= self.T:
            raise ValueError(
                f"the composite comparator needs c1 >= 0 and an A-phase end "
                f"t1 = c1 sqrt(max epsilon) = {t1:.6g} within the horizon "
                f"T = {fmt(self.T)}"
            )
        object.__setattr__(self, "epsilon_set", eps)
        object.__setattr__(self, "alpha_set", alphas)
        points = _member_points(self, max(map(len, _by_delta(curve_specs(self)))))
        if points > self.max_points:
            raise ValueError(f"one amplitude's batch needs {points} points, which "
                             f"exceeds the memory cap of {self.max_points} points")

    def resolved(self):
        """This config itself, as is to_sweep_config(): a SweepConfig is
        resolved at construction and parsing yields one.  Both are kept
        only because the benchmark's frozen tests (perfbench/tests) call
        them; the package does not."""
        return self

    to_sweep_config = resolved

    def delta_for(self, alpha, epsilon):
        """Initial amplitude tied to the tolerance: delta = epsilon^alpha,
        with the alpha = 0 degeneracy pinned to delta = 1."""
        return 1.0 if alpha == 0.0 else float(epsilon**alpha)


def physics_signature(config):
    """Canonical string of every field that affects a single error curve
    (grid, physics, solver clock, comparator); cosmetic and sweep-ladder
    fields are excluded so equivalent runs share cached curves."""
    parts = [
        f"model={config.model}",
        f"n={config.n}",
        f"N={config.N}",
        f"L={fmt(config.L)}",
        f"p={fmt(config.p)}",
        f"g={fmt(config.g)}",
        f"gamma={fmt(config.gamma)}",
        f"omega0={fmt(config.omega0)}",
        f"s={fmt(config.s)}",
        f"T={fmt(config.T)}",
        f"dt={fmt(config.dt)}",
        f"spu={config.samples_per_unit_time}",
        f"comparator={config.comparator}",
        f"solver={SOLVER_REVISION[config.model]}",
    ]
    if config.comparator == COMPARATOR_COMPOSITE:
        parts.append(f"c1={fmt(config.c1)}")
    return ";".join(parts)


def config_hash(config):
    return sha256_hex(physics_signature(config))[:16]


@dataclass(frozen=True)
class CrossingRecord:
    alpha: float
    delta: float
    epsilon: float
    t_cross: float


@dataclass(frozen=True)
class RegressionResult:
    alpha: float
    beta: float
    intercept: float
    r_squared: float
    npoints: int


@dataclass
class AlgorithmAResult:
    """Everything the sweep produced: curves, crossings, per-alpha fits,
    the beta-vs-alpha meta fit, and per-record failures (which never
    abort the remaining work).  ``curves`` are run_error_curves', each
    keyed by its (delta, epsilon_comp) and ending at its last needed
    crossing (or at T), whether computed or served from a cached prefix."""

    config: SweepConfig
    curves: list
    crossings: list
    betas: list
    meta_slope: float | None
    meta_intercept: float | None
    theory_slope: float
    theory_intercept: float
    failures: list = field(default_factory=list)


# --------------------------------------------------------------------------
# curve simulation


def _comparator_symbols(c, grid, params, comps):
    """Function of t giving M(t), one row of per-mode multipliers per
    comparator epsilon in ``comps``, evaluated for all of them at every
    sample: comparator_hat(t) = M(t)[j] phi_hat(0).  NLS's is the free
    flow (one row); EP's follow system A (a free photon) up to t1 = c1
    sqrt(epsilon), 0 for system B, and U(t) times their composite_seed
    after, all sharing one free symbol and one U(t) per t."""
    if c.comparator == COMPARATOR_LINEAR_NLS:
        return lambda t: free_symbol(grid, t)[None]
    if c.comparator == COMPARATOR_COMPOSITE and None in comps:
        raise ValueError("the composite comparator needs a comparator epsilon")
    t1s = [0.0 if e is None else c.c1 * np.sqrt(e) for e in comps]
    seeds = [composite_seed(grid, params, t1) for t1 in t1s]

    def symbols(t):
        free = free_symbol(grid, t) if t <= max(t1s) else None
        if t > min(t1s):
            u11, u12, _ = linear_pair_propagator(grid, c.gamma, c.omega0, t)
        return np.stack([free if t <= t1 else u11 * b_phi + u12 * b_psi
                         for t1, (b_phi, b_psi) in zip(t1s, seeds)])

    return symbols


def _solver_step(c):
    return StepSpec(dt=c.dt, samples_per_unit_time=c.samples_per_unit_time)


def _model_params(c):
    return ModelParams(g=c.g, gamma=c.gamma, omega0=c.omega0, p=c.p, s=c.s)


def solver_setup(c):
    """The grid, model parameters and step spec a config describes."""
    grid = make_grid(c.n, c.N, c.L, max_points=None)  # SweepConfig checks the cap
    return grid, _model_params(c), _solver_step(c)


def _curve_batch(c, specs, stops=None):
    """Error curves of the (delta, eps_comp) specs of a config,
    with every distinct delta stepped at once on a leading batch axis.

    Every sample, t = 0 included, is read from model_stream: the truth
    spectrum is the photon spectrum it yields as spectra[0], the
    comparator spectrum one closed-form multiplier per eps_comp (evaluated
    for every eps_comp of the batch) times each curve's phi_hat(0), the truth
    and difference norms are one batched call, and rho[spec, sample] is
    filled in place.  For NLS, drho[spec, sample] holds rho' beside it
    (_slope).  No state is recorded, so memory is O(batch x grid).
    Every operation acts on each batch row alone, so a curve's bits do not
    depend on the rest of its batch.

    ``stops`` gives each spec the tolerance that ends its curve: the curve
    stops at the first sample where rho reaches it, a delta leaves the
    batch once all its curves have stopped, and stepping ends when no delta
    is left or at T.  Without ``stops`` every curve runs to T.
    """
    grid, params, step = solver_setup(c)
    times = sample_times(c.T, step)
    deltas = list(dict.fromkeys(d for d, _ in specs))
    comps = list(dict.fromkeys(e for _, e in specs))
    symbols = _comparator_symbols(c, grid, params, comps)
    # the running curves (rows of rho), their stop tolerances, batch rows
    # and comparator rows, and the number of batch rows
    live = np.arange(len(specs))
    stop = np.full(len(specs), np.inf) if stops is None else np.asarray(stops, float)
    member = np.array([deltas.index(d) for d, _ in specs])
    comp_of = np.array([comps.index(e) for _, e in specs])
    rows = len(deltas)

    phi_hat = grid.fft([gaussian_initial(grid, d).values for d in deltas])
    curve_phi0_hat = phi_hat[member]
    stream = model_stream(c.model, grid, params, step, len(times) - 1, phi_hat)
    del phi_hat  # the stream owns the photon spectra
    rho = np.empty((len(specs), len(times)))
    drho = np.empty_like(rho) if _carries_slope(c) else None
    ends = np.full(len(specs), len(times))

    def rho_at(t, truth_hat):
        # truth rows, then each curve's comparator-minus-truth row and, for
        # rho', each truth's forcing row, built in place so the one norm
        # call needs no further copy
        truths, curves = len(truth_hat), len(live)
        forcing = None if drho is None else nls_forcing(grid, params, truth_hat)
        rows = truths + curves + (0 if forcing is None else truths)
        stack = np.empty((rows,) + grid.shape, np.complex128)
        if forcing is not None:
            stack[truths + curves :] = forcing
            del forcing
        stack[:truths] = truth_hat
        diff = stack[truths : truths + curves]
        np.take(symbols(t), comp_of, axis=0, out=diff)
        diff *= curve_phi0_hat
        diff -= truth_hat[member]
        norms = hs_norm_from_fft(stack, grid, c.s)
        den = norms[:truths][member]
        if np.any(den == 0.0):
            delta = specs[live[int(np.argmax(den == 0.0))]][0]
            raise ZeroDivisionError(
                f"truth norm underflow at t = {t:.6g} for delta = {delta:.6g}"
            )
        r = norms[truths : truths + curves] / den
        if drho is None:
            return r, None
        return r, _slope(grid, c.s, stack, norms, member, r)

    keep = None
    for i, t in enumerate(times):
        # no reference to a sample's arrays outlives rho_at, so a step
        # never holds the rows it has just dropped
        r, dr = rho_at(t, stream.send(keep)[1][0])
        rho[live, i] = r
        if dr is not None:
            drho[live, i] = dr
        keep = None
        done = r >= stop
        if done.any():
            ends[live[done]] = i + 1
            running = ~done
            live, stop, member, comp_of, curve_phi0_hat = (
                a[running] for a in (live, stop, member, comp_of, curve_phi0_hat))
            if not len(live):
                break
            kept, member = np.unique(member, return_inverse=True)
            if len(kept) < rows:
                keep, rows = kept, len(kept)
    return [
        ErrorCurve(delta=d, times=times[:end].copy(), rho=rho[j, :end], epsilon_comp=e,
                   drho=None if drho is None else drho[j, :end])
        for j, ((d, e), end) in enumerate(zip(specs, ends))
    ]


def _carries_slope(c):
    """Whether c's curves carry rho' (ErrorCurve.drho): NLS's, where the
    flow gives it for two transforms per sample and buys a clock of half
    the samples.  EP's would cost a transform and a comparator exciton row
    per sample and buys no coarser clock, so EP curves carry rho alone."""
    return c.model == NLS


def _slope(grid, s, stack, norms, member, rho):
    """rho' of NLS curves from a sample's stack of truth spectra T (one row
    per batch member), comparator-minus-truth spectra D (one per curve, of
    the member ``member`` gives) and forcings F = nls_forcing(T) (one per
    member), their H^s norms, and rho.  Overwrites the stack.

    T' = -i|k|^2 T - i F, and the free comparator makes D' = -i|k|^2 D +
    i F.  The free part drops out of Re<X, X'>_s because the weight is
    real, so rho'/rho = Re<D, D'>_s / ||D||^2 - Re<T, T'>_s / ||T||^2 is

        rho' = ||F|| / ||T|| (cos(D, iF) + rho cos(T, iF)),

    cos(X, iF) = Re<X, iF>_s / (||X|| ||F||).  At D = 0 (t = 0) D grows as
    i F t, so cos(D, iF) takes its one-sided limit 1: rho' = ||F|| / ||T||.
    Each row is first scaled by the power of two that brings its norm into
    [1/2, 1), exactly, as hs_norm_from_fft scales before squaring, so no
    product or sum under- or overflows at any amplitude."""
    truths = (len(norms) - len(member)) // 2
    split = truths + len(member)
    _, exponent = np.frexp(norms)
    flat = stack.reshape(len(norms), -1).view(np.float64)
    np.ldexp(flat, -exponent[:, None], out=flat)
    unit = np.ldexp(norms, -exponent)
    # Re<X, iF>_s = Im of the weighted sum of X conj(F)
    forcing = np.conj(stack[split:], out=stack[split:])
    stack[:truths] *= forcing
    stack[truths:split] *= forcing[member]
    dot = stack[:split].reshape(split, -1).imag @ ((1.0 + grid.k_squared) ** s).ravel()
    dot *= grid.cell_volume**2 / grid.box_volume
    den = unit[:split] * unit[split:][np.concatenate([np.arange(truths), member])]
    cos = np.divide(dot, den, out=np.zeros_like(dot), where=den > 0.0)
    cos_diff = np.where(norms[truths:split] == 0.0, 1.0, cos[truths:])
    ratio = norms[split:][member] / norms[:truths][member]
    return ratio * (cos_diff + rho * cos[:truths][member])


def compute_error_curve(config, delta, epsilon_comp=None):
    """Simulate one nonlinear/comparator pair from phi(0) = delta * phi0
    (phi0 the unit Gaussian) and return rho(t; delta) up to T, the full
    horizon (run_error_curves' curves are prefixes of it)."""
    return _curve_batch(config, [(delta, _comparator_epsilon(config, epsilon_comp))])[0]


def _by_delta(specs):
    groups = {}
    for spec in specs:
        groups.setdefault(spec[0], []).append(spec)
    return list(groups.values())


def _member_points(c, curves):
    """Grid points a batch member with ``curves`` curves of one delta
    holds at the peak of _curve_batch."""
    return c.N**c.n * (_ARRAYS_PER_MEMBER[c.model] + _ARRAYS_PER_EXTRA_CURVE * (curves - 1))


def _compute_curves(c, specs):
    """The curves of specs, each ending at its stop sample
    (_stop_tolerances), in batches of as many distinct amplitudes as
    max_points admits (specs sharing a delta share a batch)."""
    chunks, points = [], 0
    for group in _by_delta(specs):
        cost = _member_points(c, len(group))
        if not chunks or points + cost > c.max_points:
            chunks.append([])
            points = 0
        chunks[-1] += group
        points += cost
    stops = _stop_tolerances(c)
    return [curve for chunk in chunks
            for curve in _curve_batch(c, chunk, [stops[s] for s in chunk])]


def curve_path(root, config, delta, epsilon_comp=None):
    """Where a curve lives under an output or cache directory:
    curves/<config hash>/delta=<v>.csv, with __eps=<e> before the suffix
    for a composite comparator's per-epsilon curves."""
    name = f"delta={fmt(delta)}"
    if epsilon_comp is not None:
        name += f"__eps={fmt(epsilon_comp)}"
    return os.path.join(root, "curves", config_hash(config), name + ".csv")


# a curve file's columns: t,rho, and drho where the cache keeps rho'
_CURVE_COLUMNS = ["t", "rho", "drho"]


def write_curves(root, config, curves, slopes=False):
    """Write each curve as a t,rho CSV at the curve_path of its (delta,
    epsilon_comp) under root.  With ``slopes``, a curve that carries rho'
    gets it as a third column, drho: the form the cache keeps."""
    for curve in curves:
        columns = [curve.times, curve.rho]
        if slopes and curve.drho is not None:
            columns.append(curve.drho)
        write_csv(curve_path(root, config, curve.delta, curve.epsilon_comp),
                  _CURVE_COLUMNS[: len(columns)], zip(*columns))


def _read_cached(c, path, spec, times, tolerance):
    """The curve of spec, its (delta, epsilon_comp), cached at path, cut at
    its stop sample (the first where rho reaches ``tolerance``), or None if
    it is missing, unreadable, lacks the drho column c's curves carry (or
    has one they do not), its times are not a prefix of the sample grid
    ``times``, its values are not finite, or it ends before both that
    sample and T.  A cache written to T or to a larger tolerance is served
    cut, so a warm run returns bitwise the curve a cold run computes."""
    if not os.path.exists(path):
        return None
    try:
        names, rows = read_curve_csv(path)
    except (OSError, ValueError, StopIteration):
        return None
    if names != _CURVE_COLUMNS[: 3 if _carries_slope(c) else 2]:
        return None
    t, rho = rows[:, 0], rows[:, 1]
    if not 0 < len(t) <= len(times) or not np.array_equal(t, times[: len(t)]):
        return None
    if not np.all(np.isfinite(rows)):
        return None
    reached = np.flatnonzero(rho >= tolerance)
    if len(reached):
        end = reached[0] + 1
    elif len(t) == len(times):
        end = len(t)
    else:
        return None
    return ErrorCurve(delta=spec[0], times=t[:end], rho=rho[:end], epsilon_comp=spec[1],
                      drho=rows[:end, 2] if len(names) == 3 else None)


def _stop_tolerances(config):
    """{(delta, comparator-epsilon): the tolerance that ends its curve},
    in descending delta order.  find_crossing reads nothing past the first
    sample where rho reaches epsilon, so a curve is complete once rho has
    reached the largest epsilon >= epsilon_floor among the (alpha, epsilon)
    read off it (0, i.e. its first sample, if there is none)."""
    stops = {}
    for alpha in config.alpha_set:
        for eps in config.epsilon_set:
            key = (config.delta_for(alpha, eps), _comparator_epsilon(config, eps))
            needed = eps if eps >= config.epsilon_floor else 0.0
            stops[key] = max(stops.get(key, 0.0), needed)
    order = sorted(stops, key=lambda k: (-k[0], -(k[1] if k[1] is not None else 0.0)))
    return {key: stops[key] for key in order}


def _comparator_epsilon(config, epsilon):
    """The comparator tolerance in a curve's (delta, epsilon_comp) key:
    epsilon for the composite comparator, which depends on it, and None
    for the others, whose curves depend on the amplitude alone."""
    return epsilon if config.comparator == COMPARATOR_COMPOSITE else None


def curve_specs(config):
    """Distinct (delta, comparator-epsilon) pairs the sweep needs, in
    descending delta order."""
    return list(_stop_tolerances(config))


def run_error_curves(config):
    """All error curves the sweep needs, one per curve_specs entry and in
    its (descending delta) order, each carrying that (delta, epsilon_comp).
    Each curve ends at its last needed crossing: at the first sample where
    rho reaches the largest tolerance read off it, or at T if it never
    does, so it is a bitwise prefix of compute_error_curve's full-horizon
    curve.  The cache serves prefixes: a cached curve that reaches that
    sample or runs to T is read back cut to it (_read_cached); the misses
    are computed together and cached, with rho' where the curves carry it.
    With config.workers > 1 the misses are dealt to that many processes in
    interleaved batches."""
    stops = _stop_tolerances(config)
    specs = list(stops)
    curves = {}
    if config.cache_dir:
        times = sample_times(config.T, _solver_step(config))
        for spec in specs:
            path = curve_path(config.cache_dir, config, *spec)
            curve = _read_cached(config, path, spec, times, stops[spec])
            if curve is not None:
                curves[spec] = curve
    misses = [spec for spec in specs if spec not in curves]
    groups = _by_delta(misses)
    lanes = min(config.workers, len(groups))
    if lanes > 1:
        # imported here: the pool's modules cost import time that a
        # one-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        batches = [[s for g in groups[i::lanes] for s in g] for i in range(lanes)]
        with ProcessPoolExecutor(max_workers=lanes) as pool:
            computed = [curve for part in pool.map(_compute_curves, [config] * lanes, batches)
                        for curve in part]
    else:
        computed = _compute_curves(config, misses)
    if config.cache_dir:
        write_curves(config.cache_dir, config, computed, slopes=True)
    curves.update(((c.delta, c.epsilon_comp), c) for c in computed)
    return [curves[s] for s in specs]


# --------------------------------------------------------------------------
# crossing extraction and regression


def find_crossing(curve, epsilon, epsilon_floor=0.0):
    """First time rho(t) reaches epsilon, read off the samples up to i, the
    first with rho >= epsilon, so nothing past the curve's stop sample is
    read (event location by interpolating stored steps: Hairer, Norsett &
    Wanner, Solving ODEs I, Sec. II.6; Shampine & Thompson 2000).

    A curve that carries rho' (NLS) gives log t as a cubic Hermite in
    log rho on the bracket [t[i-1], t[i]], from its end values and slopes
    d log t / d log rho = rho / (t rho').  Otherwise, or when rho' <= 0 at
    either end or the Hermite value leaves the bracket (t[i-1], t[i]],
    log t is a cubic in log rho through the four samples i-3..i
    (four-point Lagrange).  That falls back to linear interpolation in
    (log t, log rho) between samples i-1 and i when i < 4, when a window
    sample has t <= 0 or rho <= 0, when log rho is not strictly increasing
    over the window, or when the cubic leaves the bracket.  A crossing
    before the first positive sample (t[i-1] = 0) raises NoCrossingError.
    On the default clocks the crossings are within 6.4e-7 (EP 1D), 3.4e-5
    (2D composite) and 1.3e-9 (NLS) of fine references."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon < epsilon_floor:
        raise ValueError(
            f"epsilon = {epsilon:.6g} is below the floor {epsilon_floor:.6g}"
        )
    t = np.asarray(curve.times, dtype=float)
    rho = np.asarray(curve.rho, dtype=float)
    above = np.nonzero(rho >= epsilon)[0]
    if len(above) == 0:
        raise NoCrossingError(
            f"rho never reaches epsilon = {epsilon:.6g} within t <= {t[-1]:.6g}"
            + (f" (delta = {curve.delta:.6g})" if curve.delta is not None else "")
        )
    i = int(above[0])
    if i == 0:
        raise NoCrossingError(
            f"curve already exceeds epsilon = {epsilon:.6g} at its first sample"
        )
    # Python floats, which overflow to inf without a warning
    (tl, tr), (rl, rr) = t[i - 1 : i + 1].tolist(), rho[i - 1 : i + 1].tolist()
    if rr == epsilon:
        return float(tr)
    if rl <= 0.0 or tl <= 0.0:
        raise NoCrossingError(
            f"crossing of epsilon = {epsilon:.6g} falls before the first "
            "positive sample; increase the sampling cadence"
        )
    slopes = None if curve.drho is None else curve.drho[i - 1 : i + 1].tolist()
    if slopes is not None and min(slopes) > 0.0:
        # cubic Hermite in x = log rho on [x0, x1], in u = (x - x0) / h,
        # with its end slopes scaled by h: y0 + m0 u + c u^2 + d u^3
        x0, x1 = math.log(rl), math.log(rr)
        y0, y1 = math.log(tl), math.log(tr)
        h, rise = x1 - x0, y1 - y0
        m0 = h * rl / (tl * slopes[0])
        m1 = h * rr / (tr * slopes[1])
        u = (math.log(epsilon) - x0) / h
        log_t = y0 + u * (m0 + u * (3.0 * rise - 2.0 * m0 - m1 + u * (m0 + m1 - 2.0 * rise)))
        if y0 < log_t <= y1:
            return math.exp(log_t)
    window = slice(i - 3, i + 1)
    if i >= 4 and rho[window].min() > 0.0 and t[window].min() > 0.0:
        x, y = np.log(rho[window]).tolist(), np.log(t[window]).tolist()
        if x[0] < x[1] < x[2] < x[3]:
            # four-point Lagrange: sum_j y_j prod_{m != j} (x0 - x_m) / (x_j - x_m)
            x0 = math.log(epsilon)
            log_t = sum(yj * math.prod((x0 - xm) / (xj - xm) for xm in x if xm != xj)
                        for xj, yj in zip(x, y))
            if y[2] < log_t <= y[3]:
                return math.exp(log_t)
    frac = (np.log(epsilon) - np.log(rl)) / (np.log(rr) - np.log(rl))
    return float(np.exp(np.log(tl) + frac * (np.log(tr) - np.log(tl))))


def regress_loglog(records):
    """OLS fit of log t_cross against log epsilon for one alpha; the slope
    is the measured beta, the intercept is log C of t = C eps^beta."""
    records = [r for r in records if np.isfinite(r.t_cross)]
    if len(records) < 3:
        raise ValueError(
            f"need at least 3 crossing records for a regression, got {len(records)}"
        )
    alphas = {r.alpha for r in records}
    if len(alphas) != 1:
        raise ValueError("all records in one regression must share alpha")
    x = np.log([r.epsilon for r in records])
    y = np.log([r.t_cross for r in records])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # residuals at the rounding floor of the data count as a perfect fit
    floor = (1e-12 * max(1.0, float(np.max(np.abs(y))))) ** 2 * len(y)
    if ss_res <= floor:
        r2 = 1.0
    elif ss_tot == 0.0:
        r2 = 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RegressionResult(
        alpha=records[0].alpha,
        beta=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        npoints=len(records),
    )


def run_algorithm_a(config):
    """The full two-loop procedure: cached curves per delta, crossings per
    (alpha, epsilon), a beta fit per alpha, and the final beta-vs-alpha
    line compared against the theoretical slope and intercept."""
    curves = run_error_curves(config)
    by_key = {(c.delta, c.epsilon_comp): c for c in curves}

    crossings, betas, failures = [], [], []
    for alpha in config.alpha_set:
        records = []
        for eps in config.epsilon_set:
            delta = config.delta_for(alpha, eps)
            curve = by_key[delta, _comparator_epsilon(config, eps)]
            try:
                t_cross = find_crossing(curve, eps, config.epsilon_floor)
            except (NoCrossingError, ValueError) as err:
                failures.append(
                    {"alpha": alpha, "delta": delta, "epsilon": eps, "error": str(err)}
                )
                continue
            records.append(
                CrossingRecord(alpha=alpha, delta=delta, epsilon=eps, t_cross=t_cross)
            )
        crossings.extend(records)
        try:
            betas.append(regress_loglog(records))
        except ValueError as err:
            failures.append({"alpha": alpha, "error": str(err)})

    theory_intercept = beta_predict(0.0, config.p, config.model).beta
    theory_slope = beta_predict(1.0, config.p, config.model).beta - theory_intercept
    fit_pts = [
        (b.alpha, b.beta)
        for b in betas
        if beta_predict(b.alpha, config.p, config.model).regime == EXACT
    ]
    if len(fit_pts) >= 2:
        xs, ys = zip(*fit_pts)
        meta_slope, meta_intercept = (float(v) for v in np.polyfit(xs, ys, 1))
    else:
        meta_slope = meta_intercept = None

    return AlgorithmAResult(
        config=config,
        curves=curves,
        crossings=crossings,
        betas=betas,
        meta_slope=meta_slope,
        meta_intercept=meta_intercept,
        theory_slope=theory_slope,
        theory_intercept=theory_intercept,
        failures=failures,
    )
