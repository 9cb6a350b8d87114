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

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .evolution import (
    EP,
    NLS,
    ErrorCurve,
    ModelParams,
    SolverBlowupError,
    StepSpec,
    _composite_seed_of,
    _pair_propagator_of,
    _step_count,
    model_stream,
    sample_times,
)
from .grid import (
    DEFAULT_MAX_POINTS,
    EvenGrid,
    Grid,
    _free_symbol_of,
    check_grid_args,
    default_sobolev_index,
    gaussian_rows,
    hs_norm_from_fft,
)
from .restep import _Held, _restep_crossings
from .runio import atomic_write_text, fmt, sha256_hex, write_csv
from .theory import EXACT, beta_predict

COMPARATOR_SYSTEM_B = "systemB"
COMPARATOR_COMPOSITE = "composite"
COMPARATOR_LINEAR_NLS = "linear-nls"

# per-model solver defaults: EP crossings land at t ~ 0.3-1.5, NLS
# crossings at t ~ 1e-3 - 1e-1, so NLS needs a much denser clock.  The
# clock is dt alone, uniform: every sample is one composed step of dt, the
# sixth-order step, or in 2D EP the fourth-order triple jump
# (evolution._WEIGHTS, which names that exception by n).  Crossings are
# re-stepped inside their brackets (epnls.restep), so the step alone
# limits them, and EP takes dt = 0.1 for every n.  Against re-stepped fine
# clocks (dt = 1e-3 in 1D, 2e-3 in 2D and 3D) the default sweeps read
# within 1.7e-8 (1D), 1.9e-5 (2D composite) and 2.8e-8 (3D system B,
# N = 16), each no more than the former clock (the triple jump at 1/30 in
# 1D and 3D: 4.5e-7 and 2.2e-7; 2D is unchanged).  The 2D composite bounds
# that one dt: it reads 9.2e-5 at 0.125 and 4.9e-4 at 0.2, where 1D reads
# 7.6e-8 and 1.0e-6 and 3D 1.1e-7 and 1.2e-6.  2D system B (N = 64) reads
# 1.6e-5 at 0.1.  The NLS crossings (beta = 1 - (p-1) alpha) span two
# decades, t ~ 1.0e-3 to 0.17; on the sixth-order
# step dt = 8e-3, 26 samples to T = 0.2, reads them within 1.8-2.4e-11 of a
# uniform triple jump at dt = 2e-5 (seeds 0-2 of the benchmark's ladder),
# whose own floor against dt = 4e-5 and 1e-4 is 1.1-1.6e-11: the former
# triple jump at dt = 1e-3 on a clock graded past t = 0.064 (115 samples)
# read 3.1-3.2e-11.  Against a sixth-order dt = 1.25e-4 clock dt = 8e-3
# reads 1.8e-11 and dt = 1e-2 8.7e-11.  The 28 crossings of a ladder to
# eps = 1e-5 before sample 1 are re-stepped from t = 0 (restep, within
# 4.1e-12 of a fine clock)
_MODEL_DEFAULTS = {
    EP: {"T": 2.0, "dt": 0.1, "comparator": COMPARATOR_SYSTEM_B},
    NLS: {"T": 0.2, "dt": 8e-3, "comparator": COMPARATOR_LINEAR_NLS},
}

DEFAULT_ALPHAS = (0.0, 0.1, 0.2, 0.3)
DEFAULT_EPSILONS = tuple(np.logspace(-2.0, -3.0, 6))

# Complex arrays of _grid_points points a batch member with one curve
# keeps alive at the peak of _curve_batch, one sample per block, measured
# and rounded up (tracemalloc: EP ~8.7-9.0 with system B and ~9.4-9.7 with
# the composite, NLS ~6.0, on the full grid in 1D and the even subspace in
# 2D and 3D; checked by tests/test_sweep.py): the curve's phi_hat(0) copy,
# the spectra the split-step loop owns (EP: phi_hat and psi_hat; NLS:
# phi_hat; the rotated field's spectrum is dropped while it is rotated),
# the temporaries of a rotation or a 2x2 step, the truth-and-difference
# stack of the sample's norm call with one more row per further field the
# stream yields (EP: its exciton), the spectra of the sample before the
# block, which a held crossing may need, and, for the composite, the seed
# pair of the curve's comparator epsilon, on the |k|^2 levels.  Each
# further curve of one delta (the composite's other epsilons) adds its
# phi_hat(0) copy, stack row, norm temporaries and seed pair (~3.3-3.7).
# Each crossing a batch holds to re-step adds its spectra at both bracket
# ends (EP 4.0, NLS 2.0; the right end's go once its slope is known) and,
# while a round evaluates it, its row of the round: the jump's copies of
# them, the distinct per-row linear maps of a composed step (4 for the
# sixth-order step, 2 for 2D EP's triple jump; EP's 2x2 map is 3 arrays,
# NLS's free flow 1), a rotation's temporaries, the truth-and-difference
# pair of the norm call and the slope's temporaries (EP's comparator
# exciton, NLS's transform pair).  Six amplitudes with one crossing each
# against two measured 20.0-20.5 arrays (EP in 1D and 3D; 14.3 in 2D) and
# 10.5 (NLS; 8.4-9.0 on the triple jump) per amplitude with its member's,
# against the 24 and 21 counted.
# One count bounds both models.  A round, and the slopes at the bracket
# ends, take at most as many rows as the batch has amplitudes, also when
# they run beside the stream (an early flush).  max_points bounds the sum
# of these over a batch (_batch_points), and a block of K > 1 samples the room it leaves
# (_curve_batch).  Each curve also keeps its rho row and, once it is
# returned, its own times row: one point (16 bytes) per sample, counted at
# the most samples the clock can take, T / dt + 1.
_ARRAYS_PER_MEMBER = {EP: 10, NLS: 7}
_ARRAYS_PER_EXTRA_CURVE = 6
_ARRAYS_PER_CROSSING = 14

# A block: _curve_batch measures at most _BLOCK_SAMPLES consecutive samples
# and _BLOCK_POINTS truth points (batch rows x _grid_points x samples) at
# once, with one norm call and one comparator gather per block, not per
# sample.  The default sweeps take three samples per block: 1D's 18
# amplitudes on 65 stored points and its tail alike, and the 2D composite's
# 5 amplitudes on 1,089 (5 x 1,089 x 3 <= 2^14).  A batch of five or more
# amplitudes on 2D N = 128, 3D N = 32 or 1D N = 4096 takes one, so its stack
# stays the one sample's that _ARRAYS_PER_MEMBER counts; the cap alone
# would give those three, past that count.  The cap also keeps a batch
# from stepping an amplitude more than two samples past its stop.  CPU per
# sweep against 2^12 points and no cap (each rule in its own process, 10
# alternating rounds of 40 sweeps, one BLAS thread, shared 2-core x86
# box): ep_2d_composite 0.937 (9 of 10 rounds won), ep_sweep 1.025 (4),
# nls_sweep 1.001 (5).  2^14 without the cap, whose 1D tails take blocks of
# up to the samples left: 0.935, 1.060 and 1.152; one sample per block:
# 1.121, 1.239 and 1.044.
_BLOCK_POINTS = 2**14
_BLOCK_SAMPLES = 3

# Largest N at which solver_setup gives a config's runs the even subspace
# (EvenGrid): its dense cosine transforms cost O(N^(n+1)) per row against
# the FFT's O(N^n log N), and pay at small N, where they replace an FFT of
# twice the points per axis and every pointwise step acts on (N/2 + 1)^n
# values.  Whole sweeps, full grid -> even subspace (median wall, in
# process, interleaved, shared 2-core x86 box).  Default ladders, 15
# rounds: EP 1D N = 128 33 -> 28 ms, 256 52 -> 47, 512 83 -> 113; NLS 1D
# N = 128 95 -> 78 ms, 256 121 -> 121, 512 215 -> 324.  Alphas 0, 0.2 and
# epsilons 1e-2..1e-3, one BLAS thread, 15 rounds (5 at 2D N = 128 and 3D
# N = 32, 3 at 2D N = 256, 1 at 3D N = 64): 2D composite N = 32
# 71 -> 33 ms, 64 211 -> 60, 128 850 -> 214, 256 3,220 -> 1,086; 3D EP
# system B N = 16 294 -> 61 ms, 32 2,680 -> 252, 64 35,100 -> 2,400.
_EVEN_MAX_N = 256


class NoCrossingError(RuntimeError):
    """The error curve never reaches the requested tolerance, or, read by
    find_crossing off stored samples, reaches it before the first positive
    sample (the cadence is too coarse there).  The sweep re-steps its
    crossings, those before sample 1 from t = 0, so there only the first
    holds."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one full run: grid, physics, amplitude
    ladder, solver clock and output places.

    Fields left None (s, T, dt, comparator) are filled with the model's
    defaults at construction, so every instance is fully resolved.  Grid,
    physics and clock are checked by the objects they describe
    (check_grid_args, ModelParams, StepSpec) and by the arithmetic of
    sample_times (T a whole number of steps dt > 0), and max_points by the
    largest batch member the sweep needs, its samples included, so an
    invalid config fails here, before any run builds anything.  The clock
    is dt alone, as for every run (StepSpec): every sample is one composed
    step of dt, so a finer dt samples as finely and a re-stepped crossing
    jumps no further than its bracket's step.

    The default grid, N = 128 on [-10, 10), is set by measured spatial
    convergence: the Gaussian's spectrum exp(-k^2/2) and its p-th power
    nonlinearity's exp(-k^2/(2p)) are below 1e-17 at k_max = 20.1 for
    p <= 5, and every default crossing (p = 3 and 5) is within 2.3e-12
    relative of N = 512, as at N = 256.  N = 64 moves NLS at p = 5 by
    3.7e-8, above the NLS clock's 2.4e-11.
    """

    model: str = EP
    n: int = 1
    N: int = 128
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
    comparator: str | None = None
    c1: float = 0.0
    epsilon_floor: float = 1e-6
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
        _solver_step(self)
        _step_count(self.T, self.dt)
        eps = tuple(float(e) for e in self.epsilon_set)
        if not eps or any(not 0 < e <= 1 for e in eps):
            raise ValueError("epsilon_set values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_set must be strictly decreasing")
        alphas = tuple(float(a) for a in self.alpha_set)
        if not alphas or any(not 0 <= a < np.inf for a in alphas):
            raise ValueError("alpha_set must be nonempty with finite alpha >= 0")
        if len(set(alphas)) < len(alphas):
            raise ValueError("alpha_set must not repeat a value")
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
        points = _batch_points(self, 1, max(map(len, _by_delta(curve_specs(self)))), 1)
        if points > self.max_points:
            raise ValueError(f"one amplitude's batch needs {points} points, which "
                             f"exceeds the memory cap of {self.max_points} points "
                             f"(with {sample_count(self)} samples per curve at "
                             f"dt = {self.dt:g} to T = {self.T:g})")

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
    (grid, physics, the clock's dt, comparator); cosmetic and
    sweep-ladder fields are excluded so equivalent runs share cached curves.
    It names the physics alone: the code that computes a curve is keyed by
    the source digest each cache record carries (_write_cached)."""
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
        f"comparator={config.comparator}",
    ]
    if config.comparator == COMPARATOR_COMPOSITE:
        parts.append(f"c1={fmt(config.c1)}")
    return ";".join(parts)


def config_hash(config):
    return sha256_hex(physics_signature(config))[:16]


@dataclass(frozen=True)
class CrossingRecord:
    """One crossing time t_cross of rho through epsilon, re-stepped once by
    the sweep (ErrorCurve.crossings)."""

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
    """Function of t giving M(t) on the grid's levels of |k|^2
    (Grid.k_levels): one row of per-level multipliers per comparator
    epsilon in ``comps``, so that comparator_hat(t) = grid.gather(M(t)[j])
    phi_hat(0).  An array of times puts their rows on a leading axis, each
    bitwise the rows of that time alone.  NLS's is the free flow (one row);
    EP's follow system A (a free photon) up to t1 = c1 sqrt(epsilon), 0 for
    system B, and U(t) times their composite_seed after, all sharing one
    free symbol and one U(t) per t.  Given ``rows``, one comparator index
    per time of a 1D t, it gives each time that row alone, bitwise as
    above, and beside it the row of the comparator exciton that drives its
    photon (evolution.log_rho_rate): 0 on system A's interval t <= t1, the
    second row of U(t) times the seed after, and None for NLS."""
    k_sq = grid.k_levels
    if c.comparator == COMPARATOR_LINEAR_NLS:
        def free(t, rows=None):
            if rows is None:
                return _free_symbol_of(k_sq, np.asarray(t)[..., None, None])
            return _free_symbol_of(k_sq, np.asarray(t)[:, None]), None
        return free
    if c.comparator == COMPARATOR_COMPOSITE and None in comps:
        raise ValueError("the composite comparator needs a comparator epsilon")
    t1s = [0.0 if e is None else c.c1 * np.sqrt(e) for e in comps]
    seeds = [_composite_seed_of(k_sq, params, t1) for t1 in t1s]

    def symbols(t, rows=None):
        if rows is not None:
            return per_row(np.asarray(t)[:, None], rows)
        t = np.asarray(t)[..., None]
        first, last = float(t.min()), float(t.max())
        free = _free_symbol_of(k_sq, t) if first <= max(t1s) else None
        if last > min(t1s):
            u11, u12, _ = _pair_propagator_of(k_sq, c.gamma, c.omega0, t)
        rows = []
        for t1, (b_phi, b_psi) in zip(t1s, seeds):
            row = free if last <= t1 else u11 * b_phi + u12 * b_psi
            if first <= t1 < last:  # times on both sides of t1
                row = np.where(t <= t1, free, row)
            rows.append(row)
        return np.stack(rows, axis=-2)

    def per_row(t, rows):
        # each time's own comparator, as above, and its exciton's row
        b_phi, b_psi = (np.array([seeds[j][i] for j in rows]) for i in (0, 1))
        u11, u12, u22 = _pair_propagator_of(k_sq, c.gamma, c.omega0, t)
        photon, drive = u11 * b_phi + u12 * b_psi, u12 * b_phi + u22 * b_psi
        early = t <= np.array([t1s[j] for j in rows])[:, None]
        if early.any():
            photon = np.where(early, _free_symbol_of(k_sq, t), photon)
            drive = np.where(early, 0.0, drive)
        return photon, drive

    return symbols


def _solver_step(c):
    return StepSpec(dt=c.dt)


def sweep_times(c):
    """The sample times of c's runs, on its clock (sample_times)."""
    return sample_times(c.T, _solver_step(c))


def _model_params(c):
    return ModelParams(g=c.g, gamma=c.gamma, omega0=c.omega0, p=c.p, s=c.s)


def solver_setup(c):
    """The grid, model parameters and step spec of a config, for the sweep
    and epnls simulate alike.  The grid is the even subspace (EvenGrid) up
    to _EVEN_MAX_N points per axis, the full grid above: phi(0) = delta x
    the Gaussian and psi(0) = 0 are even in every coordinate, and both
    models, every comparator and the H^s norm commute with x_i -> -x_i
    (each per-mode symbol depends on |k|^2 alone), so the fields stay even
    and the even subspace holds them whole.  SweepConfig checks max_points."""
    kind = EvenGrid if c.N <= _EVEN_MAX_N else Grid
    grid = kind(n=int(c.n), N=int(c.N), L=float(c.L))
    return grid, _model_params(c), _solver_step(c)


def _grid_points(c):
    """Points one array of solver_setup(c)'s grid stores, without building it."""
    return (c.N // 2 + 1 if c.N <= _EVEN_MAX_N else c.N) ** c.n


def _curve_batch(c, specs, tolerances=None):
    """Error curves of the (delta, eps_comp) specs of a config,
    with every distinct delta stepped at once on a leading batch axis.

    The batch steps on solver_setup(c)'s grid.  Every sample, t = 0
    included, is read from model_stream on c's clock (sweep_times):
    the truth spectrum is the photon spectrum it yields as spectra[0], the
    comparator spectrum one closed-form multiplier per eps_comp times each
    curve's phi_hat(0).  Samples are measured in blocks of K consecutive
    ones, K = max(1, min(_BLOCK_SAMPLES, _BLOCK_POINTS // (batch rows x
    _grid_points(c)))), 1 where max_points leaves no room for more and
    fewer at T: the block's truth spectra and each curve's
    comparator-minus-truth rows form one stack, whose norms are one
    batched call, beside the rows of the stream's other fields (EP's
    exciton), and rho[spec, sample] is filled for the whole block.  No
    state is recorded and at most one block is held, so memory is
    O(batch x grid).  Every operation acts on each batch row alone, so a
    curve's bits depend neither on the rest of its batch nor on K.

    ``tolerances`` gives each spec the tolerances read off its curve: the
    curve stops at the first sample where rho reaches the largest (its
    first sample if there is none), a delta leaves the batch at the end of
    the block in which all its curves have stopped, and stepping ends when
    no delta is left or at T, so a delta is stepped at most K - 1 samples
    past the stop of its last curve.  Without ``tolerances`` every curve
    runs to T.  Curves carry their crossings re-stepped
    (ErrorCurve.crossings): when a curve's rho first reaches one of its
    tolerances, the spectra of every field of its row at both samples of
    the bracket are held (epnls.restep), and the crossing's t_cross is
    recorded once.  A solver blow-up or a zero truth norm at any sample is an error.  In a
    block of K > 1 samples it may come from a row whose curves stopped
    earlier in it, and the stream cannot rewind, so the batch is then
    measured again with K = 1, where every row stepped has a running
    curve: it fails exactly where one needs the failing sample.
    """
    curves = _measure_batch(c, specs, tolerances, _BLOCK_SAMPLES)
    return _measure_batch(c, specs, tolerances, 1) if curves is None else curves


def _measure_batch(c, specs, tolerances, block_samples):
    """_curve_batch in blocks of at most block_samples samples and
    _BLOCK_POINTS truth points, or None if a block of more than one sample
    fails."""
    grid, params, step = solver_setup(c)
    # the clock is built once, by the stream: times fills as it yields
    samples = sample_count(c)
    times = np.empty(samples)
    deltas = list(dict.fromkeys(d for d, _ in specs))
    comps = list(dict.fromkeys(e for _, e in specs))
    symbols = _comparator_symbols(c, grid, params, comps)
    # the running curves (rows of rho), their stop tolerances, batch rows
    # and comparator rows, and the number of batch rows
    live = np.arange(len(specs))
    if tolerances is None:
        tolerances = [()] * len(specs)
        stop = np.full(len(specs), np.inf)
    else:
        stop = np.array([max(t, default=0.0) for t in tolerances])
    member = np.array([deltas.index(d) for d, _ in specs])
    comp_of = np.array([comps.index(e) for _, e in specs])
    rows = len(deltas)
    # each curve's tolerances not yet reached, ascending, the least of them
    # (inf past the last), the held crossings and the found ones
    pending = [sorted(t) for t in tolerances]
    next_tol = np.array([p[0] if p else np.inf for p in pending])
    held, crossings = [], [{} for _ in specs]

    phi_hat = grid.fft(gaussian_rows(grid, deltas))
    curve_phi0_hat = phi_hat[member]
    stream = model_stream(c.model, grid, params, step, c.T, phi_hat)
    del phi_hat  # the stream owns the photon spectra
    # sample 0, taken before the first block so that its field count sizes
    # every block's stack
    first = [next(stream)]
    fields = len(first[0][1])
    rho = np.empty((len(specs), samples))
    ends = np.full(len(specs), samples)
    points = _grid_points(c)

    def used(crossings):
        # _batch_points of the batch as it steps now, holding ``crossings``,
        # beside the rho rows of the curves that have stopped
        return (_batch_points(c, rows, len(live), crossings)
                + (len(specs) - len(live)) * samples)

    def block_size(i):
        # the largest K of at most block_samples samples and _BLOCK_POINTS
        # truth points whose stack rows (each field's per batch row and a
        # difference per curve), twice over for their temporaries, fit in
        # max_points beside the batch and every crossing it holds or will hold
        room = c.max_points - used(len(held) + sum(map(len, pending)))
        per_sample = 2 * points * (fields * rows + len(live))
        return max(1, min(block_samples, _BLOCK_POINTS // (rows * points),
                          room // per_sample, samples - i))

    def block(i, k, keep):
        # rho of (sample, curve) and each field's spectra of (sample, row) at
        # the k samples from i.  No reference to a block's arrays outlives
        # the block's measuring, so a step never holds the rows it has just
        # dropped.  The stack, per sample the truth rows, each curve's
        # comparator-minus-truth row and the rows of the stream's other
        # fields, is made after the block's first step, so at K = 1 it never
        # coexists with a step's temporaries
        states = None
        for j in range(k):
            times[i + j], spectra = first.pop() if first else stream.send(None if j else keep)
            if states is None:
                stack = np.empty((k * (fields * rows + len(live)),) + grid.shape,
                                 np.complex128)
                truth = stack[: k * rows].reshape((k, rows) + grid.shape)
                others = stack[k * (rows + len(live)) :].reshape(
                    (fields - 1, k, rows) + grid.shape)
                states = [truth, *others]
            for state, spectrum in zip(states, spectra):
                state[j] = spectrum
            del spectra  # or the next step would keep its arrays alive
        truths = k * rows
        split = truths + k * len(live)
        diff = stack[truths:split].reshape((k, len(live)) + grid.shape)
        # level_index is in range, so mode="clip" only spares take a buffer
        np.take(symbols(times[i : i + k])[:, comp_of], grid.level_index, axis=-1,
                out=diff, mode="clip")
        diff *= curve_phi0_hat
        diff -= truth[:, member]
        norms = hs_norm_from_fft(stack[:split], grid, c.s)
        den = norms[:truths].reshape(k, rows)[:, member]
        vanished = den == 0.0
        if vanished.any():
            j, curve = np.unravel_index(np.argmax(vanished), vanished.shape)
            raise ZeroDivisionError(
                f"truth norm underflow at t = {times[i + j]:.6g} for delta = "
                f"{specs[live[curve]][0]:.6g}"
            )
        return norms[truths:split].reshape(k, len(live)) / den, states

    def flush():
        found = _restep_crossings(c, grid, params, symbols, held, len(deltas))
        for h, t in zip(held, found):
            crossings[h.curve][h.tolerance] = t
        held.clear()

    def hold(i, pos, g, tolerance, states, prev):
        # curve live[pos] first reaches tolerance at sample g; its bracket's
        # left sample g - 1 lies in the block from i, or is the sample
        # before it (prev)
        j, left = live[pos], g - 1
        t_right, rho_right = float(times[g]), float(rho[j, g])
        if rho_right == tolerance:  # the sample is the crossing
            crossings[j][tolerance] = t_right
            return
        t_left, rho_left = float(times[left]), float(rho[j, left])
        source = prev if left < i else [a[left - i] for a in states]
        if held and used(len(held) + 1) > c.max_points:
            flush()
        row = member[pos]
        held.append(_Held(j, tolerance, specs[j][0], comp_of[pos], t_left, rho_left,
                          t_right, rho_right, [a[row].copy() for a in source],
                          [a[g - i][row].copy() for a in states]))

    keep, i = None, 0
    prev = None  # each row's spectra at the sample before the block
    while i < samples:
        k = block_size(i)
        try:
            r, states = block(i, k, keep)
        except (SolverBlowupError, ZeroDivisionError):
            if k == 1:
                raise
            return None
        keep = None
        reached = r >= stop
        done = reached.any(axis=0)
        rho[live, i : i + k] = r.T
        for pos in np.flatnonzero(r.max(axis=0) >= next_tol[live]):
            j, column = live[pos], r[:, pos]
            while pending[j] and column.max() >= pending[j][0]:
                tolerance = pending[j].pop(0)
                hold(i, pos, i + int(np.argmax(column >= tolerance)), tolerance,
                     states, prev)
            next_tol[j] = pending[j][0] if pending[j] else np.inf
        prev = None  # before the new copies are made
        prev = [a[-1].copy() for a in states]
        del states
        i += k
        if done.any():
            # each stopped curve ends at the first sample that reached its stop
            ends[live[done]] = i - k + reached[:, done].argmax(axis=0) + 1
            running = ~done
            live, stop, member, comp_of, curve_phi0_hat = (
                a[running] for a in (live, stop, member, comp_of, curve_phi0_hat))
            if not len(live):
                break
            kept, member = np.unique(member, return_inverse=True)
            if len(kept) < rows:
                keep, rows = kept, len(kept)
                prev = [a[kept] for a in prev]
    # the stream's spectra and the curves' phi_hat(0) go before the rounds
    stream.close()
    del curve_phi0_hat, prev
    if held:
        flush()
    return [
        ErrorCurve(delta=d, times=times[:end].copy(), rho=rho[j, :end], epsilon_comp=e,
                   crossings=crossings[j])
        for j, ((d, e), end) in enumerate(zip(specs, ends))
    ]


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


def _batch_points(c, members, curves, crossings=0):
    """Points (_grid_points) a batch of ``members`` deltas with ``curves``
    curves in all, holding ``crossings`` crossings to re-step, holds at the
    peak of _curve_batch, one sample per block, and one point per curve
    per sample (_ARRAYS_PER_MEMBER)."""
    return (_grid_points(c) * (_ARRAYS_PER_MEMBER[c.model] * members
                               + _ARRAYS_PER_EXTRA_CURVE * (curves - members)
                               + _ARRAYS_PER_CROSSING * crossings)
            + curves * sample_count(c))


def sample_count(c):
    """The samples of c's clock, T / dt + 1, by arithmetic: the length of
    sweep_times(c), without building it."""
    return _step_count(c.T, c.dt) + 1


def _compute_curves(c, specs):
    """The curves of specs, each ending at its stop sample
    (_curve_tolerances), in batches of as many distinct amplitudes as
    max_points admits with room for every crossing they re-step (specs
    sharing a delta share a batch)."""
    tolerances = _curve_tolerances(c)
    chunks, points = [], 0
    for group in _by_delta(specs):
        held = sum(len(tolerances[s]) for s in group)
        cost = _batch_points(c, 1, len(group), held)
        if not chunks or points + cost > c.max_points:
            chunks.append([])
            points = 0
        chunks[-1] += group
        points += cost
    return [curve for chunk in chunks
            for curve in _curve_batch(c, chunk, [tolerances[s] for s in chunk])]


def curve_path(root, config, delta, epsilon_comp=None, cache=False):
    """Where a curve lives under an output directory:
    curves/<config hash>/delta=<v>.csv, with __eps=<e> before the suffix
    for a composite comparator's per-epsilon curves; with ``cache``, its
    record curve_cache/<config hash>/delta=<v>[__eps=<e>].json
    (_write_cached), so one directory can hold both."""
    return _curve_paths(root, config, [(delta, epsilon_comp)], cache)[0]


def _curve_paths(root, config, keys, cache=False):
    """The curve_path of each (delta, epsilon_comp) in keys, the config
    hashed once."""
    folder = os.path.join(root, "curve_cache" if cache else "curves", config_hash(config))
    suffix = ".json" if cache else ".csv"
    return [os.path.join(folder, f"delta={fmt(delta)}"
                         + ("" if eps is None else f"__eps={fmt(eps)}") + suffix)
            for delta, eps in keys]


def _keys(curves):
    return [(curve.delta, curve.epsilon_comp) for curve in curves]


def write_curves(root, config, curves):
    """Write each curve as a t,rho CSV at the curve_path of its (delta,
    epsilon_comp) under root."""
    for curve, path in zip(curves, _curve_paths(root, config, _keys(curves))):
        write_csv(path, ["t", "rho"], zip(curve.times, curve.rho))


@functools.cache
def _source_digest():
    """sha256 over the name, length and bytes of every *.py file of this
    package, sorted by name: the code that wrote a cache record.  Read once
    per process, and only by a sweep that reads or writes a cache."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.name}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def _write_cached(root, config, curves):
    """Cache each curve as one JSON record at its cache curve_path under
    root: {"code": <source digest>, "t": [...], "rho": [...], "crossings":
    [[tolerance, t_cross], ...]}, "code" the _source_digest of the package
    that computed it.  JSON writes each float as its shortest repr, which
    reads back bitwise."""
    for curve, path in zip(curves, _curve_paths(root, config, _keys(curves), cache=True)):
        record = {"code": _source_digest(), "t": curve.times.tolist(),
                  "rho": curve.rho.tolist(),
                  "crossings": [[e, t] for e, t in sorted((curve.crossings or {}).items())]}
        atomic_write_text(path, json.dumps(record))


def _read_cached(path, spec, times, tolerances):
    """The curve of spec, its (delta, epsilon_comp), from its record at path
    (_write_cached), cut at its stop sample (the first where rho reaches
    the largest of ``tolerances``), or None if the record is missing,
    unreadable, not JSON or lacks a key, its "code" is not this package's
    _source_digest(), its t is not 1-D or not as long as its rho, its
    times are not a prefix of the sample grid ``times``, its rho is not
    finite, or it ends before both that sample and T.  A record written to
    T or to a larger tolerance is served cut, so a warm run returns
    bitwise the curve a cold run computes.  The curve carries the t_cross
    of the tolerances its cut rho reaches, from its record; one missing
    there, a crossing entry other than a [tolerance, t_cross] pair, or a
    t_cross outside its bracket [t[i-1], t[i]] (NaN included), i the first
    sample where rho reaches the tolerance, is a miss."""
    try:
        with open(path) as fh:
            record = json.load(fh)
        code = record["code"]
        t = np.array(record["t"], dtype=float)
        rho = np.array(record["rho"], dtype=float)
        stored = {float(e): float(t_cross) for e, t_cross in record["crossings"]}
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if code != _source_digest():
        return None
    if t.ndim != 1 or rho.shape != t.shape:
        return None
    if not 0 < len(t) <= len(times) or not np.array_equal(t, times[: len(t)]):
        return None
    if not np.all(np.isfinite(rho)):
        return None
    reached = np.flatnonzero(rho >= max(tolerances, default=0.0))
    if len(reached):
        end = reached[0] + 1
    elif len(t) == len(times):
        end = len(t)
    else:
        return None
    peak = rho[:end].max()
    needed = [e for e in tolerances if peak >= e]
    for e in needed:
        i = np.argmax(rho >= e)
        if e not in stored or not (i > 0 and t[i - 1] <= stored[e] <= t[i]):
            return None
    return ErrorCurve(delta=spec[0], times=t[:end], rho=rho[:end], epsilon_comp=spec[1],
                      crossings={e: stored[e] for e in needed})


def _curve_tolerances(config):
    """{(delta, comparator-epsilon): the tolerances read off its curve,
    ascending}, in descending delta order: the epsilons >= epsilon_floor
    among the (alpha, epsilon) whose crossing it gives.  A re-stepped
    crossing reads nothing past its bracket, so a curve is complete once
    rho has reached the largest (at its first sample if there is none)."""
    tolerances = {}
    for alpha in config.alpha_set:
        for eps in config.epsilon_set:
            key = (config.delta_for(alpha, eps), _comparator_epsilon(config, eps))
            needed = tolerances.setdefault(key, set())
            if eps >= config.epsilon_floor:
                needed.add(eps)
    order = sorted(tolerances, key=lambda k: (-k[0], -(k[1] if k[1] is not None else 0.0)))
    return {key: tuple(sorted(tolerances[key])) for key in order}


def _comparator_epsilon(config, epsilon):
    """The comparator tolerance in a curve's (delta, epsilon_comp) key:
    epsilon for the composite comparator, which depends on it, and None
    for the others, whose curves depend on the amplitude alone."""
    return epsilon if config.comparator == COMPARATOR_COMPOSITE else None


def curve_specs(config):
    """Distinct (delta, comparator-epsilon) pairs the sweep needs, in
    descending delta order."""
    return list(_curve_tolerances(config))


def run_error_curves(config):
    """All error curves the sweep needs, one per curve_specs entry and in
    its (descending delta) order, each carrying that (delta, epsilon_comp).
    Each curve ends at its last needed crossing: at the first sample where
    rho reaches the largest tolerance read off it, or at T if it never
    does, so it is a bitwise prefix of compute_error_curve's full-horizon
    curve.  The cache serves prefixes: a cached record that reaches that
    sample or runs to T is read back cut to it (_read_cached); the misses
    are computed together and each cached as one record of its t, rho
    and re-stepped crossings (_write_cached)."""
    tolerances = _curve_tolerances(config)
    specs = list(tolerances)
    curves = {}
    if config.cache_dir:
        times = sweep_times(config)
        for spec, path in zip(specs, _curve_paths(config.cache_dir, config, specs, cache=True)):
            curve = _read_cached(path, spec, times, tolerances[spec])
            if curve is not None:
                curves[spec] = curve
    misses = [spec for spec in specs if spec not in curves]
    computed = _compute_curves(config, misses)
    if config.cache_dir and computed:
        _write_cached(config.cache_dir, config, computed)
    curves.update(((c.delta, c.epsilon_comp), c) for c in computed)
    return [curves[s] for s in specs]


# --------------------------------------------------------------------------
# crossing extraction and regression


def find_crossing(curve, epsilon, epsilon_floor=0.0):
    """First time rho(t) reaches epsilon, read off a stored curve: linear
    interpolation in (log t, log rho) between samples i-1 and i, where i is
    the first sample with rho >= epsilon, so nothing past the curve's stop
    sample is read.  The rule is exact on power laws rho = C t^q, and its
    error is set by the spacing relative to t, h / t, not by h.  A crossing
    before the first positive sample (t[i-1] = 0 or rho[i-1] = 0) raises
    NoCrossingError.

    This is the public reader of a stored curve.  The sweep re-steps every
    crossing (epnls.restep) and calls this only to name why a curve
    carries no crossing."""
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
                # where a curve carries no crossing, find_crossing says why
                t_cross = curve.crossings.get(eps) or find_crossing(
                    curve, eps, config.epsilon_floor)
            except (NoCrossingError, ValueError) as err:
                failures.append(
                    {"alpha": alpha, "delta": delta, "epsilon": eps, "error": str(err)}
                )
                continue
            records.append(CrossingRecord(alpha=alpha, delta=delta, epsilon=eps,
                                          t_cross=t_cross))
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
