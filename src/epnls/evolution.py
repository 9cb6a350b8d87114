"""Time integrators for the coupled photon-exciton system, its linear
approximations, and the NLS equation, plus trajectory diagnostics.

The full system couples a dispersive photon field phi to an exciton
field psi carrying the only nonlinearity:

    i phi_t = -Laplace phi + gamma psi
    i psi_t = (omega0 + g |psi|^(p-1)) psi + gamma phi

Both models are stepped by one split-step kernel, model_stream, of two
exactly unitary substeps: a pointwise phase rotation of the nonlinear
field (its modulus is invariant) and the exact per-mode linear flow, for
EP the 2x2 matrix exponential of H_k = [[|k|^2, gamma], [gamma, omega0]],
for NLS the free phase.  Mass is conserved to rounding error at any dt.
Both take Yoshida's fourth-order triple jump (Yoshida 1990, Phys. Lett. A
150:262): Strang steps outside(w dt/2), inside(w dt), outside(w dt/2) of
weights w1, w0, w1, w1 = 1/(2 - 2^(1/3)), w0 = 1 - 2 w1 < 0, with the
rotation outside for EP and the linear flow outside for NLS (Strang
splitting is second order with either substep outside; Thalhammer 2012,
SIAM J. Numer. Anal. 50:3231).  Every substep is unitary and reversible,
so the negative middle weight is harmless; halving dt divides the step
error by 16.  Both default clocks take one triple jump per sample, and
with the sweep's crossing rules the sample spacing, not the step, limits
the default crossings.  EP, read by a four-point cubic: dt = 2e-2 at 50
samples per unit time, within 6.4e-7 (1D) and 3.4e-5 (2D composite) of
fine references (dt = 1e-3 at 1,000 samples per unit time in 1D, 2e-3 at
500 in 2D); in 1D the step and the sample spacing add about equally
(6.3e-7 and 5.4e-7), in 2D the sample spacing dominates (3.4e-5, against
1.3e-7 from the step).  NLS, read by cubic Hermite from the exact slope
rho' (nls_forcing gives the flow's nonlinear term): dt = 5e-4 at 2,000
samples per unit time, within 1.3e-9 of a triple jump at dt = 2e-5 with
50,000 samples per unit time (dt = 2.5e-5 at the same samples moves the
crossings by 7.5e-12).
The kernel carries spectra and takes only the rotated field to physical
space and back (McLachlan & Quispel 2002, Acta Numerica 11:341), so an EP
step transforms psi alone and phi never leaves spectral space.  The
rotation exp(-i theta), theta = g dt |u|^(p-1), is evaluated as
(1 - i tau)^2 / (1 + tau^2) with tau = tan(theta/2).

Three linear comparators, each a per-mode multiplier of the initial
spectra, are evaluated in closed form with no stepping error: the fully
linear coupling (g = 0, "system B"), the free photon driving the exciton
linearly ("system A"), and the composite of A up to t1 and B after.

Every sample comes from a stream of (t, spectra, u): the kernel yields
its fields at t = 0 and after each sample interval, and a comparator its
spectra at each requested time.  One loop, _record, turns any such
stream into a Trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    default_sobolev_index,
    free_symbol,
    hs_norm_from_fft,
)

DEFAULT_DT = 2e-2
DEFAULT_SAMPLES_PER_UNIT_TIME = 50

EP = "ep"
NLS = "nls"

FULL = "full"


class SolverBlowupError(RuntimeError):
    """A field stopped being finite mid-run, or, when ``angle`` is given, a
    rotation angle reached 2^52 rad in the steps from ``time`` on, so that
    the field's phase is lost to rounding."""

    def __init__(self, time, step_index, angle=None):
        if angle is None:
            message = f"non-finite field values at t = {time:.6g} (step {step_index})"
        else:
            message = (f"rotation angle {angle:.3g} rad in the sample interval from "
                       f"t = {time:.6g} reaches 2^52 rad, where one ulp exceeds 1 rad")
        super().__init__(message)
        self.time = time
        self.step_index = step_index
        self.angle = angle


@dataclass
class ModelParams:
    """Physical constants of the model.

    ``s`` is the Sobolev degree used for norm diagnostics; None selects
    the dimension default floor(n/2 + 1) of the grid at hand.
    """

    g: float = 1.0
    gamma: float = 1.0
    omega0: float = 1.0
    p: float = 3.0
    s: float | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.p > 1:
            raise ValueError(f"nonlinearity power p must exceed 1, got {self.p}")
        if self.gamma < 0:
            raise ValueError(f"coupling gamma must be nonnegative, got {self.gamma}")
        if self.s is not None and self.s < 0:
            raise ValueError("Sobolev index s must be nonnegative")

    def resolve_s(self, grid):
        return default_sobolev_index(grid.n) if self.s is None else float(self.s)


@dataclass
class EPState:
    """Photon and exciton fields at one instant."""

    phi: Field
    psi: Field
    time: float = 0.0

    def __post_init__(self):
        if self.phi.grid is not self.psi.grid and (
            self.phi.grid.n != self.psi.grid.n
            or self.phi.grid.N != self.psi.grid.N
            or self.phi.grid.L != self.psi.grid.L
        ):
            raise ValueError("phi and psi must share one grid")
        if self.time < 0:
            raise ValueError("time must be nonnegative")


def zero_state(phi0):
    """EPState with the given photon field and an absent exciton field."""
    grid = phi0.grid
    psi = Field(grid, np.zeros(grid.shape, dtype=np.complex128))
    return EPState(phi=phi0, psi=psi, time=0.0)


@dataclass
class StepSpec:
    """Step size and output cadence for the split-step integrators.

    ``dt`` may be negative to integrate the system backward in time
    (used by the time-reversal check); its magnitude must divide the
    sampling interval 1/samples_per_unit_time exactly.
    """

    dt: float = DEFAULT_DT
    samples_per_unit_time: int = DEFAULT_SAMPLES_PER_UNIT_TIME

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        if self.samples_per_unit_time < 1:
            raise ValueError("samples_per_unit_time must be a positive integer")
        interval = 1.0 / self.samples_per_unit_time
        ratio = interval / abs(self.dt)
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"dt = {self.dt} does not divide the sampling interval {interval}"
            )

    @property
    def sample_interval(self):
        return 1.0 / self.samples_per_unit_time

    @property
    def steps_per_sample(self):
        return int(round(self.sample_interval / abs(self.dt)))


@dataclass
class Trajectory:
    """Sampled evolution: times plus recorded states and/or norms.

    ``policy`` is 'full' (states kept, norms too) or 'norms' (norms
    only).  ``psi``/``norm_psi`` are None for single-field runs.  ``l2``
    holds each sample's L2 norm of every field, one column per field, and
    ``mass`` the sum of their squares: inf once a norm passes ~1e154,
    where mass_drift() still has its finite value.
    """

    times: np.ndarray
    policy: str
    s: float
    phi: list | None = None
    psi: list | None = None
    norm_phi: np.ndarray | None = None
    norm_psi: np.ndarray | None = None
    mass: np.ndarray | None = None
    l2: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a nonempty 1D array")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.times = t

    def final_state(self):
        if self.phi is None:
            raise ValueError("trajectory was recorded norms-only")
        if self.psi is None:
            return self.phi[-1]
        return EPState(self.phi[-1], self.psi[-1], time=float(self.times[-1]))

    def mass_drift(self):
        """max |m(t) - m(0)|, relative to m(0) unless m(0) = 0.  The mass is
        formed from the L2 norms scaled by a power of two near their
        largest, which is exact: the drift is the bits of the unscaled
        formula wherever the mass is finite, and stays finite past it."""
        exponent = int(np.frexp(np.max(self.l2))[1])
        mass = np.sum(np.ldexp(self.l2, -exponent) ** 2, axis=1)
        drift = float(np.max(np.abs(mass - mass[0])))
        return drift / mass[0] if mass[0] else float(np.ldexp(drift, 2 * exponent))


@dataclass
class ErrorCurve:
    """Relative photon error rho(t) between a comparator and the truth,
    from the initial amplitude ``delta``; ``epsilon_comp`` is the tolerance
    a composite comparator was built for (None for the others), and
    ``drho`` the exact slope rho'(t) at the same samples, where the sweep
    computes it (NLS), else None."""

    delta: float | None
    times: np.ndarray
    rho: np.ndarray
    epsilon_comp: float | None = None
    drho: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        columns = {"rho": self.rho}
        if self.drho is not None:
            self.drho = columns["drho"] = np.asarray(self.drho, dtype=float)
        for name, values in columns.items():
            if values.shape != self.times.shape:
                raise ValueError(f"times and {name} must have matching shapes")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite samples")


# --------------------------------------------------------------------------
# building blocks


def linear_pair_propagator(grid, gamma, omega0, t):
    """Per-mode entries (U11, U12, U22) of exp(-i t H_k) for the Hermitian
    symbol H_k = [[|k|^2, gamma], [gamma, omega0]]; U21 = U12."""
    a = grid.k_squared
    mu = 0.5 * (a + omega0)
    d = 0.5 * (a - omega0)
    big_omega = np.sqrt(d * d + gamma * gamma)
    phase = np.exp(-1j * mu * t)
    angle = big_omega * t
    cos_t = np.cos(angle)
    # sin(Omega t)/Omega, continuous through Omega = 0; evaluating sin and
    # cos at the same rounded angle keeps the 2x2 exactly unitary in fp
    denom = np.where(big_omega == 0.0, 1.0, big_omega)
    sinc_t = np.where(big_omega == 0.0, t, np.sin(angle) / denom)
    u11 = phase * (cos_t - 1j * d * sinc_t)
    u12 = phase * (-1j * gamma * sinc_t)
    u22 = phase * (cos_t + 1j * d * sinc_t)
    return u11, u12, u22


def nonlinear_phase(values, g, p, dt):
    """Exact flow of i u_t = g |u|^(p-1) u over dt: a pointwise rotation
    that leaves |u| unchanged."""
    out = np.array(values, dtype=np.complex128)
    _rotate(out, g, p, dt)
    return out


def _modulus_power(values, p):
    # |u|^(p-1) as a new real array, squared by a product for the cubic
    out = np.abs(values)
    if p == 3.0:
        out *= out
    else:
        out **= p - 1.0
    return out


def _rotate(values, g, p, dt):
    # nonlinear_phase in place on a complex array; returns the largest
    # |theta|.  The phase exp(-i theta), theta = g dt |u|^(p-1), is formed
    # as (1 - i tau)^2 / (1 + tau^2) with tau = tan(theta / 2): the same
    # unitary factor to rounding at any angle, and np.tan costs a fraction
    # of sin, cos or a complex exp.  g = 0 is the identity, even where
    # |u|^(p-1) overflows
    if g == 0:
        return 0.0
    tau = _modulus_power(values, p)
    angle = abs(g * dt) * float(tau.max())
    tau *= 0.5 * g * dt
    np.tan(tau, out=tau)
    tau_sq = tau * tau
    denom = tau_sq + 1.0
    factor = np.empty(values.shape, dtype=np.complex128)
    np.divide(1.0 - tau_sq, denom, out=factor.real)
    np.divide(-2.0 * tau, denom, out=factor.imag)
    values *= factor
    return angle


def _record(samples, grid, params, policy):
    """The Trajectory of a stream of (t, spectra, u) samples: spectra lists
    the plain FFTs of phi (and psi), and an entry that is None is the field
    held in physical space as u.  Norms come from the spectra (u gets one
    Grid.fft) and mass from Parseval; 'full' states are one Grid.ifft of
    them."""
    s = params.resolve_s(grid)
    times, norms, l2, states = [], [], [], []
    for t, spectra, u in samples:
        hats = np.stack([grid.fft(u) if a is None else a for a in spectra])
        times.append(t)
        norms.append(hs_norm_from_fft(hats, grid, s))
        l2.append(hs_norm_from_fft(hats, grid, 0.0))
        if policy == FULL:
            states.append([Field(grid, f) for f in grid.ifft(hats)])
    # one row per field, then None for an absent psi
    norms = [np.array(row) for row in np.transpose(norms)] + [None]
    states = [list(row) for row in zip(*states)] + [None] if policy == FULL else [None] * 2
    l2 = np.array(l2)
    with np.errstate(over="ignore"):  # an inf mass is a result, see Trajectory
        mass = np.sum(l2 * l2, axis=1)
    return Trajectory(
        times=np.asarray(times), policy=policy, s=s, phi=states[0], psi=states[1],
        norm_phi=norms[0], norm_psi=norms[1], mass=mass, l2=l2,
    )


def _sample_count(T, spec):
    ratio = T / spec.sample_interval
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * spec.sample_interval - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(
            f"horizon T = {T} is not a positive multiple of the sampling "
            f"interval {spec.sample_interval}"
        )
    return int(n)


def sample_times(T, step):
    """The times evolve_ep and evolve_nls record at: 0 and every sample
    interval up to T, each computed as (index * interval)."""
    return np.arange(_sample_count(T, step) + 1) * step.sample_interval


def _comparator_times(T, given, start=0.0):
    """A comparator's sample times, none before start: the given ones, or
    start + sample_times(T - start, StepSpec()), bitwise evolve_ep's and
    evolve_nls's default times from start = 0."""
    if given is None:
        if T is None:
            raise ValueError("provide either T or explicit sample_times")
        given = start + sample_times(T - start, StepSpec())
    times = np.asarray(given, dtype=float)
    if np.any(times < start - 1e-12):
        raise ValueError(f"sample times precede the start time {start:.6g}")
    return times


# --------------------------------------------------------------------------
# nonlinear evolutions (split-step)


# Yoshida's triple-jump weights: Strang steps of w1 dt, w0 dt, w1 dt
# compose to a fourth-order step (Yoshida 1990, Phys. Lett. A 150:262)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1

# Past 2^52 rad one ulp of a rotation angle exceeds 1 rad: its phase is
# rounding noise, though |u| stays exact
_MAX_ANGLE = 2.0**52


def _pair_map(symbols, a, b):
    """U (a, b) per mode, U the symmetric 2x2 linear_pair_propagator gives."""
    u11, u12, u22 = symbols
    return [u11 * a + u12 * b, u12 * a + u22 * b]


def _apply_linear(hats, symbols):
    # hats <- U hats per mode for U the 1x1 free symbol or the symmetric
    # 2x2; in place, one array per field lighter than _pair_map
    if len(symbols) == 1:
        hats[0] *= symbols[0]
        return
    u11, u12, u22 = symbols
    mix_phi, mix_psi = u12 * hats[1], u12 * hats[0]
    hats[0] *= u11
    hats[0] += mix_phi
    hats[1] *= u22
    hats[1] += mix_psi


def model_stream(model, grid, params, step, n_samples, phi_hat, psi=None):
    """The split-step loop of ``model`` from the photon spectra phi_hat
    (with any leading batch axes), as a stream of its samples from t = 0.

    EP steps the 2x2 flow exp(-i tau H_k) and rotates psi, the exciton in
    physical space (zero if None), with the rotation outside; NLS steps
    the free flow and rotates phi, with the flow outside.  Each step is
    Yoshida's triple jump, Strang steps outside(w/2), inside(w),
    outside(w/2) of weights w1, w0, w1, chained over a sample interval
    with the outside half-steps that meet merged; one linear map is built
    per distinct weight.  The stream owns phi_hat and psi.  It yields (t,
    spectra, u) at t = 0 and after each of n_samples sample intervals, at
    the times sample_times gives.  spectra lists the fields' plain FFTs
    and u the rotated field in physical space, where only that field's
    entry or u is set, and the arrays change in place once it resumes.
    spectra[0] is the photon spectrum at every sample: EP's phi never
    leaves spectral space, and NLS ends each interval on a linear
    substep.  Raises SolverBlowupError once a sample is not finite or a
    rotation angle reaches 2^52 rad.  ``stream.send(keep)``, keep a
    boolean mask or row indices over the leading batch axis, shrinks the
    batch to those rows in new arrays before the next step; each row
    steps alone, so the survivors' bits do not change."""
    if model == EP:
        gamma, omega0 = params.gamma, params.omega0
        linear = lambda tau: linear_pair_propagator(grid, gamma, omega0, tau)
        spectra, field = [phi_hat, None], 1
        u = np.zeros_like(phi_hat) if psi is None else psi
    else:
        linear = lambda tau: (free_symbol(grid, tau),)
        spectra, field, u = [phi_hat], 0, None
    # the stream's arrays are spectra and u alone: a name left bound here
    # would hold the initial fields for the whole run, after a batch
    # shrink or an NLS rotation has replaced them
    del phi_hat, psi
    dt, per_block = step.dt, step.steps_per_sample
    # (rotate?, weight) substeps of a sample interval; the outside
    # half-steps of neighbouring jumps a, b merge into 0.5 (a + b), which
    # is 0.5 a + 0.5 b exactly
    jumps = (_W1, _W0, _W1) * per_block
    halves = [0.5 * (a + b) for a, b in zip((0.0,) + jumps, jumps + (0.0,))]
    rotate_outside = model == EP
    substeps = [substep for half, w in zip(halves, jumps)
                for substep in ((rotate_outside, half), (not rotate_outside, w))]
    substeps.append((rotate_outside, halves[-1]))
    maps = {w: linear(w * dt) for rotate, w in substeps if not rotate}
    for block in range(n_samples + 1):
        for rotate, weight in substeps if block else ():  # sample 0: no step
            if rotate:
                if u is None:
                    u, spectra[field] = grid.ifft(spectra[field]), None
                angle = _rotate(u, params.g, params.p, weight * dt)
                if angle >= _MAX_ANGLE:
                    raise SolverBlowupError((block - 1) * step.sample_interval,
                                            (block - 1) * per_block + 1, angle)
            else:
                if u is not None:
                    spectra[field], u = grid.fft(u), None
                _apply_linear(spectra, maps[weight])
        t = block * step.sample_interval
        if not all(np.all(np.isfinite(a)) for a in spectra + [u] if a is not None):
            raise SolverBlowupError(t, block * per_block)
        keep = yield t, spectra, u
        if keep is not None:
            spectra = [None if a is None else a[keep] for a in spectra]
            u = None if u is None else u[keep]


def nls_forcing(grid, params, phi_hat):
    """Spectrum F = Grid.fft(g |phi|^(p-1) phi) of the NLS nonlinearity at
    the field whose plain FFT is phi_hat (leading batch axes allowed), so
    that the NLS flow is phi_hat' = -i |k|^2 phi_hat - i F: an inverse and
    a forward transform.  g = 0 gives zeros, even where |phi|^(p-1)
    overflows."""
    if params.g == 0:
        return np.zeros_like(phi_hat)
    u = grid.ifft(phi_hat)
    rate = _modulus_power(u, params.p)
    rate *= params.g
    u *= rate
    del rate  # before the transform allocates its result
    return grid.fft(u)


def evolve_ep(initial, params, step, T, record=FULL):
    """Integrate the full photon-exciton system from t = 0 to T.

    Each step is Yoshida's fourth-order triple jump (model_stream): three
    Strang steps of w1 dt, w0 dt, w1 dt, each a half rotation of psi, the
    exact 2x2 linear step for (phi_hat, psi_hat) and a half rotation
    again.  Aborts with SolverBlowupError if any field stops being finite
    or a rotation angle reaches 2^52 rad.
    """
    samples = _sample_count(T, step)
    if initial.time != 0:
        raise ValueError("evolve_ep expects the initial state at time 0")
    grid = initial.phi.grid
    stream = model_stream(EP, grid, params, step, samples, grid.fft(initial.phi.values),
                          initial.psi.values.copy())
    return _record(stream, grid, params, record)


def evolve_nls(phi0, params, step, T, record=FULL):
    """Integrate i phi_t = -Laplace phi + g |phi|^(p-1) phi from t = 0 to T.

    Each step is Yoshida's fourth-order triple jump (model_stream): three
    Strang steps of w1 dt, w0 dt, w1 dt, each a half exact spectral free
    step, the rotation of phi and a half free step again.  Aborts with
    SolverBlowupError if the field stops being finite or a rotation angle
    reaches 2^52 rad.
    """
    samples = _sample_count(T, step)
    grid = phi0.grid
    stream = model_stream(NLS, grid, params, step, samples, grid.fft(phi0.values))
    return _record(stream, grid, params, record)


# --------------------------------------------------------------------------
# linear comparators (closed form, no stepping error)


def evolve_linear_b(initial, params, T=None, sample_times=None, record=FULL):
    """Exact solution of the fully linear coupled system (g = 0).

    Evaluates the per-mode 2x2 matrix exponential at each requested time,
    measured from ``initial.time``; times may be arbitrary.  By default
    T - initial.time must be a multiple of StepSpec()'s sample interval.
    """
    times = _comparator_times(T, sample_times, initial.time)

    grid = initial.phi.grid
    phi0_hat = grid.fft(initial.phi.values)
    psi0_hat = grid.fft(initial.psi.values)

    def spectra(t):
        u = linear_pair_propagator(grid, params.gamma, params.omega0, t - initial.time)
        return _pair_map(u, phi0_hat, psi0_hat)

    return _record(((t, spectra(t), None) for t in times), grid, params, record)


_RESONANCE_GAP = 1e-8


def evolve_system_a(phi0, params, T=None, sample_times=None, record=FULL):
    """Exact solution of the early-time approximation: phi propagates
    freely, the exciton starts at zero and is driven linearly,

        psi_hat_k(t) = -i gamma e^{-i omega0 t}
                       (e^{i (omega0 - |k|^2) t} - 1) / (i (omega0 - |k|^2))
                       phi_hat_k(0),

    with a 3-term series in (omega0 - |k|^2) t through each resonant mode
    |k|^2 = omega0.  By default T must be a multiple of StepSpec()'s
    sample interval.
    """
    times = _comparator_times(T, sample_times)

    grid = phi0.grid
    phi0_hat = grid.fft(phi0.values)
    spectra = lambda t: [m * phi0_hat for m in system_a_symbols(grid, params, t)]
    return _record(((t, spectra(t), None) for t in times), grid, params, record)


def system_a_symbols(grid, params, t):
    """Per-mode multipliers (A_phi, A_psi) taking phi_hat(0) to the
    system-A photon and exciton spectra at time t (exciton starting at 0)."""
    gap = params.omega0 - grid.k_squared
    resonant = np.abs(gap) < _RESONANCE_GAP
    gap_safe = np.where(resonant, 1.0, gap)
    theta = gap * t
    ramp = np.where(
        resonant,
        t * (1.0 + 0.5j * theta - theta**2 / 6.0),
        (np.exp(1j * gap_safe * t) - 1.0) / (1j * gap_safe),
    )
    a_psi = -1j * params.gamma * np.exp(-1j * params.omega0 * t) * ramp
    return free_symbol(grid, t), a_psi


def composite_seed(grid, params, t1):
    """Per-mode (B_phi, B_psi) = U(-t1) (A_phi(t1), A_psi(t1)), so that the
    composite's multipliers after t1 are U(t) (B_phi, B_psi): one linear
    propagator U(t) serves every t1."""
    back = linear_pair_propagator(grid, params.gamma, params.omega0, -t1)
    return _pair_map(back, *system_a_symbols(grid, params, t1))


def evolve_composite_tilde(phi0, params, C1, epsilon, T=None, sample_times=None,
                           record=FULL):
    """Comparator that follows system A on [0, t1] and system B after,
    with t1 = C1 * sqrt(epsilon) and the A-state at t1 handed to B
    exactly (the fields are continuous across t1 by construction).
    C1 = 0 degenerates to pure system B from (phi0, 0).  By default T
    must be a multiple of StepSpec()'s sample interval."""
    if C1 < 0 or epsilon < 0:
        raise ValueError("C1 and epsilon must be nonnegative")
    t1 = C1 * np.sqrt(epsilon)
    times = _comparator_times(T, sample_times)
    if t1 > times[-1]:
        raise ValueError(f"A-phase end t1 = {t1:.6g} exceeds the horizon, the last "
                         f"sample time {times[-1]:.6g}")

    grid = phi0.grid
    phi0_hat = grid.fft(phi0.values)
    b_phi, b_psi = (m * phi0_hat for m in composite_seed(grid, params, t1))

    def spectra(t):
        if t <= t1:
            return [m * phi0_hat for m in system_a_symbols(grid, params, t)]
        u = linear_pair_propagator(grid, params.gamma, params.omega0, t)
        return _pair_map(u, b_phi, b_psi)

    return _record(((t, spectra(t), None) for t in times), grid, params, record)


# --------------------------------------------------------------------------
# diagnostics


def relative_error_curve(reference, truth, s, delta=None):
    """rho(t) = ||phi_ref(t) - phi(t)||_Hs / ||phi(t)||_Hs per sample.

    Both trajectories must be full-state recordings over identical times;
    the truth must not vanish at any sample.
    """
    if reference.phi is None or truth.phi is None:
        raise ValueError("relative_error_curve needs full-state trajectories")
    if len(reference.times) != len(truth.times) or np.any(
        reference.times != truth.times
    ):
        raise ValueError("trajectories must share identical sample times")
    grid = truth.phi[0].grid
    rho = np.empty(len(truth.times))
    for i, (ref_f, tru_f) in enumerate(zip(reference.phi, truth.phi)):
        pair = np.stack([tru_f.values, ref_f.values - tru_f.values])
        den, num = hs_norm_from_fft(grid.fft(pair), grid, s)
        if den == 0.0:
            raise ZeroDivisionError(
                f"truth norm underflow at t = {truth.times[i]:.6g}"
            )
        rho[i] = num / den
    return ErrorCurve(delta=delta, times=truth.times.copy(), rho=rho)

