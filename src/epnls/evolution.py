"""Time integrators for the coupled photon-exciton system, its linear
approximations, and the NLS equation, plus trajectory diagnostics.

The full system couples a dispersive photon field phi to an exciton
field psi carrying the only nonlinearity:

    i phi_t = -Laplace phi + gamma psi
    i psi_t = (omega0 + g |psi|^(p-1)) psi + gamma phi

The nonlinear solvers use Strang splitting built from two exactly
unitary substeps: a pointwise phase rotation for the nonlinear term
(|psi| is invariant) and a per-Fourier-mode 2x2 matrix exponential of
the Hermitian symbol H_k = [[|k|^2, gamma], [gamma, omega0]] for the
linear part.  Mass is therefore conserved to rounding error at any dt,
and the scheme is globally second order.  An EP step is rotation(dt/2),
linear(dt), rotation(dt/2).  An NLS step is the other way round, free
step(dt/2), rotation(dt), free step(dt/2), which is second order too
(Thalhammer 2012, SIAM J. Numer. Anal. 50:3231) and lets the loop carry
the spectrum: one inverse and one forward transform per step, none per
sample.  The rotation exp(-i theta), theta = g dt |u|^(p-1), is evaluated
as (1 - i tau)^2 / (1 + tau^2) with tau = tan(theta/2).

Three linear comparators, each a per-mode multiplier of the initial
spectra, are evaluated in closed form with no stepping error: the fully
linear coupling (g = 0, "system B"), the free photon driving the exciton
linearly ("system A"), and the composite of A up to t1 and B after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    PHYSICAL,
    default_sobolev_index,
    free_symbol,
    hs_norm_from_fft,
)

DEFAULT_DT = 1e-3
DEFAULT_SAMPLES_PER_UNIT_TIME = 100

FULL = "full"
NORMS = "norms"


class SolverBlowupError(RuntimeError):
    """A field stopped being finite mid-run."""

    def __init__(self, time, step_index):
        super().__init__(
            f"non-finite field values at t = {time:.6g} (step {step_index})"
        )
        self.time = time
        self.step_index = step_index


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
    psi = Field(grid, np.zeros(grid.shape, dtype=np.complex128), PHYSICAL)
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
    only).  ``psi``/``norm_psi`` are None for single-field runs.
    """

    times: np.ndarray
    policy: str
    s: float
    phi: list | None = None
    psi: list | None = None
    norm_phi: np.ndarray | None = None
    norm_psi: np.ndarray | None = None
    mass: np.ndarray | None = None

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


@dataclass
class ErrorCurve:
    """Relative photon error rho(t) between a comparator and the truth."""

    delta: float | None
    times: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.times.shape != self.rho.shape:
            raise ValueError("times and rho must have matching shapes")
        if not np.all(np.isfinite(self.rho)):
            raise ValueError("rho contains non-finite samples")


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


def _rotate(values, g, p, dt):
    # nonlinear_phase in place on a complex array.  The phase exp(-i theta),
    # theta = g dt |u|^(p-1), is formed as (1 - i tau)^2 / (1 + tau^2) with
    # tau = tan(theta / 2): the same unitary factor to rounding at any
    # angle, and np.tan costs a fraction of sin, cos or a complex exp
    tau = np.abs(values)
    if p == 3.0:
        tau *= tau
    else:
        tau **= p - 1.0
    tau *= 0.5 * g * dt
    np.tan(tau, out=tau)
    tau_sq = tau * tau
    denom = tau_sq + 1.0
    factor = np.empty(values.shape, dtype=np.complex128)
    np.divide(1.0 - tau_sq, denom, out=factor.real)
    np.divide(-2.0 * tau, denom, out=factor.imag)
    values *= factor


def _check_finite(*arrays, time, step_index):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise SolverBlowupError(time, step_index)


def _hs(values, grid, s):
    return hs_norm_from_fft(np.fft.fftn(values), grid, s)


class _Recorder:
    def __init__(self, grid, s, policy, pair):
        self.grid = grid
        self.s = s
        self.policy = policy
        self.pair = pair
        self.times = []
        self.phi = [] if policy == FULL else None
        self.psi = [] if (policy == FULL and pair) else None
        self.norm_phi = []
        self.norm_psi = [] if pair else None
        self.mass = []

    def record(self, t, spectra, fields=None):
        """Record the sample at time t from ``spectra``, the plain FFTs of
        phi (and psi) stacked on a leading axis.  Norms come from the
        spectra and mass from Parseval; the physical ``fields`` (same
        layout) are only needed to keep states, and are built by an
        inverse transform when the caller has none."""
        self.times.append(t)
        norms = hs_norm_from_fft(spectra, self.grid, self.s)
        self.norm_phi.append(norms[0])
        if self.pair:
            self.norm_psi.append(norms[1])
        l2 = hs_norm_from_fft(spectra, self.grid, 0.0)
        self.mass.append(float(np.sum(l2 * l2)))
        if self.policy == FULL:
            if fields is None:
                fields = np.fft.ifftn(spectra, axes=tuple(range(-self.grid.n, 0)))
            self.phi.append(Field(self.grid, fields[0].copy(), PHYSICAL))
            if self.pair:
                self.psi.append(Field(self.grid, fields[1].copy(), PHYSICAL))

    def trajectory(self):
        return Trajectory(
            times=np.asarray(self.times),
            policy=self.policy,
            s=self.s,
            phi=self.phi,
            psi=self.psi,
            norm_phi=np.asarray(self.norm_phi),
            norm_psi=None if self.norm_psi is None else np.asarray(self.norm_psi),
            mass=np.asarray(self.mass),
        )


def _sample_count(T, spec):
    n = round(T / spec.sample_interval)
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


def _comparator_times(T, sample_times, start=0.0):
    """A comparator's sample times: the given ones, or by default start
    and then DEFAULT_SAMPLES_PER_UNIT_TIME samples per unit time to T."""
    if sample_times is None:
        if T is None:
            raise ValueError("provide either T or explicit sample_times")
        n = max(1, round((T - start) * DEFAULT_SAMPLES_PER_UNIT_TIME))
        sample_times = start + np.linspace(0.0, T - start, n + 1)
    return np.asarray(sample_times, dtype=float)


# --------------------------------------------------------------------------
# nonlinear evolutions (Strang splitting)


def ep_strang_samples(fields, params, step, n_samples, grid):
    """The Strang loop of the photon-exciton system, as a stream of samples.

    ``fields`` stacks the photon and exciton fields on its first axis,
    shape (2, ..., *grid.shape); axes between the field axis and the grid
    axes are independent batch members.  Each step is a half nonlinear
    rotation of psi, the exact per-mode 2x2 linear step for (phi_hat,
    psi_hat) in one forward and one inverse transform of the whole stack,
    and a half rotation again.  After every sample interval yields
    (t, fields, spectrum), where ``spectrum`` is the plain FFT the last
    linear substep produced: spectrum[0] is exactly phi_hat(t) because the
    closing rotation leaves phi untouched.  The yielded arrays are
    updated in place once the loop resumes.  Raises SolverBlowupError as
    soon as a sample is not finite.
    """
    axes = tuple(range(-grid.n, 0))
    per_block = step.steps_per_sample
    dt = step.dt
    g, p = params.g, params.p
    u11, u12, u22 = linear_pair_propagator(grid, params.gamma, params.omega0, dt)
    fields = np.array(fields, dtype=np.complex128)
    for block in range(n_samples):
        _rotate(fields[1], g, p, 0.5 * dt)
        for j in range(per_block):
            if j:
                _rotate(fields[1], g, p, dt)
            hat = np.fft.fftn(fields, axes=axes)
            spectrum = np.empty_like(hat)
            np.multiply(u11, hat[0], out=spectrum[0])
            spectrum[0] += u12 * hat[1]
            np.multiply(u22, hat[1], out=spectrum[1])
            spectrum[1] += u12 * hat[0]
            del hat
            fields = np.fft.ifftn(spectrum, axes=axes)
        _rotate(fields[1], g, p, 0.5 * dt)
        t = (block + 1) * step.sample_interval
        _check_finite(fields, time=t, step_index=(block + 1) * per_block)
        yield t, fields, spectrum


def nls_strang_samples(phi_hat, params, step, n_samples, grid):
    """The Strang loop of NLS, as a stream of spectra.

    ``phi_hat`` is the plain FFT of the initial field, shape
    (..., *grid.shape); leading axes are independent batch members.  Each
    step is a half exact free step on the spectrum, the nonlinear rotation
    over the whole step in physical space, and a half free step again, so
    a step costs one inverse and one forward transform; within a sample
    interval the adjacent half free steps are merged into one.  Yields
    (t, phi_hat) after every sample interval, phi_hat being exactly the
    spectrum at t (updated in place once the loop resumes), and raises
    SolverBlowupError as soon as a sample is not finite."""
    axes = tuple(range(-grid.n, 0))
    per_block = step.steps_per_sample
    dt = step.dt
    g, p = params.g, params.p
    half = free_symbol(grid, 0.5 * dt)
    full = free_symbol(grid, dt)
    hat = np.array(phi_hat, dtype=np.complex128)
    for block in range(n_samples):
        for j in range(per_block):
            hat *= full if j else half
            phi = np.fft.ifftn(hat, axes=axes)
            _rotate(phi, g, p, dt)
            hat = np.fft.fftn(phi, axes=axes)
        hat *= half
        t = (block + 1) * step.sample_interval
        _check_finite(hat, time=t, step_index=(block + 1) * per_block)
        yield t, hat


def evolve_ep(initial, params, step, T, record=FULL):
    """Integrate the full photon-exciton system from t = 0 to T.

    Strang splitting: half nonlinear rotation of psi, exact per-mode 2x2
    linear step for (phi_hat, psi_hat), half rotation again.  Aborts with
    SolverBlowupError if any field stops being finite.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if initial.time != 0:
        raise ValueError("evolve_ep expects the initial state at time 0")
    grid = initial.phi.grid
    axes = tuple(range(-grid.n, 0))
    rec = _Recorder(grid, params.resolve_s(grid), record, pair=True)
    fields = np.stack([initial.phi.values, initial.psi.values])
    rec.record(0.0, np.fft.fftn(fields, axes=axes), fields)
    for t, fields, _ in ep_strang_samples(
        fields, params, step, _sample_count(T, step), grid
    ):
        rec.record(t, np.fft.fftn(fields, axes=axes), fields)
    return rec.trajectory()


def evolve_nls(phi0, params, step, T, record=FULL):
    """Integrate i phi_t = -Laplace phi + g |phi|^(p-1) phi by Strang
    splitting (half exact spectral free step, nonlinear rotation, half
    free step); see nls_strang_samples."""
    if T <= 0:
        raise ValueError("T must be positive")
    grid = phi0.grid
    rec = _Recorder(grid, params.resolve_s(grid), record, pair=False)
    phi_hat = np.fft.fftn(phi0.values)
    rec.record(0.0, phi_hat[None], phi0.values[None])
    for t, phi_hat in nls_strang_samples(
        phi_hat, params, step, _sample_count(T, step), grid
    ):
        rec.record(t, phi_hat[None])
    return rec.trajectory()


# --------------------------------------------------------------------------
# linear comparators (closed form, no stepping error)


def _linear_trajectory(grid, params, times, spectra, record):
    """Record a linear comparator whose photon and exciton spectra at
    time t are spectra(t)."""
    rec = _Recorder(grid, params.resolve_s(grid), record, pair=True)
    for t in times:
        rec.record(t, np.stack(spectra(t)))
    return rec.trajectory()


def evolve_linear_b(initial, params, T=None, sample_times=None, record=FULL):
    """Exact solution of the fully linear coupled system (g = 0).

    Evaluates the per-mode 2x2 matrix exponential at each requested time,
    measured from ``initial.time``; times may be arbitrary.
    """
    times = _comparator_times(T, sample_times, initial.time)
    if np.any(times < initial.time - 1e-12):
        raise ValueError("sample times precede the initial time")

    grid = initial.phi.grid
    phi0_hat = np.fft.fftn(initial.phi.values)
    psi0_hat = np.fft.fftn(initial.psi.values)

    def spectra(t):
        u11, u12, u22 = linear_pair_propagator(
            grid, params.gamma, params.omega0, t - initial.time
        )
        return u11 * phi0_hat + u12 * psi0_hat, u12 * phi0_hat + u22 * psi0_hat

    return _linear_trajectory(grid, params, times, spectra, record)


_RESONANCE_GAP = 1e-8


def evolve_system_a(phi0, params, T=None, sample_times=None, record=FULL):
    """Exact solution of the early-time approximation: phi propagates
    freely, the exciton starts at zero and is driven linearly,

        psi_hat_k(t) = -i gamma e^{-i omega0 t}
                       (e^{i (omega0 - |k|^2) t} - 1) / (i (omega0 - |k|^2))
                       phi_hat_k(0),

    with a 3-term series in (omega0 - |k|^2) t through each resonant mode
    |k|^2 = omega0.
    """
    times = _comparator_times(T, sample_times)
    if np.any(times < 0):
        raise ValueError("sample times must be nonnegative")

    grid = phi0.grid
    phi0_hat = np.fft.fftn(phi0.values)
    spectra = lambda t: [m * phi0_hat for m in system_a_symbols(grid, params, t)]
    return _linear_trajectory(grid, params, times, spectra, record)


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


def composite_symbols(grid, params, t1):
    """Function of t giving the per-mode multipliers (M_phi, M_psi) taking
    phi_hat(0) to the composite comparator's photon and exciton spectra:
    system A up to t1, then system B from the system-A spectra at t1."""
    a_phi, a_psi = system_a_symbols(grid, params, t1)

    def symbols(t):
        if t <= t1:
            return system_a_symbols(grid, params, t)
        u11, u12, u22 = linear_pair_propagator(
            grid, params.gamma, params.omega0, t - t1
        )
        return u11 * a_phi + u12 * a_psi, u12 * a_phi + u22 * a_psi

    return symbols


def evolve_composite_tilde(phi0, params, C1, epsilon, T, sample_times=None, record=FULL):
    """Comparator that follows system A on [0, t1] and system B after,
    with t1 = C1 * sqrt(epsilon) and the A-state at t1 handed to B
    exactly (the fields are continuous across t1 by construction).
    C1 = 0 degenerates to pure system B from (phi0, 0)."""
    if C1 < 0 or epsilon < 0:
        raise ValueError("C1 and epsilon must be nonnegative")
    t1 = C1 * np.sqrt(epsilon)
    if t1 > T:
        raise ValueError(f"A-phase end t1 = {t1:.6g} exceeds the horizon T = {T}")
    times = _comparator_times(T, sample_times)
    if np.any(times < 0):
        raise ValueError("sample times must be nonnegative")

    grid = phi0.grid
    phi0_hat = np.fft.fftn(phi0.values)
    symbols = composite_symbols(grid, params, t1)
    spectra = lambda t: [m * phi0_hat for m in symbols(t)]
    return _linear_trajectory(grid, params, times, spectra, record)


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
        den = _hs(tru_f.values, grid, s)
        if den == 0.0:
            raise ZeroDivisionError(
                f"truth norm underflow at t = {truth.times[i]:.6g}"
            )
        rho[i] = _hs(ref_f.values - tru_f.values, grid, s) / den
    return ErrorCurve(delta=delta, times=truth.times.copy(), rho=rho)


def total_mass(state):
    """Combined squared L2 mass of both fields, sum (|phi|^2+|psi|^2) dx^n."""
    total = 0.0
    for arr in (state.phi.values, state.psi.values):
        total += np.sum(arr.real**2 + arr.imag**2)
    return float(total * state.phi.grid.cell_volume)
