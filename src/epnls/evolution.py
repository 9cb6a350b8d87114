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
Each step composes Strang steps flow(w dt/2), rotation(w dt), flow(w dt/2)
of symmetric weights that the model and the dimension n choose (_WEIGHTS).
NLS in every n, and EP in 1D and 3D, take Yoshida's 7-stage sixth-order
"solution A" (Yoshida 1990, Phys. Lett. A 150:262; see also McLachlan
1995, SIAM J. Sci. Comput. 16:151) of weights w3, w2, w1, w0, w1, w2, w3:
halving dt divides its step error by 64.  2D EP takes his fourth-order
triple jump of weights w1, w0, w1, w1 = 1/(2 - 2^(1/3)), w0 = 1 - 2 w1 < 0:
halving dt divides its step error by 16.  Both substeps are exact flows,
unitary and reversible, so each symmetric composition reaches its stated
order and negative weights are harmless.  With the rotation outside each
Strang step, as Thalhammer 2012 (SIAM J. Numer. Anal. 50:3231) allows
too, the triple jump gave 6.3e-7 and 1.3e-7 on the default 1D and 2D EP
sweeps at dt = 2e-2, against 5.5e-8 and 1.1e-8.
Every run's clock is dt alone (StepSpec), every sample one composed step
of dt, and the sweep re-steps its crossings inside their brackets (jump),
so the step alone limits them; sweep._MODEL_DEFAULTS gives the default
clocks and their accuracy.
The kernel carries spectra and takes only the rotated field to physical
space and back, for each rotation (McLachlan & Quispel 2002,
Acta Numerica 11:341): an EP step transforms psi alone and phi never
leaves spectral space.  Every unit phase exp(-i theta), the rotation's
(theta = g dt |u|^(p-1)) and the symbols' alike, is evaluated as
(1 - i tau)^2 / (1 + tau^2) with tau = tan(theta/2) (grid._unit_phase).

Three linear comparators, each a per-mode multiplier of the initial
spectra, are evaluated in closed form with no stepping error: the fully
linear coupling (g = 0, "system B"), the free photon driving the exciton
linearly ("system A"), and the composite of A up to t1 and B after.
Every per-mode symbol (free_symbol, linear_pair_propagator,
system_a_symbols, composite_seed) is a function of |k|^2 alone, evaluated
on the grid's distinct values k_levels and gathered onto the lattice.

Every sample comes from a stream of (t, spectra), every field spectral:
the kernel yields its spectra on the clock of T and its step
(sample_times), and a comparator its spectra at each time it is given.
One loop, _record, turns any such stream into a Trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    DEFAULT_MAX_POINTS,
    Field,
    _free_symbol_of,
    _unit_phase,
    default_sobolev_index,
    free_symbol,
    hs_norm_from_fft,
)

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
            or self.phi.grid.shape != self.psi.grid.shape
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
    """The clock of the split-step integrators: every sample is one
    composed step (_WEIGHTS) of ``dt``, which has no default
    (sweep._MODEL_DEFAULTS holds each model's).  ``dt`` may be negative to
    integrate the system backward in time (used by the time-reversal
    check).
    """

    dt: float

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be finite and nonzero, got {self.dt}")


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
    ``crossings`` {tolerance: t_cross} of the crossings the sweep
    re-stepped on it (CrossingRecord), else None."""

    delta: float | None
    times: np.ndarray
    rho: np.ndarray
    epsilon_comp: float | None = None
    crossings: dict | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != self.times.shape:
            raise ValueError("times and rho must have matching shapes")
        if not np.all(np.isfinite(self.rho)):
            raise ValueError("rho contains non-finite samples")


# --------------------------------------------------------------------------
# building blocks


def linear_pair_propagator(grid, gamma, omega0, t):
    """Per-mode entries (U11, U12, U22) of exp(-i t H_k) for the Hermitian
    symbol H_k = [[|k|^2, gamma], [gamma, omega0]]; U21 = U12."""
    return tuple(grid.gather(_pair_propagator_of(grid.k_levels, gamma, omega0, t)))


def _pair_propagator_of(k_sq, gamma, omega0, t):
    # linear_pair_propagator on an array of |k|^2 values
    mu = 0.5 * (k_sq + omega0)
    d = 0.5 * (k_sq - omega0)
    big_omega = np.sqrt(d * d + gamma * gamma)
    phase = _unit_phase(0.5 * mu * t)
    # exp(-i Omega t) = cos - i sin, both from one tangent of the same
    # rounded half angle, which keeps the 2x2 unitary to rounding;
    # sin(Omega t)/Omega is continuous through Omega = 0
    turn = _unit_phase(0.5 * big_omega * t)
    cos_t = turn.real
    denom = np.where(big_omega == 0.0, 1.0, big_omega)
    sinc_t = np.where(big_omega == 0.0, t, -turn.imag / denom)
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
    # nonlinear_phase in place on a complex array; returns the largest
    # |theta|.  The phase exp(-i theta), theta = g dt |u|^(p-1), is
    # _unit_phase(theta / 2).  dt may be an array that broadcasts against
    # values, one step per batch row.  g = 0 is the identity, even where
    # |u|^(p-1) overflows
    if g == 0:
        return 0.0
    tau = np.abs(values)  # |u|^(p-1), squared by a product for the cubic
    if p == 3.0:
        tau *= tau
    else:
        tau **= p - 1.0
    step = abs(g * dt)
    angle = float(step.max() if isinstance(step, np.ndarray) else step) * float(tau.max())
    tau *= 0.5 * g * dt
    values *= _unit_phase(tau)
    return angle


def _record(samples, grid, params, policy):
    """The Trajectory of a stream of (t, spectra) samples, spectra the
    plain FFTs of phi (and psi).  Norms come from the spectra and mass from
    Parseval; 'full' states are one Grid.ifft of them."""
    s = params.resolve_s(grid)
    times, norms, l2, states = [], [], [], []
    for t, spectra in samples:
        hats = np.stack(spectra)
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


def _step_count(T, dt):
    """T / |dt| as a whole number n >= 1, the steps of a run to T, without
    building its clock; ValueError naming T and dt otherwise."""
    ratio = T / abs(dt)
    n = round(ratio) if np.isfinite(ratio) else 0
    if n < 1 or abs(n * abs(dt) - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(
            f"horizon T = {T} is not a positive multiple of the step size |dt| = {abs(dt)}"
        )
    return n


def sample_times(T, step):
    """The times model_stream yields on the clock of T and step, for
    evolve_ep, evolve_nls and the sweep alike: j |dt|, each computed as
    that product, for j = 0, 1, ..., T / |dt|, which must be a positive
    integer (_step_count): one sample per step."""
    return np.arange(_step_count(T, step.dt) + 1) * abs(step.dt)


def _given_times(given, start=0.0):
    """A comparator's sample times as a float array; ValueError naming
    sample_times unless they are a nonempty 1D, finite, strictly increasing
    sequence none of whose times precedes start."""
    times = np.asarray(given, dtype=float)
    if times.ndim != 1 or not times.size:
        raise ValueError(f"sample_times must be a nonempty 1D sequence, got shape "
                         f"{times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample_times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if times[0] < start - 1e-12:
        raise ValueError(f"sample_times precede the start time {start:.6g}")
    return times


def _check_record(grid, fields, step, T, record):
    """ValueError naming dt, T and the count, by arithmetic alone, unless
    the samples of a run to T, times its ``fields`` fields' stored points
    each for a 'full' record (one point for 'norms'), fit in
    DEFAULT_MAX_POINTS."""
    samples = _step_count(T, step.dt) + 1
    count = samples * (fields * int(np.prod(grid.shape)) if record == FULL else 1)
    if count > DEFAULT_MAX_POINTS:
        raise ValueError(f"a {record!r} record of {samples} samples at dt = {step.dt:g} "
                         f"to T = {T:g} holds {count} points, which exceeds the "
                         f"memory cap of {DEFAULT_MAX_POINTS} points")


# --------------------------------------------------------------------------
# nonlinear evolutions (split-step)


def _symmetric(*outer):
    """The weights (w_k, ..., w_1, w_0, w_1, ..., w_k) of the given w_1,
    ..., w_k, with w_0 = 1 - 2 (w_1 + ... + w_k), so that they sum to 1."""
    return outer[::-1] + (1.0 - 2.0 * sum(outer),) + outer


# The rotation weights of the composed step of each model and dimension n,
# Strang steps of w dt for each w in turn (Yoshida 1990, Phys. Lett. A
# 150:262): the fourth-order triple jump, or the sixth-order 7 stages of
# Yoshida's "solution A".  The sixth-order step reads the default NLS ladder
# at the fine references' floor on dt = 8e-3, and the EP sweeps in 1D and 3D
# within 1.7e-8 and 2.8e-8 on dt = 0.1 (sweep._MODEL_DEFAULTS).  2D EP keeps
# the triple jump: its composite sweep, on the same dt = 0.1, took 1.58x
# the CPU time with the sixth-order step (1.30x at dt = 0.2)
_TRIPLE_JUMP = _symmetric(1.0 / (2.0 - 2.0 ** (1.0 / 3.0)))
_SIXTH_ORDER = _symmetric(-1.17767998417887, 0.235573213359357, 0.784513610477560)
_WEIGHTS = {
    (EP, 1): _SIXTH_ORDER, (EP, 2): _TRIPLE_JUMP, (EP, 3): _SIXTH_ORDER,
    (NLS, 1): _SIXTH_ORDER, (NLS, 2): _SIXTH_ORDER, (NLS, 3): _SIXTH_ORDER,
}

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


def _flows(model, grid, params, count, dt):
    """The rotation weights of ``count`` chained composed steps of dt
    (_WEIGHTS of model and grid.n) and the linear maps of ``model`` (EP's
    2x2 exp(-i tau H_k), NLS's free phase) of the half flows around them: one
    before each rotation and one after the last, built once per distinct
    weight.  The half flows of neighbouring stages a, b merge into
    0.5 (a + b), which is 0.5 a + 0.5 b exactly.  dt of shape (rows, 1)
    gives one map per batch row."""
    weights = _WEIGHTS[model, grid.n] * count
    halves = [0.5 * (a + b) for a, b in zip((0.0,) + weights, weights + (0.0,))]
    if model == EP:
        linear = lambda tau: linear_pair_propagator(grid, params.gamma, params.omega0, tau)
    else:
        linear = lambda tau: (free_symbol(grid, tau),)
    maps = {w: linear(w * dt) for w in dict.fromkeys(halves)}
    return weights, [maps[w] for w in halves]


def _jump(spectra, grid, params, flows, weights, dt, start=0.0, steps=0, count=1):
    """``count`` chained composed steps in place on ``spectra`` (photon
    first, the rotated field, EP's psi or NLS's phi, last): per rotation
    weight w its linear map flows[i], then the rotation of the last field
    over w dt, and flows[-1] after the last.  dt is a float, or an array
    that broadcasts against the spectra with one step per batch row, as
    flows then holds one map per row.  A rotation takes its field to
    physical space and back.  Raises SolverBlowupError once a rotation
    angle reaches 2^52 rad, for the sample interval from ``start`` after
    ``steps`` composed steps, counting the one in progress."""
    for i, weight in enumerate(weights):
        _apply_linear(spectra, flows[i])
        u = grid.ifft(spectra.pop())
        angle = _rotate(u, params.g, params.p, weight * dt)
        if angle >= _MAX_ANGLE:
            raise SolverBlowupError(start, steps + i * count // len(weights) + 1, angle)
        spectra.append(grid.fft(u))
        del u  # or it would live on through the next linear substep
    _apply_linear(spectra, flows[-1])


def jump(model, grid, params, spectra, h, count=1):
    """Advance ``spectra`` (photon first; EP's exciton after it) in place
    by ``count`` composed steps of h / count each, h an array of one step
    per leading batch row: the split-step of model_stream, whose bits each
    row keeps whatever the rest of the batch."""
    dt = np.asarray(h, dtype=float) / count
    weights, flows = _flows(model, grid, params, count, dt[:, None])
    _jump(spectra, grid, params, flows, weights, dt.reshape(dt.shape + (1,) * grid.n),
          count=count)


def log_rho_rate(model, grid, params, spectra, diff, comparator_psi, norms, diff_norms):
    """d log rho / dt of each leading batch row, rho = ||D||_s / ||T||_s the
    relative photon error of the truth's spectra (model_stream's: photon T
    first, then EP's exciton psi) against a linear comparator's photon C,
    D = C - T (``diff``), ``norms`` and ``diff_norms`` the H^s norms of T
    and D (s of params).  With <a, b> = sum w conj(a) b in the norm's
    weights w, and each photon solving i phi_t = |k|^2 phi + F, whose
    |k|^2 term is real and drops out:

        EP:  gamma (Im<D, C_psi - psi> / ||D||^2 - Im<T, psi> / ||T||^2),
        NLS: -g (Im<D, N> / ||D||^2 + Im<T, N> / ||T||^2),

    C_psi (``comparator_psi``, EP only) the comparator's exciton, 0 where
    its photon flows freely (system A), and N = FFT(|u|^(p-1) u), one
    transform pair per row.  Every operation acts on each row alone, and
    EP's exciton and C_psi are overwritten."""
    weight = grid.hs_weight(params.resolve_s(grid)) * (grid.cell_volume**2 / grid.box_volume)
    rows = (-1, weight.size)

    def im_dot(a, weighted, norm):  # Im<a, b> / norm^2 per row, from weight b
        return np.vecdot(a.reshape(rows), weighted.reshape(rows)).imag / norm / norm

    photon = spectra[0]
    if model == EP:
        psi = spectra[1]
        comparator_psi -= psi
        comparator_psi *= weight
        psi *= weight
        return params.gamma * (im_dot(diff, comparator_psi, diff_norms)
                               - im_dot(photon, psi, norms))
    u = grid.ifft(photon)
    u *= np.abs(u) ** (params.p - 1.0)
    force = grid.fft(u)
    del u
    force *= weight
    return -params.g * (im_dot(diff, force, diff_norms) + im_dot(photon, force, norms))


def model_stream(model, grid, params, step, T, phi_hat, psi_hat=None):
    """The split-step loop of ``model`` from the photon spectra phi_hat
    (with any leading batch axes), as a stream of its samples on the clock
    of T and ``step``, at times = sample_times(T, step).

    EP steps the 2x2 flow exp(-i tau H_k) of (phi_hat, psi_hat), the
    exciton spectrum zero if None, and rotates psi; NLS steps the free flow
    and rotates phi.  Each sample interval is one composed step of dt,
    Strang steps flow(w/2), rotation(w), flow(w/2) of the weights of the
    model and the grid's dimension (_WEIGHTS, _jump), whose linear maps
    are built once.  The stream owns phi_hat and psi_hat.  It yields
    (times[j], spectra): the given spectra at times[0] = 0, then each
    further one a step of ``step`` on; closing it early yields a prefix.  spectra lists the fields' plain FFTs,
    photon first, and the list and its arrays change once it resumes.
    Raises SolverBlowupError once a sample is not finite or a rotation
    angle reaches 2^52 rad, with the number of composed steps taken (for
    an angle, counting the one in progress).  ``stream.send(keep)``, keep a
    boolean mask or row indices over the leading batch axis, shrinks the
    batch to those rows in new arrays before the next step; each row steps
    alone, so the survivors' bits do not change."""
    if model == EP:
        spectra = [phi_hat, np.zeros_like(phi_hat) if psi_hat is None else psi_hat]
    else:
        spectra = [phi_hat]
    # the stream's arrays are spectra alone: a name left bound here would
    # hold the initial fields for the whole run, after a batch shrink has
    # replaced them
    del phi_hat, psi_hat
    times = sample_times(T, step)
    weights, maps = _flows(model, grid, params, 1, step.dt)
    for j, t in enumerate(times):
        if j:  # sample 0: no step
            _jump(spectra, grid, params, maps, weights, step.dt, times[j - 1], j - 1)
        if not all(np.all(np.isfinite(a)) for a in spectra):
            raise SolverBlowupError(t, j)
        keep = yield t, spectra
        if keep is not None:
            spectra = [a[keep] for a in spectra]


def evolve_ep(initial, params, step, T, record=FULL):
    """Integrate the full photon-exciton system from t = 0 to T.

    Each step is the composition _WEIGHTS gives the grid's dimension
    (model_stream): Yoshida's sixth-order 7 stages in 1D and 3D, his
    fourth-order triple jump in 2D.  Each stage is a Strang step of w dt,
    a half exact 2x2 linear step for (phi_hat, psi_hat), the rotation of
    psi and a half linear step again.  Aborts with SolverBlowupError if any
    field stops being finite or a rotation angle reaches 2^52 rad.  A
    record past DEFAULT_MAX_POINTS points is a ValueError before any sample
    is taken (_check_record).
    """
    if initial.time != 0:
        raise ValueError("evolve_ep expects the initial state at time 0")
    grid = initial.phi.grid
    _check_record(grid, 2, step, T, record)
    stream = model_stream(EP, grid, params, step, T, grid.fft(initial.phi.values),
                          grid.fft(initial.psi.values))
    return _record(stream, grid, params, record)


def evolve_nls(phi0, params, step, T, record=FULL):
    """Integrate i phi_t = -Laplace phi + g |phi|^(p-1) phi from t = 0 to T.

    Each step is Yoshida's sixth-order 7-stage step (model_stream): Strang
    steps of w3 dt, w2 dt, w1 dt, w0 dt, w1 dt, w2 dt, w3 dt, each a half
    exact spectral free step, the rotation of phi and a half free step
    again.  Aborts with
    SolverBlowupError if the field stops being finite or a rotation angle
    reaches 2^52 rad.  A record past DEFAULT_MAX_POINTS points is a
    ValueError before any sample is taken (_check_record).
    """
    grid = phi0.grid
    _check_record(grid, 1, step, T, record)
    stream = model_stream(NLS, grid, params, step, T, grid.fft(phi0.values))
    return _record(stream, grid, params, record)


# --------------------------------------------------------------------------
# linear comparators (closed form, no stepping error)


def evolve_linear_b(initial, params, sample_times, record=FULL):
    """Exact solution of the fully linear coupled system (g = 0).

    Evaluates the per-mode 2x2 matrix exponential at each given time,
    measured from ``initial.time``; the times may be arbitrary, none before
    initial.time (_given_times).
    """
    times = _given_times(sample_times, initial.time)

    grid = initial.phi.grid
    phi0_hat = grid.fft(initial.phi.values)
    psi0_hat = grid.fft(initial.psi.values)

    def spectra(t):
        u = linear_pair_propagator(grid, params.gamma, params.omega0, t - initial.time)
        return _pair_map(u, phi0_hat, psi0_hat)

    return _record(((t, spectra(t)) for t in times), grid, params, record)


_RESONANCE_GAP = 1e-8


def evolve_system_a(phi0, params, sample_times, record=FULL):
    """Exact solution of the early-time approximation: phi propagates
    freely, the exciton starts at zero and is driven linearly,

        psi_hat_k(t) = -i gamma e^{-i omega0 t}
                       (e^{i (omega0 - |k|^2) t} - 1) / (i (omega0 - |k|^2))
                       phi_hat_k(0),

    with a 3-term series in (omega0 - |k|^2) t through each resonant mode
    |k|^2 = omega0, at each given time t >= 0 (_given_times).
    """
    times = _given_times(sample_times)

    grid = phi0.grid
    phi0_hat = grid.fft(phi0.values)
    spectra = lambda t: [m * phi0_hat for m in system_a_symbols(grid, params, t)]
    return _record(((t, spectra(t)) for t in times), grid, params, record)


def system_a_symbols(grid, params, t):
    """Per-mode multipliers (A_phi, A_psi) taking phi_hat(0) to the
    system-A photon and exciton spectra at time t (exciton starting at 0)."""
    return tuple(grid.gather(_system_a_of(grid.k_levels, params, t)))


def _system_a_of(k_sq, params, t):
    # system_a_symbols on an array of |k|^2 values
    gap = params.omega0 - k_sq
    resonant = np.abs(gap) < _RESONANCE_GAP
    gap_safe = np.where(resonant, 1.0, gap)
    theta = gap * t
    ramp = np.where(
        resonant,
        t * (1.0 + 0.5j * theta - theta**2 / 6.0),
        (_unit_phase(-0.5 * gap_safe * t) - 1.0) / (1j * gap_safe),
    )
    a_psi = -1j * params.gamma * _unit_phase(0.5 * params.omega0 * t) * ramp
    return _free_symbol_of(k_sq, t), a_psi


def composite_seed(grid, params, t1):
    """Per-mode (B_phi, B_psi) = U(-t1) (A_phi(t1), A_psi(t1)), so that the
    composite's multipliers after t1 are U(t) (B_phi, B_psi): one linear
    propagator U(t) serves every t1."""
    return tuple(grid.gather(_composite_seed_of(grid.k_levels, params, t1)))


def _composite_seed_of(k_sq, params, t1):
    # composite_seed on an array of |k|^2 values
    back = _pair_propagator_of(k_sq, params.gamma, params.omega0, -t1)
    return _pair_map(back, *_system_a_of(k_sq, params, t1))


def evolve_composite_tilde(phi0, params, C1, epsilon, sample_times, record=FULL):
    """Comparator that follows system A on [0, t1] and system B after,
    with t1 = C1 * sqrt(epsilon) and the A-state at t1 handed to B
    exactly (the fields are continuous across t1 by construction), at each
    given time t >= 0 (_given_times), the last not before t1.  C1 = 0
    degenerates to pure system B from (phi0, 0)."""
    if C1 < 0 or epsilon < 0:
        raise ValueError("C1 and epsilon must be nonnegative")
    t1 = C1 * np.sqrt(epsilon)
    times = _given_times(sample_times)
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

    return _record(((t, spectra(t)) for t in times), grid, params, record)


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

