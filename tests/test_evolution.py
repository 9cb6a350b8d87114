import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

import epnls.evolution
from epnls.grid import (
    EvenGrid,
    Field,
    free_propagate,
    free_symbol,
    gaussian_initial,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from epnls.evolution import (
    EP,
    NLS,
    EPState,
    ErrorCurve,
    ModelParams,
    SolverBlowupError,
    StepSpec,
    Trajectory,
    composite_seed,
    evolve_composite_tilde,
    evolve_ep,
    evolve_linear_b,
    evolve_nls,
    evolve_system_a,
    jump,
    linear_pair_propagator,
    model_stream,
    nonlinear_phase,
    relative_error_curve,
    sample_times,
    system_a_symbols,
    zero_state,
)

GRID = make_grid(1, 256, 10.0)
GRID_2D = make_grid(2, 16, 10.0)
PARAMS = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
# a coarse clock for the comparators' sample times: they have no default
CLOCK = StepSpec(dt=2e-2)
# the rotation weights of the composed steps, written out: 2D EP's triple
# jump, and the sixth-order w3, w2, w1, w0, w1, w2, w3 of NLS and of EP in
# 1D and 3D
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
TRIPLE_JUMP = (W1, 1.0 - 2.0 * W1, W1)
_OUTER = (0.784513610477560, 0.235573213359357, -1.17767998417887)
SIXTH_ORDER = _OUTER + (1.0 - 2.0 * sum(_OUTER),) + _OUTER[::-1]


def gauss_state(amplitude=1.0):
    return zero_state(gaussian_initial(GRID, amplitude))


def hs_diff(a, b, s=1.0):
    return sobolev_norm(Field(a.grid, a.values - b.values), s)


# ---------------------------------------------------------------- types


def test_model_params_validation():
    with pytest.raises(ValueError, match="p"):
        ModelParams(p=1.0)
    with pytest.raises(ValueError, match="gamma"):
        ModelParams(gamma=-0.1)
    for name in ("g", "gamma", "omega0", "p", "s"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                ModelParams(**{name: value})


def test_model_params_default_s_follows_dimension():
    assert ModelParams().resolve_s(make_grid(1, 16, 5.0)) == 1.0
    assert ModelParams().resolve_s(make_grid(2, 16, 5.0)) == 2.0
    assert ModelParams(s=0.0).resolve_s(GRID) == 0.0


def test_ep_state_grid_mismatch():
    # another N, or the even subspace of the same (n, N, L)
    for other in (make_grid(1, 128, 10.0), EvenGrid(1, GRID.N, GRID.L)):
        with pytest.raises(ValueError, match="phi and psi must share one grid"):
            EPState(gaussian_initial(other, 1.0), gaussian_initial(GRID, 1.0))


def test_step_spec_validation():
    # the clock is dt alone: every sample is one composed step of dt
    assert [f.name for f in dataclasses.fields(StepSpec)] == ["dt"]
    assert StepSpec(dt=-1e-3).dt == -1e-3  # stepping back
    assert StepSpec(dt=3e-3).dt == 3e-3  # no cadence for it to divide
    # no default clock: each model's is in sweep._MODEL_DEFAULTS alone
    with pytest.raises(TypeError):
        StepSpec()


@pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -np.inf])
def test_step_spec_refuses_a_bad_dt_by_name(dt):
    with pytest.raises(ValueError, match=f"^dt must be finite and nonzero, got {dt}$"):
        StepSpec(dt=dt)


def test_trajectory_times_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(times=np.array([0.0, 0.5, 0.5]), policy="norms", s=1.0)


# ---------------------------------------------------------------- substeps


def test_nonlinear_phase_preserves_magnitude():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    for p in (1.5, 3.0, 5.0):
        out = nonlinear_phase(vals, g=2.3, p=p, dt=0.17)
        assert np.max(np.abs(np.abs(out) - np.abs(vals))) <= 1e-14 * np.max(
            np.abs(vals)
        )


@pytest.mark.parametrize("g, p, dt", [
    (2.3, 3.0, 0.17),
    (1.0, 5.0, 0.03),
    (0.8, 2.5, 0.3),
    (-1.7, 3.0, 0.2),
    (1.0, 3.0, -0.25),
    (1.0, 3.0, 10.0 / 16.0),  # angles up to 10 rad
])
def test_nonlinear_phase_is_the_exact_rotation(g, p, dt):
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.05, 2.0, 512) * np.exp(2j * np.pi * rng.uniform(size=512))
    vals[:2] = [4.0, -4.0j]  # |u| = 4: at p = 3 the last case turns by 10 rad
    mag = np.abs(vals)
    theta = (g * dt) * mag ** (p - 1.0)
    exact = vals * np.exp(-1j * theta)
    out = nonlinear_phase(vals, g=g, p=p, dt=dt)
    assert np.max(np.abs(out - exact) / mag) <= 1e-15
    assert np.max(np.abs(np.abs(out) - mag) / mag) <= 1e-15
    # the way back sees |u| rounded by ~1e-16, which turns it by up to
    # (p-1) |theta| times that: the flow's own conditioning, not the kernel's
    back = nonlinear_phase(out, g=g, p=p, dt=-dt)
    allowed = 1e-15 * np.maximum(1.0, (p - 1.0) * np.abs(theta))
    assert np.all(np.abs(back - vals) / mag <= allowed)


def test_zero_coupling_rotation_is_the_identity_at_any_amplitude():
    vals = np.array([1e-300, 1.0, 1e160, 1e300 + 1e300j])
    assert np.array_equal(nonlinear_phase(vals, g=0.0, p=3.0, dt=0.1), vals)


def test_mass_drift_stays_finite_where_the_mass_overflows():
    # g = 0 is linear, so an amplitude of 2^600 scales every norm exactly:
    # the mass overflows to inf, and its drift is bitwise that at amplitude 1,
    # which is the unscaled formula's
    params = ModelParams(g=0.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
    step = StepSpec(dt=1e-2)
    unit = evolve_ep(gauss_state(), params, step, 0.5, record="norms")
    huge = evolve_ep(gauss_state(2.0**600), params, step, 0.5, record="norms")
    assert np.all(huge.mass == np.inf) and np.all(np.isfinite(huge.l2))
    assert np.array_equal(huge.l2, np.ldexp(unit.l2, 600))
    formula = np.max(np.abs(unit.mass - unit.mass[0])) / unit.mass[0]
    assert huge.mass_drift() == unit.mass_drift() == formula
    assert 0 < formula <= 1e-13


def test_linear_pair_propagator_unitary_per_mode():
    for t in (0.01, 0.5, -0.3, 2.0):
        u11, u12, u22 = linear_pair_propagator(GRID, gamma=1.3, omega0=0.7, t=t)
        row1 = np.abs(u11) ** 2 + np.abs(u12) ** 2
        row2 = np.abs(u12) ** 2 + np.abs(u22) ** 2
        cross = u11 * np.conj(u12) + u12 * np.conj(u22)
        assert np.max(np.abs(row1 - 1)) < 1e-13
        assert np.max(np.abs(row2 - 1)) < 1e-13
        assert np.max(np.abs(cross)) < 1e-13


# Each public symbol is evaluated on the grid's |k|^2 levels and gathered;
# these are the formulas evaluated directly on the full lattice, the
# reference the gathered symbols must equal bitwise.


def tangent_phase(angle):
    """exp(-i angle) as (1 - i tau)^2 / (1 + tau^2), tau = tan(angle / 2)."""
    tau = np.tan(0.5 * angle)
    denom = tau * tau + 1.0
    return (1.0 - tau * tau) / denom + 1j * (-2.0 * tau / denom)


def direct_pair_propagator(grid, gamma, omega0, t):
    a = grid.k_squared
    mu = 0.5 * (a + omega0)
    d = 0.5 * (a - omega0)
    big_omega = np.sqrt(d * d + gamma * gamma)
    phase = tangent_phase(mu * t)
    turn = tangent_phase(big_omega * t)
    cos_t = turn.real
    denom = np.where(big_omega == 0.0, 1.0, big_omega)
    sinc_t = np.where(big_omega == 0.0, t, -turn.imag / denom)
    return (phase * (cos_t - 1j * d * sinc_t), phase * (-1j * gamma * sinc_t),
            phase * (cos_t + 1j * d * sinc_t))


def direct_system_a_symbols(grid, params, t):
    gap = params.omega0 - grid.k_squared
    resonant = np.abs(gap) < 1e-8
    gap_safe = np.where(resonant, 1.0, gap)
    theta = gap * t
    ramp = np.where(
        resonant,
        t * (1.0 + 0.5j * theta - theta**2 / 6.0),
        (tangent_phase(-gap_safe * t) - 1.0) / (1j * gap_safe),
    )
    a_psi = -1j * params.gamma * tangent_phase(params.omega0 * t) * ramp
    return tangent_phase(grid.k_squared * t), a_psi


def direct_composite_seed(grid, params, t1):
    u11, u12, u22 = direct_pair_propagator(grid, params.gamma, params.omega0, -t1)
    a_phi, a_psi = direct_system_a_symbols(grid, params, t1)
    return u11 * a_phi + u12 * a_psi, u12 * a_phi + u22 * a_psi


def _symbol_cases():
    # the default coupling; omega0 on a lattice level, so that one mode is
    # exactly resonant (system A's series branch); gamma = 0 there too, so
    # that Omega = 0 at that mode (U's sinc branch)
    grids = [make_grid(1, 256, 10.0), make_grid(2, 64, 10.0), make_grid(3, 8, 10.0)]
    for grid in grids:
        level = float(grid.k_levels[3])
        for params in (ModelParams(), ModelParams(gamma=0.7, omega0=level),
                       ModelParams(gamma=0.0, omega0=level)):
            yield grid, params


@pytest.mark.parametrize("grid, params", list(_symbol_cases()),
                         ids=[f"{n}d-{c}" for n in (1, 2, 3)
                              for c in ("default", "resonant", "omega0")])
@pytest.mark.parametrize("t", [0.0, 0.37, -0.41])
def test_symbols_are_bitwise_their_full_lattice_formulas(grid, params, t):
    def equal(got, want):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    gamma, omega0 = params.gamma, params.omega0
    equal(linear_pair_propagator(grid, gamma, omega0, t),
          direct_pair_propagator(grid, gamma, omega0, t))
    equal(system_a_symbols(grid, params, t), direct_system_a_symbols(grid, params, t))
    # composite_seed takes t1 >= 0 and applies U(-t1)
    equal(composite_seed(grid, params, abs(t)), direct_composite_seed(grid, params, abs(t)))
    assert np.array_equal(free_symbol(grid, t), tangent_phase(grid.k_squared * t))


# ---------------------------------------------------------------- evolve_ep


def test_ep_g_zero_matches_linear_b():
    params = ModelParams(g=0.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
    init = gauss_state()
    traj = evolve_ep(init, params, StepSpec(dt=1e-3), 0.5)
    lin = evolve_linear_b(gauss_state(), params, sample_times=traj.times)
    for a, b in zip(traj.phi, lin.phi):
        assert hs_diff(a, b) < 1e-10
    for a, b in zip(traj.psi, lin.psi):
        assert hs_diff(a, b) < 1e-10


def test_ep_gamma_zero_decouples():
    params = ModelParams(g=1.0, gamma=0.0, omega0=1.0, p=3.0, s=1.0)
    traj = evolve_ep(gauss_state(), params, StepSpec(dt=1e-3), 0.3)
    for i, t in enumerate(traj.times):
        assert sobolev_norm(traj.psi[i], 1.0) == 0.0
        free = free_propagate(gaussian_initial(GRID, 1.0), t)
        assert hs_diff(traj.phi[i], free) < 1e-12


def test_ep_mass_conserved():
    # the drift at dt = 1e-3 is the verify battery's (acceptance criterion
    # 6); a halved-dt run reproduces the same mass to splitting accuracy
    traj = evolve_ep(gauss_state(), PARAMS, StepSpec(dt=1e-3), 1.0, record="norms")
    half = evolve_ep(gauss_state(), PARAMS, StepSpec(dt=5e-4), 1.0, record="norms")
    # every run samples every step, so the halved run's even samples are
    # the other's
    assert np.allclose(half.times[::2], traj.times, rtol=0, atol=1e-12)
    assert np.max(np.abs(half.mass[::2] - traj.mass)) / traj.mass[0] <= 1e-10


def test_ep_requires_initial_time_zero():
    st = gauss_state()
    st.time = 0.5
    with pytest.raises(ValueError, match="time 0"):
        evolve_ep(st, PARAMS, StepSpec(dt=1e-3), 0.1)


@pytest.mark.parametrize("T", [0.0, -0.1, 0.15])
def test_horizon_must_be_a_positive_multiple_of_the_interval(T):
    step = StepSpec(dt=0.1)
    with pytest.raises(ValueError, match=r"positive multiple of the step size \|dt\| = 0.1$"):
        evolve_ep(gauss_state(), PARAMS, step, T)
    with pytest.raises(ValueError, match="positive multiple"):
        evolve_nls(gaussian_initial(GRID, 1.0), PARAMS, step, T)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_detection():
    # |psi|^(p-1) overflows to inf for huge amplitudes and p = 5: the
    # first rotation's angle is inf, and the solver aborts with diagnostics
    params = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=5.0, s=1.0)
    big = Field(GRID, np.full(GRID.shape, 1e300, dtype=complex))
    with pytest.raises(SolverBlowupError, match="rotation angle inf rad") as err:
        evolve_ep(EPState(gaussian_initial(GRID, 1.0), big), params,
                  StepSpec(dt=1e-2), 0.1)
    assert err.value.step_index >= 1 and err.value.angle == np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_detection_of_non_finite_fields():
    # the linear flow has no angle to check: a transform that overflows
    # is caught at the sample, here t = 0
    params = ModelParams(g=0.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
    big = Field(GRID, np.full(GRID.shape, 1e307, dtype=complex))
    with pytest.raises(SolverBlowupError, match="non-finite field values at t = 0 "):
        evolve_nls(big, params, StepSpec(dt=1e-2), 0.1)


@pytest.mark.parametrize("margin", [0.99, 1.01])
def test_rotation_angles_past_2_to_52_are_a_blowup(margin):
    # a uniform field keeps |u| = a under the free flow, so every rotation
    # of weight w turns it by |w| dt a^2; NLS's largest weight is its middle
    # one, w0 = 1 - 2 (w1 + w2 + w3) = 1.315.  One ulp of an angle past
    # 2^52 rad exceeds 1 rad
    step = StepSpec(dt=1e-2)
    w0 = SIXTH_ORDER[3]
    assert abs(w0) == max(map(abs, SIXTH_ORDER))
    a = np.sqrt(margin * 2.0**52 / (abs(w0) * step.dt))
    uniform = Field(GRID, np.full(GRID.shape, a, dtype=complex))
    if margin < 1:
        traj = evolve_nls(uniform, PARAMS, step, 0.2, record="norms")
        assert traj.mass_drift() <= 1e-12
        return
    with pytest.raises(SolverBlowupError, match="in the sample interval from t = 0 ") as err:
        evolve_nls(uniform, PARAMS, step, 0.2)
    assert 2.0**52 <= err.value.angle <= 1.02 * 2.0**52


# ---------------------------------------------------------------- linear B


def test_linear_b_gamma_zero_diagonal():
    params = ModelParams(g=0.0, gamma=0.0, omega0=1.3, p=3.0, s=1.0)
    rng = np.random.default_rng(3)
    phi = Field(GRID, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    psi = Field(GRID, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    t = 0.6
    traj = evolve_linear_b(EPState(phi, psi), params, sample_times=[t])
    # random data carries spectral content up to |k| ~ 40, where the H^1
    # weight amplifies eps-level phase rounding; 1e-10 is the operation's
    # accuracy bar against the dense-expm oracle
    assert hs_diff(traj.phi[0], free_propagate(phi, t)) < 1e-10
    expected_psi = Field(GRID, np.exp(-1j * params.omega0 * t) * psi.values)
    assert hs_diff(traj.psi[0], expected_psi) < 1e-10


def test_linear_b_resonant_mode_hand_eigendecomposition():
    # on [-pi, pi) the mode k = 1 has |k|^2 = omega0 = 1: equal mixing with
    # eigenvalues omega0 +/- gamma, so the photon amplitude is
    # e^{-i t} cos(gamma t) and the exciton -i e^{-i t} sin(gamma t)
    grid = make_grid(1, 32, np.pi)
    params = ModelParams(g=0.0, gamma=0.8, omega0=1.0, p=3.0, s=1.0)
    mode = Field(grid, np.exp(1j * grid.axis_x))
    t = 0.9
    traj = evolve_linear_b(zero_state(mode), params, sample_times=[t])
    expect_phi = np.exp(-1j * t) * np.cos(params.gamma * t) * mode.values
    expect_psi = -1j * np.exp(-1j * t) * np.sin(params.gamma * t) * mode.values
    assert np.max(np.abs(traj.phi[0].values - expect_phi)) < 1e-12
    assert np.max(np.abs(traj.psi[0].values - expect_psi)) < 1e-12


def test_linear_b_matches_dense_expm_oracle():
    grid = make_grid(1, 32, 5.0)
    params = ModelParams(g=0.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
    rng = np.random.default_rng(42)
    phi = Field(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    psi = Field(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    t = 0.7
    traj = evolve_linear_b(EPState(phi, psi), params, sample_times=[t])
    phi_hat = np.fft.fft(phi.values)
    psi_hat = np.fft.fft(psi.values)
    phi_out = np.empty(32, complex)
    psi_out = np.empty(32, complex)
    for m in range(32):
        h = np.array(
            [[grid.k_squared[m], params.gamma], [params.gamma, params.omega0]]
        )
        vec = expm(-1j * t * h) @ np.array([phi_hat[m], psi_hat[m]])
        phi_out[m], psi_out[m] = vec
    phi_out = np.fft.ifft(phi_out)
    psi_out = np.fft.ifft(psi_out)
    scale = np.max(np.abs(phi_out))
    assert np.max(np.abs(traj.phi[0].values - phi_out)) / scale < 1e-10
    assert np.max(np.abs(traj.psi[0].values - psi_out)) / scale < 1e-10


def test_linear_b_preserves_combined_weighted_norm():
    traj = evolve_linear_b(gauss_state(), PARAMS, sample_times(1.0, CLOCK))
    combined = np.sqrt(traj.norm_phi**2 + traj.norm_psi**2)
    assert np.max(np.abs(combined - combined[0])) / combined[0] < 1e-12


# ---------------------------------------------------------------- system A


def test_system_a_t0():
    traj = evolve_system_a(gaussian_initial(GRID, 0.3), PARAMS, sample_times=[0.0])
    # phi passes through one transform roundtrip, hence the eps-level slack
    assert hs_diff(traj.phi[0], gaussian_initial(GRID, 0.3)) < 1e-13
    assert sobolev_norm(traj.psi[0], 1.0) == 0.0


def test_system_a_resonant_mode_linear_growth():
    grid = make_grid(1, 32, np.pi)
    params = ModelParams(g=1.0, gamma=0.7, omega0=1.0, p=3.0, s=1.0)
    mode = Field(grid, np.exp(1j * grid.axis_x))  # |k|^2 == omega0
    for t in (0.2, 1.0, 3.0):
        traj = evolve_system_a(mode, params, sample_times=[t])
        amp = np.max(np.abs(traj.psi[0].values))
        assert amp == pytest.approx(params.gamma * t, rel=1e-12)


def test_system_a_small_time_growth_rate():
    t = 1e-3
    traj = evolve_system_a(gaussian_initial(GRID, 1.0), PARAMS, sample_times=[t])
    m = sobolev_norm(gaussian_initial(GRID, 1.0), 1.0)
    ratio = sobolev_norm(traj.psi[0], 1.0) / (PARAMS.gamma * m * t)
    assert abs(ratio - 1.0) <= 1e-5


def test_system_a_matches_duhamel_quadrature_oracle():
    # Gauss-Legendre quadrature of the driven-exciton integral per mode
    t = 0.3
    phi0 = gaussian_initial(GRID, 1.0)
    traj = evolve_system_a(phi0, PARAMS, sample_times=[t])
    nodes, weights = np.polynomial.legendre.leggauss(60)
    taus = 0.5 * t * (nodes + 1)
    ws = 0.5 * t * weights
    integral = np.zeros(GRID.shape, complex)
    for tau, w in zip(taus, ws):
        integral += w * np.exp(-1j * PARAMS.omega0 * (t - tau)) * np.exp(
            -1j * GRID.k_squared * tau
        )
    psi_oracle = np.fft.ifftn(
        -1j * PARAMS.gamma * integral * np.fft.fftn(phi0.values)
    )
    assert np.max(np.abs(traj.psi[0].values - psi_oracle)) < 1e-12


# ---------------------------------------------------------------- composite


def test_composite_c1_zero_equals_linear_b():
    phi0 = gaussian_initial(GRID, 0.5)
    times = np.linspace(0.0, 1.0, 11)
    comp = evolve_composite_tilde(phi0, PARAMS, C1=0.0, epsilon=0.01,
                                  sample_times=times)
    lin = evolve_linear_b(zero_state(phi0), PARAMS, sample_times=times)
    for a, b in zip(comp.phi, lin.phi):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(comp.psi, lin.psi):
        assert np.array_equal(a.values, b.values)


def test_composite_gamma_zero_is_free_propagation():
    params = ModelParams(g=1.0, gamma=0.0, omega0=1.0, p=3.0, s=1.0)
    phi0 = gaussian_initial(GRID, 1.0)
    times = np.linspace(0.0, 1.0, 6)
    comp = evolve_composite_tilde(phi0, params, C1=2.0, epsilon=0.04,
                                  sample_times=times)
    for i, t in enumerate(times):
        assert hs_diff(comp.phi[i], free_propagate(phi0, t)) < 1e-12
        assert sobolev_norm(comp.psi[i], 1.0) < 1e-14


def test_composite_handoff_continuity():
    phi0 = gaussian_initial(GRID, 1.0)
    c1, eps = 1.0, 0.04
    t1 = c1 * np.sqrt(eps)  # 0.2
    times = np.array([0.0, 0.1, t1, t1 + 1e-8, 0.5])
    comp = evolve_composite_tilde(phi0, PARAMS, C1=c1, epsilon=eps,
                                  sample_times=times)
    at_t1 = evolve_system_a(phi0, PARAMS, sample_times=[t1])
    # the sample at t1 comes from system A bitwise
    assert np.array_equal(comp.phi[2].values, at_t1.phi[0].values)
    assert np.array_equal(comp.psi[2].values, at_t1.psi[0].values)
    # and system B continues continuously from it
    assert hs_diff(comp.phi[3], comp.phi[2]) < 1e-6
    assert hs_diff(comp.psi[3], comp.psi[2]) < 1e-6
    # after t1 it is system B started from the recorded system-A state
    late = times[times > t1]
    handoff = evolve_linear_b(EPState(at_t1.phi[0], at_t1.psi[0], time=t1),
                              PARAMS, sample_times=late)
    for i in range(len(late)):
        assert hs_diff(comp.phi[3 + i], handoff.phi[i]) < 1e-13
        assert hs_diff(comp.psi[3 + i], handoff.psi[i]) < 1e-13


def test_composite_t1_beyond_horizon():
    with pytest.raises(ValueError, match="horizon"):
        evolve_composite_tilde(gaussian_initial(GRID, 1.0), PARAMS, C1=10.0, epsilon=1.0,
                               sample_times=sample_times(1.0, CLOCK))


_COMPARATORS = {
    "linear-b": lambda times: evolve_linear_b(gauss_state(), PARAMS, sample_times=times),
    "system-a": lambda times: evolve_system_a(gaussian_initial(GRID, 1.0), PARAMS,
                                              sample_times=times),
    "composite": lambda times: evolve_composite_tilde(gaussian_initial(GRID, 1.0), PARAMS,
                                                      C1=0.0, epsilon=0.01,
                                                      sample_times=times),
}


@pytest.mark.parametrize("name", list(_COMPARATORS))
@pytest.mark.parametrize("times, cause", [
    ([], "nonempty 1D"),
    ([[0.0, 0.1], [0.2, 0.3]], "nonempty 1D"),
    ([0.0, np.nan], "finite"),
    ([0.0, np.inf], "finite"),
    ([0.0, 0.2, 0.1], "strictly increasing"),
    ([0.0, 0.1, 0.1], "strictly increasing"),
    ([-0.1, 0.1], "precede the start time 0"),
], ids=["empty", "2d", "nan", "inf", "decreasing", "repeated", "before-start"])
def test_comparators_refuse_bad_times_by_name(monkeypatch, name, times, cause):
    # each is a ValueError naming sample_times, raised before any transform
    def no_transform(*args, **kwargs):
        raise AssertionError("a transform ran before the times were checked")

    monkeypatch.setattr(type(GRID), "fft", no_transform)
    with pytest.raises(ValueError, match=f"^sample_times .*{cause}"):
        _COMPARATORS[name](times)


def test_composite_takes_explicit_times_without_T():
    # like its sibling comparators, by keyword or position; t1 is checked
    # against the last time
    phi0 = gaussian_initial(GRID, 1.0)
    times = np.linspace(0.0, 1.0, 6)
    comp = evolve_composite_tilde(phi0, PARAMS, C1=1.0, epsilon=0.04,
                                  sample_times=times, record="norms")
    positional = evolve_composite_tilde(phi0, PARAMS, 1.0, 0.04, times, record="norms")
    assert np.array_equal(comp.times, times)
    assert np.array_equal(comp.norm_phi, positional.norm_phi)
    with pytest.raises(ValueError, match="horizon"):
        evolve_composite_tilde(phi0, PARAMS, C1=1.0, epsilon=0.04,
                               sample_times=[0.0, 0.1])


def test_linear_norms_come_from_the_spectra(fft_calls):
    times = np.linspace(0.0, 1.0, 11)
    full = evolve_linear_b(gauss_state(), PARAMS, sample_times=times)
    fft_calls.clear()
    norms = evolve_linear_b(gauss_state(), PARAMS, sample_times=times,
                            record="norms")
    assert len(fft_calls) == 2  # the two initial spectra, nothing per sample
    assert norms.phi is None
    for i in range(len(times)):
        phi, psi = full.phi[i], full.psi[i]
        assert norms.norm_phi[i] == pytest.approx(sobolev_norm(phi, 1.0), rel=1e-13)
        assert norms.norm_psi[i] == pytest.approx(sobolev_norm(psi, 1.0), abs=1e-13)
        physical = l2_norm(phi) ** 2 + l2_norm(psi) ** 2
        assert norms.mass[i] == pytest.approx(physical, rel=1e-13)


def test_nls_records_norms_without_extra_transforms(fft_calls):
    traj = evolve_nls(gaussian_initial(GRID, 1.0), PARAMS, StepSpec(dt=1e-3), 0.1,
                      record="norms")
    assert len(traj.times) == 101
    # the initial spectrum, then 2 per rotation, 7 per sixth-order step
    assert fft_calls == [256] * (1 + 7 * 2 * 100)


def test_ep_records_norms_transforming_psi_only(fft_calls):
    traj = evolve_ep(gauss_state(), PARAMS, StepSpec(dt=1e-3), 0.1, record="norms")
    assert len(traj.times) == 101
    # the initial spectra of phi and psi, then psi alone, 2 per rotation
    # (7 per sixth-order step in 1D) and none per sample: every sample is
    # spectral, and phi_hat never leaves spectral space
    assert fft_calls == [256] * (2 + 7 * 2 * 100)


# ---------------------------------------------------------------- kernel
# frozen copies of the loops the split-step kernel replaced, each here
# running unmerged Strang steps flow(h/2), rotation(h), flow(h/2) of its
# model's weights: the stacked EP loop (both fields through every
# transform) on Yoshida's 7-stage sixth-order "solution A" in 1D and 3D
# and on his triple jump in 2D, and the NLS loop on the 7 stages (Yoshida
# 1990, Phys. Lett. A 150:262)


def frozen_ep_samples(fields, params, dt, n_samples, grid, steps=1):
    axes = tuple(range(-grid.n, 0))
    g, p = params.g, params.p
    jumps = [w * dt for w in (TRIPLE_JUMP if grid.n == 2 else SIXTH_ORDER)]
    halves = [linear_pair_propagator(grid, params.gamma, params.omega0, 0.5 * h)
              for h in jumps]

    def flow(hat, u11, u12, u22):
        return np.stack([u11 * hat[0] + u12 * hat[1], u12 * hat[0] + u22 * hat[1]])

    hat = np.fft.fftn(np.array(fields, dtype=np.complex128), axes=axes)
    for block in range(n_samples):
        for _ in range(steps):
            for h, half in zip(jumps, halves):
                fields = np.fft.ifftn(flow(hat, *half), axes=axes)
                fields[1] = nonlinear_phase(fields[1], g, p, h)
                hat = flow(np.fft.fftn(fields, axes=axes), *half)
        yield (block + 1) * steps * dt, hat


def frozen_nls_samples(phi_hat, params, dt, n_samples, grid):
    axes = tuple(range(-grid.n, 0))
    jumps = [w * dt for w in SIXTH_ORDER]
    halves = [free_symbol(grid, 0.5 * h) for h in jumps]
    hat = np.array(phi_hat, dtype=np.complex128)
    for block in range(n_samples):
        for h, half in zip(jumps, halves):
            hat = hat * half
            phi = nonlinear_phase(np.fft.ifftn(hat, axes=axes), params.g, params.p, h)
            hat = np.fft.fftn(phi, axes=axes) * half
        yield (block + 1) * dt, hat


@pytest.mark.parametrize("grid", [GRID, make_grid(2, 32, 8.0)], ids=["1d", "2d"])
def test_ep_kernel_matches_the_stacked_loop(grid):
    # 200 composed steps, chained ten at a time by jump (count = 10),
    # which merges the half flows of neighbouring jumps, as a re-step of
    # several jumps does; a batch of two amplitudes
    dt = 1e-3
    axes = tuple(range(-grid.n, 0))
    phi0 = np.stack([gaussian_initial(grid, d).values for d in (1.0, 0.6)])
    psi0 = 0.3j * phi0[::-1]
    old = frozen_ep_samples([phi0, psi0], PARAMS, dt, 20, grid, steps=10)
    spectra = [np.fft.fftn(f, axes=axes) for f in (phi0, psi0)]
    for _, hat_old in old:
        jump(EP, grid, PARAMS, spectra, np.full(2, 10 * dt), count=10)
        for hat, field_old in zip(spectra, hat_old, strict=True):
            assert np.max(np.abs(hat - field_old)) <= 1e-12 * np.max(np.abs(field_old))


@pytest.mark.parametrize("drop_at, keep_rows", [
    (0, [True, False, True]), (2, [True, False, True]), (0, [0, 2]), (2, [0, 2]),
], ids=["0", "2", "0-rows", "2-rows"])
def test_kernel_streams_from_t0_and_drops_rows_at_any_sample(drop_at, keep_rows):
    # the samples are at sample_times, t = 0 first; rows dropped at a
    # sample, the first included, by a boolean mask or by the row indices
    # the sweep sends, leave the survivors' bits unchanged
    step = StepSpec(dt=1e-2)
    phi0 = np.stack([gaussian_initial(GRID, d).values for d in (1.0, 0.6, 0.3)])
    kept = np.array(keep_rows)

    def samples(drop):
        stream = model_stream(EP, GRID, PARAMS, step, 0.04, np.fft.fftn(phi0, axes=(-1,)))
        keep, out = None, []
        for t, (phi_hat, psi_hat) in iter(lambda: stream.send(keep), None):
            out.append((t, phi_hat.copy(), psi_hat.copy()))
            keep = kept if len(out) - 1 == drop else None
        return out

    full, cut = samples(None), samples(drop_at)
    assert [t for t, _, _ in cut] == list(sample_times(0.04, step))
    for b, ((t, phi_hat, psi), (_, phi_cut, psi_cut)) in enumerate(zip(full, cut)):
        rows = kept if b > drop_at else slice(None)
        assert np.array_equal(phi_hat[rows], phi_cut)
        assert np.array_equal(psi[rows], psi_cut)


@pytest.mark.parametrize("grid, dt", [
    (GRID, 1e-3), (GRID, 8e-3), (make_grid(2, 32, 8.0), 1e-3),
], ids=["1d", "1d-default-clock", "2d"])
def test_nls_kernel_matches_the_stacked_loop(grid, dt):
    # 20 samples of one sixth-order step each; a batch of three amplitudes
    step = StepSpec(dt=dt)
    phi0 = np.stack([gaussian_initial(grid, d).values for d in (1.0, 0.5, 0.1)])
    phi0_hat = np.fft.fftn(phi0, axes=tuple(range(-grid.n, 0)))
    old = frozen_nls_samples(phi0_hat, PARAMS, dt, 20, grid)
    new = model_stream(NLS, grid, PARAMS, step, 20 * dt, phi0_hat.copy())
    t0, (hat0,) = next(new)
    assert t0 == 0.0 and np.array_equal(hat0, phi0_hat)
    for (t_old, hat_old), (t_new, (hat,)) in zip(old, new):
        assert t_new == t_old
        assert np.max(np.abs(hat - hat_old)) <= 1e-12 * np.max(np.abs(hat_old))
    assert t_new == pytest.approx(20 * dt)


@pytest.mark.parametrize("model", [EP, NLS])
def test_model_stream_yields_the_photon_spectrum_at_every_sample(model):
    # the sweep reads the truth off spectra[0] at every sample, t = 0
    # included: it is the photon field's plain FFT, for EP from psi = 0
    step = StepSpec(dt=4e-3)
    phi0 = np.stack([gaussian_initial(GRID, d).values for d in (1.0, 0.5)])
    phi0_hat = np.fft.fft(phi0)
    if model == EP:
        old = [hat[0] for _, hat in
               frozen_ep_samples([phi0, np.zeros_like(phi0)], PARAMS, step.dt, 10, GRID)]
    else:
        old = [hat for _, hat in frozen_nls_samples(phi0_hat, PARAMS, step.dt, 10, GRID)]
    stream = model_stream(model, GRID, PARAMS, step, 0.04, phi0_hat.copy())
    hats = [spectra[0].copy() for _, spectra in stream]
    assert np.array_equal(hats[0], phi0_hat)
    for hat, hat_old in zip(hats[1:], old, strict=True):
        assert np.max(np.abs(hat - hat_old)) <= 1e-12 * np.max(np.abs(hat_old))


@pytest.mark.parametrize("model", [EP, NLS])
def test_model_stream_yields_the_sample_times_it_is_given(model):
    # at T = 0.58, 18 of the 30 index * interval differ in their last bits
    # from a running sum of intervals: the stream yields sample_times of
    # its T and step itself, bitwise, and closing it early keeps a prefix
    step = CLOCK
    times = sample_times(0.58, step)
    phi0_hat = np.fft.fft(gaussian_initial(GRID, 0.5).values)
    stream = model_stream(model, GRID, PARAMS, step, 0.58, phi0_hat.copy())
    assert np.array([t for t, _ in stream]).tobytes() == times.tobytes()
    prefix = model_stream(model, GRID, PARAMS, step, 0.58, phi0_hat.copy())
    assert [next(prefix)[0] for _ in range(3)] == list(times[:3])
    prefix.close()
    assert next(prefix, None) is None


@pytest.mark.parametrize("failure", ["angle", "non-finite"])
def test_blowup_mid_step_reports_the_steps_taken(monkeypatch, failure):
    # a failure in the middle rotation of composed step j, the one of the
    # sample interval from times[j - 1], with 7 stages per step (1D) and
    # the triple jump's 3 (2D EP): an angle reports j and that interval's
    # start, a non-finite field the j steps taken by the sample it spoils,
    # and that sample's time
    step = StepSpec(dt=5e-3)
    times = sample_times(0.2, step)
    rotate = epnls.evolution._rotate
    for model, grid, stages in [(EP, GRID, 7), (EP, GRID_2D, 3), (NLS, GRID, 7)]:
        calls = []
        target = stages * 10 + stages // 2  # the middle rotation of step 11

        def failing(values, g, p, dt):
            calls.append(dt)
            angle = rotate(values, g, p, dt)
            if len(calls) - 1 == target:
                if failure == "angle":
                    return 2.0**52
                values[...] = np.nan
            return angle

        monkeypatch.setattr(epnls.evolution, "_rotate", failing)
        phi0_hat = grid.fft(gaussian_initial(grid, 0.5).values)
        with pytest.raises(SolverBlowupError) as err:
            for _ in model_stream(model, grid, PARAMS, step, 0.2, phi0_hat):
                pass
        assert err.value.step_index == 11
        assert err.value.time == (times[10] if failure == "angle" else times[11])


@pytest.mark.parametrize("record", ["full", "norms"])
@pytest.mark.parametrize("model", [EP, NLS])
def test_a_record_past_the_memory_cap_is_refused_by_arithmetic(monkeypatch, model, record):
    # 2e9 + 1 samples: refused before any time or state is built, so a
    # clock that would be built fails the test at once instead of hanging
    def no_clock(*args, **kwargs):
        raise AssertionError("the clock was built")

    monkeypatch.setattr(epnls.evolution, "sample_times", no_clock)
    run = evolve_ep if model == EP else evolve_nls
    start = gauss_state() if model == EP else gaussian_initial(GRID, 1.0)
    points = ((2 if model == EP else 1) * GRID.N if record == "full" else 1) * 2000000001
    with pytest.raises(ValueError, match=f"^a '{record}' record of 2000000001 samples at "
                                         f"dt = 1e-09 to T = 2 holds {points} points, which "
                                         "exceeds the memory cap of 16777216 points$"):
        run(start, PARAMS, StepSpec(dt=1e-9), 2.0, record=record)


# ---------------------------------------------------------------- NLS


def test_nls_g_zero_is_free_propagation():
    params = ModelParams(g=0.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
    phi0 = gaussian_initial(GRID, 1.0)
    traj = evolve_nls(phi0, params, StepSpec(dt=1e-3), 0.5)
    for i, t in enumerate(traj.times):
        assert hs_diff(traj.phi[i], free_propagate(phi0, t)) < 1e-12


def test_nls_mass_conserved():
    phi0 = gaussian_initial(GRID, 1.0)
    traj = evolve_nls(phi0, PARAMS, StepSpec(dt=1e-3), 1.0, record="norms")
    assert traj.mass_drift() <= 1e-10


def test_nls_fourth_order_in_dt(monkeypatch):
    # the order follows the weights table: with the triple jump of its 2D
    # EP row in place of its own weights, NLS is fourth order, halving dt
    # dividing the step error by 2^4, as both substeps are exact flows
    monkeypatch.setitem(epnls.evolution._WEIGHTS, (NLS, 1), epnls.evolution._WEIGHTS[EP, 2])
    phi0 = gaussian_initial(GRID, 1.0)
    T = 0.2
    outs = {}
    for dt in (2e-2, 1e-2, 5e-3):
        outs[dt] = evolve_nls(phi0, PARAMS, StepSpec(dt=dt), T).phi[-1].values
    err1 = np.max(np.abs(outs[2e-2] - outs[1e-2]))
    err2 = np.max(np.abs(outs[1e-2] - outs[5e-3]))
    assert 16.0 / 1.5 <= err1 / err2 <= 16.0 * 1.5


def test_nls_sixth_order_in_dt():
    # the 7-stage step: halving dt divides the step error by 2^6; the
    # differences, 4.8e-10 and 7.5e-12, lie far above rounding
    phi0 = gaussian_initial(GRID, 1.0)
    T = 0.2
    outs = {}
    for dt in (2e-2, 1e-2, 5e-3):
        outs[dt] = evolve_nls(phi0, PARAMS, StepSpec(dt=dt), T).phi[-1].values
    err1 = np.max(np.abs(outs[2e-2] - outs[1e-2]))
    err2 = np.max(np.abs(outs[1e-2] - outs[5e-3]))
    assert 64.0 / 1.5 <= err1 / err2 <= 64.0 * 1.5


def _ep_error_ratio(grid, dts, T=0.2):
    """The step error's ratio between the EP runs of dts[0] and dts[1] and
    those of dts[1] and dts[2], each dt half the one before: 2^q for a
    composition of order q."""
    outs = []
    for dt in dts:
        final = evolve_ep(zero_state(gaussian_initial(grid, 1.0)), PARAMS, StepSpec(dt=dt),
                          T).final_state()
        outs.append(np.concatenate([final.phi.values.ravel(), final.psi.values.ravel()]))
    return np.max(np.abs(outs[0] - outs[1])) / np.max(np.abs(outs[1] - outs[2]))


def test_ep_fourth_order_in_dt(monkeypatch):
    # the order follows the weights table: with the triple jump of the 2D
    # row in place of its own weights, 1D EP is fourth order, halving dt
    # dividing the step error by 2^4
    monkeypatch.setitem(epnls.evolution._WEIGHTS, (EP, 1), epnls.evolution._WEIGHTS[EP, 2])
    assert 16.0 / 1.5 <= _ep_error_ratio(GRID, (2e-2, 1e-2, 5e-3)) <= 16.0 * 1.5


def test_ep_sixth_order_in_dt():
    # the 7-stage step of 1D EP: halving dt divides the step error by 2^6
    # (measured 63.6).  The clock is 5x coarser than the fourth-order
    # test's, where the differences would be rounding (1.3e-14 and 9e-15):
    # here they are 2.0e-10 and 3.1e-12
    assert 64.0 / 1.5 <= _ep_error_ratio(GRID, (0.1, 0.05, 0.025)) <= 64.0 * 1.5


def test_ep_2d_stays_fourth_order_in_dt():
    # 2D EP keeps the triple jump (_WEIGHTS), whose error halving dt
    # divides by 2^4 (measured 16.01 on 16^2 modes); the sixth-order step
    # would divide it by 2^6
    assert 16.0 / 1.5 <= _ep_error_ratio(GRID_2D, (2e-2, 1e-2, 5e-3)) <= 16.0 * 1.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nls_blowup_detection():
    params = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=5.0, s=1.0)
    big = Field(GRID, np.full(GRID.shape, 1e300, dtype=complex))
    with pytest.raises(SolverBlowupError):
        evolve_nls(big, params, StepSpec(dt=1e-2), 0.1)


# ---------------------------------------------------------------- diagnostics


def test_relative_error_identical_trajectories():
    traj = evolve_linear_b(gauss_state(), PARAMS, sample_times(0.5, CLOCK))
    curve = relative_error_curve(traj, traj, 1.0)
    assert np.all(curve.rho == 0.0)


def test_relative_error_scalar_offset():
    traj = evolve_linear_b(gauss_state(), PARAMS, sample_times(0.2, CLOCK))
    scaled = evolve_linear_b(gauss_state(1.01), PARAMS, sample_times=traj.times)
    curve = relative_error_curve(scaled, traj, 1.0)
    assert np.max(np.abs(curve.rho - 0.01)) < 1e-14


def test_relative_error_homogeneity():
    truth = evolve_ep(gauss_state(), PARAMS, StepSpec(dt=1e-2), 0.2)
    ref = evolve_linear_b(gauss_state(), PARAMS, sample_times=truth.times)
    base = relative_error_curve(ref, truth, 1.0)
    c = 3.7 - 0.2j

    def scale(traj):
        out = evolve_linear_b(gauss_state(), PARAMS, sample_times=truth.times)
        out.phi = [Field(GRID, c * f.values) for f in traj.phi]
        return out

    scaled = relative_error_curve(scale(ref), scale(truth), 1.0)
    assert np.max(np.abs(scaled.rho - base.rho)) < 1e-14


def test_relative_error_requires_identical_times():
    a = evolve_linear_b(gauss_state(), PARAMS, sample_times(0.2, CLOCK))
    b = evolve_linear_b(gauss_state(), PARAMS, sample_times=a.times + 1e-6)
    with pytest.raises(ValueError, match="identical"):
        relative_error_curve(b, a, 1.0)


def test_ep_vs_b_early_time_power_law():
    # the relative error between the nonlinear system and its linear
    # comparator grows like t^(p+2); measure the log-log slope over
    # [0.05, 0.5] at alpha = 0 (delta = 1)
    truth = evolve_ep(gauss_state(), PARAMS, StepSpec(dt=1e-3), 0.5)
    comp = evolve_linear_b(gauss_state(), PARAMS, sample_times=truth.times)
    curve = relative_error_curve(comp, truth, 1.0)
    m = (curve.times >= 0.05) & (curve.times <= 0.5)
    slope = np.polyfit(np.log(curve.times[m]), np.log(curve.rho[m]), 1)[0]
    assert slope == pytest.approx(PARAMS.p + 2.0, rel=0.05)


def test_relative_error_of_a_tiny_amplitude_is_finite():
    # a truth norm of ~1e-305 is exact, so only a zero truth is refused
    step = StepSpec(dt=1e-2)
    truth = evolve_ep(gauss_state(1e-305), PARAMS, step, 0.5)
    comp = evolve_linear_b(gauss_state(1e-305), PARAMS, sample_times=truth.times)
    curve = relative_error_curve(comp, truth, 1.0)
    assert np.all(np.isfinite(curve.rho))
    zero = evolve_linear_b(gauss_state(0.0), PARAMS, sample_times=truth.times)
    with pytest.raises(ZeroDivisionError, match="underflow"):
        relative_error_curve(comp, zero, 1.0)


def test_error_curve_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        ErrorCurve(delta=1.0, times=np.array([0.0, 1.0]), rho=np.array([0.0, np.inf]))
