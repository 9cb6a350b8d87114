import numpy as np
import pytest
from scipy.linalg import expm

from epnls.grid import (
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
    evolve_composite_tilde,
    evolve_ep,
    evolve_linear_b,
    evolve_nls,
    evolve_system_a,
    linear_pair_propagator,
    model_stream,
    nonlinear_phase,
    relative_error_curve,
    sample_times,
    zero_state,
)

GRID = make_grid(1, 256, 10.0)
PARAMS = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)


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
    other = make_grid(1, 128, 10.0)
    with pytest.raises(ValueError, match="grid"):
        EPState(gaussian_initial(GRID, 1.0), gaussian_initial(other, 1.0))


def test_step_spec_validation():
    with pytest.raises(ValueError):
        StepSpec(dt=0.0)
    with pytest.raises(ValueError, match="divide"):
        StepSpec(dt=3e-3, samples_per_unit_time=100)
    assert StepSpec(dt=-1e-3).steps_per_sample == 20
    assert StepSpec(dt=1e-3, samples_per_unit_time=100).sample_interval == 0.01


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
    step = StepSpec(dt=1e-2, samples_per_unit_time=10)
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
    assert np.max(np.abs(half.mass - traj.mass)) / traj.mass[0] <= 1e-10


def test_ep_requires_initial_time_zero():
    st = gauss_state()
    st.time = 0.5
    with pytest.raises(ValueError, match="time 0"):
        evolve_ep(st, PARAMS, StepSpec(dt=1e-3), 0.1)


@pytest.mark.parametrize("T", [0.0, -0.1, 0.15])
def test_horizon_must_be_a_positive_multiple_of_the_interval(T):
    step = StepSpec(dt=1e-2, samples_per_unit_time=10)
    with pytest.raises(ValueError, match="positive multiple"):
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
    # of weight w turns it by |w| dt a^2; the largest weight is |w0|.  One
    # ulp of an angle past 2^52 rad exceeds 1 rad
    step = StepSpec(dt=1e-2, samples_per_unit_time=10)
    w0 = 1.0 - 2.0 / (2.0 - 2.0 ** (1.0 / 3.0))
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
    traj = evolve_linear_b(gauss_state(), PARAMS, T=1.0)
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
    comp = evolve_composite_tilde(phi0, PARAMS, C1=0.0, epsilon=0.01, T=1.0,
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
    comp = evolve_composite_tilde(phi0, params, C1=2.0, epsilon=0.04, T=1.0,
                                  sample_times=times)
    for i, t in enumerate(times):
        assert hs_diff(comp.phi[i], free_propagate(phi0, t)) < 1e-12
        assert sobolev_norm(comp.psi[i], 1.0) < 1e-14


def test_composite_handoff_continuity():
    phi0 = gaussian_initial(GRID, 1.0)
    c1, eps = 1.0, 0.04
    t1 = c1 * np.sqrt(eps)  # 0.2
    times = np.array([0.0, 0.1, t1, t1 + 1e-8, 0.5])
    comp = evolve_composite_tilde(phi0, PARAMS, C1=c1, epsilon=eps, T=1.0,
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
        evolve_composite_tilde(
            gaussian_initial(GRID, 1.0), PARAMS, C1=10.0, epsilon=1.0, T=1.0
        )


def test_composite_takes_explicit_times_without_T():
    # like its sibling comparators; t1 is checked against the last time
    phi0 = gaussian_initial(GRID, 1.0)
    times = np.linspace(0.0, 1.0, 6)
    comp = evolve_composite_tilde(phi0, PARAMS, C1=1.0, epsilon=0.04,
                                  sample_times=times, record="norms")
    with_T = evolve_composite_tilde(phi0, PARAMS, C1=1.0, epsilon=0.04, T=1.0,
                                    sample_times=times, record="norms")
    assert np.array_equal(comp.norm_phi, with_T.norm_phi)
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
    traj = evolve_nls(gaussian_initial(GRID, 1.0), PARAMS,
                      StepSpec(dt=1e-3, samples_per_unit_time=100), 0.1,
                      record="norms")
    assert len(traj.times) == 11
    # the initial spectrum, then 2 per rotation, 3 per triple-jump step
    assert fft_calls == [256] * (1 + 3 * 2 * 100)


def test_ep_records_norms_transforming_psi_only(fft_calls):
    traj = evolve_ep(gauss_state(), PARAMS,
                     StepSpec(dt=1e-3, samples_per_unit_time=100), 0.1,
                     record="norms")
    assert len(traj.times) == 11
    # phi's initial spectrum, then psi alone: its norm at t = 0, 2 per
    # linear substep (3 per triple-jump step) and 1 per later sample;
    # phi_hat never leaves spectral space
    assert fft_calls == [256] * (2 + 3 * 2 * 100 + 10)


# ---------------------------------------------------------------- kernel
# frozen copies of the loops the split-step kernel replaced, each here
# running Yoshida's triple jump of unmerged Strang steps: the stacked EP
# loop (both fields through every transform) and the NLS loop


def frozen_ep_samples(fields, params, step, n_samples, grid):
    axes = tuple(range(-grid.n, 0))
    g, p = params.g, params.p
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    jumps = [w * step.dt for w in (w1, 1.0 - 2.0 * w1, w1)]
    maps = [linear_pair_propagator(grid, params.gamma, params.omega0, h)
            for h in jumps]
    fields = np.array(fields, dtype=np.complex128)
    for block in range(n_samples):
        for _ in range(step.steps_per_sample):
            for h, (u11, u12, u22) in zip(jumps, maps):
                fields[1] = nonlinear_phase(fields[1], g, p, 0.5 * h)
                hat = np.fft.fftn(fields, axes=axes)
                spectrum = np.stack([u11 * hat[0] + u12 * hat[1],
                                     u12 * hat[0] + u22 * hat[1]])
                fields = np.fft.ifftn(spectrum, axes=axes)
                fields[1] = nonlinear_phase(fields[1], g, p, 0.5 * h)
        yield (block + 1) * step.sample_interval, spectrum[0], fields[1]


def frozen_nls_samples(phi_hat, params, step, n_samples, grid):
    axes = tuple(range(-grid.n, 0))
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    jumps = [w * step.dt for w in (w1, 1.0 - 2.0 * w1, w1)]
    halves = [free_symbol(grid, 0.5 * h) for h in jumps]
    hat = np.array(phi_hat, dtype=np.complex128)
    for block in range(n_samples):
        for _ in range(step.steps_per_sample):
            for h, half in zip(jumps, halves):
                hat = hat * half
                phi = nonlinear_phase(np.fft.ifftn(hat, axes=axes), params.g, params.p, h)
                hat = np.fft.fftn(phi, axes=axes) * half
        yield (block + 1) * step.sample_interval, hat


@pytest.mark.parametrize("grid", [GRID, make_grid(2, 32, 8.0)], ids=["1d", "2d"])
def test_ep_kernel_matches_the_stacked_loop(grid):
    # 200 triple-jump steps of 10 per sample; a batch of two amplitudes
    step = StepSpec(dt=1e-3, samples_per_unit_time=100)
    axes = tuple(range(-grid.n, 0))
    phi0 = np.stack([gaussian_initial(grid, d).values for d in (1.0, 0.6)])
    psi0 = 0.3j * phi0[::-1]
    old = frozen_ep_samples([phi0, psi0], PARAMS, step, 20, grid)
    phi0_hat = np.fft.fftn(phi0, axes=axes)
    new = model_stream(EP, grid, PARAMS, step, 20, phi0_hat, psi0.copy())
    # the kernel's first sample is the given fields at t = 0
    t0, (phi_hat, _), psi = next(new)
    assert t0 == 0.0 and phi_hat is phi0_hat and np.array_equal(psi, psi0)
    for (t_old, phi_hat_old, psi_old), (t_new, (phi_hat, _), psi) in zip(old, new):
        assert t_new == t_old
        scale = np.max(np.abs(phi_hat_old))
        assert np.max(np.abs(phi_hat - phi_hat_old)) <= 1e-12 * scale
        assert np.max(np.abs(psi - psi_old)) <= 1e-12 * np.max(np.abs(psi_old))
    assert t_new == pytest.approx(0.2)


@pytest.mark.parametrize("drop_at, keep_rows", [
    (0, [True, False, True]), (2, [True, False, True]), (0, [0, 2]), (2, [0, 2]),
], ids=["0", "2", "0-rows", "2-rows"])
def test_kernel_streams_from_t0_and_drops_rows_at_any_sample(drop_at, keep_rows):
    # the samples are at sample_times, t = 0 first; rows dropped at a
    # sample, the first included, by a boolean mask or by the row indices
    # the sweep sends, leave the survivors' bits unchanged
    step = StepSpec(dt=1e-3, samples_per_unit_time=100)
    phi0 = np.stack([gaussian_initial(GRID, d).values for d in (1.0, 0.6, 0.3)])
    kept = np.array(keep_rows)

    def samples(drop):
        stream = model_stream(EP, GRID, PARAMS, step, 4, np.fft.fftn(phi0, axes=(-1,)))
        keep, out = None, []
        for t, (phi_hat, _), psi in iter(lambda: stream.send(keep), None):
            out.append((t, phi_hat.copy(), psi.copy()))
            keep = kept if len(out) - 1 == drop else None
        return out

    full, cut = samples(None), samples(drop_at)
    assert [t for t, _, _ in cut] == list(sample_times(0.04, step))
    for b, ((t, phi_hat, psi), (_, phi_cut, psi_cut)) in enumerate(zip(full, cut)):
        rows = kept if b > drop_at else slice(None)
        assert np.array_equal(phi_hat[rows], phi_cut)
        assert np.array_equal(psi[rows], psi_cut)


@pytest.mark.parametrize("grid, clock", [
    (GRID, dict(dt=1e-3, samples_per_unit_time=100)),
    (GRID, dict(dt=2.5e-4, samples_per_unit_time=4000)),
    (make_grid(2, 32, 8.0), dict(dt=1e-3, samples_per_unit_time=100)),
], ids=["1d", "1d-default-clock", "2d"])
def test_nls_kernel_matches_the_stacked_loop(grid, clock):
    # 20 samples of 10 triple-jump steps (merged across steps by the
    # kernel), or of one step at the default clock; a batch of three
    # amplitudes
    step = StepSpec(**clock)
    phi0 = np.stack([gaussian_initial(grid, d).values for d in (1.0, 0.5, 0.1)])
    phi0_hat = np.fft.fftn(phi0, axes=tuple(range(-grid.n, 0)))
    old = frozen_nls_samples(phi0_hat, PARAMS, step, 20, grid)
    new = model_stream(NLS, grid, PARAMS, step, 20, phi0_hat.copy())
    t0, (hat0,), u = next(new)
    assert t0 == 0.0 and u is None and np.array_equal(hat0, phi0_hat)
    for (t_old, hat_old), (t_new, (hat,), u) in zip(old, new):
        assert t_new == t_old and u is None  # the flow is outside
        assert np.max(np.abs(hat - hat_old)) <= 1e-12 * np.max(np.abs(hat_old))
    assert t_new == pytest.approx(20 * step.sample_interval)


@pytest.mark.parametrize("model", [EP, NLS])
def test_model_stream_yields_the_photon_spectrum_at_every_sample(model):
    # the sweep reads the truth off spectra[0] at every sample, t = 0
    # included: it is never None, and it is the photon field's plain FFT
    step = StepSpec(dt=1e-3, samples_per_unit_time=250)
    phi0 = np.stack([gaussian_initial(GRID, d).values for d in (1.0, 0.5)])
    phi0_hat = np.fft.fft(phi0)
    if model == EP:
        old = [hat for _, hat, _ in
               frozen_ep_samples([phi0, np.zeros_like(phi0)], PARAMS, step, 10, GRID)]
    else:
        old = [hat for _, hat in frozen_nls_samples(phi0_hat, PARAMS, step, 10, GRID)]
    hats = []
    for _, spectra, _ in model_stream(model, GRID, PARAMS, step, 10, phi0_hat.copy()):
        assert spectra[0] is not None
        hats.append(spectra[0].copy())
    assert np.array_equal(hats[0], phi0_hat)
    for hat, hat_old in zip(hats[1:], old, strict=True):
        assert np.max(np.abs(hat - hat_old)) <= 1e-12 * np.max(np.abs(hat_old))


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


def test_nls_fourth_order_in_dt():
    # the triple jump: halving dt divides the step error by 2^4
    phi0 = gaussian_initial(GRID, 1.0)
    T = 0.2
    outs = {}
    for dt in (2e-2, 1e-2, 5e-3):
        outs[dt] = evolve_nls(
            phi0, PARAMS, StepSpec(dt=dt, samples_per_unit_time=5), T
        ).phi[-1].values
    err1 = np.max(np.abs(outs[2e-2] - outs[1e-2]))
    err2 = np.max(np.abs(outs[1e-2] - outs[5e-3]))
    assert 16.0 / 1.5 <= err1 / err2 <= 16.0 * 1.5


def test_ep_fourth_order_in_dt():
    # the triple jump: halving dt divides the step error by 2^4
    T = 0.2
    outs = {}
    for dt in (2e-2, 1e-2, 5e-3):
        final = evolve_ep(gauss_state(), PARAMS,
                          StepSpec(dt=dt, samples_per_unit_time=5), T).final_state()
        outs[dt] = np.concatenate([final.phi.values, final.psi.values])
    err1 = np.max(np.abs(outs[2e-2] - outs[1e-2]))
    err2 = np.max(np.abs(outs[1e-2] - outs[5e-3]))
    assert 16.0 / 1.5 <= err1 / err2 <= 16.0 * 1.5


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nls_blowup_detection():
    params = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=5.0, s=1.0)
    big = Field(GRID, np.full(GRID.shape, 1e300, dtype=complex))
    with pytest.raises(SolverBlowupError):
        evolve_nls(big, params, StepSpec(dt=1e-2), 0.1)


# ---------------------------------------------------------------- diagnostics


def test_relative_error_identical_trajectories():
    traj = evolve_linear_b(gauss_state(), PARAMS, T=0.5)
    curve = relative_error_curve(traj, traj, 1.0)
    assert np.all(curve.rho == 0.0)


def test_relative_error_scalar_offset():
    traj = evolve_linear_b(gauss_state(), PARAMS, T=0.2)
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
    a = evolve_linear_b(gauss_state(), PARAMS, T=0.2)
    b = evolve_linear_b(gauss_state(), PARAMS, sample_times=a.times + 1e-6)
    with pytest.raises(ValueError, match="identical"):
        relative_error_curve(b, a, 1.0)


@pytest.mark.parametrize("T", [0.58, 1.14, 1.0])
def test_default_comparator_times_are_the_kernel_sample_times(T):
    # at T = 0.58 and 1.14, start + linspace(0, T, n + 1) is 1 ulp off
    # index * interval at some sample; the comparators sample the kernel's
    # grid, so a default comparator and a default run pair up
    truth = evolve_ep(gauss_state(), PARAMS, StepSpec(), T)
    phi0 = gaussian_initial(GRID, 1.0)
    for comp in (evolve_linear_b(gauss_state(), PARAMS, T=T),
                 evolve_system_a(phi0, PARAMS, T=T),
                 evolve_composite_tilde(phi0, PARAMS, C1=1.0, epsilon=0.01, T=T)):
        assert comp.times.tobytes() == truth.times.tobytes()
        relative_error_curve(comp, truth, 1.0)


def test_default_comparator_horizon_is_a_multiple_of_the_sample_interval():
    with pytest.raises(ValueError, match="not a positive multiple"):
        evolve_linear_b(gauss_state(), PARAMS, T=0.55)


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
    step = StepSpec(dt=1e-2, samples_per_unit_time=10)
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
