import numpy as np
import pytest
from scipy.integrate import quad

from epnls.grid import (
    EvenGrid,
    Field,
    Grid,
    _unit_phase,
    default_sobolev_index,
    free_propagate,
    gaussian_initial,
    gaussian_rows,
    hs_norm_from_fft,
    l2_norm,
    make_grid,
    sobolev_norm,
)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


# ---------------------------------------------------------------- make_grid


def test_make_grid_1d_wavenumbers():
    g = make_grid(1, 8, np.pi)
    assert g.dx == pytest.approx(np.pi / 4)
    # pi/L = 1, so the offsets themselves are the wavenumbers
    assert sorted(np.rint(g.axis_k).astype(int)) == list(range(-4, 4))
    np.testing.assert_allclose(np.sort(g.axis_k), np.arange(-4, 4) * 1.0, atol=1e-14)


def test_make_grid_2d_wavenumbers():
    g = make_grid(2, 4, 1.0)
    assert g.k_squared.size == 16
    np.testing.assert_allclose(
        np.sort(g.axis_k), np.array([-2.0, -1.0, 0.0, 1.0]) * np.pi, atol=1e-14
    )


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError, match="even"):
        make_grid(1, 7, 1.0)
    with pytest.raises(ValueError, match="positive"):
        make_grid(1, 8, -1.0)
    with pytest.raises(ValueError, match="dimension"):
        make_grid(4, 8, 1.0)
    with pytest.raises(ValueError, match="memory cap"):
        make_grid(3, 512, 10.0, max_points=2**24)


def test_grid_spacing_identity():
    g = make_grid(1, 256, 10.0)
    assert g.dx * g.N == pytest.approx(2 * g.L, abs=0)


def test_default_sobolev_index():
    assert default_sobolev_index(1) == 1.0
    assert default_sobolev_index(2) == 2.0
    assert default_sobolev_index(3) == 2.0


# ---------------------------------------------------------------- fields


def test_field_rejects_nan():
    g = make_grid(1, 8, 1.0)
    bad = np.ones(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        Field(g, bad)


def test_field_rejects_shape_mismatch():
    g = make_grid(2, 8, 1.0)
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.ones(8, dtype=complex))


def test_gaussian_zero_amplitude():
    g = make_grid(1, 64, 10.0)
    f = gaussian_initial(g, 0.0)
    assert np.all(f.values == 0)


def test_gaussian_center_value():
    g = make_grid(1, 256, 10.0)
    f = gaussian_initial(g, 1.0)
    # x = 0 is on the lattice (j = N/2)
    assert f.values[g.N // 2] == pytest.approx(1.0, abs=0)


def test_gaussian_l2_norm_matches_quadrature():
    # continuum oracle: ||e^{-x^2/2}||_L2 = (integral e^{-x^2} dx)^(1/2)
    oracle, _ = quad(lambda x: np.exp(-(x**2)), -np.inf, np.inf)
    oracle = np.sqrt(oracle)
    assert oracle == pytest.approx(np.pi**0.25, abs=1e-13)
    g = make_grid(1, 256, 10.0)
    f = gaussian_initial(g, 1.0)
    assert l2_norm(f) == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------- transforms


@pytest.mark.parametrize("n,N", [(1, 8), (1, 256), (2, 16), (3, 8)])
def test_transform_roundtrip(n, N):
    g = make_grid(n, N, 5.0)
    f = random_field(g, seed=n * 100 + N)
    back = g.ifft(g.fft(f.values))
    err = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
    assert err < 1e-13


@pytest.mark.parametrize("n, N", [(1, 256), (2, 16), (3, 8)], ids=["1", "2", "3"])
def test_grid_transforms_are_bitwise_fftn(n, N):
    # over the trailing n axes, with and without leading batch axes
    g = make_grid(n, N, 5.0)
    axes = tuple(range(-n, 0))
    rng = np.random.default_rng(n)
    for shape in [g.shape, (3,) + g.shape, (2, 3) + g.shape]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(g.fft(a), np.fft.fftn(a, axes=axes))
        assert np.array_equal(g.ifft(a), np.fft.ifftn(a, axes=axes))


@pytest.mark.parametrize("n, N, levels", [(1, 256, 129), (2, 64, 526), (3, 8, 42)],
                         ids=["1", "2", "3"])
def test_levels_gather_to_k_squared_exactly(n, N, levels):
    # the sorted distinct |k|^2 values; 526 of 4,096 modes on the default 2D
    # grid and 129 of 256 points in 1D are what every symbol is evaluated on.
    # Levels are distinct floats: in 3D one sum of squares can round apart
    # from the same squares summed in another axis order
    g = make_grid(n, N, 10.0)
    assert g.k_levels.size == levels
    assert np.all(np.diff(g.k_levels) > 0)
    assert g.level_index.shape == g.shape
    assert np.array_equal(g.k_levels[g.level_index], g.k_squared)
    assert np.array_equal(g.gather(g.k_levels), g.k_squared)
    stacked = np.stack([g.k_levels, -g.k_levels])
    assert np.array_equal(g.gather(stacked), np.stack([g.k_squared, -g.k_squared]))


def _mirrored(grid, even, spectral):
    """The full-grid array of data on the even subspace: physical point j
    of an axis is stored point |j - N/2|, mode j stored mode min(j, N - j)."""
    j = np.arange(grid.N)
    stored = np.minimum(j, grid.N - j) if spectral else np.abs(j - grid.N // 2)
    for axis in range(-grid.n, 0):
        even = np.take(even, stored, axis=axis)
    return even


def _stored(grid, full, spectral):
    """The even subspace's entries of a full-grid array."""
    m = np.arange(grid.N // 2 + 1)
    index = m if spectral else (grid.N // 2 + m) % grid.N
    for axis in range(-grid.n, 0):
        full = np.take(full, index, axis=axis)
    return full


@pytest.mark.parametrize("n, N", [(1, 128), (2, 16), (3, 8)], ids=["1", "2", "3"])
def test_even_grid_transforms_are_grid_transforms_of_the_mirrored_field(n, N):
    full, even = Grid(n, N, 10.0), EvenGrid(n, N, 10.0)
    assert even.shape == (N // 2 + 1,) * n
    assert np.array_equal(_stored(full, full.meshgrid()[-1], False), even.meshgrid()[-1])
    rng = np.random.default_rng(n)
    shape = (3,) + even.shape
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transform, spectral in (("fft", False), ("ifft", True)):
        got = getattr(even, transform)(data)
        want = _stored(full, getattr(full, transform)(_mirrored(full, data, spectral)),
                       not spectral)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    back = even.ifft(even.fft(data))
    assert np.max(np.abs(back - data)) < 1e-13 * np.max(np.abs(data))
    # each batch row alone, bitwise
    spectra = even.fft(data)
    for row, spectrum in zip(data, spectra):
        assert np.array_equal(even.fft(row), spectrum)
    assert np.array_equal(even.fft(data[1:]), spectra[1:])


@pytest.mark.parametrize("n, N", [(1, 16), (2, 16), (3, 8)], ids=["1", "2", "3"])
def test_even_grid_transforms_make_one_matmul_per_axis(monkeypatch, n, N):
    # each transform is n stacked matmuls, one per axis, each one gemm of
    # the shape (M, M) @ (M, 2 M^(n-1)) per batch row: the leading axis is
    # transformed and then moved last, not each grid line on its own
    even = EvenGrid(n, N, 10.0)
    size = N // 2 + 1
    shapes = []
    matmul = np.matmul

    def counted(x1, x2, *args, **kwargs):
        shapes.append((x1.shape, x2.shape))
        return matmul(x1, x2, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    for batch in ((), (1,), (3,), (2, 2)):
        data = np.ones(batch + even.shape, np.complex128)
        rows = int(np.prod(batch))
        for transform in (even.fft, even.ifft):
            shapes.clear()
            transform(data)
            assert shapes == [((size, size), (rows, size, 2 * size ** (n - 1)))] * n


@pytest.mark.parametrize("n, N", [(1, 128), (2, 16), (3, 8)], ids=["1", "2", "3"])
@pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
def test_even_grid_norms_are_the_mirrored_fields_norms(n, N, s):
    full, even = Grid(n, N, 10.0), EvenGrid(n, N, 10.0)
    rng = np.random.default_rng(n)
    shape = (2,) + even.shape
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mirrored = _mirrored(full, data, False)
    got = hs_norm_from_fft(even.fft(data), even, s)
    want = hs_norm_from_fft(full.fft(mirrored), full, s)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n, N, levels", [(1, 128, 65), (2, 64, 526), (3, 8, 42)],
                         ids=["1", "2", "3"])
def test_even_grid_has_the_full_lattices_levels(n, N, levels):
    # every |k|^2 of the lattice is that of a mode with offsets m >= 0: 65
    # of 65 stored modes in 1D, 526 of 1,089 in 2D
    full, even = Grid(n, N, 10.0), EvenGrid(n, N, 10.0)
    assert np.array_equal(even.k_levels, full.k_levels)
    assert even.k_levels.size == levels
    assert np.array_equal(even.gather(even.k_levels), even.k_squared)
    assert np.array_equal(even.k_squared, _stored(full, full.k_squared, True))


def test_single_mode_concentration():
    # the solvers' symbols rely on axis_k matching Grid.fft's storage order
    g = make_grid(1, 32, np.pi)
    k0 = 3.0  # on the lattice since pi/L = 1
    hat = g.fft(Field(g, np.exp(1j * k0 * g.axis_x)).values)
    idx = np.argmin(np.abs(g.axis_k - k0))
    # x starts at -L, so the mode carries the phase exp(-i k0 L) = (-1)^3
    assert abs(hat[idx]) == pytest.approx(g.N, rel=1e-12)
    others = np.abs(np.delete(hat, idx))
    assert np.max(others) < 1e-11 * g.N


# ---------------------------------------------------------------- norms


def test_sobolev_norm_zero_field():
    g = make_grid(1, 16, 2.0)
    f = Field(g, np.zeros(g.shape, dtype=complex))
    for s in (0.0, 1.0, 2.5):
        assert sobolev_norm(f, s) == 0.0


def test_sobolev_s0_gaussian():
    g = make_grid(1, 256, 10.0)
    f = gaussian_initial(g, 1.0)
    assert sobolev_norm(f, 0.0) == pytest.approx(np.pi**0.25, abs=1e-12)


def test_sobolev_s1_gaussian_matches_fourier_quadrature():
    # continuum Fourier oracle: u_hat(k) = sqrt(2 pi) e^{-k^2/2}, so
    # ||u||_{H^1}^2 = (1/2pi) int (1+k^2) |u_hat|^2 dk = int (1+k^2) e^{-k^2} dk
    oracle_sq, _ = quad(lambda k: (1 + k**2) * np.exp(-(k**2)), -np.inf, np.inf)
    oracle = np.sqrt(oracle_sq)
    assert oracle == pytest.approx(np.sqrt(1.5 * np.sqrt(np.pi)), abs=1e-13)
    g = make_grid(1, 256, 10.0)
    f = gaussian_initial(g, 1.0)
    assert sobolev_norm(f, 1.0) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n,N,kind", [
    (1, 64, Grid), (2, 16, Grid), (3, 8, Grid),
    (1, 64, EvenGrid), (2, 16, EvenGrid), (3, 8, EvenGrid),
], ids=["1-64", "2-16", "3-8", "1-64-even", "2-16-even", "3-8-even"])
def test_parseval(n, N, kind):
    # on EvenGrid a random field is the restriction of an even one, and
    # both norms weigh each stored mode or point by its multiplicity
    g = kind(n, N, 4.0)
    for seed in range(3):
        f = random_field(g, seed=seed)
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)


@pytest.mark.parametrize("n,N,s", [(1, 64, 1.0), (2, 16, 2.0), (3, 8, 0.0)])
def test_hs_norm_from_fft_scales_exactly_and_batches_bitwise(n, N, s):
    g = make_grid(n, N, 4.0)
    hats = np.stack([np.fft.fftn(random_field(g, seed=i).values) for i in range(3)])
    hats[2] *= 1e-200  # a tiny member next to unit ones
    single = [hs_norm_from_fft(h, g, s) for h in hats]
    assert all(isinstance(v, float) for v in single)
    batched = hs_norm_from_fft(hats, g, s)
    assert batched.shape == (3,)
    assert np.array_equal(batched, single)
    assert hs_norm_from_fft(hats.reshape(3, 1, *g.shape), g, s).shape == (3, 1)
    # power-of-two scaling is exact, so a tiny field does not underflow
    assert hs_norm_from_fft(2.0**-900 * hats[0], g, s) == np.ldexp(single[0], -900)
    assert single[2] == pytest.approx(1e-200 * hs_norm_from_fft(hats[2] / 1e-200, g, s))


def test_sobolev_monotone_in_s():
    g = make_grid(1, 64, 5.0)
    f = random_field(g, seed=3)
    norms = [sobolev_norm(f, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_sobolev_rejects_negative_s():
    g = make_grid(1, 16, 1.0)
    f = random_field(g)
    with pytest.raises(ValueError):
        sobolev_norm(f, -1.0)


# ---------------------------------------------------------------- propagator


def test_free_propagate_t0_identity():
    g = make_grid(1, 64, 5.0)
    f = random_field(g, seed=1)
    out = free_propagate(f, 0.0)
    np.testing.assert_allclose(out.values, f.values, atol=1e-15)


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
def test_free_propagate_isometry(s):
    g = make_grid(2, 16, 4.0)
    f = random_field(g, seed=5)
    before = sobolev_norm(f, s)
    after = sobolev_norm(free_propagate(f, 0.37), s)
    assert after == pytest.approx(before, rel=1e-12)


def test_free_propagate_single_mode_phase():
    g = make_grid(1, 32, np.pi)
    k0 = 2.0
    f = Field(g, np.exp(1j * k0 * g.axis_x))
    t = 0.41
    out = free_propagate(f, t)
    np.testing.assert_allclose(
        out.values, np.exp(-1j * k0**2 * t) * f.values, atol=1e-12
    )


def test_free_propagate_semigroup():
    g = make_grid(1, 64, 5.0)
    f = random_field(g, seed=9)
    t1, t2 = 0.3, 0.45
    once = free_propagate(f, t1 + t2)
    twice = free_propagate(free_propagate(f, t1), t2)
    num = np.sqrt(np.sum(np.abs(once.values - twice.values) ** 2))
    den = np.sqrt(np.sum(np.abs(once.values) ** 2))
    assert num / den < 1e-12


# ---------------------------------------------------------------- phases


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9])
def test_unit_phase_is_exp_minus_2ih_to_rounding(scale):
    # (1 - i tan h)^2 / (1 + tan^2 h) for exp(-2i h): within 4.5e-16 of
    # numpy's complex exp and of modulus 1 to 4.5e-16, for angles up to 1e9
    # (measured 2.7e-16 and 4.4e-16), and exactly 1 at h = 0
    h = np.random.default_rng(0).uniform(-scale, scale, 100_000)
    z = _unit_phase(h)
    assert np.max(np.abs(z - np.exp(-2j * h))) <= 4.5e-16
    assert np.max(np.abs(np.abs(z) - 1.0)) <= 4.5e-16
    assert _unit_phase(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("grid", [make_grid(1, 64, 10.0), EvenGrid(n=2, N=16, L=10.0)])
def test_gaussian_rows_are_gaussian_initial_bitwise(grid):
    amplitudes = [1.0, 0.3, 1e-3]
    rows = gaussian_rows(grid, amplitudes)
    assert rows.dtype == np.complex128
    for row, a in zip(rows, amplitudes):
        assert np.array_equal(row, gaussian_initial(grid, a).values)
