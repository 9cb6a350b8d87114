"""Periodic spectral grids, complex fields, Sobolev norms, and the free
Schrodinger propagator.

The spatial domain is the periodic box [-L, L)^n sampled on N points per
axis, so the wavenumber lattice is k = (pi/L) * m with integer offsets
m in [-N/2, N/2).  Every spectrum is a plain (unscaled) Grid.fft u_hat,
and the discrete Sobolev norm scales it by dx^n:

    ||u||_{H^s} = ( (2L)^{-n} * sum_k (1 + |k|^2)^s |dx^n u_hat(k)|^2 )^{1/2}.

dx^n |u_hat(k)| is the modulus of the Riemann sum of the continuum
Fourier transform, so the norm approximates the continuum norm,
comparable across resolutions.  For s = 0 it reproduces the discrete L2
norm exactly (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nominal memory guard: 2^24 complex points is ~256 MB per field.
DEFAULT_MAX_POINTS = 2**24


def default_sobolev_index(n):
    """Default Sobolev degree, the least integer greater than n/2."""
    return float(n // 2 + 1)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic grid on [-L, L)^n with its wavenumber lattice.

    Parameters
    ----------
    n : int
        Spatial dimension, 1 to 3.
    N : int
        Points per axis; must be even so the wavenumber lattice is
        symmetric about zero with a single Nyquist mode.
    L : float
        Half-width of the box; the axis runs over [-L, L).

    Derived arrays (set once, then immutable): ``axis_x`` and ``axis_k``
    are the 1D point and wavenumber axes (k in FFT storage order), and
    ``k_squared`` is |k|^2 on the full n-dimensional lattice.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        check_grid_args(self.n, self.N, self.L)
        dx = 2.0 * self.L / self.N
        axis_x = -self.L + dx * np.arange(self.N)
        # k = 2*pi*fftfreq(N, dx) = (pi/L) * m, m in [-N/2, N/2) (FFT order)
        axis_k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=dx)

        k_sq = np.zeros((self.N,) * self.n)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.N
            k_sq = k_sq + (axis_k**2).reshape(shape)

        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "axis_x", axis_x)
        object.__setattr__(self, "axis_k", axis_k)
        object.__setattr__(self, "k_squared", k_sq)

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def cell_volume(self):
        """dx^n, the quadrature weight of one grid cell."""
        return self.dx**self.n

    @property
    def box_volume(self):
        """(2L)^n, the measure of the periodic box."""
        return (2.0 * self.L) ** self.n

    def fft(self, a):
        """Plain (unscaled) forward FFT of ``a`` over the grid's n trailing
        axes; leading axes are a batch.  In 1D this is np.fft.fft, which
        gives fftn's bits without fftn's n-D wrapper, a fixed cost per call
        that counts on the small arrays of a 1D sweep."""
        if self.n == 1:
            return np.fft.fft(a, axis=-1)
        return np.fft.fftn(a, axes=tuple(range(-self.n, 0)))

    def ifft(self, a):
        """Inverse of fft, over the same axes."""
        if self.n == 1:
            return np.fft.ifft(a, axis=-1)
        return np.fft.ifftn(a, axes=tuple(range(-self.n, 0)))

    def meshgrid(self):
        """Physical coordinate arrays, one per axis, each of full shape."""
        axes = np.meshgrid(*([self.axis_x] * self.n), indexing="ij")
        return axes

    def radius_squared(self):
        """|x|^2 on the full grid."""
        r2 = np.zeros(self.shape)
        for ax in self.meshgrid():
            r2 += ax**2
        return r2


def check_grid_args(n, N, L, max_points=None):
    """Raise ValueError unless (n, N, L) describe a valid Grid with at
    most max_points points (no cap if None).  Allocates nothing."""
    if not 1 <= n <= 3:
        raise ValueError(f"dimension n must be 1, 2, or 3, got {n}")
    if N % 2 != 0 or N < 4:
        raise ValueError(f"N must be even and >= 4, got {N}")
    if not 0 < L < np.inf:
        raise ValueError(f"half-width L must be positive and finite, got {L}")
    if max_points is not None and N**n > max_points:
        raise ValueError(
            f"grid with N^n = {N**n} points exceeds the memory cap of "
            f"{max_points} points"
        )


def make_grid(n, N, L, max_points=DEFAULT_MAX_POINTS):
    """Construct a Grid, enforcing the evenness and memory preconditions."""
    check_grid_args(int(n), int(N), L, max_points)
    return Grid(n=int(n), N=int(N), L=float(L))


@dataclass(eq=False)
class Field:
    """Complex scalar field sampled on a Grid.

    ``values`` holds the physical samples, of shape grid.shape (row-major
    axis order), always complex128; a spectrum is a plain Grid.fft array.
    Construction rejects non-finite entries outright.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains NaN or Inf entries")
        self.values = vals


def gaussian_initial(grid, amplitude):
    """Radial Gaussian amplitude * exp(-|x|^2 / 2), stored as complex."""
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    return Field(grid, amplitude * np.exp(-0.5 * grid.radius_squared()))


def hs_norm_from_fft(plain_fft, grid, s):
    """H^s norm from a plain (unshifted, unscaled) Grid.fft: a float for one
    field, an array for leading batch axes (each entry bitwise the norm
    of that member alone).  Each member is scaled by a power of two before
    squaring, which is exact, so only a zero field has norm 0."""
    mag = np.abs(plain_fft)
    rows = mag.reshape(-1, grid.k_squared.size)
    _, exponent = np.frexp(rows.max(axis=1))
    # in place, so the one temporary is mag
    sq = np.ldexp(rows, -exponent[:, None], out=rows)
    sq *= sq
    if s != 0:
        sq *= ((1.0 + grid.k_squared) ** s).ravel()
    scale = grid.cell_volume**2 / grid.box_volume
    norms = np.ldexp(np.sqrt(np.sum(sq, axis=1) * scale), exponent)
    return float(norms[0]) if mag.ndim == grid.n else norms.reshape(mag.shape[:-grid.n])


def sobolev_norm(field, s):
    """Discrete H^s norm; s = 0 gives the L2 norm via Parseval."""
    if s < 0:
        raise ValueError("Sobolev index s must be nonnegative")
    return hs_norm_from_fft(field.grid.fft(field.values), field.grid, s)


def l2_norm(field):
    """Physical-space discrete L2 norm (sum |u|^2 dx^n)^(1/2)."""
    return float(np.sqrt(np.sum(np.abs(field.values) ** 2) * field.grid.cell_volume))


def free_propagate(field, t):
    """Evolve under i phi_t = -Laplace phi for time t (exact, unitary).

    Each spectral coefficient picks up the phase exp(-i |k|^2 t); the
    Nyquist mode is treated like any other mode.
    """
    grid = field.grid
    hat = grid.fft(field.values)
    hat *= free_symbol(grid, t)
    return Field(grid, grid.ifft(hat))


def free_symbol(grid, t):
    """Per-mode multiplier exp(-i |k|^2 t) of the free propagator."""
    return np.exp(-1j * grid.k_squared * t)
