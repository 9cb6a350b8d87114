"""Periodic spectral grids, complex fields, Sobolev norms, and the free
Schrodinger propagator.

The spatial domain is the periodic box [-L, L)^n sampled on N points per
axis, so the wavenumber lattice is k = (pi/L) * m with integer offsets
m in [-N/2, N/2).  The forward transform uses the Riemann-sum convention

    u_hat(k) = dx^n * sum_j u(x_j) exp(-i k . x_j),

which makes the discrete Sobolev norm

    ||u||_{H^s} = ( (2L)^{-n} * sum_k (1 + |k|^2)^s |u_hat(k)|^2 )^{1/2}

a direct approximation of the continuum norm, comparable across
resolutions.  For s = 0 this reproduces the discrete L2 norm exactly
(Parseval).
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
    are the 1D point and wavenumber axes (k in FFT storage order),
    ``k_squared`` is |k|^2 on the full n-dimensional lattice, and
    ``mode_parity`` holds (-1)^(m1+...+mn), the phase relating the plain
    FFT to the transform centered at x = -L.
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
        offsets = np.rint(axis_k * self.L / np.pi).astype(int)
        parity_1d = np.where(offsets % 2 == 0, 1.0, -1.0)

        k_sq = np.zeros((self.N,) * self.n)
        parity = np.ones((self.N,) * self.n)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = self.N
            k_sq = k_sq + (axis_k**2).reshape(shape)
            parity = parity * parity_1d.reshape(shape)

        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "axis_x", axis_x)
        object.__setattr__(self, "axis_k", axis_k)
        object.__setattr__(self, "k_squared", k_sq)
        object.__setattr__(self, "mode_parity", parity)

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
    if not L > 0:
        raise ValueError(f"half-width L must be positive, got {L}")
    if max_points is not None and N**n > max_points:
        raise ValueError(
            f"grid with N^n = {N**n} points exceeds the memory cap of "
            f"{max_points} points"
        )


def make_grid(n, N, L, max_points=DEFAULT_MAX_POINTS):
    """Construct a Grid, enforcing the evenness and memory preconditions."""
    check_grid_args(int(n), int(N), L, max_points)
    return Grid(n=int(n), N=int(N), L=float(L))


PHYSICAL = "physical"
SPECTRAL = "spectral"


@dataclass(eq=False)
class Field:
    """Complex scalar field sampled on a Grid.

    ``values`` has shape grid.shape (row-major axis order) and is always
    complex128.  ``rep`` tags whether the samples live in physical or
    spectral space; transforms check the tag.  Construction rejects
    non-finite entries outright.
    """

    grid: Grid
    values: np.ndarray
    rep: str = PHYSICAL

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation tag {self.rep!r}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains NaN or Inf entries")
        self.values = vals

    def copy(self):
        return Field(self.grid, self.values.copy(), self.rep)


def gaussian_initial(grid, amplitude):
    """Radial Gaussian amplitude * exp(-|x|^2 / 2), stored as complex."""
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    vals = amplitude * np.exp(-0.5 * grid.radius_squared())
    return Field(grid, vals.astype(np.complex128), PHYSICAL)


def spectral_transform(field, direction):
    """Forward or inverse transform between physical and spectral space.

    Forward maps physical samples to u_hat(k) = dx^n sum_j u(x_j) e^{-ik.x_j};
    inverse is its exact discrete inverse, so a roundtrip is the identity to
    rounding error.
    """
    grid = field.grid
    if direction == "forward":
        if field.rep != PHYSICAL:
            raise ValueError("forward transform expects a physical-space field")
        hat = grid.cell_volume * grid.mode_parity * np.fft.fftn(field.values)
        return Field(grid, hat, SPECTRAL)
    if direction == "inverse":
        if field.rep != SPECTRAL:
            raise ValueError("inverse transform expects a spectral-space field")
        vals = np.fft.ifftn(field.values * grid.mode_parity) / grid.cell_volume
        return Field(grid, vals, PHYSICAL)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def hs_norm_from_fft(plain_fft, grid, s):
    """H^s norm from a plain (unshifted, unscaled) fftn: a float for one
    field, an array for leading batch axes (each entry bitwise the norm
    of that member alone).  Each member is scaled by a power of two before
    squaring, which is exact, so only a zero field has norm 0."""
    mag = np.abs(plain_fft)
    rows = mag.reshape(-1, grid.k_squared.size)
    _, exponent = np.frexp(rows.max(axis=1))
    sq = np.ldexp(rows, -exponent[:, None]) ** 2
    if s != 0:
        sq *= ((1.0 + grid.k_squared) ** s).ravel()
    scale = grid.cell_volume**2 / grid.box_volume
    norms = np.ldexp(np.sqrt(np.sum(sq, axis=1) * scale), exponent)
    return float(norms[0]) if mag.ndim == grid.n else norms.reshape(mag.shape[:-grid.n])


def sobolev_norm(field, s):
    """Discrete H^s norm; s = 0 gives the L2 norm via Parseval."""
    if s < 0:
        raise ValueError("Sobolev index s must be nonnegative")
    if field.rep == SPECTRAL:  # values are dx^n times a plain fftn
        return hs_norm_from_fft(field.values / field.grid.cell_volume, field.grid, s)
    return hs_norm_from_fft(np.fft.fftn(field.values), field.grid, s)


def l2_norm(field):
    """Physical-space discrete L2 norm (sum |u|^2 dx^n)^(1/2)."""
    if field.rep != PHYSICAL:
        raise ValueError("l2_norm expects a physical-space field")
    return float(np.sqrt(np.sum(np.abs(field.values) ** 2) * field.grid.cell_volume))


def free_propagate(field, t):
    """Evolve under i phi_t = -Laplace phi for time t (exact, unitary).

    Each spectral coefficient picks up the phase exp(-i |k|^2 t); the
    Nyquist mode is treated like any other mode.
    """
    grid = field.grid
    if field.rep != PHYSICAL:
        raise ValueError("free_propagate expects a physical-space field")
    hat = np.fft.fftn(field.values)
    hat *= free_symbol(grid, t)
    return Field(grid, np.fft.ifftn(hat), PHYSICAL)


def free_symbol(grid, t):
    """Per-mode multiplier exp(-i |k|^2 t) of the free propagator."""
    return np.exp(-1j * grid.k_squared * t)
