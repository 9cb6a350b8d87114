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

A per-mode symbol depends on a mode only through |k|^2, which takes far
fewer distinct values than there are modes (526 of 4,096 on a 64 x 64
grid, 129 of 256 on a 256-point axis).  The grid keeps those values,
sorted, as ``k_levels``; every symbol is evaluated on them once and
spread over the lattice by Grid.gather, which gives the bits of the
evaluation on the full lattice, since each mode sees the same |k|^2.

EvenGrid holds the fields that are even in every coordinate, as the
sweep's are (a Gaussian stays even under both models), on the N/2 + 1
points x >= 0 of each axis and the N/2 + 1 modes m >= 0 (Boyd, Chebyshev
and Fourier Spectral Methods, 2nd ed., 2001, ch. 8).  Its fft and ifft
are Grid's transforms of the mirrored field, on the stored modes and
points, as one real cosine matrix per axis, so every spectrum is still a
plain Grid.fft; the H^s norm weighs each stored mode, and l2_norm each
stored point, by the number of lattice modes or points it stands for.  A
symbol, a rotation or a norm then acts on (N/2 + 1)^n values in place of
N^n.  The dense matrices cost O(N^(n+1)) per transform against the
FFT's O(N^n log N), and BLAS, not pocketfft, sets their rounding: each
axis is one gemm per batch row, of one shape whatever the axis or the
batch (Goto and van de Geijn, Anatomy of high-performance matrix
multiplication, ACM TOMS 34(3), 2008, on why wide gemms pay and narrow
ones do not).
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
    ``k_squared`` is |k|^2 on the full n-dimensional lattice, ``k_levels``
    its sorted distinct values and ``level_index`` (grid shape) the level
    of each mode: k_levels[level_index] == k_squared exactly.
    ``multiplicity`` is the number of lattice modes (and points) each
    stored one stands for: 1 here, more on EvenGrid.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        check_grid_args(self.n, self.N, self.L)
        dx = 2.0 * self.L / self.N
        axis_x, axis_k = self._axes(dx)

        k_sq = np.zeros((axis_k.size,) * self.n)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = axis_k.size
            k_sq = k_sq + (axis_k**2).reshape(shape)

        levels, index = np.unique(k_sq, return_inverse=True)

        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "axis_x", axis_x)
        object.__setattr__(self, "axis_k", axis_k)
        object.__setattr__(self, "k_squared", k_sq)
        object.__setattr__(self, "k_levels", levels)
        object.__setattr__(self, "level_index", index.reshape(self.shape))
        object.__setattr__(self, "multiplicity", 1.0)

    def _axes(self, dx):
        axis_x = -self.L + dx * np.arange(self.N)
        # k = 2*pi*fftfreq(N, dx) = (pi/L) * m, m in [-N/2, N/2) (FFT order)
        axis_k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=dx)
        return axis_x, axis_k

    @property
    def shape(self):
        return (self.axis_x.size,) * self.n

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
        axes; leading axes are a batch.  One np.fft.fft per axis, last axis
        first, as fftn orders them: fftn's bits without its n-D wrapper, a
        fixed cost per call."""
        for axis in range(-1, -self.n - 1, -1):
            a = np.fft.fft(a, axis=axis)
        return a

    def ifft(self, a):
        """Inverse of fft, over the same axes."""
        for axis in range(-1, -self.n - 1, -1):
            a = np.fft.ifft(a, axis=axis)
        return a

    def hs_weight(self, s):
        """Per stored mode, its weight (1 + |k|^2)^s in the H^s norm times
        its multiplicity, a power of two, so the product is exact."""
        return self.multiplicity * (1.0 + self.k_squared) ** s

    def gather(self, levels):
        """The per-mode array (grid shape, after any leading axes) of a
        function of |k|^2 from its values on k_levels, along the last axis."""
        return np.take(levels, self.level_index, axis=-1)

    def meshgrid(self):
        """Coordinate arrays of the stored points, one per axis, each of
        grid shape: the whole lattice on Grid, x >= 0 on EvenGrid."""
        return np.meshgrid(*([self.axis_x] * self.n), indexing="ij")

    def radius_squared(self):
        """|x|^2 at the stored points (grid shape)."""
        r2 = np.zeros(self.shape)
        for ax in self.meshgrid():
            r2 += ax**2
        return r2


@dataclass(frozen=True, eq=False)
class EvenGrid(Grid):
    """The fields of Grid(n, N, L) that are even in every coordinate,
    u(..., -x_i, ...) = u(..., x_i, ...), stored on M = N/2 + 1 points per
    axis: point r at x = r dx (full index N/2 + r mod N, whose x it takes)
    and mode m at k = m pi/L.  The rest of the lattice is their mirror
    image, and k_levels are the full lattice's exactly.

    fft and ifft are Grid's transforms of the mirrored field restricted to
    the stored modes and points: along each axis, the real matrices

        F[m, r] = (-1)^m w_r cos(2 pi m r / N),
        G[r, m] = (-1)^m w_m cos(2 pi m r / N) / N,

    w_0 = w_{N/2} = 1 and 2 otherwise, the (-1)^m shifting the origin to
    x = -L as Grid's points are.  ``multiplicity`` (grid shape) is the
    product of w over the axes: the number of lattice modes each stored
    mode stands for, and of points each stored point does (point r sits
    at x = r dx and its mirror -r dx, one point at r = 0 and N/2).

    A transform takes n steps, one per axis, each on the leading grid
    axis: one (M x M) @ (M x 2 M^(n-1)) gemm per batch row on the float64
    view of the data, then a transpose copy that moves the axis last.
    """

    def __post_init__(self):
        super().__post_init__()
        m = np.arange(self.N // 2 + 1)
        w = np.where((m == 0) | (m == self.N // 2), 1.0, 2.0)
        # cos(2 pi m r / N), its argument reduced exactly to [0, 2 pi)
        cos = np.cos(2.0 * np.pi * (np.outer(m, m) % self.N) / self.N)
        sign = 1.0 - 2.0 * (m % 2)
        mult = np.ones(())
        for _ in range(self.n):
            mult = np.multiply.outer(mult, w)
        object.__setattr__(self, "forward_matrix", sign[:, None] * cos * w)
        object.__setattr__(self, "inverse_matrix", cos * (sign * w / self.N))
        object.__setattr__(self, "multiplicity", mult)

    def _axes(self, dx):
        axis_x, axis_k = super()._axes(dx)
        m = np.arange(self.N // 2 + 1)
        return axis_x[(self.N // 2 + m) % self.N], np.abs(axis_k[m])

    def fft(self, a):
        """Grid.fft of the mirrored field, on the stored modes; leading axes
        are a batch."""
        return self._transform(self.forward_matrix, a)

    def ifft(self, a):
        """Inverse of fft: Grid.ifft of the mirrored spectrum, on the
        stored points."""
        return self._transform(self.inverse_matrix, a)

    def _transform(self, matrix, a):
        # Every row goes through gemms of one fixed shape, so its bits do
        # not depend on the rest of the batch (one gemm over the folded
        # batch would change shape with it, and BLAS its rounding).  Moving
        # each transformed axis last puts the next one first, and after n
        # steps the axes are back in order; in 1D nothing moves, and the
        # matmul writes the result itself.
        a = np.ascontiguousarray(a, dtype=np.complex128)
        out = np.empty_like(a)
        size = len(matrix)
        lines = size ** (self.n - 1)
        shape = (-1, size, 2 * lines)
        if lines == 1:
            np.matmul(matrix, a.view(np.float64).reshape(shape),
                      out=out.view(np.float64).reshape(shape))
            return out
        moved = out.reshape(-1, lines, size)
        product = None
        for _ in range(self.n):
            product = np.matmul(matrix, a.view(np.float64).reshape(shape), out=product)
            np.copyto(moved, product.view(np.complex128).transpose(0, 2, 1))
            a = out
        return out


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


def gaussian_rows(grid, amplitudes):
    """The samples of gaussian_initial(grid, a) for each amplitude a, one
    row each (bitwise its values), from one exp(-|x|^2 / 2)."""
    profile = np.exp(-0.5 * grid.radius_squared())
    return np.multiply.outer(amplitudes, profile).astype(np.complex128)


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
    sq *= grid.hs_weight(s).ravel()
    scale = grid.cell_volume**2 / grid.box_volume
    norms = np.ldexp(np.sqrt(np.sum(sq, axis=1) * scale), exponent)
    return float(norms[0]) if mag.ndim == grid.n else norms.reshape(mag.shape[:-grid.n])


def sobolev_norm(field, s):
    """Discrete H^s norm; s = 0 gives the L2 norm via Parseval."""
    if s < 0:
        raise ValueError("Sobolev index s must be nonnegative")
    return hs_norm_from_fft(field.grid.fft(field.values), field.grid, s)


def l2_norm(field):
    """Physical-space discrete L2 norm (sum |u|^2 dx^n)^(1/2), each stored
    point weighed by its multiplicity."""
    grid = field.grid
    return float(np.sqrt(np.sum(np.abs(field.values) ** 2 * grid.multiplicity)
                         * grid.cell_volume))


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
    return grid.gather(_free_symbol_of(grid.k_levels, t))


def _free_symbol_of(k_sq, t):
    # free_symbol on an array of |k|^2 values
    return _unit_phase(0.5 * k_sq * t)


def _unit_phase(h):
    """exp(-2i h) elementwise, formed as (1 - i tau)^2 / (1 + tau^2) with
    tau = tan(h): a unit-modulus factor to rounding at any angle (within
    2.2e-16 of cos and sin for |2h| up to 2e9), for one np.tan, which
    costs a fraction of np.sin, np.cos or a complex np.exp.  Every phase
    of the symbols and of the nonlinear rotation is this one."""
    tau = np.tan(h)
    tau_sq = tau * tau
    denom = tau_sq + 1.0
    z = np.empty(np.shape(tau), dtype=np.complex128)
    np.divide(1.0 - tau_sq, denom, out=z.real)
    np.divide(-2.0 * tau, denom, out=z.imag)
    return z
