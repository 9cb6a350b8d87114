"""Machine-speed calibration for timings taken on a shared, noisy box.

The speed this process gets drifts by 20-100 % over seconds to minutes as
other tenants load the host, whatever the program does.  A fixed kernel,
timed right before and right after each block of timed work, measures
that speed; each wall time in the block is scaled by
REFERENCE_S / (mean of the two kernel times), which turns it into seconds
on a machine where the kernel takes REFERENCE_S.

Each kernel is a frozen copy of the operation mix that dominates one
kind of sweep, written against numpy and the standard library alone, so
no change to the package changes it:

- "1d": Strang steps of a 256-point photon-exciton pair (two forward and
  two inverse FFTs, a 2x2 per-mode multiply, a pointwise phase rotation),
  the call-overhead-bound stepping of the default sweeps;
- "2d": the same steps on a 64x64 grid, compute-bound;
- "csv": formatting, writing, reading and parsing a 2,001-row CSV of
  17-digit floats, the work of a sweep served from the curve cache.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

# (steps, grid shape) of the numpy kernels
NUMPY_KERNELS = {"1d": (8000, (256,)), "2d": (1500, (64, 64))}
CSV_ROUNDS = 50
# kernel time on the reference machine (a 2-vCPU Intel Xeon VM, Python
# 3.11.7, numpy 2.4.6, at its usual load); fixes the scale only
REFERENCE_S = 0.55


def numpy_kernel(steps, shape):
    axes = np.meshgrid(*[np.linspace(-10.0, 10.0, n, endpoint=False) for n in shape], indexing="ij")
    freqs = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, 20.0 / n) for n in shape], indexing="ij")
    k2 = sum(k**2 for k in freqs)
    dt = 1e-3
    phase = np.exp(-0.5j * (k2 + 1.0) * dt)
    u11 = phase * np.cos(dt)
    u12 = phase * (-1j * np.sin(dt))
    phi = np.exp(-0.5 * sum(x**2 for x in axes)).astype(np.complex128)
    psi = np.zeros(shape, dtype=np.complex128)
    t0 = time.perf_counter()
    for _ in range(steps):
        a = np.abs(psi)
        psi = psi * np.exp(-1j * dt * (a * a))
        phi_hat = np.fft.fftn(phi)
        psi_hat = np.fft.fftn(psi)
        phi = np.fft.ifftn(u11 * phi_hat + u12 * psi_hat)
        psi = np.fft.ifftn(u12 * phi_hat + u11 * psi_hat)
    return time.perf_counter() - t0


def csv_kernel(rounds, path):
    values = np.random.default_rng(0).random(4002).tolist()
    t0 = time.perf_counter()
    for _ in range(rounds):
        text = "t,rho\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(values[0::2], values[1::2]))
        with open(path, "w") as fh:
            fh.write(text)
        with open(path) as fh:
            next(fh)
            parsed = [float(x) for line in fh for x in line.split(",")]
    elapsed = time.perf_counter() - t0
    os.remove(path)
    if parsed != values:
        raise RuntimeError("calibration CSV did not read back")
    return elapsed


def kernel(name, workdir):
    """The named kernel as a function of no arguments; the CSV kernel
    writes its file in workdir."""
    if name == "csv":
        return functools.partial(csv_kernel, CSV_ROUNDS, os.path.join(workdir, "calibrate.csv"))
    return functools.partial(numpy_kernel, *NUMPY_KERNELS[name])


class Calibrated:
    """Scales wall times by the kernel time measured around them."""

    def __init__(self, kernel):
        self.kernel = kernel
        kernel()  # the first run pays for FFT plans, imports, first-touch memory
        self.last = kernel()
        self.kernel_times = [self.last]

    def block(self, wall_times):
        """Scale the wall times of the work done since the last kernel run."""
        now = self.kernel()
        self.kernel_times.append(now)
        scale = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return [t * scale for t in wall_times]
