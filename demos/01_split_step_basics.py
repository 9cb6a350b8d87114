"""Spectral grid and split-step solver basics.

Builds the periodic grid, evolves the coupled photon-exciton system from
a Gaussian photon pulse with an initially absent exciton field, and
shows the solver's exactness guarantees: machine-level mass conservation
at any step size, and time reversibility.

Run:  python3 demos/01_split_step_basics.py
"""

import numpy as np

from epnls import (
    EPState,
    Field,
    ModelParams,
    StepSpec,
    evolve_ep,
    gaussian_initial,
    l2_norm,
    make_grid,
    sobolev_norm,
    zero_state,
)

grid = make_grid(n=1, N=256, L=10.0)
print(f"grid: [{-grid.L}, {grid.L}) with N = {grid.N}, dx = {grid.dx:.4f}")
print(f"wavenumbers span [{grid.axis_k.min():.2f}, {grid.axis_k.max():.2f}]")

phi0 = gaussian_initial(grid, 1.0)
print(f"\ninitial photon pulse: ||phi0||_L2 = {l2_norm(phi0):.6f} "
      f"(continuum value pi^(1/4) = {np.pi**0.25:.6f})")
print(f"                      ||phi0||_H1 = {sobolev_norm(phi0, 1.0):.6f}")

params = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
step = StepSpec(dt=1e-3)  # one sample per step

print("\nevolving the nonlinear system to T = 2 ...")
traj = evolve_ep(zero_state(phi0), params, step, T=2.0, record="norms")

print(f"{'t':>6} {'||phi||_H1':>12} {'||psi||_H1':>12} {'mass':>20}")
for i in range(0, len(traj.times), 400):
    print(f"{traj.times[i]:6.1f} {traj.norm_phi[i]:12.6f} "
          f"{traj.norm_psi[i]:12.6f} {traj.mass[i]:20.15f}")

print(f"\nmass drift over the whole run: {traj.mass_drift():.2e}  "
      "(both substeps are exactly unitary)")

print("\ntime reversal: integrate forward to T = 1, then back with dt -> -dt")
fwd = evolve_ep(zero_state(phi0), params, StepSpec(dt=1e-3), 1.0)
final = fwd.final_state()
back = evolve_ep(EPState(final.phi, final.psi, 0.0), params,
                 StepSpec(dt=-1e-3), 1.0)
recovered = back.final_state()
err = sobolev_norm(Field(grid, recovered.phi.values - phi0.values), 1.0)
print(f"||phi(recovered) - phi0||_H1 = {err:.2e}")
