"""The full crossing-time sweep: measure beta(alpha) and compare with
theory, for both the coupled photon-exciton system and plain NLS.

For each tolerance eps the initial amplitude is delta = eps^alpha; the
crossing time is where the relative error between the nonlinear run and
its linear comparator first reaches eps.  Regressing log t against
log eps per alpha gives the measured beta_alpha; a second regression of
beta against alpha recovers the full law.  Writes crossings/betas CSVs
to sweep_output/ under the working directory.

Run:  python3 demos/04_scaling_sweep.py
"""

import os

import numpy as np

from epnls import SweepConfig, beta_predict, run_algorithm_a
from epnls.runio import write_csv

OUT = "sweep_output"


def show(result, model, law):
    print(f"{'alpha':>6} {'beta (measured)':>16} {'beta (theory)':>14} "
          f"{'r^2':>9} {'points':>7}")
    for b in result.betas:
        pred = beta_predict(b.alpha, result.config.p, model)
        print(f"{b.alpha:6.2f} {b.beta:16.5f} {pred.beta:14.5f} "
              f"{b.r_squared:9.6f} {b.npoints:7d}")
    print(f"meta-fit:  beta ~ {result.meta_intercept:.4f} "
          f"{result.meta_slope:+.4f} alpha")
    print(f"theory:    beta = {result.theory_intercept:.4f} "
          f"{result.theory_slope:+.4f} alpha    ({law})")


print("=== coupled photon-exciton system, p = 3, n = 1 ===")
ep_cfg = SweepConfig(model="ep", alpha_set=(0.0, 0.1, 0.2, 0.3))
ep = run_algorithm_a(ep_cfg)
show(ep, "ep", "beta = (1 - (p-1) alpha) / (p+2)")

print("\n=== NLS, p = 3, n = 1 ===")
nls_cfg = SweepConfig(model="nls", alpha_set=(0.0, 0.1, 0.2))
nls = run_algorithm_a(nls_cfg)
show(nls, "nls", "beta = 1 - (p-1) alpha")

print("\nthe nonlinearity needs a factor (p+2) longer, in the exponent,")
print("to reach the photon when it lives on the hidden exciton field")

os.makedirs(OUT, exist_ok=True)
write_csv(
    os.path.join(OUT, "crossings.csv"),
    ["model", "alpha", "delta", "epsilon", "t_cross"],
    [("ep", r.alpha, r.delta, r.epsilon, r.t_cross) for r in ep.crossings]
    + [("nls", r.alpha, r.delta, r.epsilon, r.t_cross) for r in nls.crossings],
)
write_csv(
    os.path.join(OUT, "betas.csv"),
    ["model", "alpha", "beta", "intercept", "r2", "npoints"],
    [("ep", b.alpha, b.beta, b.intercept, b.r_squared, b.npoints)
     for b in ep.betas]
    + [("nls", b.alpha, b.beta, b.intercept, b.r_squared, b.npoints)
       for b in nls.betas],
)
print(f"\nwrote {OUT}/crossings.csv and {OUT}/betas.csv")
