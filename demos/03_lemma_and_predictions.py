"""Closed-form side of the package: the scalar root equation, its series,
the a-priori exciton bound, and the predicted crossing exponents.

Run:  python3 demos/03_lemma_and_predictions.py
"""

import numpy as np

from epnls import (
    LemmaQInput,
    ModelParams,
    StepSpec,
    beta_predict,
    bound_constants,
    evolve_ep,
    existence_horizon,
    gaussian_initial,
    lemma_roots,
    make_grid,
    q_eval,
    sobolev_norm,
    y1_series,
    y_star,
    zero_state,
)

print("roots of Q(y) = eta y^p - y + delta, p = 3")
print(f"{'eta':>8} {'delta':>6} {'y1':>12} {'y2':>12} {'|Q(y1)|':>9}")
for eta, delta in [(0.1, 0.5), (0.01, 0.5), (0.01, 0.9), (0.2, 0.3)]:
    inp = LemmaQInput(eta=eta, delta=delta, p=3.0)
    y1, y2 = lemma_roots(inp)
    print(f"{eta:8.3f} {delta:6.2f} {y1:12.8f} {y2:12.6f} "
          f"{abs(q_eval(y1, inp)):9.1e}")

print("\nsmall-root series vs the exact root (delta = 0.5, p = 3)")
print(f"{'eta':>8} {'z':>9} {'order 1':>10} {'order 2':>10} {'order 3':>10}")
for eta in (1e-2, 3e-2, 1e-1):
    inp = LemmaQInput(eta=eta, delta=0.5, p=3.0)
    y1, _ = lemma_roots(inp)
    errs = [abs(y1_series(inp, k) - y1) for k in (1, 2, 3)]
    print(f"{eta:8.0e} {inp.z:9.2e} " + " ".join(f"{e:10.2e}" for e in errs))
print("each extra order buys one extra power of z = eta delta^(p-1)")

params = ModelParams(g=1.0, gamma=1.0, omega0=1.0, p=3.0, s=1.0)
grid = make_grid(1, 256, 10.0)
phi0 = gaussian_initial(grid, 1.0)
m = sobolev_norm(phi0, 1.0)

print("\na-priori exciton bound y_star(t) against the measured ||psi(t)||")
traj = evolve_ep(zero_state(phi0), params, StepSpec(dt=1e-3), 0.1, record="norms")
print(f"{'t':>6} {'||psi||':>12} {'y_star':>12} {'ratio':>8}")
for i in range(10, len(traj.times), 30):
    t = traj.times[i]
    bound = y_star(t, 1.0, params, M=m, Kp=1.0, alpha=0.0)
    print(f"{t:6.2f} {traj.norm_psi[i]:12.8f} {bound:12.8f} "
          f"{traj.norm_psi[i] / bound:8.4f}")
print("(the algebra constant is set to 1, so the ratio is a diagnostic)")

print("\npredicted crossing exponents beta(alpha), p = 3")
print(f"{'alpha':>6} {'coupled system':>15} {'NLS':>8}  regime")
for alpha in (0.0, 0.1, 0.2, 0.3, 0.5):
    ep = beta_predict(alpha, 3.0, "ep")
    nls = beta_predict(alpha, 3.0, "nls")
    print(f"{alpha:6.2f} {ep.beta:15.4f} {nls.beta:8.4f}  {ep.regime}")

bc = bound_constants(params, M=m, Kp=1.0, C=1.0, C1=0.0, C2=1.0, alpha=0.0)
print(f"\nbound constants at alpha = 0: B = {bc.B:.4f}, B1 = {bc.B1:.4f}, "
      f"B2 = {bc.B2:.4f}, remainder exponent q = {bc.q:.2f}")

horizon = existence_horizon(2.0 * m, 0.5, gamma=1.0, g=1.0)
print(f"guaranteed existence horizon (r = 1/2, cap 2||phi0||): "
      f"T = {horizon:.4f} (advisory; the unitary solver runs far past it)")
