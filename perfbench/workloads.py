"""The benchmark's workloads: each turns a workload seed into the inputs
the program receives, and nothing else.

Seed 0 gives exactly the reference configurations.  Any other seed
raises every tolerance of the epsilon ladder to the power 1 + u, with u
drawn uniformly from [-LADDER_JITTER, LADDER_JITTER].  That moves the
log of each ladder endpoint by up to 0.3 % (the tolerances themselves by
up to 1.4 % at 1e-2 and 2.1 % at 1e-3) and so changes every amplitude
delta = eps^alpha: no curve of one seed can stand in for another.
Raising to a common power keeps the ladder's shape, so the sweep does
the same work at every seed.  Amplitudes that coincide on the reference
ladder, such as (alpha 0.3, eps 1e-2) and (alpha 0.2, eps 1e-3), share
one curve; rounding could separate them after the jitter, so the later
tolerance is nudged by a few ulps until they coincide again.  The
default sweeps therefore compute 18 curves at every seed.

The jitter is kept this small because the accuracy metrics follow the
ladder: on ep_sweep the meta-slope error changes by about 7 % per 1 % of
u, and its spread across seeds has to stay well inside its bound.
"""

from __future__ import annotations

import numpy as np

LADDER_JITTER = 0.003

EP_SWEEP = "ep_sweep"
NLS_SWEEP = "nls_sweep"
EP_2D_COMPOSITE = "ep_2d_composite"
NLS_RERUN_WARM = "nls_rerun_warm"
WORKLOADS = (EP_SWEEP, NLS_SWEEP, EP_2D_COMPOSITE, NLS_RERUN_WARM)

# the reference epsilon ladders (seed 0); DEFAULT_EPSILONS of the package
# for the three default-ladder workloads
_LADDER_6 = tuple(np.logspace(-2.0, -3.0, 6))
_LADDER_4 = tuple(np.logspace(-2.0, -3.0, 4))
_DEFAULT_ALPHAS = (0.0, 0.1, 0.2, 0.3)


def ladder_power(seed):
    """Exponent applied to every ladder tolerance; exactly 1 at seed 0."""
    if seed == 0:
        return 1.0
    return 1.0 + float(np.random.default_rng(seed).uniform(-LADDER_JITTER, LADDER_JITTER))


def jittered_ladder(ladder, seed, alphas=_DEFAULT_ALPHAS):
    if seed == 0:
        return tuple(ladder)
    k = ladder_power(seed)
    out = [float(e) ** k for e in ladder]
    # amplitudes eps^alpha equal on the reference ladder stay equal
    for i, j, a, b in _coincidences(ladder, alphas):
        target = out[i] ** a
        for ulps in sorted(range(-64, 65), key=abs):
            x = out[j]
            step = np.inf if ulps > 0 else 0.0
            for _ in range(abs(ulps)):
                x = float(np.nextafter(x, step))
            if x**b == target:
                out[j] = x
                break
    return tuple(out)


def _coincidences(ladder, alphas):
    """(i, j, a, b) with i < j and ladder[i]^a == ladder[j]^b, a, b > 0."""
    return [
        (i, j, a, b)
        for i in range(len(ladder))
        for j in range(i + 1, len(ladder))
        for a in alphas
        for b in alphas
        if a > 0 and b > 0 and float(ladder[i]) ** a == float(ladder[j]) ** b
    ]


def sweep_kwargs(workload, seed):
    """SweepConfig keyword arguments of a workload's sweep (for
    nls_rerun_warm, of the sweep its INI config describes)."""
    if workload == EP_SWEEP:
        return {"model": "ep", "epsilon_set": jittered_ladder(_LADDER_6, seed)}
    if workload in (NLS_SWEEP, NLS_RERUN_WARM):
        return {"model": "nls", "epsilon_set": jittered_ladder(_LADDER_6, seed)}
    if workload == EP_2D_COMPOSITE:
        return {
            "model": "ep",
            "n": 2,
            "N": 64,
            "comparator": "composite",
            "c1": 1.0,
            "alpha_set": (0.0, 0.2),
            "epsilon_set": jittered_ladder(_LADDER_4, seed, (0.0, 0.2)),
        }
    raise ValueError(f"unknown workload {workload!r}")


def calibration_kernel(workload):
    """Name of the calibrate kernel whose operation mix matches the
    workload's sweep."""
    return {EP_2D_COMPOSITE: "2d", NLS_RERUN_WARM: "csv"}.get(workload, "1d")


def rerun_ini(seed, cache_dir):
    """INI config of nls_rerun_warm: the default NLS sweep with a curve
    cache.  Tolerances are written with 17 significant digits so they
    parse back bit-exactly."""
    ladder = ",".join(f"{e:.17g}" for e in jittered_ladder(_LADDER_6, seed))
    return (
        "[physics]\n"
        "model = nls\n"
        "\n"
        "[sweep]\n"
        f"epsilons = {ladder}\n"
        "\n"
        "[output]\n"
        f"cache_dir = {cache_dir}\n"
    )
