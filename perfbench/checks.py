"""Output checks and accuracy figures, computed from what the program
returns and writes, without calling back into the package.

Every check is one operation: it is attempted once and either passes or
fails.  Operations are crossings, beta fits, the meta fit, CLI exit
codes, curve files, repeat-run identity and, at seed 0, the comparison
with the reference crossings.
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

# Relative tolerance on a crossing time against the seed-0 reference.
# The solver's own step-size sensitivity bounds what a legitimate change
# may do: EP crossings move by at most 1.35e-4 (relative) when dt goes
# from 1e-3 to 1e-2, NLS ones by 2e-8 from dt 2e-5 to 1e-4.  2e-4 admits
# any change of that size, yet is 100x finer than one sample interval at
# any crossing (EP: 0.01 at t >= 0.42; NLS: 1e-4 at t >= 1e-3) and than
# the gap between neighbouring ladder crossings (EP ~9.6 %, NLS ~58 %),
# so a missed, shifted or swapped crossing fails.
REL_TOL = 2e-4

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_crossings.json")


class Tally:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


# ----------------------------------------------------------------------
# theory (the closed forms the fits are judged against)


def beta_theory(alpha, p, model):
    beta = 1.0 - (p - 1.0) * alpha
    return beta if model == "nls" else beta / (p + 2.0)


def exact_regime(alpha, p):
    return alpha < 1.0 / (p - 1.0)


def theory_slope(p, model):
    return -(p - 1.0) * (1.0 if model == "nls" else 1.0 / (p + 2.0))


# ----------------------------------------------------------------------
# sweep results


def crossing_table(result):
    """{(alpha, epsilon): t_cross} of a sweep result."""
    return {(r.alpha, r.epsilon): r.t_cross for r in result.crossings}


def check_sweep(tally, result, alphas, epsilons):
    """Every crossing, every beta fit and the meta fit must exist."""
    table = crossing_table(result)
    for alpha in alphas:
        for eps in epsilons:
            t = table.get((alpha, eps))
            tally.check(
                t is not None and math.isfinite(t) and t > 0,
                f"crossing alpha={alpha} epsilon={eps!r} missing or not positive",
            )
    fitted = {b.alpha for b in result.betas if math.isfinite(b.beta)}
    for alpha in alphas:
        tally.check(alpha in fitted, f"no beta fit for alpha={alpha}")
    tally.check(
        result.meta_slope is not None and math.isfinite(result.meta_slope),
        "no meta fit of beta against alpha",
    )
    return table


def accuracy(result, p, model):
    """(max |beta_fit - beta_theory| over EXACT-regime alphas,
    |meta_slope - theory_slope|)."""
    errs = [
        abs(b.beta - beta_theory(b.alpha, p, model))
        for b in result.betas
        if exact_regime(b.alpha, p)
    ]
    beta_err = max(errs) if errs else math.inf
    meta = result.meta_slope
    meta_err = abs(meta - theory_slope(p, model)) if meta is not None else math.inf
    return beta_err, meta_err


def relative_shift(table, reference):
    """Largest |t - t_ref| / t_ref over the reference keys (inf if any
    crossing is missing)."""
    worst = 0.0
    for key, t_ref in reference.items():
        t = table.get(key)
        if t is None:
            return math.inf
        worst = max(worst, abs(t - t_ref) / t_ref)
    return worst


def check_against(tally, table, reference, rtol, what):
    """One operation per reference crossing; returns the largest shift."""
    for (alpha, eps), t_ref in reference.items():
        t = table.get((alpha, eps))
        tally.check(
            t is not None and abs(t - t_ref) <= rtol * t_ref,
            f"{what}: crossing alpha={alpha} epsilon={eps!r} is {t!r}, expected {t_ref!r}",
        )
    return relative_shift(table, reference)


# ----------------------------------------------------------------------
# reference crossings recorded at seed 0


def load_reference(workload, path=REFERENCE_PATH):
    with open(path) as fh:
        rows = json.load(fh).get(workload)
    if rows is None:
        raise KeyError(f"{path} holds no reference crossings for {workload}")
    return {(a, e): t for a, e, t in rows}


def save_reference(workload, table, path=REFERENCE_PATH):
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc[workload] = [[a, e, t] for (a, e), t in sorted(table.items())]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# files the CLI writes


def read_curve_file(path):
    """(t, rho) float arrays of a 't,rho' CSV."""
    with open(path) as fh:
        lines = fh.read().split()
    if not lines or lines[0] != "t,rho":
        raise ValueError(f"{path}: header is not 't,rho'")
    rows = [line.split(",") for line in lines[1:]]
    return (
        np.array([float(r[0]) for r in rows]),
        np.array([float(r[1]) for r in rows]),
    )


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_cli_outputs(tally, rc, outdir, result):
    """Exit code 0, one curve CSV per curve, each parsing back bit-exactly
    to the in-memory curve it was written from."""
    tally.check(rc == 0, f"epnls sweep exited with code {rc}")
    files = glob.glob(os.path.join(outdir, "curves", "*", "*.csv"))
    by_name = {os.path.basename(f): f for f in files}
    tally.check(
        len(files) == len(result.curves),
        f"{len(files)} curve files for {len(result.curves)} curves",
    )
    for curve in result.curves:
        path = by_name.get(f"delta={curve.delta:.17g}.csv")
        ok = False
        if path is not None:
            t, rho = read_curve_file(path)
            ok = _same_bits(t, curve.times) and _same_bits(rho, curve.rho)
        tally.check(ok, f"curve delta={curve.delta!r} not written bit-exactly")
