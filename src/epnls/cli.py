"""Command-line surface: simulate, sweep, verify, lemma, predict.

Exit codes: 0 success; 2 configuration/usage error, raised before any
output is written (a solver clock or grid the solver cannot run, and an
unusable --out or --config path, included); 3 numerical failure, a
failed verify check or a locked output directory; 4 incomplete sweep
(some crossings or fits failed; partial outputs are retained).  Results
land under the configured output directory together with a manifest.json
inventory.  Environment overrides: EPNLS_OUTDIR for the output
directory, EPNLS_WORKERS for the sweep worker count.

verify prints verify_checks(), the one solver-invariant battery, whose
values acceptance criteria 6 and 9 assert too.  Tolerances: transform
roundtrip 1e-13; Parseval identity, propagator isometry and semigroup
1e-12; expm oracle (a per-mode eigendecomposition, numpy only) and EP
mass conservation 1e-10; time reversal 1e-8; lemma root residuals 1e-12;
the exciton bound ratio is reported only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigError, parse_config, serialize_config
from .evolution import (
    EP,
    EPState,
    ModelParams,
    SolverBlowupError,
    StepSpec,
    _WEIGHTS,
    evolve_ep,
    evolve_linear_b,
    evolve_nls,
    model_stream,
    zero_state,
)
from .grid import (
    Field,
    free_propagate,
    gaussian_initial,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from .runio import (
    ManifestBuilder,
    OutputLock,
    atomic_write_text,
    fmt,
    sha256_hex,
    write_csv,
)
from .sweep import config_hash, run_algorithm_a, sample_count, solver_setup, write_curves
from .theory import (
    LemmaQInput,
    NoRealRootsError,
    beta_predict,
    bound_constants,
    existence_horizon,
    lemma_roots,
    q_eval,
    y1_pow_p_series,
    y1_series,
    y_star,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCOMPLETE = 4


def _resolve_outdir(args_out, cfg_outdir):
    return os.environ.get("EPNLS_OUTDIR") or args_out or cfg_outdir


def _resolve_workers(flag, cfg_workers):
    """--workers, else EPNLS_WORKERS, else the config's worker count."""
    name, raw = "--workers", flag
    if flag is None:
        name, raw = "EPNLS_WORKERS", os.environ.get("EPNLS_WORKERS")
    if raw is None or raw == "":
        return cfg_workers
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{name} must be a positive integer, got {raw!r}")
    return workers


def _quiet_floating_point(command):
    """Run a solver command under one np.errstate that silences numpy's
    floating-point warnings.  The solver checks its own results (a field
    that stops being finite or a rotation angle past 2^52 rad raises
    SolverBlowupError, a vanishing truth norm ZeroDivisionError), so a
    blow-up exits 3 with the message that names it alone.  Worker processes forked by a sweep inherit the state."""

    @functools.wraps(command)
    def run(args):
        with np.errstate(all="ignore"):
            return command(args)

    return run


# --------------------------------------------------------------------------
# simulate


@_quiet_floating_point
def cmd_simulate(args):
    cfg = parse_config(args.config)
    if args.delta is not None and not 0 <= args.delta < np.inf:
        raise ConfigError(f"--delta must be finite and nonnegative, got {args.delta}")
    delta = 1.0 if args.delta is None else args.delta
    outdir = _resolve_outdir(args.out, cfg.outdir)

    grid, params, step = solver_setup(cfg)
    phi0 = gaussian_initial(grid, delta)

    # advisory only: the contraction argument guarantees existence up to
    # this horizon (r = 1/2, field cap at twice the initial norm); a zero
    # field exists for all time
    cap = 2.0 * sobolev_norm(phi0, cfg.s)
    horizon = existence_horizon(cap, 0.5, cfg.gamma, cfg.g) if cap > 0 else np.inf
    if cfg.T > horizon:
        print(
            f"advisory: horizon T = {fmt(cfg.T)} exceeds the guaranteed "
            f"existence time {horizon:.4g} (Ktilde = 1); results past it "
            "rely on the solver, not the theory"
        )

    with OutputLock(outdir):
        manifest = ManifestBuilder(outdir, config_hash(cfg), __version__)
        atomic_write_text(os.path.join(outdir, "config.ini"), serialize_config(cfg))
        try:
            if cfg.model == "ep":
                traj = evolve_ep(zero_state(phi0), params, step, cfg.T, record="norms")
                rows = zip(traj.times, traj.norm_phi, traj.norm_psi, traj.mass)
                header = ["t", "norm_phi", "norm_psi", "mass"]
            else:
                traj = evolve_nls(phi0, params, step, cfg.T, record="norms")
                rows = zip(traj.times, traj.norm_phi, traj.mass)
                header = ["t", "norm_phi", "mass"]
        except SolverBlowupError as err:
            manifest.add_job("simulate", "failed", f"delta={fmt(delta)}: {err}")
            manifest.write()
            print(f"numerical failure: {err}", file=sys.stderr)
            return EXIT_NUMERICAL
        write_csv(os.path.join(outdir, "trajectory.csv"), header,
                  [tuple(float(v) for v in row) for row in rows])
        drift = traj.mass_drift()
        manifest.add_job(
            "simulate", "ok", f"delta={fmt(delta)}, mass drift {drift:.3e}"
        )
        manifest.write()
    print(f"trajectory written to {outdir}/trajectory.csv (mass drift {drift:.3e})")
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep


@_quiet_floating_point
def cmd_sweep(args):
    cfg = parse_config(args.config)
    config_text = serialize_config(cfg)
    outdir = _resolve_outdir(args.out, cfg.outdir)
    cfg = replace(cfg, workers=_resolve_workers(args.workers, cfg.workers))

    with OutputLock(outdir):
        manifest = ManifestBuilder(outdir, config_hash(cfg), __version__)
        atomic_write_text(os.path.join(outdir, "config.ini"), config_text)
        try:
            result = run_algorithm_a(cfg)
        except (SolverBlowupError, ZeroDivisionError) as err:
            manifest.add_job("sweep", "failed", str(err))
            manifest.write()
            print(f"numerical failure: {err}", file=sys.stderr)
            return EXIT_NUMERICAL

        write_curves(outdir, cfg, result.curves)
        write_csv(
            os.path.join(outdir, "crossings.csv"),
            ["alpha", "delta", "epsilon", "t_cross"],
            [(r.alpha, r.delta, r.epsilon, r.t_cross) for r in result.crossings],
        )
        write_csv(
            os.path.join(outdir, "betas.csv"),
            ["alpha", "beta", "intercept", "r2", "npoints"],
            [(b.alpha, b.beta, b.intercept, b.r_squared, b.npoints)
             for b in result.betas],
        )
        summary = {
            "config_hash": manifest.config_hash,
            "config": config_text,
            "tool_version": __version__,
            "meta_fit": {
                "slope": result.meta_slope,
                "intercept": result.meta_intercept,
            },
            "theory": {
                "slope": result.theory_slope,
                "intercept": result.theory_intercept,
            },
            "betas": [
                {"alpha": b.alpha, "beta": b.beta, "intercept": b.intercept,
                 "r_squared": b.r_squared, "npoints": b.npoints}
                for b in result.betas
            ],
            "solver": {"T": cfg.T, "dt": cfg.dt, "samples": sample_count(cfg),
                       "stages": len(_WEIGHTS[cfg.model, cfg.n]),
                       "comparator": cfg.comparator},
            "curves": [
                {"delta": curve.delta, "epsilon_comp": curve.epsilon_comp,
                 "t_stop": float(curve.times[-1])}
                for curve in result.curves
            ],
            "failures": result.failures,
        }
        atomic_write_text(
            os.path.join(outdir, "summary.json"), json.dumps(summary, indent=2)
        )
        status = "ok" if not result.failures else "incomplete"
        manifest.add_job("sweep", status, f"{len(result.failures)} failures")
        manifest.write()

    for b in result.betas:
        pred = beta_predict(b.alpha, cfg.p, cfg.model)
        print(
            f"alpha={b.alpha!r}  beta={b.beta:.5f}  "
            f"theory={pred.beta:.5f} ({pred.regime})  r2={b.r_squared:.6f}"
        )
    if result.meta_slope is not None:
        print(
            f"meta-fit: slope {result.meta_slope:.5f} (theory "
            f"{result.theory_slope:.5f}), intercept {result.meta_intercept:.5f} "
            f"(theory {result.theory_intercept:.5f})"
        )
    if result.failures:
        print(f"{len(result.failures)} records failed; see summary.json",
              file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


# --------------------------------------------------------------------------
# verify


def verify_checks():
    """The solver-invariant battery: (name, value, tolerance) rows, a check
    passing when value <= tolerance.  A None tolerance marks a value that
    is reported, not asserted."""
    params = ModelParams()
    grid = make_grid(1, 64, 10.0)
    rng = np.random.default_rng(7)
    phi, psi = (Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
                for _ in range(2))
    rows = []

    back = grid.ifft(grid.fft(phi.values))
    err = np.max(np.abs(back - phi.values)) / np.max(np.abs(phi.values))
    rows.append(("transform roundtrip", err, 1e-13))
    parseval = abs(sobolev_norm(phi, 0.0) - l2_norm(phi)) / l2_norm(phi)
    rows.append(("Parseval identity", parseval, 1e-12))
    iso = abs(sobolev_norm(free_propagate(phi, 0.37), 1.0)
              - sobolev_norm(phi, 1.0)) / sobolev_norm(phi, 1.0)
    rows.append(("free propagator isometry", iso, 1e-12))
    once = free_propagate(phi, 0.75)
    twice = free_propagate(free_propagate(phi, 0.3), 0.45)
    semi = np.max(np.abs(once.values - twice.values)) / np.max(np.abs(once.values))
    rows.append(("propagator semigroup", semi, 1e-12))

    # the 2x2 flow of every mode against the matrix exponential from an
    # eigendecomposition of its Hermitian H_k, V diag(exp(-i t lambda)) V^H
    hats = np.fft.fft([phi.values, psi.values])
    h = np.empty((grid.N, 2, 2))
    h[:, 0, 0], h[:, 0, 1], h[:, 1, 0] = grid.k_squared, params.gamma, params.gamma
    h[:, 1, 1] = params.omega0
    lam, vec = np.linalg.eigh(h)
    errs = []
    for t in np.linspace(0.1, 1.0, 10):
        traj = evolve_linear_b(EPState(phi, psi), params, sample_times=[t])
        expm = (vec * np.exp(-1j * t * lam)[:, None, :]) @ vec.conj().swapaxes(1, 2)
        oracle = np.fft.ifft(np.einsum("mij,jm->im", expm, hats))
        solver = np.array([traj.phi[0].values, traj.psi[0].values])
        errs.append(np.max(np.abs(solver - oracle)) / np.max(np.abs(oracle)))
    rows.append(("linear system vs expm oracle", max(errs), 1e-10))

    big = make_grid(1, 256, 10.0)
    phi0 = gaussian_initial(big, 1.0)
    step = StepSpec(dt=1e-3)
    traj = evolve_ep(zero_state(phi0), params, step, 1.0)
    rows.append(("EP mass conservation", traj.mass_drift(), 1e-10))

    # the reverse leg reads its last state alone, so only that is transformed
    fin, back = traj.final_state(), replace(step, dt=-step.dt)
    for _, spectra in model_stream(EP, big, params, back, 1.0, big.fft(fin.phi.values),
                                   big.fft(fin.psi.values)):
        pass
    rev_phi, rev_psi = big.ifft(np.stack(spectra))
    rev_err = max(sobolev_norm(Field(big, rev_phi - phi0.values), 1.0),
                  sobolev_norm(Field(big, rev_psi), 1.0))
    rows.append(("time reversal", rev_err, 1e-8))

    inp = LemmaQInput(eta=0.1, delta=0.5, p=3.0)
    resid = max(abs(q_eval(y, inp)) for y in lemma_roots(inp))
    rows.append(("lemma root residuals", resid, 1e-12))

    # max ||psi|| / y_star over t <= 0.1: the Sobolev algebra constant is
    # taken as 1, so a ratio above 1 is reported, not asserted
    m_norm = sobolev_norm(phi0, 1.0)
    ratio = max(norm / y_star(t, 1.0, params, M=m_norm, Kp=1.0, alpha=0.0)
                for t, norm in zip(traj.times, traj.norm_psi) if 0 < t <= 0.1)
    rows.append(("exciton bound ratio (Kp=1)", ratio, None))
    return rows


def cmd_verify(args):
    outdir = _resolve_outdir(args.out, None)
    with OutputLock(outdir) if outdir else nullcontext():
        results = []
        for name, value, tol in verify_checks():
            if tol is None:
                verdict, detail = "REPORT", f"{value:.4g} (reported, not asserted)"
            else:
                verdict = "PASS" if value <= tol else "FAIL"
                detail = f"{value:.2e} (tol {tol:.0e})"
            results.append({"check": name, "verdict": verdict, "detail": detail})
            print(f"[{verdict}] {name}: {detail}")
        if outdir:
            manifest = ManifestBuilder(outdir, sha256_hex("verify"), __version__)
            atomic_write_text(
                os.path.join(outdir, "verify_report.json"),
                json.dumps({"tool_version": __version__, "checks": results}, indent=2),
            )
            for entry in results:
                manifest.add_job(entry["check"], entry["verdict"].lower(),
                                 entry["detail"])
            manifest.write()
    failed = sum(entry["verdict"] == "FAIL" for entry in results)
    if failed:
        print(f"{failed} checks failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# --------------------------------------------------------------------------
# lemma and predict tables


def cmd_lemma(args):
    try:
        inp = LemmaQInput(eta=args.eta, delta=args.delta, p=args.p)
        y1, y2 = lemma_roots(inp)
    except NoRealRootsError as err:
        print(f"no real roots: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:  # an argument outside the lemma's domain
        raise ConfigError(f"lemma --eta, --delta, --p: {err}") from None
    rows = {
        "eta": inp.eta,
        "delta": inp.delta,
        "p": inp.p,
        "z": inp.z,
        "y1": y1,
        "y2": y2,
        "y1_series_order3": y1_series(inp, 3),
        "y1_pow_p_series_order2": y1_pow_p_series(inp, 2),
        "residual_y1": q_eval(y1, inp),
        "residual_y2": q_eval(y2, inp),
    }
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(",".join(rows))
        print(",".join(fmt(v) for v in rows.values()))
    return EXIT_OK


def cmd_predict(args):
    rows = []
    try:  # only the arguments' own checks raise here
        params = ModelParams(g=args.g, gamma=args.gamma, p=args.p)
        for alpha in args.alpha:
            pred = beta_predict(alpha, args.p, args.model)
            bc = bound_constants(params, M=args.M, Kp=args.Kp, C=args.C,
                                 C1=args.C1, C2=args.C2, alpha=alpha)
            rows.append({"alpha": alpha, "beta": pred.beta, "regime": pred.regime,
                         "B": bc.B, "B1": bc.B1, "B2": bc.B2, "q": bc.q})
    except ValueError as err:
        raise ConfigError(f"predict: {err}") from None
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print("alpha,beta,regime,B,B1,B2,q")
        for r in rows:
            print(",".join(
                r["regime"] if k == "regime" else fmt(r[k])
                for k in ("alpha", "beta", "regime", "B", "B1", "B2", "q")
            ))
    return EXIT_OK


# --------------------------------------------------------------------------
# dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epnls",
        description="Short-time nonlinear-onset scaling for the "
                    "photon-exciton system and NLS",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="single trajectory with diagnostics")
    sim.add_argument("--config", default=None, help="INI config path")
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument("--delta", type=float, default=None,
                     help="initial amplitude (default 1)")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="full crossing-time sweep")
    sw.add_argument("--config", default=None)
    sw.add_argument("--out", default=None)
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("verify", help="solver invariant self-test")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    lem = sub.add_parser("lemma", help="roots and series of eta y^p - y + delta")
    lem.add_argument("--eta", type=float, required=True)
    lem.add_argument("--delta", type=float, required=True)
    lem.add_argument("--p", type=float, default=3.0)
    lem.add_argument("--json", action="store_true")
    lem.set_defaults(func=cmd_lemma)

    pre = sub.add_parser("predict", help="beta(alpha) and bound constants")
    pre.add_argument("--alpha", type=float, action="append", required=True)
    pre.add_argument("--p", type=float, default=ModelParams.p)
    pre.add_argument("--model", choices=("ep", "nls"), default="ep")
    pre.add_argument("--g", type=float, default=ModelParams.g)
    pre.add_argument("--gamma", type=float, default=ModelParams.gamma)
    pre.add_argument("--M", type=float, default=1.0)
    pre.add_argument("--Kp", type=float, default=1.0)
    pre.add_argument("--C", type=float, default=1.0)
    pre.add_argument("--C1", type=float, default=1.0)
    pre.add_argument("--C2", type=float, default=1.0)
    pre.add_argument("--json", action="store_true")
    pre.set_defaults(func=cmd_predict)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # its message names the path
        print(f"path error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
