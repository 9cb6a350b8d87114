"""Benchmark of the epnls beta(alpha) sweep.

    python3 perfbench/run.py --workload ep_sweep --seed 0 --seconds 15 --trace 0

Runs one workload (see perfbench/README.md) in this process, with one
thread, for about --seconds seconds of whole sweeps, checks every output,
and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced
sweeps and reports the per-layer metrics instead.  Results and span
dumps are also written under .perfbench_work/ at the repository root.

``--write-reference`` records the seed-0 crossings of the workload in
perfbench/reference_crossings.json instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one process, one thread: no BLAS or OpenMP pool (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("EPNLS_OUTDIR", "EPNLS_WORKERS"):
    os.environ.pop(_var, None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
BLOCK_S = 2.0  # least timed work between two calibration-kernel runs

sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "beta_err_max": "1",
    "meta_slope_err": "1",
}
PER_LAYER_UNITS = {
    "evolution.truth_s": "s",
    "evolution.truth_calls": "count",
    "evolution.truth_distinct_ratio": "ratio",
    "evolution.steps": "count",
    "evolution.step_us": "us",
    "evolution.fft_calls": "count",
    "evolution.fft_per_step": "ratio",
    "evolution.fft_bytes_computed": "B",
    "evolution.comparator_s": "s",
    "evolution.rho_s": "s",
    "evolution.samples": "count",
    "evolution.alloc_peak_mb": "MiB",
    "grid.hs_norm_calls": "count",
    "grid.hs_norm_s": "s",
    "grid.free_propagate_calls": "count",
    "grid.free_propagate_s": "s",
    "sweep.curves": "count",
    "sweep.cache_hit_ratio": "ratio",
    "sweep.crossing_s": "s",
    "sweep.regress_s": "s",
    "sweep.t_cross_shift_max": "ratio",
    "runio.read_s": "s",
    "runio.read_bytes": "B",
    "runio.write_s": "s",
    "runio.write_bytes": "B",
    "runio.files_written": "count",
    "config.parse_s": "s",
    "cli.output_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_epnls():
    sys.path.insert(0, SRC)
    try:
        import epnls.cli
        import epnls.sweep
    except ImportError as err:
        raise BenchError(f"cannot import epnls from {SRC}: {err}") from None
    if os.path.dirname(os.path.abspath(epnls.__file__)) != os.path.join(SRC, "epnls"):
        raise BenchError(f"imported epnls from {epnls.__file__}, not from {SRC}")
    return epnls


def _import_seconds():
    """Wall time of a fresh interpreter importing the package.  No
    timeout: with one, subprocess polls the child in sleeps of up to
    50 ms, which would quantize the time."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import epnls"], env=env, check=True)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# workloads


class LibrarySweep:
    """run_algorithm_a on a generated SweepConfig."""

    def __init__(self, epnls, name, seed, workdir):
        self.epnls = epnls
        self.config = epnls.sweep.SweepConfig(**workloads.sweep_kwargs(name, seed))

    def setup(self, tally):
        """A fresh interpreter importing the package, several times."""
        return statistics.median(_import_seconds() for _ in range(SETUP_REPEATS)), None

    def sweep(self, tally):
        t0 = time.perf_counter()
        result = self.epnls.sweep.run_algorithm_a(self.config)
        return time.perf_counter() - t0, result

    def close(self):
        pass


class CliRerun:
    """`epnls sweep` in this process on an INI config whose curve cache the
    set-up fills; every sweep writes into a fresh output directory."""

    def __init__(self, epnls, name, seed, workdir):
        self.epnls = epnls
        self.config = epnls.sweep.SweepConfig(**workloads.sweep_kwargs(name, seed))
        self.ini = os.path.join(workdir, "run.ini")
        with open(self.ini, "w") as fh:
            fh.write(workloads.rerun_ini(seed, os.path.join(workdir, "cache")))
        self.outdir = os.path.join(workdir, "out")
        self.captured = []
        # keep the result the command computes, to check its files against
        self._cli_run = epnls.cli.run_algorithm_a

        def capture(*args, **kwargs):
            result = self._cli_run(*args, **kwargs)
            self.captured.append(result)
            return result

        epnls.cli.run_algorithm_a = capture

    def _run_cli(self, tally):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.captured.clear()
        gc.collect()
        argv = ["sweep", "--config", self.ini, "--out", self.outdir]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = self.epnls.cli.main(argv)
            elapsed = time.perf_counter() - t0
        if not self.captured:
            raise BenchError("epnls sweep returned without running the sweep")
        result = self.captured[-1]
        checks.check_cli_outputs(tally, rc, self.outdir, result)
        return elapsed, result

    def setup(self, tally):
        """The cold cache fill."""
        return self._run_cli(tally)

    def sweep(self, tally):
        return self._run_cli(tally)

    def close(self):
        self.epnls.cli.run_algorithm_a = self._cli_run


def make_workload(epnls, name, seed, workdir):
    cls = CliRerun if name == workloads.NLS_RERUN_WARM else LibrarySweep
    return cls(epnls, name, seed, workdir)


# ----------------------------------------------------------------------
# measuring


class Run:
    """State of one benchmark run: outputs checked, times and spans kept."""

    def __init__(self, args, epnls, workdir):
        self.args = args
        self.epnls = epnls
        self.workdir = workdir
        self.workload = make_workload(epnls, args.workload, args.seed, workdir)
        self.config = self.workload.config
        self.tally = checks.Tally()
        self.reference = None
        if args.seed == 0 and not args.write_reference:
            self.reference = checks.load_reference(args.workload)
        self.first = None
        self.block_sizes = []
        self.shift = 0.0
        self.accuracy = None

    def judge(self, result):
        c = self.config
        table = checks.check_sweep(self.tally, result, c.alpha_set, c.epsilon_set)
        if self.first is None:
            self.first = table
            self.accuracy = checks.accuracy(result, c.p, c.model)
        else:
            self.tally.check(table == self.first, "crossings differ between repeated sweeps")
        if self.reference is not None:
            shift = checks.check_against(
                self.tally, table, self.reference, checks.REL_TOL, "seed-0 reference"
            )
        else:
            shift = checks.relative_shift(table, self.first)
        self.shift = max(self.shift, shift)

    def setup(self):
        """Calibrated set-up time; starts the calibration clock."""
        kernel = calibrate.kernel(workloads.calibration_kernel(self.args.workload), self.workdir)
        self.clock = calibrate.Calibrated(kernel)
        wall, result = self.workload.setup(self.tally)
        if result is not None:
            self.judge(result)
        return self.clock.block([wall])[0]

    def one_sweep(self):
        gc.collect()
        elapsed, result = self.workload.sweep(self.tally)
        self.judge(result)
        return elapsed

    def sweeps(self, seconds, least, before=None, after=None):
        """Whole sweeps until `seconds` have passed (at least `least`), in
        blocks of at least BLOCK_S seconds with the calibration kernel
        between blocks.  Past the first `least` sweeps, a sweep starts only
        before `seconds` run out, so slow sweeps shorten the run.  The hooks
        run outside the timed region, with the sweep's index.  Returns
        (wall times, calibrated times)."""
        wall, scaled = [], []
        t_end = time.perf_counter() + seconds
        while len(wall) < least or time.perf_counter() < t_end:
            block = []
            t_block = time.perf_counter() + BLOCK_S
            while not block or time.perf_counter() < min(t_block, t_end):
                if before:
                    before(len(wall) + len(block))
                block.append(self.one_sweep())
                if after:
                    after(len(wall) + len(block) - 1)
            wall.extend(block)
            scaled.extend(self.clock.block(block))
            self.block_sizes.append(len(block))
        return wall, scaled


def timed(run, args):
    setup_s = run.setup()
    wall, times = run.sweeps(args.seconds, least=1)
    beta_err, meta_err = run.accuracy
    metrics = {
        "sweep_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "beta_err_max": beta_err,
        "meta_slope_err": meta_err,
    }
    extra = {
        "sweeps": len(times),
        "sweep_times": times,
        "sweep_wall_times": wall,
        "kernel_times": run.clock.kernel_times,
        "block_sizes": run.block_sizes,
    }
    if len(times) >= 100:  # at least ten samples beyond p90
        extra["sweep_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return metrics, END_TO_END_UNITS, extra


def _alloc_probe(run):
    """tracemalloc peak of computing the sweep's first curve from scratch."""
    sweep = run.epnls.sweep
    if not all(hasattr(sweep, f) for f in ("compute_error_curve", "curve_specs")):
        return None
    try:
        spec = sweep.curve_specs(run.config)[0]
        return spans.alloc_peak_mib(lambda: sweep.compute_error_curve(run.config, *spec))
    except TypeError:  # signature changed
        return None


def traced(run, args):
    run.setup()
    alloc = _alloc_probe(run)
    tracer = spans.Tracer()
    bounds = {}  # traced sweep index -> (first span, end span)

    def before(i):
        if i % 2 == 0:
            tracer.install()
            bounds[i] = len(tracer.spans)

    def after(i):
        if i % 2 == 0:
            tracer.uninstall()
            bounds[i] = (bounds[i], len(tracer.spans))

    # at least one traced and one untraced sweep
    wall, times = run.sweeps(args.seconds, 2, before, after)
    selfs = spans.self_times(tracer.spans)
    per_sweep = [spans.sweep_metrics(tracer.spans, selfs, lo, hi) for lo, hi in bounds.values()]
    metrics = {k: statistics.median(m[k] for m in per_sweep) for k in per_sweep[0]}
    metrics["evolution.alloc_peak_mb"] = alloc if alloc is not None else 0.0
    metrics["sweep.t_cross_shift_max"] = run.shift
    metrics["trace.overhead_ratio"] = statistics.median(times[0::2]) / statistics.median(
        times[1::2]
    )
    absent = spans.absent_metrics(tracer.present)
    if alloc is None:
        absent.append("evolution.alloc_peak_mb")
    extra = {
        "sweeps": len(times),
        "sweep_times": times,
        "sweep_wall_times": wall,
        "absent_functions": sorted(set(tracer.absent)),
        "absent_metrics": absent,
    }
    _dump_spans(tracer.spans, args)
    return metrics, PER_LAYER_UNITS, extra


def _dump_spans(records, args):
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz")
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "ffts", "fft_points", "info"]))
        for rec in records:
            fh.write("\n" + json.dumps(rec))


def write_reference(run, args):
    if args.seed != 0:
        raise BenchError("reference crossings are recorded at seed 0 only")
    run.workload.setup(run.tally)
    run.one_sweep()
    checks.save_reference(args.workload, run.first)
    print(f"recorded {len(run.first)} crossings of {args.workload} in {checks.REFERENCE_PATH}")


# ----------------------------------------------------------------------
# entry point


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    epnls = _import_epnls()
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = None
    try:
        run = Run(args, epnls, workdir)
        if args.write_reference:
            write_reference(run, args)
            return 0
        measure = traced if args.trace else timed
        metrics, units, extra = measure(run, args)
    finally:
        if run is not None:
            run.workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    tally = run.tally
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ladder_power": workloads.ladder_power(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": tally.failed / tally.attempted,
        "failures": tally.notes,
        "metrics": metrics,
        **extra,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"sweeps={extra['sweeps']} sweep_wall_s={statistics.median(extra['sweep_wall_times']):.6g} "
        f"fail_ratio={summary['fail_ratio']:.6g} "
        f"({tally.failed}/{tally.attempted})"
        + (f" sweep_s_p90={extra['sweep_s_p90']:.6g}" if "sweep_s_p90" in extra else "")
    )
    for name in extra.get("absent_metrics", ()):
        print(f"absent: {name} (a function it is measured from does not exist)")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
