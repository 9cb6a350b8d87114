"""Outside-in tracing of the epnls layers.

A Tracer replaces each traced function at the attribute its caller looks
up (``epnls.sweep.evolve_ep`` is the name ``compute_error_curve`` calls),
so the package itself is untouched.  Every call becomes a span: name,
start, end, parent span, the numpy FFT calls made while it was the
innermost open span, and a few facts read from its arguments and result.
Spans stay in memory until the run ends.

A function a later version of the package removes or renames is reported
as absent; the metrics it fed are reported as absent too, not as errors.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import time
import tracemalloc

# span record fields
NAME, START, END, PARENT, FFTS, FFT_POINTS, INFO = range(7)

# bytes an FFT call reads plus writes, per complex128 point
FFT_BYTES_PER_POINT = 32

TRUTH = ("evolution.evolve_ep", "evolution.evolve_nls")
COMPARATOR = (
    "evolution.evolve_linear_b",
    "evolution.evolve_composite_tilde",
    "evolution.evolve_system_a",
    "sweep._linear_nls_trajectory",
)
RHO = ("evolution.relative_error_curve",)
HS_NORM = ("grid.hs_norm_from_fft",)
FREE_PROPAGATE = ("grid.free_propagate",)
CROSSING = ("sweep.find_crossing",)
REGRESS = ("sweep.regress_loglog",)
RUN_A = ("sweep.run_algorithm_a",)
READ = ("runio.read_curve_csv",)
ATOMIC_WRITE = ("runio.atomic_write_text",)
WRITE = ATOMIC_WRITE + ("runio.write_csv",)
PARSE = ("config.parse_config",)
CMD_SWEEP = ("cli.cmd_sweep",)
FFT = ("numpy.fft",)


def _truth_info(args, kwargs, result):
    initial = args[0] if args else kwargs.get("initial", kwargs.get("phi0"))
    values = getattr(getattr(initial, "phi", initial), "values", initial)
    step = args[2] if len(args) > 2 else kwargs["step"]
    horizon = args[3] if len(args) > 3 else kwargs["T"]
    return {
        "key": hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest(),
        "steps": round(horizon / abs(step.dt)),
        "samples": len(result.times),
    }


def _read_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _write_info(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text.encode())}


def _sweep_info(args, kwargs, result):
    return {"curves": len(result.curves)}


# (module, attribute the caller looks up, span name, facts to record)
TRACED = (
    ("epnls.cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("epnls.cli", "parse_config", "config.parse_config", None),
    ("epnls.cli", "run_algorithm_a", "sweep.run_algorithm_a", _sweep_info),
    ("epnls.cli", "write_csv", "runio.write_csv", None),
    ("epnls.cli", "atomic_write_text", "runio.atomic_write_text", _write_info),
    ("epnls.runio", "atomic_write_text", "runio.atomic_write_text", _write_info),
    ("epnls.sweep", "run_algorithm_a", "sweep.run_algorithm_a", _sweep_info),
    ("epnls.sweep", "atomic_write_text", "runio.atomic_write_text", _write_info),
    ("epnls.sweep", "read_curve_csv", "runio.read_curve_csv", _read_info),
    ("epnls.sweep", "find_crossing", "sweep.find_crossing", None),
    ("epnls.sweep", "regress_loglog", "sweep.regress_loglog", None),
    ("epnls.sweep", "free_propagate", "grid.free_propagate", None),
    ("epnls.sweep", "evolve_ep", "evolution.evolve_ep", _truth_info),
    ("epnls.sweep", "evolve_nls", "evolution.evolve_nls", _truth_info),
    ("epnls.sweep", "evolve_linear_b", "evolution.evolve_linear_b", None),
    ("epnls.sweep", "evolve_composite_tilde", "evolution.evolve_composite_tilde", None),
    ("epnls.sweep", "_linear_nls_trajectory", "sweep._linear_nls_trajectory", None),
    ("epnls.sweep", "relative_error_curve", "evolution.relative_error_curve", None),
    ("epnls.evolution", "evolve_linear_b", "evolution.evolve_linear_b", None),
    ("epnls.evolution", "evolve_system_a", "evolution.evolve_system_a", None),
    ("epnls.evolution", "hs_norm_from_fft", "grid.hs_norm_from_fft", None),
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []  # indices of open spans, innermost last
        self._patches = []  # (module, attribute, original)
        self.present = set()  # span names with at least one installed site
        self.absent = []  # "module.attribute" sites that do not exist

    def _traced(self, fn, name, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info_fn is not None:
                try:
                    rec[INFO] = info_fn(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    rec[INFO] = None  # signature changed: facts unknown
            return result

        return traced

    def _counted(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if stack:
                rec = spans[stack[-1]]
                rec[FFTS] += 1
                rec[FFT_POINTS] += out.size
            return out

        return counted

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, traced=TRACED):
        self.absent = []
        for module_name, attr, name, info_fn in traced:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self._traced(fn, name, info_fn))
            self.present.add(name)
        import numpy.fft

        for attr in ("fftn", "ifftn"):
            self._patch(numpy.fft, attr, self._counted(getattr(numpy.fft, attr)))
        self.present.add("numpy.fft")

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ----------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


# span names each per-layer metric is computed from
METRIC_SOURCES = {
    "evolution.truth_s": TRUTH,
    "evolution.truth_calls": TRUTH,
    "evolution.truth_distinct_ratio": TRUTH,
    "evolution.steps": TRUTH,
    "evolution.step_us": TRUTH,
    "evolution.fft_calls": TRUTH + FFT,
    "evolution.fft_per_step": TRUTH + FFT,
    "evolution.fft_bytes_computed": TRUTH + FFT,
    "evolution.comparator_s": COMPARATOR,
    "evolution.rho_s": RHO,
    "evolution.samples": TRUTH,
    "grid.hs_norm_calls": HS_NORM,
    "grid.hs_norm_s": HS_NORM,
    "grid.free_propagate_calls": FREE_PROPAGATE,
    "grid.free_propagate_s": FREE_PROPAGATE,
    "sweep.curves": RUN_A,
    "sweep.cache_hit_ratio": RUN_A + READ,
    "sweep.crossing_s": CROSSING,
    "sweep.regress_s": REGRESS,
    "runio.read_s": READ,
    "runio.read_bytes": READ,
    "runio.write_s": WRITE,
    "runio.write_bytes": ATOMIC_WRITE,
    "runio.files_written": ATOMIC_WRITE,
    "config.parse_s": PARSE,
    "cli.output_s": CMD_SWEEP + RUN_A,
}


def absent_metrics(present):
    """Per-layer metrics none of whose source spans could be installed."""
    return sorted(
        metric
        for metric, names in METRIC_SOURCES.items()
        if not any(n in present for n in names)
    )


def sweep_metrics(spans, selfs, lo, hi):
    """Per-layer figures of the spans[lo:hi] one sweep produced."""
    by_name = {}
    for i in range(lo, hi):
        by_name.setdefault(spans[i][NAME], []).append(i)

    def idx(names):
        return [i for n in names for i in by_name.get(n, ())]

    def self_s(names):
        return sum(selfs[i] for i in idx(names))

    def info_sum(names, key):
        return sum((spans[i][INFO] or {}).get(key, 0) for i in idx(names))

    def span_s(names):
        return sum(spans[i][END] - spans[i][START] for i in idx(names))

    truth = idx(TRUTH)
    truth_s = self_s(TRUTH)
    steps = info_sum(TRUTH, "steps")
    keys = {(spans[i][INFO] or {}).get("key", i) for i in truth}
    ffts = sum(spans[i][FFTS] for i in truth)
    fft_points = sum(spans[i][FFT_POINTS] for i in truth)
    curves = info_sum(RUN_A, "curves")
    reads = len(idx(READ))
    # the command's own time: cmd_sweep minus the run_algorithm_a inside it
    cmds = set(idx(CMD_SWEEP))
    in_cmd = [i for i in idx(RUN_A) if spans[i][PARENT] in cmds]
    output_s = span_s(CMD_SWEEP) - sum(spans[i][END] - spans[i][START] for i in in_cmd)
    return {
        "evolution.truth_s": truth_s,
        "evolution.truth_calls": len(truth),
        "evolution.truth_distinct_ratio": len(keys) / len(truth) if truth else 0.0,
        "evolution.steps": steps,
        "evolution.step_us": 1e6 * truth_s / steps if steps else 0.0,
        "evolution.fft_calls": ffts,
        "evolution.fft_per_step": ffts / steps if steps else 0.0,
        "evolution.fft_bytes_computed": FFT_BYTES_PER_POINT * fft_points,
        "evolution.comparator_s": self_s(COMPARATOR),
        "evolution.rho_s": self_s(RHO),
        "evolution.samples": info_sum(TRUTH, "samples"),
        "grid.hs_norm_calls": len(idx(HS_NORM)),
        "grid.hs_norm_s": self_s(HS_NORM),
        "grid.free_propagate_calls": len(idx(FREE_PROPAGATE)),
        "grid.free_propagate_s": self_s(FREE_PROPAGATE),
        "sweep.curves": curves,
        "sweep.cache_hit_ratio": reads / curves if curves else 0.0,
        "sweep.crossing_s": self_s(CROSSING),
        "sweep.regress_s": self_s(REGRESS),
        "runio.read_s": self_s(READ),
        "runio.read_bytes": info_sum(READ, "bytes"),
        "runio.write_s": self_s(WRITE),
        "runio.write_bytes": info_sum(ATOMIC_WRITE, "bytes"),
        "runio.files_written": len(idx(ATOMIC_WRITE)),
        "config.parse_s": self_s(PARSE),
        "cli.output_s": output_s,
    }


def alloc_peak_mib(fn):
    """Peak of the memory Python and numpy allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
