"""gammaratio benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 bench/run.py --workload density-grid --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  Ops run one at a time in this process
(a closed loop with one caller).  A run executes a fixed number of whole
cycles of ops, sized from --seconds, so that its ops, and with them the
attempted and failed counts, are the same for a seed.  Every op's inputs and
oracle values are made before timing starts, and its output is checked after
its timer stops.  With --trace 0 the ops run between short calibration blocks
of fixed library work, and every op time is scaled to the reference speed of
those blocks before the end-to-end metrics are taken (see `Bench.run_timed`).
With --trace 1 a fixed number of cycles runs twice, plain and then under the
span tracer, so its work counts repeat exactly for a seed and the time ratio
of the two passes gives the tracing overhead.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy or scipy are imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from time import perf_counter

OUT_DIR = ".bench_out"

# Cycles per second of --seconds in a --trace 0 run.  With --seconds 20 a
# run, set-up, oracle and checks included, takes 15 to 35 s on a 2-core
# x86-64 VM, depending on the workload and the host's speed at the time.
CYCLES_PER_S = {"classify-survey": 18.0, "density-grid": 0.3, "density-scatter": 5.0, "identity-checks": 0.1}

# Cycles per --trace 1 pass, sized so that both passes take 10 to 25 s on a
# 2-core x86-64 VM.
TRACE_CYCLES = {"classify-survey": 150, "density-grid": 3, "density-scatter": 80, "identity-checks": 1}

# Percentile reported as op_tail_ms_ref, fixed per workload so that runs of
# different speed compare the same statistic.  Each is the highest of
# 50/90/99 that leaves at least 10 ops beyond it in a --seconds 20 run, or
# the median where none does (identity-checks, 16 ops).  The percentile and
# the ops beyond it are printed with every run.
TAIL_PCT = {"classify-survey": 99.0, "density-grid": 50.0, "density-scatter": 90.0, "identity-checks": 50.0}

# Residual tolerances pinned at the package defaults this benchmark was
# defined against, so that a loosened default still counts as a failure.
PINNED_TOL = {
    "laplace_reconstruct": 1e-6,
    "cm_probe": 1e-6,
    "meijer_integral_equation": 1e-7,
    "fox_integral_equation": 1e-5,
}

# A density value further from the oracle than its error_estimate fails the
# op; one further than the estimate plus the default contour tolerance
# (ContourConfig.quad_rel_tol) relative to the value is a wrong output.
QUAD_REL_TOL = 1e-8

SETUP_REPEATS = 5

# The host this benchmark was defined on is a 2-core VM on a shared machine
# whose speed swings by up to 1.8x within a second and between runs.  So the
# timed ops alternate with calibration blocks: repeats of a fixed unit of
# work (`make_calibration`) that calls nothing of gammaratio.  A block
# runs at least CAL_UNITS units and at least CAL_SHARE of the slice of ops
# before it; a slice is at least SLICE_S of op time, or one longer op.  Each
# op time is multiplied by CAL_UNIT_REF_S over the mean unit time of the
# blocks within CAL_WINDOW_S (or the slice's length, if longer) of its
# slice's middle.  Averaging over a window, not only the two blocks beside a
# slice, keeps the noise of single blocks out of the scale.  The scaled times
# read as milliseconds on a host that runs one unit in CAL_UNIT_REF_S, about
# the VM's fast speed; a change to the program moves them in full, a change
# of host speed mostly cancels.
CAL_UNITS = 2
CAL_SHARE = 0.1
CAL_UNIT_REF_S = 1.0e-3
CAL_WINDOW_S = 0.25
SLICE_S = 0.05

# Set-up in a fresh interpreter, then the mean time of calibration units run
# right after it (at least SETUP_CAL_S of them), so that set-up time too can
# be scaled to the reference speed.  argv[1] is this file's directory.
SETUP_CAL_S = 0.05
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import gammaratio, gammaratio.cli
spec = gammaratio.RatioSpec(A=(2, 3, 1), a=(0.4, 2.4, 0.9), B=(1, 5), b=(2, 6))
gammaratio.classify(spec)
gammaratio.fox_h(spec, 0.01728)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
from run import SETUP_CAL_S, make_calibration
unit = make_calibration()
unit()
n, t1 = 0, time.perf_counter()
while n < 2 or time.perf_counter() - t1 < SETUP_CAL_S:
    unit()
    n += 1
print(setup, (time.perf_counter() - t1) / n)
"""


def _commit() -> str | None:
    """HEAD of ./.git read from its files, or None outside a git checkout."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    root = os.path.join("src", "gammaratio")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def measure_setup() -> list[tuple[float, float]]:
    """Import plus first-call warm-up, each in a fresh interpreter: (set-up s, calibration unit s)."""
    runs = []
    here = os.path.dirname(os.path.abspath(__file__))
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, here], capture_output=True, text=True, timeout=120, check=True
        )
        setup_s, unit_s = done.stdout.strip().splitlines()[-1].split()
        runs.append((float(setup_s), float(unit_s)))
    return runs


def make_calibration():
    """One calibration unit: fixed work shaped like the package's hot loops,
    about 1 ms at the VM's fast speed.  A quadrature of a gamma-product
    ratio evaluated one point at a time with scipy.special.loggamma on small
    arrays (as foxh does), small-array kernel sums (as the classifier's
    sampling does) and one mpmath incomplete gamma (as the density tails do).
    """
    import cmath

    import mpmath
    import numpy as np
    from scipy import integrate, special

    scales = np.array([2.0, 3.0, 1.0, 1.0, 5.0])
    shifts = np.array([0.4, 2.4, 0.9, 2.0, 6.0])
    weights = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
    kernel_t = np.linspace(0.02, 0.98, 9)

    def integrand(t: float) -> float:
        s = complex(1.5, t)
        log_ratio = complex(np.dot(weights, special.loggamma(scales * s + shifts)))
        return (cmath.exp(log_ratio - 2.0 * cmath.log(s))).real

    def unit() -> float:
        total = integrate.quad(integrand, 0.0, 20.0, limit=50)[0]
        for k in range(10):
            total += float(np.sum(kernel_t ** (0.3 + 0.1 * k) / -np.expm1(np.log(kernel_t) / 2.0)))
        return total + float(mpmath.gammainc(1.5, 2.0))

    return unit


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Bench:
    """Prepares, runs and checks ops; keeps the tallies of one run."""

    def __init__(self, gr, workloads, oracle):
        self.gr = gr
        self.calibration = make_calibration()
        self.workloads = workloads
        self.oracle = oracle
        self.cli_dir = os.path.join(OUT_DIR, "cli")
        self._density_cache: dict = {}
        self._serial = 0
        self.reset()
        self.max_rel_err = 0.0
        self.err_over_estimate_max = 0.0

    def reset(self):
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.by_stratum: dict = {}
        self.busy = 0.0
        self.wall_busy = 0.0
        self.cal_blocks: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = Counter()
        self.verdicts = Counter()

    # -- oracle ----------------------------------------------------------

    def _density(self, spec, xs):
        key = (spec.A, spec.a, spec.B, spec.b, tuple(xs))
        if key not in self._density_cache:
            self._density_cache[key] = self.oracle.density(spec.A, spec.a, spec.B, spec.b, xs)
        return self._density_cache[key]

    def _density_outcome(self, value, estimate, exact) -> str:
        """ok within error_estimate; failed within the contour's quad_rel_tol; else wrong."""
        value, estimate = float(value), float(estimate)
        diff = abs(value - exact)
        if exact != 0.0:
            self.max_rel_err = max(self.max_rel_err, diff / abs(exact))
        if estimate > 0.0:
            self.err_over_estimate_max = max(self.err_over_estimate_max, diff / estimate)
        if not math.isfinite(value):
            return "wrong"
        if diff <= estimate:
            return "ok"
        return "failed" if diff <= estimate + QUAD_REL_TOL * abs(exact) else "wrong"

    # -- op preparation: returns (call, check) ---------------------------

    def prepare(self, op):
        gr = self.gr
        if op.kind == "classify":
            return self._prepare_classify(op)
        if op.kind == "fox_h":
            exact = self._density(op.spec, [op.x])[0]
            return (
                lambda: gr.fox_h(op.spec, op.x),
                lambda ev: self._density_outcome(ev.value, ev.error_estimate, exact),
            )
        return self._prepare_cli(op)

    def _prepare_classify(self, op):
        s = op.spec
        if op.stratum in self.workloads.FIXTURE_VERDICTS:
            allowed = {self.workloads.FIXTURE_VERDICTS[op.stratum]}
        elif op.stratum == "unweighted":
            # l.c.m. by construction; a sampled kernel may still leave it undecided.
            allowed = {"LCM", "INCONCLUSIVE"}
        elif self.oracle.necessary_hold(s.A, s.a, s.B, s.b):
            allowed = {"LCM", "NOT_LCM", "INCONCLUSIVE"}
        else:
            allowed = {"BERNSTEIN_DERIVATIVE", "NOT_LCM"}

        def check(verdict) -> str:
            c = verdict.classification
            self.verdicts[c] += 1
            if c not in allowed or (c == "LCM" and not self.oracle.kernel_nonneg(s.A, s.a, s.B, s.b)):
                return "wrong"
            return "ok"

        return lambda: self.gr.classify(s), check

    def _prepare_cli(self, op):
        gr = self.gr
        grids = {} if op.x is None else {"x": [op.x]}
        self._serial += 1
        name = f"op{self._serial}"
        job = gr.cli.JobConfig(
            specs=((name, op.spec),), commands=(op.kind,), contour=gr.ContourConfig(),
            seed=0, output_dir=None, grids=grids,
        )
        out_dir = os.path.join(self.cli_dir, name)
        if op.kind == "eval-h":
            rho = math.exp(self.workloads.log_rho(op.spec))
            xs = [rho * k / 50.0 for k in range(1, 50)]
            exact = self._density(op.spec, xs)

        def check(status) -> str:
            try:
                with open(os.path.join(out_dir, f"{op.kind}.report"), encoding="utf-8") as fh:
                    report = json.load(fh)
                if op.kind == "eval-h":
                    with open(os.path.join(out_dir, "eval-h.csv"), encoding="utf-8", newline="") as fh:
                        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            except OSError:
                return "failed"
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if status != 0 or report.get("status") != "ok":
                return "failed"
            if any(not c["max_residual"] <= PINNED_TOL[c["check_id"]] for c in report.get("checks", [])):
                return "failed"
            if op.kind != "eval-h":
                return "ok"
            if len(rows) != len(xs) or any(abs(float(r[0]) - x) > 1e-14 * x for r, x in zip(rows, xs)):
                return "wrong"
            outcomes = {self._density_outcome(float(r[1]), float(r[2]), h) for r, h in zip(rows, exact)}
            return next(o for o in ("wrong", "failed", "ok") if o in outcomes)

        return lambda: gr.cli.run(job, self.cli_dir), check

    # -- running -----------------------------------------------------------

    def run_prepared(self, op, call, check) -> tuple[float, bool]:
        """Runs and checks one op; returns its wall time and whether it passed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            self.failed += 1
            self.failures[type(exc).__name__] += 1
            return perf_counter() - t0, False
        dt = perf_counter() - t0
        outcome = check(out)
        if outcome == "ok":
            return dt, True
        self.failed += 1
        self.failures[f"{outcome}:{op.stratum}"] += 1
        if outcome == "wrong":
            self.wrong += 1
        return dt, False

    def calibrate(self, min_s: float):
        """Runs one calibration block and records (mid time, units, seconds)."""
        t0 = perf_counter()
        units = 0
        while units < CAL_UNITS or perf_counter() - t0 < min_s:
            self.calibration()
            units += 1
        t1 = perf_counter()
        self.cal_blocks.append((0.5 * (t0 + t1), units, t1 - t0))

    def run_timed(self, prepared):
        """Runs the ops in slices between calibration blocks; records scaled and wall times."""
        slices = []
        ops: list = []
        op_s = 0.0

        def close_slice():
            nonlocal ops, op_s
            slices.append((start, perf_counter(), ops))
            self.calibrate(CAL_SHARE * op_s)
            ops, op_s = [], 0.0

        self.calibrate(2.0 * SLICE_S)
        start = perf_counter()
        for op, call, check in prepared:
            dt, ok = self.run_prepared(op, call, check)
            ops.append((op, dt, ok))
            op_s += dt
            if op_s >= SLICE_S:
                close_slice()
                start = perf_counter()
        if ops:
            close_slice()

        for t0, t1, slice_ops in slices:
            mid, half = 0.5 * (t0 + t1), max(CAL_WINDOW_S, t1 - t0)
            near = [(units, secs) for m, units, secs in self.cal_blocks if abs(m - mid) <= half]
            scale = CAL_UNIT_REF_S * sum(u for u, _ in near) / sum(secs for _, secs in near)
            for op, dt, ok in slice_ops:
                self.busy += dt * scale
                self.wall_busy += dt
                if ok:
                    self.latencies.append(dt * scale)
                    self.wall_latencies.append(dt)
                    self.by_stratum.setdefault(op.stratum, []).append(dt * scale)

    def warm_up(self, workload: str):
        """One fixed op of the workload's kind, untimed and not counted."""
        gr, w = self.gr, self.workloads
        mixed = w.fixture("spec_mixed_scale")
        if workload == "classify-survey":
            gr.classify(w.fixture("spec_bernstein_only"))
        elif workload == "density-scatter":
            gr.fox_h(mixed, 0.01728)
        else:
            kind, x = ("eval-h", None) if workload == "density-grid" else ("identities", 0.01728)
            call, _ = self.prepare(w.Op(kind, "warm-up", mixed, x))
            call()

    @staticmethod
    def _latency_metrics(latencies, busy, pct, suffix) -> dict:
        lat = sorted(latencies)
        return {
            "ops_per_s" + suffix: (len(lat) / busy if busy > 0 else 0.0, "1/s"),
            "op_p50_ms" + suffix: (percentile(lat, 50.0) * 1e3 if lat else 0.0, "ms"),
            "op_tail_ms" + suffix: (percentile(lat, pct) * 1e3 if lat else 0.0, "ms"),
        }

    def e2e_metrics(self, workload: str) -> dict:
        """Latency metrics of the passed ops, at the calibration reference speed."""
        return self._latency_metrics(self.latencies, self.busy, TAIL_PCT[workload], "_ref")

    def wall_metrics(self, workload: str) -> dict:
        """The same metrics from wall-clock times, for the info line."""
        return self._latency_metrics(self.wall_latencies, self.wall_busy, TAIL_PCT[workload], "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gammaratio", "__init__.py")):
        print("error: run from the root of a gammaratio checkout (no src/gammaratio here)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = perf_counter()
    import gammaratio as gr
    import gammaratio.cli  # noqa: F401  (the CLI layer is part of the import cost)
    import_s = perf_counter() - t0
    if not os.path.abspath(gr.__file__).startswith(src + os.sep):
        print(f"error: imported gammaratio from {gr.__file__}, not from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy
    import scipy
    import mpmath
    import oracle
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    shutil.rmtree(os.path.join(OUT_DIR, "cli"), ignore_errors=True)
    escaped = Counter()
    warnings.simplefilter("always", RuntimeWarning)
    warnings.showwarning = lambda message, category, *rest, **kw: escaped.update([category.__name__])

    bench = Bench(gr, workloads, oracle)
    setup_runs = [] if args.trace else measure_setup()
    bench.warm_up(args.workload)
    metrics: dict = {}
    info: dict = {}

    if args.trace == 0:
        n_cycles = max(1, round(args.seconds * CYCLES_PER_S[args.workload]))
        ops = workloads.first_ops(args.workload, args.seed, n_cycles)
        bench.run_timed([(op, *bench.prepare(op)) for op in ops])
        metrics.update(bench.e2e_metrics(args.workload))
        metrics["setup_s"] = (statistics.median(t * CAL_UNIT_REF_S / u for t, u in setup_runs), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        pct = TAIL_PCT[args.workload]
        info["op_tail"] = {"pct": pct, "ops": len(bench.latencies),
                           "ops_beyond": len(bench.latencies) - math.ceil(pct / 100.0 * len(bench.latencies))}
        info["setup_wall_s"] = [t for t, _ in setup_runs]
        info["setup_cal_unit_ms"] = [u * 1e3 for _, u in setup_runs]
        info["cycles"] = n_cycles
        info["wall"] = {name: value for name, (value, _) in bench.wall_metrics(args.workload).items()}
        units = sorted(secs / n for _, n, secs in bench.cal_blocks)
        info["cal_unit_ms"] = {"blocks": len(units), "min": units[0] * 1e3, "p50": percentile(units, 50.0) * 1e3,
                               "max": units[-1] * 1e3}
    else:
        ops = workloads.first_ops(args.workload, args.seed, TRACE_CYCLES[args.workload])
        prepared = [(op, *bench.prepare(op)) for op in ops]
        plain_busy = sum(bench.run_prepared(*item)[0] for item in prepared)
        plain_wrong = bench.wrong
        bench.reset()
        traced_busy = 0.0
        tr = tracing.Tracer()
        tr.install()
        try:
            for i, item in enumerate(prepared):
                tr.op = i
                traced_busy += bench.run_prepared(*item)[0]
        finally:
            tr.close()
        bench.wrong += plain_wrong
        metrics.update(tr.layer_metrics())
        metrics["import.s"] = (import_s, "s")
        metrics["oracle.max_rel_err"] = (bench.max_rel_err, "ratio")
        metrics["oracle.err_over_estimate_max"] = (bench.err_over_estimate_max, "ratio")
        metrics["trace.overhead_frac"] = (traced_busy / plain_busy - 1.0 if plain_busy > 0 else 0.0, "ratio")
        info["spans_by_layer"] = tr.spans_by_layer()
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        tr.write(spans_path)
        info["spans_file"] = spans_path

    shutil.rmtree(os.path.join(OUT_DIR, "cli"), ignore_errors=True)
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "fail_frac": bench.failed / bench.attempted if bench.attempted else 0.0,
        "failures": dict(bench.failures), "wrong": bench.wrong,
        "verdicts": dict(bench.verdicts),
        "p50_ms_by_stratum": {k: statistics.median(v) * 1e3 for k, v in sorted(bench.by_stratum.items())},
        "runtime_warnings": escaped.get("RuntimeWarning", 0), "other_warnings": sum(escaped.values())
        - escaped.get("RuntimeWarning", 0),
        "nproc": os.cpu_count(), "commit": _commit(), "src_digest": _src_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    })
    for name, (value, unit) in sorted(metrics.items()):
        note = " (p{pct:g} of {ops} ops, {ops_beyond} beyond)".format(**info["op_tail"]) if name == "op_tail_ms_ref" else ""
        print(f"{name:48s} {value!r} {unit}{note}")
    print(f"{'fail_frac':48s} {info['fail_frac']!r} ratio")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
