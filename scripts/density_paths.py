"""Per-path density point counts and in-process per-op times on the density workloads.

Run from the root of a checkout (or name another checkout's src with --src):

    python3 scripts/density_paths.py --seeds 1 2 --best-of 5

For density-scatter, density-grid and identity-checks it takes the ops of
bench/workloads.py for each seed (the cycles a `--seconds 20` benchmark run
times, or --cycles), runs each op --best-of times in this process and keeps
its least time, and counts the density points each path serves: the
endpoint series, each rung of the hyperbola ladder (rung 0 alone in
checkouts with one hyperbola), the series asked again after every rung
refused a point (series fallback), the line Re s = c of older checkouts,
the points past the support, and the rest, which take the leading part as
the density (DensityEvaluator.lead_exact).  The line and the series
fallback count every point they are asked for: a point they do not serve
raises.  density-scatter ops are one point each, so its per-op times are
also given by path.  The last line of stdout is one JSON object with every
table.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import sys
import tempfile
import warnings
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("density-scatter", "density-grid", "identity-checks")
# Cycles a --seconds 20 run of bench/run.py times.
CYCLES = {"density-scatter": 100, "density-grid": 6, "identity-checks": 2}
PATH_ORDER = ("series", "hyperbola rung 0", "hyperbola rung 1", "hyperbola rung 2", "hyperbola rung 3",
              "series fallback", "line", "past support")


def count_paths(foxh, counts: collections.Counter):
    """Wrap each path's per-batch call so that every served point adds one to its path."""
    rungs, asked = {}, {"hyperbola": False}
    series, hyperbola = foxh._EndpointSeries, foxh._Hyperbola

    def series_call(self, omega, *args, _call=series.__call__):
        out = _call(self, omega, *args)
        # A series asked after a rung is the fallback, which raises where it does not serve.
        counts["series fallback" if asked["hyperbola"] else "series"] += (
            len(omega) if asked["hyperbola"] else sum(bool(ok) for *_, ok in out))
        return out

    def hyperbola_init(self, ev, top, *args, _init=hyperbola.__init__):
        rungs[id(self)] = args[0] if args else 0
        _init(self, ev, top, *args)

    def hyperbola_call(self, omega, *args, _call=hyperbola.__call__):
        out = _call(self, omega, *args)
        asked["hyperbola"] = True
        counts[f"hyperbola rung {rungs[id(self)]}"] += sum(bool(ok) for *_, ok in out)
        return out

    series.__call__, hyperbola.__init__, hyperbola.__call__ = series_call, hyperbola_init, hyperbola_call
    line = getattr(foxh, "_remainder_on_line", None)
    if line is not None:
        def on_line(ev, c, omega, *args):
            counts["line"] += len(omega)
            return line(ev, c, omega, *args)

        foxh._remainder_on_line = on_line
    density_at = foxh._density_at

    def points(ev, *args):
        # (c, omega, ...) in checkouts with the line, (omega, ...) after it.
        omega = next(a for a in args if isinstance(a, np.ndarray))
        asked["hyperbola"] = False
        counts["points"] += len(omega)
        counts["past support"] += int((omega <= 0.0).sum())
        return density_at(ev, *args)

    foxh._density_at = points


def op_call(gr, op, out_dir):
    if op.kind == "fox_h":
        return lambda: gr.fox_h(op.spec, op.x)
    job = gr.cli.JobConfig(specs=(("op", op.spec),), commands=(op.kind,), contour=gr.ContourConfig(), seed=0,
                           output_dir=None, grids={} if op.x is None else {"x": [op.x]})
    return lambda: gr.cli.run(job, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--best-of", type=int, default=5)
    parser.add_argument("--cycles", type=int, default=None, help="cycles per seed (default: a 20 s run's)")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import gammaratio as gr
    import gammaratio.cli  # noqa: F401
    from gammaratio import foxh
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)
    counts: collections.Counter = collections.Counter()
    count_paths(foxh, counts)
    tables: dict = {"src": os.path.abspath(args.src), "seeds": args.seeds, "best_of": args.best_of}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in args.workloads:
            times, failed, by_path, by_stratum = [], 0, collections.defaultdict(list), collections.defaultdict(list)
            path_counts: collections.Counter = collections.Counter()
            for seed in args.seeds:
                for op in workloads.first_ops(name, seed, args.cycles or CYCLES[name]):
                    call = op_call(gr, op, out_dir)
                    best, before = math.inf, None
                    for rep in range(args.best_of):
                        counts.clear()
                        t0 = perf_counter()
                        try:
                            call()
                        except (gr.DomainError, gr.SingularPointError, gr.QuadratureAccuracyError):
                            failed += rep == 0
                        best = min(best, perf_counter() - t0)
                        if before is None:
                            before = dict(counts)
                            served = sum(before.get(p, 0) for p in PATH_ORDER)
                            before["leading part"] = before.get("points", 0) - served
                    path_counts.update(before)
                    times.append(best)
                    by_stratum[op.stratum].append(best)
                    if op.kind == "fox_h":
                        path = next((p for p in PATH_ORDER + ("leading part",) if before.get(p)), "raised")
                        by_path[path].append(best)
            tables[name] = {
                "ops": len(times), "failed_ops": failed,
                "per_op_us": {"mean": 1e6 * statistics.fmean(times), "median": 1e6 * statistics.median(times)},
                "points_by_path": dict(sorted(path_counts.items())),
                "per_op_us_by_stratum": {k: 1e6 * statistics.fmean(v) for k, v in sorted(by_stratum.items())},
            }
            if by_path:
                tables[name]["by_path"] = {
                    p: {"ops": len(v), "mean_us": 1e6 * statistics.fmean(v), "share_of_time": sum(v) / sum(times)}
                    for p, v in sorted(by_path.items())}
            row = tables[name]
            print(f"{name}: {row['ops']} ops, {failed} failed, per op mean {row['per_op_us']['mean']:.0f} us, "
                  f"median {row['per_op_us']['median']:.0f} us; points {row['points_by_path']}")
            for p, v in row.get("by_path", {}).items():
                share = 100 * v["share_of_time"]
                print(f"  {p:13s} {v['ops']:4d} ops  {v['mean_us']:7.0f} us/op  {share:5.1f}% of time")
    print(json.dumps(tables, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
