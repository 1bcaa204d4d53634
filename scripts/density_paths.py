"""Per-path density point counts and in-process per-op times on the density workloads.

Run from the root of a checkout (or name another checkout's src with --src):

    python3 scripts/density_paths.py --seeds 1 2 --best-of 5

For density-scatter, density-grid and identity-checks it takes the ops of
bench/workloads.py for each seed (the cycles a `--seconds 20` benchmark run
times, or --cycles), runs each op --best-of times in this process and keeps
its least time, with nothing of the package wrapped.  One more pass counts
the density points each path serves: the endpoint series, each rung of the
hyperbola ladder (rung 0 alone in checkouts with one hyperbola), the series
asked again after every rung refused a point (series fallback), the line
Re s = c of older checkouts, the points past the support, and the rest,
which take the leading part as the density (DensityEvaluator.lead_exact).
The line and the series fallback count every point they are asked for: a
point they do not serve raises.  density-scatter ops are one point each, so
its per-op times are also given by path.  Next to the times it counts the
per-spec set-up work, which does not depend on the host: endpoint-series
set-ups (_EndpointSeries), hyperbola builds (_Hyperbola) and saddle
searches (_saddle, in checkouts with the ladder).

For density-scatter it also gives a stage table: --best-of more passes over
its ops wrap the STAGES of gammaratio.foxh with timers, each stage takes its
self time (less that of the wrapped stages it calls) and its least over the
passes, and engine bookkeeping is what is left of the op: fox_h, density,
the evaluator's records, _remainder_density, _density_at and the timers'
own cost.  The table gives each stage's mean per op over all ops, over the
ops a hyperbola served and over the rest (the series points).  A stage a
checkout does not have reads 0, as the error weights where the series
set-up makes them.  The last line of stdout is one JSON object with every
table.
"""

from __future__ import annotations

import argparse
import collections
import functools
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


SETUPS = ("series set-ups", "hyperbola builds", "saddle searches")

# Stage -> the attribute of gammaratio.foxh it times; a checkout without it reads 0.
STAGES = {
    "evaluator init": "DensityEvaluator.__init__",
    "Stirling table": "_stirling_table",
    "e_k recursion": "_stirling_coefficients",
    "series set-up": "_EndpointSeries.__init__",
    "error weights": "_EndpointSeries._terms",
    "series call": "_EndpointSeries.__call__",
    "log_gamma_plane": "sc.log_gamma_plane",
    "hyperbola build": "_Hyperbola.__init__",
    "hyperbola call": "_Hyperbola.__call__",
}
BOOKKEEPING = "engine bookkeeping"


def patch(patches: list, owner, attr: str, value):
    """Set owner.attr to value, noting the original in patches for restore()."""
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def restore(patches: list):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def stage_table(gr, foxh, ops, best_of: int) -> dict:
    """Mean self time per op of each stage (and of the engine bookkeeping left over), in us,
    over all ops, the ops a hyperbola served and the rest; each op's stage times are the
    least over best_of passes."""
    time: collections.Counter = collections.Counter()
    children, patches = [0.0], []

    def timed(stage, original):
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                time[stage] += elapsed - children.pop()
                children[-1] += elapsed
        return wrapper

    for stage, name in STAGES.items():
        *path, attr = name.split(".")
        owner = functools.reduce(lambda obj, part: getattr(obj, part, None), path, foxh)
        if owner is not None and hasattr(owner, attr):
            patch(patches, owner, attr, timed(stage, getattr(owner, attr)))
    rows = collections.defaultdict(list)
    try:
        for op in ops:
            best = collections.defaultdict(lambda: math.inf)
            for _ in range(best_of):
                time.clear()
                t0 = perf_counter()
                try:
                    gr.fox_h(op.spec, op.x)
                except (gr.DomainError, gr.SingularPointError, gr.QuadratureAccuracyError):
                    pass
                total = perf_counter() - t0
                for stage in STAGES:
                    best[stage] = min(best[stage], time[stage])
                best[BOOKKEEPING] = min(best[BOOKKEEPING], total - sum(time.values()))
            path = "hyperbola" if time["hyperbola call"] else "series"
            for group in ("all", path):
                rows[group].append(best)
    finally:
        restore(patches)
    return {group: {"ops": len(times), **{stage: 1e6 * statistics.fmean(t[stage] for t in times)
                                          for stage in (*STAGES, BOOKKEEPING)}}
            for group, times in rows.items()}


def count_paths(foxh, counts: collections.Counter, setups: collections.Counter | None = None) -> list:
    """Wrap each path's per-batch call so that every served point adds one to its path, and,
    given setups, each set-up so that it adds one to its SETUPS entry; returns the patches,
    which restore() undoes."""
    rungs, asked, patches = {}, {"hyperbola": False}, []
    series, hyperbola = foxh._EndpointSeries, foxh._Hyperbola
    if setups is not None:
        def counted(name, call):
            def wrapper(*args, **kwargs):
                setups[name] += 1
                return call(*args, **kwargs)
            return wrapper

        patch(patches, series, "__init__", counted("series set-ups", series.__init__))
        patch(patches, hyperbola, "__init__", counted("hyperbola builds", hyperbola.__init__))
        if hasattr(foxh, "_saddle"):
            patch(patches, foxh, "_saddle", counted("saddle searches", foxh._saddle))

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

    patch(patches, series, "__call__", series_call)
    patch(patches, hyperbola, "__init__", hyperbola_init)
    patch(patches, hyperbola, "__call__", hyperbola_call)
    line = getattr(foxh, "_remainder_on_line", None)
    if line is not None:
        def on_line(ev, c, omega, *args):
            counts["line"] += len(omega)
            return line(ev, c, omega, *args)

        patch(patches, foxh, "_remainder_on_line", on_line)
    density_at = foxh._density_at

    def points(ev, *args):
        # (c, omega, ...) in checkouts with the line, (omega, ...) after it; omega an array
        # or a list.
        omega = np.asarray(next(a for a in args if isinstance(a, (np.ndarray, list))))
        asked["hyperbola"] = False
        counts["points"] += len(omega)
        counts["past support"] += int((omega <= 0.0).sum())
        return density_at(ev, *args)

    patch(patches, foxh, "_density_at", points)
    return patches


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
    stages = None
    if "density-scatter" in args.workloads:
        ops = [op for seed in args.seeds for op in workloads.first_ops("density-scatter", seed,
                                                                       args.cycles or CYCLES["density-scatter"])]
        stages = stage_table(gr, foxh, ops, args.best_of)
    counts: collections.Counter = collections.Counter()
    setups: collections.Counter = collections.Counter()
    tables: dict = {"src": os.path.abspath(args.src), "seeds": args.seeds, "best_of": args.best_of}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in args.workloads:
            ops = [op for seed in args.seeds for op in workloads.first_ops(name, seed, args.cycles or CYCLES[name])]
            times, failed = [], 0
            for op in ops:
                call, best = op_call(gr, op, out_dir), math.inf
                for rep in range(args.best_of):
                    t0 = perf_counter()
                    try:
                        call()
                    except (gr.DomainError, gr.SingularPointError, gr.QuadratureAccuracyError):
                        failed += rep == 0
                    best = min(best, perf_counter() - t0)
                times.append(best)
            by_path, by_stratum = collections.defaultdict(list), collections.defaultdict(list)
            path_counts: collections.Counter = collections.Counter()
            setup_counts: collections.Counter = collections.Counter()
            patches = count_paths(foxh, counts, setups)
            try:
                for op, best in zip(ops, times):
                    counts.clear()
                    setups.clear()
                    try:
                        op_call(gr, op, out_dir)()
                    except (gr.DomainError, gr.SingularPointError, gr.QuadratureAccuracyError):
                        pass
                    served = sum(counts[p] for p in PATH_ORDER)
                    counts["leading part"] = counts["points"] - served
                    path_counts.update(counts)
                    setup_counts.update(setups)
                    by_stratum[op.stratum].append(best)
                    if op.kind == "fox_h":
                        path = next((p for p in PATH_ORDER + ("leading part",) if counts[p]), "raised")
                        by_path[path].append(best)
            finally:
                restore(patches)
            tables[name] = {
                "ops": len(times), "failed_ops": failed,
                "per_op_us": {"mean": 1e6 * statistics.fmean(times), "median": 1e6 * statistics.median(times)},
                "points_by_path": dict(sorted(path_counts.items())),
                "setups": {k: setup_counts[k] for k in SETUPS},
                "per_op_us_by_stratum": {k: 1e6 * statistics.fmean(v) for k, v in sorted(by_stratum.items())},
            }
            if by_path:
                tables[name]["by_path"] = {
                    p: {"ops": len(v), "mean_us": 1e6 * statistics.fmean(v), "share_of_time": sum(v) / sum(times)}
                    for p, v in sorted(by_path.items())}
            row = tables[name]
            print(f"{name}: {row['ops']} ops, {failed} failed, per op mean {row['per_op_us']['mean']:.0f} us, "
                  f"median {row['per_op_us']['median']:.0f} us; points {row['points_by_path']}; {row['setups']}")
            for p, v in row.get("by_path", {}).items():
                share = 100 * v["share_of_time"]
                print(f"  {p:13s} {v['ops']:4d} ops  {v['mean_us']:7.0f} us/op  {share:5.1f}% of time")
    if stages is not None:
        tables["density-scatter"]["stages_us_per_op"] = stages
        groups = [g for g in ("all", "series", "hyperbola") if g in stages]
        print("density-scatter stages, us per op (self time, least of --best-of instrumented passes):")
        print(f"  {'':20s}" + "".join(f"{g + ' (' + str(stages[g]['ops']) + ')':>18s}" for g in groups))
        for stage in (*STAGES, BOOKKEEPING):
            print(f"  {stage:20s}" + "".join(f"{stages[g][stage]:18.1f}" for g in groups))
        print(f"  {'sum':20s}" + "".join(f"{sum(stages[g][k] for k in (*STAGES, BOOKKEEPING)):18.1f}"
                                         for g in groups))
    print(json.dumps(tables, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
