"""Which path serves each density point of three seeded coverage sets, and which points raise.

Run from the root of a checkout (or name another checkout's src with --src):

    python3 scripts/coverage.py [--src SRC] [--sets fuzz far box] [--oracle] [--records FILE]

The sets:

- fuzz: 400 points, each on a fresh spec of tests/oracles.box_spec
  (random.Random(7)) at omega log-uniform in [1e-3, 30];
- far: 600 such points (random.Random(11)) at omega log-uniform in [6, 60]
  (both sets are tests/oracles.coverage_points);
- box: the 300 specs of tests/oracles.full_box_spec (random.Random(2026)) that
  tests/test_hyperbola.py's test_full_box_answers_or_raises_package_errors
  runs, with its fox_h, density and mellin_check(spec, 1) calls.

A fuzz or far point is one fox_h call at x = rho e^-omega.  It is counted
under the path that served it, as scripts/density_paths.py counts paths:
the endpoint series; the hyperbola, by rung (rung 0 in checkouts with a
single hyperbola); the endpoint series again after every rung refused it
(series fallback); the line Re s = c (older checkouts); or the leading
part, where it is exact.  A point that raises a package error is counted
under that error, whatever path it tried.  For the
box set every density point of every call is counted by path, and each call
by its outcome.  Warnings other than the documented small-mu one are
counted as they arise.

--oracle checks every served fuzz or far point, whatever its path, against
tests/oracles.reference, which takes the first that applies of:
meijer_density, the Meijer G-function at 20 digits, for integer scales at
omega >= 0.05; residue_sum_40, the residues at the left poles at 40 digits
plus the digits their terms cancel, where omega >= 3 and the poles are
simple; and EndpointSeries40, the endpoint series at 40 digits plus the
digits its terms cancel, summed until a term falls below 1e-30 of the sum,
within half the series' radius.  Per path it reports the points checked,
the points no oracle applies to (the series' None included) and the largest
error over the estimate; each point outside its estimate is listed as
[index, omega, path, error over estimate], and the oracle's own seconds are
given apart.  --records writes one JSON line per fuzz or far point (set,
index, omega, path, value, estimate).  The last line of stdout is one JSON
object with every count.

The oracles and generators are imported from this checkout's tests/ and the
package from --src, so the path counts of another checkout's source compare
with this one's.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import random
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def served(counts) -> dict:
    """The points by path (density_paths.count_paths), with those no path counted, which
    took the leading part, added."""
    out = {k: v for k, v in counts.items() if k != "points" and v}
    out["leading part"] = counts["points"] - sum(out.values())
    return {k: v for k, v in sorted(out.items()) if v}


def point_set(gr, counts, name, check, records):
    """Counts by path and by raise over one set of fox_h points, and the oracle's verdicts."""
    from oracles import coverage_points

    by_path: collections.Counter = collections.Counter()
    warned, oracle, outside, oracle_seconds = 0, {}, [], 0.0
    for index, (spec, omega) in enumerate(coverage_points(name)):
        counts.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                x = math.exp(gr.derive(spec).log_rho - omega)
                got = gr.fox_h(spec, x)
                (path,) = served(counts)
            except (gr.DomainError, gr.SingularPointError, gr.QuadratureAccuracyError) as exc:
                got, path = None, f"raised {type(exc).__name__}"
        warned += sum("mu=" not in str(w.message) for w in caught)
        by_path[path] += 1
        if records is not None:
            records.write(json.dumps({"set": name, "index": index, "omega": omega, "path": path,
                                      "value": got and got.value, "estimate": got and got.error_estimate}) + "\n")
        if check and got is not None:
            row = oracle.setdefault(path, {"checked": 0, "no oracle": 0, "max_err_over_estimate": 0.0})
            t0 = time.perf_counter()
            exact = check(spec, x)
            oracle_seconds += time.perf_counter() - t0
            if exact is None:
                row["no oracle"] += 1
                continue
            row["checked"] += 1
            err = float(abs(got.value - exact))
            ratio = err / got.error_estimate if got.error_estimate else (math.inf if err else 0.0)
            row["max_err_over_estimate"] = max(row["max_err_over_estimate"], ratio)
            if ratio > 1.0:
                outside.append([index, omega, path, ratio])
    out = {"points": sum(by_path.values()), "by_path": dict(sorted(by_path.items())), "warned": warned}
    if check:
        out["oracle"] = {"by_path": dict(sorted(oracle.items())), "outside": outside,
                         "seconds": round(oracle_seconds, 1)}
    return out


def box_set(gr, counts):
    """Per-path point counts and per-call outcomes over the full box of tests/test_hyperbola.py."""
    from oracles import full_box_spec

    rng = random.Random(2026)
    calls: collections.Counter = collections.Counter()
    counts.clear()
    warned = 0
    for _ in range(300):
        A, a, B, b = full_box_spec(rng)
        omega = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
        try:
            spec = gr.RatioSpec(A=A, a=a, B=B, b=b)
            log_rho = gr.derive(spec).log_rho
        except gr.DomainError:
            calls["spec refused"] += 1
            continue
        if abs(log_rho) > 600.0:
            calls["x out of range"] += 1
            continue
        xs = [math.exp(log_rho - w) for w in (omega / 3.0, omega, 3.0 * omega)]
        for kind, call in (("fox_h", lambda: gr.fox_h(spec, xs[1])), ("density", lambda: gr.density(spec, xs)),
                           ("mellin_check", lambda: gr.mellin_check(spec, 1.0))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    call()
                    calls[f"{kind} answered"] += 1
                except (gr.DomainError, gr.SingularPointError, gr.QuadratureAccuracyError) as exc:
                    calls[f"{kind} raised {type(exc).__name__}"] += 1
            warned += sum("mu=" not in str(w.message) for w in caught)
    return {"calls": dict(sorted(calls.items())), "points_by_path": served(counts), "warned": warned}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--sets", nargs="+", default=["fuzz", "far", "box"], choices=["fuzz", "far", "box"])
    parser.add_argument("--oracle", action="store_true", help="check every served fuzz or far point")
    parser.add_argument("--records", default=None, help="write one JSON line per fuzz or far point")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import gammaratio as gr
    from gammaratio import foxh
    from density_paths import count_paths
    from oracles import reference

    counts: collections.Counter = collections.Counter()
    count_paths(foxh, counts)
    out: dict = {"src": os.path.abspath(args.src)}
    records = open(args.records, "w", encoding="utf-8") if args.records else None
    try:
        for name in args.sets:
            t0 = time.perf_counter()
            if name == "box":
                out[name] = box_set(gr, counts)
            else:
                out[name] = point_set(gr, counts, name, reference if args.oracle else None, records)
            out[name]["seconds"] = round(time.perf_counter() - t0, 1)
            print(f"{name}: {out[name]}", file=sys.stderr)
    finally:
        if records is not None:
            records.close()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
