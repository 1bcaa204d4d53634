"""Per-stratum classify times, stage shares and work counts on the classify-survey workload.

Run from the root of a checkout (or name another checkout's src with --src):

    python3 scripts/classify_stages.py --seeds 1 2 --best-of 7

It takes the ops of bench/workloads.py's classify-survey for each seed (40
cycles of 24 ops by default), runs each op --best-of times in this process
and keeps its least time, and prints the mean per op by stratum.  Each of
those passes is followed by one that also reads every witness of the verdict,
which is what a reader of the text pays where witnesses are formatted on
first read.  One counting pass prints the records built per op: condition
evidence, verdicts and derived invariants.  Then
--best-of instrumented passes wrap the stages of `classify` with timers; each
stage's share is its least inclusive time over the passes divided by the least
instrumented total.  The rows marked with a dash are parts of the kernel check,
and a checkout that builds one factor summary per spec calls derive and the
identical-multisets test inside it.  The wrappers add their own cost, so small
stages read a little high.  The first pass also counts the ops that reach each
stage, the row-sum slices of the kernel samples by width (two for the power
terms, four for the near-one u form) and the calls of
`identical_factor_multisets`.  The last line of stdout is one JSON object with
every table.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import sys
import warnings
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Stage -> the function names that make it, looked up in gammaratio.monotonicity and
# gammaratio.ratio; of a group of alternatives ("a|b") the first present is timed,
# so a checkout whose classify calls a private form of a check times that one.
STAGES = {
    "kernel check": ("_kernel_nonneg|check_kernel_nonneg",),
    "- near-one u form": ("_kernel_u",),
    "- power terms": ("_power_terms",),
    "- t -> 1 table": ("_stirling_table",),
    "sufficient (a)-(c)": ("_sufficient_a", "_sufficient_b", "_sufficient_c|check_sufficient_c"),
    "derive": ("derive",),
    "necessary": ("_necessary",),
    "Bernstein limit": ("_bernstein_limit_evidence",),
    "summary (with derive, identical test)": ("_summary",),
    "identical-multisets test": ("identical_factor_multisets",),
}


# The record classes whose constructions are counted, by module attribute.
RECORDS = (("monotonicity", "ConditionEvidence"), ("monotonicity", "Verdict"), ("ratio", "DerivedInvariants"))


def count_records(gr, modules, ops) -> dict:
    """Records of each RECORDS class built per op over one pass of classify."""
    counts = collections.Counter()
    patches = []

    def counting(name, init):
        def wrapped(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)
        return wrapped

    try:
        for module_name, name in RECORDS:
            cls = getattr(modules[module_name], name)
            patches.append((cls, cls.__dict__["__init__"]))
            cls.__init__ = counting(name, cls.__init__)
        for op in ops:
            gr.classify(op.spec)
    finally:
        for cls, init in patches:
            cls.__init__ = init
    return {name: counts[name] / len(ops) for _, name in RECORDS}


class Stages:
    """Timers wrapped around the stage functions in every gammaratio module that binds them."""

    def __init__(self, modules):
        self.modules = modules
        self.time = collections.Counter()
        self.reached: set[str] = set()
        self.counts = collections.Counter()
        self.widths = collections.Counter()
        self.counting = True
        self.patches = []
        for stage, groups in STAGES.items():
            for group in groups:
                name = next((n for n in group.split("|") if any(hasattr(m, n) for m in modules)), None)
                if name is not None:
                    self._wrap(stage, name)

    def _wrap(self, stage: str, name: str):
        original = next(getattr(m, name) for m in self.modules if hasattr(m, name))

        def timed(*args, **kwargs):
            self.reached.add(stage)
            if self.counting and name == "identical_factor_multisets":
                self.counts["identical-multisets calls"] += 1
            elif self.counting and name in ("_power_terms", "_kernel_u"):
                f = args[0]
                p, n = f.p, len(f.scales)
                for width in (p, n - p) * (1 if name == "_power_terms" else 2):
                    self.widths[width] += 1
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.time[stage] += perf_counter() - t0

        for m in self.modules:
            if getattr(m, name, None) is original:
                self.patches.append((m, name, original))
                setattr(m, name, timed)

    def restore(self):
        for m, name, original in reversed(self.patches):
            setattr(m, name, original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--best-of", type=int, default=7)
    parser.add_argument("--cycles", type=int, default=40, help="classify-survey cycles per seed")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import gammaratio as gr
    from gammaratio import monotonicity, ratio
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)
    ops = [op for seed in args.seeds for op in workloads.first_ops("classify-survey", seed, args.cycles)]
    best = [math.inf] * len(ops)
    best_read = [math.inf] * len(ops)
    for _ in range(args.best_of):
        for i, op in enumerate(ops):
            t0 = perf_counter()
            gr.classify(op.spec)
            best[i] = min(best[i], perf_counter() - t0)
        for i, op in enumerate(ops):
            t0 = perf_counter()
            for ev in gr.classify(op.spec).evidence:
                ev.witness
            best_read[i] = min(best_read[i], perf_counter() - t0)
    records = count_records(gr, {"monotonicity": monotonicity, "ratio": ratio}, ops)
    by_stratum = collections.defaultdict(list)
    for op, t in zip(ops, best):
        by_stratum["fixtures" if op.stratum.startswith("spec_") else op.stratum].append(t)

    stages = Stages([monotonicity, ratio])
    reached = collections.Counter()
    total, stage_time = math.inf, collections.defaultdict(lambda: math.inf)
    try:
        for rep in range(args.best_of):
            stages.counting = rep == 0
            stages.time.clear()
            run_s = 0.0
            for op in ops:
                stages.reached.clear()
                t0 = perf_counter()
                gr.classify(op.spec)
                run_s += perf_counter() - t0
                if rep == 0:
                    reached.update(stages.reached)
            total = min(total, run_s)
            for k, v in stages.time.items():
                stage_time[k] = min(stage_time[k], v)
    finally:
        stages.restore()

    tables = {
        "src": os.path.abspath(args.src), "seeds": args.seeds, "best_of": args.best_of, "ops": len(ops),
        "per_op_us": {"mean": 1e6 * statistics.fmean(best), "median": 1e6 * statistics.median(best)},
        "per_op_us_reading_witnesses": {"mean": 1e6 * statistics.fmean(best_read),
                                        "median": 1e6 * statistics.median(best_read)},
        "records_per_op": records,
        "per_op_us_by_stratum": {k: 1e6 * statistics.fmean(v) for k, v in sorted(by_stratum.items())},
        "ops_by_stratum": {k: len(v) for k, v in sorted(by_stratum.items())},
        "stage_share": {k: stage_time[k] / total for k in STAGES if k in stage_time},
        "ops_reaching_stage": {k: reached[k] for k in STAGES if k in reached},
        "slices_by_width": dict(sorted(stages.widths.items())),
        "identical_multisets_calls": stages.counts["identical-multisets calls"],
        "instrumented_us_per_op": 1e6 * total / len(ops),
    }
    print(f"{len(ops)} ops, per op mean {tables['per_op_us']['mean']:.1f} us, "
          f"median {tables['per_op_us']['median']:.1f} us (best of {args.best_of})")
    for k, v in tables["per_op_us_by_stratum"].items():
        print(f"  {k:14s} {tables['ops_by_stratum'][k]:5d} ops  {v:7.1f} us/op")
    print(f"with every witness read: mean {tables['per_op_us_reading_witnesses']['mean']:.1f} us, "
          f"median {tables['per_op_us_reading_witnesses']['median']:.1f} us")
    print("records built per op: " + ", ".join(f"{k} {v:.2f}" for k, v in records.items()))
    print(f"stages (instrumented pass, {tables['instrumented_us_per_op']:.1f} us/op):")
    for k, v in tables["stage_share"].items():
        print(f"  {k:38s} {100 * v:5.1f}%  reached by {tables['ops_reaching_stage'][k]} ops")
    print(f"row-sum slices by width: {tables['slices_by_width']}")
    print(f"identical_factor_multisets calls: {tables['identical_multisets_calls']}")
    print(json.dumps(tables, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
