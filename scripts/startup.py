"""Alternated pairs of fresh interpreters on two gammaratio checkouts: start-up or the benchmark.

    python3 scripts/startup.py BASE HEAD [--pairs 10] [--json FILE]
    python3 scripts/startup.py BASE HEAD --workload density-scatter --seed 1 [--pairs 10] [--seconds 20]

BASE and HEAD are roots of two checkouts, each with its own src/ and bench/;
this script only reads bench/.  Pair i runs BASE first when i is even and
HEAD first when it is odd.

Without --workload a run of a checkout is bench/run.py's SETUP_CODE in a
fresh interpreter (import gammaratio and gammaratio.cli, one classify and
one fox_h), scaled to the benchmark's reference speed as its measure_setup
does: set-up time * CAL_UNIT_REF_S / the calibration unit time measured
right after it.  The script prints each side's median and interquartile
range, the pairs HEAD won, and the package's rows of ``-X importtime`` for
the same set-up in one more interpreter per checkout.

With --workload a run is ``bench/run.py --workload W --seed S+i --seconds N
--trace 0`` in the checkout, and every end-to-end metric of its result line
is summarised the same way, each in the direction BENCHMARK.json gives it.

--json writes the pairs and the summary to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys

SIDES = ("base", "head")

# Modules whose -X importtime rows are printed: the package's own and the
# dependencies and standard modules that start-up may or may not load.
IMPORT_ROWS = ("gammaratio", "numpy", "mpmath", "scipy", "argparse", "csv", "json")


def _bench_run(root: str, side: str):
    """The checkout's bench/run.py as a module (it pins the native thread pools on import)."""
    path = os.path.join(root, "bench", "run.py")
    spec = importlib.util.spec_from_file_location(f"bench_run_{side}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _src_digest(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "gammaratio")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _setup_once(root: str, run) -> dict:
    bench = os.path.join(root, "bench")
    done = subprocess.run([sys.executable, "-c", run.SETUP_CODE, bench], cwd=root, capture_output=True,
                          text=True, timeout=300, check=True)
    setup_s, unit_s = map(float, done.stdout.strip().splitlines()[-1].split())
    return {"setup_s": setup_s * run.CAL_UNIT_REF_S / unit_s, "wall_s": setup_s, "cal_unit_ms": unit_s * 1e3}


def _bench_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=root, capture_output=True, text=True, timeout=3600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return out


def _importtime(root: str, run) -> list[list]:
    """[module, self us, cumulative us] of the set-up's import rows in IMPORT_ROWS."""
    # SETUP_CODE up to its timer's stop: the calibration after it imports
    # scipy and mpmath for the benchmark, not for the package.
    code = run.SETUP_CODE.split("setup = ")[0]
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=root, capture_output=True,
                          text=True, timeout=300, check=True)
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name.split(".")[0] in IMPORT_ROWS and (name.startswith("gammaratio") or "." not in name):
            rows.append([name, int(self_us), int(cumulative_us)])
    return rows


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, the ratio of medians, and the pairs
    HEAD won in the metric's direction ("lower" or "higher")."""
    out = {}
    for name, better in metrics.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        q_base, q_head = _quartiles(base), _quartiles(head)
        won = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
        out[name] = {
            "better": better,
            "base_median": q_base[1], "base_iqr": [q_base[0], q_base[2]],
            "head_median": q_head[1], "head_iqr": [q_head[0], q_head[2]],
            "base_over_head": q_base[1] / q_head[1] if q_head[1] else None,
            "gap": abs(q_base[1] - q_head[1]), "base_iqr_width": q_base[2] - q_base[0],
            "head_won": f"{won}/{len(pairs)}",
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default=None, help="run bench/run.py pairs of this workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0 (pair i uses seed + i)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", default=None, help="write the pairs and summary to this file")
    args = parser.parse_args(argv)

    roots = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    runs = {side: _bench_run(root, side) for side, root in roots.items()}
    pairs = []
    for i in range(args.pairs):
        pair = {"first": SIDES[i % 2]}
        if args.workload:
            pair["seed"] = args.seed + i
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            if args.workload:
                pair[side] = _bench_once(roots[side], args.workload, args.seed + i, args.seconds)
            else:
                pair[side] = _setup_once(roots[side], runs[side])
        pairs.append(pair)
        print(f"pair {i}: " + "  ".join(f"{side} {pair[side]}" for side in SIDES), flush=True)

    if args.workload:
        with open(os.path.join(roots["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            metrics = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    else:
        metrics = {"setup_s": "lower", "wall_s": "lower"}
    summary = summarize(pairs, metrics)
    for name, s in summary.items():
        print(f"{name:16s} base {s['base_median']:.6g} (IQR {s['base_iqr'][0]:.6g}-{s['base_iqr'][1]:.6g})  "
              f"head {s['head_median']:.6g} (IQR {s['head_iqr'][0]:.6g}-{s['head_iqr'][1]:.6g})  "
              f"base/head {s['base_over_head']:.3f}  head won {s['head_won']}")
    record = {"mode": args.workload or "setup", "src_digest": {side: _src_digest(r) for side, r in roots.items()},
              "pairs": pairs, "summary": summary}
    if not args.workload:
        record["importtime_us"] = {side: _importtime(roots[side], runs[side]) for side in SIDES}
        for side in SIDES:
            print(f"{side} -X importtime (module, self us, cumulative us):")
            for name, self_us, cumulative_us in record["importtime_us"][side]:
                print(f"  {name:28s} {self_us:8d} {cumulative_us:8d}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
