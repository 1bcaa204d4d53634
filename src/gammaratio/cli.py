"""Batch front end: run analyses from a JSON config and write reports.

Each (spec, command) pair produces ``<output>/<spec-name>/<command>.report``
(JSON) and, for curve-producing commands, ``<command>.csv`` (RFC 4180,
header row, shortest round-trip decimals).  Exit status: 0 when every
non-exploratory check passed, 1 on input errors, 2 when any check failed or
errored numerically.
"""

from __future__ import annotations

import dataclasses
import datetime
import io
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError
from .foxh import ContourConfig, DensityEvaluator, density
from .monotonicity import classify, identical_factor_multisets
from .ratio import RatioSpec, cm_kernel_t, derive, gamma_ratio

# The verification module and argparse, csv and json are imported by the
# handlers and functions that use them, so that classify and eval-h jobs
# start without them.

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_CHECK_FAILED = 2


class ConfigError(ValueError):
    """Malformed or invalid job configuration."""


@dataclasses.dataclass(frozen=True)
class JobConfig:
    specs: tuple[tuple[str, RatioSpec], ...]
    commands: tuple[str, ...]
    contour: ContourConfig
    seed: int
    output_dir: str | None
    grids: dict
    tol_scale: float = 1.0


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _parse_grid(name: str, values) -> tuple[float, ...]:
    _require(isinstance(values, list) and values, f"grids.{name} must be a non-empty list")
    out = []
    for v in values:
        _require(isinstance(v, (int, float)), f"grids.{name} entry {v!r} is not a number")
        # A JSON integer beyond the double range would overflow float().
        x = float(v) if abs(v) <= sys.float_info.max else math.inf
        _require(math.isfinite(x) and x > 0.0, f"grids.{name} entry {v!r} must be positive and finite")
        out.append(x)
    _require(all(b > a for a, b in zip(out, out[1:])), f"grids.{name} must be strictly increasing")
    return tuple(out)


def parse_config(path: str) -> JobConfig:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from None

    _require(isinstance(raw, dict), "config root must be a JSON object")
    specs_raw = raw.get("specs")
    _require(isinstance(specs_raw, list) and specs_raw, "config must define a non-empty 'specs' list")
    specs = []
    seen = set()
    for k, entry in enumerate(specs_raw):
        _require(isinstance(entry, dict), f"specs[{k}] must be an object")
        name = entry.get("name")
        _require(isinstance(name, str) and name, f"specs[{k}].name must be a non-empty string")
        _require(name not in seen, f"duplicate spec name {name!r}")
        _require(all(ch.isalnum() or ch in "-_." for ch in name), f"spec name {name!r} has unsafe characters")
        seen.add(name)
        try:
            spec = RatioSpec.from_dict(entry)
        except DomainError as exc:
            raise ConfigError(f"specs[{k}] ({name}): {exc}") from None
        specs.append((name, spec))

    commands_raw = raw.get("commands")
    _require(isinstance(commands_raw, list) and commands_raw, "config must define a non-empty 'commands' list")
    for cmd in commands_raw:
        _require(cmd in COMMANDS, f"unknown command {cmd!r}; valid: {', '.join(COMMANDS)}")

    contour_raw = raw.get("contour", {})
    _require(isinstance(contour_raw, dict), "'contour' must be an object")
    unknown = set(contour_raw) - {f.name for f in dataclasses.fields(ContourConfig)}
    _require(not unknown, f"unknown contour fields: {sorted(unknown)}")
    try:
        contour = ContourConfig(**contour_raw)
    except DomainError as exc:
        raise ConfigError(f"contour: {exc}") from None

    seed = raw.get("seed", 0)
    _require(isinstance(seed, int), "'seed' must be an integer")

    grids_raw = raw.get("grids", {})
    _require(isinstance(grids_raw, dict), "'grids' must be an object")
    grids = {name: _parse_grid(name, vals) for name, vals in grids_raw.items()}

    output_dir = raw.get("output_dir")
    _require(output_dir is None or isinstance(output_dir, str), "'output_dir' must be a string")

    return JobConfig(
        specs=tuple(specs),
        commands=tuple(dict.fromkeys(commands_raw)),
        contour=contour,
        seed=seed,
        output_dir=output_dir,
        grids=grids,
    )


def _to_jsonable(obj):
    """Plain JSON values; a non-finite float becomes the string "inf", "-inf" or "nan"."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_report(out_dir: str, command: str, payload: dict) -> None:
    import json

    payload = dict(payload)
    payload["meta"] = {"created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                       "tool_version": __version__}
    # Formatted whole and written once: json.dump would write each chunk of the
    # indenting encoder on its own.
    text = json.dumps(_to_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(os.path.join(out_dir, f"{command}.report"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(out_dir: str, command: str, header: list[str], rows: list[tuple]) -> None:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    # newline="" so the CRLF terminators of the csv module are written as they are.
    with open(os.path.join(out_dir, f"{command}.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(buffer.getvalue())


def _default_x_grid(rho: float) -> list[float]:
    return [rho * k / 50.0 for k in range(1, 50)]


# A command handler fills the report payload and returns its status with an
# optional CSV header and rows; "check_failed" sets exit status 2.
_CURVE_HEADER = ["x", "value", "error_estimate"]


def _checks(payload: dict, checks, ok: bool = True) -> str:
    payload["checks"] = [dataclasses.asdict(c) for c in checks]
    return "ok" if ok and all(c.passed for c in checks) else "check_failed"


def _residual_rows(checks) -> list[tuple]:
    return [(x, r, 0.0) for c in checks for x, r in zip(c.sample_points, c.residuals)]


def _classify(spec: RatioSpec, inv, job: JobConfig, payload: dict):
    verdict = classify(spec)
    payload["results"] = {
        "classification": verdict.classification,
        "evidence": [dataclasses.asdict(ev) for ev in verdict.evidence],
        "derived": dataclasses.asdict(verdict.derived),
    }
    return "ok", None, ()


def _eval_h(spec: RatioSpec, inv, job: JobConfig, payload: dict):
    xs = job.grids.get("x") or _default_x_grid(inv.rho)
    rows = [(float(x), ev.value, ev.error_estimate) for x, ev in zip(xs, density(spec, xs, job.contour))]
    values = [r[1] for r in rows]
    payload["results"] = {"points": len(rows), "min_value": min(values), "max_value": max(values)}
    return "ok", _CURVE_HEADER, rows


def _verify_measure(spec: RatioSpec, inv, job: JobConfig, payload: dict):
    from .verification import CM_PROBE_TOL, LAPLACE_TOL, _laplace_report, _make_report, cm_probe

    cfg, scale = job.contour, job.tol_scale
    xs = job.grids.get("x") or (0.5, 1.0, 2.0, 4.0)
    if identical_factor_multisets(spec):
        # W == 1 exactly; the measure is a unit point mass at t = 0 and the
        # density part vanishes, so reconstruction reduces to checking W
        # against the constant 1.
        laplace = _make_report(
            "laplace_reconstruct", xs, [abs(gamma_ratio(spec, float(x)) - 1.0) for x in xs],
            LAPLACE_TOL * scale, "degenerate point-mass measure at t=0; density part vanishes",
        )
        h_min = 0.0
    else:
        # One evaluator serves the reconstruction and the positivity sample.
        ev = DensityEvaluator(spec, cfg)
        laplace = _laplace_report(ev, xs, LAPLACE_TOL * scale)
        h_min = float(ev.values([inv.rho * k / 16.0 for k in range(1, 16)]).min())
    checks = [laplace, cm_probe(spec, x0=2.0, h=0.05, max_order=6, tolerance=CM_PROBE_TOL * scale)]
    positivity_ok = bool(h_min >= -10.0 * cfg.quad_rel_tol * scale)
    payload["results"] = {"min_density_sample": h_min, "density_nonnegative": positivity_ok}
    return _checks(payload, checks, positivity_ok), _CURVE_HEADER, _residual_rows(checks)


def _identities(spec: RatioSpec, inv, job: JobConfig, payload: dict):
    from .verification import FOX_IDENTITY_TOL, MEIJER_IDENTITY_TOL, _fox_report, _meijer_report

    cfg, scale = job.contour, job.tol_scale
    checks = []
    # One evaluator serves both integral equations: with unit scales the
    # spec is its own Meijer-G parameter set.
    ev = DensityEvaluator(spec, cfg)
    if all(v == 1.0 for v in spec.A) and all(v == 1.0 for v in spec.B):
        xs = job.grids.get("x") or (0.2, 0.5, 0.8)
        checks.append(_meijer_report(ev, xs, MEIJER_IDENTITY_TOL * scale))
    xs_h = job.grids.get("x") or (inv.rho / 4.0, inv.rho / 2.0, 3.0 * inv.rho / 4.0)
    checks.append(_fox_report(ev, xs_h, FOX_IDENTITY_TOL * scale))
    return _checks(payload, checks), _CURVE_HEADER, _residual_rows(checks)


def _zeros(spec: RatioSpec, inv, job: JobConfig, payload: dict):
    from .verification import count_zeros

    report = count_zeros(spec, job.contour, grid_size=256)
    payload["results"] = dataclasses.asdict(report)
    if report.conjecture_consistent is False:
        payload["flag"] = "density has more certified sign changes than the kernel"
    ts = job.grids.get("t") or [k / 100.0 for k in range(1, 100)]
    rows = [(float(t), float(cm_kernel_t(spec, float(t))), 0.0) for t in ts]
    return "ok", ["t", "value", "error_estimate"], rows


def _mc_moments(spec: RatioSpec, inv, job: JobConfig, payload: dict):
    from .verification import MC_TOL_SE, beta_product_moments

    if not (spec.p == spec.q and spec.A == spec.B and all(bj > aj for aj, bj in zip(spec.a, spec.b))):
        payload["results"] = {
            "reason": "requires p=q, A=B elementwise and b>a elementwise "
            "to induce beta-product parameters"
        }
        return "not_applicable", None, ()
    alphas = [aj + Aj for aj, Aj in zip(spec.a, spec.A)]
    betas = [bj - aj for aj, bj in zip(spec.a, spec.b)]
    xs = job.grids.get("x") or (1.5, 2.0, 3.0)
    check = beta_product_moments(
        alphas, betas, spec.A, xs, n_samples=100_000, rng_seed=job.seed,
        tolerance=MC_TOL_SE * job.tol_scale,
    )
    return _checks(payload, [check]), None, ()


_HANDLERS = {
    "classify": _classify,
    "eval-h": _eval_h,
    "verify-measure": _verify_measure,
    "identities": _identities,
    "zeros": _zeros,
    "mc-moments": _mc_moments,
}
COMMANDS = tuple(_HANDLERS)


def _run_one(name: str, spec: RatioSpec, command: str, job: JobConfig, out_dir: str) -> tuple[bool, bool]:
    """Run one (spec, command) pair; returns (check_failed, errored)."""
    payload: dict = {"command": command, "spec": {"name": name, **spec.to_dict()}}
    try:
        inv = derive(spec)
        if command not in _HANDLERS:
            raise ConfigError(f"unknown command {command!r}")
        payload["status"], header, rows = _HANDLERS[command](spec, inv, job, payload)
        _write_report(out_dir, command, payload)
        if header:
            _write_csv(out_dir, command, header, rows)
        return payload["status"] == "check_failed", False
    except (DomainError, ValueError, RuntimeError, ArithmeticError) as exc:
        payload["status"] = "error"
        payload["error"] = f"{type(exc).__name__}: {exc}"
        _write_report(out_dir, command, payload)
        return False, True


def run(job: JobConfig, output: str) -> int:
    os.makedirs(output, exist_ok=True)
    any_failed = False
    any_error = False
    for name, spec in job.specs:
        out_dir = os.path.join(output, name)
        os.makedirs(out_dir, exist_ok=True)
        for command in job.commands:
            failed, errored = _run_one(name, spec, command, job, out_dir)
            any_failed = any_failed or failed
            any_error = any_error or errored
    return EXIT_CHECK_FAILED if (any_failed or any_error) else EXIT_OK


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="gammaratio",
        description="Analyze weighted gamma-function ratios: monotonicity "
        "classification, representing-density evaluation, identity checks.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--output", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument(
        "--tol-scale", type=float, default=1.0,
        help="multiply every check tolerance by this factor",
    )
    parser.add_argument(
        "--command", action="append", default=None, metavar="NAME",
        help="run only this command (repeatable; overrides config)",
    )
    args = parser.parse_args(argv)

    try:
        job = parse_config(args.config)
        if args.command:
            for cmd in args.command:
                if cmd not in COMMANDS:
                    raise ConfigError(f"unknown command {cmd!r}; valid: {', '.join(COMMANDS)}")
            job = dataclasses.replace(job, commands=tuple(dict.fromkeys(args.command)))
        if args.seed is not None:
            job = dataclasses.replace(job, seed=args.seed)
        if args.tol_scale <= 0.0 or not math.isfinite(args.tol_scale):
            raise ConfigError(f"--tol-scale must be a positive number, got {args.tol_scale}")
        job = dataclasses.replace(job, tol_scale=args.tol_scale)
        output = args.output or job.output_dir
        if not output:
            raise ConfigError("no output directory: pass --output or set 'output_dir' in the config")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    return run(job, output)


if __name__ == "__main__":
    raise SystemExit(main())
