"""In-memory span tracer that wraps the package's layer functions from outside.

Every public function of the layer modules, plus the private density entry
points, is replaced by a wrapper in each gammaratio module that bound it
(for example cli.fox_h and verification._remainder_density).  A span is
[name, start, end, parent index, op id]; spans stay in memory until
`write`.  Self time is a span's duration minus the time its child spans
cover.  `close` restores every patched name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("ratio", "monotonicity", "foxh", "verification", "cli")

# Private functions that mark layer boundaries inside foxh: one density
# evaluation, and the head quadrature paths it may try in turn.
_PRIVATE = {"foxh": ("_remainder_density", "_fourier_re", "_fourier_truncated")}
_DENSITY = "foxh._remainder_density"
_HEAD_PATHS = ("foxh._fourier_re", "foxh._fourier_truncated")


class _Proxy:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []  # [span index, child time, head paths]
        self._density_depth = 0
        self._patches: list[tuple] = []

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            frame = [index, 0.0, 0]
            self._stack.append(frame)
            density = name == _DENSITY
            self._density_depth += density
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                self._density_depth -= density
                self._stack.pop()
                duration = end - span[1]
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                    if name in _HEAD_PATHS:
                        self._stack[-1][2] += 1
                if density and frame[2] > 1:
                    self.counts["foxh.retried_points"] += 1

        return wrapper

    def _quad(self, quad, outer: str):
        """quad wrapper: a head quadrature inside a density evaluation, else outer."""
        head = self._span("foxh.head_quad", quad)
        other = self._span(outer, quad)

        def traced(func, *args, **kwargs):
            name = "foxh.head_quad" if self._density_depth else outer
            key = name + ".evals"
            counts = self.counts

            def counted(*a):
                counts[key] += 1
                return func(*a)

            return (head if self._density_depth else other)(counted, *args, **kwargs)

        return traced

    def _set(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Patch every layer function in every gammaratio module that bound it."""
        import gammaratio
        from gammaratio import foxh, verification

        layer_modules = [importlib.import_module(f"gammaratio.{name}") for name in LAYERS]
        wrapped = {}
        for mod in layer_modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in _PRIVATE.get(short, ()))
                ):
                    wrapped[obj] = self._span(f"{short}.{attr}", obj)
        for mod in [gammaratio, *layer_modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        # _Contour.g is the only caller of loggamma, so counting loggamma
        # counts g without wrapping the hot method itself.
        counts = self.counts
        loggamma = foxh.sc.loggamma

        def counted_loggamma(z):
            counts["foxh.g.calls"] += 1
            return loggamma(z)

        self._set(foxh, "sc", _Proxy(foxh.sc, loggamma=counted_loggamma))
        self._set(foxh, "mpmath", _Proxy(foxh.mpmath, gammainc=self._span("foxh.tail_gammainc", foxh.mpmath.gammainc)))
        self._set(foxh, "quad", self._quad(foxh.quad, "foxh.mellin_quad"))
        self._set(verification, "quad", self._quad(verification.quad, "verification.quad"))

    def close(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer work counts and times, keyed by metric name."""
        calls, counts = self.calls, self.counts
        points = calls[_DENSITY]
        out = {}
        for name in ("ratio.cm_kernel_t", "monotonicity.check_kernel_nonneg", "ratio.derive",
                     "ratio.gamma_ratio", "foxh.fox_h"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in ("ratio.kernel_positive_part", "monotonicity.classify", "cli.run"):
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        classify = calls["monotonicity.classify"]
        out["monotonicity.check_kernel_nonneg.reached_frac"] = (
            calls["monotonicity.check_kernel_nonneg"] / classify if classify else 0.0, "ratio")
        out["foxh.points"] = (points, "count")
        out["foxh.g.calls"] = (counts["foxh.g.calls"], "count")
        out["foxh.g.calls_per_point"] = (counts["foxh.g.calls"] / points if points else 0.0, "count")
        out["foxh.fox_h.retried_frac"] = (counts["foxh.retried_points"] / points if points else 0.0, "ratio")
        for name in ("foxh.head_quad", "foxh.mellin_quad", "verification.quad"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.evals"] = (counts[name + ".evals"], "count")
            out[f"{name}.s"] = (self.total[name], "s")
        out["foxh.tail_gammainc.calls"] = (calls["foxh.tail_gammainc"], "count")
        out["foxh.tail_gammainc.s"] = (self.total["foxh.tail_gammainc"], "s")
        for name in ("laplace_reconstruct", "fox_identity_residual", "meijer_identity_residual", "cm_probe"):
            out[f"verification.{name}.s"] = (self.total[f"verification.{name}"], "s")
        return out

    def spans_by_layer(self) -> dict[str, int]:
        return dict(Counter(span[0].split(".", 1)[0] for span in self.spans))

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
