"""The endpoint-series path of the density near its support endpoint.

A point whose omega = log(rho/x) lies below a per-spec switch asks the
endpoint series first, which serves it alone (no contour, no F values) where
its estimate meets the rule of every path, err <= tol (|P| + |R|); a point
it refuses goes to the hyperbola ladder.  Every value must lie within its
estimate of a reference of tests/oracles.py: the leading part from the
50-digit invariants, the 40-digit endpoint series within half its radius,
or the Meijer G-function for integer scales.
"""

import math
import random

import mpmath
import numpy as np

import gammaratio.foxh as foxh_mod
from gammaratio import RatioSpec, derive, fox_h
from gammaratio.foxh import DensityEvaluator, _remainder_density
from oracles import PACKAGE_ERRORS, OMEGAS, EndpointSeries40, box_spec, invariants, meijer_density, scaled_spec


def test_leading_part_within_estimate(spec_equal_scales):
    # Against A* omega^(mu-1) / Gamma(mu) at 50 digits, with omega = log(rho/x)
    # from the exact log rho: the estimate carries the rounding of the terms
    # summed into log rho, of mu and of A*.
    rng = random.Random(20150125)
    for spec in [spec_equal_scales] + [scaled_spec(rng) for _ in range(8)]:
        ev = DensityEvaluator(spec)
        log_rho, mu, a_star = invariants(spec, 50)
        for omega in OMEGAS:
            x = ev.inv.rho * math.exp(-omega)
            (value,), (err,), _, _, _ = _remainder_density(ev, np.array([x]))
            with mpmath.workdps(50):
                exact = a_star * (log_rho - mpmath.log(mpmath.mpf(x))) ** (mu - 1) / mpmath.gamma(mu)
                assert abs(value - exact) <= err, (spec, omega, value, err)


class TestSeriesPoint:
    def test_builds_no_line(self, spec_mixed_scale, monkeypatch):
        # omega = 0.05 lies below the switch of spec_mixed_scale (2.02): the
        # point evaluates no F and builds no contour.
        def refuse(*args):
            raise AssertionError("the contour ran")

        monkeypatch.setattr(foxh_mod._Hyperbola, "__init__", refuse)
        ev = DensityEvaluator(spec_mixed_scale)
        assert ev.series.switch > 0.05
        got = ev.evaluate(ev.inv.rho * math.exp(-0.05))
        assert ev._hyperbolas == {}
        assert got.value == got.leading_part + got.remainder_part
        assert 0.0 < got.error_estimate < 1e-12 * got.value

    def test_batch_equals_single_points(self, spec_mixed_scale, spec_paired):
        # Series and contour points mixed in one batch give bitwise the
        # values and estimates they give alone.
        for spec in (spec_mixed_scale, spec_paired):
            rho = derive(spec).rho
            xs = [rho * math.exp(-w) for w in (0.004, 0.3, 0.7, 1.1, 2.0, 3.5, 9.0, -0.5)]
            batch = DensityEvaluator(spec)._records(np.array(xs))
            assert batch == [DensityEvaluator(spec).evaluate(x) for x in xs]

    def test_empty_batch(self):
        ev = DensityEvaluator(RatioSpec(A=(1,), a=(0.3,), B=(1,), b=(3.1,)))
        out = ev.values(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_underflow_returns_zero_within_estimate(self):
        # Beta density x^0 (1 - x)^149 / Gamma(150) at 1 - x = 1e-3 is about
        # 1e-707, below the least double: the point returns 0.0 with an
        # absolute estimate of at least the least normal double.
        spec = RatioSpec(A=(1,), a=(0.0,), B=(1,), b=(150.0,))
        x = 1.0 - 1e-3
        ev = fox_h(spec, x)
        exact_log10 = (149.0 * math.log(1e-3) - math.lgamma(150.0)) / math.log(10.0)
        assert exact_log10 < -700
        assert ev.value == 0.0
        assert np.finfo(float).tiny <= ev.error_estimate < 1e-300


def test_density_fuzz_box():
    # Each point returns within its estimate, or raises a package error.  The
    # reference is the 40-digit endpoint series within half its radius,
    # else the Meijer G-function for integer scales (omega >= 0.01, where its
    # series in x/rho is fast); other points must be finite.
    rng = random.Random(20150129)
    checked = 0
    for _ in range(30):
        spec = box_spec(rng)
        inv = derive(spec)
        series = EndpointSeries40(spec)
        for _ in range(3):
            omega = math.exp(rng.uniform(math.log(1e-3), math.log(30.0)))
            x = math.exp(inv.log_rho - omega)
            try:
                ev = fox_h(spec, x)
            except PACKAGE_ERRORS:
                continue
            assert math.isfinite(ev.value) and math.isfinite(ev.error_estimate), (spec, omega, ev)
            exact = series(x) if omega < math.pi * min(spec.A + spec.B) else None
            if exact is None and all(v == int(v) for v in spec.A + spec.B) and omega >= 0.01:
                exact = meijer_density(spec, x)
            if exact is not None:
                checked += 1
                assert abs(ev.value - exact) <= ev.error_estimate, (spec, omega, ev, exact)
    assert checked >= 40


def test_contour_rounding_norm_does_not_overflow():
    # The second box draw of seed 13 (p = 1, mu = 83.7): the squares of the
    # rounding of the line Re s = c overflowed and warned here before the
    # hyperbola ladder replaced that line.  The density is about 3e-2555 at
    # omega = 30: fox_h returns 0.0 within an estimate of at least the least
    # normal double, at omega = 30 and 100, and nothing warns.
    rng = random.Random(13)
    box_spec(rng)
    spec = box_spec(rng)
    for omega in (30.0, 100.0):
        got = fox_h(spec, math.exp(derive(spec).log_rho - omega))
        assert got.value == 0.0
        assert got.remainder_part == got.value - got.leading_part
        assert got.error_estimate >= np.finfo(float).tiny
