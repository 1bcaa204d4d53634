"""Rounding estimates of the contour integrand g and of the contour points.

g = W(s) rho^-s - A* s^-mu is evaluated from the package's own fused
log-gamma sum; the rounding `_g` returns with it must bound its distance
to the same function at 30 digits, given the same double-precision log
rho, mu and log A*.  The rounding of log rho itself is one error at every
head node and is carried linearly in the line's noise; contour points of
zero-shift specs, where it weighs most, must stay within their estimates
of the 50-digit endpoint series.
"""

import math
import random

import mpmath
import numpy as np
import pytest

from gammaratio import QuadratureAccuracyError, fox_h
from gammaratio.foxh import DensityEvaluator, _g, _Line
from test_endpoint_series import series_terms
from test_series_path import box_spec

FIXTURES = ("spec_mixed_scale", "spec_paired", "spec_equal_scales", "spec_inverse_x")


def g_30_digits(spec, inv, s):
    """g at s from mpmath loggamma at 30 digits, with the package's log rho, mu and log A*."""
    with mpmath.workdps(30):
        s = mpmath.mpc(s)
        log_w = mpmath.fsum([mpmath.loggamma(A * s + a) for A, a in zip(spec.A, spec.a)]) - mpmath.fsum(
            [mpmath.loggamma(B * s + b) for B, b in zip(spec.B, spec.b)]
        )
        lead_log = mpmath.mpf(inv.log_stirling_const) - mpmath.mpf(inv.mu) * mpmath.log(s)
        return complex(mpmath.exp(lead_log) * mpmath.expm1(log_w - s * mpmath.mpf(inv.log_rho) - lead_log))


def assert_rounding_bounds_head(spec, nodes=40):
    ev = DensityEvaluator(spec)
    line = _Line(ev, ev.c, 1.0)
    s = ev.c + 1j * line.t
    g, rounding, _ = _g(spec, ev.inv, s)
    for k in range(0, len(s), max(1, len(s) // nodes)):
        assert abs(g[k] - g_30_digits(spec, ev.inv, s[k])) <= rounding[k], (spec, s[k], g[k], rounding[k])


@pytest.mark.parametrize("name", FIXTURES)
def test_g_rounding_bounds_error_on_fixture_heads(name, request):
    assert_rounding_bounds_head(request.getfixturevalue(name))


def test_g_rounding_bounds_error_on_box_heads():
    rng = random.Random(20150127)
    for _ in range(20):
        assert_rounding_bounds_head(box_spec(rng), nodes=20)


def zero_shift_spec(rng):
    """A box spec with every shift 0, whose endpoint series switches below half its radius."""
    while True:
        spec = box_spec(rng)
        if not any(spec.a + spec.b):
            ev = DensityEvaluator(spec)
            if 0.0 < ev.series.switch < 0.8 * ev.half_radius:
                return spec, ev


def test_zero_shift_contour_points_within_estimate():
    # Points just above the switch take the contour; the series at 50
    # digits still converges there (omega below half its radius).
    rng = random.Random(20150128)
    checked = 0
    for _ in range(25):
        spec, ev = zero_shift_spec(rng)
        omega = min(ev.series.switch * math.exp(rng.uniform(0.05, 1.0)), 0.8 * ev.half_radius)
        x = ev.inv.rho * math.exp(-omega)
        try:
            result = fox_h(spec, x)
        except QuadratureAccuracyError:
            continue
        terms = series_terms(spec, x)
        with mpmath.workdps(50):
            exact = mpmath.fsum(terms)
            assert abs(terms[-1]) <= 1e-30 * abs(exact), (spec, omega)
        assert abs(result.value - float(exact)) <= result.error_estimate, (spec, omega, result)
        checked += 1
    assert checked >= 20
