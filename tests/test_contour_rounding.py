"""Density points of zero-shift specs just above the endpoint series' switch.

With every shift 0 the numerator poles coincide at s = 0 and the rounding of
log rho weighs most; every point the hyperbola ladder serves there must lie
within its estimate of the 40-digit EndpointSeries40 of tests/oracles.py.
"""

import math
import random

from gammaratio import QuadratureAccuracyError, fox_h
from gammaratio.foxh import DensityEvaluator
from oracles import EndpointSeries40, box_spec


def zero_shift_spec(rng):
    """A box spec with every shift 0, whose endpoint series switches below half its radius."""
    while True:
        spec = box_spec(rng)
        if not any(spec.a + spec.b):
            ev = DensityEvaluator(spec)
            if 0.0 < ev.series.switch < 0.8 * ev.half_radius:
                return spec, ev


def test_zero_shift_contour_points_within_estimate():
    # Points just above the switch take the hyperbola ladder; the 40-digit
    # series still converges there (omega below half its radius).
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
        exact = EndpointSeries40(spec)(x)
        assert exact is not None, (spec, omega)
        assert abs(result.value - float(exact)) <= result.error_estimate, (spec, omega, result)
        checked += 1
    assert checked >= 20
