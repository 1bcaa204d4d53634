"""Density values near the support endpoint against the endpoint series of tests/oracles.py.

At omega = log(rho/x) up to 1.5 on specs with scales in [0.6, 3], fox_h
serves a point by the package's endpoint series below its switch and by the
hyperbola ladder above it.  Every error estimate must bound the distance to
EndpointSeries40, the same series summed independently in mpmath at 40
digits plus the digits its terms cancel, until a term falls below 1e-30 of
the sum.
"""

import math
import random

from gammaratio import derive, fox_h
from oracles import OMEGAS, EndpointSeries40, scaled_spec


def test_error_within_estimate(spec_equal_scales):
    # The oracle converges at every point (it returns None where it does not).
    rng = random.Random(20150125)
    for spec in [spec_equal_scales] + [scaled_spec(rng) for _ in range(8)]:
        rho = derive(spec).rho
        series = EndpointSeries40(spec)
        for omega in OMEGAS:
            x = rho * math.exp(-omega)
            exact = series(x)
            assert exact is not None, (spec, omega)
            ev = fox_h(spec, x)
            assert abs(ev.value - float(exact)) <= ev.error_estimate, (spec, omega, ev)
