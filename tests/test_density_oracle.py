"""Density values against an independent high-precision oracle.

With unit scales the representing density is a Meijer G-function,
H(x) = G^{p,0}_{p,p}(x | b; a) on (0, 1), which tests/oracles.meijer_density
evaluates at 20 digits.  The points take the endpoint series and the
hyperbola ladder, and every error estimate must bound the distance to it.
"""

import math
import random

from gammaratio import RatioSpec, fox_h
from oracles import meijer_density

# Bands of omega = log(1/x): near the support endpoint, the middle, and far
# below it, where the contour moves toward the imaginary axis (omega > 6).
BANDS = ((0.01, 0.05), (0.05, 6.0), (6.0, 16.0))


def unit_spec(rng):
    """Seeded unit-scale spec with p = q in 1..3 and mu in [0.6, 4]."""
    p = rng.randint(1, 3)
    a = [rng.uniform(0.0, 2.0) for _ in range(p)]
    weights = [rng.uniform(0.2, 1.0) for _ in range(p)]
    target = rng.uniform(0.6, 4.0) + math.fsum(a)
    return RatioSpec(A=(1.0,) * p, a=a, B=(1.0,) * p, b=[target * w / math.fsum(weights) for w in weights])


def test_error_within_estimate():
    rng = random.Random(20150123)
    for _ in range(60):
        spec = unit_spec(rng)
        for lo, hi in BANDS:
            for _ in range(2):
                x = math.exp(-math.exp(rng.uniform(math.log(lo), math.log(hi))))
                ev = fox_h(spec, x)
                assert abs(ev.value - meijer_density(spec, x)) <= ev.error_estimate, (spec, x, ev)
