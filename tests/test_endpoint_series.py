"""Density values near the support endpoint against the endpoint series of tests/oracles.py.

At omega = log(rho/x) up to 1.5 on specs with scales in [0.6, 3], fox_h
serves a point by the package's endpoint series below its switch and by the
hyperbola ladder above it.  Every error estimate must bound the distance to
EndpointSeries40, the same series summed independently in mpmath at 40
digits plus the digits its terms cancel, until a term falls below 1e-30 of
the sum.  The series' set-up, a pass of array operations, must give bit for
bit what the same arithmetic gives in Python floats, a term at a time.
"""

import math
import random

import numpy as np
import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import derive, fox_h
from gammaratio.foxh import DensityEvaluator
from oracles import OMEGAS, EndpointSeries40, box_spec, scaled_spec

EPS = float(np.finfo(float).eps)


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


def loop_set_up(spec):
    """(omitted coefficients, switch, error weights) of the endpoint series in Python floats, a
    term at a time, with the arithmetic of foxh._EndpointSeries in the same order."""
    ev = DensityEvaluator(spec)
    md, magnitudes = (v[1:].tolist() for v in foxh_mod._stirling_table(spec, 21))
    e = foxh_mod._stirling_coefficients(md)
    mu = ev.inv.mu
    rising, coef, step = [], [], mu
    for k, e_k in enumerate(e[1:]):
        if k:
            step *= mu + k
        rising.append(step)
        coef.append(e_k / step)
    kept, omitted, switch = [abs(d) for d in coef[:-2]], coef[-2:], 0.0
    if 0.0 < ev.lead_scale < math.inf and all(map(math.isfinite, coef)):
        reach = math.inf
        live = [j for j, t in enumerate(omitted) if t]
        if live and max(kept) > 0.0:
            lo, hi = live[0], live[-1] + 1
            scale = np.array([[foxh_mod._SERIES_TRUNCATION / abs(t)] for t in omitted[lo:hi]])
            reach = float(((scale * kept) ** foxh_mod._SWITCH_ROOTS[lo:hi]).min(axis=0).max())
        switch = min(ev.half_radius, reach)
    factors = spec.p + spec.q + 6.0
    per_md = [EPS * ((m + factors) * size / m + abs(d)) for m, size, d in zip(range(1, 22), magnitudes, md)]
    convolved = np.convolve(per_md, np.abs(e))[:19].tolist()
    terms, psi = ([], [], [], []), 0.0
    for k, (error, e_k, step, d, size) in enumerate(zip(convolved, e[1:], rising, coef, kept), 1):
        psi += 1.0 / (mu + (k - 1))
        fixed = (error + k * EPS * abs(e_k)) / step
        terms[0].append(d)
        terms[1].append(fixed + size * ((k + 3.0) * EPS + ev.lead_err + ev.mu_err * abs(psi + ev.psi_mu)))
        terms[2].append(size * (mu - 1.0 + k))
        terms[3].append(size * ev.mu_err)
    return omitted, switch, np.array(terms)


@pytest.mark.parametrize("name", ["spec_mixed_scale", "spec_paired", "spec_equal_scales", "spec_inverse_x"])
def test_set_up_equals_float_loop(name, request):
    rng = random.Random(20150134)
    for spec in [request.getfixturevalue(name)] + [box_spec(rng) for _ in range(50)]:
        series = DensityEvaluator(spec).series
        omitted, switch, terms = loop_set_up(spec)
        assert np.array(series.omitted).tobytes() == np.array(omitted).tobytes(), spec
        assert series.switch.hex() == switch.hex(), spec
        assert series.terms.tobytes() == terms.tobytes(), spec
