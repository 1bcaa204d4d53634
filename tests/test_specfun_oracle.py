"""The package's own special functions against mpmath at 30 digits.

Every value must lie within the error estimate the function returns (or,
for math.gamma, within the rounding that foxh's lead_err assumes), and the
complex log-gamma must be the principal branch: it is compared with
mpmath's principal loggamma, and it must not jump along vertical lines.
"""

import math
import random

import mpmath
import numpy as np
import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import derive, digamma, fox_h, log_gamma, polygamma, specfun
from gammaratio.specfun import log_gamma_plane, loggamma
from oracles import PACKAGE_ERRORS, coverage_points

EPS = float(np.finfo(float).eps)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class TestComplexLogGamma:
    def grid(self):
        # Re z in [5e-5, 2e3] and |Im z| in [1e-3, 1e7], both log-uniform,
        # both half-planes.
        rng = random.Random(20150126)
        return [
            complex(log_uniform(rng, 5e-5, 2e3), rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-3, 1e7))
            for _ in range(400)
        ]

    def test_within_estimate_of_principal_branch(self):
        with mpmath.workdps(30):
            for z in self.grid():
                result = log_gamma(z)
                exact = complex(mpmath.loggamma(mpmath.mpc(z)))
                assert abs(result.value - exact) <= result.abs_error_estimate, (z, result, exact)

    def test_reflection_left_of_one_half(self):
        rng = random.Random(7)
        points = [complex(-log_uniform(rng, 1e-3, 1e4), rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-3, 50.0))
                  for _ in range(100)]
        points += [complex(0.3, 2.0), complex(-2.0, 1e-10), complex(-5.5, -1e-6), complex(0.49, -30.0)]
        with mpmath.workdps(30):
            for z in points:
                result = log_gamma(z)
                exact = complex(mpmath.loggamma(mpmath.mpc(z)))
                assert abs(result.value - exact) <= result.abs_error_estimate, (z, result, exact)

    @pytest.mark.parametrize("c", [5e-5, 0.05, 0.5, 7.9, 8.0, 8.1, 40.0])
    def test_continuous_along_vertical_lines(self, c):
        # Steps of 0.01 in Im z cross the shift boundaries |z| = 10 and the
        # sign change at Im z = 0.  Next to the pole at 0 the argument turns
        # by up to pi within one step, but no step may jump by 2 pi.
        ts = np.linspace(-15.0, 15.0, 3001)
        values = loggamma(c + 1j * ts)
        assert np.abs(np.diff(values.imag)).max() < 4.0

    def test_array_matches_scalar(self):
        # Right of Re z = 1/2 the scalar is the one-entry array.
        z = np.array([v for v in self.grid() if v.real >= 0.5][:50])
        assert np.array_equal(loggamma(z), [log_gamma(v).value for v in z])


def assert_within_magnitude(points, value, size):
    """Each value within 2 eps times its magnitude of mpmath's loggamma, modulo 2 pi i."""
    with mpmath.workdps(30):
        for z, v, m in zip(points, value, size):
            diff = v - complex(mpmath.loggamma(mpmath.mpc(z)))
            diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
            assert abs(diff) <= 2.0 * EPS * m, (z, v, diff, m)


def rung_0_calls(monkeypatch):
    """(argument, value, magnitude) of every log_gamma_plane call a rung-0 hyperbola makes over
    the fuzz and far sets of tests/oracles.coverage_points, as the contours made them."""
    calls, rungs = [], []
    init, plane = foxh_mod._Hyperbola.__init__, specfun.log_gamma_plane

    def build(self, ev, top, rung, sigma):
        rungs.append(rung)
        init(self, ev, top, rung, sigma)

    def recorded(z):
        value, size = plane(z)
        if rungs[-1] == 0:
            calls.append((z.copy(), value.copy(), size.copy()))
        return value, size

    monkeypatch.setattr(foxh_mod._Hyperbola, "__init__", build)
    monkeypatch.setattr(specfun, "log_gamma_plane", recorded)
    for name in ("fuzz", "far"):
        for spec, omega in coverage_points(name):
            try:
                fox_h(spec, math.exp(derive(spec).log_rho - omega))
            except PACKAGE_ERRORS:
                pass
    return calls


def test_log_gamma_plane_within_magnitude(monkeypatch):
    # The reflection log-gamma of the hyperbolic contour, modulo 2 pi i, within
    # 2 eps times its magnitude: -Re z and |Im z| log-uniform up to 1e3 (the
    # asymptotic log sin past |Im z| = 200 included), points right of 1/2,
    # near the poles and on the real axis.
    rng = random.Random(20150133)
    points = [complex(-log_uniform(rng, 1e-3, 1e3), rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-3, 1e3))
              for _ in range(600)]
    points += [complex(log_uniform(rng, 1e-3, 1e3), rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-3, 1e3))
               for _ in range(100)]
    points += [complex(-3.0 + 1e-9, 0.0), complex(-7.5, 0.0), complex(0.2, 0.0), complex(-2.0, 1e-12),
               complex(0.49, -30.0), complex(-150.25, 200.5), complex(-0.3, -999.0)]
    value, size = log_gamma_plane(np.array(points))
    assert_within_magnitude(points, value.tolist(), size.tolist())
    # At a pole: +inf, whose reciprocal is 0, with magnitude 0.
    value, size = log_gamma_plane(np.array([-4.0 + 0j, 1.5 + 0j]))
    assert value[0] == math.inf and size[0] == 0.0
    # The arguments the rung-0 hyperbolas pass, every 20th call: reflected entries and
    # entries past |Im z| = 200 among them, each value as the contour got it.
    calls = rung_0_calls(monkeypatch)[::20]
    z = np.concatenate([arg.ravel() for arg, _, _ in calls])
    reflected = z.real < 0.5
    assert np.count_nonzero(reflected) > 1000 and np.count_nonzero(np.abs(z.imag[reflected]) > 200.0) > 100
    for arg, value, size in calls:
        assert_within_magnitude(arg.ravel().tolist(), value.ravel().tolist(), size.ravel().tolist())
    # An exact pole in a contour's array: its first node on the real axis moved to 0 and
    # to -2, the other entries as before.
    arg = calls[0][0].copy()
    arg[:2, 0] = 0.0, -2.0
    value, size = log_gamma_plane(arg)
    assert (value[:2, 0] == math.inf).all() and (size[:2, 0] == 0.0).all()
    assert np.array_equal(value[:, 1:], calls[0][1][:, 1:]) and np.array_equal(size[:, 1:], calls[0][2][:, 1:])


def test_digamma_within_estimate():
    rng = random.Random(11)
    xs = [log_uniform(rng, 1e-3, 1e4) for _ in range(400)] + [1.4616321449683622, 1e-3, 1e4]
    with mpmath.workdps(30):
        for x in xs:
            result = digamma(x)
            exact = float(mpmath.digamma(x))
            assert abs(result.value - exact) <= 5e-14 * (1.0 + abs(exact)) and result.abs_error_estimate >= 0.0, x


@pytest.mark.parametrize("n", range(1, 13))
def test_polygamma_within_estimate(n):
    rng = random.Random(n)
    xs = [log_uniform(rng, 1e-3, 1e4) for _ in range(60)] + [0.5, 8.0 + n]
    with mpmath.workdps(30):
        for x in xs:
            value = polygamma(n, x).value
            exact = float(mpmath.polygamma(n, x))
            assert abs(value - exact) <= 1e-12 + 1e-13 * abs(exact), (n, x, value, exact)


def test_math_gamma_within_lead_err_rounding():
    # foxh.DensityEvaluator.lead_err takes Gamma(mu) within 3.8 eps relative
    # on [0.2, 170]; the density's leading part divides by math.gamma(mu).
    rng = random.Random(170)
    with mpmath.workdps(30):
        for _ in range(2000):
            x = log_uniform(rng, 0.2, 170.0)
            exact = mpmath.gamma(x)
            assert abs((mpmath.mpf(math.gamma(x)) - exact) / exact) <= 3.8 * EPS, x
