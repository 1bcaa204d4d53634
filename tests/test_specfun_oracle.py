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

from gammaratio import digamma, log_gamma, polygamma
from gammaratio.specfun import log_gamma_plane, log_gamma_sum, loggamma

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


@pytest.mark.parametrize("p", [1, 2, 3])
def test_log_gamma_sum_within_magnitude(p):
    # Rows 0 and 3 differ by 2 along the line and cancel to a Pochhammer
    # product when they fall on opposite sides; the sum is known modulo
    # 2 pi i, within 2 eps times its magnitude.
    t = np.array([0.0, 0.7, 4.0, 35.0, 900.0])
    scales, shifts = np.array([[1.0], [2.5], [0.3], [1.0]]), np.array([[0.25], [3.0], [0.0], [2.25]])
    z = scales * (0.4 + 1j * t) + shifts
    total, size = log_gamma_sum(z, p)
    with mpmath.workdps(30):
        for k in range(len(t)):
            exact = sum((1 if i < p else -1) * mpmath.loggamma(mpmath.mpc(z[i, k])) for i in range(len(z)))
            diff = complex(total[k]) - complex(exact)
            diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
            assert abs(diff) <= 2.0 * EPS * size[k], (p, t[k], diff, size[k])


def test_log_gamma_plane_within_magnitude():
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
    with mpmath.workdps(30):
        for z, v, m in zip(points, value.tolist(), size.tolist()):
            diff = v - complex(mpmath.loggamma(mpmath.mpc(z)))
            diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
            assert abs(diff) <= 2.0 * EPS * m, (z, v, diff, m)
    # At a pole: +inf, whose reciprocal is 0, with magnitude 0.
    value, size = log_gamma_plane(np.array([-4.0 + 0j, 1.5 + 0j]))
    assert value[0] == math.inf and size[0] == 0.0


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
