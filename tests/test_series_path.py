"""The endpoint-series path of the density near its support endpoint.

A point whose omega = log(rho/x) lies below a per-spec switch, and whose
series estimate beats the least estimate the contour could return, is
served by the endpoint series alone: no contour line, no g values, no tail
lattice.  Every such value must lie within its estimate of an independent
high-precision reference.
"""

import math
import random

import mpmath
import numpy as np
import pytest

import gammaratio.foxh as foxh_mod
from gammaratio import (
    DomainError,
    QuadratureAccuracyError,
    RatioSpec,
    SingularPointError,
    derive,
    fox_h,
)
from gammaratio.foxh import DensityEvaluator, _remainder_density
from test_endpoint_series import OMEGAS, TERMS, bernoulli_rows, scaled_spec

PACKAGE_ERRORS = (DomainError, QuadratureAccuracyError, SingularPointError)


def test_leading_part_within_estimate(spec_equal_scales):
    # Against A* omega^(mu-1) / Gamma(mu) at 50 digits, with omega = log(rho/x)
    # from the exact log rho: the estimate carries the rounding of the terms
    # summed into log rho, of mu and of A*.
    rng = random.Random(20150125)
    for spec in [spec_equal_scales] + [scaled_spec(rng) for _ in range(8)]:
        ev = DensityEvaluator(spec)
        for omega in OMEGAS:
            x = ev.inv.rho * math.exp(-omega)
            (value,), (err,), _, _, _ = _remainder_density(ev, np.array([x]))
            with mpmath.workdps(50):
                num = [(mpmath.mpf(A), mpmath.mpf(a)) for A, a in zip(spec.A, spec.a)]
                den = [(mpmath.mpf(B), mpmath.mpf(b)) for B, b in zip(spec.B, spec.b)]
                half = mpmath.mpf(1) / 2
                log_rho = mpmath.fsum(A * mpmath.log(A) for A, _ in num) - mpmath.fsum(B * mpmath.log(B) for B, _ in den)
                mu = mpmath.fsum(b for _, b in den) - mpmath.fsum(a for _, a in num) + half * (spec.p - spec.q)
                a_star = (
                    (2 * mpmath.pi) ** (half * (spec.p - spec.q))
                    * mpmath.fprod(A ** (a - half) for A, a in num)
                    * mpmath.fprod(B ** (half - b) for B, b in den)
                )
                exact = a_star * (log_rho - mpmath.log(mpmath.mpf(x))) ** (mu - 1) / mpmath.gamma(mu)
                assert abs(value - exact) <= err, (spec, omega, value, err)


class TestSeriesPoint:
    def test_builds_no_line(self, spec_mixed_scale, monkeypatch):
        # omega = 0.05 lies below the switch of spec_mixed_scale (2.02): the
        # point evaluates no g, builds no line and no tail lattice.
        def refuse(*args):
            raise AssertionError("the contour ran")

        monkeypatch.setattr(foxh_mod, "_g", refuse)
        monkeypatch.setattr(foxh_mod, "_ray_powers", refuse)
        ev = DensityEvaluator(spec_mixed_scale)
        assert ev.series.switch > 0.05
        got = ev.evaluate(ev.inv.rho * math.exp(-0.05))
        assert ev._lines == {}
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


def box_spec(rng):
    """A spec from the density-fuzz box: equal scale sums, scales in [0.05, 20] (a
    third of them small integers), shifts all 0 or up to 60, mu > 0.25."""
    while True:
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 1.0 / 3.0:
            A = [rng.randint(1, 4) for _ in range(p)]
            if q > sum(A):
                continue
            cuts = sorted(rng.sample(range(1, sum(A)), q - 1))
            B = [hi - lo for lo, hi in zip([0] + cuts, cuts + [sum(A)])]
        else:
            A = [math.exp(rng.uniform(math.log(0.05), math.log(20.0))) for _ in range(p)]
            weights = [rng.uniform(0.2, 1.0) for _ in range(q)]
            B = [math.fsum(A) * w / math.fsum(weights) for w in weights]
            if not all(0.05 <= v <= 20.0 for v in B):
                continue
        shifted = rng.random() < 0.5
        a = [rng.uniform(0.0, 60.0) if shifted else 0.0 for _ in A]
        b = [rng.uniform(0.0, 60.0) if shifted else 0.0 for _ in B]
        if math.fsum(b) - math.fsum(a) + 0.5 * (p - q) > 0.25:
            return RatioSpec(A=A, a=a, B=B, b=b)


class EndpointSeries40:
    """H(rho e^-omega) = A* sum_k e_k omega^(mu+k-1) / Gamma(mu+k), terms made as needed and
    summed until one falls below 1e-30 of the sum; None where TERMS terms do not get there or
    the terms cancel past 1e25.

    The sum runs at 40 digits plus the digits its terms cancel (their sum of
    magnitudes over the sum), with log rho, mu, A* and the coefficients made
    at that precision, so that it keeps 40 digits where the terms cancel.
    """

    def __init__(self, spec):
        self.spec = spec
        self.at = {}  # digits -> [log rho, mu, A*, factors, m d_m, e_k]

    def _setup(self, dps):
        if dps not in self.at:
            spec = self.spec
            with mpmath.workdps(dps):
                half = mpmath.mpf(1) / 2
                num = [(mpmath.mpf(A), mpmath.mpf(a)) for A, a in zip(spec.A, spec.a)]
                den = [(mpmath.mpf(B), mpmath.mpf(b)) for B, b in zip(spec.B, spec.b)]
                log_rho = mpmath.fsum(A * mpmath.log(A) for A, _ in num) - mpmath.fsum(
                    B * mpmath.log(B) for B, _ in den)
                mu = mpmath.fsum(b for _, b in den) - mpmath.fsum(a for _, a in num) + half * (spec.p - spec.q)
                a_star = (
                    (2 * mpmath.pi) ** (half * (spec.p - spec.q))
                    * mpmath.fprod(A ** (a - half) for A, a in num)
                    * mpmath.fprod(B ** (half - b) for B, b in den)
                )
            self.at[dps] = [log_rho, mu, a_star, num, den, [], [mpmath.mpf(1)]]
        return self.at[dps]

    @staticmethod
    def _coefficient(k, num, den, md, e):
        """e_k, extending the held m d_m and e_j; called at the working precision."""
        rows = bernoulli_rows()

        def bernpoly(n, x):
            # B_n(x) = sum_j C(n, j) B_(n-j) x^j, by Horner's rule.
            total = mpmath.mpf(0)
            for coefficient in rows[n]:
                total = total * x + coefficient
            return total

        while len(e) <= k:
            m = len(md) + 1
            md.append((-1) ** (m + 1) / mpmath.mpf(m + 1) * (
                mpmath.fsum(bernpoly(m + 1, a) / A**m for A, a in num)
                - mpmath.fsum(bernpoly(m + 1, b) / B**m for B, b in den)))
            n = len(e)
            e.append(mpmath.fsum(md[j - 1] * e[n - j] for j in range(1, n + 1)) / n)
        return e[k]

    def _sum(self, x, dps):
        """(sum, sum of |terms|) at dps digits, or None where TERMS terms do not converge."""
        log_rho, mu, a_star, num, den, md, e = self._setup(dps)
        with mpmath.workdps(dps):
            omega = log_rho - mpmath.log(mpmath.mpf(x))
            power = omega ** (mu - 1) / mpmath.gamma(mu)
            total = size = mpmath.mpf(0)
            for k in range(TERMS):
                term = a_star * self._coefficient(k, num, den, md, e) * power
                total, size = total + term, size + abs(term)
                if k >= 5 and abs(term) <= 1e-30 * abs(total):
                    return total, size
                power *= omega / (mu + k)
        return None

    def __call__(self, x):
        summed = self._sum(x, 40)
        if summed is None or not summed[1] <= 1e25 * abs(summed[0]):
            return None
        total, size = summed
        lost = math.ceil(math.log10(size / abs(total)))
        if lost > 0:
            total = self._sum(x, 40 + lost)[0]
        return total


def meijer_density(spec, x):
    """Density of an integer-scale spec as a Meijer G-function at 20 digits: Gauss's
    multiplication formula turns each Gamma(n s + c) into n unit-scale factors."""
    with mpmath.workdps(20):
        def unit(scales, shifts):
            out, log_c = [], mpmath.mpf(0)
            for n, c in zip(scales, shifts):
                n, c = int(n), mpmath.mpf(c)
                out += [(c + k) / n for k in range(n)]
                log_c += (1 - n) / mpmath.mpf(2) * mpmath.log(2 * mpmath.pi) + (c - mpmath.mpf(1) / 2) * mpmath.log(n)
            return out, log_c

        alpha, log_ca = unit(spec.A, spec.a)
        beta, log_cb = unit(spec.B, spec.b)
        log_rho = mpmath.fsum(n * mpmath.log(n) for n in spec.A) - mpmath.fsum(n * mpmath.log(n) for n in spec.B)
        return mpmath.exp(log_ca - log_cb) * mpmath.meijerg([[], beta], [alpha, []], mpmath.mpf(x) / mpmath.exp(log_rho))


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
    # The second box draw of seed 13 (p = 1, mu = 83.7, T at its 1e4 cap):
    # the squares of its head-node rounding overflowed and warned.  Its lines
    # at c = 0.1 (omega = 30) and 0.05 (omega = 100), built directly, give a
    # package error, and nothing warns.  The density is about 3e-2555 at
    # omega = 30: fox_h takes the hyperbola and returns 0.0 within an estimate
    # of at least the least normal double.
    rng = random.Random(13)
    box_spec(rng)
    spec = box_spec(rng)
    ev = DensityEvaluator(spec)
    for omega, level in ((30.0, 0.1), (100.0, 0.05)):
        with pytest.raises(QuadratureAccuracyError):
            foxh_mod._remainder_on_line(ev, level, np.array([omega]), [ev.lead_scale * omega ** (ev.inv.mu - 1.0)])
        got = fox_h(spec, math.exp(derive(spec).log_rho - omega))
        assert got.value == 0.0
        assert got.remainder_part == got.value - got.leading_part
        assert got.error_estimate >= np.finfo(float).tiny
