"""Density values near the support endpoint against its endpoint series.

Exponentiating the Stirling series of log W(s) - s log rho (DLMF 5.11.8) and
inverting it term by term gives, for any scales,

    H(rho e^-omega) = A* sum_(k>=0) e_k omega^(mu+k-1) / Gamma(mu+k),

with e_0 = 1 and e_k = (1/k) sum_m m d_m e_(k-m), where
d_m = sum_i (-1)^(m+1) B_(m+1)(a_i) / (m (m+1) A_i^m) minus the same sum over
(b_j, B_j).  The sum converges for omega below about 2 pi min(scale); it is
summed here at 50 digits, independently of the package, and every error
estimate must bound the distance to it.
"""

import functools
import math
import random

import mpmath

from gammaratio import RatioSpec, derive, fox_h

TERMS = 150
OMEGAS = (0.02, 0.05, 0.15, 0.4, 0.8, 1.5)


@functools.cache
def bernoulli_rows():
    """C(n, j) B_(n-j) for j = n, ..., 0 and n <= TERMS, at 50 digits."""
    with mpmath.workdps(50):
        bern = [mpmath.bernoulli(n) for n in range(TERMS + 1)]
        return [[math.comb(n, j) * bern[n - j] for j in range(n, -1, -1)] for n in range(TERMS + 1)]


@functools.cache
def series_coefficients(spec):
    """log rho, mu and the coefficients A* e_k, k < TERMS, at 50 digits."""
    rows = bernoulli_rows()
    with mpmath.workdps(50):
        half = mpmath.mpf(1) / 2
        num = [(mpmath.mpf(A), mpmath.mpf(a)) for A, a in zip(spec.A, spec.a)]
        den = [(mpmath.mpf(B), mpmath.mpf(b)) for B, b in zip(spec.B, spec.b)]
        log_rho = mpmath.fsum(A * mpmath.log(A) for A, _ in num) - mpmath.fsum(B * mpmath.log(B) for B, _ in den)
        mu = mpmath.fsum(b for _, b in den) - mpmath.fsum(a for _, a in num) + half * (spec.p - spec.q)
        a_star = (
            (2 * mpmath.pi) ** (half * (spec.p - spec.q))
            * mpmath.fprod(A ** (a - half) for A, a in num)
            * mpmath.fprod(B ** (half - b) for B, b in den)
        )

        def bernpoly(n, x):
            # B_n(x) = sum_j C(n, j) B_(n-j) x^j, by Horner's rule.
            total = mpmath.mpf(0)
            for coefficient in rows[n]:
                total = total * x + coefficient
            return total

        # m d_m for m = 1, ..., TERMS - 1.
        md = [
            (-1) ** (m + 1) / mpmath.mpf(m + 1) * (
                mpmath.fsum(bernpoly(m + 1, a) / A**m for A, a in num)
                - mpmath.fsum(bernpoly(m + 1, b) / B**m for B, b in den)
            )
            for m in range(1, TERMS)
        ]
        e = [mpmath.mpf(1)]
        for k in range(1, TERMS):
            e.append(mpmath.fsum(md[m - 1] * e[k - m] for m in range(1, k + 1)) / k)
        return log_rho, mu, [a_star * ek for ek in e]


def series_terms(spec, x):
    """The terms A* e_k omega^(mu+k-1) / Gamma(mu+k), k < TERMS, at omega = log(rho/x)."""
    log_rho, mu, coefficients = series_coefficients(spec)
    with mpmath.workdps(50):
        omega = log_rho - mpmath.log(x)
        power = omega ** (mu - 1) / mpmath.gamma(mu)
        terms = []
        for k, coefficient in enumerate(coefficients):
            terms.append(coefficient * power)
            power *= omega / (mu + k)
        return terms


def scaled_spec(rng):
    """Seeded spec with non-integer scales in [0.6, 3], which keeps omega <= 1.5
    well inside the radius of the series, shifts up to three times their
    scales, and mu in [0.5, 4]."""
    while True:
        A = [rng.uniform(0.6, 3.0) for _ in range(rng.randint(1, 3))]
        weights = [rng.uniform(0.3, 1.0) for _ in range(rng.randint(1, 3))]
        B = [math.fsum(A) * w / math.fsum(weights) for w in weights]
        a = [rng.uniform(0.0, 3.0 * scale) for scale in A]
        b = [rng.uniform(0.0, 3.0 * scale) for scale in B]
        mu = math.fsum(b) - math.fsum(a) + 0.5 * (len(A) - len(B))
        if all(0.6 <= scale <= 3.0 for scale in B) and 0.5 <= mu <= 4.0:
            return RatioSpec(A=A, a=a, B=B, b=b)


def test_error_within_estimate(spec_equal_scales):
    # The last term summed bounds the truncation of the series.
    rng = random.Random(20150125)
    for spec in [spec_equal_scales] + [scaled_spec(rng) for _ in range(8)]:
        rho = derive(spec).rho
        for omega in OMEGAS:
            x = rho * math.exp(-omega)
            terms = series_terms(spec, x)
            with mpmath.workdps(50):
                exact = mpmath.fsum(terms)
                assert abs(terms[-1]) <= 1e-40 * abs(exact), (spec, omega)
            ev = fox_h(spec, x)
            assert abs(ev.value - float(exact)) <= ev.error_estimate, (spec, omega, ev)
