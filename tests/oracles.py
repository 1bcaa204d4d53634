"""Independent references for the density, and the seeded spec generators and helpers the tests share.

Tests and scripts/coverage.py import these from here, and no module under
tests/ or scripts/ imports a test module (tests/test_oracles.py checks it);
pytest collects nothing here.  Each reference is made in mpmath from the
spec's entries alone, with none of the package's numerics: EndpointSeries40
and residue_sum_40 at 40 digits plus the digits their terms cancel,
meijer_density at 20 digits, and invariants at the digits asked for.
reference() picks the one that applies at a point.  The helpers,
PACKAGE_ERRORS and hyperbola_point, read the package.
"""

import functools
import math
import random

import mpmath
import numpy as np

from gammaratio import DomainError, QuadratureAccuracyError, RatioSpec, SingularPointError, build_unweighted
from gammaratio.foxh import DensityEvaluator

TERMS = 150
# omega = log(rho/x) of the endpoint-series tests, all within half the series' radius of scaled_spec.
OMEGAS = (0.02, 0.05, 0.15, 0.4, 0.8, 1.5)


def invariants(spec, dps):
    """log rho, mu and A* of spec at dps digits."""
    with mpmath.workdps(dps):
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
    return log_rho, mu, a_star


@functools.cache
def bernoulli_rows():
    """C(n, j) B_(n-j) for j = n, ..., 0 and n <= TERMS, at 80 digits (enough for
    EndpointSeries40 and the digits its terms cancel)."""
    with mpmath.workdps(80):
        bern = [mpmath.bernoulli(n) for n in range(TERMS + 1)]
        return [[math.comb(n, j) * bern[n - j] for j in range(n, -1, -1)] for n in range(TERMS + 1)]


def bernpoly(n, x):
    """B_n(x) = sum_j C(n, j) B_(n-j) x^j, by Horner's rule at the working precision."""
    total = mpmath.mpf(0)
    for coefficient in bernoulli_rows()[n]:
        total = total * x + coefficient
    return total


class EndpointSeries40:
    """H(rho e^-omega) = A* sum_k e_k omega^(mu+k-1) / Gamma(mu+k), terms made as needed and
    summed until one falls below 1e-30 of the sum; None where TERMS terms do not get there or
    the terms cancel past 1e25.

    The e_k come from the Stirling series of log W(s) - s log rho (DLMF
    5.11.8), exponentiated term by term: e_0 = 1 and e_k = (1/k) sum_m m d_m
    e_(k-m), where d_m = sum_i (-1)^(m+1) B_(m+1)(a_i) / (m (m+1) A_i^m)
    minus the same sum over (b_j, B_j).  The series converges for omega
    below about 2 pi min(scale).  The sum runs at 40 digits plus the digits
    its terms cancel (their sum of magnitudes over the sum), with log rho,
    mu, A* and the coefficients made at that precision.
    """

    def __init__(self, spec):
        self.spec = spec
        self.at = {}  # digits -> [log rho, mu, A*, factors, m d_m, e_k]

    def _setup(self, dps):
        if dps not in self.at:
            spec = self.spec
            with mpmath.workdps(dps):
                num = [(mpmath.mpf(A), mpmath.mpf(a)) for A, a in zip(spec.A, spec.a)]
                den = [(mpmath.mpf(B), mpmath.mpf(b)) for B, b in zip(spec.B, spec.b)]
            self.at[dps] = [*invariants(spec, dps), num, den, [], [mpmath.mpf(1)]]
        return self.at[dps]

    @staticmethod
    def _coefficient(k, num, den, md, e):
        """e_k, extending the held m d_m and e_j; called at the working precision."""
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


def residue_sum_40(spec, x, cap=3000):
    """sum_i sum_k Res_(s = -(a_i + k)/A_i) W(s) x^-s at 40 digits plus the digits its terms
    cancel (their sum of magnitudes over the sum); simple poles only.  Each row is summed
    until eight terms in a row lie below 10^-(digits - 5) of its largest; the sum is made
    again at more digits until those cover the cancellation."""
    dps = 40
    while True:
        total, size = _residue_sum(spec, x, dps, cap)
        lost = math.ceil(math.log10(size / abs(total))) if total else dps
        if 40 + lost <= dps:
            return total
        dps = 40 + lost


def _residue_sum(spec, x, dps, cap):
    """(sum, sum of |terms|) of the residue series at dps digits."""
    with mpmath.workdps(dps):
        A, a, B, b = ([mpmath.mpf(v) for v in vs] for vs in (spec.A, spec.a, spec.B, spec.b))
        log_x = mpmath.log(mpmath.mpf(x))
        total = size = mpmath.mpf(0)
        for i in range(spec.p):
            largest, small = mpmath.mpf(0), 0
            for k in range(cap):
                s = -(a[i] + k) / A[i]
                c = (-1) ** k / (mpmath.factorial(k) * A[i])
                for l in range(spec.p):
                    if l != i:
                        c *= mpmath.gamma(A[l] * s + a[l])
                for j in range(spec.q):
                    c *= mpmath.rgamma(B[j] * s + b[j])
                term = c * mpmath.exp(-s * log_x)
                total, size = total + term, size + abs(term)
                largest = max(largest, abs(term))
                small = small + 1 if abs(term) <= mpmath.mpf(10) ** (5 - dps) * largest else 0
                if small == 8:
                    break
            else:
                raise AssertionError(f"row {i} of {spec} did not converge in {cap} terms")
        return total, size


def reference(spec, x):
    """H(x) from the Meijer G-function for integer scales, else the residue sum where omega =
    log(rho/x) >= 3 and the poles are simple (p = 1 or a shift not 0), else the endpoint
    series within half its radius (omega < pi min(scale)); None where none applies or the
    series does not converge.  The Meijer G-function is taken from omega = 0.05 on: closer
    to rho, mpmath's series in x/rho slow down, past 5 s a point near omega = 0.01."""
    omega = float(invariants(spec, 20)[0]) - math.log(x)
    if all(v == int(v) for v in spec.A + spec.B) and omega >= 0.05:
        return meijer_density(spec, x)
    if omega >= 3.0 and (spec.p == 1 or any(spec.a)):
        return residue_sum_40(spec, x)
    if omega < math.pi * min(spec.A + spec.B):
        return EndpointSeries40(spec)(x)
    return None


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


# The errors a density call may raise on a valid spec.
PACKAGE_ERRORS = (DomainError, QuadratureAccuracyError, SingularPointError)


def hyperbola_point(spec, omega):
    """The record at rho e^-omega, and whether rung 0 of the hyperbola ladder served it: the
    point built only rung-0 hyperbolas, or none on a spec whose leading part is its density
    (DensityEvaluator.lead_exact), which no rung serves."""
    ev = DensityEvaluator(spec)
    got = ev.evaluate(math.exp(ev.inv.log_rho - omega))
    rungs = [rung for _, rung in ev._hyperbolas]
    return got, all(rung == 0 for rung in rungs) and (bool(rungs) or ev.lead_exact)


# The fuzz and far sets of scripts/coverage.py: seed, points and omega range.
COVERAGE_SETS = {"fuzz": (7, 400, 1e-3, 30.0), "far": (11, 600, 6.0, 60.0)}


def coverage_points(name):
    """(spec, omega) of each point of a coverage set: a box_spec and omega log-uniform in its range."""
    seed, n, lo, hi = COVERAGE_SETS[name]
    rng = random.Random(seed)
    for _ in range(n):
        spec = box_spec(rng)
        yield spec, math.exp(rng.uniform(math.log(lo), math.log(hi)))


def full_box_spec(rng):
    """p, q <= 4, entries log-uniform in [1e-2, 1e3]; half with equal scale sums, half
    with every shift 0."""
    def entries(n):
        return [math.exp(rng.uniform(math.log(1e-2), math.log(1e3))) for _ in range(n)]

    p, q = rng.randint(1, 4), rng.randint(1, 4)
    A = entries(p)
    if rng.random() < 0.5:
        w = [rng.uniform(0.2, 1.0) for _ in range(q)]
        B = [math.fsum(A) * v / math.fsum(w) for v in w]
    else:
        B = entries(q)
    zero = rng.random() < 0.5
    return A, [0.0] * p if zero else entries(p), B, [0.0] * q if zero else entries(q)


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


def fresh_spec(rng):
    """Seeded spec with unit or integer scales and mu in [0.6, 4]."""
    mu = rng.uniform(0.6, 4.0)
    if rng.random() < 0.5:
        A = B = (1.0,) * rng.randint(1, 3)
    else:
        total = rng.randint(2, 6)
        A = tuple(rng.choice([(total,), (1, total - 1), (total - 1, 1)]))
        B = (total,) if len(A) > 1 else (1, total - 1)
    a = [rng.uniform(0.0, 3.0) for _ in A]
    weights = [rng.uniform(0.2, 1.0) for _ in B]
    target = mu + math.fsum(a) - 0.5 * (len(A) - len(B))
    return RatioSpec(A=A, a=a, B=B, b=[target * w / math.fsum(weights) for w in weights])


# Classify specs: the sufficient-condition generators take a numpy Generator,
# equivalence_specs seeds its own.


def gen_condition_a(rng):
    p = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    A = rng.uniform(0.5, 3.0, size=p)
    B = rng.uniform(0.5, 3.0, size=q)
    B *= A.sum() / B.sum()
    m = rng.uniform(0.0, 2.0)
    a = A * rng.uniform(0.0, 1.0, size=p) * m
    b = 1.0 + B * (m + rng.uniform(0.0, 2.0, size=q))
    return RatioSpec(A=tuple(A), a=tuple(a), B=tuple(B), b=tuple(b))


def gen_condition_b(rng):
    p = int(rng.integers(1, 5))
    A = rng.uniform(0.5, 3.0, size=p)
    B = np.empty(p)
    B[: p - 1] = A[: p - 1] * rng.uniform(0.3, 1.0, size=p - 1)
    B[p - 1] = A.sum() - B[: p - 1].sum()
    M = 2.0 * float(np.max(1.0 / B)) + rng.uniform(0.1, 2.0)
    b = np.empty(p)
    b[p - 1] = 1.0 + M * B[p - 1]
    for k in range(p - 1):
        b[k] = 1.0 + B[k] * rng.uniform(0.0, 1.0) * (M - 1.0 / B[k])
    a = A * rng.uniform(0.0, 1.0, size=p) * (b - 1.0) / B
    return RatioSpec(A=tuple(A), a=tuple(a), B=tuple(B), b=tuple(b))


def gen_condition_c(rng):
    p = int(rng.integers(1, 5))
    inv_A = np.sort(rng.uniform(0.3, 2.0, size=p))
    deltas = np.sort(rng.uniform(0.0, 1.0, size=p))
    inv_B = inv_A + deltas
    ra = np.sort(rng.uniform(0.0, 3.0, size=p))
    eps = np.sort(rng.uniform(0.0, 1.5, size=p))
    rb = ra + eps
    A = 1.0 / inv_A
    B = 1.0 / inv_B
    return RatioSpec(A=tuple(A), a=tuple(ra * A), B=tuple(B), b=tuple(rb * B))


def equivalence_specs():
    rng = random.Random(20261018)
    specs = []
    for k in range(100):
        beta = [rng.uniform(0.0, 3.0) for _ in range(rng.randint(1, 4))]
        spec = build_unweighted([v + rng.uniform(0.05, 3.0) for v in beta], beta)
        if k % 4 == 3:
            # Moving the largest numerator shift breaks the factorization, so
            # the kernel may change sign (mostly at t -> 1).
            a = sorted(spec.a)
            a[-1] *= rng.uniform(0.8, 1.2)
            spec = RatioSpec(A=spec.A, a=a, B=spec.B, b=spec.b)
        specs.append(spec)
    for equal in (True, False) * 100:
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        A = [rng.uniform(0.2, 5.0) for _ in range(p)]
        if equal:
            cuts = sorted(rng.uniform(0.0, 1.0) for _ in range(q - 1))
            total = math.fsum(A)
            B = [total * (hi - lo) for lo, hi in zip([0.0] + cuts, cuts + [1.0])]
            B[-1] = total - math.fsum(B[:-1])
        else:
            B = [rng.uniform(0.2, 5.0) for _ in range(q)]
        a = [rng.uniform(0.0, 4.0) for _ in range(p)]
        b = [rng.uniform(0.0, 4.0) for _ in range(q)]
        specs.append(RatioSpec(A=A, a=a, B=B, b=b))
    return specs
