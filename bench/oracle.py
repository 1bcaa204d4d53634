"""Independent reference values for checking the program's outputs.

The density oracle evaluates the representing density of a ratio with
integer scales (unit scales included) as a Meijer G-function in mpmath at
raised precision.  Gauss's multiplication formula

    Gamma(n z) = (2 pi)^((1-n)/2) n^(n z - 1/2) prod_{k<n} Gamma(z + k/n)

turns each factor Gamma(n s + c) into n unit-scale factors, so that

    W(s) = C rho^s prod Gamma(s + alpha_i) / prod Gamma(s + beta_j)

and the density is H(x) = C G^{N,0}_{N,N}(x / rho | beta; alpha).  The
verdict checks recompute the necessary conditions in log space and sample
the multiplicative kernel in mpmath.
"""

from __future__ import annotations

import math

import mpmath

DPS = 20

# Relative tie tolerance of the necessary conditions, as in the classifier.
REL_TOL = 1e-12

# A certified-LCM kernel may dip below zero by this share of its positive
# part at the sample points before the verdict counts as wrong.
KERNEL_SLACK = 1e-10
_KERNEL_POINTS = (0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98)


def _unit_factors(scales, shifts):
    """Unit-scale shifts and log of the constant for prod Gamma(n s + c)."""
    out = []
    log_c = mpmath.mpf(0)
    for n, c in zip(scales, shifts):
        if n != int(n) or n < 1:
            raise ValueError(f"oracle needs integer scales, got {n}")
        n = int(n)
        c = mpmath.mpf(c)
        out += [(c + k) / n for k in range(n)]
        log_c += (1 - n) / mpmath.mpf(2) * mpmath.log(2 * mpmath.pi) + (c - mpmath.mpf(1) / 2) * mpmath.log(n)
    return out, log_c


def density(A, a, B, b, xs) -> list[float]:
    """Representing density at each x in (0, rho) for integer scales A, B."""
    with mpmath.workdps(DPS):
        alpha, log_ca = _unit_factors(A, a)
        beta, log_cb = _unit_factors(B, b)
        if len(alpha) != len(beta):
            raise ValueError("oracle needs equal scale sums")
        log_rho = mpmath.fsum(n * mpmath.log(n) for n in A) - mpmath.fsum(n * mpmath.log(n) for n in B)
        const = mpmath.exp(log_ca - log_cb)
        rho = mpmath.exp(log_rho)
        return [float(const * mpmath.meijerg([[], beta], [alpha, []], mpmath.mpf(x) / rho)) for x in xs]


def necessary_hold(A, a, B, b) -> bool:
    """All four necessary conditions for W to be l.c.m., without exponentiating."""
    sum_a, sum_b = math.fsum(A), math.fsum(B)
    log_rho = math.fsum(v * math.log(v) for v in A) - math.fsum(v * math.log(v) for v in B)
    mu = math.fsum(b) - math.fsum(a) + 0.5 * (len(A) - len(B))
    return (
        abs(sum_a - sum_b) <= REL_TOL * max(sum_a, sum_b)
        and log_rho <= REL_TOL
        and mu >= -REL_TOL
        and min(x / s for x, s in zip(a, A)) <= min(y / s for y, s in zip(b, B)) + REL_TOL
    )


def kernel_nonneg(A, a, B, b) -> bool:
    """Whether the kernel is nonnegative, to KERNEL_SLACK, at the sample points."""
    with mpmath.workdps(DPS):
        for t in _KERNEL_POINTS:
            t = mpmath.mpf(t)
            num = mpmath.fsum(t ** (x / s) / -mpmath.expm1(mpmath.log(t) / s) for x, s in zip(a, A))
            den = mpmath.fsum(t ** (y / s) / -mpmath.expm1(mpmath.log(t) / s) for y, s in zip(b, B))
            if num - den < -KERNEL_SLACK * num:
                return False
    return True
