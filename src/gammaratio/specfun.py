"""Scalar special functions with a-priori error estimates.

Log-gamma (real and complex, principal branch), digamma and polygamma are
the only transcendental primitives the rest of the package needs.  They are
evaluated through scipy.special, which is accurate to a few ulp in the
domains used here; the estimates attached to each result are conservative
a-priori bounds, not running error analysis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import DomainError

_POLE_DISTANCE = 1e-12
_MAX_POLYGAMMA_ORDER = 12


@dataclass(frozen=True)
class EvalResult:
    """A function value together with a nonnegative absolute error bound."""

    value: complex | float
    abs_error_estimate: float


def _nearest_pole(x: float) -> float:
    """Closest nonpositive integer to x (the poles of the gamma function)."""
    return -max(0.0, round(-x))


def log_gamma(z: complex | float) -> EvalResult:
    """Principal-branch log of the gamma function.

    For real input the argument must be positive and bounded away from the
    pole at 0; the negative real axis is unsupported.  Complex input must
    keep its real part clear of the nonpositive poles; values are continuous
    along any vertical line Re z = c > 0, which is what the contour
    integration downstream relies on.
    """
    if isinstance(z, complex) or isinstance(z, np.complexfloating):
        z = complex(z)
        if not cmath.isfinite(z):
            raise DomainError(f"log_gamma: z={z} must be finite")
        if z.imag == 0.0:
            return log_gamma(z.real)
        if abs(z - _nearest_pole(z.real)) <= _POLE_DISTANCE:
            raise DomainError(
                f"log_gamma: z={z} is within {_POLE_DISTANCE} of the pole "
                f"at {_nearest_pole(z.real)}"
            )
        value = complex(sc.loggamma(z))
        return EvalResult(value, 1e-14 * (1.0 + abs(value)))
    x = float(z)
    if not math.isfinite(x):
        raise DomainError(f"log_gamma: x={x} must be finite")
    if x <= 0.0:
        pole = _nearest_pole(x)
        if abs(x - pole) <= _POLE_DISTANCE:
            raise DomainError(f"log_gamma: x={x} hits the pole at {pole}")
        raise DomainError(f"log_gamma: x={x} on the nonpositive axis is unsupported")
    value = float(sc.gammaln(x))
    return EvalResult(value, 1e-14 * (1.0 + abs(value)))


def digamma(x: float) -> EvalResult:
    """Logarithmic derivative of the gamma function for x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"digamma: x={x} must be positive and finite")
    value = float(sc.digamma(x))
    return EvalResult(value, 5e-14 * (1.0 + abs(value)))


def polygamma(n: int, x: float) -> EvalResult:
    """n-th derivative of digamma, 1 <= n <= 12, x > 0.

    The sign of the result is (-1)^(n+1) for all x > 0.  The error bound is
    absolute for order-one values and relative for large ones; near x = 0.5
    and n = 12 the value itself exceeds 1e12, so a fixed absolute bound is
    not representable in double precision.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"polygamma: order n={n!r} must be an integer")
    if not 1 <= n <= _MAX_POLYGAMMA_ORDER:
        raise DomainError(
            f"polygamma: order n={n} outside supported range 1..{_MAX_POLYGAMMA_ORDER}"
        )
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"polygamma: x={x} must be positive and finite")
    value = float(sc.polygamma(int(n), x))
    return EvalResult(value, 1e-12 + 1e-13 * abs(value))
