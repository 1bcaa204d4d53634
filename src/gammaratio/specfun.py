"""Special functions with a-priori error estimates.

Log-gamma (real and complex, principal branch), gamma, digamma and
polygamma are the only transcendental primitives the rest of the package
needs, and they all live here; no other special-function library is
imported.

- Real log-gamma and gamma are the standard library's ``math.lgamma`` and
  ``math.gamma``: against 40-digit values, lgamma is within 1e-15 (1 +
  |value|) on [1e-3, 1e6] and gamma within 3.7 eps relative on [0.2, 170].
- Complex log-gamma, for Re z > 0, is the Stirling series with the
  Bernoulli numbers B_2 to B_16 (DLMF 5.11.1) at w = z, or at w = z + 8
  where |z| < 10, with the recurrence Gamma(z+1) = z Gamma(z) (DLMF 5.5.2)
  for the shift product (z)_8.  At |w| >= 8 the first omitted term is below
  1e-16.  Left of Re z = 1/2 the scalar ``log_gamma`` reflects (DLMF
  5.5.3).  ``log_gamma_sum`` fuses the signed row sums of the density's
  contour.
- Digamma and polygamma recur upward to x >= 7 and x >= 8 + n, then sum
  the asymptotic series (DLMF 5.11.2, 5.15.8), whose first omitted term is
  below 2e-15 and 1e-17 relative there.

The estimates attached to each result are conservative a-priori bounds,
not running error analysis; the tests check them against mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_POLE_DISTANCE = 1e-12
_MAX_POLYGAMMA_ORDER = 12

# Bernoulli numbers B_0..B_22 (B_1 = -1/2 convention).
_BERNOULLI = (
    1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0,
    -1.0 / 30.0, 0.0, 5.0 / 66.0, 0.0, -691.0 / 2730.0, 0.0, 7.0 / 6.0, 0.0,
    -3617.0 / 510.0, 0.0, 43867.0 / 798.0, 0.0, -174611.0 / 330.0, 0.0, 854513.0 / 138.0,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

# Beyond |Im f| = 200, sin(pi f) nears the double range and log_gamma_plane takes
# its asymptotic form.
_SIN_FAR = 200.0

# log Gamma(w) = (w - 1/2) log w - w + log(2 pi)/2 + sum_k B_2k / (2k (2k-1) w^(2k-1)),
# k = 1..8, highest first for Horner's rule in 1/w^2.
_STIRLING = tuple(_BERNOULLI[2 * k] / (2 * k * (2 * k - 1)) for k in range(8, 0, -1))

# Entries with |z| < 10 move to w = z + 8; elsewhere w = z, so |w| >= 8.
_SHIFT = 8
_SHIFT_BELOW = 10.0

# psi^(n)(x) = (-1)^(n+1) (n-1)! x^-n (1 + n / (2x) + sum_k c_nk x^-2k), with
# c_nk = B_2k (2k+n-1)! / ((2k)! (n-1)!), k = 1..11, highest first; summed
# from x >= 8 + n.
_POLYGAMMA_SERIES = {
    n: tuple(
        _BERNOULLI[2 * k] * math.factorial(2 * k + n - 1) / (math.factorial(2 * k) * math.factorial(n - 1))
        for k in range(11, 0, -1)
    )
    for n in range(1, _MAX_POLYGAMMA_ORDER + 1)
}


@dataclass(frozen=True)
class EvalResult:
    """A function value together with a nonnegative absolute error bound."""

    value: complex | float
    abs_error_estimate: float


def _nearest_pole(x: float) -> float:
    """Closest nonpositive integer to x (the poles of the gamma function)."""
    return -max(0.0, round(-x))


def clog(z: np.ndarray, abs_z: np.ndarray | None = None) -> np.ndarray:
    """Principal log of a complex array, from the real log of |z| (given or computed)
    and the two-argument arctangent: half the time of numpy's complex log."""
    out = np.empty_like(z)
    np.log(np.abs(z) if abs_z is None else abs_z, out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _stirling(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w - 1/2) log w - w plus the Stirling series at every w with |w| >= 8, Re w > 0,
    and the magnitude |w| (|log |w|| + 3) of the terms summed into it."""
    abs_w = np.abs(w)
    log_w = clog(w, abs_w)
    r = 1.0 / w
    r2 = r * r
    series = _STIRLING[0] * r2
    for c in _STIRLING[1:-1]:
        series += c
        series *= r2
    series += _STIRLING[-1]
    series *= r
    value = w - 0.5
    value *= log_w
    value -= w
    value += series
    size = np.abs(log_w.real)
    size += 3.0
    size *= abs_w
    return value, size


def _shifted(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """w = z + 8 where |z| < 10 and z elsewhere, that mask, and u = z (z + 7) at the
    shifted entries, so that (z)_8 = u (u + 6) (u + 10) (u + 12) there."""
    small = np.abs(z) < _SHIFT_BELOW
    w = z.copy()
    np.add(w, _SHIFT, out=w, where=small)
    if not small.any():
        return w, small, None
    # From z itself: w - j would carry the rounding of w, which is large
    # next to a small z.  Out of place, as the entries may be few.
    near = z[small]
    return w, small, near * (near + 7.0)


def loggamma(z) -> np.ndarray:
    """Principal-branch log Gamma at every entry of a complex array with Re z > 0.

    Each factor u + c of (z)_8 is (z + k)(z + 7 - k), whose arguments share
    a sign and sum to less than pi, so its four principal logs sum to the
    principal branch in each half-plane.
    """
    z = np.asarray(z, dtype=complex)
    if z.size == 1:
        # A lone entry as two, as in log_gamma_sum.
        return loggamma(np.repeat(z.reshape(1), 2))[:1].reshape(z.shape)
    w, small, u = _shifted(z)
    value = _stirling(w)[0] + _HALF_LOG_2PI
    if u is not None:
        value[small] -= clog(u) + clog(u + 6.0) + clog(u + 10.0) + clog(u + 12.0)
    return value


def log_gamma_plane(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Gamma modulo 2 pi i at every entry of a complex array off the poles, and the
    magnitude of the terms summed into each.

    Every entry is mapped to v with Re v >= 1/2: v = z, or left of Re z = 1/2,
    v = 1 - z for the reflection log Gamma(z) = log pi - log sin(pi z) - log
    Gamma(1 - z) (DLMF 5.5.3).  log Gamma(v) is the Stirling series at v + 8
    less the log of the shift product (v)_8, one log per entry (the product
    stays within the double range for |v| < 1e30), so the result is exact
    only modulo 2 pi i.  sin(pi z) = (-1)^k sin(pi f), f = z - k, k the
    integer nearest Re z; where |Im z| > _SIN_FAR, log sin(pi f) is its
    asymptotic form pi |Im f| - log 2 + i (pi/2 - pi Re f) sign(Im f), whose
    omitted part is below e^-1200, so sin never overflows.  The magnitude of a reflected
    entry adds |log sin| and |z| pi (1 + 1/|sin(pi f)|) >= |z pi cot(pi f)|,
    the reach of the rounding of z near a pole.  An entry at a pole gives
    +inf (0 for its reciprocal) with magnitude 0.
    """
    left = z.real < 0.5
    v = z.copy()
    np.subtract(1.0, z, out=v, where=left)
    u = v * (v + 7.0)
    product = (u + 6.0) * (u + 10.0)
    product *= u * (u + 12.0)
    v += 8.0
    value, size = _stirling(v)
    abs_product = np.abs(product)
    if abs_product.max() < math.inf:
        shift = clog(product, abs_product)
    else:
        shift = clog(u) + clog(u + 6.0) + clog(u + 10.0) + clog(u + 12.0)
    value -= shift
    value += _HALF_LOG_2PI
    size += np.abs(shift)
    if not left.any():
        return value, size
    zl = z[left]
    k = np.rint(zl.real)
    f = zl - k
    far = np.abs(f.imag) > _SIN_FAR
    any_far = far.any()
    if any_far:
        f[far] = 0.5
    sin = np.sin(np.pi * f)
    abs_sin = np.abs(sin)
    with np.errstate(divide="ignore"):
        log_sin = clog(sin, abs_sin)
        reach = 1.0 / abs_sin
    # sin(pi z) = (-1)^k sin(pi f); modulo 2 pi i that is i pi k.
    log_sin.imag += np.pi * k
    if any_far:
        y, x = zl.imag[far], (zl.real - k)[far]
        phase = np.sign(y) * (0.5 * np.pi - np.pi * x) + np.pi * k[far]
        log_sin[far] = np.pi * np.abs(y) - math.log(2.0) + 1j * phase
        reach[far] = 0.0
    log_sin -= _LOG_PI
    log_sin += value[left]
    reach += 1.0
    reach *= np.pi * np.abs(zl)
    reach += np.abs(log_sin)
    np.negative(log_sin, out=log_sin)
    pole = abs_sin == 0.0
    if pole.any():
        log_sin[pole], reach[pole] = np.inf, 0.0
    value[left] = log_sin
    size[left] = np.where(pole, 0.0, size[left] + reach)
    return value, size


def _pochhammer_pairs(z: np.ndarray, p: int) -> list[tuple[int, int, int]]:
    """(i, j, k) for rows i < p and j >= p with z_j = z_i + k at every column, k a nonzero
    integer, |k| <= 8, each row in at most one pair."""
    first = z[:, 0].tolist()
    pairs, used = [], set()
    for i in range(p):
        for j in range(p, len(first)):
            k = first[j] - first[i]
            if (i not in used and j not in used and k.imag == 0.0 and k.real == round(k.real)
                    and 0 < abs(k.real) <= _SHIFT and np.array_equal(z[j], z[i] + k.real)):
                pairs.append((i, j, int(k.real)))
                used.update((i, j))
    return pairs


def log_gamma_sum(z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_(i<p) log Gamma(z_i) - sum_(i>=p) log Gamma(z_i) over the rows of a complex
    array with Re z > 0, modulo 2 pi i, and the magnitude of the terms summed into
    each column.

    A numerator row i and a denominator row j with z_j = z_i + k, k a
    nonzero integer, cancel to -log (z_i)_k (or log (z_j)_-k) exactly.
    Every other entry with |z| < 10 moves to w = z + 8 and the Stirling
    series is summed at w.  The shift products (z)_8 of a column, those of
    the subtracted rows inverted, take one log of their product; where that
    leaves the double range, each entry takes its own log.  Each log is principal, so the
    sum is exact only modulo 2 pi i.  A product is at most 18^8.  Every
    column is summed row by row in one fixed order, so its result does not
    depend on the other columns.
    """
    if z.shape[1] == 1:
        # numpy rounds an in-place complex product of one element unlike
        # that of a longer array (no fused multiply-add): a lone column
        # goes through as two.
        total, size = log_gamma_sum(np.repeat(z, 2, axis=1), p)
        return total[:1], size[:1]
    total = np.zeros(z.shape[1], dtype=complex)
    size = np.zeros(z.shape[1])
    pairs = _pochhammer_pairs(z, p)
    for i, j, k in pairs:
        # log Gamma(z_i) - log Gamma(z_i + k) = -log (z_i)_k for k > 0, and
        # log (z_j)_-k for k < 0.
        base, sign = (z[i], -1.0) if k > 0 else (z[j], 1.0)
        product = base
        for m in range(1, abs(k)):
            product = product * (base + m)
        log_product = clog(product)
        total += sign * log_product
        size += np.abs(log_product) + 2.0 * abs(k)
    if pairs:
        rows = sorted(set(range(len(z))) - {r for i, j, _ in pairs for r in (i, j)})
        p = sum(r < p for r in rows)
        z = z[rows]
        if not len(z):
            return total, size
    w, small, u = _shifted(z)
    value, magnitude = _stirling(w)
    value[p:] *= -1.0
    total += np.add.accumulate(value, axis=0)[-1]
    total += (2 * p - len(z)) * _HALF_LOG_2PI
    size += np.add.accumulate(magnitude, axis=0)[-1]
    if u is not None:
        product = (u + 6.0) * (u + 10.0)
        product = product * (u * (u + 12.0))
        products = np.ones_like(z)
        products[small] = product
        products[p:] = 1.0 / products[p:]
        ratio = np.multiply.accumulate(products, axis=0)[-1]
        abs_ratio = np.abs(ratio)
        if 0.0 < abs_ratio.min() and abs_ratio.max() < math.inf:
            total -= clog(ratio, abs_ratio)
        else:
            total -= np.add.accumulate(clog(products), axis=0)[-1]
    return total, size


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) for Im z > 0 on the branch continuous in the upper half-plane that
    tends to log(i/2) - i pi z, from the argument reduced to |Re| <= 1/2."""
    k = round(z.real)
    f, y = z.real - k, z.imag
    if y > 20.0:
        # sin(pi z) = (i/2) e^(-i pi z) (1 - e^(2 pi i z)), and e^(-2 pi y) < 1e-54.
        return complex(math.pi * y - math.log(2.0), 0.5 * math.pi - math.pi * f - math.pi * k)
    return cmath.log(cmath.sin(math.pi * complex(f, y))) - 1j * math.pi * k


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
        if z.real >= 0.5:
            value = complex(loggamma(np.array([z]))[0])
        else:
            # Reflection, log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z),
            # in the upper half-plane and by conjugation in the lower.
            upper = z if z.imag > 0.0 else z.conjugate()
            value = math.log(math.pi) - _log_sin_pi(upper) - complex(loggamma(np.array([1.0 - upper]))[0])
            if z.imag < 0.0:
                value = value.conjugate()
        return EvalResult(value, 1e-14 * (1.0 + abs(value)))
    x = float(z)
    if not math.isfinite(x):
        raise DomainError(f"log_gamma: x={x} must be finite")
    if x <= 0.0:
        pole = _nearest_pole(x)
        if abs(x - pole) <= _POLE_DISTANCE:
            raise DomainError(f"log_gamma: x={x} hits the pole at {pole}")
        raise DomainError(f"log_gamma: x={x} on the nonpositive axis is unsupported")
    value = math.lgamma(x)
    return EvalResult(value, 1e-14 * (1.0 + abs(value)))


def _digamma(x: float) -> float:
    """psi(x) for finite x > 0, without checks: the classifier calls it per factor."""
    shifted = 0.0
    while x < 7.0:
        shifted += 1.0 / x
        x += 1.0
    r2 = 1.0 / (x * x)
    # sum_k B_2k / (2k x^2k), k = 1..8, by Horner's rule in 1/x^2; at x >= 7
    # the first omitted term is below 2e-15.
    series = r2 * (1 / 12 + r2 * (-1 / 120 + r2 * (1 / 252 + r2 * (-1 / 240 + r2 * (
        1 / 132 + r2 * (-691 / 32760 + r2 * (1 / 12 + r2 * (-3617 / 8160))))))))
    return math.log(x) - 0.5 / x - series - shifted


def _polygamma(n: int, x: float) -> float:
    """psi^(n)(x) for 1 <= n <= 12 and finite x > 0, without checks."""
    shifted = 0.0
    try:
        while x < 8.0 + n:
            shifted += (1.0 / x) ** (n + 1)
            x += 1.0
    except OverflowError:
        return (-1.0) ** (n + 1) * math.inf
    r = 1.0 / x
    r2 = r * r
    series = 0.0
    for c in _POLYGAMMA_SERIES[n]:
        series = series * r2 + c
    tail = math.factorial(n - 1) * r**n * (1.0 + 0.5 * n * r + series * r2)
    return (-1.0) ** (n + 1) * (math.factorial(n) * shifted + tail)


def digamma(x: float) -> EvalResult:
    """Logarithmic derivative of the gamma function for x > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"digamma: x={x} must be positive and finite")
    value = _digamma(x)
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
    value = _polygamma(int(n), x)
    return EvalResult(value, 1e-12 + 1e-13 * abs(value))
