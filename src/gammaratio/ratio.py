"""Weighted gamma-function ratios and their kernel functions.

The central object is :class:`RatioSpec`, the parameter set (A, a, B, b) of

    W(x) = prod_i Gamma(A_i x + a_i) / prod_j Gamma(B_j x + b_j),

with strictly positive scaling vectors A, B and nonnegative shift vectors
a, b.  This module evaluates W, its first two logarithmic derivatives, the
exponential-sum kernel whose nonnegativity decides complete monotonicity of
(log W)'', and the derived invariants (support radius, decay exponent,
rightmost pole, entropies, leading asymptotic constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as sc

from .errors import DomainError

# Supported parameter box.  The mathematics does not bound the parameters;
# the box keeps every internal evaluation comfortably inside double range.
# p+q up to 4096 is required by the subset-parity constructor at n = 12.
MAX_ENTRY = 1e3
MAX_TOTAL_LENGTH = 4096

# Below this value of t = u / scale the bounded kernel correction switches
# to its Bernoulli-number series; the 1/u part is always handled exactly.
_PHI_SERIES_CUTOFF = 0.1

# cm_kernel_t delegates to cm_kernel(u = -log t) this close to t = 1.
_KERNEL_T_SWITCH = 0.9

# Knife-edge equalities in user input are decimal literals, so exact
# comparisons are done at this relative tolerance.
REL_TOL = 1e-12


def _as_positive_tuple(name: str, values: Sequence[float]) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) == 0:
        raise DomainError(f"RatioSpec: {name} must be non-empty")
    for v in out:
        if not math.isfinite(v):
            raise DomainError(f"RatioSpec: {name} contains non-finite entry {v}")
        if v <= 0.0:
            raise DomainError(f"RatioSpec: {name} entries must be positive, got {v}")
        if v > MAX_ENTRY:
            raise DomainError(f"RatioSpec: {name} entry {v} exceeds supported bound {MAX_ENTRY}")
    return out


def _as_nonneg_tuple(name: str, values: Sequence[float]) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise DomainError(f"RatioSpec: {name} contains non-finite entry {v}")
        if v < 0.0:
            raise DomainError(f"RatioSpec: {name} entries must be nonnegative, got {v}")
        if v > MAX_ENTRY:
            raise DomainError(f"RatioSpec: {name} entry {v} exceeds supported bound {MAX_ENTRY}")
    return out


@dataclass(frozen=True)
class RatioSpec:
    """Parameters (A, a, B, b) of a weighted gamma-function ratio.

    Vectors are kept in user order; several decision procedures downstream
    are order-sensitive, so no sorting or deduplication happens here.
    """

    A: tuple[float, ...]
    a: tuple[float, ...]
    B: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "A", _as_positive_tuple("A", self.A))
        object.__setattr__(self, "B", _as_positive_tuple("B", self.B))
        object.__setattr__(self, "a", _as_nonneg_tuple("a", self.a))
        object.__setattr__(self, "b", _as_nonneg_tuple("b", self.b))
        if len(self.A) != len(self.a):
            raise DomainError(
                f"RatioSpec: len(A)={len(self.A)} and len(a)={len(self.a)} differ"
            )
        if len(self.B) != len(self.b):
            raise DomainError(
                f"RatioSpec: len(B)={len(self.B)} and len(b)={len(self.b)} differ"
            )
        if len(self.A) + len(self.B) > MAX_TOTAL_LENGTH:
            raise DomainError(
                f"RatioSpec: p+q={len(self.A) + len(self.B)} exceeds supported "
                f"bound {MAX_TOTAL_LENGTH}"
            )

    @property
    def p(self) -> int:
        return len(self.A)

    @property
    def q(self) -> int:
        return len(self.B)

    def to_dict(self) -> dict:
        return {"A": list(self.A), "a": list(self.a), "B": list(self.B), "b": list(self.b)}

    @classmethod
    def from_dict(cls, d: dict) -> "RatioSpec":
        try:
            return cls(A=d["A"], a=d["a"], B=d["B"], b=d["b"])
        except KeyError as exc:
            raise DomainError(f"RatioSpec: missing field {exc.args[0]!r}") from None


def _sums_equal(sum_A: float, sum_B: float) -> bool:
    """The one equal-scale-sum test: sum_A = sum_B up to REL_TOL relative."""
    return abs(sum_A - sum_B) <= REL_TOL * max(sum_A, sum_B)


@dataclass(frozen=True)
class DerivedInvariants:
    """Quantities derived from a RatioSpec, all computed in log space.

    rho is the right endpoint of the representing measure's support, mu the
    algebraic decay exponent of the gamma ratio along vertical lines,
    gamma_pole the abscissa of the rightmost integrand pole, and
    stirling_const the constant of the leading vertical-line asymptotics.
    """

    sum_A: float
    sum_B: float
    rho: float
    mu: float
    gamma_pole: float
    entropy_A: float
    entropy_B: float
    stirling_const: float
    log_rho: float
    log_stirling_const: float

    def sums_equal(self) -> bool:
        """sum(A) = sum(B) up to REL_TOL relative."""
        return _sums_equal(self.sum_A, self.sum_B)

    def rho_at_most_one(self) -> bool:
        """rho <= 1 up to REL_TOL."""
        return self.rho <= 1.0 + REL_TOL


def derive(spec: RatioSpec) -> DerivedInvariants:
    """Compute all derived invariants of a ratio spec."""
    sum_A = math.fsum(spec.A)
    sum_B = math.fsum(spec.B)
    entropy_A = math.fsum(Ai * math.log(Ai) for Ai in spec.A)
    entropy_B = math.fsum(Bj * math.log(Bj) for Bj in spec.B)
    log_rho = entropy_A - entropy_B
    mu = math.fsum(spec.b) - math.fsum(spec.a) + 0.5 * (spec.p - spec.q)
    gamma_pole = -min(ai / Ai for ai, Ai in zip(spec.a, spec.A))
    log_stirling = (
        0.5 * (spec.p - spec.q) * math.log(2.0 * math.pi)
        + math.fsum((ai - 0.5) * math.log(Ai) for ai, Ai in zip(spec.a, spec.A))
        + math.fsum((0.5 - bj) * math.log(Bj) for bj, Bj in zip(spec.b, spec.B))
    )
    return DerivedInvariants(
        sum_A=sum_A,
        sum_B=sum_B,
        rho=math.exp(log_rho),
        mu=mu,
        gamma_pole=gamma_pole,
        entropy_A=entropy_A,
        entropy_B=entropy_B,
        stirling_const=math.exp(log_stirling),
        log_rho=log_rho,
        log_stirling_const=log_stirling,
    )


def _check_arguments(spec: RatioSpec, x: float) -> None:
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x={x} must be a positive real")
    # With x > 0, A > 0 and a >= 0 every gamma argument is positive; the
    # explicit scan keeps the error message concrete if that ever changes.
    for i, (Ai, ai) in enumerate(zip(spec.A, spec.a)):
        if Ai * x + ai <= 0.0:
            raise DomainError(f"numerator factor {i}: argument {Ai * x + ai} <= 0")
    for j, (Bj, bj) in enumerate(zip(spec.B, spec.b)):
        if Bj * x + bj <= 0.0:
            raise DomainError(f"denominator factor {j}: argument {Bj * x + bj} <= 0")


def gamma_ratio(spec: RatioSpec, x: float) -> float:
    """Value of the weighted gamma ratio W(x) for x > 0.

    The log-gammas are summed first and exponentiated once, so the result
    does not overflow unless the final value itself does; then DomainError
    is raised.
    """
    x = float(x)
    _check_arguments(spec, x)
    return _gamma_product(spec, x, "gamma_ratio: W(x) at x")


def _gamma_product(spec: RatioSpec, x: float, where: str) -> float:
    """W(x) from one fsum of log-gammas; the caller checks the domain, `where` names x."""
    log_value = math.fsum(
        [sc.gammaln(Ai * x + ai) for Ai, ai in zip(spec.A, spec.a)]
        + [-sc.gammaln(Bj * x + bj) for Bj, bj in zip(spec.B, spec.b)]
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{where}={x} overflows (log value = {log_value})") from None


def log_ratio_derivative(spec: RatioSpec, x: float, order: int) -> float:
    """First or second derivative of log W at x.

    Order 1 is sum A_i psi(A_i x + a_i) - sum B_j psi(B_j x + b_j); order 2
    the analogous combination with squared scales and the trigamma.
    """
    x = float(x)
    _check_arguments(spec, x)
    if order == 1:
        return math.fsum(
            [Ai * sc.digamma(Ai * x + ai) for Ai, ai in zip(spec.A, spec.a)]
            + [-Bj * sc.digamma(Bj * x + bj) for Bj, bj in zip(spec.B, spec.b)]
        )
    if order == 2:
        return math.fsum(
            [Ai * Ai * float(sc.polygamma(1, Ai * x + ai)) for Ai, ai in zip(spec.A, spec.a)]
            + [-Bj * Bj * float(sc.polygamma(1, Bj * x + bj)) for Bj, bj in zip(spec.B, spec.b)]
        )
    raise DomainError(f"order={order} must be 1 or 2")


def _phi(t: np.ndarray) -> np.ndarray:
    """Bounded part 1/(1 - e^-t) - 1/t of the geometric kernel factor.

    Series coefficients are the even Bernoulli numbers; the series branch
    keeps full precision where the direct form would cancel.
    """
    t = np.asarray(t, dtype=float)
    small = t < _PHI_SERIES_CUTOFF
    ts = np.where(small, t, 0.0)
    series = 0.5 + ts * (1.0 / 12.0 + ts * ts * (-1.0 / 720.0 + ts * ts / 30240.0))
    td = np.where(small, 1.0, t)
    direct = 1.0 / (-np.expm1(-td)) - 1.0 / td
    return np.where(small, series, direct)


def cm_kernel(spec: RatioSpec, u):
    """Exponential-sum kernel in the Laplace variable u > 0.

    Its nonnegativity on (0, infinity) is equivalent to complete
    monotonicity of (log W)''.  The 1/u singular parts of the individual
    terms are combined analytically (via expm1), so the evaluation stays
    accurate down to u ~ 1e-300 even when sum(A) = sum(B) makes them cancel.

    Accepts a scalar or an ndarray of evaluation points.
    """
    u_in = np.asarray(u, dtype=float)
    if np.any(u_in <= 0.0) or not np.all(np.isfinite(u_in)):
        raise DomainError("cm_kernel: u must be positive and finite")
    scalar = u_in.ndim == 0
    uu = np.atleast_1d(u_in)[:, None]

    A = np.asarray(spec.A)
    a = np.asarray(spec.a)
    B = np.asarray(spec.B)
    b = np.asarray(spec.b)

    tA = uu / A
    tB = uu / B
    expA = np.exp(-a * tA)
    expB = np.exp(-b * tB)

    sum_diff = math.fsum(spec.A) - math.fsum(spec.B)
    singular = (
        sum_diff
        + (A * np.expm1(-a * tA)).sum(axis=1)
        - (B * np.expm1(-b * tB)).sum(axis=1)
    ) / uu[:, 0]
    bounded = (expA * _phi(tA)).sum(axis=1) - (expB * _phi(tB)).sum(axis=1)
    out = singular + bounded
    return float(out[0]) if scalar else out


def _power_sum(logt: np.ndarray, scales, shifts) -> np.ndarray:
    """Row sums of t^(shift/scale) / (1 - t^(1/scale)) for a column of log t."""
    scales = np.asarray(scales)
    shifts = np.asarray(shifts)
    return (np.exp(logt * (shifts / scales)) / (-np.expm1(logt / scales))).sum(axis=1)


def cm_kernel_t(spec: RatioSpec, t):
    """The same kernel in the multiplicative variable t = e^-u, 0 < t < 1.

    Away from t = 1 the power-sum form is evaluated directly; near t = 1 it
    delegates to :func:`cm_kernel` at u = -log t, whose cancellation-free
    form is stable there.
    """
    t_in = np.asarray(t, dtype=float)
    if np.any((t_in <= 0.0) | (t_in >= 1.0)) or not np.all(np.isfinite(t_in)):
        raise DomainError("cm_kernel_t: t must lie in (0, 1)")
    scalar = t_in.ndim == 0
    tt = np.atleast_1d(t_in)

    out = np.empty_like(tt)
    near_one = tt >= _KERNEL_T_SWITCH
    if np.any(near_one):
        out[near_one] = np.atleast_1d(cm_kernel(spec, -np.log(tt[near_one])))
    direct = ~near_one
    if np.any(direct):
        logt = np.log(tt[direct][:, None])
        out[direct] = _power_sum(logt, spec.A, spec.a) - _power_sum(logt, spec.B, spec.b)
    return float(out[0]) if scalar else out


# Bernoulli numbers B_0..B_22 (B_1 = -1/2 convention).
_BERNOULLI = (
    1.0, -0.5, 1.0 / 6.0, 0.0, -1.0 / 30.0, 0.0, 1.0 / 42.0, 0.0,
    -1.0 / 30.0, 0.0, 5.0 / 66.0, 0.0, -691.0 / 2730.0, 0.0, 7.0 / 6.0, 0.0,
    -3617.0 / 510.0, 0.0, 43867.0 / 798.0, 0.0, -174611.0 / 330.0, 0.0, 854513.0 / 138.0,
)


def _bernoulli_poly(n: int, x: float) -> float:
    return math.fsum(
        math.comb(n, k) * _BERNOULLI[k] * x ** (n - k) for k in range(n + 1)
    )


def _series_term(spec: RatioSpec, k: int) -> tuple[float, float]:
    """Taylor coefficient p_k of :func:`cm_kernel_series` and its magnitude scale."""
    fact = math.factorial(k + 1)
    terms = [
        _bernoulli_poly(k + 1, 1.0 - ai) / (fact * Ai**k)
        for ai, Ai in zip(spec.a, spec.A)
    ] + [
        -_bernoulli_poly(k + 1, 1.0 - bj) / (fact * Bj**k)
        for bj, Bj in zip(spec.b, spec.B)
    ]
    return math.fsum(terms), math.fsum(abs(v) for v in terms)


def cm_kernel_series(spec: RatioSpec, n_terms: int = 12) -> list[tuple[float, float]]:
    """Taylor coefficients of the kernel at u = 0, past the 1/u term.

    For sum(A) = sum(B) the kernel expands as sum_k p_k u^k with

        p_k = sum_i B_{k+1}(1 - a_i) / ((k+1)! A_i^k)
            - sum_j B_{k+1}(1 - b_j) / ((k+1)! B_j^k),

    where B_n(x) are Bernoulli polynomials; p_0 is the decay exponent mu.
    Returns (coefficient, magnitude_scale) pairs for k = 0..n_terms-1, the
    scale being the sum of absolute term magnitudes so callers can judge
    whether a coefficient is numerically distinguishable from zero.  Each
    coefficient costs O(k (p + q)); a caller that needs only the first
    nonzero one computes them one at a time with `_series_term`.
    """
    if not 1 <= n_terms <= 13:
        raise DomainError(f"cm_kernel_series: n_terms={n_terms} outside 1..13")
    return [_series_term(spec, k) for k in range(n_terms)]


def kernel_positive_part(spec: RatioSpec, t):
    """Numerator sum of the multiplicative kernel (all terms positive).

    Used as the natural magnitude envelope when judging sampled kernel
    signs: both sums forming the kernel are positive and cancellation-free,
    so sign decisions are reliable relative to this scale.
    """
    t_in = np.asarray(t, dtype=float)
    if not np.all((t_in > 0.0) & (t_in < 1.0)):
        raise DomainError("kernel_positive_part: t must lie in (0, 1)")
    scalar = t_in.ndim == 0
    out = _power_sum(np.log(np.atleast_1d(t_in)[:, None]), spec.A, spec.a)
    return float(out[0]) if scalar else out


def power_sum_diff(a: Sequence[float], b: Sequence[float], t):
    """sum_k (t^a_k - t^b_k) for equal-length nonnegative shift vectors.

    This is the unit-scaling decision function: the ratio with all scales
    equal to one is logarithmically completely monotone exactly when this
    sum is nonnegative on (0, 1].
    """
    av = [float(v) for v in a]
    bv = [float(v) for v in b]
    if len(av) != len(bv):
        raise DomainError(f"power_sum_diff: len(a)={len(av)} != len(b)={len(bv)}")
    if not all(0.0 <= v < math.inf for v in av + bv):
        raise DomainError("power_sum_diff: shifts must be nonnegative and finite")
    t_in = np.asarray(t, dtype=float)
    if not np.all((t_in > 0.0) & (t_in <= 1.0)):
        raise DomainError("power_sum_diff: t must lie in (0, 1]")
    if t_in.ndim == 0:
        tv = float(t_in)
        return math.fsum([tv**ak for ak in av] + [-(tv**bk) for bk in bv])
    tt = np.atleast_1d(t_in)[:, None]
    return (tt ** np.asarray(av)).sum(axis=1) - (tt ** np.asarray(bv)).sum(axis=1)
