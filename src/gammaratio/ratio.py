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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .specfun import _BERNOULLI, _digamma, _polygamma

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

_LOG_2PI = math.log(2.0 * math.pi)


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
    rho and stirling_const are inf where their logs exceed the double range;
    every decision reads the logs.
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
        """rho <= 1 up to REL_TOL, decided on log rho."""
        return self.log_rho <= math.log1p(REL_TOL)


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where it exceeds the largest double."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def derive(spec: RatioSpec) -> DerivedInvariants:
    """Compute all derived invariants of a ratio spec."""
    log_A = [math.log(Ai) for Ai in spec.A]
    log_B = [math.log(Bj) for Bj in spec.B]
    entropy_A = math.fsum([Ai * v for Ai, v in zip(spec.A, log_A)])
    entropy_B = math.fsum([Bj * v for Bj, v in zip(spec.B, log_B)])
    log_rho = entropy_A - entropy_B
    half_pq = 0.5 * (len(log_A) - len(log_B))
    log_stirling = (
        half_pq * _LOG_2PI
        + math.fsum([(ai - 0.5) * v for ai, v in zip(spec.a, log_A)])
        + math.fsum([(0.5 - bj) * v for bj, v in zip(spec.b, log_B)])
    )
    return DerivedInvariants(
        sum_A=math.fsum(spec.A),
        sum_B=math.fsum(spec.B),
        rho=_exp_or_inf(log_rho),
        mu=math.fsum(spec.b) - math.fsum(spec.a) + half_pq,
        gamma_pole=-min([ai / Ai for ai, Ai in zip(spec.a, spec.A)]),
        entropy_A=entropy_A,
        entropy_B=entropy_B,
        stirling_const=_exp_or_inf(log_stirling),
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
    try:
        log_value = math.fsum(
            [math.lgamma(Ai * x + ai) for Ai, ai in zip(spec.A, spec.a)]
            + [-math.lgamma(Bj * x + bj) for Bj, bj in zip(spec.B, spec.b)]
        )
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"{where}={x} overflows") from None


def log_ratio_derivative(spec: RatioSpec, x: float, order: int) -> float:
    """First or second derivative of log W at x.

    Order 1 is sum A_i psi(A_i x + a_i) - sum B_j psi(B_j x + b_j); order 2
    the analogous combination with squared scales and the trigamma.
    """
    x = float(x)
    _check_arguments(spec, x)
    if order == 1:
        return math.fsum(
            [Ai * _digamma(Ai * x + ai) for Ai, ai in zip(spec.A, spec.a)]
            + [-Bj * _digamma(Bj * x + bj) for Bj, bj in zip(spec.B, spec.b)]
        )
    if order == 2:
        return math.fsum(
            [Ai * Ai * _polygamma(1, Ai * x + ai) for Ai, ai in zip(spec.A, spec.a)]
            + [-Bj * Bj * _polygamma(1, Bj * x + bj) for Bj, bj in zip(spec.B, spec.b)]
        )
    raise DomainError(f"order={order} must be 1 or 2")


def _phi(t: np.ndarray) -> np.ndarray:
    """Bounded part 1/(1 - e^-t) - 1/t of the geometric kernel factor.

    Series coefficients are the even Bernoulli numbers; the series branch
    keeps full precision where the direct form would cancel, and the direct
    form is evaluated only on the entries at or past the cutoff.
    """
    small = t < _PHI_SERIES_CUTOFF
    ts = np.where(small, t, 0.0)
    ts2 = ts * ts
    out = 0.5 + ts * (1.0 / 12.0 + ts2 * (-1.0 / 720.0 + ts2 / 30240.0))
    direct = ~small
    td = t[direct]
    out[direct] = 1.0 / (-np.expm1(-td)) - 1.0 / td
    return out


class _Factors(NamedTuple):
    """The p + q factors of a spec as kernel columns, numerator first: scales, shifts,
    their distinct scales and each factor's column among them (None where every scale
    is distinct, so the columns are the factors themselves), and sum(A) - sum(B)."""

    p: int
    scales: np.ndarray
    shifts: np.ndarray
    distinct: np.ndarray
    column: np.ndarray | None
    sum_diff: float


def _factors(spec: RatioSpec) -> _Factors:
    scales = spec.A + spec.B
    index: dict[float, int] = {}
    column = [index.setdefault(s, len(index)) for s in scales]
    return _Factors(spec.p, np.array(scales), np.array(spec.a + spec.b), np.array(list(index)),
                    np.array(column) if len(index) < len(scales) else None,
                    math.fsum(spec.A) - math.fsum(spec.B))


def _gather(f: _Factors, columns: np.ndarray) -> np.ndarray:
    """Per-distinct-scale columns as one column per factor.  Without a repeated scale
    they are already that, C-ordered; a gathered array is F-ordered, and an in-place
    operation with it is slower."""
    return columns if f.column is None else columns[:, f.column]


def _samples(x, lo: float, hi: float, message: str) -> tuple[np.ndarray, bool]:
    """x as an array of at least one dimension, and whether it was a scalar;
    DomainError(message) unless lo < x < hi everywhere (so NaN is refused)."""
    x_in = np.asarray(x, dtype=float)
    if not np.all((x_in > lo) & (x_in < hi)):
        raise DomainError(message)
    return np.atleast_1d(x_in), x_in.ndim == 0


def _kernel_u(f: _Factors, u: np.ndarray) -> np.ndarray:
    """cm_kernel at a 1-d array of u > 0, unchecked: one expm1 and one exp over all
    p + q columns, one _phi per distinct scale.  The arrays summed over their rows
    are built C-ordered (a gathered array is not): numpy sums a C-ordered row
    pairwise and an F-ordered array column by column, which differ from 8
    columns on."""
    uu = u[:, None]
    x = -f.shifts * (uu / f.scales)
    singular = f.scales * np.expm1(x)
    bounded = np.exp(x)
    bounded *= _gather(f, _phi(uu / f.distinct))
    p = f.p
    return ((f.sum_diff + singular[:, :p].sum(axis=1) - singular[:, p:].sum(axis=1)) / u
            + (bounded[:, :p].sum(axis=1) - bounded[:, p:].sum(axis=1)))


def _power_terms(f: _Factors, logt: np.ndarray) -> np.ndarray:
    """t^(shift/scale) / (1 - t^(1/scale)) for a column of log t, one column per factor:
    one exp over all p + q columns, one expm1 per distinct scale, gathered into a
    C-ordered division in place (see _kernel_u).  The numerator columns sum to the
    positive part, and the kernel is that sum minus the rest."""
    terms = np.exp(logt * (f.shifts / f.scales))
    terms /= _gather(f, -np.expm1(logt / f.distinct))
    return terms


def cm_kernel(spec: RatioSpec, u):
    """Exponential-sum kernel in the Laplace variable u > 0.

    Its nonnegativity on (0, infinity) is equivalent to complete
    monotonicity of (log W)''.  The 1/u singular parts of the individual
    terms are combined analytically (via expm1), so the evaluation stays
    accurate down to u ~ 1e-300 even when sum(A) = sum(B) makes them cancel.

    Accepts a scalar or a 1-d ndarray of evaluation points.
    """
    uu, scalar = _samples(u, 0.0, math.inf, "cm_kernel: u must be positive and finite")
    out = _kernel_u(_factors(spec), uu)
    return float(out[0]) if scalar else out


def cm_kernel_t(spec: RatioSpec, t):
    """The same kernel in the multiplicative variable t = e^-u, 0 < t < 1.

    Away from t = 1 the power-sum form is evaluated directly; near t = 1 the
    form of :func:`cm_kernel` at u = -log t, whose cancellation-free form is
    stable there.
    """
    tt, scalar = _samples(t, 0.0, 1.0, "cm_kernel_t: t must lie in (0, 1)")
    f = _factors(spec)
    out = np.empty_like(tt)
    near_one = tt >= _KERNEL_T_SWITCH
    if np.any(near_one):
        out[near_one] = _kernel_u(f, -np.log(tt[near_one]))
    direct = ~near_one
    if np.any(direct):
        terms = _power_terms(f, np.log(tt[direct][:, None]))
        out[direct] = terms[:, : f.p].sum(axis=1) - terms[:, f.p :].sum(axis=1)
    return float(out[0]) if scalar else out


# B_n(1 - x) = sum_j C(n, j) B_(n-j)(1/2) (1/2 - x)^j for n <= 22, as a matrix
# acting on the powers (x - 1/2)^j; B_k(1/2) = (2^(1-k) - 1) B_k (DLMF
# 24.4.12, 24.4.27).  For shifts up to about 3 the monomials about 1/2 sum
# to about 1/20 of those about 0, and so does their rounding.
_BERNOULLI_POLY = np.array(
    [[math.comb(n, j) * (2.0 ** (1 - n + j) - 1.0) * _BERNOULLI[n - j] * (-1) ** j if j <= n else 0.0
      for j in range(len(_BERNOULLI))]
     for n in range(len(_BERNOULLI))]
)
# The matrix and its magnitudes, the exponents j and -j, j = 0..22, of the table's
# powers, and the divisors m + 1, m = 0..21.
_BERNOULLI_PAIR = np.stack([_BERNOULLI_POLY, np.abs(_BERNOULLI_POLY)])
_EXPONENTS = np.arange(float(len(_BERNOULLI)))[:, None] * np.array([1.0, -1.0])[:, None, None]
_DIVISORS = np.arange(1.0, len(_BERNOULLI))


def _stirling_table(spec: RatioSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """m d_m for m = 0..n (n <= 21), and the same sums over the magnitudes of their
    monomials about 1/2, from one build of the powers of the shifts and scales.

    By the Stirling series (DLMF 5.11.8), log W(s) - s log rho - log A* +
    mu log s = sum_m d_m s^-m with m d_m = sum_i B_(m+1)(1 - a_i) / ((m+1)
    A_i^m), minus the same sum over (b_j, B_j); at m = 0 that is mu.  By
    Watson's lemma m d_m / m! is the kernel's Taylor coefficient p_m.
    """
    # (shift - 1/2)^j, their magnitudes and scale^-j, j = 0..22, in one power.
    powers = np.empty((3, len(_BERNOULLI), spec.p + spec.q))
    np.power(np.array([[v - 0.5 for v in spec.a + spec.b], spec.A + spec.B])[:, None, :], _EXPONENTS,
             out=powers[::2])
    np.abs(powers[0], out=powers[1])
    rows = (_BERNOULLI_PAIR[:, : n + 2, : n + 2] @ powers[:2, : n + 2])[:, 1:]
    rows *= powers[2, : n + 1]
    md_rows = rows[0] @ np.array([1.0] * spec.p + [-1.0] * spec.q)
    return md_rows / _DIVISORS[: n + 1], rows[1].sum(axis=1) / _DIVISORS[: n + 1]


def cm_kernel_series(spec: RatioSpec, n_terms: int = 12) -> list[tuple[float, float]]:
    """Taylor coefficients of the kernel at u = 0, past the 1/u term.

    For sum(A) = sum(B) the kernel expands as sum_k p_k u^k with

        p_k = sum_i B_{k+1}(1 - a_i) / ((k+1)! A_i^k)
            - sum_j B_{k+1}(1 - b_j) / ((k+1)! B_j^k),

    where B_n(x) are Bernoulli polynomials; p_0 is the decay exponent mu.
    Returns (k! p_k, magnitude) / k! for k = 0..n_terms-1 from `_stirling_table`,
    the magnitude summing the coefficient's Bernoulli monomials about 1/2,
    so callers can judge whether it is numerically distinguishable from zero.
    """
    if not 1 <= n_terms <= 13:
        raise DomainError(f"cm_kernel_series: n_terms={n_terms} outside 1..13")
    md, magnitudes = _stirling_table(spec, n_terms - 1)
    return [
        (coef / math.factorial(k), size / math.factorial(k))
        for k, (coef, size) in enumerate(zip(md.tolist(), magnitudes.tolist()))
    ]


def kernel_positive_part(spec: RatioSpec, t):
    """Numerator sum of the multiplicative kernel (all terms positive).

    Used as the natural magnitude envelope when judging sampled kernel
    signs: both sums forming the kernel are positive and cancellation-free,
    so sign decisions are reliable relative to this scale.
    """
    tt, scalar = _samples(t, 0.0, 1.0, "kernel_positive_part: t must lie in (0, 1)")
    f = _factors(spec)
    out = _power_terms(f, np.log(tt[:, None]))[:, : f.p].sum(axis=1)
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
