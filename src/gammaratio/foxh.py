"""Mellin-Barnes evaluation of the representing density.

For a spec with equal scale sums and positive decay exponent mu, the ratio
of gamma products along a vertical line Re s = c splits into an explicit
algebraic term and an integrable remainder,

    prod Gamma(A_k s + a_k) / prod Gamma(B_j s + b_j)
        = A* rho^s s^-mu + rho^s g(s),        g(s) = O(s^(-mu-1)),

which turns the contour integral defining the density H into a closed-form
leading part supported on (0, rho) plus a convergent Fourier-type integral
of g.  The density vanishes identically for x > rho.

The Fourier integrals Re int_0^inf g(c+it) e^{i omega t} dt are computed as
an oscillatory-weight quadrature over [0, T] (whose cost is independent of
the frequency) plus an analytic tail: g is fitted on [T, 3T] to a
three-term algebraic expansion whose oscillatory moments are Laplace
integrals along a rotated ray, evaluated together by one trapezoidal rule
in log u.  A result that QUADPACK flags, or whose estimate exceeds the
tolerance, is recomputed on a second contour; if the two disagree the point
raises QuadratureAccuracyError with the better value as its best estimate.

g does not depend on x.  A DensityEvaluator derives and validates a spec
once and owns one contour whose g is memoized on the exact complex s, so
every density point of a curve (``density``), of a Mellin or Laplace
quadrature, or of an integral-equation check reuses the g values that
earlier points computed at the same quadrature nodes.  The cos and sin
passes read Re g and Im g from per-abscissa dict columns, so QUADPACK's
repeated nodes are dict hits that never enter Python.  ``fox_h`` is the
one-point case.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import special as sc
from scipy.integrate import quad

from .errors import (
    DomainError,
    QuadratureAccuracyError,
    SingularPointError,
    UnsupportedParameterError,
)
from .ratio import DerivedInvariants, RatioSpec, derive

# Frequencies below this go through the head-plus-analytic-tail path; above
# it QUADPACK's cycle acceleration converges quickly.
_OMEGA_SWITCH = 0.05

# Relative half-width of the excluded neighbourhood of x = rho, where the
# leading part diverges for mu < 1 and the decomposition loses all digits.
_RHO_EXCLUSION = 1e-6

# Width of the interval at the support endpoint over which the singular
# leading part of the Mellin integrand is integrated in closed form.
_MELLIN_SPLIT = 0.5

_MU_WARN = 0.2
_TAIL_FIT_TERMS = 3
_TAIL_FIT_SAMPLES = 12

# Step of the log-variable trapezoidal rule for the tail moments; h = 0.2
# already loses four digits.
_TAIL_STEP = 0.15

# Subinterval limit of the head quadratures on [0, T].
_HEAD_LIMIT = 133


@dataclass(frozen=True)
class ContourConfig:
    """Contour and quadrature parameters for density evaluation.

    abscissa_c of None selects max(gamma_pole, 0) + 1, which keeps the
    contour right of every integrand pole and clear of the branch cut of
    s^-mu on the negative real axis.
    """

    abscissa_c: float | None = None
    truncation_T: float = 400.0
    quad_rel_tol: float = 1e-8

    def __post_init__(self):
        if self.truncation_T < 10.0:
            raise DomainError(f"ContourConfig: truncation_T={self.truncation_T} must be >= 10")
        if not 1e-14 <= self.quad_rel_tol <= 1e-3:
            raise DomainError(
                f"ContourConfig: quad_rel_tol={self.quad_rel_tol} outside [1e-14, 1e-3]"
            )

    def resolve_abscissa(self, inv: DerivedInvariants) -> float:
        c = self.abscissa_c
        if c is None:
            c = max(inv.gamma_pole, 0.0) + 1.0
        if c <= inv.gamma_pole:
            raise DomainError(
                f"ContourConfig: abscissa_c={c} must exceed the rightmost pole {inv.gamma_pole}"
            )
        if c <= 0.0:
            raise DomainError(f"ContourConfig: abscissa_c={c} must be positive (branch cut)")
        return c


DEFAULT_CONTOUR = ContourConfig()


@dataclass(frozen=True)
class HEvaluation:
    """Density value split into its closed-form and quadrature parts."""

    value: float
    leading_part: float
    remainder_part: float
    error_estimate: float


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation for small complex z."""
    if abs(z) < 1e-4:
        return z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    return cmath.exp(z) - 1.0


class _MemoG:
    """The subtracted integrand g(s), memoized on the exact s.

    The adaptive rules of different density points (and the cos and sin
    passes of one point) share their nodes, and a cached value is the value
    the evaluation would return.  Holds arrays and its memo only, never a
    contour, so the columns that call it form no reference cycle.
    """

    __slots__ = ("weights", "scales", "shifts", "log_rho", "mu", "log_stirling", "values")

    def __init__(self, spec: RatioSpec, inv: DerivedInvariants):
        self.weights = np.concatenate([np.ones(spec.p), -np.ones(spec.q)])
        self.scales = np.concatenate([np.asarray(spec.A), np.asarray(spec.B)])
        self.shifts = np.concatenate([np.asarray(spec.a), np.asarray(spec.b)])
        self.log_rho = inv.log_rho
        self.mu = inv.mu
        self.log_stirling = inv.log_stirling_const
        self.values: dict[complex, complex] = {}

    def __call__(self, s: complex) -> complex:
        """Evaluated as A* s^-mu expm1(d) with d -> 0."""
        value = self.values.get(s)
        if value is None:
            lg = sc.loggamma(self.scales * s + self.shifts)
            log_ratio = complex(np.dot(self.weights, lg)) - s * self.log_rho
            lead_log = self.log_stirling - self.mu * cmath.log(s)
            value = self.values[s] = cmath.exp(lead_log) * _cexpm1(log_ratio - lead_log)
        return value


class _Column(dict):
    """t -> Re g(c+it), or Im g(c+it) for a column without a twin.

    QUADPACK takes ``column.__getitem__`` as its integrand, so a node seen
    before is a dict hit served in C; only a miss runs Python.  A miss in
    the real column also fills its imaginary twin.
    """

    __slots__ = ("g", "c", "twin")

    def __init__(self, g: _MemoG, c: float, twin: _Column | None = None):
        self.g, self.c, self.twin = g, c, twin

    def __missing__(self, t: float) -> float:
        value = self.g(complex(self.c, t))
        if self.twin is None:
            self[t] = part = value.imag
        else:
            self.twin[t] = value.imag
            self[t] = part = value.real
        return part


class _Contour:
    """Memoized subtracted integrand g(s) plus per-abscissa caches."""

    def __init__(self, spec: RatioSpec, inv: DerivedInvariants):
        self.g = _MemoG(spec, inv)
        self._g_values = self.g.values
        self.mu = inv.mu
        self.gamma_pole = inv.gamma_pole
        self._tail_fits: dict[tuple[float, float], tuple[np.ndarray, float]] = {}
        self._columns: dict[float, _Column] = {}

    def columns(self, c: float) -> tuple[_Column, _Column]:
        """The real and imaginary columns of g on the line Re s = c."""
        re = self._columns.get(c)
        if re is None:
            re = self._columns[c] = _Column(self.g, c, _Column(self.g, c))
        return re, re.twin


def subtracted_gamma_ratio(spec: RatioSpec, s: complex) -> complex:
    """Gamma-product ratio times rho^-s minus its algebraic leading term.

    Exposed for the conjugate-symmetry and decay-law diagnostics; the
    contour integration uses the same evaluation internally.
    """
    return _MemoG(spec, derive(spec))(complex(s))


def _osc_tail_moment(omega: float, nu: float, z0: complex) -> complex:
    """int_0^inf (z0 + i t)^-nu e^{i omega t} dt for Re z0 > 0, nu > 1.

    Derived by rotating the integration ray; the result is an upper
    incomplete gamma evaluated at a complex point off the principal cut.
    The exact reference for _tail_moments, which calls it only at omega = 0.
    """
    if omega == 0.0:
        return z0 ** (1.0 - nu) / (1j * (nu - 1.0))
    m = nu - 1.0
    if omega > 0.0:
        val = complex(mpmath.gammainc(-m, -omega * z0))
        return -1j * cmath.exp(-omega * z0) * (omega**m) * cmath.exp(-1j * math.pi * m) * val
    w = -omega
    val = complex(mpmath.gammainc(-m, w * z0))
    return -1j * cmath.exp(-omega * z0) * (w**m) * val


def _quad_result(res) -> tuple[float, float, bool]:
    """Unpack scipy.integrate.quad full_output, flagging reported trouble."""
    value, abserr = res[0], res[1]
    trouble = len(res) > 3
    return float(value), float(abserr), trouble


def _tail_moments(omega: float, mu: float, z0: complex) -> list[complex]:
    """Oscillatory moments I_nu of _osc_tail_moment for nu = mu+1, ..., mu+3.

    Rotating the ray t -> i sgn(omega) u gives the Laplace integral

        I_nu = i sgn(omega) int_0^inf (z0 - sgn(omega) u)^-nu e^(-|omega| u) du,

    without crossing the branch cut: Im(z0 + i t) >= Im z0 > 0 on the
    quadrant swept.  In l = log u the integrand u (z0 - sgn(omega) u)^-nu
    e^(-|omega| u) is analytic in a strip and decays at both ends, so the
    trapezoidal rule converges exponentially (Trefethen & Weideman, SIAM
    Review 2014).  The limits drop less than e^-37 below the scale of the
    integrand and e^-40 past its decay; one pass of about 270-360 nodes
    gives all three moments to about 1e-14 relative.
    """
    nus = [mu + k for k in range(1, _TAIL_FIT_TERMS + 1)]
    if omega == 0.0:
        return [_osc_tail_moment(0.0, nu, z0) for nu in nus]
    aw = abs(omega)
    sgn = 1.0 if omega > 0.0 else -1.0
    lo = math.log(1.0 / (aw + 1.0 / abs(z0))) - 37.0
    u = np.exp(np.arange(lo, math.log(40.0 / aw), _TAIL_STEP))
    log_base = np.log(z0 - sgn * u)
    weights = u * np.exp(-aw * u)
    sums = np.exp(-np.array(nus)[:, None] * log_base) @ weights
    return [complex(v) for v in (1j * sgn * _TAIL_STEP) * sums]


def _tail_fit(contour: _Contour, c: float, T: float) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of g against inverse powers on [T, 3T].

    Frequency-independent, so cached per contour and abscissa.
    """
    key = (c, T)
    cached = contour._tail_fits.get(key)
    if cached is not None:
        return cached
    ts = np.linspace(T, 3.0 * T, _TAIL_FIT_SAMPLES)
    gs = np.array([contour.g(complex(c, t)) for t in ts])
    powers = [contour.mu + k for k in range(1, _TAIL_FIT_TERMS + 1)]
    basis = np.column_stack([(c + 1j * ts) ** (-nu) for nu in powers])
    coef, *_ = np.linalg.lstsq(basis, gs, rcond=None)
    fit_residual = float(np.max(np.abs(basis @ coef - gs)))
    contour._tail_fits[key] = (coef, fit_residual)
    return coef, fit_residual


def _tail_re(contour: _Contour, c: float, omega: float, T: float):
    """Re int_T^inf g(c+it) e^{i omega t} dt via the fitted algebraic expansion.

    Each basis term has a closed-form oscillatory moment; the fit residual
    times the integrated basis scale bounds the omitted error.
    """
    coef, fit_residual = _tail_fit(contour, c, T)
    z0 = complex(c, T)
    tail = complex(0.0)
    for kap, moment in zip(coef, _tail_moments(omega, contour.mu, z0)):
        tail += kap * moment
    tail *= cmath.exp(1j * omega * T)
    return tail.real, fit_residual * T / (contour.mu + _TAIL_FIT_TERMS)


def _fourier_re(contour: _Contour, c: float, omega: float, cfg: ContourConfig):
    """Re int_0^inf g(c+it) e^{i omega t} dt.

    The head [0, T] uses oscillatory-weight quadrature (Clenshaw-Curtis with
    analytic trigonometric moments, so the cost does not grow with the
    frequency); below the frequency switch a plain adaptive rule is at least
    as accurate.  The infinite tail is always the fitted analytic expansion.
    Returns (value, error_estimate, trusted).
    """
    epsabs = max(1e-14, cfg.quad_rel_tol * 1e-5)
    T = cfg.truncation_T
    aw = abs(omega)
    sgn = 1.0 if omega >= 0.0 else -1.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if aw < _OMEGA_SWITCH:
            head = quad(
                lambda t: (contour.g(complex(c, t)) * cmath.exp(1j * omega * t)).real,
                0.0, T, epsabs=epsabs, epsrel=1e-11, limit=_HEAD_LIMIT, full_output=1,
            )
            hv, he, trouble = _quad_result(head)
        else:
            re, im = contour.columns(c)
            rc = quad(
                re.__getitem__,
                0.0, T, weight="cos", wvar=aw,
                epsabs=epsabs, epsrel=1e-12, limit=_HEAD_LIMIT, full_output=1,
            )
            rs = quad(
                im.__getitem__,
                0.0, T, weight="sin", wvar=aw,
                epsabs=epsabs, epsrel=1e-12, limit=_HEAD_LIMIT, full_output=1,
            )
            vc, ec, tc = _quad_result(rc)
            vs, es, ts2 = _quad_result(rs)
            hv, he, trouble = vc - sgn * vs, ec + es, tc or ts2

    tail_value, tail_err = _tail_re(contour, c, omega, T)
    value = hv + tail_value
    err = he + tail_err
    trusted = (not trouble) and err <= max(1e3 * epsabs, abs(value) * cfg.quad_rel_tol)
    return value, err, trusted


def _leading_density(inv: DerivedInvariants, x: float) -> float:
    """Closed-form leading part: A* log(rho/x)^(mu-1) / Gamma(mu) on (0, rho)."""
    if x >= inv.rho:
        return 0.0
    log_ratio = inv.log_rho - math.log(x)
    return math.exp(
        inv.log_stirling_const + (inv.mu - 1.0) * math.log(log_ratio)
    ) / float(sc.gamma(inv.mu))


def _remainder_density(
    contour: _Contour, c: float, x: float, log_rho: float, cfg: ContourConfig
) -> tuple[float, float]:
    """Quadrature part of the density at any x > 0 (no exclusion zone).

    An untrusted primary result is cross-validated on a second contour: the
    prefactor-corrected values must agree because the integrand is analytic
    between the two lines.  When they disagree, QuadratureAccuracyError
    carries the better of the two values and their difference as its error.
    """
    omega = log_rho - math.log(x)
    # The prefactor e^(c omega) amplifies quadrature roundoff; far below the
    # support endpoint the contour is moved toward the imaginary axis (all
    # integrand poles sit at abscissas <= 0) to keep that amplification
    # bounded.  Quantized to a few levels so the tail-fit cache stays hot.
    # A user-pinned abscissa is honored as configured.
    if cfg.abscissa_c is None and omega > 6.0:
        target = max(0.05, 6.0 / omega)
        level = next((lv for lv in (1.0, 0.3, 0.1, 0.05) if lv <= target), 0.05)
        c = min(c, level)
    value, err, trusted = _fourier_re(contour, c, omega, cfg)
    pre = math.exp(c * omega) / math.pi
    # Roundoff of the prefactored assembly: the contour integral is computed
    # to near machine precision on its own scale, then amplified by e^(c w).
    floor1 = 1e-14 * pre * (1.0 + abs(value))
    if trusted:
        return pre * value, pre * err + floor1

    # Cross-validate on a second contour chosen to shrink the prefactor.
    floor_c = max(contour.gamma_pole, 0.0)
    if omega >= 0.0:
        c2 = c - 0.5 if c - 0.5 > floor_c else 0.5 * (c + floor_c)
    else:
        c2 = c + 1.0
    value2, _, _ = _fourier_re(contour, c2, omega, cfg)
    pre2 = math.exp(c2 * omega) / math.pi
    floor2 = 1e-14 * pre2 * (1.0 + abs(value2))
    r1, r2 = pre * value, pre2 * value2
    diff = abs(r1 - r2)
    best, best_floor = (r2, floor2) if floor2 <= floor1 else (r1, floor1)
    tol_abs = 20.0 * (floor1 + floor2) + 100.0 * min(pre, pre2) * max(1e-14, cfg.quad_rel_tol * 1e-5)
    est = diff + best_floor
    if diff <= max(tol_abs, 10.0 * cfg.quad_rel_tol * abs(best)):
        return best, est
    raise QuadratureAccuracyError(
        f"contour quadrature did not converge (omega={omega}, best error {est})",
        best_estimate=best,
        error_estimate=est,
    )


class DensityEvaluator:
    """The density of one spec on one shared, memoized contour.

    Derives and validates the spec and resolves the contour abscissa once;
    requires mu > 0 and equal scale sums, and warns once when mu is small
    enough to slow the contour decay.  Every point evaluated through one
    evaluator reuses the g values of the points before it, so a whole curve
    or an outer quadrature over x should go through a single evaluator.
    """

    def __init__(self, spec: RatioSpec, cfg: ContourConfig | None = None):
        cfg = cfg or DEFAULT_CONTOUR
        inv = derive(spec)
        if inv.mu <= 0.0:
            raise UnsupportedParameterError(
                f"density evaluation requires mu > 0, got mu={inv.mu}"
            )
        if not inv.sums_equal():
            raise DomainError(
                f"density evaluation requires sum(A)=sum(B); got {inv.sum_A} and {inv.sum_B}"
            )
        if inv.mu < _MU_WARN:
            warnings.warn(
                f"mu={inv.mu} < {_MU_WARN}: slow contour decay, results may need a looser tolerance",
                RuntimeWarning,
                stacklevel=3,
            )
        self.cfg = cfg
        self.inv = inv
        self.c = cfg.resolve_abscissa(inv)
        self.contour = _Contour(spec, inv)

    def remainder(self, x: float, c: float | None = None) -> tuple[float, float]:
        """Quadrature part of the density at any x > 0 and its error estimate.

        c overrides the resolved abscissa (the Mellin quadrature lowers it).
        """
        c = self.c if c is None else c
        return _remainder_density(self.contour, c, x, self.inv.log_rho, self.cfg)

    def value(self, x: float, c: float | None = None) -> float:
        """Density at any x > 0, without the support-endpoint exclusion."""
        return _leading_density(self.inv, x) + self.remainder(x, c)[0]

    def evaluate(self, x: float) -> HEvaluation:
        """Density at x split into its parts, with the combined error estimate."""
        leading = _leading_density(self.inv, x)
        remainder, rem_err = self.remainder(x)
        return HEvaluation(
            value=leading + remainder,
            leading_part=leading,
            remainder_part=remainder,
            error_estimate=rem_err + 1e-14 * abs(leading),
        )

    def mellin_transform(self, s: float) -> float:
        """int_0^rho H(x) x^(s-1) dx via the substitution x = rho e^-tau.

        The tau^(mu-1) endpoint singularity of the leading part is integrated
        analytically over (0, tau_c) (a lower incomplete gamma); the bounded
        remainder is integrated numerically there, and the full density over
        the rest of the range.
        """
        inv, cfg = self.inv, self.cfg
        if s <= inv.gamma_pole:
            raise DomainError(f"Mellin transform requires s > {inv.gamma_pole}, got s={s}")
        # Evaluation noise of the remainder scales like e^(c tau) while the
        # integrand weight is e^(-s tau); keeping c <= s stops the noise from
        # outgrowing the weight over the long tau range.  An explicitly
        # configured abscissa is honored as given.
        c = self.c
        if cfg.abscissa_c is None:
            floor_c = max(inv.gamma_pole, 0.0)
            c = max(min(s, c), floor_c + 0.05, 0.05)

        tau_c = _MELLIN_SPLIT
        tau_max = min(45.0 / max(s - inv.gamma_pole, 0.05), 4000.0)
        if tau_max <= 2.0 * tau_c:
            tau_c = 0.25 * tau_max

        lead_near = math.exp(inv.log_stirling_const) * s ** (-inv.mu) * float(
            sc.gammainc(inv.mu, s * tau_c)
        )
        epsrel = max(1e-10, 0.01 * cfg.quad_rel_tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            near = quad(
                lambda tau: self.remainder(inv.rho * math.exp(-tau), c)[0] * math.exp(-s * tau),
                0.0, tau_c, epsabs=1e-13, epsrel=epsrel, limit=80,
            )
            bulk = quad(
                lambda tau: self.value(inv.rho * math.exp(-tau), c) * math.exp(-s * tau),
                tau_c, tau_max, epsabs=1e-13, epsrel=epsrel, limit=250,
            )
        return inv.rho**s * (lead_near + near[0] + bulk[0])


def density(spec: RatioSpec, xs, cfg: ContourConfig | None = None) -> list[HEvaluation]:
    """Representing density at every x of xs via the subtracted contour integral.

    Requires mu > 0 and equal scale sums.  Every x must be a positive real,
    and points within a relative distance of 1e-6 from the support endpoint
    rho are refused: the leading part diverges there for mu < 1 and the two
    parts cancel to noise.  For x > rho the exact value is zero and the
    returned value is quadrature noise of that size.  All points share one
    contour, so a curve costs far less than as many fox_h calls.
    """
    xs = [float(x) for x in xs]
    for x in xs:
        if not math.isfinite(x) or x <= 0.0:
            raise DomainError(f"density: x={x} must be a positive real")
    ev = DensityEvaluator(spec, cfg)
    rho = ev.inv.rho
    for x in xs:
        if abs(x - rho) <= _RHO_EXCLUSION * rho:
            raise SingularPointError(
                f"density: x={x} within {_RHO_EXCLUSION} relative of the support endpoint rho={rho}"
            )
    return [ev.evaluate(x) for x in xs]


def fox_h(spec: RatioSpec, x: float, cfg: ContourConfig | None = None) -> HEvaluation:
    """Representing density at one point x > 0; see :func:`density`."""
    return density(spec, (x,), cfg)[0]


def meijer_g(a, b, x: float, cfg: ContourConfig | None = None) -> HEvaluation:
    """Unit-scaling special case of :func:`fox_h`, supported on (0, 1).

    Requires sum(b) - sum(a) > 0 so that the decay exponent is positive.
    Evaluation at x >= 1 is refused: the support ends at 1.
    """
    x = float(x)
    av = tuple(float(v) for v in a)
    bv = tuple(float(v) for v in b)
    if len(av) != len(bv):
        raise DomainError(f"meijer_g: len(a)={len(av)} != len(b)={len(bv)}")
    if x >= 1.0:
        raise DomainError(f"meijer_g: x={x} outside the support (0, 1)")
    gap = math.fsum(bv) - math.fsum(av)
    if gap <= 0.0:
        raise UnsupportedParameterError(f"meijer_g: sum(b)-sum(a)={gap} must be positive")
    ones = (1.0,) * len(av)
    return fox_h(RatioSpec(A=ones, a=av, B=ones, b=bv), x, cfg)


def gamma_product_ratio_at(spec: RatioSpec, s: float) -> float:
    """prod Gamma(A_k s + a_k) / prod Gamma(B_j s + b_j) for real s."""
    for j, (Bj, bj) in enumerate(zip(spec.B, spec.b)):
        if Bj * s + bj <= 0.0:
            raise DomainError(f"gamma ratio: denominator factor {j} has argument <= 0 at s={s}")
    for i, (Ai, ai) in enumerate(zip(spec.A, spec.a)):
        if Ai * s + ai <= 0.0:
            raise DomainError(f"gamma ratio: numerator factor {i} has argument <= 0 at s={s}")
    log_val = math.fsum(
        [sc.gammaln(Ai * s + ai) for Ai, ai in zip(spec.A, spec.a)]
        + [-sc.gammaln(Bj * s + bj) for Bj, bj in zip(spec.B, spec.b)]
    )
    try:
        return math.exp(log_val)
    except OverflowError:
        raise DomainError(f"gamma ratio: value at s={s} overflows (log value = {log_val})") from None


def mellin_check(spec: RatioSpec, s: float, cfg: ContourConfig | None = None) -> tuple[float, float]:
    """Both sides of the Mellin identity at real s > gamma_pole.

    Returns (lhs, rhs) where lhs integrates the evaluated density against
    x^(s-1) over its support and rhs is the gamma-product ratio computed
    independently from the parameters.
    """
    s = float(s)
    rhs = gamma_product_ratio_at(spec, s)
    lhs = DensityEvaluator(spec, cfg).mellin_transform(s)
    return lhs, rhs
