"""Mellin-Barnes evaluation of the representing density.

For a spec with equal scale sums and positive decay exponent mu, the ratio
of gamma products along a vertical line Re s = c splits into an explicit
algebraic term and an integrable remainder,

    prod Gamma(A_k s + a_k) / prod Gamma(B_j s + b_j)
        = A* rho^s s^-mu + rho^s g(s),        g(s) = O(s^(-mu-1)),

which turns the contour integral defining the density H into a closed-form
leading part supported on (0, rho) plus a convergent Fourier-type integral
of g.  The density vanishes identically for x > rho.

The Fourier integrals Re int_0^inf g(c+it) e^{i omega t} dt split at t = T,
the least T >= 5 where the Stirling series of g holds to 1e-15:
Gauss-Kronrod G10/K21 panels on [0, T], whose K21 - G10 difference is their
error, and beyond T the exact Stirling series g(s) ~ A* sum_k e_k s^(-mu-k),
whose oscillatory moments come from one trapezoidal rule in log u and whose
first omitted term is its error.  A point whose estimate, in density units,
exceeds the tolerance raises QuadratureAccuracyError with its value as the
best estimate.

g does not depend on x.  A DensityEvaluator derives a spec once and keeps
one _Line per abscissa c, holding g on the head nodes (one vectorized pass)
and the tail terms, so a density point costs a few small matrix-vector
products and every point of a curve or an outer quadrature reuses them.
``edge_integral`` owns the leading/remainder split near the support
endpoint; ``fox_h`` is the one-point case.
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
from .ratio import _BERNOULLI, DerivedInvariants, RatioSpec, _gamma_product, derive

# Relative half-width of the excluded neighbourhood of x = rho, where the
# leading part diverges for mu < 1 and the decomposition loses all digits.
_RHO_EXCLUSION = 1e-6

# Width of the interval at the support endpoint over which the singular
# leading part of the Mellin integrand is integrated in closed form.
_MELLIN_SPLIT = 0.5

_MU_WARN = 0.2

_EPS = np.finfo(float).eps

# Largest x for which e^x is a finite double.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# Gauss-Kronrod G10/K21 on [-1, 1], QUADPACK's qk21 (the table of scipy's
# quad_vec) in double precision: the nonnegative Kronrod nodes, their
# weights, and the weights of the Gauss nodes among them (odd positions).
_GK_X = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
                  0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
                  0.2943928627014602, 0.14887433898163122, 0.0])
_GK_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
                   0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
                   0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_GK_WG = np.zeros(11)
_GK_WG[1::2] = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
                0.29552422471475287)
_GK_NODES = np.concatenate([-_GK_X, _GK_X[-2::-1]])
_GK_KRONROD = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_DIFF = _GK_KRONROD - np.concatenate([_GK_WG, _GK_WG[-2::-1]])

# Stirling terms of g summed in the tail; the next one bounds the truncation.
# T moves out from _HEAD_T_MIN until that term is below _TAIL_SERIES_TOL of
# the largest kept one, but not past _TAIL_T_MAX.  At T = 5 the log-u rule
# gives every tail moment to 1.3e-14 relative against 30-digit incomplete
# gammas (c in {1, 0.3, 0.05}, mu from 0.3 to 4.8, |omega| from 1e-3 to 60);
# at T = 3 the highest moments lose two digits and at T = 2 six.  Abscissas
# are at most 1, so T >= 5c on every line.
_TAIL_TERMS = 20
_TAIL_SERIES_TOL = 1e-15
_HEAD_T_MIN = 5.0
_TAIL_T_MAX = 1e4

# B_n(x) = sum_j C(n, j) B_(n-j) x^j for n <= K+2, as a matrix acting on the
# powers x^j.
_BERNOULLI_POLY = np.array(
    [[math.comb(n, j) * _BERNOULLI[n - j] if j <= n else 0.0 for j in range(_TAIL_TERMS + 3)]
     for n in range(_TAIL_TERMS + 3)]
)

# Most log-gamma values one line evaluates, which caps its equal head panels
# at _HEAD_VALUES / (21 (p+q)).  A panel longer than one period of
# e^{i omega t} shows in the K21 - G10 difference.
_HEAD_VALUES = 1 << 20

# Step of the log-variable trapezoidal rule for the tail moments, whose
# lattice is 410-460 nodes for |omega| in [1e-3, 60]; h = 0.15 loses up to
# seven digits on the highest powers at T = 10.
_TAIL_STEP = 0.1


@dataclass(frozen=True)
class ContourConfig:
    """Quadrature tolerance for density evaluation: the relative error a
    density point must meet to be trusted."""

    quad_rel_tol: float = 1e-8

    def __post_init__(self):
        if not 1e-14 <= self.quad_rel_tol <= 1e-3:
            raise DomainError(
                f"ContourConfig: quad_rel_tol={self.quad_rel_tol} outside [1e-14, 1e-3]"
            )


DEFAULT_CONTOUR = ContourConfig()


@dataclass(frozen=True)
class HEvaluation:
    """Density value split into its closed-form and quadrature parts."""

    value: float
    leading_part: float
    remainder_part: float
    error_estimate: float


def _g(spec: RatioSpec, inv: DerivedInvariants, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The subtracted integrand g at every point of the complex array s, and its rounding.

    Evaluated as A* s^-mu expm1(d) with d -> 0, from one loggamma call on a
    (p+q) x len(s) array.  d is a small difference of log-gamma sums of size
    |s| log|s|; the rounding of those sums, carried through the exponential,
    is the size of the absolute error of g, which grows with |s|.
    """
    scales = np.array(spec.A + spec.B)[:, None]
    shifts = np.array(spec.a + spec.b)[:, None]
    lg = sc.loggamma(scales * s + shifts)
    s_log_rho = s * inv.log_rho
    log_ratio = lg[: spec.p].sum(axis=0) - lg[spec.p :].sum(axis=0) - s_log_rho
    lead_log = inv.log_stirling_const - inv.mu * np.log(s)
    lead = np.exp(lead_log)
    g = lead * np.expm1(log_ratio - lead_log)
    size = np.abs(lg).sum(axis=0) + np.abs(s_log_rho) + np.abs(lead_log)
    return g, 2.0 * _EPS * (np.abs(lead + g) * size + np.abs(g))


def subtracted_gamma_ratio(spec: RatioSpec, s: complex) -> complex:
    """Gamma-product ratio times rho^-s minus its algebraic leading term.

    Exposed for the conjugate-symmetry and decay-law diagnostics; the
    contour integration uses the same evaluation internally.
    """
    return complex(_g(spec, derive(spec), np.array([complex(s)]))[0][0])


def _stirling_coefficients(spec: RatioSpec, n: int) -> np.ndarray:
    """e_1..e_n of W(s) rho^-s = A* s^-mu sum_k e_k s^-k (e_0 = 1).

    By the Stirling series with Bernoulli polynomials (DLMF 5.11.8),
    log W(s) - s log rho - log A* + mu log s = sum_m d_m s^-m with
    d_m = sum_i (-1)^(m+1) B_(m+1)(a_i) / (m (m+1) A_i^m), minus the same
    sum over (b_j, B_j); exponentiating gives e_k = (1/k) sum_m m d_m e_(k-m).
    """
    shifts = np.array(spec.a + spec.b)
    signs = np.array([1.0] * spec.p + [-1.0] * spec.q)
    m = np.arange(1, n + 1)
    bern = _BERNOULLI_POLY[: n + 2, : n + 2] @ shifts ** np.arange(n + 2)[:, None]
    inverse_powers = np.array(spec.A + spec.B) ** -m[:, None]
    md = (-1.0) ** (m + 1) * ((bern[2:] * inverse_powers) @ signs) / (m + 1)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for k in range(1, n + 1):
        e[k] = md[:k] @ e[k - 1 :: -1] / k
    return e[1:]


def _tail_start(coef: np.ndarray) -> float:
    """Least T >= _HEAD_T_MIN (at most _TAIL_T_MAX) where the first omitted
    term is below _TAIL_SERIES_TOL of the largest kept one.

    The series needs |s| well beyond the shifts over the scales: T is 6.9 on
    spec_mixed_scale and 26 on spec_paired.
    """
    need = [(abs(coef[-1]) / (_TAIL_SERIES_TOL * abs(ck))) ** (1.0 / (_TAIL_TERMS - k))
            for k, ck in enumerate(coef[:-1]) if ck != 0.0]
    return max(_HEAD_T_MIN, min(min(need, default=0.0), _TAIL_T_MAX))


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


def _tail_lattice(omega: float, z0: complex) -> tuple[int, int]:
    """Range j0 <= j < j1 of the nodes l = j h, on one lattice for every omega != 0.

    The limits drop less than e^-37 below the scale of the integrand and
    e^-40 past its decay.
    """
    aw = abs(omega)
    lo = math.log(1.0 / (aw + 1.0 / abs(z0))) - 37.0
    return math.floor(lo / _TAIL_STEP), math.ceil(math.log(40.0 / aw) / _TAIL_STEP)


def _ray_powers(z0: complex, sgn: float, mu: float, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
    """u = e^(j h), j0 <= j < j1, and the rows (z0 - sgn u)^-(mu+k), k = 1..K+1."""
    u = np.exp(np.arange(j0, j1) * _TAIL_STEP)
    base = z0 - sgn * u
    steps = np.empty((_TAIL_TERMS + 1, len(u)), dtype=complex)
    steps[0] = np.exp(-(mu + 1.0) * np.log(base))
    steps[1:] = 1.0 / base
    return u, np.cumprod(steps, axis=0)


def _tail_moments(omega: float, mu: float, z0: complex) -> np.ndarray:
    """Oscillatory moments I_nu of _osc_tail_moment for nu = mu+1, ..., mu+K+1.

    Rotating the ray t -> i sgn(omega) u gives the Laplace integral

        I_nu = i sgn(omega) int_0^inf (z0 - sgn(omega) u)^-nu e^(-|omega| u) du,

    without crossing the branch cut: Im(z0 + i t) >= Im z0 > 0 on the
    quadrant swept.  In l = log u the integrand u (z0 - sgn(omega) u)^-nu
    e^(-|omega| u) is analytic in a strip and decays at both ends, so the
    trapezoidal rule converges exponentially (Trefethen & Weideman, SIAM
    Review 2014); one pass of 410-460 nodes (|omega| in [1e-3, 60]) gives
    every moment to about 1e-14 relative.
    """
    nus = mu + np.arange(1.0, _TAIL_TERMS + 2.0)
    if omega == 0.0:
        return np.array([_osc_tail_moment(0.0, nu, z0) for nu in nus])
    sgn = 1.0 if omega > 0.0 else -1.0
    u, powers = _ray_powers(z0, sgn, mu, *_tail_lattice(omega, z0))
    return (1j * sgn * _TAIL_STEP) * (powers @ (u * np.exp(-abs(omega) * u)))


class _Line:
    """The line Re s = c of one evaluator: g on the head nodes and the tail terms.

    The head [0, T] is cut into G10/K21 panels of width c/2 * 1.5^k from t = 0
    (the singularity at s = 0 is a distance c away), then into n equal panels
    of one half-width h, 2h <= min(1, 2 pi / |omega|), within the value
    budget.  Their nodes are exactly mid_k + h x_j, so their phases factor
    and take n + 21 complex exponentials, e^{i omega mid} @ (w_eq @
    e^{i omega h x}) with w_eq a view of the weights; the graded panels are
    summed directly.  A larger |omega| halves the panels and evaluates g
    again, so the work stays below twice that of the final node set.  Per
    sign of omega the tail holds the kept Stirling terms A* e_k
    (z0 - sgn u)^-(mu+k), summed, and the first omitted one on the log-u
    lattice, which grows geometrically when a point needs more.  Holds the
    spec, never the evaluator, so it forms no reference cycle.
    """

    __slots__ = ("spec", "inv", "c", "T", "max_panels", "tail_coef", "panel", "t", "g", "graded", "mid", "h",
                 "wg", "w_eq", "noise", "abs_sums", "rows")

    def __init__(self, ev: DensityEvaluator, c: float, omega: float):
        self.spec, self.inv, self.c, self.T = ev.spec, ev.inv, c, ev.T
        self.max_panels = _HEAD_VALUES // (21 * (ev.spec.p + ev.spec.q))
        kept = np.append(ev.coef[:-1], 0.0)
        self.tail_coef = np.array([kept, ev.coef - kept])
        self.rows: dict[float, tuple] = {}
        self._place(min(1.0, 2.0 * math.pi / abs(omega)) if omega else 1.0)

    def _place(self, panel: float):
        """Lay out the head panels and evaluate g on their nodes."""
        edges = [0.0]
        width = 0.5 * self.c
        while width < panel and edges[-1] + width < self.T:
            edges.append(edges[-1] + width)
            width *= 1.5
        n = min(math.ceil((self.T - edges[-1]) / panel), self.max_panels)
        self.h = 0.5 * (self.T - edges[-1]) / n
        self.mid = edges[-1] + self.h * np.arange(1.0, 2.0 * n, 2.0)
        graded = np.array(edges)
        mid = np.concatenate([0.5 * (graded[1:] + graded[:-1]), self.mid])
        half = np.concatenate([0.5 * np.diff(graded), np.full(n, self.h)])[:, None]
        self.graded = 21 * (len(edges) - 1)
        self.t = (mid[:, None] + half * _GK_NODES).ravel()
        self.g, rounding = _g(self.spec, self.inv, self.c + 1j * self.t)
        kronrod = (half * _GK_KRONROD).ravel()
        self.wg = np.stack([kronrod * self.g, (half * _GK_DIFF).ravel() * self.g])
        self.w_eq = self.wg[:, self.graded :].reshape(2, n, 21)
        # The rounding errors of g at different nodes are independent, so
        # they add in quadrature.
        self.noise = float(np.linalg.norm(kronrod * rounding))
        wg = np.abs(self.wg[0])
        self.abs_sums = (float(wg.sum()), float(self.t @ wg))
        self.panel = panel

    def head(self, omega: float) -> tuple[float, float]:
        """Re int_0^T g(c+it) e^{i omega t} dt by K21, and |K21 - G10| plus the rounding
        of g and of the phases and products, eps (sum |w g| + |omega| sum |t w g|)."""
        panel = self.panel
        while abs(omega) * panel > 2.0 * math.pi and panel * self.max_panels > self.T:
            panel *= 0.5
        if panel != self.panel:
            self._place(panel)
        ng = self.graded
        kronrod, diff = self.wg[:, :ng] @ np.exp(1j * omega * self.t[:ng]) + (
            self.w_eq @ np.exp(1j * (omega * self.h) * _GK_NODES)
        ) @ np.exp(1j * omega * self.mid)
        rounding = _EPS * (self.abs_sums[0] + abs(omega) * self.abs_sums[1])
        return float(kronrod.real), float(abs(diff.real)) + self.noise + rounding

    def tail(self, omega: float) -> tuple[float, float]:
        """Re int_T^inf g(c+it) e^{i omega t} dt from the series, and its first omitted term."""
        z0 = complex(self.c, self.T)
        if omega == 0.0:
            kept, omitted = self.tail_coef @ _tail_moments(0.0, self.inv.mu, z0)
        else:
            sgn = 1.0 if omega > 0.0 else -1.0
            j0, j1 = _tail_lattice(omega, z0)
            k0, u, rows = self._tail_rows(sgn, j0, j1)
            u = u[j0 - k0 : j1 - k0]
            weights = u * np.exp(-abs(omega) * u)
            kept, omitted = (1j * sgn * _TAIL_STEP) * (rows[:, j0 - k0 : j1 - k0] @ weights)
        return float((cmath.exp(1j * omega * self.T) * kept).real), float(abs(omitted))

    def _tail_rows(self, sgn: float, j0: int, j1: int) -> tuple:
        """(first index, u, contracted rows) held for sgn, extended to cover j0 <= j < j1;
        each short end grows by at least the held length, so a curve extends it rarely,
        and only a short end is built."""
        k0, u, rows = self.rows.get(sgn, (j0, np.empty(0), np.empty((2, 0), dtype=complex)))
        k1, held = k0 + len(u), len(u)
        if j0 < k0 or j1 > k1:
            z0 = complex(self.c, self.T)
            us, blocks = [u], [rows]
            if j0 < k0:
                lo = min(j0, k0 - held)
                lo_u, powers = _ray_powers(z0, sgn, self.inv.mu, lo, k0)
                us.insert(0, lo_u)
                blocks.insert(0, self.tail_coef @ powers)
                k0 = lo
            if j1 > k1:
                hi_u, powers = _ray_powers(z0, sgn, self.inv.mu, k1, max(j1, k1 + held))
                us.append(hi_u)
                blocks.append(self.tail_coef @ powers)
            u, rows = np.concatenate(us), np.concatenate(blocks, axis=1)
            self.rows[sgn] = (k0, u, rows)
        return k0, u, rows


def _fourier_re(ev: DensityEvaluator, c: float, omega: float):
    """Re int_0^inf g(c+it) e^{i omega t} dt: the fixed-node head plus the series tail.

    Returns (value, error_estimate, trusted).  The error is judged in density
    units, after the prefactor e^(c omega) / pi: on the support against the
    size |leading| + |remainder| of the two parts summed into the density, so
    a small remainder next to the leading part near the endpoint is judged
    by the density, and past the support (omega < 0), where the exact value
    is 0, against the size A*/Gamma(mu) of the leading part on the support.
    """
    line = ev._lines.get(c)
    if line is None:
        line = ev._lines[c] = _Line(ev, c, omega)
    head, head_err = line.head(omega)
    tail, tail_err = line.tail(omega)
    value, err = head + tail, head_err + tail_err
    tol = ev.cfg.quad_rel_tol
    floor = 1e3 * max(1e-14, tol * 1e-5)
    pre = math.exp(c * omega) / math.pi
    if omega >= 0.0:
        leading = ev.lead_scale * omega ** (ev.inv.mu - 1.0) if omega > 0.0 else 0.0
        trusted = err <= max(floor, (leading / pre + abs(value)) * tol)
    else:
        trusted = err * pre <= max(floor, ev.lead_scale * tol)
    return value, err, trusted


def _leading_density(ev: DensityEvaluator, x: float) -> tuple[float, float]:
    """Closed-form leading part A* log(rho/x)^(mu-1) / Gamma(mu) on (0, rho), and its error.

    log(rho/x) carries the rounding of log rho and log x, which the power
    amplifies by |mu - 1| / log(rho/x) near the support endpoint.
    """
    inv = ev.inv
    if x >= inv.rho:
        return 0.0, 0.0
    log_ratio = inv.log_rho - math.log(x)
    value = ev.lead_scale * log_ratio ** (inv.mu - 1.0)
    rounding = _EPS * (abs(inv.log_rho) + abs(math.log(x))) / log_ratio
    return value, value * (1e-14 + abs(inv.mu - 1.0) * rounding)


def _remainder_density(ev: DensityEvaluator, x: float) -> tuple[float, float]:
    """Quadrature part of the density at any x > 0 (no exclusion zone); see _remainder_at."""
    return _remainder_at(ev, ev.c, ev.inv.log_rho - math.log(x))


def _remainder_at(ev: DensityEvaluator, c: float, omega: float) -> tuple[float, float]:
    """Quadrature part of the density at x = rho e^-omega, and its error.

    A result that _fourier_re does not trust raises QuadratureAccuracyError
    with the prefactored value as its best estimate.
    """
    # The prefactor e^(c omega) amplifies quadrature roundoff; far below the
    # support endpoint the contour is moved toward the imaginary axis (all
    # integrand poles sit at abscissas <= 0) to keep that amplification
    # bounded.  Quantized to a few levels so few lines are built.
    if omega > 6.0:
        target = max(0.05, 6.0 / omega)
        level = next((lv for lv in (1.0, 0.3, 0.1, 0.05) if lv <= target), 0.05)
        c = min(c, level)
    value, err, trusted = _fourier_re(ev, c, omega)
    pre = math.exp(c * omega) / math.pi
    # Roundoff of the prefactored assembly: the contour integral is computed
    # to near machine precision on its own scale, then amplified by e^(c w).
    est = pre * err + 1e-14 * pre * (1.0 + abs(value))
    if not trusted:
        raise QuadratureAccuracyError(
            f"contour quadrature did not converge (omega={omega}, error {est})",
            best_estimate=pre * value,
            error_estimate=est,
        )
    return pre * value, est


class DensityEvaluator:
    """The density of one spec: its tail series and one _Line per abscissa.

    Derives and validates the spec, sets the abscissa c = max(gamma_pole, 0)
    + 1 (right of every integrand pole and clear of the branch cut of s^-mu)
    and computes the Stirling coefficients of g and the head length T once;
    requires mu > 0 and equal scale sums, and warns once when mu is small
    enough to slow the contour decay.  Every point evaluated through one
    evaluator reuses the lines of the points before it, so a whole curve or
    an outer quadrature over x should go through a single evaluator.
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
        self.spec = spec
        self.inv = inv
        self.c = max(inv.gamma_pole, 0.0) + 1.0
        self.coef = inv.stirling_const * _stirling_coefficients(spec, _TAIL_TERMS + 1)
        self.T = _tail_start(self.coef)
        self.lead_scale = inv.stirling_const / float(sc.gamma(inv.mu))
        self._lines: dict[float, _Line] = {}

    def value(self, x: float) -> float:
        """Density at any x > 0 (no support-endpoint exclusion)."""
        return _leading_density(self, x)[0] + _remainder_density(self, x)[0]

    def evaluate(self, x: float) -> HEvaluation:
        """Density at x split into its parts, with the combined error estimate."""
        leading, lead_err = _leading_density(self, x)
        remainder, rem_err = _remainder_density(self, x)
        return HEvaluation(
            value=leading + remainder,
            leading_part=leading,
            remainder_part=remainder,
            error_estimate=rem_err + lead_err,
        )

    def edge_integral(self, f, w_hi: float) -> float:
        """int_0^w_hi H(rho e^-w) f(w) dw for f bounded on [0, w_hi].

        The leading part A* w^(mu-1) / Gamma(mu) goes to an algebraic-weight
        quadrature, the bounded remainder to a plain adaptive rule.
        """
        inv = self.inv
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lead = quad(
                lambda w: self.lead_scale * f(w),
                0.0, w_hi, weight="alg", wvar=(inv.mu - 1.0, 0.0),
                epsabs=1e-12, epsrel=1e-9, limit=100,
            )
            rem = quad(
                lambda w: _remainder_density(self, inv.rho * math.exp(-w))[0] * f(w),
                0.0, w_hi, epsabs=1e-12, epsrel=1e-9, limit=100,
            )
        return lead[0] + rem[0]

    def mellin_transform(self, s: float) -> float:
        """int_0^rho H(x) x^(s-1) dx via the substitution x = rho e^-tau.

        The tau^(mu-1) endpoint singularity of the leading part is integrated
        analytically over (0, tau_c), as tau_c^mu / mu 1F1(mu; mu+1; -s tau_c),
        real for every s; the remainder there, and the whole density beyond,
        are integrated numerically at omega = tau, so no x underflows.  For
        c > s the noise e^((c-s) tau) of the remainder is bounded by its
        estimate at tau_max over the whole range, and a bound above 1e-6 of
        the result raises QuadratureAccuracyError, as does a weight e^(-s tau)
        that overflows before tau_max.
        """
        inv, cfg = self.inv, self.cfg
        if s <= inv.gamma_pole:
            raise DomainError(f"Mellin transform requires s > {inv.gamma_pole}, got s={s}")
        # Evaluation noise of the remainder scales like e^(c tau) while the
        # integrand weight is e^(-s tau); keeping c <= s stops the noise from
        # outgrowing the weight over the long tau range.
        c = max(min(s, self.c), max(inv.gamma_pole, 0.0) + 0.05)

        tau_c = _MELLIN_SPLIT
        tau_max = min(45.0 / max(s - inv.gamma_pole, 0.05), 4000.0)
        if tau_max <= 2.0 * tau_c:
            tau_c = 0.25 * tau_max

        mu = inv.mu
        lead_near = self.lead_scale * tau_c**mu / mu * float(sc.hyp1f1(mu, mu + 1.0, -s * tau_c))
        if -s * tau_max > _LOG_FLOAT_MAX:
            raise QuadratureAccuracyError(
                f"Mellin transform at s={s}: the weight e^(-s tau) overflows before tau_max={tau_max}",
                best_estimate=inv.rho**s * lead_near,
                error_estimate=math.inf,
            )
        noise = 0.0
        if c > s:
            noise = (tau_max - tau_c) * _remainder_at(self, c, tau_max)[1] * math.exp(-s * tau_max)
        epsrel = max(1e-10, 0.01 * cfg.quad_rel_tol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            near = quad(
                lambda tau: _remainder_at(self, c, tau)[0] * math.exp(-s * tau),
                0.0, tau_c, epsabs=1e-13, epsrel=epsrel, limit=80,
            )
            # Resolving the bulk below its noise would only chase the noise.
            bulk = quad(
                lambda tau: (self.lead_scale * tau ** (mu - 1.0) + _remainder_at(self, c, tau)[0]) * math.exp(-s * tau),
                tau_c, tau_max, epsabs=max(1e-13, noise), epsrel=epsrel, limit=250,
            )
        integral = lead_near + near[0] + bulk[0]
        if not noise <= 1e-6 * abs(integral):
            raise QuadratureAccuracyError(
                f"Mellin transform at s={s}: remainder noise up to {noise} on the abscissa c={c} > s",
                best_estimate=inv.rho**s * integral,
                error_estimate=inv.rho**s * noise,
            )
        return inv.rho**s * integral


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
    return _gamma_product(spec, s, "gamma ratio: value at s")


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
