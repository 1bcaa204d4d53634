"""Mellin-Barnes evaluation of the representing density.

For a spec with equal scale sums and positive decay exponent mu, the ratio
of gamma products along a vertical line Re s = c splits into an explicit
algebraic term and an integrable remainder,

    prod Gamma(A_k s + a_k) / prod Gamma(B_j s + b_j)
        = A* rho^s s^-mu + rho^s g(s),        g(s) = O(s^(-mu-1)),

which turns the contour integral defining the density H into a closed-form
leading part supported on (0, rho) plus a convergent Fourier-type integral
of g.  The density vanishes identically for x >= rho, where both parts
and their error are returned as exactly 0, with no contour.

Each point takes one of three paths, chosen from the spec and omega =
log(rho/x) before any contour runs:

- near the support endpoint, at omega below a per-spec switch, the endpoint
  series H = A* sum_k e_k omega^(mu+k-1) / Gamma(mu+k), whose k = 0 term is
  the leading part, summed to 19 terms with the 20th and 21st as its
  truncation error (_EndpointSeries), where its estimate beats the least
  estimate the contour could return;
- far below it, at omega > _SHIFT_OMEGA, the sum of the residues of W(s) x^-s
  at the left poles (_ResidueSeries), where the poles are simple, the terms
  needed fit a cap and the estimate meets the tolerance;
- every other point, and a point neither series serves, the contour, on a
  line moved toward the imaginary axis beyond _SHIFT_OMEGA.  Specs with
  coincident or nearly coincident poles (every shift 0 with two or more
  numerator factors, or shifts a whole multiple of the scale apart) and
  scales near the 1e3 bound keep the shifted lines there, which may raise.

Series and residue points evaluate no g and build no line.  A point given
as x or as omega goes through one assembly (_density_at), which computes
the rounding of omega and the leading part once and hands them to each
path; the record's remainder is always the value less the leading part.

A point on a spec seen for the first time pays its path's set-up.  The
endpoint series builds one Stirling table (one set of Bernoulli powers gives
the m d_m and their magnitudes, ratio._stirling_table), and handles its 21
coefficients and error weights as Python floats, where arrays of 21 entries
cost more in numpy calls than in arithmetic (the switch's powers stay one
array pass).  The residue series builds its pole table in one _extend of
about a hundred array passes over its (row, factor, pole) entries.

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
and the tail terms.  The engine takes an array of points: a batch sizes each
line once, for its largest omega, computes its phases elementwise and
contracts each point with a few small matrix-vector products, so a curve or
one round of an outer quadrature costs one call.  The outer quadratures
(Mellin transform, edge integral) use the vectorized rules of
``quadrature``: adaptive G10/K21 panels, and a Gauss-Jacobi rule for the
w^(mu-1) endpoint singularity.  ``fox_h`` is the one-point case.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np

from . import specfun as sc
from .errors import (
    DomainError,
    QuadratureAccuracyError,
    SingularPointError,
    UnsupportedParameterError,
)
from .quadrature import GK_DIFF, GK_KRONROD, GK_NODES as _GK_NODES
from .quadrature import OUTER_EPSABS, OUTER_EPSREL, gauss_jacobi, quad
from .ratio import DerivedInvariants, RatioSpec, _gamma_product, _stirling_table, derive

# Relative half-width of the excluded neighbourhood of x = rho, where the
# leading part diverges for mu < 1 and the decomposition loses all digits.
RHO_EXCLUSION = 1e-6

# Width of the interval at the support endpoint over which the edge rule
# integrates the Mellin integrand, with its tau^(mu-1) singularity.
_MELLIN_SPLIT = 0.5

_MU_WARN = 0.2

_EPS = float(np.finfo(float).eps)

# Largest x for which e^x is a finite double.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

_LOG_2PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# The K21 weights and their differences from the G10 ones, on [-1, 1].
_GK_PAIR = np.stack([GK_KRONROD, GK_DIFF])[:, None, :]

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
# The first omitted term over the k-th kept one falls like T^-(K-k).
_TAIL_ROOTS = 1.0 / (_TAIL_TERMS - np.arange(_TAIL_TERMS))
# The endpoint series keeps the first K - 1 of the K + 1 coefficients and
# takes the last two as its truncation error; those over the k-th kept term
# grow like omega^(K-k) and omega^(K+1-k), k = 1..K-1.
_ORDERS = np.arange(_TAIL_TERMS + 1.0)
_SWITCH_ROOTS = 1.0 / (_TAIL_TERMS + np.array([[0.0], [1.0]]) - _ORDERS[1:-1])

# Most log-gamma values one line evaluates, which caps its equal head panels
# at _HEAD_VALUES / (21 (p+q)).  A panel longer than one period of
# e^{i omega t} shows in the K21 - G10 difference.
_HEAD_VALUES = 1 << 20

# Step of the log-variable trapezoidal rule for the tail moments, whose
# lattice is 410-460 nodes for omega in [1e-3, 60]; h = 0.15 loses up to
# seven digits on the highest powers at T = 10.
_TAIL_STEP = 0.1

# Far below the support endpoint (omega > _SHIFT_OMEGA) a point takes the
# residue series (_ResidueSeries); one it does not serve takes the contour,
# moved to the first of these abscissas at most max(0.05, _SHIFT_OMEGA / omega).
_SHIFT_OMEGA = 6.0
_SHIFT_LEVELS = (1.0, 0.3, 0.1, 0.05)

# The residue series: least distance between a pole and the poles of the other
# numerator factors, most terms per pole row, and the first table length past
# a row's mandatory prefix (the table doubles as points need more).
_POLE_GAP = 1e-3
_RESIDUE_TERMS = 1024
_RESIDUE_BLOCK = 3
# Most factor entries per pole, p (p + q - 1), a table holds: 1,025 poles of
# them are 2 MB per table array.
_RESIDUE_FACTORS = 256
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(_RESIDUE_TERMS + 1)])
_PARITY = np.where(np.arange(_RESIDUE_TERMS + 1) % 2 == 0, 1.0, -1.0)
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
_EXP_MINUS_EULER = math.exp(-0.5772156649015329)
# A row's omitted terms are at most e^-_TRUNCATION_LOG = eps/4 of the largest term.
_TRUNCATION_LOG = math.log(4.0 / _EPS)

# Halvings of the Gauss-Jacobi interval of the edge integral before the
# G10/K21 rule takes over whatever is left.
_EDGE_HALVINGS = 8

# A contour point's estimate carries the rounding of its prefactored sum,
# _CONTOUR_ROUNDING (pre + |remainder|), and its prefactor pre = e^(c omega)
# / pi is at least 1/pi on the support; so no contour point can be trusted
# to less than _CONTOUR_ROUNDING (1/pi + |remainder|).
_CONTOUR_ROUNDING = 1e-14

# Least normal double: a density below it comes back as 0.0 or a subnormal,
# and every endpoint-series estimate carries at least this much.
_TINY = float(np.finfo(float).tiny)
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


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
    """Density value split into its closed-form leading part and its remainder."""

    value: float
    leading_part: float
    remainder_part: float
    error_estimate: float


def _g(spec: RatioSpec, inv: DerivedInvariants, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The subtracted integrand g at every point of the complex array s (Re s > 0), its
    rounding, and |lead + g| = |W(s) rho^-s|.

    Evaluated as lead expm1(d), lead = A* s^-mu, with d -> 0 the difference
    of the log-gamma sum of the p + q factors (specfun.log_gamma_sum), s log
    rho and log lead; d is known modulo 2 pi i and is reduced to |Im d| <=
    pi, so expm1 keeps its digits as d -> 0.  g = W rho^-s - lead, so the rounding of d reaches g times |lead + g|
    and that of log lead times |lead|.  Both grow with |s|: the magnitudes
    summed into d are those of the Stirling sums, |s log rho| and |log
    lead| <= mu |log s| + |log A*|, and those into log lead are the same
    plus mu, the rounding of |s| taken to the log.  Where lead or g leaves the
    double range on the line the spec is outside what the contour can
    evaluate, and UnsupportedParameterError says so.
    """
    z = np.array(spec.A + spec.B)[:, None] * s
    z += np.array(spec.a + spec.b)[:, None]
    log_ratio, size = sc.log_gamma_sum(z, spec.p)
    abs_s = np.abs(s)
    log_s = sc.clog(s, abs_s)
    lead_log = log_s * -inv.mu
    lead_log += inv.log_stirling_const
    d = log_ratio - lead_log
    d -= s * inv.log_rho
    d.imag -= _TWO_PI * np.rint(d.imag / _TWO_PI)
    try:
        with np.errstate(over="raise"):
            lead = np.exp(lead_log)
            growth = np.expm1(d)
            g = lead * growth
            abs_lead = np.abs(lead)
            ratio = abs_lead * np.exp(d.real)
    except FloatingPointError:
        raise UnsupportedParameterError(
            f"the contour integrand g overflows on the line Re s = {float(s[0].real)} "
            f"(|s| up to {float(abs_s.max())}, mu={inv.mu})"
        ) from None
    # |log lead| <= mu |log s| + |log A*|, and |s log rho| = |s| |log rho|.
    lead_size = np.abs(log_s)
    lead_size *= inv.mu
    lead_size += abs(inv.log_stirling_const)
    size += abs_s * abs(inv.log_rho)
    size += lead_size
    size *= ratio
    lead_size += inv.mu + 1.0
    lead_size *= abs_lead
    size += lead_size
    abs_g = np.abs(g)
    size += abs_g
    size *= 2.0 * _EPS
    if min(abs_lead.min(), abs_g.min()) < _TINY:
        # A subnormal lead or g is off by up to one subnormal step.
        size += (np.abs(growth) + 1.0) * _SUBNORMAL
    return g, size, ratio


def _stirling_coefficients(md: list) -> list:
    """e_0..e_n of W(s) rho^-s = A* s^-mu sum_k e_k s^-k (e_0 = 1) from the m d_m,
    m = 1..n, of ratio._stirling_table: exponentiating gives e_k = (1/k) sum_m m d_m e_(k-m),
    summed from m = 1 up."""
    e = [1.0]
    reverse = [1.0]  # e_(k-1), ..., e_0
    for k in range(1, len(md) + 1):
        acc = 0.0
        for term in map(operator.mul, md, reverse):
            acc += term
        acc /= k
        e.append(acc)
        reverse.insert(0, acc)
    return e


def _tail_start(coef: np.ndarray) -> float:
    """Least T >= _HEAD_T_MIN (at most _TAIL_T_MAX) where the first omitted
    term is below _TAIL_SERIES_TOL of the largest kept one.

    The series needs |s| well beyond the shifts over the scales: T is 6.9 on
    spec_mixed_scale and 26 on spec_paired.
    """
    kept = np.abs(coef[:-1])
    scaled = _TAIL_SERIES_TOL * kept
    # A kept term the omitted one exceeds 2^1000-fold (or that underflows when scaled)
    # would need T far past _TAIL_T_MAX, and sets no bound: the ratio stays finite.
    usable = scaled > abs(coef[-1]) * 2.0**-1000
    if not usable.any():
        return _TAIL_T_MAX if kept.any() else _HEAD_T_MIN
    need = (abs(coef[-1]) / scaled[usable]) ** _TAIL_ROOTS[usable]
    return max(_HEAD_T_MIN, min(float(need.min()), _TAIL_T_MAX))


def _osc_tail_moment(omega: float, nu: float, z0: complex) -> complex:
    """int_0^inf (z0 + i t)^-nu e^{i omega t} dt for Re z0 > 0, nu > 1, omega > 0.

    Derived by rotating the integration ray; the result is an upper
    incomplete gamma evaluated at a complex point off the principal cut.
    The mpmath reference for the log-u rule of the tail (_Line.tail); the
    density never calls it.
    """
    m = nu - 1.0
    val = complex(mpmath.gammainc(-m, -omega * z0))
    return -1j * cmath.exp(-omega * z0) * (omega**m) * cmath.exp(-1j * math.pi * m) * val


def _tail_lattice(omega: float, z0: complex) -> tuple[int, int]:
    """Range j0 <= j < j1 of the nodes l = j h, on one lattice for every omega > 0.

    The limits drop less than e^-37 below the scale of the integrand and
    e^-40 past its decay.
    """
    lo = math.log(1.0 / (omega + 1.0 / abs(z0))) - 37.0
    return math.floor(lo / _TAIL_STEP), math.ceil(math.log(40.0 / omega) / _TAIL_STEP)


def _ray_powers(z0: complex, mu: float, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
    """u = e^(j h), j0 <= j < j1, and the rows (z0 - u)^-(mu+k), k = 1..K+1."""
    u = np.exp(np.arange(j0, j1) * _TAIL_STEP)
    base = z0 - u
    powers = np.empty((_TAIL_TERMS + 1, len(u)), dtype=complex)
    powers[0] = np.exp(-(mu + 1.0) * np.log(base))
    # Rows k..2k-1 are rows 0..k-1 times base^-k: five vectorized products
    # (cumprod along the first axis steps through the columns one by one).
    step, k = 1.0 / base, 1
    while k <= _TAIL_TERMS:
        m = min(k, _TAIL_TERMS + 1 - k)
        np.multiply(powers[:m], step, out=powers[k : k + m])
        step, k = step * step, k + m
    return u, powers


class _Line:
    """The line Re s = c of one evaluator: g on the head nodes and the tail terms.

    The head [0, T] is cut into G10/K21 panels of width c/2 * 1.5^k from t = 0
    (the singularity at s = 0 is a distance c away), then into n equal panels
    of one half-width h, 2h <= min(1, 2 pi / omega) for the largest omega
    of the batch that made the line, within the value budget.  Their nodes
    are exactly mid_k + h x_j, so their phases factor: a point takes n + 21
    complex exponentials and sums e^{i omega mid} against the weights w_mid,
    then the 21 local phases e^{i omega h x}; the graded panels are summed
    directly.  A later batch with a larger omega halves the panels until
    they meet that bound and evaluates g again, so the work stays below twice
    that of the final node set.  The tail holds the kept Stirling terms A*
    e_k (z0 - u)^-(mu+k), summed, and the first omitted one on the log-u
    lattice, which grows geometrically when a batch needs more.  Holds the
    spec, never the evaluator, so it forms no reference cycle.
    """

    __slots__ = ("spec", "inv", "log_rho_err", "c", "T", "max_panels", "tail_coef", "panel", "t", "g", "graded",
                 "mid", "h", "wg", "w_mid", "phase_nodes", "noise", "abs_sums", "rows")

    def __init__(self, ev: DensityEvaluator, c: float, omega: float):
        self.spec, self.inv, self.log_rho_err, self.c, self.T = ev.spec, ev.inv, ev.log_rho_err, c, ev.T
        self.max_panels = _HEAD_VALUES // (21 * (ev.spec.p + ev.spec.q))
        kept = np.append(ev.coef[:-1], 0.0)
        self.tail_coef = np.array([kept, ev.coef - kept])
        self.rows: tuple | None = None
        self._place(self._panel_for(omega))

    def _panel_for(self, omega: float, panel: float | None = None) -> float:
        """The one panel rule: a line's panel is at most min(1, 2 pi / omega) for every
        omega > 0 it has served.  A fresh line takes that bound, a held panel halves until
        it meets it, within the value budget."""
        bound = min(1.0, 2.0 * math.pi / omega)
        if panel is None:
            return bound
        while panel > bound and panel * self.max_panels > self.T:
            panel *= 0.5
        return panel

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
        pairs = list(zip(edges, edges[1:]))
        mid = np.concatenate([[0.5 * (a + b) for a, b in pairs], self.mid])
        half = np.concatenate([[0.5 * (b - a) for a, b in pairs], np.full(n, self.h)])[:, None]
        self.graded = 21 * len(pairs)
        self.t = (mid[:, None] + half * _GK_NODES).ravel()
        s = self.c + 1j * self.t
        self.g, rounding, ratio = _g(self.spec, self.inv, s)
        weights = (half * _GK_PAIR).reshape(2, -1)
        self.wg = weights * self.g
        # Rows (K21 or difference, local node j), columns the equal panels.
        self.w_mid = self.wg[:, self.graded :].reshape(2, n, 21).transpose(0, 2, 1).reshape(42, n)
        self.phase_nodes = 1j * np.concatenate([self.t[: self.graded], self.mid, self.h * _GK_NODES])
        # The rounding errors of g at different nodes are independent, so
        # they add in quadrature.  The rounding of log rho is one error at
        # every node, log_rho_err |s| |lead + g| in g, so it adds linearly.  An
        # exact power-of-two scaling keeps the squares from overflowing.
        noise = weights[0] * rounding
        _, exponent = math.frexp(float(np.abs(noise).max()))
        noise = np.ldexp(noise, 1 - exponent)
        self.noise = math.sqrt(noise @ noise) * math.ldexp(1.0, exponent - 1)
        self.noise += self.log_rho_err * float(weights[0] @ (np.abs(s) * ratio))
        wg = np.abs(self.wg[0])
        self.abs_sums = (float(wg.sum()), float(self.t @ wg))
        self.panel = panel

    def head(self, omega: np.ndarray) -> tuple[list, list]:
        """Re int_0^T g(c+it) e^{i omega t} dt by K21 at every omega, and |K21 - G10| plus
        the rounding of g and of the phases and products, eps (sum |w g| + |omega| sum |t w g|)."""
        om = omega.tolist()
        panel = self._panel_for(max(om), self.panel)
        if panel < self.panel:
            self._place(panel)
        ng, nm = self.graded, self.graded + len(self.mid)
        # The graded nodes, the equal-panel midpoints and the 21 local nodes
        # in one exponential; then one matrix-vector product per point
        # (stacked matmul), so a point's sums do not depend on its batch.
        phases = np.exp(omega[:, None] * self.phase_nodes)
        sums = self.wg[:, :ng] @ phases[:, :ng, None]
        sums += (self.w_mid @ phases[:, ng:nm, None]).reshape(len(om), 2, 21) @ phases[:, nm:, None]
        a, b = self.abs_sums
        value, err = [], []
        for (kronrod, diff), w in zip(sums[:, :, 0].tolist(), om):
            value.append(kronrod.real)
            err.append(abs(diff.real) + self.noise + _EPS * (a + abs(w) * b))
        return value, err

    def tail(self, omega: np.ndarray) -> tuple[list, list]:
        """Re int_T^inf g(c+it) e^{i omega t} dt from the series at every omega > 0, and its
        first omitted term.

        Rotating the ray t -> i u turns the oscillatory moment of each term,
        int_0^inf (z0 + i t)^-nu e^{i omega t} dt with z0 = c + iT, into the
        Laplace integral i int_0^inf (z0 - u)^-nu e^(-omega u) du, without
        crossing the branch cut: Im(z0 + i t) >= Im z0 > 0 on the quadrant
        swept.  In l = log u the integrand u (z0 - u)^-nu e^(-omega u) is
        analytic in a strip and decays at both ends, so the trapezoidal rule
        converges exponentially (Trefethen & Weideman, SIAM Review 2014); one
        pass of 410-460 nodes (omega in [1e-3, 60]) gives every moment to
        about 1e-14 relative.  Each point sums exactly its own slice of the
        lattice.
        """
        om = omega.tolist()
        j0s, j1s = zip(*[_tail_lattice(w, complex(self.c, self.T)) for w in om])
        lo, hi = min(j0s), max(j1s)
        k0, u, rows = self._tail_rows(lo, hi)
        u = u[lo - k0 : hi - k0]
        weights = u * np.exp(omega[:, None] * -u)
        scale = 1j * _TAIL_STEP
        value, err = [], []
        for w, r, j0, j1 in zip(om, weights, j0s, j1s):
            kept, omitted = (rows[:, j0 - k0 : j1 - k0] @ r[j0 - lo : j1 - lo]).tolist()
            value.append((cmath.exp(1j * w * self.T) * (scale * kept)).real)
            err.append(abs(scale * omitted))
        return value, err

    def _tail_rows(self, j0: int, j1: int) -> tuple:
        """(first index, u, contracted rows) held for the line, extended to cover j0 <= j < j1;
        each short end grows by at least the held length, so a curve extends it rarely,
        and only a short end is built.  A fresh line holds an empty range at j0."""
        z0 = complex(self.c, self.T)
        k0, u, rows = self.rows or (j0, np.empty(0), np.empty((2, 0), dtype=complex))
        k1, held = k0 + len(u), len(u)
        if j0 < k0 or j1 > k1:
            us, blocks = [u], [rows]
            if j0 < k0:
                lo = min(j0, k0 - held)
                lo_u, powers = _ray_powers(z0, self.inv.mu, lo, k0)
                us.insert(0, lo_u)
                blocks.insert(0, self.tail_coef @ powers)
                k0 = lo
            if j1 > k1:
                hi_u, powers = _ray_powers(z0, self.inv.mu, k1, max(j1, k1 + held))
                us.append(hi_u)
                blocks.append(self.tail_coef @ powers)
            u, rows = np.concatenate(us), np.concatenate(blocks, axis=1)
            self.rows = (k0, u, rows)
        return k0, u, rows


class _EndpointSeries:
    """The remainder near the support endpoint from the endpoint series of the density.

    At x = rho e^-omega the density is A* sum_(k>=0) e_k omega^(mu+k-1) /
    Gamma(mu+k) (Braaksma, Compositio Math. 1964; Norlund, Acta Math. 1955
    for unit scales), with the e_k of the Stirling series of g.  Its k = 0
    term is the leading part P = A* omega^(mu-1) / Gamma(mu), so the
    remainder is sum_(k=1..K-1) t_k, t_k = P d_k omega^k with d_k = e_k /
    (mu)_k, from the K + 1 = 21 coefficients of the tail, and t_K and
    t_(K+1) are its truncation error: with integer scales the terms can
    alternate between large and small, so one omitted term can be small by
    accident.  The estimate adds the rounding of the terms and of their sum,
    of the coefficients, of A*/Gamma(mu), of mu (amplified by |log omega| +
    |psi(mu+k)|) and of omega (amplified by (mu+k-1)/omega), and at least the
    least normal double.  Cancellation, sum |t_k| >> |sum t_k|, shows in the
    rounding terms.  P and the rounding of omega come from _density_at.

    A point with 0 < omega < switch takes the series when its estimate is
    below the least estimate the contour can return for it,
    _CONTOUR_ROUNDING (pre + |remainder|) with pre = e^(c omega) / pi on
    the density's contour.  The rounding of omega is left out of that
    comparison, as the rounding of log rho is left out of that least
    estimate.  The switch is where either omitted term
    reaches _CONTOUR_ROUNDING of the largest kept one, and at most
    pi min(scales), half the radius of the series.  So the path of a point
    depends on the spec and omega alone.

    The set-up reads the evaluator's one Stirling table (the m d_m, their
    magnitudes and the e_k, from one ratio._stirling_table): the d_k and the
    switch at once, and at the first point below the switch the error weights
    of the kept terms, held with the d_k in one matrix, so that a batch takes
    one product and one sum for its values and their estimates.
    """

    __slots__ = ("c", "omitted", "switch", "inputs", "terms")

    def __init__(self, ev: DensityEvaluator):
        md, magnitudes, e = ev._stirling
        mu = ev.inv.mu
        self.c = ev.c
        # (mu)_k and d_k = e_k / (mu)_k, k = 1..K+1, one product and one quotient a term.
        rising, coef = [], []
        step = mu
        for k, e_k in enumerate(e[1:]):
            if k:
                step *= mu + k
            rising.append(step)
            coef.append(e_k / step)
        kept = [abs(d) for d in coef[:-2]]
        self.omitted = coef[-2:]
        self.switch = 0.0
        if 0.0 < ev.lead_scale < math.inf and all(map(math.isfinite, coef)):
            reach = math.inf
            live = [j for j, t in enumerate(self.omitted) if t]
            if live and max(kept) > 0.0:
                # Per kept term, the omega where either omitted term first reaches
                # _CONTOUR_ROUNDING of it; an omitted term that is 0 sets no bound,
                # and a kept term that is 0 gives 0.
                lo, hi = live[0], live[-1] + 1
                scale = np.array([[_CONTOUR_ROUNDING / abs(t)] for t in self.omitted[lo:hi]])
                reach = float(((scale * kept) ** _SWITCH_ROOTS[lo:hi]).min(axis=0).max())
            self.switch = min(ev.half_radius, reach)
        # What the error weights need, held until the first point below the switch:
        # copies of the evaluator's lists and scalars, not the evaluator (no
        # reference cycle).
        self.inputs = (md, magnitudes, e, rising, coef, kept, mu, ev.spec.p + ev.spec.q, ev.psi_mu, ev.mu_err,
                       ev.lead_err)
        self.terms = None

    def _terms(self) -> np.ndarray:
        """The d_k over their error per unit |P omega^k|, k = 1..K-1: fixed, per unit error
        of omega over omega, per unit |log omega|.

        The fixed part is the coefficient's rounding (with the k products of
        (mu)_k), the term's (k products for omega^k, those by P and d_k, the
        rounding of P) and mu's through psi(mu+k) = psi(mu) + sum_(j<k) 1/(mu+j).

        m d_m sums m + 2 monomials per factor over p + q factors, so it is off by
        at most (m + p + q + 6) eps times the same sums over the magnitudes of
        their terms.  The e_k are the coefficients of exp(sum_m d_m z^m), so that
        error moves e_k by sum_m |error of m d_m| |e_(k-m)| / m to first order;
        each step's products and sum add eps sum_m |m d_m e_(k-m)|.  On 2,400
        seeded specs (scales 0.05-20, shifts up to 60) every e_k, k <= 21, lay
        within 0.16 of this bound of a 50-digit recursion.
        """
        md, magnitudes, e, rising, coef, kept, mu, factors, psi_mu, mu_err, lead_err = self.inputs
        factors += 6.0
        per_md = [_EPS * ((m + factors) * size / m + abs(d))
                  for m, size, d in zip(range(1, len(md) + 1), magnitudes, md)]
        convolved = np.convolve(per_md, np.abs(e))[: _TAIL_TERMS - 1].tolist()
        terms = ([], [], [], [])
        psi = 0.0
        for k, (error, e_k, step, d, size) in enumerate(zip(convolved, e[1:], rising, coef, kept), 1):
            psi += 1.0 / (mu + (k - 1))
            fixed = (error + k * _EPS * abs(e_k)) / step
            terms[0].append(d)
            terms[1].append(fixed + size * ((k + 3.0) * _EPS + lead_err + mu_err * abs(psi + psi_mu)))
            terms[2].append(size * (mu - 1.0 + k))
            terms[3].append(size * mu_err)
        return np.array(terms)

    def __call__(self, omega: np.ndarray, lead: list, d_omega: list) -> list[tuple[float, float, bool]]:
        """(remainder, error, served) at every 0 < omega < switch, from each point's P and
        rounding of omega; elementwise, so a point's result does not depend on its batch."""
        if self.terms is None:
            self.terms = self._terms()
        om = omega.tolist()
        powers = np.empty((len(om), _TAIL_TERMS + 2))
        powers[:, 0] = lead
        powers[:, 1:] = omega[:, None]
        # P omega^k for k = 0..K+1, the running product kept as large as it gets.
        # Every P omega^k is >= 0, so one product gives a point's sum and the sums
        # of its error weights.
        np.cumprod(powers, axis=1, out=powers)
        sums = (powers[:, None, 1:-2] * self.terms).sum(axis=2).tolist()
        c20, c21 = self.omitted
        out = []
        for w, d, (v, fixed, per_omega, per_log), (p20, p21) in zip(om, d_omega, sums, powers[:, -2:].tolist()):
            err = abs(p20 * c20) + abs(p21 * c21) + _EPS * abs(v) + fixed + abs(math.log(w)) * per_log + _TINY
            pre = math.exp(_contour_level(self.c, w) * w) / math.pi
            served = err <= _CONTOUR_ROUNDING * (pre + abs(v))
            out.append((v, err + d / w * per_omega, served))
        return out


class _ResidueSeries:
    """The density far below the support endpoint as the sum of the residues of W(s) x^-s
    at its left poles (Braaksma, Compositio Math. 1964; Mathai, Saxena & Haubold, The
    H-Function, 2010, ch. 1).

    Numerator factor i has poles s_k = -(a_i + k)/A_i; where they are simple the
    residue is c_k x^(-s_k), c_k = (-1)^k / (k! A_i) prod_(l != i) Gamma(A_l s_k +
    a_l) / prod_j Gamma(B_j s_k + b_j).  With equal scale sums the sum converges
    on (0, rho), fastest where omega is large: row i falls like e^(-k omega /
    A_i).  The table holds, per row i and pole k, what depends on the spec
    alone: s_k, log|c_k| - s_k log rho, the sign of c_k, the rounding of that
    log, the envelope and ratio bounds below, the distance from s_k to the
    nearest pole of another numerator factor, and whether the poles up to k are
    simple.  It grows on demand, and every entry depends on the spec and k
    alone.  A batch is one (points x rows x poles) exponential, e^(log|c_k| -
    s_k log rho + s_k omega); each point sums its own terms with math.fsum, so
    its result does not depend on its batch.

    Each log-gamma is one math.lgamma at a positive argument: at z <= 0 the
    reflection |Gamma(z)| = pi / (|sin pi z| Gamma(1 - z)), with sin taken at the
    exact distance d = |z - rint(z)|; a denominator factor at a nonpositive
    integer makes the term exactly 0.  With F = p + q - 1 other factors, the
    rounding of log|c_k| adds, per factor, (F + 8) eps (|lgamma| + log pi - log
    sin) and the rounding of z, eps (5 |z| + 3 shift + 1), times |psi(z)| <=
    log(2 + |z|) + 1 + 1/d, and (F + 8) eps (2 (F + |s_k log rho|) + |log A_i +
    log k! + s_k log rho|) for the rest and the sum; a point adds 3 eps
    |log|c_k|| for the exponent's sum, |s_k| times the rounding of omega plus 6
    eps omega, and eps for the exponential.  Two close summed poles give large
    residues of opposite sign; the 1/d carries their cancellation.

    Truncation: from k = start on, where every other argument z is <= 0, the
    k-th term is at most its envelope, which takes |sin pi z| >= 2 A_l _POLE_GAP
    in the numerator factors and <= 1 in the denominator ones; and past k the
    envelope's ratio between neighbours is at most e^(Q_k - omega/A_i).  With c =
    scale/A_i, lgamma(u + c) - lgamma(u) lies between c psi(u) and c psi(u + c),
    and log(u + 1/2) - 1/u < psi(u) < log(u + e^-gamma) - 1/u, so with equal
    scale sums the log k terms and log rho cancel, leaving Q_k = sum_num c
    (max(-alpha, 0)/(k + alpha) + 1/(1 - z)) + sum_den c max(beta, 0)/k, alpha =
    a_i + (3/2 - a_l)/c, beta = a_i + 1 + (1 - b_j + e^-gamma)/c, each part
    falling in k.  A point sums, per row, the terms before the first K where
    the ratio bound is at most 1/2 and the envelope at most e^-_TRUNCATION_LOG
    of the largest term of the rows' prefixes up to `start`; twice that
    envelope bounds the omitted terms.

    A point beyond _SHIFT_OMEGA is served when every row finds its K within
    _RESIDUE_TERMS, its poles up to K are simple, the pole K lies at least
    _POLE_GAP from the poles of the other numerator factors, and its estimate
    meets the tolerance in density units, like a contour point; otherwise it
    takes the contour.  The estimate adds the truncation, the terms' rounding,
    the rounding of the split into P and remainder, and at least the least
    normal double.  The gap is tested at the first omitted pole and taken to
    hold beyond; for p = 1 there is no other numerator factor and the bound
    holds unconditionally.  Specs whose rows share poles (every shift 0 with
    p > 1, or shifts a whole multiple of the scale apart) are never served.  A
    spec whose `start` passes _RESIDUE_TERMS, or with more than
    _RESIDUE_FACTORS factor entries per pole, is never served either, nor a
    point whose rough count start + A_i _TRUNCATION_LOG / omega passes
    _RESIDUE_TERMS.
    """

    __slots__ = ("A", "a", "log_A", "neg_A", "log_rho", "start", "start_column", "usable", "scales", "shifts",
                 "denominator", "weights", "numerator_c", "alpha", "tail_c", "dz0", "gap_weights", "gap_offsets",
                 "beta_sum", "envelope_const", "reach", "table")

    def __init__(self, spec: RatioSpec, log_rho: float):
        p, scales, shifts = spec.p, spec.A + spec.B, spec.a + spec.b
        self.usable = p * (p + spec.q - 1) <= _RESIDUE_FACTORS
        if not self.usable:
            return
        others = [[f for f in range(p + spec.q) if f != i] for i in range(p)]
        start = [max(1, math.ceil(max(shifts[f] * A / scales[f] for f in row) - a))
                 for row, A, a in zip(others, spec.A, spec.a)]
        self.usable = max(start) < _RESIDUE_TERMS
        if not self.usable:
            return
        self.start, self.log_rho = start, log_rho
        # Per row: A_i, a_i, start, the ratio bound's sum over the denominator
        # factors and the envelope's constant.  Per other factor, with c =
        # scale/A_i: scale, shift, its sign in log|c_k| (+1 numerator, -1
        # denominator), the rounding weight of z, the ratio bound's parts, and the
        # weight and offset that turn its distance d into the separation d / A_l
        # of numerator poles.
        rows, factors = [], []
        for row, A, a, k in zip(others, spec.A, spec.a, start):
            beta_sum, envelope = 0.0, 0.0
            for f in row:
                scale, shift = scales[f], shifts[f]
                c = scale / A
                if f < p:
                    alpha = a + (1.5 - shift) / c
                    envelope += _LOG_PI - math.log(2.0 * _POLE_GAP * scale)
                    factors += (scale, shift, 1.0, 3.0 * shift + 1.0, c, alpha, c * max(-alpha, 0.0), 1.0 / scale, 0.0)
                else:
                    beta_sum += c * max(a + 1.0 + (1.0 - shift + _EXP_MINUS_EULER) / c, 0.0)
                    envelope -= _LOG_PI
                    factors += (scale, shift, -1.0, 3.0 * shift + 1.0, 0.0, 1.0, 0.0, 0.0, math.inf)
            rows += (A, a, math.log(A), -A, k, beta_sum, envelope)
        self.A, self.a, self.log_A, self.neg_A, self.start_column, self.beta_sum, self.envelope_const = (
            np.array(rows).reshape(p, 7, 1).transpose(1, 0, 2))
        factors = np.array(factors).reshape(p, len(others[0]), 9, 1)
        (self.scales, self.shifts, self.weights, self.dz0, self.numerator_c, self.alpha, self.tail_c,
         self.gap_weights, self.gap_offsets) = factors.transpose(2, 0, 1, 3)
        self.denominator = self.weights < 0.0
        self.reach = [A * _TRUNCATION_LOG for A in spec.A]
        self.table = None

    def _extend(self, n: int):
        """Grow the table to the poles k < n of every row."""
        k0 = 0 if self.table is None else self.table[0].shape[1]
        k = np.arange(k0, n, dtype=float)
        s = (self.a + k) / self.neg_A
        z = self.scales * s[:, None, :]
        z += self.shifts
        left = z <= 0.0
        abs_z = np.abs(z)
        dist = np.where(left, np.abs(z - np.rint(z)), z)
        arg = np.where(left, 1.0 - z, z)
        lg = np.fromiter(map(math.lgamma, arg.ravel().tolist()), float, z.size).reshape(z.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log|Gamma(z)| = reflection - lgamma at z <= 0, with sin at the exact distance.
            reflection = np.where(left, _LOG_PI - np.log(np.sin(np.pi * dist)), 0.0)
            log_gamma = np.where(left, reflection - lg, lg)
            slr = s * self.log_rho
            base = self.log_A + _LOG_FACTORIAL[k0:n]
            base += slr
            log_term = (self.weights * log_gamma).sum(axis=1)
            log_term -= base
            # sign Gamma(z) = sign sin(pi z) at z <= 0, and k! brings (-1)^k.  A
            # denominator factor at a nonpositive integer makes the term exactly 0.
            sign = np.sign(np.where(left, np.sin(np.pi * z), 1.0)).prod(axis=1) * _PARITY[k0:n]
            zero = ((dist == 0.0) & self.denominator).any(axis=1)
            per_factor = (5.0 * abs_z + self.dz0) * (np.log(2.0 + abs_z) + 1.0 + 1.0 / dist)
            per_factor += (z.shape[1] + 8.0) * (np.abs(lg) + reflection)
            rounding = (z.shape[1] + 8.0) * (2.0 * (z.shape[1] + np.abs(slr)) + np.abs(base))
            rounding += per_factor.sum(axis=1)
            rounding *= _EPS
            sign[zero], rounding[zero], log_term[zero] = 0.0, 0.0, -np.inf
            envelope = self.envelope_const - (self.weights * lg).sum(axis=1) - base + rounding
            envelope[~left.all(axis=1)] = np.inf
            # The exponent's sum: 3 eps |log|c_k| + s_k omega| <= 3 eps (|log|c_k|| + |s_k| omega).
            rounding += np.where(zero, 0.0, 3.0 * _EPS * np.abs(log_term))
            # The least omega at which the ratio bound is at most 1/2.
            ratio = self.tail_c / (k + self.alpha)
            ratio += self.numerator_c / arg
            omega_min = (ratio.sum(axis=1) + self.beta_sum / k + _LOG_2) * self.A
            gap = (dist * self.gap_weights + self.gap_offsets).min(axis=1)
        prefix = np.where(k <= self.start_column, log_term, -np.inf)
        new = [s, log_term, sign, rounding, envelope, omega_min, gap >= _POLE_GAP, np.abs(s), prefix, gap > 0.0]
        if self.table is not None:
            new = [np.concatenate([old, part], axis=1) for old, part in zip(self.table, new)]
        # The poles from the first double pole on are not simple; a served point's
        # poles up to its count are simple, and the first omitted one keeps the gap.
        new[9] = np.logical_and.accumulate(new[9], axis=1)
        new[6] = new[6] & new[9]
        self.table = new

    def __call__(self, omega: np.ndarray, lead: list, d_omega: list, tol: float) -> list[tuple[float, float, bool]]:
        """(remainder, error, served) at every omega > _SHIFT_OMEGA, from each point's P and
        rounding of omega; elementwise, so a point's result does not depend on its batch."""
        out = [(0.0, math.inf, False)] * len(omega)
        if not self.usable:
            return out
        om = omega.tolist()
        reach = [max(k + A / w for k, A in zip(self.start, self.reach)) for w in om]
        idx = [j for j, n in enumerate(reach) if n <= _RESIDUE_TERMS]
        if not idx:
            return out
        size = min(int(max(reach[j] for j in idx)) + _RESIDUE_BLOCK, _RESIDUE_TERMS + 1)
        w = np.array([om[j] for j in idx])[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                if self.table is None or self.table[0].shape[1] < size:
                    self._extend(size)
                s, log_term, sign, rounding, envelope, omega_min, pole_ok, abs_s, prefix, _ = self.table
                s_w = s * w
                target = (prefix + s_w).max(axis=(1, 2))
                target -= _TRUNCATION_LOG
                bound = envelope + s_w
                ok = (bound <= target[:, None, None]) & (omega_min <= w)
                found = ok.any(axis=2).all(axis=1)
                if found.all() or size > _RESIDUE_TERMS:
                    break
                size = min(2 * size, _RESIDUE_TERMS + 1)
            count = ok.argmax(axis=2)
            rows = np.arange(len(self.start))
            served = (found & pole_ok[rows, count].all(axis=1)).tolist()
            tail = np.exp(bound[np.arange(len(idx))[:, None], rows, count]).sum(axis=1).tolist()
            t = sign * np.exp(log_term + s_w)
            # Rounding of the exponent: the table's, and s_k times that of omega and
            # of s_k omega and of the sum.
            spread = np.array([d_omega[j] + 6.0 * _EPS * om[j] for j in idx])[:, None, None]
            err = np.expm1(abs_s * spread + rounding)
            err += _EPS
            err *= np.abs(t)
        for j, ok_j, ks, t_j, e_j, tail_j in zip(idx, served, count.tolist(), t.tolist(), err.tolist(), tail):
            if not ok_j:
                continue
            v = math.fsum(v for row, k in zip(t_j, ks) for v in row[:k])
            e = math.fsum(v for row, k in zip(e_j, ks) for v in row[:k])
            p = lead[j]
            r = v - p
            e += 2.0 * tail_j + _EPS * (1.5 * abs(v) + abs(r)) + _TINY
            out[j] = (r, e, math.isfinite(v) and math.isfinite(e) and e <= tol * (abs(p) + abs(r)))
        return out


def _remainder_density(ev: DensityEvaluator, x: np.ndarray, lead_errors: bool = True) -> tuple:
    """_density_at at every finite x > 0 (no exclusion zone): the x entry of the engine,
    which bench/tracer.py wraps by name to count density points."""
    for v in x.tolist():
        if not 0.0 < v < math.inf:
            raise DomainError(f"density: x={v} must be a positive real")
    # x >= rho lies past the support, also where rounding leaves log(rho/x) > 0.
    return _density_at(ev, ev.c, np.where(x < ev.inv.rho, ev.inv.log_rho - np.log(x), 0.0), lead_errors)


def _density_at(ev: DensityEvaluator, c: float, omega: np.ndarray,
                lead_errors: bool = False) -> tuple[list, list, list, list]:
    """(leading part P, its error, remainder, its error) of the density at x = rho e^-omega,
    as four lists of per-point floats; all four are 0.0 past the support, omega <= 0.

    Each point computes P = A* omega^(mu-1) / Gamma(mu) and the rounding of
    omega (of log rho, from the terms summed into it, of log x and of the
    difference) once.  The error of P, computed only with lead_errors (a
    record needs it, a value does not), adds the rounding of A*/Gamma(mu), of
    the power, of mu (amplified by |log omega - psi(mu)|) and of omega
    (amplified by |mu - 1| / omega).  The path of a point is chosen from the
    spec and omega before any contour runs: beyond _SHIFT_OMEGA the residue
    series, within the endpoint series' switch (also where the residue
    series refuses) the series, and a point neither serves takes the contour
    (_remainder_on_line).  Series and residue points build no line, and the
    endpoint series is set up only for a point that asks it.
    """
    om = omega.tolist()
    n = len(om)
    lead, lead_err, rem, rem_err, d_omega = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    # Per-point loop: the evaluator's scalars as locals.
    scale, mu1, log_rho, log_rho_err = ev.lead_scale, ev.inv.mu - 1.0, ev.inv.log_rho, ev.log_rho_err
    rel, mu_err, psi_mu, half_radius = 1e-14 + ev.lead_err, ev.mu_err, ev.psi_mu, ev.half_radius
    near, far, contour = [], [], []
    for k, w in enumerate(om):
        if w <= 0.0:
            continue
        try:
            p = scale * w**mu1
        except OverflowError:
            raise UnsupportedParameterError(f"leading part overflows at omega={w} (mu={ev.inv.mu})") from None
        d = log_rho_err + _EPS * (abs(log_rho - w) + w)
        lead[k], d_omega[k] = p, d
        if lead_errors:
            lead_err[k] = p * (rel + mu_err * abs(math.log(w) - psi_mu) + abs(mu1) * d / w)
        if w > _SHIFT_OMEGA:
            far.append(k)
        # Beyond half the radius of the series no point needs its switch.
        elif w < half_radius and w < ev.series.switch:
            near.append(k)
        else:
            contour.append(k)
    if far:
        served = ev.residue(omega[far], [lead[k] for k in far], [d_omega[k] for k in far], ev.cfg.quad_rel_tol)
        for k, (value, err, ok) in zip(far, served):
            if ok:
                rem[k], rem_err[k] = value, err
            elif om[k] < half_radius and om[k] < ev.series.switch:
                near.append(k)
            else:
                contour.append(k)
    if near:
        served = ev.series(omega[near], [lead[k] for k in near], [d_omega[k] for k in near])
        for k, (value, err, ok) in zip(near, served):
            if ok:
                rem[k], rem_err[k] = value, err
            else:
                contour.append(k)
    # The prefactor e^(c omega) amplifies quadrature roundoff; far below the
    # support endpoint the contour is moved toward the imaginary axis (all
    # integrand poles sit at abscissas <= 0) to keep that amplification
    # bounded.  Quantized to a few levels so few lines are built.
    by_line: dict[float, list] = {}
    for k in sorted(contour):
        by_line.setdefault(_contour_level(c, om[k]), []).append(k)
    for level, idx in by_line.items():
        for k, value, err in zip(idx, *_remainder_on_line(ev, level, omega[idx], [lead[k] for k in idx])):
            rem[k], rem_err[k] = value, err
    return lead, lead_err, rem, rem_err


def _contour_level(c: float, w: float) -> float:
    """The abscissa of the point omega = w on a contour at c: c itself, or far below the
    support endpoint the first of _SHIFT_LEVELS at most max(0.05, _SHIFT_OMEGA / w)."""
    if w <= _SHIFT_OMEGA:
        return c
    target = max(_SHIFT_LEVELS[-1], _SHIFT_OMEGA / w)
    return min(c, next((lv for lv in _SHIFT_LEVELS if lv <= target), _SHIFT_LEVELS[-1]))


def _remainder_on_line(ev: DensityEvaluator, c: float, omega: np.ndarray, lead: list) -> tuple[list, list]:
    """The remainder and its error at every omega > 0 on the abscissa c: the fixed-node head
    plus the series tail of Re int_0^inf g(c+it) e^{i omega t} dt, times e^(c omega) / pi.

    The error is judged in density units, against the size |P| + |remainder|
    of the two parts summed into the density; a point not so trusted raises
    QuadratureAccuracyError with its value as the best estimate.
    """
    line = ev._lines.get(c)
    if line is None:
        line = ev._lines[c] = _Line(ev, c, float(omega.max()))
    head, head_err = line.head(omega)
    tail, tail_err = line.tail(omega)
    tol = ev.cfg.quad_rel_tol
    floor = 1e3 * max(1e-14, tol * 1e-5)
    out, est = [], []
    for w, p, h, he, t, te in zip(omega.tolist(), lead, head, head_err, tail, tail_err):
        value, err = h + t, he + te
        pre = math.exp(c * w) / math.pi
        # Roundoff of the prefactored assembly: the contour integral is
        # computed to near machine precision on its own scale, then
        # amplified by e^(c w).
        bound = pre * err + _CONTOUR_ROUNDING * pre * (1.0 + abs(value))
        if not err <= max(floor, (p / pre + abs(value)) * tol):
            raise QuadratureAccuracyError(
                f"contour quadrature did not converge (omega={w}, error {bound})",
                best_estimate=pre * value,
                error_estimate=bound,
            )
        out.append(pre * value)
        est.append(bound)
    return out, est


class DensityEvaluator:
    """The density of one spec: its endpoint and residue series, its tail series and one
    _Line per abscissa.

    Derives and validates the spec and sets the abscissa c = max(gamma_pole,
    0) + 1 (right of every integrand pole and clear of the branch cut of
    s^-mu); the Stirling coefficients of g and the endpoint-series switch are
    computed at the first point that needs them, the residue table at the
    first point beyond _SHIFT_OMEGA, and the head length T when a point first
    takes the contour.  Requires mu > 0, equal scale sums and a finite rho and
    A*, and warns once when mu is small enough to slow the contour decay.
    Every point evaluated through one evaluator reuses the lines of the points
    before it, so a whole curve or an outer quadrature over x should go
    through a single evaluator, and through as few calls as possible:
    ``values`` takes an array.
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
        if math.isinf(inv.rho) or math.isinf(inv.stirling_const):
            raise UnsupportedParameterError(
                f"density evaluation needs a finite rho and A*, got log rho={inv.log_rho}, "
                f"log A*={inv.log_stirling_const}"
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
        try:
            gamma_mu = math.gamma(inv.mu)
        except OverflowError:
            gamma_mu = math.inf
        self.lead_scale = inv.stirling_const / gamma_mu
        self.psi_mu = sc._digamma(inv.mu)
        # Rounding of log rho (each A log A to 1.5 eps, then the sums) and of
        # mu (two exact sums and two additions), absolute, and of
        # A*/Gamma(mu), relative: A* = e^(log A*) with log A* summed like log
        # rho, Gamma(mu) within 3.8 eps of a 40-digit gamma on [0.2, 170].
        log_rho_size, log_a_star_size, shift_sum = 0.0, abs(0.5 * (spec.p - spec.q)) * _LOG_2PI, 0.0
        for scale, shift in zip(spec.A + spec.B, spec.a + spec.b):
            log_scale = math.log(scale)
            log_rho_size += abs(scale * log_scale)
            log_a_star_size += abs((shift - 0.5) * log_scale)
            shift_sum += shift
        self.log_rho_err = 2.0 * _EPS * log_rho_size
        self.mu_err = _EPS * (shift_sum + inv.mu)
        self.lead_err = _EPS * (2.0 * log_a_star_size + 6.0)
        self.half_radius = math.pi * min(spec.A + spec.B)
        self._lines: dict[float, _Line] = {}

    @functools.cached_property
    def _stirling(self) -> tuple[list, list, list]:
        """m d_m and their magnitudes, m = 1..K+1, and e_0..e_(K+1) of the Stirling series
        of g over A*, as lists: one ratio._stirling_table, built at the first point within
        half the endpoint series' radius or on the contour."""
        md, magnitudes = _stirling_table(self.spec, _TAIL_TERMS + 1)
        md = md[1:].tolist()
        return md, magnitudes[1:].tolist(), _stirling_coefficients(md)

    @functools.cached_property
    def coef(self) -> np.ndarray:
        """A* e_k, k = 1..K+1: the tail's Stirling terms; UnsupportedParameterError where
        they leave the double range."""
        e = self._stirling[2][1:]
        largest = max(map(abs, e))
        if not math.isfinite(largest * self.inv.stirling_const):
            raise UnsupportedParameterError(
                f"the tail's Stirling terms A* e_k overflow (log A*={self.inv.log_stirling_const}, "
                f"largest |e_k|={largest})"
            )
        return self.inv.stirling_const * np.array(e)

    @functools.cached_property
    def T(self) -> float:
        """Head length of every line; a spec whose points all take the endpoint series needs none."""
        return _tail_start(self.coef)

    @functools.cached_property
    def series(self) -> _EndpointSeries:
        """The endpoint series, set up at the first point within half its radius."""
        return _EndpointSeries(self)

    @functools.cached_property
    def residue(self) -> _ResidueSeries:
        """The left-pole residue series, set up at the first point beyond _SHIFT_OMEGA."""
        return _ResidueSeries(self.spec, self.inv.log_rho)

    def values(self, xs) -> np.ndarray:
        """Density at every x > 0 of xs (no support-endpoint exclusion), in one batch."""
        lead, _, rem, _ = _remainder_density(self, np.asarray(xs, dtype=float).ravel(), lead_errors=False)
        return np.array(lead) + np.array(rem)

    def value(self, x: float) -> float:
        """Density at any x > 0 (no support-endpoint exclusion)."""
        return float(self.values([x])[0])

    def evaluate(self, x: float) -> HEvaluation:
        """Density at x split into its parts, with the combined error estimate."""
        return self._records(np.array([float(x)]))[0]

    def _records(self, xs: np.ndarray) -> list[HEvaluation]:
        return [
            HEvaluation(value=lv + rv, leading_part=lv, remainder_part=rv, error_estimate=re + le)
            for lv, le, rv, re in zip(*_remainder_density(self, xs))
        ]

    def _at_omega(self, c: float, omega: np.ndarray) -> np.ndarray:
        """Density H(rho e^-omega) at every omega > 0, the remainder taken on the abscissa c."""
        lead, _, rem, _ = _density_at(self, c, omega)
        return np.array(lead) + np.array(rem)

    def edge_integral(self, f, w_hi: float) -> float:
        """int_0^w_hi H(rho e^-w) f(w) dw for f bounded on [0, w_hi], f taking an array.

        H(rho e^-w) / w^(mu-1) = lead_scale + remainder / w^(mu-1) is analytic
        at w = 0 (the endpoint series), so near 0 one Gauss-Jacobi rule of
        weight w^(mu-1) integrates it, on at most pi min(scales), half the
        radius of that series; |Q20 - Q10| is its error, and the interval
        halves until that is below the outer tolerance, max(OUTER_EPSABS,
        OUTER_EPSREL |Q20|).  The adaptive G10/K21 rule takes the rest.
        """
        mu = self.inv.mu
        (y10, w10), (y20, w20) = (gauss_jacobi(mu - 1.0, n) for n in (10, 20))
        w_gj = min(w_hi, self.half_radius)
        for _ in range(_EDGE_HALVINGS):
            # Both rules' nodes in one batch.
            w = w_gj * np.concatenate([y10, y20])
            vals = (self.lead_scale + np.array(_density_at(self, self.c, w)[2]) / w ** (mu - 1.0)) * f(w)
            q10, q20 = w_gj**mu * (w10 @ vals[:10]), w_gj**mu * (w20 @ vals[10:])
            if abs(q20 - q10) <= max(OUTER_EPSABS, OUTER_EPSREL * abs(q20)):
                break
            w_gj *= 0.5
        if w_gj < w_hi:
            q20 += quad(lambda w: self._at_omega(self.c, w) * f(w), w_gj, w_hi, epsabs=OUTER_EPSABS,
                        epsrel=OUTER_EPSREL, limit=100)[0]
        return float(q20)

    def mellin_transform(self, s: float) -> float:
        """int_0^rho H(x) x^(s-1) dx via the substitution x = rho e^-tau.

        Over (0, tau_c) the edge rule (edge_integral) takes the tau^(mu-1)
        endpoint singularity in one batch; the density beyond is integrated
        by the adaptive rule at omega = tau, so no x underflows.  For c > s
        the noise of the remainder times e^(-s tau) is bounded over the whole
        range by its largest value at the probes: _SHIFT_OMEGA, where the
        unshifted contour's noise e^((c-s) tau) peaks, the top of each shifted
        level and tau_max; beyond _SHIFT_OMEGA the residue series serves most
        points, with an estimate that falls with the density.  The part past
        tau_max is taken as |H(tau_max)| e^(-s tau_max) / (s - gamma_pole), the
        integral of the slowest residue term.  A bound above 1e-6 of the
        result raises QuadratureAccuracyError, as does a weight e^(-s tau)
        that overflows before tau_max.
        """
        inv, cfg = self.inv, self.cfg
        if not math.isfinite(s):
            raise DomainError(f"Mellin transform requires a finite s, got s={s}")
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

        near = self.edge_integral(lambda tau: np.exp(-s * tau), tau_c)
        if -s * tau_max > _LOG_FLOAT_MAX:
            raise QuadratureAccuracyError(
                f"Mellin transform at s={s}: the weight e^(-s tau) overflows before tau_max={tau_max}",
                best_estimate=inv.rho**s * near,
                error_estimate=math.inf,
            )
        # One batch at the top of each contour level the bulk crosses
        # (_density_at) and at tau_max sizes every line once for the
        # quadrature's later rounds, whose nodes creep toward those tops.
        probes = [_SHIFT_OMEGA / lv for lv in _SHIFT_LEVELS[:-1] if tau_c < _SHIFT_OMEGA / lv < tau_max] + [tau_max]
        lead, _, rem, est = _density_at(self, c, np.array(probes))
        noise = 0.0
        if c > s:
            noise = (tau_max - tau_c) * max(e * math.exp(-s * w) for w, e in zip(probes, est))
        noise += abs(lead[-1] + rem[-1]) * math.exp(-s * tau_max) / (s - inv.gamma_pole)
        # Resolving the bulk below its noise would only chase the noise.
        bulk = quad(
            lambda tau: self._at_omega(c, tau) * np.exp(-s * tau),
            tau_c, tau_max, epsabs=max(1e-13, noise), epsrel=max(1e-10, 0.01 * cfg.quad_rel_tol), limit=250,
        )
        integral = near + bulk[0]
        if not noise <= 1e-6 * abs(integral):
            raise QuadratureAccuracyError(
                f"Mellin transform at s={s}: remainder noise up to {noise} on the abscissa c={c} > s",
                best_estimate=inv.rho**s * integral,
                error_estimate=inv.rho**s * noise,
            )
        return inv.rho**s * integral


def density(spec: RatioSpec, xs, cfg: ContourConfig | None = None) -> list[HEvaluation]:
    """Representing density at every x of xs: the closed-form leading part plus the
    remainder, from the endpoint series near rho, the left-pole residue series far below
    it and the subtracted contour integral elsewhere.

    Requires mu > 0 and equal scale sums.  Every x must be a positive real,
    and points within a relative distance of 1e-6 from the support endpoint
    rho are refused: the leading part diverges there for mu < 1 and the two
    parts cancel to noise.  For x > rho the density is exactly zero, and
    every field of the returned record is 0.0.  A density below the
    least normal double (2.2e-308) may come back as 0.0 or a subnormal; its
    estimate is then at least that double.  All points share one evaluator
    and go through the engine in one batch, so a curve costs far less than
    as many fox_h calls.
    """
    xs = [float(x) for x in xs]
    ev = DensityEvaluator(spec, cfg)
    rho = ev.inv.rho
    for x in xs:
        if abs(x - rho) <= RHO_EXCLUSION * rho:
            raise SingularPointError(
                f"density: x={x} within {RHO_EXCLUSION} relative of the support endpoint rho={rho}"
            )
    return ev._records(np.array(xs)) if xs else []


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
    """prod Gamma(A_k s + a_k) / prod Gamma(B_j s + b_j) for finite real s."""
    if not math.isfinite(s):
        raise DomainError(f"gamma ratio: s={s} must be finite")
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
