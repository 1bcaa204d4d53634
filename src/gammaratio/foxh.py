"""Mellin-Barnes evaluation of the representing density.

For a spec with equal scale sums and positive decay exponent mu, the
density H of the ratio of gamma products W(s) = prod Gamma(A_k s + a_k) /
prod Gamma(B_j s + b_j) is supported on (0, rho), and at x = rho e^-omega it
is the Bromwich integral

    H(rho e^-omega) = (1/2 pi i) int F(s) e^(omega s) ds,        F(s) = W(s) rho^-s,

on any contour that wraps the poles of W.  Since F(s) ~ A* s^-mu, its
closed-form leading part is P = A* omega^(mu-1) / Gamma(mu).  The density
vanishes identically for x >= rho, where every part and its error are
returned as exactly 0, with no contour.

Each point walks one ordered list of paths, chosen from the spec and omega =
log(rho/x) before any sum runs, and every path serves it on one rule: its
estimate at most quad_rel_tol (|P| + |R|), R the remainder, or below the
normal range.  The paths:

- the endpoint series H = A* sum_k e_k omega^(mu+k-1) / Gamma(mu+k), whose
  k = 0 term is P, summed to 19 terms with the 20th and 21st as its
  truncation error (_EndpointSeries).  A point asks it first below a
  per-spec switch (and at most _SHIFT_OMEGA), where the omitted terms fall
  below _SERIES_TRUNCATION of the kept ones, and last, after every rung,
  above the switch within half the series' radius;
- the Bromwich integral on a ladder of hyperbolas (_Hyperbola, _RUNGS).  Rung
  0 is the Weideman-Trefethen contour of the point's omega bin with N = 24
  nodes; a point whose a-priori bound (strip, truncation and rounding)
  misses the tolerance asks the next rung, which crosses the real axis at
  the real saddle of log F(s) + omega s where that lies further right, with
  N = 24, 48 and then 96.  The contours wrap every pole, coincident or not.

A point no path serves raises QuadratureAccuracyError with the value of the
path of least estimate.  A spec whose factors pair as Gamma(A s) / Gamma(A s
+ 1) has F(s) = A* s^-mu exactly, and its points take the leading part in
place of the ladder.

Series points evaluate no F and build no contour.  A point given as x or as
omega goes through one assembly (_density_at), which computes the rounding
of omega and the leading part once and hands them to each path.  A series
point returns P + R, R its remainder; a hyperbola point returns H itself and
reports R = H - P, so H keeps its digits where P >> H.

A point on a spec seen for the first time pays its path's set-up, whose
cost is mostly the fixed cost of numpy calls and of Python per call, not
arithmetic.  The endpoint series builds one Stirling table (one set of
Bernoulli powers gives the m d_m and their magnitudes,
ratio._stirling_table), runs the e_k recursion on Python floats, and makes
its coefficients, switch and error weights in one pass of array operations.
A hyperbola evaluates log F with one specfun.log_gamma_plane call over the p
+ q factors of its nodes (rung 0: the contour's 26 and 13 on each strip
edge).  The engine hands a path each point as one tuple (omega, P, its
error, rounding of omega), so a one-point batch builds no per-point arrays.

F does not depend on x.  A DensityEvaluator derives a spec once and keeps one
_Hyperbola per omega bin and rung, holding log F on its nodes.  The engine
takes an array of points and sums each point on its own, so a curve or one
round of an outer quadrature costs one call and a point's record does not
depend on its batch.  The outer quadratures (Mellin transform, edge
integral) use the vectorized rules of ``quadrature``: adaptive G10/K21
panels, and a Gauss-Jacobi rule for the w^(mu-1) endpoint singularity.
``fox_h`` is the one-point case.

``quad`` and ``_remainder_density`` stay names of this module, and ``sc``
keeps ``loggamma``, which foxh does not call (it calls only
``sc.log_gamma_plane``): bench/tracer.py wraps them.  The tracer also wraps
``mpmath.gammainc`` through this module, which the density never calls; so
``mpmath`` resolves here on first access (module ``__getattr__``) and is not
imported with the package, whose only run-time dependency is numpy.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun as sc
from .errors import (
    DomainError,
    QuadratureAccuracyError,
    SingularPointError,
    UnsupportedParameterError,
)
from .quadrature import OUTER_EPSABS, OUTER_EPSREL, gauss_jacobi, quad
from .ratio import RatioSpec, _gamma_product, _stirling_table, derive

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

# The endpoint series sums the Stirling coefficients e_1..e_(K-1) and takes the next
# two as its truncation error.
_SERIES_TERMS = 20
# j = 0..K and m = j + 1 of the m d_m; k = 1..K-1 of the kept terms, with k eps and (k + 3) eps.
_STEPS = np.arange(_SERIES_TERMS + 1.0)
_M = _STEPS + 1.0
_KEPT = _M[: _SERIES_TERMS - 1]
_KEPT_EPS, _KEPT_EPS3 = _KEPT * _EPS, (_KEPT + 3.0) * _EPS
# Those two over the k-th kept term grow like omega^(K-k) and omega^(K+1-k), k = 1..K-1.
_SWITCH_ROOTS = 1.0 / (_SERIES_TERMS + np.array([[0.0], [1.0]]) - _KEPT)
# The columns of a point (omega, P, ...) that make P, omega, .., omega, K + 1 times.
_POWER_COLUMNS = np.array([1] + [0] * (_SERIES_TERMS + 1))

# Beyond _SHIFT_OMEGA no point asks the endpoint series first: a far point has never
# been found below its switch, and asking would set up its Stirling table for nothing.
_SHIFT_OMEGA = 6.0

# The hyperbolic contours: N nodes on each side of the real axis, step h = 1.0818 / N,
# alpha = 1.1721 and mu_h = 4.4921 N / omega_top (Weideman & Trefethen, Math. Comp. 76,
# 2007); the strip bound takes the edges alpha + _HYP_UP (toward the poles) and alpha -
# _HYP_DOWN, the widest whose integrand falls off within the nodes.
_HYP_ALPHA = 1.1721
_HYP_UP = 0.3
_HYP_DOWN = 0.5
# The ladder, (N, crossing), tried in order by the points the rung before refuses.  Rung 0
# crosses the real axis at gamma_pole + mu_h (1 - sin alpha), the textbook abscissa; the
# later rungs at the real saddle of log F(s) + omega s where that lies further right.
_RUNGS = ((24, False), (24, True), (48, True), (96, True))
# Newton or bisection steps of the saddle search, whose root is bracketed.
_SADDLE_STEPS = 100
# Operands of a contour's arithmetic as 0-d arrays (see specfun).
_MINUS_ONE, _THREE = np.array(-1.0 + 0j), np.array(3.0)


# Halvings of the Gauss-Jacobi interval of the edge integral before the
# G10/K21 rule takes over whatever is left.
_EDGE_HALVINGS = 8

# The endpoint series' truncation target: its switch is where either omitted term reaches
# this fraction of the largest kept one.
_SERIES_TRUNCATION = 1e-14

# Least normal double: a density below it comes back as 0.0 or a subnormal,
# and every endpoint-series estimate carries at least this much.
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = math.log(_TINY)
# A point whose estimate is at most this is served whatever the tolerance: its density
# lies below the normal range, where a value can be known only to about _TINY.
_UNDERFLOW = 2.0 * _TINY


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


class _EndpointSeries:
    """The remainder near the support endpoint from the endpoint series of the density.

    At x = rho e^-omega the density is A* sum_(k>=0) e_k omega^(mu+k-1) /
    Gamma(mu+k) (Braaksma, Compositio Math. 1964; Norlund, Acta Math. 1955
    for unit scales), with the e_k of the Stirling series W(s) rho^-s ~ A*
    s^-mu sum_k e_k s^-k.  Its k = 0 term is the leading part P = A*
    omega^(mu-1) / Gamma(mu), so the remainder is sum_(k=1..K-1) t_k, t_k = P
    d_k omega^k with d_k = e_k / (mu)_k, from K + 1 = 21 coefficients, and t_K
    and t_(K+1) are its truncation error: with integer scales the terms can
    alternate between large and small, so one omitted term can be small by
    accident.  The estimate adds the rounding of the terms and of their sum,
    of the coefficients, of A*/Gamma(mu), of mu (amplified by |log omega| +
    |psi(mu+k)|) and of omega (amplified by (mu+k-1)/omega), and at least the
    least normal double.  Cancellation, sum |t_k| >> |sum t_k|, shows in the
    rounding terms.  P and the rounding of omega come from _density_at.

    The series serves a point on the rule of every hyperbola rung: its whole
    estimate at most tol (|P| + |R|), or at most _UNDERFLOW.  A point with 0 <
    omega < switch asks it first; the switch is where either omitted term
    reaches _SERIES_TRUNCATION of the largest kept one, and at most pi
    min(scales), half the radius of the series, so the path of a point
    depends on the spec and omega alone.  A point above the switch and
    within half the radius asks it after every rung has refused it.

    The set-up builds one Stirling table (the m d_m and their magnitudes,
    ratio._stirling_table), sums the e_k from it and makes one pass over the
    coefficients, as arrays: the d_k, the switch, and the error weights of the
    kept terms, held with the d_k in one matrix, so that a batch takes one
    product and one sum for its values and their estimates.

    The weights are the d_k over their error per unit |P omega^k|, k = 1..K-1:
    fixed, per unit error of omega over omega, per unit |log omega|.  The fixed
    part is the coefficient's rounding (with the k products of (mu)_k), the
    term's (k products for omega^k, those by P and d_k, the rounding of P) and
    mu's through psi(mu+k) = psi(mu) + sum_(j<k) 1/(mu+j).  m d_m sums m + 2
    monomials per factor over p + q factors, so it is off by at most (m + p + q
    + 6) eps times the same sums over the magnitudes of their terms.  The e_k
    are the coefficients of exp(sum_m d_m z^m), so that error moves e_k by
    sum_m |error of m d_m| |e_(k-m)| / m to first order; each step's products
    and sum add eps sum_m |m d_m e_(k-m)|.  On 2,400 seeded specs (scales
    0.05-20, shifts up to 60) every e_k, k <= 21, lay within 0.16 of this bound
    of a 50-digit recursion.
    """

    __slots__ = ("omitted", "switch", "terms")

    def __init__(self, ev: DensityEvaluator):
        # m d_m and their magnitudes, m = 1..K+1, and e_0..e_(K+1).
        md, magnitudes = _stirling_table(ev.spec, _SERIES_TERMS + 1)
        md, magnitudes = md[1:], magnitudes[1:]
        e = np.array(_stirling_coefficients(md.tolist()))
        mu, kept_terms = ev.inv.mu, _SERIES_TERMS - 1
        # Far from the double range's middle the arrays run to inf and nan, as floats would.
        with np.errstate(over="ignore", invalid="ignore"):
            # (mu)_k and d_k = e_k / (mu)_k, k = 1..K+1: a running product, one quotient a term.
            steps = mu + _STEPS
            rising = np.multiply.accumulate(steps)
            coef = e[1:] / rising
            size = np.abs(coef)
            kept = size[:kept_terms]
            self.omitted = coef[kept_terms:].tolist()
            largest = kept.max()
            self.switch = 0.0
            if 0.0 < ev.lead_scale < math.inf and largest < math.inf and all(map(math.isfinite, self.omitted)):
                reach = math.inf
                live = [j for j, t in enumerate(self.omitted) if t]
                if live and largest > 0.0:
                    # Per kept term, the omega where either omitted term first reaches
                    # _SERIES_TRUNCATION of it; an omitted term that is 0 sets no bound,
                    # and a kept term that is 0 gives 0.
                    lo, hi = live[0], live[-1] + 1
                    scale = _SERIES_TRUNCATION / size[kept_terms + lo : kept_terms + hi, None]
                    reach = float(((scale * kept) ** _SWITCH_ROOTS[lo:hi]).min(axis=0).max())
                self.switch = min(ev.half_radius, reach)
            abs_e = np.abs(e)
            per_md = _EPS * ((_M + (ev.spec.p + ev.spec.q + 6.0)) * magnitudes / _M + np.abs(md))
            error = np.convolve(per_md, abs_e)[:kept_terms]
            psi = np.add.accumulate(np.reciprocal(steps[:kept_terms]))
            self.terms = terms = np.empty((4, kept_terms))
            terms[0] = coef[:kept_terms]
            np.add((error + _KEPT_EPS * abs_e[1:_SERIES_TERMS]) / rising[:kept_terms],
                   kept * (_KEPT_EPS3 + ev.lead_err + ev.mu_err * np.abs(psi + ev.psi_mu)), out=terms[1])
            np.multiply(kept, (mu - 1.0) + _KEPT, out=terms[2])
            np.multiply(kept, ev.mu_err, out=terms[3])

    def __call__(self, points: list, tol: float) -> list[tuple[float, float, float, bool]]:
        """(remainder, value P + remainder, its error, served) at every point (omega, P, its
        error, rounding of omega), 0 < omega < pi min(scales).  Elementwise, so a point's
        result does not depend on its batch; far above the switch the terms may leave the
        double range, and such a point's estimate is not finite and not served."""
        # P omega^k for k = 0..K+1, the running product kept as large as it gets.
        # Every P omega^k is >= 0, so one product gives a point's sum and the sums
        # of its error weights.
        powers = np.array(points).take(_POWER_COLUMNS, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply.accumulate(powers, axis=1, out=powers)
            sums = np.add.reduce(powers[:, None, 1:-2] * self.terms, axis=2).tolist()
        c20, c21 = self.omitted
        out = []
        for (w, p, p_err, d), (v, fixed, per_omega, per_log), (p20, p21) in zip(
                points, sums, powers[:, -2:].tolist()):
            total = (abs(p20 * c20) + abs(p21 * c21) + _EPS * abs(v) + fixed + abs(math.log(w)) * per_log + _TINY
                     + d / w * per_omega)
            out.append((v, p + v, total + p_err, total <= tol * (abs(p) + abs(v)) or total <= _UNDERFLOW))
        return out


@functools.cache
def _hyperbola_shapes(nodes: int):
    """(z - sigma) / mu_h and log(z' / mu_h) on the contour of N = nodes (nodes k = 0..N+1)
    and on its edges alpha + _HYP_UP and alpha - _HYP_DOWN (every other node, k = 0, 2, ..,
    N); the weights of the terms (h/pi, halved at k = 0) and of the estimate's rows
    (_Hyperbola) before the per-spec factors; and the last node of the contour and of each
    edge, then the node before each."""
    step = 1.0818 / nodes
    n = nodes + 1
    u = step * np.arange(n + 1.0)
    shape, dshape = [], []
    for alpha, at in ((_HYP_ALPHA, u), (_HYP_ALPHA + _HYP_UP, u[:n:2]), (_HYP_ALPHA - _HYP_DOWN, u[:n:2])):
        sin, cos = math.sin(alpha), math.cos(alpha)
        cosh, sinh = np.cosh(at), np.sinh(at)
        shape.append((1.0 - sin * cosh) + 1j * (cos * sinh))
        dshape.append(-sin * sinh + 1j * (cos * cosh))
    terms = np.full(n, step / math.pi)
    terms[0] *= 0.5
    # The strip terms are doubled against the sampling of M; the last node of an
    # edge stands for the rest of it too (see _Hyperbola).
    up, down = 4.0 * terms[::2], 4.0 * terms[::2]
    up[-1] *= 2.0
    down[-1] *= 2.0
    weights = np.zeros((3, n + 1 + len(up) + len(down)))
    weights[0, :n] = 2.0 * _EPS * terms
    weights[0, n] = 2.0 * step / math.pi
    weights[0, n + 1 : n + 1 + len(up)] = up / math.expm1(2.0 * math.pi * _HYP_UP / step)
    weights[0, n + 1 + len(up) :] = down / math.expm1(2.0 * math.pi * _HYP_DOWN / step)
    weights[1, :n] = 2.0 * _EPS * terms
    weights[2, :n] = terms
    ends = np.array([n, n + len(up), weights.shape[1] - 1])
    return np.concatenate(shape), sc.clog(np.concatenate(dshape)), terms, weights, np.concatenate([ends, ends - 1])


def _saddle(spec: RatioSpec, log_rho: float, omega: float) -> float:
    """The real saddle s* of log F(s) + omega s right of every pole and zero of W: the root
    of sum A psi(A s + a) - sum B psi(B s + b) - log rho + omega, which tends to omega > 0
    as s grows.  Newton steps on specfun's digamma and trigamma, each kept inside the
    bracket the signs so far give, else a doubling (no upper end yet) or a bisection; where
    the slope is positive everywhere the bracket closes on the left end."""
    factors = [(A, a, A) for A, a in zip(spec.A, spec.a)] + [(B, b, -B) for B, b in zip(spec.B, spec.b)]
    lo = max(-shift / scale for scale, shift, _ in factors)
    left, right, s = lo, math.inf, max(lo, 0.0) + 1.0
    for _ in range(_SADDLE_STEPS):
        slope, curvature = omega - log_rho, 0.0
        for scale, shift, weight in factors:
            x = scale * s + shift
            slope += weight * sc._digamma(x)
            curvature += weight * scale * sc._polygamma(1, x)
        if slope < 0.0:
            left = s
        else:
            right = s
        step = s - slope / curvature if curvature else math.nan
        if not left < step < right:
            step = 2.0 * s - lo if right == math.inf else 0.5 * (left + right)
        if abs(step - s) <= 1e-9 * (1.0 + abs(s)):
            return step
        s = step
    return s


class _Hyperbola:
    """F = W(s) rho^-s on one rung's hyperbolic contour for one omega bin and on its two strip
    edges.

    H(rho e^-omega) = (1/2 pi i) int F(s) e^(omega s) ds on any contour that
    wraps the poles of W, all on (-inf, gamma_pole].  The hyperbola z(u) =
    sigma + mu_h (1 + sin(i u - alpha)), sigma >= gamma_pole, crosses the real
    axis right of the poles and opens to the left, where e^(omega z) decays,
    so the trapezoidal rule in u converges geometrically (Weideman &
    Trefethen, Math. Comp. 76, 2007).  z(-u) is the conjugate of z(u), so with
    h = 1.0818/N and the nodes u_k = k h, |k| <= N, H = (h/pi) sum_(k=0..N)
    Im(F e^(omega z) z'), the k = 0 term halved.  The points of one bin
    (top/2, top], top a power of two, share mu_h = 4.4921 N / top, so a curve
    evaluates F on a few contours.  Rung 0 takes N = 24 and sigma =
    gamma_pole; a later rung takes its N from _RUNGS and moves sigma right so
    that the crossing lies at the real saddle s* of log F(s) + omega s where
    that is further right (DensityEvaluator._contour), which keeps F e^(omega z)
    from spanning many orders along the contour when the shifts are large.
    F e^(omega z) z' is one exponential of log F + log z' + omega z, with log
    F from one specfun.log_gamma_plane call over the p + q factors of every
    node of the contour and of its edges.

    The estimate is a bound, never a difference of two rules:
    - the strip bound of the trapezoidal rule (Trefethen & Weideman, SIAM Rev.
      56, 2014, Thm. 5.1, with each edge of the strip taken on its own): u +
      i d_up and u - i d_down are the hyperbolas alpha + d_up and alpha -
      d_down, which keep every pole outside the strip, and with M the integral
      of |F e^(omega z) z'| / (2 pi) along each, the error is at most M_up /
      (e^(2 pi d_up / h) - 1) + M_down / (e^(2 pi d_down / h) - 1).  A pole near
      the contour shows in M_up, and the bound is then nearly attained, so M,
      summed on every other node, is taken twice;
    - the truncation, twice the first omitted pair of terms, which bounds the
      rest where each term is at most half the one before (the integrand falls
      like e^(-omega mu_h sin(alpha) cosh u) once F stops growing); the last
      node of each edge stands for the rest of its edge likewise.  A point
      whose integrand does not fall at least twofold over the last step of
      the contour and of each edge (F still growing there, as with large
      shifts) is refused;
    - the rounding: each term carries 2 eps times the magnitudes of its
      log-gammas, of z log rho and of log z', 2 eps |omega z| for its
      exponent and |z| times the rounding of omega, and the sum eps |H|.

    The F values depend on the spec, the bin and the rung alone, the sums of a
    point are its own (math.fsum for H, a row sum for the estimate, no matrix
    product), so a point's result does not depend on its batch.  Holds arrays
    only, never the evaluator.
    """

    __slots__ = ("z", "log_f", "weights", "terms", "ends")

    def __init__(self, ev: DensityEvaluator, top: float, rung: int, sigma: float):
        spec, inv = ev.spec, ev.inv
        nodes = _RUNGS[rung][0]
        shape, log_dshape, self.terms, weights, self.ends = _hyperbola_shapes(nodes)
        n = nodes + 1
        mu_h = 4.4921 * nodes / top
        self.z = z = mu_h * shape
        z += sigma
        scales, shifts = np.array((spec.A + spec.B, spec.a + spec.b))[:, :, None]
        arg = scales * z
        arg += shifts
        log_gamma, size = sc.log_gamma_plane(arg)
        log_gamma[spec.p :] *= _MINUS_ONE
        s_log_rho = z * inv.log_rho
        log_dz = log_dshape + math.log(mu_h)
        self.log_f = np.add.accumulate(log_gamma, axis=0)[-1]
        self.log_f -= s_log_rho
        self.log_f += log_dz
        rounding = np.add.accumulate(size[:, :n], axis=0)[-1]
        rounding += np.abs(s_log_rho[:n])
        rounding += np.abs(log_dz[:n])
        rounding += _THREE
        abs_z = np.abs(z[:n])
        # Rows: the fixed part of the estimate, its part per unit |omega| and per unit
        # rounding of omega; columns the contour's nodes, the omitted one, the edges'.
        self.weights = weights.copy()
        self.weights[0, :n] *= rounding
        self.weights[1:, :n] *= abs_z

    def __call__(self, points: list, tol: float) -> list[tuple[float, float, float, bool]]:
        """(H - P, H, error, served) at every point (omega, P, its error, rounding of omega) of
        the bin (H carries no error of P): served where the estimate is at most tol (|P| +
        |H - P|), the size of the two parts of the record, or at most _UNDERFLOW; a point
        whose integrand does not decay gives (-P, 0, inf, False)."""
        om, lead, _, d_omega = zip(*points)
        n = len(self.terms)
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.multiply.outer(om, self.z)
            g += self.log_f
            np.exp(g, out=g)
            abs_g = np.abs(g)
            parts = np.add.reduce(abs_g[:, None, :] * self.weights, axis=2).tolist()
            ends = abs_g.take(self.ends, axis=1).tolist()
        terms = (g[:, :n].imag * self.terms).tolist()
        out = []
        for w, p, d, row, (fixed, per_omega, per_d), (last0, last1, last2, before0, before1, before2) in zip(
                om, lead, d_omega, terms, parts, ends):
            if not (2.0 * last0 <= before0 and 2.0 * last1 <= before1 and 2.0 * last2 <= before2
                    and math.isfinite(fixed)):
                out.append((-p, 0.0, math.inf, False))
                continue
            # |terms| <= (h/pi) |F e^(omega z) z'| each and (N + 1) h < 1.2: fsum cannot overflow.
            v = math.fsum(row)
            err = fixed + w * per_omega + d * per_d + _EPS * abs(v) + _TINY
            out.append((v - p, v, err, err <= tol * (abs(p) + abs(v - p)) or err <= _UNDERFLOW))
        return out


def _remainder_density(ev: DensityEvaluator, x: np.ndarray, lead_errors: bool = True) -> tuple:
    """_density_at at every finite x > 0 (no exclusion zone): the x entry of the engine,
    which bench/tracer.py wraps by name to count density points."""
    xs = x.tolist()
    for v in xs:
        if not 0.0 < v < math.inf:
            raise DomainError(f"density: x={v} must be a positive real")
    rho, log_rho = ev.inv.rho, ev.inv.log_rho
    # x >= rho lies past the support, also where rounding leaves log(rho/x) > 0.
    return _density_at(ev, [log_rho - log_x if v < rho else 0.0 for v, log_x in zip(xs, np.log(x).tolist())],
                       lead_errors)


def _leading_part(points: list, tol: float) -> list[tuple[float, float, float, bool]]:
    """The path of a spec whose leading part is its density (DensityEvaluator.lead_exact):
    (0, P, error of P, served) at every point."""
    return [(0.0, p, p_err, True) for _, p, p_err, _ in points]


def _density_at(ev: DensityEvaluator, omega: list,
                lead_errors: bool = False) -> tuple[list, list, list, list, list]:
    """(leading part P, its error, remainder, value H, its error) of the density at x = rho
    e^-omega for every float of omega, as five lists of per-point floats; all five are 0.0
    past the support, omega <= 0.

    Each point computes P = A* omega^(mu-1) / Gamma(mu) and the rounding of
    omega (of log rho, from the terms summed into it, of log x and of the
    difference) once.  The error of P, computed only with lead_errors (a
    record needs it, a value does not), adds the rounding of A*/Gamma(mu), of
    the power, of mu (amplified by |log omega - psi(mu)|) and of omega
    (amplified by |mu - 1| / omega).  Each point then walks one list of
    paths, chosen from the spec and omega before any sum runs, and stops at
    the first that serves it: the endpoint series below its switch (and at
    omega <= _SHIFT_OMEGA); the hyperbola rungs of the point's bin in turn,
    or the leading part where ev.lead_exact makes P the density; the series
    within half its radius above the switch.  Each path is asked once per
    batch by all the points that reach it, with each point's (omega, P, its
    error, rounding of omega), and hands back each point's (remainder, value,
    error) with whether it serves the point.  A point no path serves raises
    QuadratureAccuracyError with the value of the path of least estimate.
    Series points return H = P + R and the error of R plus that of P; a
    hyperbola point returns H itself, R = H - P and the error of H, so H keeps
    its digits where P >> H.
    """
    n = len(omega)
    lead, lead_err, rem, value, err = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    # Per-point loop: the evaluator's scalars as locals.
    scale, mu1, log_rho, log_rho_err = ev.lead_scale, ev.inv.mu - 1.0, ev.inv.log_rho, ev.log_rho_err
    rel, mu_err, psi_mu, half_radius = 1e-14 + ev.lead_err, ev.mu_err, ev.psi_mu, ev.half_radius
    # What a path is handed of each point within the support, and the points that ask
    # the series first (below its switch) and last (above it, within half its radius).
    points, first, last = {}, [], []
    for k, w in enumerate(omega):
        if w <= 0.0:
            continue
        try:
            p = scale * w**mu1
        except OverflowError:
            raise UnsupportedParameterError(f"leading part overflows at omega={w} (mu={ev.inv.mu})") from None
        d = log_rho_err + _EPS * (abs(log_rho - w) + w)
        p_err = p * (rel + mu_err * abs(math.log(w) - psi_mu) + abs(mu1) * d / w) if lead_errors else 0.0
        lead[k], lead_err[k], points[k] = p, p_err, (w, p, p_err, d)
        # Beyond half the radius of the series no point needs its switch.
        if w <= _SHIFT_OMEGA and w < half_radius and w < ev.series.switch:
            first.append(k)
        elif w < half_radius:
            last.append(k)
    # The points not served yet, each with the (value, error) of least error it was handed.
    best = dict.fromkeys(points, (0.0, math.inf))
    tol = ev.cfg.quad_rel_tol
    for stage in range(len(_RUNGS) + 2):
        # Stage 0 asks the series, stages 1.. the rungs of each point's bin (or the leading
        # part), the last stage the series again; a path is asked once by all its points.
        if not best:
            break
        if stage == 0 or stage > len(_RUNGS):
            idx = first if stage == 0 else [k for k in last if k in best]
            asks = [(ev.series, idx)] if idx and ev.series.switch > 0.0 else []
        elif ev.lead_exact:
            asks = [(_leading_part, list(best))]
        else:
            bins: dict[float, list] = {}
            for k in best:
                m, e = math.frexp(omega[k])
                bins.setdefault(math.ldexp(1.0, e - (m == 0.5)), []).append(k)
            asks = [(ev._contour(top, stage - 1), idx) for top, idx in bins.items()]
        for path, idx in asks:
            if path is None:
                continue
            for k, (r, v, e, ok) in zip(idx, path([points[k] for k in idx], tol)):
                if ok:
                    rem[k], value[k], err[k] = r, v, e
                    del best[k]
                elif e < best[k][1]:
                    best[k] = (v, e)
    for k, (v, e) in best.items():
        raise QuadratureAccuracyError(
            f"no hyperbola rung and no endpoint series meets the tolerance (omega={omega[k]}, error {e})",
            best_estimate=v,
            error_estimate=e,
        )
    return lead, lead_err, rem, value, err


class DensityEvaluator:
    """The density of one spec: its endpoint series and one _Hyperbola per omega bin and rung.

    Derives and validates the spec; the endpoint series (its Stirling
    coefficients, switch and error weights) is set up at the first point that
    needs it, and a rung's hyperbola for a bin at the first point in the bin
    that asks it.  Requires mu > 0, equal scale sums and a finite rho and A*,
    and warns once when the decay exponent mu is below 0.2.  Every point
    evaluated through one evaluator reuses the hyperbolas of the points
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
                f"mu={inv.mu} < {_MU_WARN}: small decay exponent, results may need a looser tolerance",
                RuntimeWarning,
                stacklevel=3,
            )
        self.cfg = cfg
        self.spec = spec
        self.inv = inv
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
        # Factors that pair as Gamma(A s) / Gamma(A s + 1) = 1 / (A s) make W(s) rho^-s =
        # A* s^-mu exactly: the leading part is then the density at every omega > 0.
        self.lead_exact = not any(spec.a) and sorted(zip(spec.A, spec.a)) == sorted(
            (B, b - 1.0) for B, b in zip(spec.B, spec.b))
        # (bin top, rung) -> its contour, or None for a rung that repeats the one before.
        self._hyperbolas: dict[tuple[float, int], _Hyperbola | None] = {}
        self._series: _EndpointSeries | None = None

    @property
    def series(self) -> _EndpointSeries:
        """The endpoint series, set up at the first point within half its radius."""
        if self._series is None:
            self._series = _EndpointSeries(self)
        return self._series

    def _contour(self, top: float, rung: int) -> _Hyperbola | None:
        """The rung's hyperbola for the bin top, built when a point first asks it.

        Rung 0 takes sigma = gamma_pole.  A saddle rung moves its crossing to
        the real saddle s* of log F(s) + omega s at the middle of the bin, omega
        = 3 top / 4, where s* lies right of the textbook crossing gamma_pole +
        mu_h (1 - sin alpha): sigma = max(gamma_pole, s* - mu_h (1 - sin
        alpha)).  A saddle rung whose crossing does not move and whose N the
        rung before shares would repeat that rung, and is None.
        """
        key = (top, rung)
        if key not in self._hyperbolas:
            nodes, saddle = _RUNGS[rung]
            sigma = self.inv.gamma_pole
            if saddle:
                s_star = _saddle(self.spec, self.inv.log_rho, 0.75 * top)
                sigma = max(sigma, s_star - 4.4921 * nodes / top * (1.0 - math.sin(_HYP_ALPHA)))
            repeat = saddle and sigma == self.inv.gamma_pole and nodes == _RUNGS[rung - 1][0]
            self._hyperbolas[key] = None if repeat else _Hyperbola(self, top, rung, sigma)
        return self._hyperbolas[key]

    def values(self, xs) -> np.ndarray:
        """Density at every x > 0 of xs (no support-endpoint exclusion), in one batch."""
        return np.array(_remainder_density(self, np.asarray(xs, dtype=float).ravel(), lead_errors=False)[3])

    def value(self, x: float) -> float:
        """Density at any x > 0 (no support-endpoint exclusion)."""
        return float(self.values([x])[0])

    def evaluate(self, x: float) -> HEvaluation:
        """Density at x split into its parts, with the combined error estimate."""
        return self._records(np.array([float(x)]))[0]

    def _records(self, xs: np.ndarray) -> list[HEvaluation]:
        return [HEvaluation(v, lv, rv, e) for lv, _, rv, v, e in zip(*_remainder_density(self, xs))]

    def _at_omega(self, omega: np.ndarray) -> np.ndarray:
        """Density H(rho e^-omega) at every omega > 0."""
        return np.array(_density_at(self, omega.tolist())[3])

    def edge_integral(self, f, w_hi: float) -> float:
        """int_0^w_hi H(rho e^-w) f(w) dw for f bounded on [0, w_hi], f taking an array.

        H(rho e^-w) / w^(mu-1) is analytic at w = 0 (the endpoint series), so
        near 0 one Gauss-Jacobi rule of weight w^(mu-1) integrates it, on at
        most pi min(scales), half the radius of that series; |Q20 - Q10| is its
        error, and the interval halves until that is below the outer
        tolerance, max(OUTER_EPSABS, OUTER_EPSREL |Q20|).  The adaptive G10/K21
        rule takes the rest.  A spec whose w^(mu-1) at a node, or w^mu at the
        interval's end, falls below the least normal double is refused with
        UnsupportedParameterError before any point is evaluated.
        """
        mu = self.inv.mu
        (y10, w10), (y20, w20) = (gauss_jacobi(mu - 1.0, n) for n in (10, 20))
        w_gj = min(w_hi, self.half_radius)
        for _ in range(_EDGE_HALVINGS):
            # Both rules' nodes in one batch.
            w = w_gj * np.concatenate([y10, y20])
            if min(mu * math.log(w_gj), (mu - 1.0) * math.log(float(w.min()))) < _LOG_TINY:
                raise UnsupportedParameterError(
                    f"edge integral: w^(mu-1) leaves the double range on (0, {w_gj}] (mu={mu})")
            vals = np.array(_density_at(self, w.tolist())[3]) / w ** (mu - 1.0) * f(w)
            q10, q20 = w_gj**mu * (w10 @ vals[:10]), w_gj**mu * (w20 @ vals[10:])
            if abs(q20 - q10) <= max(OUTER_EPSABS, OUTER_EPSREL * abs(q20)):
                break
            w_gj *= 0.5
        if w_gj < w_hi:
            q20 += quad(lambda w: self._at_omega(w) * f(w), w_gj, w_hi, epsabs=OUTER_EPSABS,
                        epsrel=OUTER_EPSREL, limit=100)[0]
        return float(q20)

    def mellin_transform(self, s: float) -> float:
        """int_0^rho H(x) x^(s-1) dx via the substitution x = rho e^-tau.

        Over (0, tau_c) the edge rule (edge_integral) takes the tau^(mu-1)
        endpoint singularity in one batch; the density beyond is integrated
        by the adaptive rule at omega = tau, so no x underflows.  For s below
        max(gamma_pole, 0) + 0.05, where the weight e^(-s tau) grows or barely
        falls over the long tau range, the error of the density times e^(-s
        tau) is bounded over the whole range by its largest value at the
        probes: the top of each hyperbola bin the bulk crosses, and tau_max;
        the hyperbolas serve the bulk with an estimate that falls with the
        density.  The part past tau_max is taken as |H(tau_max)| e^(-s
        tau_max) / (s - gamma_pole), the integral of the term of the rightmost
        pole.  A bound above 1e-6 of the result raises QuadratureAccuracyError,
        as does a weight e^(-s tau) that overflows before tau_max.
        """
        inv, cfg = self.inv, self.cfg
        if not math.isfinite(s):
            raise DomainError(f"Mellin transform requires a finite s, got s={s}")
        if s <= inv.gamma_pole:
            raise DomainError(f"Mellin transform requires s > {inv.gamma_pole}, got s={s}")
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
        # One batch at the top of each bin the bulk crosses and at tau_max
        # builds the hyperbolas of the quadrature's later rounds.
        probes = [2.0**j for j in range(math.ceil(math.log2(tau_c)), math.ceil(math.log2(tau_max)))] + [tau_max]
        _, _, _, value, est = _density_at(self, probes)
        noise = 0.0
        if s < max(inv.gamma_pole, 0.0) + 0.05:
            noise = (tau_max - tau_c) * max(e * math.exp(-s * w) for w, e in zip(probes, est))
        noise += abs(value[-1]) * math.exp(-s * tau_max) / (s - inv.gamma_pole)
        # Resolving the bulk below its noise would only chase the noise.
        bulk = quad(
            lambda tau: self._at_omega(tau) * np.exp(-s * tau),
            tau_c, tau_max, epsabs=max(1e-13, noise), epsrel=max(1e-10, 0.01 * cfg.quad_rel_tol), limit=250,
        )
        integral = near + bulk[0]
        if not noise <= 1e-6 * abs(integral):
            raise QuadratureAccuracyError(
                f"Mellin transform at s={s}: density noise up to {noise} against the weight e^(-s tau)",
                best_estimate=inv.rho**s * integral,
                error_estimate=inv.rho**s * noise,
            )
        return inv.rho**s * integral


def density(spec: RatioSpec, xs, cfg: ContourConfig | None = None) -> list[HEvaluation]:
    """Representing density at every x of xs, with its closed-form leading part and the
    remainder: from the endpoint series near rho and the hyperbola ladder elsewhere.

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


def __getattr__(name: str):
    # bench/tracer.py wraps foxh.mpmath.gammainc; the name resolves on first
    # access so that importing the package does not import mpmath.
    if name == "mpmath":
        import mpmath

        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
