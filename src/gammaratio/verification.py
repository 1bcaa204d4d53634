"""Cross-validation of the analytic identities against quadrature.

Every check here pits two independently computed sides of an identity
against each other and reports residuals: Laplace reconstruction of the
gamma ratio from its representing density, the log-kernel integral
equations satisfied by the density (unit-scaling and weighted forms), a
finite-difference complete-monotonicity probe, Monte-Carlo moments of beta
products, and exploratory zero counting for the kernel/density sign
conjectures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .foxh import RHO_EXCLUSION, ContourConfig, DEFAULT_CONTOUR, DensityEvaluator
from .quadrature import OUTER_EPSABS, OUTER_EPSREL, quad
from .ratio import RatioSpec, cm_kernel_t, derive, gamma_ratio
from .monotonicity import identical_factor_multisets

# Default residual tolerances, roughly 10x the composed quadrature budget.
LAPLACE_TOL = 1e-6
MEIJER_IDENTITY_TOL = 1e-7
FOX_IDENTITY_TOL = 1e-5
CM_PROBE_TOL = 1e-6
MC_TOL_SE = 5.0

# Denominators smaller than this switch a residual from relative to absolute.
_SAFE_DENOM = 1e-8

# Excluded half-width around the removable singularity t = x of the
# unit-scaling integral equation; the integrand is continued by its limit.
_T_EXCLUSION = 1e-6

_ZERO_BRACKET_WIDTH = 1e-8


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one identity check over a list of sample points."""

    check_id: str
    sample_points: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    tolerance: float
    passed: bool
    notes: str = ""


@dataclass(frozen=True)
class ZeroCountReport:
    """Certified sign changes of the kernel and of the density.

    conjecture_consistent is None when the density side was skipped (mu <= 0
    or unequal scale sums).  q_identically_zero flags the degenerate case of
    identical factor multisets, where the kernel is the zero function rather
    than a function with zero crossings.
    """

    q_zero_count: int
    h_zero_count: int
    q_intervals: tuple[tuple[float, float], ...]
    h_intervals: tuple[tuple[float, float], ...]
    conjecture_consistent: bool | None
    q_identically_zero: bool = False
    h_evaluated: bool = True


def _make_report(check_id, points, residuals, tolerance, notes=""):
    max_res = max(residuals) if residuals else 0.0
    return ResidualReport(
        check_id=check_id,
        sample_points=tuple(float(p) for p in points),
        residuals=tuple(float(r) for r in residuals),
        max_residual=float(max_res),
        tolerance=float(tolerance),
        passed=bool(max_res <= tolerance),
        notes=notes,
    )


def laplace_reconstruct(
    spec: RatioSpec,
    x_grid: Sequence[float],
    cfg: ContourConfig | None = None,
    tolerance: float = LAPLACE_TOL,
) -> ResidualReport:
    """Reconstruct W(x) as the Laplace transform of its representing density.

    After substituting u = e^-t the reconstruction integral coincides with
    the Mellin transform of the density at s = x, so the residual compares
    that quadrature against the gamma-product value of W computed directly.
    """
    return _laplace_report(DensityEvaluator(spec, cfg), x_grid, tolerance)


def _laplace_report(ev: DensityEvaluator, x_grid: Sequence[float], tolerance: float) -> ResidualReport:
    """laplace_reconstruct on the density of an existing evaluator."""
    if not ev.inv.rho_at_most_one():
        raise DomainError(f"laplace_reconstruct: rho={ev.inv.rho} must be <= 1")
    residuals = []
    for x in x_grid:
        recon = ev.mellin_transform(float(x))
        exact = gamma_ratio(ev.spec, float(x))
        residuals.append(abs(recon - exact) / abs(exact))
    return _make_report("laplace_reconstruct", x_grid, residuals, tolerance)


def meijer_identity_residual(
    a: Sequence[float],
    b: Sequence[float],
    x_grid: Sequence[float],
    cfg: ContourConfig | None = None,
    tolerance: float = MEIJER_IDENTITY_TOL,
) -> ResidualReport:
    """Unit-scaling integral equation for the density G on (0, 1):

        log(1/x) G(x) = int_x^1 G(t) sum_k ((x/t)^a_k - (x/t)^b_k) dt/(t-x).

    The integrand has a removable singularity at t = x (continued by its
    limit, sum(b-a) G(x)/x) and an integrable algebraic one at t = 1, which
    is split off with a weighted quadrature after substituting t = e^-w.
    """
    av = tuple(float(v) for v in a)
    bv = tuple(float(v) for v in b)
    if len(av) != len(bv):
        raise DomainError("meijer_identity_residual: length mismatch")
    if math.fsum(bv) - math.fsum(av) <= 0.0:
        raise DomainError("meijer_identity_residual: requires sum(b) > sum(a)")
    ones = (1.0,) * len(av)
    return _meijer_report(DensityEvaluator(RatioSpec(A=ones, a=av, B=ones, b=bv), cfg), x_grid, tolerance)


def _meijer_report(ev: DensityEvaluator, x_grid: Sequence[float], tolerance: float) -> ResidualReport:
    """meijer_identity_residual on the density of an existing unit-scaling evaluator."""
    av, bv = ev.spec.a, ev.spec.b
    gap = math.fsum(bv) - math.fsum(av)
    residuals = []
    for x in x_grid:
        x = float(x)
        if not 0.0 < x < 1.0:
            raise DomainError(f"meijer_identity_residual: x={x} outside (0, 1)")
        g_x = ev.value(x)
        lhs = math.log(1.0 / x) * g_x

        def bracket(t: np.ndarray) -> np.ndarray:
            r = x / t
            return sum(r**ak - r**bk for ak, bk in zip(av, bv))

        limit_value = gap * g_x / x

        def integrand(t: np.ndarray) -> np.ndarray:
            # Within _T_EXCLUSION of x the integrand is its limit; no density is needed there.
            out = np.full_like(t, limit_value)
            far = np.abs(t - x) > _T_EXCLUSION
            t_far = t[far]
            out[far] = ev.values(t_far) * bracket(t_far) / (t_far - x)
            return out

        t_hi = min(1.0 - 0.05, 0.5 * (x + 1.0))
        mid = quad(
            integrand, x, t_hi,
            points=[x + _T_EXCLUSION],
            epsabs=OUTER_EPSABS, epsrel=OUTER_EPSREL, limit=250,
        )

        def edge_factor(w: np.ndarray) -> np.ndarray:
            t = np.exp(-w)
            return bracket(t) / (t - x) * t

        rhs = mid[0] + ev.edge_integral(edge_factor, -math.log(t_hi))
        denom = abs(lhs)
        residuals.append(abs(lhs - rhs) / denom if denom > _SAFE_DENOM else abs(lhs - rhs))
    return _make_report("meijer_integral_equation", x_grid, residuals, tolerance)


def fox_identity_residual(
    spec: RatioSpec,
    x_grid: Sequence[float],
    cfg: ContourConfig | None = None,
    tolerance: float = FOX_IDENTITY_TOL,
) -> ResidualReport:
    """Weighted integral equation for the density H on (0, rho):

        log(rho/x) H(x) = int_0^{log(rho/x)} H(rho e^-w) Q((x/rho) e^w) dw,

    with Q the multiplicative kernel.  The w^(mu-1) endpoint singularity of
    the leading part is handled by a weighted quadrature; the kernel factor
    near w = log(rho/x), i.e. u -> 1, uses the cancellation-free kernel path.
    """
    return _fox_report(DensityEvaluator(spec, cfg), x_grid, tolerance)


def _fox_report(ev: DensityEvaluator, x_grid: Sequence[float], tolerance: float) -> ResidualReport:
    """fox_identity_residual on the density of an existing evaluator."""
    spec, inv = ev.spec, ev.inv
    if not inv.rho_at_most_one():
        raise DomainError(f"fox_identity_residual: rho={inv.rho} must be <= 1")

    residuals = []
    for x in x_grid:
        x = float(x)
        if not 0.0 < x < inv.rho * (1.0 - RHO_EXCLUSION):
            raise DomainError(f"fox_identity_residual: x={x} outside (0, rho)")
        w_max = inv.log_rho - math.log(x)
        w_cut = min(0.4, 0.25 * w_max)
        h_x = ev.value(x)
        lhs = w_max * h_x

        def kernel_at(w: np.ndarray) -> np.ndarray:
            return cm_kernel_t(spec, (x / inv.rho) * np.exp(w))

        bulk = quad(
            lambda w: ev.values(inv.rho * np.exp(-w)) * kernel_at(w),
            w_cut, w_max, epsabs=OUTER_EPSABS, epsrel=OUTER_EPSREL, limit=250,
        )
        rhs = ev.edge_integral(kernel_at, w_cut) + bulk[0]
        denom = abs(h_x)
        # Residual is relative to |H(x)| per the check contract.
        residuals.append(abs(lhs - rhs) / (w_max * denom) if denom > _SAFE_DENOM else abs(lhs - rhs))
    return _make_report("fox_integral_equation", x_grid, residuals, tolerance)


def cm_probe(
    spec: RatioSpec,
    x0: float,
    h: float = 0.05,
    max_order: int = 6,
    tolerance: float = CM_PROBE_TOL,
) -> ResidualReport:
    """Finite-difference probe of complete monotonicity of W at x0.

    Checks that (-1)^n Delta^n W(x0) / h^n >= -tolerance * W(x0) for forward
    differences up to max_order.  Residuals are the normalized negative
    excursions per order, so passing means every sign is correct up to the
    stated slack.
    """
    x0 = float(x0)
    h = float(h)
    if not (h > 0.0 and x0 > 0.0):
        raise DomainError("cm_probe: x0 and h must be positive")
    if max_order > 8:
        raise DomainError(f"cm_probe: max_order={max_order} must be <= 8")
    if x0 - max_order * h <= 0.0:
        raise DomainError(f"cm_probe: x0 - max_order*h = {x0 - max_order * h} must be positive")
    values = [gamma_ratio(spec, x0 + k * h) for k in range(max_order + 1)]
    w0 = values[0]
    residuals = []
    signed = []
    for n in range(1, max_order + 1):
        delta = math.fsum(
            (-1.0) ** (n - k) * math.comb(n, k) * values[k] for k in range(n + 1)
        )
        s = (-1.0) ** n * delta / h**n
        signed.append(s)
        residuals.append(max(0.0, -s) / w0)
    notes = f"min signed difference {min(signed)!r}; W(x0)={w0!r}"
    return _make_report("cm_probe", list(range(1, max_order + 1)), residuals, tolerance, notes)


def beta_product_moments(
    alphas: Sequence[float],
    betas: Sequence[float],
    A: Sequence[float],
    x_grid: Sequence[float],
    n_samples: int = 100_000,
    rng_seed: int = 0,
    tolerance: float = MC_TOL_SE,
) -> ResidualReport:
    """Monte-Carlo check of the moment formula for products of beta powers.

    Simulates u = prod_k zeta_k^(A_k) with independent beta variates built
    from two gamma draws each (counter-based Philox stream, so the sample
    sequence is reproducible across platforms), and compares E(u^(x-1))
    against the gamma-product formula.  Residuals are in units of the sample
    standard error; the check passes when every point is within
    `tolerance` standard errors.
    """
    al = [float(v) for v in alphas]
    be = [float(v) for v in betas]
    Av = [float(v) for v in A]
    if not (len(al) == len(be) == len(Av)):
        raise DomainError("beta_product_moments: parameter lengths differ")
    if not all(0.0 < v < math.inf for v in al + be + Av):
        raise DomainError("beta_product_moments: alphas, betas, A must be positive and finite")
    if n_samples < 10_000:
        raise DomainError(f"beta_product_moments: n_samples={n_samples} must be >= 1e4")
    for x in x_grid:
        for ak, Ak in zip(al, Av):
            if not 0.0 < Ak * float(x) + ak - Ak < math.inf:
                raise DomainError(
                    f"beta_product_moments: moment undefined at x={x} (A_k x + alpha_k - A_k not in (0, inf))"
                )
    rng = np.random.Generator(np.random.Philox(int(rng_seed)))
    log_u = np.zeros(int(n_samples))
    for ak, bk, Ak in zip(al, be, Av):
        g1 = rng.gamma(ak, size=int(n_samples))
        g2 = rng.gamma(bk, size=int(n_samples))
        log_u += Ak * np.log(g1 / (g1 + g2))
    residuals = []
    ses = []
    for x in x_grid:
        vals = np.exp((float(x) - 1.0) * log_u)
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n_samples))
        log_exact = math.fsum(
            [gammaln(ak + bk) - gammaln(ak) for ak, bk in zip(al, be)]
            + [
                gammaln(Ak * float(x) + ak - Ak) - gammaln(Ak * float(x) + ak + bk - Ak)
                for ak, bk, Ak in zip(al, be, Av)
            ]
        )
        exact = math.exp(log_exact)
        residuals.append(abs(est - exact) / se if se > 0 else 0.0)
        ses.append(se)
    notes = f"n_samples={n_samples}, seed={rng_seed}, standard errors {ses!r}"
    return _make_report("mc_beta_moments", x_grid, residuals, tolerance, notes)


def _bisect_sign_change(f, lo, hi, f_lo, width):
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return (mid - width, mid + width)
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return (lo, hi)


def _certified_brackets(grid, vals, f, noise_floor, width):
    brackets = []
    for i in range(len(grid) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if abs(v0) <= noise_floor or abs(v1) <= noise_floor:
            continue
        if (v0 < 0.0) != (v1 < 0.0):
            brackets.append(_bisect_sign_change(f, grid[i], grid[i + 1], v0, width))
    return brackets


def count_zeros(
    spec: RatioSpec,
    cfg: ContourConfig | None = None,
    grid_size: int = 256,
) -> ZeroCountReport:
    """Exploratory count of certified sign changes of kernel and density.

    The kernel is sampled on a nested uniform grid over (0, 1) (plus fixed
    geometric tails), the density on a uniform grid over (0, rho); every
    sign change between samples above the noise floor is bracketed by
    bisection to width 1e-8.  The density side is skipped when mu <= 0 or
    the scale sums differ.  This is reporting, not certification of the
    conjectured inequality.
    """
    cfg = cfg or DEFAULT_CONTOUR
    if grid_size < 16:
        raise DomainError(f"count_zeros: grid_size={grid_size} must be >= 16")
    inv = derive(spec)

    if identical_factor_multisets(spec):
        return ZeroCountReport(
            q_zero_count=0,
            h_zero_count=0,
            q_intervals=(),
            h_intervals=(),
            conjecture_consistent=True,
            q_identically_zero=True,
            h_evaluated=False,
        )

    # Kernel side: nested uniform grid (doubling grid_size refines it) plus
    # fixed geometric tails so steep endpoint behaviour is seen.
    uniform = np.arange(1, grid_size) / grid_size
    geo = np.geomspace(1e-6, 1.0 / grid_size, 33)
    q_grid = np.unique(np.concatenate([geo, uniform, 1.0 - geo]))
    q_vals = cm_kernel_t(spec, q_grid)
    q_scale = float(np.max(np.abs(q_vals))) if len(q_vals) else 0.0
    q_floor = 1e-11 * (1.0 + q_scale)
    q_brackets = _certified_brackets(
        q_grid, q_vals, lambda t: float(cm_kernel_t(spec, t)), q_floor, _ZERO_BRACKET_WIDTH
    )

    h_evaluated = inv.mu > 0.0 and inv.sums_equal()
    h_brackets: list[tuple[float, float]] = []
    if h_evaluated:
        ev = DensityEvaluator(spec, cfg)
        x_grid = inv.rho * np.arange(1, grid_size) / grid_size
        h_vals = ev.values(x_grid)
        h_floor = max(1e-10, 20.0 * cfg.quad_rel_tol * float(np.max(np.abs(h_vals))))
        h_brackets = _certified_brackets(
            x_grid, h_vals, ev.value, h_floor, _ZERO_BRACKET_WIDTH * inv.rho
        )

    q_count = len(q_brackets)
    h_count = len(h_brackets)
    return ZeroCountReport(
        q_zero_count=q_count,
        h_zero_count=h_count,
        q_intervals=tuple(q_brackets),
        h_intervals=tuple(h_brackets),
        conjecture_consistent=(h_count <= q_count) if h_evaluated else None,
        q_identically_zero=False,
        h_evaluated=h_evaluated,
    )
