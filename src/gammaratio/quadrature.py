"""Vectorized fixed rules: Gauss-Kronrod G10/K21 panels and Gauss-Jacobi nodes.

Every integrand here takes an array of abscissas and returns the values
there, so a rule costs one integrand call per round, not one per node.
"""

from __future__ import annotations

import functools

import numpy as np

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

# Absolute and relative tolerance of the outer quadratures over the density
# (edge integral, integral equations), as quad's epsabs and epsrel.
OUTER_EPSABS, OUTER_EPSREL = 1e-12, 1e-9

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
GK_NODES = np.concatenate([-_GK_X, _GK_X[-2::-1]])
GK_KRONROD = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
GK_DIFF = GK_KRONROD - np.concatenate([_GK_WG, _GK_WG[-2::-1]])


def _gk21(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 sums over the panels [lo, hi] from one call of f, and QUADPACK's error of each."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * GK_NODES
    fx = np.broadcast_to(np.asarray(f(x.ravel()), dtype=float), (x.size,)).reshape(x.shape)
    resk = fx @ GK_KRONROD
    resasc = np.abs(half) * (np.abs(fx - 0.5 * resk[:, None]) @ GK_KRONROD)
    resabs = np.abs(half) * (np.abs(fx) @ GK_KRONROD)
    err = np.abs(half * (fx @ GK_DIFF))
    # QUADPACK qk21: scale the K21 - G10 difference by the variation of f,
    # and never below 50 eps of the sum of |f|.
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    return half * resk, err


def quad(f, a: float, b: float, epsabs: float = 1.49e-8, epsrel: float = 1.49e-8, limit: int = 50,
         points=None) -> tuple[float, float]:
    """int_a^b f, adaptively on G10/K21 panels, and its error estimate.

    Each round bisects, in one call of f, the fewest panels of largest error
    whose errors cover the excess over half the tolerance max(epsabs,
    epsrel |integral|).  Reversed limits give the negated integral; points
    inside (a, b) split it.  With limit panels held it returns the best sum
    and its estimate, without raising or warning.
    """
    if b < a:
        value, err = quad(f, b, a, epsabs, epsrel, limit, points)
        return -value, err
    if a == b:
        return 0.0, 0.0
    edges = np.unique([a, b, *(p for p in points or () if a < p < b)])
    lo, hi = edges[:-1], edges[1:]
    val, err = _gk21(f, lo, hi)
    while True:
        total, excess = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if excess <= tol or len(lo) >= limit:
            return total, excess
        order = np.argsort(-err)
        n = min(int(np.searchsorted(np.cumsum(err[order]), excess - 0.5 * tol)) + 1, limit - len(lo))
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _gk21(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])


@functools.lru_cache(maxsize=64)
def gauss_jacobi(beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n nodes on (0, 1) and weights of the Gauss rule for the weight w^beta, beta > -1.

    Golub-Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the Jacobi polynomials P^(0, beta) on [-1, 1], mapped
    to (0, 1), and the weights the squared first components of the
    eigenvectors times int_0^1 w^beta dw = 1 / (beta + 1).  Cached per
    (beta, n) as read-only arrays: an edge integral asks for the same two
    rules on every call for one spec.
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / s / np.sqrt((s + 1.0) * (s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    nodes, weights = 0.5 * (1.0 + x), v[0] ** 2 / (beta + 1.0)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
