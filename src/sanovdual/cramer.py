"""Polynomial-rate deviation apparatus for means of heavy-tailed samples.

The central object is the shortfall analog of the cumulant generating
function for exponent q > 1,

    cumulant(t) = inf{ m : E[ ((1 + <t, X> - m)^+)^q ] <= 1 },

its conjugate rate function, the moment constant E[||X||^q]^(1/q), and the
explicit mean-deviation bound (M_q / (r - M_q))^q * n^(1-q) valid for
r > M_q.  Every expectation comes from the law itself (``Law.expect``):
exact sums over finite support, sample means, or adaptive quadrature for
the closed one-dimensional families (Pareto, Student t, log-normal).

The cumulant is a Newton root of its level equation.  The rate function is
a Newton root of grad cumulant(t) = x, whose gradient and Hessian come from
the same pass over the law as the cumulant itself, certified by the
cumulant's tangent planes: two tangents on the line, d + 1 around the
maximizer in dimensions 2 and 3; d > 3 is refused.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extreal import INF
from .laws import Law, LawError, norm_power
from .optim import legendre_max, legendre_max_nd, newton_nonincreasing

log = logging.getLogger("sanovdual")

CONVEX_TOL = 1e-7   # slack of the midpoint convexity records


def check_admissible(law: Law, q: float) -> None:
    """The q-th moment must exist for the declared exponent.  Each public
    entry (``cumulant``, ``rate_function``, ``moment_norm``,
    ``conjugate_pair``) checks once, before any solve; the solves inside
    take the unchecked paths ``_cumulant`` and ``_rate_function``."""
    if not q > 1.0:
        raise LawError("exponent q must exceed 1")
    law.check_moment(q)


def plus_power_moment(law: Law, t, m: float, q: float) -> float:
    """E[ ((1 + <t, X> - m)^+)^q ], the first of ``plus_power_moments``."""
    return float(plus_power_moments(law, t, m, q)[0])


def _power_rows(z, x, q: float, curvature: bool = False) -> np.ndarray:
    """Rows b^q, b^(q-1) and x b^(q-1) for b = z^+ (x: one row per
    dimension), then for ``curvature`` b^(q-2), x b^(q-2) and the k^2 rows
    x x^T b^(q-2), with b^(q-2) = 0 where b = 0."""
    b = np.maximum(z, 0.0)
    p = b ** (q - 1.0)
    xp = x * p
    k = xp.size // p.size
    rows = np.empty((2 + k + (1 + k + k * k) * curvature, p.size))
    rows[0], rows[1], rows[2:2 + k] = p * b, p, xp
    if curvature:
        r = np.divide(p, b, out=np.zeros_like(p), where=b > 0.0)
        xx = x * x if x.ndim == 1 else (x[:, None] * x).reshape(k * k, -1)
        rows[2 + k], rows[3 + k:3 + 2 * k], rows[3 + 2 * k:] = r, x * r, xx * r
    return rows


def plus_power_moments(law: Law, t, m: float, q: float,
                       curvature: bool = False):
    """E[b^q], E[b^(q-1)] and E[X b^(q-1)] for b = (1 + <t, X> - m)^+,
    from one pass over the law (the last has one entry per dimension).
    With ``curvature`` the same pass also gives E[b^(q-2)], E[X b^(q-2)]
    and E[X X^T b^(q-2)], as a fourth entry of 1 + d + d^2 values.

    G(m) = E[b^q] has dG/dm = -q E[b^(q-1)] and gradient q E[X b^(q-1)]
    in t, so where G = 1 the cumulant has gradient
    L' = E[X b^(q-1)] / E[b^(q-1)], and, differentiating once more,
    Hessian L'' = (q - 1) E[(X - L')(X - L')^T b^(q-2)] / E[b^(q-1)].
    """
    t = np.atleast_1d(t)
    ts = float(t[0])

    def rows(x):
        proj = x @ t if x.ndim == 2 else x * ts
        return _power_rows(1.0 + proj - m, x.T, q, curvature)
    sums = law.expect(rows, breaks=((m - 1.0) / ts,) if ts else ())
    if curvature:
        return sums[0], sums[1], sums[2:2 + t.size], sums[2 + t.size:]
    return sums[0], sums[1], sums[2:]


def moment_norm(law: Law, q: float) -> float:
    """M_q = E[||X||^q]^(1/q)."""
    check_admissible(law, q)
    s = law.expect(lambda x: norm_power(x, q), breaks=(0.0,))
    return float(s ** (1.0 / q))


def _check_dimension(law: Law, v: np.ndarray, name: str) -> None:
    """Raise ``LawError`` unless the vector v has the law's dimension."""
    if v.size != law.dim:
        raise LawError(f"{name} has dimension {v.size}, the law dimension "
                       f"{law.dim}")


def cumulant(law: Law, x_star, q: float) -> float:
    """Smallest m with G(m) = E[((1 + <x_star, X> - m)^+)^q] <= 1.

    G is convex and nonincreasing in m, and one pass over the law gives it
    with its slope, so safeguarded Newton steps from the left apply
    (``optim.newton_nonincreasing``, on the cold bracket
    [-2 (1 + |t|), 2 (1 + |t|)], expanded until it holds the root); +inf is
    returned (with a diagnostic) if G never reaches 1.  ``x_star`` must
    have the law's dimension (``LawError`` otherwise).
    """
    check_admissible(law, q)
    return _cumulant(law, x_star, q)[0]


def _cumulant(law: Law, x_star, q: float, start: Optional[float] = None,
              curvature: bool = False):
    """(cumulant, gradient, Hessian) at x_star, for an admissible (law, q).

    ``start`` is a point believed to lie left of the root, such as a lower
    bound from a tangent; it is certified by G > 1 and, if rounding broke
    it, stepped down geometrically from there.  The gradient
    E[X b^(q-1)] / E[b^(q-1)] at the root follows from implicit
    differentiation of G = 1, and so does the (d, d) Hessian, returned
    for ``curvature`` (``plus_power_moments``); each is None where it is
    not finite.  At t = 0 the cumulant is 0 without a search, and its
    derivatives, E[X] and (q - 1) Cov X, cost one pass over the law, made
    only for ``curvature``.
    """
    t = np.atleast_1d(np.asarray(x_star, dtype=float))
    _check_dimension(law, t, "t")

    moments = {}    # m -> the moments behind the gradient and curvature

    def G(m):
        s0, *rest = plus_power_moments(law, t, m, q, curvature)
        moments[m] = rest
        return s0, -q * rest[0]

    if t.any():
        scale = 1.0 + float(np.linalg.norm(t))
        lo, step = -2.0 * scale, 4.0 * scale
        if start is not None and start > lo:
            lo, step = start, 1e-12 * (1.0 + abs(start))
        m = newton_nonincreasing(G, 1.0, lo, 2.0 * scale, step)
        if m == INF:
            log.warning("cumulant: target level never reached")
    elif curvature:     # G(m) = ((1 - m)^+)^q, whose root is 0
        m = 0.0
        G(m)
    else:
        return 0.0, None, None
    if m not in moments:
        return float(m), None, None
    s1, s2, *rows = moments[m]
    grad = s2 / s1
    if not np.isfinite(grad).all():
        return float(m), None, None
    if not curvature:
        return float(m), grad, None
    k = t.size
    r0, r1, r2 = rows[0][0], rows[0][1:1 + k], rows[0][1 + k:].reshape(k, k)
    gr = grad[:, None] * r1
    curv = (q - 1.0) * (r2 - (gr + gr.T) + grad[:, None] * grad * r0) / s1
    return float(m), grad, (curv if np.isfinite(curv).all() else None)


@dataclass(frozen=True)
class RatePoint:
    value: float
    argmax: Optional[np.ndarray]
    status: str  # "ok" | "diverged"
    bound: float  # bounds the supremum; +inf if diverged or uncertified


def rate_function(law: Law, x, q: float) -> RatePoint:
    """sup over dual vectors of <t, x> - cumulant(t), for x of the law's
    dimension, at most 3 (``LawError`` otherwise), by
    ``optim.legendre_max`` (``legendre_max_nd`` in 2 and 3 dimensions) from
    t = 0 with the cumulant's gradient and Hessian, certified within
    ``optim.TOL`` (1 + |value|) by its tangents; "diverged", value +inf,
    where no maximizer lies within the ray radius (``optim.legendre_max``).
    Each cumulant solve starts from the tangent at the point solved last.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size > 3:
        raise LawError("dual search is certified only for d <= 3")
    _check_dimension(law, xv, "x")
    check_admissible(law, q)
    return _rate_function(law, xv, q, None)


def _rate_function(law: Law, xv: np.ndarray, q: float, zero) -> RatePoint:
    """``rate_function`` at a 1-d array x of the law's dimension, for an
    admissible (law, q).  ``zero``, if not None, is
    ``_cumulant(law, 0.0, q, curvature=True)``, the pass at t = 0 that
    every search makes first."""
    d = xv.size
    tangent = None  # the latest (t_i, cumulant(t_i), gradient at t_i)

    def fn(t):
        nonlocal tangent
        t = np.atleast_1d(t)
        start = None
        if tangent is not None:
            t_i, lam_i, grad_i = tangent
            start = lam_i + float(np.dot(grad_i, t - t_i))
        lam, grad, curv = zero if zero is not None and not t.any() else \
            _cumulant(law, t, q, start, curvature=True)
        if grad is not None:
            tangent = (t, lam, grad)
        grad = np.full(d, math.nan) if grad is None else grad
        curv = np.zeros((d, d)) if curv is None else curv
        return (lam, grad, curv) if d > 1 else \
            (lam, float(grad[0]), float(curv[0, 0]))

    t_best, v_best, status, bound = legendre_max_nd(fn, xv) if d > 1 else \
        legendre_max(fn, float(xv[0]))
    if status == "diverged":
        return RatePoint(INF, None, "diverged", INF)
    return RatePoint(v_best, np.atleast_1d(t_best), "ok", bound)


def deviation_bound(r: float, m_q: float, q: float, n: int) -> float:
    """(M_q / (r - M_q))^q * n^(1-q), the explicit mean-deviation bound.

    Only meaningful for r > M_q >= 0, q > 1 and n >= 1; other inputs raise.
    """
    if not m_q >= 0.0:
        raise ValueError("need M_q >= 0")
    if not r > m_q:
        raise ValueError("deviation bound is vacuous unless r > M_q")
    if not q > 1.0:
        raise ValueError("need q > 1")
    if not n >= 1:
        raise ValueError("need n >= 1")
    return float((m_q / (r - m_q)) ** q * n ** (1.0 - q))


@dataclass
class ConjugatePair:
    """Tabulated cumulant / rate-function pair with sanity records."""

    q: float
    p: float
    dual_grid: np.ndarray
    dual_values: np.ndarray
    primal_grid: np.ndarray
    primal_values: np.ndarray
    moment: float
    value_at_zero: float
    convex_dual: bool
    convex_primal: bool
    minorant_ok: bool


def _midpoint_convex(xs: np.ndarray, ys: np.ndarray) -> bool:
    fin = np.isfinite(ys)
    ok = True
    for i in range(1, xs.size - 1):
        if fin[i - 1] and fin[i] and fin[i + 1] and \
                abs(xs[i + 1] - xs[i] - (xs[i] - xs[i - 1])) < 1e-12:
            ok &= ys[i] <= 0.5 * (ys[i - 1] + ys[i + 1]) + CONVEX_TOL
    return bool(ok)


def conjugate_pair(law: Law, q: float, dual_grid, primal_grid) -> ConjugatePair:
    """Evaluate the pair on grids (1-d laws) and record its invariants.
    Every rate point shares one pass over the law at t = 0."""
    check_admissible(law, q)
    dual_grid = np.asarray(dual_grid, dtype=float)
    primal_grid = np.asarray(primal_grid, dtype=float)
    dual_values = np.array([_cumulant(law, t, q)[0] for t in dual_grid])
    zero = _cumulant(law, 0.0, q, curvature=True)
    primal_values = np.array([
        _rate_function(law, np.atleast_1d(x), q, zero).value
        for x in primal_grid])
    mq = moment_norm(law, q)
    minorant = -1.0 + np.abs(primal_grid) / mq
    min_ok = bool((primal_values >= minorant - 1e-6).all())
    return ConjugatePair(
        q=q, p=q / (q - 1.0),
        dual_grid=dual_grid, dual_values=dual_values,
        primal_grid=primal_grid, primal_values=primal_values,
        moment=mq,
        value_at_zero=_cumulant(law, 0.0, q)[0],
        convex_dual=_midpoint_convex(dual_grid, dual_values),
        convex_primal=_midpoint_convex(primal_grid, primal_values),
        minorant_ok=min_ok,
    )
