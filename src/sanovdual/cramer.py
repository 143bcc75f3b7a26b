"""Polynomial-rate deviation apparatus for means of heavy-tailed samples.

The central object is the shortfall analog of the cumulant generating
function for exponent q > 1,

    cumulant(t) = inf{ m : E[ ((1 + <t, X> - m)^+)^q ] <= 1 },

its conjugate rate function, the moment constant E[||X||^q]^(1/q), and the
explicit mean-deviation bound (M_q / (r - M_q))^q * n^(1-q) valid for
r > M_q.  Laws are either empirical samples, finite-support, or closed
one-dimensional families (Pareto, Student t, log-normal); expectations use
exact sums, sample means, or adaptive quadrature accordingly.

Dual searches are certified only in dimension d <= 3.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extreal import INF
from .laws import (EmpiricalLaw, FiniteSupportLaw, Law, LawError, ParetoLaw,
                   StudentTLaw)
from .optim import coordinate_ascent_box, golden_max, newton_nonincreasing
from .quadrature import expect as _expect

log = logging.getLogger("sanovdual")


def check_admissible(law: Law, q: float) -> None:
    """The q-th moment must exist for the declared exponent."""
    if not q > 1.0:
        raise LawError("exponent q must exceed 1")
    if isinstance(law, ParetoLaw) and not law.a > q:
        raise LawError(f"Pareto tail a={law.a} does not integrate |x|^{q}")
    if isinstance(law, StudentTLaw) and not law.df > q:
        raise LawError(f"Student t df={law.df} does not integrate |x|^{q}")


def _discrete(law: Law, t: np.ndarray):
    """Points, their projections <t, x> and weights (None for equal ones)
    of a finite or empirical law."""
    if isinstance(law, FiniteSupportLaw):
        pts, w = law.atoms, law.weights
    else:
        pts, w = law.samples, None
    proj = pts @ t if pts.ndim == 2 else pts * float(t[0])
    return pts, proj, w


def plus_power_moment(law: Law, t, m: float, q: float) -> float:
    """E[ ((1 + <t, X> - m)^+)^q ]."""
    t = np.atleast_1d(t)
    if isinstance(law, (FiniteSupportLaw, EmpiricalLaw)):
        _, proj, w = _discrete(law, t)
        base = np.maximum(1.0 + proj - m, 0.0) ** q
        return float(np.mean(base) if w is None else np.dot(w, base))
    ts = float(t[0])
    if ts == 0.0:
        return max(1.0 - m, 0.0) ** q
    kink = (m - 1.0) / ts
    return _expect(law.pdf, *law.support,
                   lambda x: np.maximum(1.0 + ts * x - m, 0.0) ** q,
                   breaks=(kink,))


def _power_rows(z, x, q: float) -> np.ndarray:
    """Rows b^q, b^(q-1) and x b^(q-1) for b = z^+ (x: one row per
    dimension)."""
    b = np.maximum(z, 0.0)
    p = b ** (q - 1.0)
    xp = x * p
    rows = np.empty((2 + xp.size // p.size, p.size))
    rows[0], rows[1], rows[2:] = p * b, p, xp
    return rows


def plus_power_moments(law: Law, t, m: float, q: float):
    """E[b^q], E[b^(q-1)] and E[X b^(q-1)] for b = (1 + <t, X> - m)^+,
    from one pass over the law (the last has one entry per dimension);
    t must be nonzero for a continuous law.

    G(m) = E[b^q] has dG/dm = -q E[b^(q-1)] and gradient q E[X b^(q-1)]
    in t, so where G = 1 the cumulant has gradient
    E[X b^(q-1)] / E[b^(q-1)].
    """
    t = np.atleast_1d(t)
    if isinstance(law, (FiniteSupportLaw, EmpiricalLaw)):
        pts, proj, w = _discrete(law, t)
        rows = _power_rows(1.0 + proj - m, pts.T, q)
        sums = rows.mean(axis=1) if w is None else rows @ w
        return sums[0], sums[1], sums[2:]
    ts = float(t[0])
    sums = _expect(law.pdf, *law.support,
                   lambda x: _power_rows(1.0 + ts * x - m, x, q),
                   breaks=((m - 1.0) / ts,))
    return sums[0], sums[1], sums[2:]


def moment_norm(law: Law, q: float) -> float:
    """M_q = E[||X||^q]^(1/q)."""
    check_admissible(law, q)
    if isinstance(law, FiniteSupportLaw):
        mags = np.abs(law.atoms) if law.atoms.ndim == 1 \
            else np.linalg.norm(law.atoms, axis=1)
        return float(np.dot(law.weights, mags ** q) ** (1.0 / q))
    if isinstance(law, EmpiricalLaw):
        mags = np.abs(law.samples) if law.samples.ndim == 1 \
            else np.linalg.norm(law.samples, axis=1)
        return float(np.mean(mags ** q) ** (1.0 / q))
    return float(_expect(law.pdf, *law.support, lambda x: np.abs(x) ** q,
                         breaks=(0.0,)) ** (1.0 / q))


def cumulant(law: Law, x_star, q: float) -> float:
    """Smallest m with G(m) = E[((1 + <x_star, X> - m)^+)^q] <= 1.

    G is convex and nonincreasing in m, and one pass over the law gives it
    with its slope, so safeguarded Newton steps from the left apply
    (``optim.newton_nonincreasing``, on the cold bracket
    [-2 (1 + |t|), 2 (1 + |t|)], expanded until it holds the root); +inf is
    returned (with a diagnostic) if G never reaches 1.
    """
    return _cumulant(law, x_star, q)[0]


def _cumulant(law: Law, x_star, q: float, start: Optional[float] = None):
    """(cumulant, gradient) at x_star.

    ``start`` is a point believed to lie left of the root, such as a lower
    bound from a tangent; it is certified by G > 1 and, if rounding broke
    it, stepped down geometrically from there.  The gradient
    E[X b^(q-1)] / E[b^(q-1)] at the root follows from implicit
    differentiation of G = 1; it is None at t = 0, where the cumulant is 0
    without a search, and where it is not finite.
    """
    check_admissible(law, q)
    t = np.atleast_1d(np.asarray(x_star, dtype=float))

    def G(m):
        s0, s1, s2 = plus_power_moments(law, t, m, q)
        return s0, -q * s1, (s1, s2)

    if not t.any():     # G(m) = ((1 - m)^+)^q, whose root is 0
        return 0.0, None
    scale = 1.0 + float(np.linalg.norm(t))
    lo, step = -2.0 * scale, 4.0 * scale
    if start is not None and start > lo:
        lo, step = start, 1e-12 * (1.0 + abs(start))
    m, moments = newton_nonincreasing(G, 1.0, lo, 2.0 * scale, step)
    if m == INF:
        log.warning("cumulant: target level never reached")
    if moments is None:
        return float(m), None
    s1, s2 = moments
    grad = s2 / s1
    return float(m), (grad if np.isfinite(grad).all() else None)


@dataclass(frozen=True)
class RatePoint:
    value: float
    argmax: Optional[np.ndarray]
    status: str  # "ok" | "diverged"


def rate_function(law: Law, x, q: float, ray_radius: float = 1e3) -> RatePoint:
    """sup over dual vectors of <t, x> - cumulant(t), for dim <= 3.

    Coarse grid plus coordinate-wise golden section; if the objective is
    still growing on the box of radius ``ray_radius`` the value is +inf.
    The cumulant is convex, so its tangent at the point searched last
    bounds it from below; each Newton solve starts from that tangent.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    d = xv.size
    if d > 3:
        raise LawError("dual search is certified only for d <= 3")
    tangent = None  # the latest (t_i, cumulant(t_i), gradient at t_i)

    def g(t):
        nonlocal tangent
        start = None
        if tangent is not None:
            t_i, lam_i, grad_i = tangent
            start = lam_i + float(np.dot(grad_i, t - t_i))
        lam, grad = _cumulant(law, t, q, start)
        if grad is not None:    # copied: the coordinate ascent mutates t
            tangent = (np.array(t), lam, grad)
        return float(np.dot(xv, t)) - lam

    if d == 1:
        lo, hi = -1.0, 1.0
        for _ in range(40):
            t_best, v_best = golden_max(lambda s: g(np.array([s])), lo, hi,
                                        tol=1e-11)
            at_edge = min(t_best - lo, hi - t_best) < 0.05 * (hi - lo)
            if not at_edge:
                return RatePoint(v_best, np.array([t_best]), "ok")
            if hi - lo >= 2.0 * ray_radius:
                return RatePoint(INF, None, "diverged")
            lo *= 2.0
            hi *= 2.0
        return RatePoint(v_best, np.array([t_best]), "ok")

    grid = np.linspace(-2.0, 2.0, 7)
    mesh = np.stack(np.meshgrid(*([grid] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)
    vals = [g(t) for t in mesh]
    t0 = mesh[int(np.argmax(vals))]
    for radius in (16.0, ray_radius):
        t_star, v_star = coordinate_ascent_box(g, t0, -radius, radius,
                                               sweeps=30)
        if radius == 16.0:
            v_inner = v_star
            t0 = t_star
    if v_star > v_inner + 1e-6 * (1.0 + abs(v_inner)):
        return RatePoint(INF, None, "diverged")
    return RatePoint(v_star, t_star, "ok")


def deviation_bound(r: float, m_q: float, q: float, n: int) -> float:
    """(M_q / (r - M_q))^q * n^(1-q), the explicit mean-deviation bound.

    Only meaningful for r > M_q; smaller radii raise.
    """
    if not r > m_q:
        raise ValueError("deviation bound is vacuous unless r > M_q")
    if not q > 1.0:
        raise ValueError("need q > 1")
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

    def csv_rows(self, which: str) -> list[tuple]:
        if which == "dual":
            return list(zip(self.dual_grid.tolist(), self.dual_values.tolist()))
        return list(zip(self.primal_grid.tolist(), self.primal_values.tolist()))


def _midpoint_convex(xs: np.ndarray, ys: np.ndarray, tol: float = 1e-7) -> bool:
    fin = np.isfinite(ys)
    ok = True
    for i in range(1, xs.size - 1):
        if fin[i - 1] and fin[i] and fin[i + 1] and \
                abs(xs[i + 1] - xs[i] - (xs[i] - xs[i - 1])) < 1e-12:
            ok &= ys[i] <= 0.5 * (ys[i - 1] + ys[i + 1]) + tol
    return bool(ok)


def conjugate_pair(law: Law, q: float, dual_grid, primal_grid) -> ConjugatePair:
    """Evaluate the pair on grids (1-d laws) and record its invariants."""
    check_admissible(law, q)
    dual_grid = np.asarray(dual_grid, dtype=float)
    primal_grid = np.asarray(primal_grid, dtype=float)
    dual_values = np.array([cumulant(law, t, q) for t in dual_grid])
    primal_values = np.array([rate_function(law, x, q).value
                              for x in primal_grid])
    mq = moment_norm(law, q)
    minorant = -1.0 + np.abs(primal_grid) / mq
    min_ok = bool((primal_values >= minorant - 1e-6).all())
    return ConjugatePair(
        q=q, p=q / (q - 1.0),
        dual_grid=dual_grid, dual_values=dual_values,
        primal_grid=primal_grid, primal_values=primal_values,
        moment=mq,
        value_at_zero=cumulant(law, 0.0, q),
        convex_dual=_midpoint_convex(dual_grid, dual_values),
        convex_primal=_midpoint_convex(primal_grid, primal_values),
        minorant_ok=min_ok,
    )
