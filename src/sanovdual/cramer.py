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
from .optim import bisect_nonincreasing, coordinate_ascent_box, golden_max
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


def plus_power_moment(law: Law, t, m: float, q: float) -> float:
    """E[ ((1 + <t, X> - m)^+)^q ]."""
    if isinstance(law, FiniteSupportLaw):
        proj = law.atoms @ np.atleast_1d(t) if law.atoms.ndim == 2 \
            else law.atoms * float(np.atleast_1d(t)[0])
        base = np.maximum(1.0 + proj - m, 0.0) ** q
        return float(np.dot(law.weights, base))
    if isinstance(law, EmpiricalLaw):
        proj = law.samples @ np.atleast_1d(t) if law.samples.ndim == 2 \
            else law.samples * float(np.atleast_1d(t)[0])
        return float(np.mean(np.maximum(1.0 + proj - m, 0.0) ** q))
    ts = float(np.atleast_1d(t)[0])
    if ts == 0.0:
        return max(1.0 - m, 0.0) ** q
    kink = (m - 1.0) / ts
    return _expect(law.pdf, *law.support,
                   lambda x: np.maximum(1.0 + ts * x - m, 0.0) ** q,
                   breaks=(kink,))


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
    """Smallest m with E[((1 + <x_star, X> - m)^+)^q] <= 1.

    The expectation is continuous and nonincreasing in m, so bisection
    applies; +inf is returned (with a diagnostic) if the expanded bracket
    never crosses 1.
    """
    check_admissible(law, q)
    t = np.atleast_1d(np.asarray(x_star, dtype=float))

    def G(m):
        return plus_power_moment(law, t, m, q)

    scale = 1.0 + float(np.linalg.norm(t))
    m = bisect_nonincreasing(G, 1.0, -2.0 * scale, 2.0 * scale, rel_tol=1e-12)
    if m == INF:
        log.warning("cumulant: target level never reached on the bracket")
    return m


@dataclass(frozen=True)
class RatePoint:
    value: float
    argmax: Optional[np.ndarray]
    status: str  # "ok" | "diverged"


def rate_function(law: Law, x, q: float, ray_radius: float = 1e3) -> RatePoint:
    """sup over dual vectors of <t, x> - cumulant(t), for dim <= 3.

    Coarse grid plus coordinate-wise golden section; if the objective is
    still growing on the box of radius ``ray_radius`` the value is +inf.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    d = xv.size
    if d > 3:
        raise LawError("dual search is certified only for d <= 3")

    def g(t):
        return float(np.dot(xv, t)) - cumulant(law, t, q)

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
