"""Small deterministic optimization utilities shared across modules.

Everything here is plain numpy: Euclidean projection onto the probability
simplex, projected gradient ascent with Armijo backtracking, golden-section
line search, monotone bisection, a safeguarded Newton root finder and
simplex grids.  A search that exhausts its iteration cap unconverged logs a
``sanovdual`` warning naming the solver and its last bracket.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

import numpy as np

from .extreal import INF, NEG_INF
from .spaces import type_index

log = logging.getLogger("sanovdual")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v (1-D or rows of 2-D) onto the simplex."""
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    V = v[None, :] if single else v
    u = -np.sort(-V, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, V.shape[1] + 1)
    cond = u + (1.0 - css) / j > 0.0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    lam = (1.0 - css[np.arange(V.shape[0]), rho]) / (rho + 1.0)
    out = np.maximum(V + lam[:, None], 0.0)
    return out[0] if single else out


def _pick(cond, a, b):
    """np.where for a single boolean: keeps scalar searches on Python
    floats, at Python speed."""
    return a if cond else b


def _namespace(lo, hi):
    """(where, any, all, lo, hi) for scalar or (B,)-array brackets."""
    if np.ndim(lo) == 0:
        return _pick, bool, bool, float(lo), float(hi)
    return (np.where, np.ndarray.any, np.ndarray.all,
            np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def golden_min(fn: Callable, lo, hi, tol: float = 1e-12, max_iter: int = 200):
    """Golden-section minimum of a unimodal function on [lo, hi].

    With scalar brackets ``fn`` maps a float to a float.  With (B,) arrays
    of brackets it maps a (B,) array of points to their (B,) values, and
    each row stops on its own tolerance.  Either way ``fn`` is evaluated
    once per iteration.
    """
    where, any_, all_, a, b = _namespace(lo, hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for it in range(max_iter + 1):
        done = b - a <= tol * (1.0 + abs(a) + abs(b))
        if all_(done):
            break
        if it == max_iter:
            _warn_open("golden_min", max_iter, done, a, b)
            break
        left = fc <= fd
        na, nb = where(left, a, c), where(left, d, b)
        x = where(left, nb - GOLDEN * (nb - na), na + GOLDEN * (nb - na))
        fx = fn(x)
        new = (na, nb, where(left, x, d), where(left, c, x),
               where(left, fx, fd), where(left, fc, fx))
        if any_(done):     # rows already within tolerance keep their state
            new = [where(done, o, n)
                   for o, n in zip((a, b, c, d, fc, fd), new)]
        a, b, c, d, fc, fd = new
    best = fc <= fd
    return where(best, c, d), where(best, fc, fd)


def golden_max(fn, lo, hi, tol=1e-12, max_iter=200):
    x, v = golden_min(lambda t: -fn(t), lo, hi, tol, max_iter)
    return x, -v


def grid_then_golden_min(fn, lo, hi, coarse: int = 121, tol: float = 1e-12):
    """Coarse scan to bracket the minimum, then golden section inside."""
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, coarse - 1)]
    return golden_min(fn, a, b, tol=tol)


def bisect_nonincreasing(G: Callable, target: float, lo, hi,
                         rel_tol: float = 1e-10, max_iter: int = 300):
    """Smallest m with G(m) <= target, per row, for G nonincreasing and
    continuous in each row.

    With scalar brackets G maps a float to a float.  With (B,) arrays of
    brackets it maps a (B,) array of levels to their (B,) values.  Each
    bracket is expanded geometrically until G(lo) > target and
    G(hi) <= target.  A row whose upper end never crosses the target is
    +inf, one whose lower end never does is -inf.  Bisection runs until
    every bracketed row is narrower than rel_tol.
    """
    where, _, all_, lo, hi = _namespace(lo, hi)
    width = where(hi - lo > 1.0, hi - lo, 1.0)
    for _ in range(200):
        crossed = G(hi) <= target
        if all_(crossed):
            break
        hi = where(crossed, hi, hi + width)
        width = where(crossed, width, width * 2.0)
    never_below = where(crossed, False, True)
    width = where(hi - lo > 1.0, hi - lo, 1.0)
    for _ in range(200):
        crossed = never_below | (G(lo) > target)
        if all_(crossed):
            break
        lo = where(crossed, lo, lo - width)
        width = where(crossed, width, width * 2.0)
    always_below = where(crossed, False, True)
    if not all_(never_below | always_below):
        # Rows without a bracket collapse to a point and stop at once.
        lo = where(never_below | always_below, hi, lo)
        done = hi <= lo
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            below = G(mid) <= target
            hi = where(below, mid, hi)
            lo = where(below, lo, mid)
            done = hi - lo <= rel_tol * (1.0 + abs(mid))
            if all_(done):
                break
        else:
            _warn_open("bisect_nonincreasing", max_iter, done, lo, hi)
    return where(never_below, INF, where(always_below, NEG_INF, hi))


def newton_nonincreasing(G: Callable, target: float, lo: float, hi: float,
                         step: float, max_iter: int = 200):
    """Smallest m with G(m) <= target, for a scalar G that is convex,
    continuous and nonincreasing, by safeguarded Newton steps.

    ``G(m)`` returns ``(G(m), G'(m), extra)`` from one evaluation; the
    result is ``(m, extra at m)``.  ``lo`` first steps down by ``step``,
    ``2 step``, ... until G(lo) > target (-inf, with ``extra`` None, if it
    never does); the points it leaves are upper ends.  From a left point a
    Newton step on a convex G lands at most on the root, so every Newton
    step starts at lo.  A Newton step is refused if it leaves the bracket,
    has no negative slope to follow, or neither halves the bracket nor is
    at most half the step before it.  A refused step bisects the bracket;
    while no upper end is known it tries ``hi`` instead, and each try moves
    ``hi`` up by a doubling width, as a bracket expansion would.  A step
    shorter than tol/2 is a probe at lo + tol/2, which closes the bracket.
    m is returned only once G(m) <= target < G(lo) with
    m - lo <= 1e-12 (1 + |m|); +inf if no upper end turns up in
    ``max_iter`` steps.
    """
    upper, width = hi, max(hi - lo, 1.0)
    hi, at_hi = INF, None
    for _ in range(200):
        at_lo = G(lo)
        if at_lo[0] > target:
            break
        hi, at_hi = lo, at_lo
        lo -= step
        step *= 2.0
    else:
        return NEG_INF, None
    last = INF
    for _ in range(max_iter):
        tol = 1e-12 * (1.0 + abs(lo if hi == INF else hi))
        if hi - lo <= tol:
            return hi, at_hi[2]
        value, slope, _ = at_lo
        d = (value - target) / -slope if slope < 0.0 else INF
        if d < hi - lo and (d <= 0.5 * last or 2.0 * d >= hi - lo):
            x = min(lo + max(d, 0.5 * tol), hi - 0.5 * tol)
        elif hi < INF:
            x = 0.5 * (lo + hi)
        else:
            x = max(upper, lo + width)
            upper = x + width
            width *= 2.0
        last = x - lo
        at_x = G(x)
        if at_x[0] <= target:
            hi, at_hi = x, at_x
        else:
            lo, at_lo = x, at_x
    _warn_open("newton_nonincreasing", max_iter, False, lo, hi)
    return hi, (None if at_hi is None else at_hi[2])


def _warn_open(solver: str, max_iter: int, done, lo, hi) -> None:
    """Log a solver that ran out of iterations with rows still open."""
    open_ = ~np.asarray(done, dtype=bool).ravel()
    i = int(np.argmax(open_))
    log.warning("%s: %d iterations left %d row(s) open, last bracket "
                "[%g, %g]", solver, max_iter, int(open_.sum()),
                np.ravel(lo)[i], np.ravel(hi)[i])


def simplex_grid(m: int, step: float) -> np.ndarray:
    """Regular grid on the probability simplex with the given mesh step."""
    k = max(int(round(1.0 / step)), 1)
    return type_index(k, m) / k


def numeric_tangent_grad(fn: Callable[[np.ndarray], float], x: np.ndarray,
                         h: float = 1e-7) -> np.ndarray:
    """Central-difference gradient, usable on the simplex interior."""
    g = np.zeros_like(x)
    fx = None
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        up = fn(x + e)
        dn = fn(x - e)
        if np.isfinite(up) and np.isfinite(dn):
            g[i] = (up - dn) / (2 * h)
        else:
            if fx is None:
                fx = fn(x)
            if np.isfinite(up):
                g[i] = (up - fx) / h
            elif np.isfinite(dn):
                g[i] = (fx - dn) / h
            else:
                g[i] = 0.0
    return g


def pgd_max_simplex(objective: Callable[[np.ndarray], float],
                    x0: np.ndarray,
                    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    max_iter: int = 500,
                    grad_tol: float = 1e-9,
                    step0: float = 1.0,
                    ftol: float = 1e-13) -> tuple[np.ndarray, float]:
    """Maximize a concave function over the simplex by projected gradient
    ascent with Armijo backtracking.

    ``gradient`` may be None, in which case central differences are used.
    The objective may return -inf off its effective domain; backtracking
    rejects steps that land there.
    """
    x = project_simplex(np.asarray(x0, dtype=float))
    fx = objective(x)
    if not np.isfinite(fx):
        return x, fx
    grad = gradient if gradient is not None else (
        lambda z: numeric_tangent_grad(objective, z))
    stall = 0
    for _ in range(max_iter):
        g = grad(x)
        g = np.where(np.isfinite(g), g, 0.0)
        t = step0
        moved = False
        for _ in range(60):
            y = project_simplex(x + t * g)
            d = y - x
            nd = float(np.linalg.norm(d))
            if nd < 1e-16:
                break
            fy = objective(y)
            if np.isfinite(fy) and fy >= fx + 1e-4 * float(np.dot(g, d)):
                gain = fy - fx
                x, fx = y, fy
                moved = True
                stall = stall + 1 if gain <= ftol * (1.0 + abs(fx)) else 0
                break
            t *= 0.5
        if not moved or stall >= 2:
            break
        # Projected-gradient stationarity check.
        pg = project_simplex(x + g) - x
        if float(np.linalg.norm(pg)) <= grad_tol:
            break
    return x, fx


def coordinate_ascent_box(objective: Callable[[np.ndarray], float],
                          x0: np.ndarray, lo: float, hi: float,
                          sweeps: int = 50, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Cyclic coordinate maximization over the box [lo, hi]^d."""
    x = np.asarray(x0, dtype=float).copy()
    fx = objective(x)
    for _ in range(sweeps):
        improved = 0.0
        for i in range(x.size):
            def slice_fn(t, i=i):
                y = x.copy()
                y[i] = t
                return objective(y)
            ti, vi = golden_max(slice_fn, lo, hi, tol=1e-11)
            if vi > fx + 1e-15:
                improved += vi - fx
                x[i], fx = ti, vi
        if improved <= tol:
            break
    return x, fx
