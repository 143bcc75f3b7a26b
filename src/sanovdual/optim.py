"""Small deterministic optimization utilities shared across modules.

Everything here is plain numpy:

* Euclidean projection onto the probability simplex;
* one batched projected gradient ascent with Armijo backtracking, over
  simplices and products of simplices;
* golden-section line search and one safeguarded Newton root finder for
  the risks and penalty infima, both on scalar or (B,)-array brackets;
* simplex grids and cyclic coordinate ascent on a box.

A search that exhausts its iteration cap unconverged logs a ``sanovdual``
warning naming the solver and its last bracket.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

import numpy as np

from .extreal import INF, NEG_INF
from .spaces import type_index

log = logging.getLogger("sanovdual")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def project_simplex(v: np.ndarray, support=None) -> np.ndarray:
    """Euclidean projection of each row (last axis) of v onto the simplex.

    Entries where ``support``, broadcast against v, is False are held at 0,
    so each row lands on the face spanned by its other entries.
    """
    v = np.asarray(v, dtype=float)
    if support is not None:
        v = np.where(support, v, NEG_INF)
    V = v.reshape(-1, v.shape[-1])
    u = -np.sort(-V, axis=1)
    css = np.cumsum(u, axis=1)
    j = np.arange(1, V.shape[1] + 1)
    with np.errstate(invalid="ignore"):     # -inf + inf on masked entries
        cond = u + (1.0 - css) / j > 0.0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    lam = (1.0 - css[np.arange(V.shape[0]), rho]) / (rho + 1.0)
    out = np.maximum(V + lam[:, None], 0.0)
    return out.reshape(v.shape)


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


def newton_nonincreasing(G: Callable, target: float, lo, hi, step,
                         max_iter: int = 200):
    """Smallest m with G(m) <= target, per row, for G continuous and
    nonincreasing in each row, by safeguarded Newton steps (rtsafe,
    Press et al., Numerical Recipes, section 9.4).

    With scalar brackets ``G(m)`` maps a float to the pair (G(m), G'(m));
    with (B,) arrays of brackets and steps it maps a (B,) array of levels
    to a pair of (B,) arrays.  ``lo`` first steps down by ``step``,
    ``2 step``, ... until G(lo) > target (-inf if it never does); the
    points it leaves are upper ends.  Every Newton step starts at lo; it
    overshoots the root only where G is not convex, which costs speed, as
    the point reached becomes hi and the bracket stays certified.
    A Newton step is refused if it has no negative slope to follow, or if
    it neither halves the bracket nor is at most half the step before it.
    A step that reaches a known upper end hi means lo lies within rounding
    of the root: it probes hi - tol/2 instead, unless the step before was
    such a probe, so that hi cannot crawl down by tol/2 per step.  A
    refused step bisects the bracket; while no upper end is known it tries
    ``hi`` instead, and each try moves ``hi`` up by a doubling width, as a
    bracket expansion would.  A step shorter than tol/2 is a probe at
    lo + tol/2, which closes the bracket.

    A row stops, and keeps its state, once G(hi) <= target < G(lo) with
    hi - lo <= tol = 1e-12 (1 + |hi|); it returns hi.  A row with no upper
    end after ``max_iter`` steps is +inf.
    """
    where, any_, all_, lo, hi = _namespace(lo, hi)
    upper, width = hi, where(hi - lo > 1.0, hi - lo, 1.0)
    hi = last = lo + INF        # no upper end yet, and no step before
    for _ in range(200):
        value, slope = G(lo)
        above = value <= target     # lo is an upper end: step it down
        if not any_(above):
            break
        hi = where(above, lo, hi)
        lo = where(above, lo - step, lo)
        step = where(above, 2.0 * step, step)
    never = above
    probed = hi < lo            # False per row
    for it in range(max_iter + 1):
        tol = 1e-12 * (1.0 + abs(where(hi < INF, hi, lo)))
        done = never | (hi - lo <= tol)
        if all_(done):
            break
        if it == max_iter:
            _warn_open("newton_nonincreasing", max_iter, done, lo, hi)
            break
        descent = slope < 0.0
        d = where(descent, (value - target) / where(descent, -slope, 1.0),
                  INF)
        reach = where(probed, False, descent & (d >= hi - lo))
        newton = reach | ((d < hi - lo) &
                          ((d <= 0.5 * last) | (2.0 * d >= hi - lo)))
        x = lo + where(d > 0.5 * tol, d, 0.5 * tol)
        x = where(newton, where(x < hi - 0.5 * tol, x, hi - 0.5 * tol),
                  where(hi < INF, 0.5 * (lo + hi),
                        where(upper > lo + width, upper, lo + width)))
        grow = where(newton, False, hi == INF)
        upper = where(grow, x + width, upper)
        width = where(grow, 2.0 * width, width)
        last, probed = x - lo, reach
        value_x, slope_x = G(x)
        below = value_x <= target
        new = (where(below, lo, x), where(below, x, hi),
               where(below, value, value_x), where(below, slope, slope_x))
        if any_(done):      # rows already within tolerance keep their state
            new = [where(done, o, n)
                   for o, n in zip((lo, hi, value, slope), new)]
        lo, hi, value, slope = new
    return where(never, NEG_INF, hi)


# perfbench/tracer.py reads it; ROADMAP item 1 deletes it
bisect_nonincreasing = newton_nonincreasing


def _warn_open(solver: str, max_iter: int, done, lo, hi) -> None:
    """Log a solver that ran out of iterations with rows still open."""
    open_ = ~np.asarray(done, dtype=bool).ravel()
    i = int(np.argmax(open_))
    log.warning("%s: %d iterations left %d row(s) open, last bracket "
                "[%.17g, %.17g]", solver, max_iter, int(open_.sum()),
                np.ravel(lo)[i], np.ravel(hi)[i])


def simplex_grid(m: int, step: float) -> np.ndarray:
    """Regular grid on the probability simplex with the given mesh step."""
    k = max(int(round(1.0 / step)), 1)
    return type_index(k, m) / k


def numeric_tangent_grad(fn: Callable[[np.ndarray], np.ndarray],
                         X: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a rows-in, values-out ``fn`` at each
    row of X, of shape (k, ...), from one ``fn`` call on the k (2n + 1)
    rows X, X + h e_i and X - h e_i (n entries per row, h = 1e-7).

    Where one probe is not finite the difference is one-sided; where
    neither is, the entry is 0.
    """
    X = np.asarray(X, dtype=float)
    k, shape = X.shape[0], X.shape[1:]
    n = int(np.prod(shape))
    h = 1e-7
    eye = np.eye(n)
    steps = np.concatenate([np.zeros((1, n)), h * eye, -h * eye])
    probes = (X.reshape(k, 1, n) + steps).reshape((-1,) + shape)
    vals = np.asarray(fn(probes), dtype=float).reshape(k, 2 * n + 1)
    fx, up, dn = vals[:, :1], vals[:, 1:n + 1], vals[:, n + 1:]
    fin_up, fin_dn = np.isfinite(up), np.isfinite(dn)
    with np.errstate(invalid="ignore"):
        g = np.where(fin_up & fin_dn, (up - dn) / (2 * h),
                     np.where(fin_up, (up - fx) / h,
                              np.where(fin_dn, (fx - dn) / h, 0.0)))
    return g.reshape(X.shape)


def _row_sums(A: np.ndarray) -> np.ndarray:
    return np.add.reduce(A.reshape(len(A), -1), axis=1)


def pgd_max_simplex(objective: Callable[[np.ndarray], np.ndarray],
                    x0: np.ndarray,
                    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    max_iter: int = 500,
                    grad_tol: float = 1e-9,
                    ftol: float = 1e-13,
                    support: Optional[np.ndarray] = None):
    """Maximize a concave function over the simplex, or over a product of
    simplices, by projected gradient ascent with Armijo backtracking along
    the projection arc (Bertsekas 1976).

    Starts are rows: ``x0`` is one point (m,), a batch (B, m), or a batch
    (B, r, m) of kernels whose r rows each lie in a simplex.  ``objective``
    maps a (k, ...) stack of points to their (k,) values and ``gradient``
    to their (k, ...) gradients (central differences by default).  Both
    see only the rows still running, so each row makes the evaluations it
    would make alone.  Entries where ``support`` (broadcast against one
    start) is False stay at 0.  The objective may return -inf off its
    effective domain: backtracking rejects steps that land there, and a row
    that starts there is returned as it is.

    A row stops when 60 halvings of the unit step find no gain of
    1e-4 <g, d>, after two gains in a row below ftol (1 + |f|), or when
    its projected gradient is shorter than ``grad_tol``.  Rows still
    running after ``max_iter`` iterations are logged, with the values
    before and after their last step.  Returns (points, values) in the
    shape of ``x0``; the value of a single point is a float.
    """
    X0 = np.asarray(x0, dtype=float)
    single = X0.ndim == 1
    X = project_simplex(X0[None] if single else X0, support)
    fx = np.array(objective(X), dtype=float)
    before = fx.copy()
    grad = gradient if gradient is not None else (
        lambda Z: numeric_tangent_grad(objective, Z))
    per_row = (slice(None),) + (None,) * (X.ndim - 1)
    stall = np.zeros(fx.size, dtype=int)
    run = np.isfinite(fx)
    for _ in range(max_iter):
        rows = np.flatnonzero(run)
        if rows.size == 0:
            break
        g = grad(X[rows])
        g = np.where(np.isfinite(g), g, 0.0)
        t = np.ones(rows.size)
        moved = np.zeros(rows.size, dtype=bool)
        search = np.arange(rows.size)       # rows still backtracking
        for _ in range(60):
            i, gs = rows[search], g[search]
            Xi = X[i]
            Y = project_simplex(Xi + t[search][per_row] * gs, support)
            D = Y - Xi
            far = np.sqrt(_row_sums(D * D)) >= 1e-16
            if not far.all():
                search, i, gs, Y, D = (a[far] for a in (search, i, gs, Y, D))
                if search.size == 0:
                    break
            fy = np.asarray(objective(Y), dtype=float)
            ok = np.isfinite(fy) & (fy >= fx[i] + 1e-4 * _row_sums(gs * D))
            if ok.any():
                i, fy = i[ok], fy[ok]
                gain = fy - fx[i]
                before[i] = fx[i]
                X[i], fx[i] = Y[ok], fy
                stall[i] = np.where(gain <= ftol * (1.0 + np.abs(fy)),
                                    stall[i] + 1, 0)
                moved[search[ok]] = True
                search = search[~ok]
            if search.size == 0:
                break
            t[search] *= 0.5
        go = moved & (stall[rows] < 2)
        run[rows] = go
        if go.any():
            i = rows[go]
            pg = project_simplex(X[i] + g[go], support) - X[i]
            run[i[np.sqrt(_row_sums(pg * pg)) <= grad_tol]] = False
    else:
        if run.any():
            _warn_open("pgd_max_simplex", max_iter, ~run, before, fx)
    if single:
        return X[0], float(fx[0])
    return X, fx


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
