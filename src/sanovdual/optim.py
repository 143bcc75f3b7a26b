"""Small deterministic optimization utilities shared across modules.

Everything here is plain numpy:

* Euclidean projection onto the probability simplex;
* one batched projected gradient ascent with Armijo backtracking, over
  simplices and products of simplices, on one evaluator of the caller's
  values and exact (super)gradients;
* one safeguarded Newton root finder for the risks and penalty infima,
  and golden-section line search, on scalar or (B,)-array brackets; no
  ``src/`` code calls the line search: the tests and the benchmark's
  tracer (``perfbench/tracer.py``) use it;
* the Legendre transform of a convex function, on the line and in R^d,
  by Newton steps certified by tangent planes, for the rate function and
  the Azuma conjugate;
* simplex grids.

The root finder, the line search and both Legendre transforms share one
relative tolerance ``TOL`` and one step cap ``STEP_CAP``, and both
transforms search within ``RAY_RADIUS`` of 0.  A search that exhausts its
iteration cap unconverged logs a ``sanovdual`` warning naming the solver
and its last bracket.
"""

from __future__ import annotations

import logging
import math
from typing import Callable, Optional

import numpy as np

from .extreal import INF, NEG_INF
from .spaces import type_index

log = logging.getLogger("sanovdual")

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

TOL = 1e-12
STEP_CAP = 200
RAY_RADIUS = 1e3


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
    """(where, any, all, lo, hi) for scalar or (B,)-array brackets; array
    brackets are copied, so the caller's arrays are never written to."""
    if np.ndim(lo) == 0:
        return _pick, bool, bool, float(lo), float(hi)
    return (np.where, np.ndarray.any, np.ndarray.all,
            np.array(lo, dtype=float), np.array(hi, dtype=float))


def golden_min(fn: Callable, lo, hi):
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
    for it in range(STEP_CAP + 1):
        done = b - a <= TOL * (1.0 + abs(a) + abs(b))
        if all_(done):
            break
        if it == STEP_CAP:
            _warn_open("golden_min", STEP_CAP, done, a, b)
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


def newton_nonincreasing(G: Callable, target: float, lo, hi, step):
    """Smallest m with G(m) <= target, per row, for G continuous and
    nonincreasing in each row, by safeguarded Newton steps (rtsafe,
    Press et al., Numerical Recipes, section 9.4).

    With scalar brackets ``G(m)`` maps a float to the pair (G(m), G'(m));
    with (B,) arrays of brackets and steps it maps a (B,) array of levels
    to a pair of (B,) arrays.  ``lo`` first steps down by ``step``,
    ``2 step``, ... until G(lo) > target (-inf if it never does within
    ``STEP_CAP`` steps); the points it leaves are upper ends.  Every Newton
    step starts at lo; it overshoots the root only where G is not convex,
    which costs speed, as the point reached becomes hi and the bracket
    stays certified.
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
    hi - lo <= tol = ``TOL`` (1 + |hi|); it returns hi.  A row with no upper
    end after ``STEP_CAP`` steps is +inf.
    """
    where, any_, all_, lo, hi = _namespace(lo, hi)
    batched = np.ndim(lo) > 0
    upper, width = hi, where(hi - lo > 1.0, hi - lo, 1.0)
    hi = last = lo + INF        # no upper end yet, and no step before
    for _ in range(STEP_CAP):
        value, slope = G(lo)
        above = value <= target     # lo is an upper end: step it down
        if not any_(above):
            break
        hi = where(above, lo, hi)
        lo = where(above, lo - step, lo)
        step = where(above, 2.0 * step, step)
    never = above
    lo = where(never, hi, lo)   # closes those rows at a known point
    probed = hi < lo            # False per row
    for it in range(STEP_CAP + 1):
        tol = TOL * (1.0 + abs(where(hi < INF, hi, lo)))
        gap = hi - lo
        done = gap <= tol
        if all_(done):
            break
        if it == STEP_CAP:
            _warn_open("newton_nonincreasing", STEP_CAP, done, lo, hi)
            break
        descent = slope < 0.0
        d = where(descent, (target - value) / where(descent, slope, -1.0),
                  INF)
        if batched:
            # A row whose plain Newton step lo + d passes every safeguard
            # takes it as it is; only the other open rows go through the
            # safeguards, on their own.  A closed row steps to lo, where G
            # is known, so the update below leaves it as it is.
            x, half = lo + d, 0.5 * tol
            plain = ((d < gap) & (d <= 0.5 * last) & (d > half) &
                     (x < hi - half))
            x = where(done, lo, x)
            guard = (~(plain | done)).nonzero()[0]
            reach = np.zeros(len(x), dtype=bool)
            if guard.size == len(x):    # every row: no subset copies
                x, upper, width, reach = _safeguard(
                    np.where, lo, hi, d, descent, tol, last, probed, upper,
                    width)
            elif guard.size:
                x[guard], upper[guard], width[guard], reach[guard] = \
                    _safeguard(np.where, *(a[guard] for a in (
                        lo, hi, d, descent, tol, last, probed, upper,
                        width)))
            probed = reach
        else:       # a scalar search stops as soon as it is done
            x, upper, width, probed = _safeguard(
                where, lo, hi, d, descent, tol, last, probed, upper, width)
        last = x - lo
        value_x, slope_x = G(x)
        below = value_x <= target
        lo, hi, value, slope = (where(below, lo, x), where(below, x, hi),
                                where(below, value, value_x),
                                where(below, slope, slope_x))
    return where(never, NEG_INF, hi)


def _safeguard(where, lo, hi, d, descent, tol, last, probed, upper, width):
    """The safeguarded step of ``newton_nonincreasing`` from lo, for a
    Newton step d: the next point, the new expansion end and width, and
    whether the point is a probe below hi."""
    reach = where(probed, False, descent & (d >= hi - lo))
    newton = reach | ((d < hi - lo) &
                      ((d <= 0.5 * last) | (2.0 * d >= hi - lo)))
    x = lo + where(d > 0.5 * tol, d, 0.5 * tol)
    x = where(newton, where(x < hi - 0.5 * tol, x, hi - 0.5 * tol),
              where(hi < INF, 0.5 * (lo + hi),
                    where(upper > lo + width, upper, lo + width)))
    grow = where(newton, False, hi == INF)
    return (x, where(grow, x + width, upper),
            where(grow, 2.0 * width, width), reach)


# perfbench/tracer.py reads it; ROADMAP item 1 deletes it
bisect_nonincreasing = newton_nonincreasing


def legendre_max(fn: Callable, x):
    """sup over t of t x - f(t) for a convex f on the line, where ``fn(t)``
    returns (f(t), f'(t), f''(t)).  Returns (t, value, status, bound): the
    objective at t is at least ``value``, and ``bound`` >= ``value`` (+inf
    if none was found) bounds the supremum up to the rounding of f.  A
    non-finite f or f' raises FloatingPointError.

    Safeguarded Newton on f'(t) = x from t = 0 (rtsafe, as in
    ``newton_nonincreasing``), each step taken from the latest point.
    A point with f' <= x lies left of a maximizer and one with f' >= x
    right of it.  Until both are known, a Newton step longer than the width
    or than half the last step is replaced by the width, which then doubles
    (1, 2, 4, ...), and |t| stays within ``RAY_RADIUS``: a slope that never
    reaches x ends at the radius, "diverged", after about log2(RAY_RADIUS)
    steps, with the best value within it.  A Newton step whose predicted
    gain (x - f') d / 2 is below tolerance is doubled to probe for the far
    side; a probe that falls short is followed by the width.  Once both are
    known, a Newton step that leaves the bracket, or that is not at most
    half the step before last, bisects it.

    By convexity the tangent lines of t x - f(t) at the two ends bound it
    from above; the search stops, "ok", once the bound where they cross is
    within ``TOL`` (1 + |value|) of the best value, which certifies it
    without a narrow t bracket, or once the bracket is within rounding.
    """
    t, width, last, before, probed = 0.0, 1.0, INF, INF, False
    best_t, best_v, upper = 0.0, NEG_INF, INF
    lo = hi = None      # (t, t x - f(t), |x - f'(t)|) with f' <= x, f' >= x
    for _ in range(STEP_CAP):
        f, s, c = fn(t)
        if not (math.isfinite(f) and math.isfinite(s)):
            raise FloatingPointError(f"legendre_max: f = {f}, f' = {s} at "
                                     f"t = {t!r} for x = {x!r}")
        v = t * x - f
        if v > best_v:
            best_t, best_v = t, v
        if s <= x:
            lo = (t, v, x - s)
        if s >= x:
            hi = (t, v, s - x)
        tol = TOL * (1.0 + abs(best_v))
        d = (x - s) / c if c > 0.0 else math.copysign(INF, x - s)
        if lo is not None and hi is not None:
            (a, va, ca), (b, vb, cb) = lo, hi
            upper = min(va, vb) if ca + cb == 0.0 else \
                va + ca * (vb - va + cb * (b - a)) / (ca + cb)
            if upper - best_v <= tol:
                return best_t, best_v, "ok", max(upper, best_v)
            step = t + d
            if not (min(a, b) < step < max(a, b)) or abs(d) > 0.5 * before:
                step = 0.5 * (a + b)
                if step in (a, b):          # bracket within rounding
                    return best_t, best_v, "ok", max(upper, best_v)
        else:
            if probed or abs(d) > min(0.5 * last, width):
                d = math.copysign(width, d)     # not converging: expand
                width *= 2.0
                probed = False
            elif 0.5 * (x - s) * d <= tol:      # probe for the far side
                d = math.copysign(max(2.0 * abs(d), 4.0 * math.ulp(t)), d)
                probed = True
            step = min(max(t + d, -RAY_RADIUS), RAY_RADIUS)
            if step == t == math.copysign(RAY_RADIUS, d):
                return best_t, best_v, "diverged", INF
        last, before = abs(step - t), last
        t = step
    _warn_open("legendre_max", STEP_CAP, False, lo[0] if lo else math.nan,
               hi[0] if hi else math.nan)
    return best_t, best_v, "ok", max(upper, best_v)


def legendre_max_nd(fn: Callable, x):
    """``legendre_max`` in R^d, where ``fn(t)`` returns f(t) with its
    gradient and Hessian H: damped Newton on grad f(t) = x from t = 0 on the
    range of H, and on g = mu t along the sphere |t| = ``RAY_RADIUS``.
    "ok" needs Kelley's tangent-plane bound (over |t| <= ``RAY_RADIUS``)
    within ``TOL`` (1 + |value|), and "diverged" a point t0 with g0 . t0 >=
    (1 - 1e-6) ``RAY_RADIUS`` |g0|.  The README gives the details."""
    def point(t):
        f, s, H = fn(t)
        if not (math.isfinite(f) and np.isfinite(s).all()):
            raise FloatingPointError(f"legendre_max_nd: f = {f}, grad f = "
                                     f"{s} at t = {t!r} for x = {x!r}")
        return t, float(t @ x) - f, x - s, H

    base, width, step = point(np.zeros(x.size)), 1.0, None
    for _ in range(STEP_CAP):
        t0, v0, g0, H0 = base
        tol = TOL * (1.0 + abs(v0))
        if step is None:    # a new base: its step
            if not g0.any():
                return t0, v0, "ok", v0
            # no worse than t0, a maximizer t has g0 . t >= g0 . t0
            if g0 @ t0 >= (1.0 - 1e-6) * RAY_RADIUS * np.linalg.norm(g0):
                return t0, v0, "diverged", INF
            w, Q = np.linalg.eigh(H0)
            keep = w > 1e-10 * max(w[-1], 0.0)
            R, gQ, alpha = Q[:, keep], g0 @ Q, 1.0
            with np.errstate(over="ignore"):    # an overflow reads as long
                newton = gQ[keep] / w[keep]
            shift = 0.0 if np.linalg.norm(gQ[~keep]) * RAY_RADIUS <= tol and \
                np.linalg.norm(newton) <= width else np.linalg.norm(g0) / width
            step = Q @ (gQ / (np.maximum(w, 0.0) + shift)) if shift else \
                R @ newton
            gain = INF if shift else 0.5 * float(gQ[keep] @ newton)
            arc = np.linalg.norm(t0) >= (1.0 - 1e-6) * RAY_RADIUS and \
                g0 @ t0 > 0.0 and np.linalg.norm(t0 + step) > RAY_RADIUS
            if arc:     # Newton on g = mu t within the sphere, mu > 0
                e = t0 / np.linalg.norm(t0)
                along = np.eye(x.size) - np.outer(e, e)
                mu = float(g0 @ e) / RAY_RADIUS
                step = np.linalg.solve(along @ (H0 + mu * np.eye(x.size)) @
                                       along + np.outer(e, e), along @ g0)
                gain = 0.5 * float(g0 @ step)
        if alpha * gain <= tol:
            c, r = t0 + alpha * step, R.shape[1]
            probes = [point(c + 3e-7 * u) for u in np.vstack(
                [np.eye(r), -np.ones(r)]) @ (R / np.sqrt(w[keep])).T]
            P, V, G = (np.array(a) for a in list(zip(*probes))[:3])
            lam = np.linalg.solve(np.vstack([(G @ R).T, np.ones(r + 1)]),
                                  np.eye(r + 1)[r])
            value, bound = float(lam @ V), float(
                lam @ (V + (G * (c - P)).sum(axis=1)) +
                np.linalg.norm(lam @ G) * (RAY_RADIUS + np.linalg.norm(c)))
            if (lam >= 0.0).all() and bound - value <= tol:
                return lam @ P, value, "ok", bound
            base, step = point(c), None
            continue
        trial = t0 + alpha * step
        norm = float(np.linalg.norm(trial))
        p = point(trial * (RAY_RADIUS / norm if arc or norm > RAY_RADIUS
                           else 1.0))
        if p[1] > v0:
            width *= 2.0 if shift and alpha == 1.0 else 1.0
            base, step = p, None
        else:
            alpha *= 0.5
    _warn_open("legendre_max_nd", STEP_CAP, False, base[1], INF)
    return base[0], base[1], "ok", INF


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


def _row_sums(A: np.ndarray) -> np.ndarray:
    return np.add.reduce(A.reshape(len(A), -1), axis=1)


def pgd_max_simplex(objective: Callable, x0: np.ndarray,
                    max_iter: int = 500,
                    ftol: float = 1e-13,
                    support: Optional[np.ndarray] = None,
                    target: float = INF):
    """Maximize a concave function over the simplex, or over a product of
    simplices, by projected gradient ascent with Armijo backtracking along
    the projection arc (Bertsekas 1976).

    Starts are rows: ``x0`` is one point (m,), a batch (B, m), or a batch
    (B, r, m) of kernels whose r rows each lie in a simplex.  ``objective``
    maps a (k, ...) stack of points to their (k,) values and their (k, ...)
    (super)gradients in one pass; non-finite gradient entries read 0.  It
    sees only the rows still running, so each row makes the evaluations it
    would make alone, and a row steps along the gradient its accepted point
    returned.  Entries where ``support`` (broadcast against one start) is
    False stay at 0.  The objective may return -inf off its effective
    domain: backtracking rejects steps that land there, and a row that
    starts there is returned as it is.

    A row stops when 60 halvings of the unit step find no gain of
    1e-4 <g, d>, or after two gains in a row below ftol (1 + |f|).  The
    whole ascent stops once its best value reaches a finite ``target``;
    otherwise rows still running after ``max_iter`` iterations are logged,
    with the values before and after their last step.  Returns (points,
    values) in the shape of ``x0``; the value of a single point is a
    float.
    """
    X0 = np.asarray(x0, dtype=float)
    single = X0.ndim == 1
    X = project_simplex(X0[None] if single else X0, support)
    fx, G = (np.array(a, dtype=float) for a in objective(X))
    before = fx.copy()
    per_row = (slice(None),) + (None,) * (X.ndim - 1)
    stall = np.zeros(fx.size, dtype=int)
    run = np.isfinite(fx)
    reach = math.isfinite(target)
    for _ in range(max_iter):
        rows = np.flatnonzero(run)
        if rows.size == 0 or reach and fx.max() >= target:
            break
        g = np.where(np.isfinite(G[rows]), G[rows], 0.0)
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
            fy, gy = (np.asarray(a, dtype=float) for a in objective(Y))
            ok = np.isfinite(fy) & (fy >= fx[i] + 1e-4 * _row_sums(gs * D))
            if ok.any():
                i, fy = i[ok], fy[ok]
                gain = fy - fx[i]
                before[i] = fx[i]
                X[i], fx[i], G[i] = Y[ok], fy, gy[ok]
                stall[i] = np.where(gain <= ftol * (1.0 + np.abs(fy)),
                                    stall[i] + 1, 0)
                moved[search[ok]] = True
                search = search[~ok]
            if search.size == 0:
                break
            t[search] *= 0.5
        run[rows] = moved & (stall[rows] < 2)
    else:
        if run.any() and not (reach and fx.max() >= target):
            _warn_open("pgd_max_simplex", max_iter, ~run, before, fx)
    if single:
        return X[0], float(fx[0])
    return X, fx
