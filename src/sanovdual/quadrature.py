"""Deterministic expectation quadrature for heavy-tailed 1-d densities.

Adaptive generic quadrature struggles on integrands like
((1 + t x - m)^+)^q * pdf(x) whose active region can stretch across many
orders of magnitude.  Instead: split at the declared breakpoints (kinks)
and at the density's centre, tile each finite piece and each unbounded
direction with geometrically growing segments outward from the centre, and
apply fixed Gauss-Legendre nodes on each segment, with one integrand call
per finite piece or block of 4, 8, 16, ... tail segments.  A tail stops
once two pieces in a row fall below ``REL_TOL`` of the running total,
which a polynomially decaying integrable tail guarantees, having summed the
segments a walk one at a time would sum; it warns after ``MAX_SEGMENTS``
segments.  An integrand may also return a (k, N) array for N
nodes: its k rows share the nodes, the density values and the tail walk,
and a tail stops only once every row falls below tolerance.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger("sanovdual")

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)

REL_TOL = 1e-13
MAX_SEGMENTS = 90


def _ends(start: float, step: float, n: int, sign: float = 1.0):
    """Ends of n segments from ``start``, the first ``step`` long and each
    6 times the last, added in walk order; and the step after them."""
    steps = np.cumprod(np.concatenate(([step], np.full(n, 6.0))))
    return np.cumsum(np.concatenate(([start], sign * steps[:-1]))), steps[-1]


def _pieces(pdf, fn, ends: np.ndarray, sign: float = 1.0):
    """Integrals of fn * pdf over the segments between consecutive ends
    (over their mirror images for sign -1), from one integrand call: (S,)
    for S segments, or (k, S) for an integrand with k rows."""
    a, b = np.minimum(ends[:-1], ends[1:]), np.maximum(ends[:-1], ends[1:])
    half = 0.5 * (b - a)
    x = sign * ((0.5 * (a + b))[:, None] + half[:, None] * _NODES).ravel()
    v = fn(x) * pdf(x)
    return (v.reshape(-1, _NODES.size) @ _WEIGHTS).reshape(
        *v.shape[:-1], -1) * half


def _tiles(a: float, b: float) -> np.ndarray:
    """Ends of the geometrically growing tiles of [a, b] from a; they keep
    the nodes dense near a, the end nearer the density's centre."""
    step = min(1.0 + 0.5 * abs(a), b - a)
    n = int(np.log1p(5.0 * (b - a) / step) / np.log(6.0)) + 2  # covers [a, b]
    ends = _ends(a, step, n)[0]
    return np.minimum(ends[:np.argmax(ends >= b - 1e-300) + 1], b)


def expect(pdf: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
           fn: Callable[[np.ndarray], np.ndarray],
           breaks: Sequence[float] = (), *, centre: float):
    """Integral of fn * pdf over (lo, hi) with breakpoints honored exactly:
    a float, or the (k,) integrals of an integrand with k rows.

    ``centre`` is where the density concentrates, such as its mode or the
    left edge of a one-sided support.  It is a breakpoint too, and a finite
    piece left of it is tiled from its right end, so a far kink cannot
    leave the bulk between two sparse nodes.
    """
    inner = sorted({float(b) for b in (*breaks, centre) if lo < b < hi})
    edges = [float(e) for e in (lo, *inner, hi) if np.isfinite(e)] or [0.0]

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sign = -1.0 if b <= centre else 1.0     # left of it: from b down
        ends = _tiles(-b, -a) if sign < 0 else _tiles(a, b)
        total += np.cumsum(_pieces(pdf, fn, ends, sign), axis=-1)[..., -1]

    if not np.isfinite(hi):
        total = _tail(pdf, fn, edges[-1], 1.0, total)
    if not np.isfinite(lo):
        total = _tail(pdf, fn, edges[0], -1.0, total)
    return float(total) if np.ndim(total) == 0 else total


def _tail(pdf, fn, edge: float, sign: float, total):
    """Add the tail beyond ``edge`` (upper for sign +1, lower for -1) to
    ``total``, in blocks of 4, 8, 16, ... segments, until two pieces in a row
    fall below tolerance (from the 4th on); warns past ``MAX_SEGMENTS``."""
    step, done, small = max(1.0, abs(edge) * 0.5), 0, False
    while done < MAX_SEGMENTS:
        n = min(done + 4, MAX_SEGMENTS - done)
        ends, step = _ends(edge, step, n, sign)
        pieces = _pieces(pdf, fn, ends)
        head = np.asarray(total)[..., None] + pieces[..., :1]
        running = np.concatenate((head, pieces[..., 1:]), -1).cumsum(-1)
        tiny = np.all((abs(pieces) <= REL_TOL * (abs(running) + 1e-30))
                      .reshape(-1, n), axis=0)
        stop = tiny & np.concatenate(([small], tiny[:-1]))
        stop[:max(3 - done, 0)] = False     # never before the 4th segment
        if stop.any():
            return running[..., np.argmax(stop)]
        total, small = running[..., -1], tiny[-1]
        edge, done = ends[-1], done + n
    log.warning("quadrature: %s tail truncated after %d segments at %g",
                "upper" if sign > 0 else "lower", MAX_SEGMENTS, edge)
    return total
