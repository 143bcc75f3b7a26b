"""Deterministic expectation quadrature for heavy-tailed 1-d densities.

Adaptive generic quadrature struggles on integrands like
((1 + t x - m)^+)^q * pdf(x) whose active region can stretch across many
orders of magnitude.  Instead: split at the declared breakpoints (kinks)
and at the density's centre, tile each finite piece with geometrically
growing segments outward from the centre, tile the unbounded directions
the same way, and apply fixed Gauss-Legendre nodes on each segment.  Tail
segments stop once their contributions fall below tolerance twice in a
row, which a polynomially decaying integrable tail guarantees.

An integrand may also return a (k, N) array for N nodes: its k rows share
the nodes, the density values and the tail walk, and a tail stops only
once every row falls below tolerance.  Scalar integrands keep the
arithmetic of a one-row walk exactly.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger("sanovdual")

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def _segment(pdf, fn, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
    v = fn(x) * pdf(x)
    if v.ndim == 1:
        return float(np.dot(_WEIGHTS, v) * half)
    return (v @ _WEIGHTS) * half


def _tiled(pdf, fn, a: float, b: float):
    """Finite segment integrated on geometrically growing tiles from a;
    keeps the nodes dense near a, the end nearer the density's centre."""
    total = 0.0
    x = a
    step = min(1.0 + 0.5 * abs(a), b - a)
    while x < b - 1e-300:
        nxt = min(x + step, b)
        total += _segment(pdf, fn, x, nxt)
        x = nxt
        step *= 6.0
    return total


def expect(pdf: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
           fn: Callable[[np.ndarray], np.ndarray],
           breaks: Sequence[float] = (), *, centre: float,
           rel_tol: float = 1e-13, max_segments: int = 90):
    """Integral of fn * pdf over (lo, hi) with breakpoints honored exactly:
    a float, or the (k,) integrals of an integrand with k rows.

    ``centre`` is where the density concentrates, such as its mode or the
    left edge of a one-sided support.  It is a breakpoint too, and a finite
    piece left of it is tiled from its right end, so a far kink cannot
    leave the bulk between two sparse nodes.
    """
    edges = sorted({float(b) for b in (*breaks, centre) if lo < b < hi})
    if np.isfinite(lo):
        edges = [float(lo)] + edges
    if np.isfinite(hi):
        edges = edges + [float(hi)]
    if not edges:
        edges = [0.0]

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= centre:     # tiled from b down, as the mirror image from -b
            total += _tiled(lambda y: pdf(-y), lambda y: fn(-y), -b, -a)
        else:
            total += _tiled(pdf, fn, a, b)

    if not np.isfinite(hi):
        total = _tail(pdf, fn, edges[-1], 1.0, total, rel_tol, max_segments)
    if not np.isfinite(lo):
        total = _tail(pdf, fn, edges[0], -1.0, total, rel_tol, max_segments)
    return total


def _tail(pdf, fn, edge: float, sign: float, total, rel_tol: float,
          max_segments: int):
    """Add the unbounded tail beyond ``edge`` (upper for sign +1, lower for
    -1) to ``total`` on geometrically growing segments, until two pieces in
    a row fall below tolerance; warns if ``max_segments`` runs out first."""
    step = max(1.0, abs(edge) * 0.5)
    small = 0
    for k in range(max_segments):
        far = edge + sign * step
        piece = _segment(pdf, fn, min(edge, far), max(edge, far))
        total += piece
        edge = far
        step *= 6.0
        small = small + 1 \
            if np.all(abs(piece) <= rel_tol * (abs(total) + 1e-30)) else 0
        if small >= 2 and k >= 3:
            return total
    log.warning("quadrature: %s tail truncated after %d segments at %g",
                "upper" if sign > 0 else "lower", max_segments, edge)
    return total
