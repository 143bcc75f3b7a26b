"""Deterministic expectation quadrature for heavy-tailed 1-d densities.

Adaptive generic quadrature struggles on integrands like
((1 + t x - m)^+)^q * pdf(x) whose active region can stretch across many
orders of magnitude.  Instead: split at the declared breakpoints (kinks),
then tile the unbounded directions with geometrically growing segments and
apply fixed Gauss-Legendre nodes on each.  Segments stop once their
contributions fall below tolerance twice in a row, which a polynomially
decaying integrable tail guarantees.
"""

from __future__ import annotations

import logging
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger("sanovdual")

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def _segment(pdf, fn, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
    return float(np.dot(_WEIGHTS, fn(x) * pdf(x)) * half)


def _tiled(pdf, fn, a: float, b: float) -> float:
    """Finite segment integrated on geometrically growing tiles from a;
    keeps the nodes dense where densities concentrate near the left edge."""
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
           breaks: Sequence[float] = (),
           rel_tol: float = 1e-13, max_segments: int = 90) -> float:
    """Integral of fn * pdf over (lo, hi) with breakpoints honored exactly."""
    edges = sorted({float(b) for b in breaks if lo < b < hi})
    if np.isfinite(lo):
        edges = [float(lo)] + edges
    if np.isfinite(hi):
        edges = edges + [float(hi)]
    if not edges:
        edges = [0.0]

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += _tiled(pdf, fn, a, b)

    if not np.isfinite(hi):
        total = _tail(pdf, fn, edges[-1], 1.0, total, rel_tol, max_segments)
    if not np.isfinite(lo):
        total = _tail(pdf, fn, edges[0], -1.0, total, rel_tol, max_segments)
    return total


def _tail(pdf, fn, edge: float, sign: float, total: float, rel_tol: float,
          max_segments: int) -> float:
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
        small = small + 1 if abs(piece) <= rel_tol * (abs(total) + 1e-30) \
            else 0
        if small >= 2 and k >= 3:
            return total
    log.warning("quadrature: %s tail truncated after %d segments at %g",
                "upper" if sign > 0 else "lower", max_segments, edge)
    return total
