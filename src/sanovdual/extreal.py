"""Extended-real arithmetic helpers.

Values live in [-inf, +inf] as ordinary floats.  Two conventions are used
everywhere in this package:

* any sum containing -inf equals -inf, so in particular inf - inf = -inf;
* integrals against a probability vector ignore values carried by
  zero-mass points (0 * inf = 0 in that context).
"""

from __future__ import annotations

import numpy as np

INF = float("inf")
NEG_INF = float("-inf")


def add(*terms: float) -> float:
    """Sum under the -inf-dominant convention: inf + (-inf) = -inf."""
    saw_pos = False
    total = 0.0
    for t in terms:
        if t == NEG_INF:
            return NEG_INF
        if t == INF:
            saw_pos = True
        else:
            total += t
    return INF if saw_pos else total


def sub(a: float, b: float) -> float:
    """a - b with inf - inf = -inf (and -inf - (-inf) = -inf)."""
    return add(a, INF if b == NEG_INF else -b)


def integral(weights, values) -> float:
    """Integrate ``values`` against the nonnegative vector ``weights``.

    Zero-weight points are ignored; among the rest, -inf dominates +inf
    per the standing convention.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    live = w > 0.0
    if not live.any():
        return 0.0
    vs = v[live]
    if np.isneginf(vs).any():
        return NEG_INF
    if np.isposinf(vs).any():
        return INF
    return float(np.dot(w[live], vs))


def integral_rows(weights, rows) -> np.ndarray:
    """Row-wise ``integral``: rows has shape (B, m), weights shape (m,)."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(rows, dtype=float)
    live = w > 0.0
    if not live.any():
        return np.zeros(v.shape[0])
    vs = v[:, live]
    ws = w[live]
    neg = np.isneginf(vs).any(axis=1)
    pos = np.isposinf(vs).any(axis=1)
    out = np.dot(np.where(np.isfinite(vs), vs, 0.0), ws)
    out[pos] = INF
    out[neg] = NEG_INF
    return out
