"""Extended-real arithmetic helpers.

Values live in [-inf, +inf] as ordinary floats.  Two conventions are used
everywhere in this package:

* any sum containing -inf equals -inf, so in particular inf - inf = -inf;
* integrals against a probability vector ignore values carried by
  zero-mass points (0 * inf = 0 in that context).
"""

from __future__ import annotations

import functools

import numpy as np

INF = float("inf")
NEG_INF = float("-inf")


def integral_rows(weights, rows) -> np.ndarray:
    """Integrate each row of ``rows`` (B, m) against the nonnegative
    ``weights`` (m,).

    Zero-weight points are ignored; among the rest, -inf dominates +inf
    per the standing convention.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(rows, dtype=float)
    live = (w > 0.0).nonzero()[0]
    if not live.size:
        return np.zeros(v.shape[0])
    low, high = (fold_columns(f, v, live) for f in (np.minimum, np.maximum))
    vs = v[:, live]
    out = weighted_row_sums(np.where(np.isfinite(vs), vs, 0.0), w[live])
    return np.where(low == NEG_INF, NEG_INF, np.where(high == INF, INF, out))


def fold_columns(ufunc, rows: np.ndarray, cols) -> np.ndarray:
    """``ufunc`` folded over the columns ``cols`` of a (B, m) array from the
    left, such as each row's largest entry for ``np.maximum``.  Whole
    columns at a time are far faster than a reduction along a short row."""
    return functools.reduce(ufunc, (rows[:, j] for j in cols))


def weighted_row_sums(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j rows[:, j] for each row of a (B, m) array, added column by
    column from the left.  A matrix-vector product may round a row
    differently in batches of different sizes; this sum does not."""
    out = np.zeros(rows.shape[0])
    for j, wj in enumerate(np.asarray(w).tolist()):
        out += wj * rows[:, j]
    return out
