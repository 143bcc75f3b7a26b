"""Probability vectors on m states, type classes and symmetric fields.  A
finite state space is its size m: states are the indices 0..m-1.

Fields on E^n are stored as dense vectors in row-major order: the flat
index of (x_1, ..., x_n) is x_1 * m^(n-1) + ... + x_n, i.e. x_1 is the
slowest axis.  The dense representation is capped at m^n <= 2^24 entries;
symmetric (type-class) compression is the escape hatch beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSE_CAP = 2 ** 24

# Construction normalizes probability vectors whose sum is within this
# distance of 1 and rejects anything further off.
SUM_SLACK = 1e-9


class SpaceError(ValueError):
    """Invalid distribution or tensor input."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_prob_vector(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float).ravel().copy()
    if not np.isfinite(w).all():
        raise SpaceError("probability weights must be finite")
    if (w < -1e-12).any():
        raise SpaceError("negative probability weight")
    w[w < 0.0] = 0.0
    s = w.sum()
    if abs(s - 1.0) > SUM_SLACK:
        raise SpaceError(f"weights sum to {s!r}, not 1")
    return w / s


@dataclass(frozen=True)
class Dist:
    """A probability vector on its ``size`` states."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           _freeze(_as_prob_vector(self.weights)))

    @property
    def size(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, m: int) -> "Dist":
        return cls(np.full(m, 1.0 / m))


def _tail_sums(k: int, m: int) -> list[np.ndarray]:
    """The tail sums T_{m-1}, ..., T_1 of the classes of level k in rank
    order, T_d the sum of a class's last d counts, as m - 1 int columns.

    In reverse lexicographic order the classes that share their first
    m - d counts, and so T_d, fall into T_d + 1 runs by their next count,
    T_d, T_d - 1, ..., 0, along which T_{d-1} runs 0, 1, ..., T_d."""
    tails, left = [], np.array([k])
    for _ in range(m - 1):
        reps = left + 1
        left = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        tails = [np.repeat(t, reps) for t in tails] + [left]
    return tails


def type_index(k: int, m: int) -> np.ndarray:
    """The (C(k+m-1, m-1), m) int array of occupancy vectors with sum k, in
    reverse lexicographic order, so row r is the class of rank r: count j
    is the difference of the tail sums T_{m-j} and T_{m-1-j}, T_m = k and
    T_0 = 0."""
    tails = _tail_sums(k, m)
    counts = np.empty((math.comb(k + m - 1, m - 1), m), dtype=np.int64)
    before = k
    for j, t in enumerate(tails):
        counts[:, j] = before - t
        before = t
    counts[:, m - 1] = before
    return counts


def type_successors(k: int, m: int) -> np.ndarray:
    """The (C(k+m-1, m-1), m) int array of successor ranks: row r, column y
    is the rank in ``type_index(k + 1, m)`` of class r of level k plus one
    draw of state y.

    A class's rank is the sum over d < m of C(T_d + d - 1, d), T_d the sum
    of its last d counts (the combinatorial number system, Knuth, TAOCP 4A,
    7.2.1.3).  A draw of y raises T_d by one for every d >= m - y, which
    adds C(T_d + d - 1, d - 1) to the rank; y = 0 keeps it."""
    tails = _tail_sums(k, m)                        # T_{m-1}, ..., T_1
    # binom[d - 1, t] = C(t + d - 1, d - 1), each row the running sum of
    # the one above (the hockey-stick identity)
    binom = np.ones((m, k + 1), dtype=np.int64)
    for j in range(1, m - 1):
        binom[j] = np.cumsum(binom[j - 1])
    rank = np.arange(math.comb(k + m - 1, m - 1))
    succ = np.empty((rank.size, m), dtype=np.int64)
    succ[:, 0] = rank
    for y in range(1, m):
        rank = rank + binom[m - y - 1][tails[y - 1]]
        succ[:, y] = rank
    return succ


def compositions(n: int, m: int):
    """Yield the rows of ``type_index(n, m)`` as tuples."""
    yield from map(tuple, type_index(n, m).tolist())


@dataclass(frozen=True)
class SymmetricField:
    """A permutation-invariant function on E^n: one value per type class,
    in rank order (row r of ``type_index(n, m)``)."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        v, m = np.array(self.values, dtype=float), self.m
        if v.shape != (math.comb(self.n + m - 1, m - 1),):
            raise SpaceError("symmetric field must cover every type class exactly")
        object.__setattr__(self, "values", _freeze(v))
