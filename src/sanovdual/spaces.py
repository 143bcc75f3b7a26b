"""Finite state spaces, probability vectors, product tensors and type classes.

Joint laws on E^n are stored as dense tensors in row-major order: the flat
index of (x_1, ..., x_n) is x_1 * m^(n-1) + ... + x_n, i.e. x_1 is the
slowest axis.  The dense representation is capped at m^n <= 2^24 entries;
symmetric (type-class) compression is the escape hatch beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DENSE_CAP = 2 ** 24

# Construction normalizes probability vectors whose sum is within this
# distance of 1 and rejects anything further off.
SUM_SLACK = 1e-9


class SpaceError(ValueError):
    """Invalid space, distribution or tensor input."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FiniteSpace:
    """A finite state space with display labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise SpaceError("space needs at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise SpaceError("labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, m: int, prefix: str = "s") -> "FiniteSpace":
        return cls(tuple(f"{prefix}{i}" for i in range(m)))


def _as_prob_vector(weights, slack: float = SUM_SLACK) -> np.ndarray:
    w = np.asarray(weights, dtype=float).ravel().copy()
    if (w < -1e-12).any():
        raise SpaceError("negative probability weight")
    w[w < 0.0] = 0.0
    s = w.sum()
    if abs(s - 1.0) > slack:
        raise SpaceError(f"weights sum to {s!r}, not 1")
    return w / s


@dataclass(frozen=True)
class Dist:
    """A probability vector on a FiniteSpace."""

    space: FiniteSpace
    weights: np.ndarray

    def __post_init__(self):
        w = _as_prob_vector(self.weights)
        if w.size != self.space.size:
            raise SpaceError("weight vector does not match space size")
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def m(self) -> int:
        return self.space.size

    @classmethod
    def uniform(cls, space: FiniteSpace) -> "Dist":
        m = space.size
        return cls(space, np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, space: FiniteSpace, i: int) -> "Dist":
        w = np.zeros(space.size)
        w[i] = 1.0
        return cls(space, w)


@dataclass(frozen=True)
class ProductDist:
    """A joint law on E^n stored as a dense probability tensor."""

    n: int
    space: FiniteSpace
    tensor: np.ndarray  # flat, length m^n, row-major over (x_1, ..., x_n)

    def __post_init__(self):
        m = self.space.size
        if self.n < 1:
            raise SpaceError("horizon n must be >= 1")
        if m ** self.n > DENSE_CAP:
            raise SpaceError(
                f"dense tensor of size {m}^{self.n} exceeds cap 2^24; "
                "use the symmetric (type-class) representation"
            )
        t = _as_prob_vector(self.tensor)
        if t.size != m ** self.n:
            raise SpaceError("tensor length does not match m^n")
        object.__setattr__(self, "tensor", _freeze(t))

    @property
    def m(self) -> int:
        return self.space.size

    def reshaped(self) -> np.ndarray:
        return self.tensor.reshape((self.m,) * self.n)

    @classmethod
    def iid(cls, mu: Dist, n: int) -> "ProductDist":
        t = mu.weights.copy()
        for _ in range(n - 1):
            t = np.multiply.outer(t, mu.weights).ravel()
        return cls(n, mu.space, t)


@dataclass(frozen=True)
class Kernel:
    """Stage-k conditional law: one Dist row per prefix in E^(k-1)."""

    stage: int  # k >= 2; rows are indexed by prefixes of length k-1
    space: FiniteSpace
    rows: np.ndarray  # shape (m^(k-1), m), each row a probability vector

    def __post_init__(self):
        m = self.space.size
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape != (m ** (self.stage - 1), m):
            raise SpaceError("kernel rows have wrong shape")
        if (r < -1e-12).any():
            raise SpaceError("negative kernel entry")
        sums = r.sum(axis=1)
        if np.abs(sums - 1.0).max() > SUM_SLACK:
            raise SpaceError("kernel row does not sum to 1")
        object.__setattr__(self, "rows", _freeze(r / sums[:, None]))

    def dist(self, prefix: Sequence[int]) -> Dist:
        m = self.space.size
        idx = 0
        for x in prefix:
            idx = idx * m + x
        return Dist(self.space, self.rows[idx])


def empirical_measure(space: FiniteSpace, x: Sequence[int]) -> Dist:
    """The empirical measure (1/n) sum of point masses of a sample tuple."""
    xs = np.asarray(x, dtype=int)
    if xs.size < 1:
        raise SpaceError("empty sample")
    if (xs < 0).any() or (xs >= space.size).any():
        raise SpaceError("sample index out of range")
    counts = np.bincount(xs, minlength=space.size).astype(float)
    return Dist(space, counts / xs.size)


def disintegrate(nu: ProductDist) -> tuple[Dist, list[Kernel]]:
    """Split a joint law into its first marginal and stage kernels.

    On zero-probability prefixes the kernel row is the uniform
    distribution; any choice is valid there and uniform is deterministic.
    """
    m, n = nu.m, nu.n
    t = nu.reshaped()
    first = Dist(nu.space, t.reshape(m, -1).sum(axis=1) if n > 1 else t.ravel())
    kernels = []
    for k in range(2, n + 1):
        joint = t.reshape((m ** k, -1)).sum(axis=1).reshape(m ** (k - 1), m)
        prefix = joint.sum(axis=1)
        rows = np.full_like(joint, 1.0 / m)
        live = prefix > 0.0
        rows[live] = joint[live] / prefix[live, None]
        kernels.append(Kernel(k, nu.space, rows))
    return first, kernels


def compose(first: Dist, kernels: Iterable[Kernel]) -> ProductDist:
    """Rebuild the joint law from a first marginal and stage kernels."""
    t = first.weights.copy()
    n = 1
    for ker in kernels:
        if ker.space.size != first.m:
            raise SpaceError("kernel space mismatch")
        if ker.rows.shape[0] != t.size:
            raise SpaceError(
                f"kernel at stage {ker.stage} expects {ker.rows.shape[0]} "
                f"prefixes, got {t.size}"
            )
        t = (t[:, None] * ker.rows).ravel()
        n += 1
    return ProductDist(n, first.space, t)


def type_index(k: int, m: int) -> np.ndarray:
    """The (C(k+m-1, m-1), m) int array of occupancy vectors with sum k, in
    reverse lexicographic order: row r has rank r (``type_rank``).  Each
    row with j draws left is repeated for next counts j, j-1, ..., 0."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(m - 1):
        reps = k - rows.sum(axis=1) + 1
        offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.repeat(rows, reps, axis=0)            # offset: within a block
        rows = np.column_stack([rows, k - rows.sum(axis=1) - offset])
    return np.column_stack([rows, k - rows.sum(axis=1)])


def type_rank(counts) -> np.ndarray:
    """Rank of (..., m) occupancy vectors within ``type_index(sum, m)``:
    sum over d < m of C(T_d + d - 1, d), T_d the sum of the last d counts
    (the combinatorial number system, Knuth, TAOCP 4A, 7.2.1.3)."""
    tail = np.cumsum(np.asarray(counts, dtype=np.int64)[..., :0:-1], axis=-1)
    binom = np.ones_like(tail)                      # over T_1, ..., T_{m-1}
    for i in range(1, tail.shape[-1] + 1):
        binom[..., i - 1:] = binom[..., i - 1:] * (tail[..., i - 1:] + i - 1) // i
    return binom.sum(axis=-1)


def compositions(n: int, m: int):
    """Yield the rows of ``type_index(n, m)`` as tuples."""
    yield from map(tuple, type_index(n, m).tolist())


def multinomial(counts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / prod(c_i!)."""
    out = 1
    acc = 0
    for c in counts:
        acc += c
        out *= math.comb(acc, c)
    return out


def type_classes(n: int, m: int) -> list[tuple[tuple[int, ...], int]]:
    """All type classes of E^n with their multiplicities.

    Returns (occupancy vector, multinomial coefficient) pairs; the
    multiplicities sum to m^n.  Coefficients are exact Python integers,
    so converting to float loses at most one ulp.
    """
    if n < 1 or m < 1:
        raise SpaceError("need n >= 1 and m >= 1")
    return [(c, multinomial(c)) for c in compositions(n, m)]


def _dense_ranks(n: int, m: int) -> np.ndarray:
    """Type-class rank of every flat index of E^n (row-major order)."""
    counts = np.zeros((1, m), dtype=np.int64)
    for _ in range(n):
        counts = (counts[:, None, :] + np.eye(m, dtype=np.int64)).reshape(-1, m)
    return type_rank(counts)


@dataclass(frozen=True)
class SymmetricField:
    """A permutation-invariant function on E^n: one value per type class,
    in rank order (row r of ``type_index(n, m)``)."""

    n: int
    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        v, m = np.array(self.values, dtype=float), self.space.size
        if v.shape != (math.comb(self.n + m - 1, m - 1),):
            raise SpaceError("symmetric field must cover every type class exactly")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def from_dense(cls, f: np.ndarray, n: int, space: FiniteSpace,
                   tol: float = 1e-12) -> "SymmetricField":
        """Compress a dense field, rejecting non-symmetric input; each type
        class keeps the value at its first flat index."""
        m = space.size
        flat = np.asarray(f, dtype=float).ravel()
        if flat.size != m ** n:
            raise SpaceError("dense field length does not match m^n")
        rank = _dense_ranks(n, m)
        _, first = np.unique(rank, return_index=True)
        if not np.isclose(flat, flat[first][rank], rtol=0.0, atol=tol).all():
            raise SpaceError("field is not permutation-invariant")
        return cls(n, space, flat[first])

    def expand_dense(self) -> np.ndarray:
        return self.values[_dense_ranks(self.n, self.space.size)]
