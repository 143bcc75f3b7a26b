"""Penalty functionals on probability vectors and their gradients.

Six families are implemented, each a proper convex function of the
probability vector with value +inf off its effective domain:

* relative entropy against a reference law;
* L^p entropy  ||dnu/dmu||_{L^p(mu)} - 1  (the heavy-tail penalty);
* shortfall penalty  inf_{t>0} (1/t) (1 + int l*(t dnu/dmu) dmu)  for a
  convex nondecreasing loss l;
* robust entropy: the infimum of relative entropy over a convex hull of
  reference laws;
* the indicator of a convex hull (0 inside, +inf outside);
* optimal transport cost to the reference law for a nonnegative cost
  matrix (computed exactly by the transportation simplex).

Most evaluators accept a (B, m) batch of rows as well as a single vector;
batching is what keeps the brute-force oracles in the test suite fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .extreal import INF
from .losses import LossFn
from .optim import golden_min, pgd_max_simplex, project_simplex
from .spaces import Dist, SpaceError
from .transport import solve_transport

HULL_TOL = 1e-9  # Euclidean tolerance for membership in a convex hull


# ---------------------------------------------------------------------------
# Penalty specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeEntropy:
    mu: Dist


@dataclass(frozen=True)
class LpEntropy:
    mu: Dist
    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise SpaceError("L^p entropy needs p > 1")

    @property
    def loss_exponent(self) -> float:
        """The exponent q = p/(p-1) of the matching power loss."""
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class Shortfall:
    mu: Dist
    loss: LossFn


@dataclass(frozen=True)
class Robust:
    generators: tuple[Dist, ...]

    def __post_init__(self):
        if len(self.generators) < 1:
            raise SpaceError("robust penalty needs a nonempty generator list")


@dataclass(frozen=True)
class SetIndicator:
    generators: tuple[Dist, ...]

    def __post_init__(self):
        if len(self.generators) < 1:
            raise SpaceError("set indicator needs a nonempty generator list")


@dataclass(frozen=True)
class Transport:
    mu: Dist
    cost: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=float)
        m = self.mu.m
        if c.shape != (m, m):
            raise SpaceError("cost matrix must be m x m")
        if (c < 0).any():
            raise SpaceError("cost entries must be >= 0")
        if np.isinf(c).all(axis=1).any():
            raise SpaceError("cost needs at least one finite entry per row")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "cost", c)


AlphaSpec = Union[RelativeEntropy, LpEntropy, Shortfall, Robust, SetIndicator,
                  Transport]


def spec_space(spec: AlphaSpec):
    if isinstance(spec, (RelativeEntropy, LpEntropy, Shortfall, Transport)):
        return spec.mu.space
    return spec.generators[0].space


def feasible_support(spec: AlphaSpec) -> np.ndarray:
    """States that can carry mass while the penalty stays finite."""
    if isinstance(spec, (RelativeEntropy, LpEntropy, Shortfall)):
        return spec.mu.weights > 0
    if isinstance(spec, (Robust, SetIndicator)):
        sup = np.zeros(spec.generators[0].m, dtype=bool)
        for g in spec.generators:
            sup |= g.weights > 0
        return sup
    live = spec.mu.weights > 0
    return np.isfinite(np.asarray(spec.cost)[live]).any(axis=0)


def _rows(nu) -> tuple[np.ndarray, bool]:
    if isinstance(nu, Dist):
        return nu.weights[None, :], True
    arr = np.asarray(nu, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _ref_weights(mu) -> np.ndarray:
    return mu.weights if isinstance(mu, Dist) else np.asarray(mu, dtype=float)


def _rel_rows(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Row-wise relative entropy for broadcastable (B, m) pairs."""
    W = np.broadcast_to(W, V.shape)
    off = (V > 0.0) & (W <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(V > 0.0, V * (np.log(np.maximum(V, 1e-300)) -
                                       np.log(np.maximum(W, 1e-300))), 0.0)
    out = terms.sum(axis=1)
    out[off.any(axis=1)] = INF
    return out


# ---------------------------------------------------------------------------
# One-step penalties
# ---------------------------------------------------------------------------

def relative_entropy(nu, mu) -> float | np.ndarray:
    """sum nu_i log(nu_i / mu_i), with 0 log 0 = 0; +inf off the support."""
    V, single = _rows(nu)
    out = _rel_rows(V, _ref_weights(mu)[None, :])
    return float(out[0]) if single else out


def lp_entropy(nu, mu, p: float) -> float | np.ndarray:
    """||dnu/dmu||_{L^p(mu)} - 1 when nu << mu, else +inf; zero iff nu = mu."""
    if not p > 1.0:
        raise SpaceError("L^p entropy needs p > 1")
    V, single = _rows(nu)
    w = _ref_weights(mu)
    off = ((V > 0.0) & (w <= 0.0)[None, :]).any(axis=1)
    live = w > 0.0
    ratio = np.zeros_like(V)
    ratio[:, live] = V[:, live] / w[live]
    out = np.power(np.dot(np.power(ratio[:, live], p), w[live]), 1.0 / p) - 1.0
    out[off] = INF
    return float(out[0]) if single else out


def shortfall_objective(V: np.ndarray, w: np.ndarray, loss: LossFn):
    """The map log t -> (1/t)(1 + int l*(t dnu/dmu) dmu), one point per row
    nu of V; mass of nu off the support of mu is ignored."""
    live = w > 0.0
    wl = w[live]
    rl = V[:, live] / wl

    def objective(log_t: np.ndarray) -> np.ndarray:
        t = np.exp(log_t)
        conj = np.asarray(loss.conjugate(t[:, None] * rl), dtype=float)
        bad = ~np.isfinite(conj)
        body = np.dot(np.where(bad, 0.0, conj), wl)
        body[bad.any(axis=1)] = INF
        return (1.0 + body) / t

    return objective


def shortfall_penalty(nu, mu, loss: LossFn) -> float | np.ndarray:
    """inf over t > 0 of (1/t)(1 + int l*(t dnu/dmu) dmu)."""
    V, single = _rows(nu)
    out, _ = _shortfall_rows(V, _ref_weights(mu), loss)
    return float(out[0]) if single else out


def _shortfall_rows(V: np.ndarray, w: np.ndarray, loss: LossFn):
    """Shortfall penalty of each row of V and its minimizing t.

    The objective is the perspective of the conjugate loss, hence convex in
    1/t and unimodal in log t: a coarse scan over log t followed by
    golden-section search is reliable.
    """
    objective = shortfall_objective(V, w, loss)
    B = V.shape[0]
    grid = np.linspace(-30.0, 30.0, 61)
    vals = np.stack([objective(np.full(B, s)) for s in grid])
    best = np.argmin(vals, axis=0)
    a = grid[np.maximum(best - 1, 0)]
    b = grid[np.minimum(best + 1, grid.size - 1)]
    log_t, out = golden_min(objective, a, b)
    at_grid = vals[best, np.arange(B)]
    log_t = np.where(at_grid < out, grid[best], log_t)
    out = np.minimum(out, at_grid)
    out[((V > 0.0) & (w <= 0.0)[None, :]).any(axis=1)] = INF
    return out, np.exp(log_t)


def robust_entropy(nu, generators: Sequence[Dist]) -> float | np.ndarray:
    """Infimum of relative entropy over the convex hull of the generators."""
    V, single = _rows(nu)
    out, _ = _robust_rows(V, np.stack([g.weights for g in generators]))
    return float(out[0]) if single else out


def _robust_rows(V: np.ndarray, G: np.ndarray):
    """Robust entropy of each row of V against the generators (rows of G),
    and the minimizing hull mixture.

    The map w -> H(nu | sum_j w_j g_j) is convex in the mixture weights, so
    two generators reduce to a golden-section search (the endpoints win
    only when strictly lower) and larger families to
    ``robust_mixture_argmin``.
    """
    k = G.shape[0]
    if k == 1:
        return _rel_rows(V, G[0][None, :]), np.broadcast_to(G[0], V.shape)
    if k == 2:
        g0, g1 = G

        def mix_at(wv: np.ndarray) -> np.ndarray:
            return wv[:, None] * g0[None, :] + (1.0 - wv)[:, None] * g1[None, :]

        wv, out = golden_min(lambda wv: _rel_rows(V, mix_at(wv)),
                             np.zeros(V.shape[0]), np.ones(V.shape[0]))
        for end in (0.0, 1.0):
            at_end = _rel_rows(V, mix_at(np.full(V.shape[0], end)))
            wv = np.where(at_end < out, end, wv)
            out = np.minimum(out, at_end)
        return out, mix_at(wv)
    pairs = [robust_mixture_argmin(row, G) for row in V]
    return (np.array([val for val, _ in pairs]),
            np.array([mix for _, mix in pairs]))


def robust_mixture_argmin(row: np.ndarray, G: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Robust entropy of one law against k >= 3 generators (rows of G) and
    the minimizing hull mixture: projected ascent over the mixture weights
    from the barycenter and the k points 0.9 e_j + 0.1/k, as rows of one
    call, against a vertex-enumeration upper bound."""
    k = G.shape[0]

    def neg_obj(W):
        mix = W @ G
        return -_rel_rows(np.broadcast_to(row, mix.shape), mix)

    def neg_grad(W):
        mix = (W @ G)[:, None, :]
        return np.where(mix > 0.0, row * G / np.maximum(mix, 1e-300),
                        0.0).sum(axis=2)

    starts = np.vstack([np.full(k, 1.0 / k), 0.9 * np.eye(k) + 0.1 / k])
    W, vals = pgd_max_simplex(neg_obj, starts, gradient=neg_grad)
    vals = np.where(np.isfinite(vals), -vals, INF)
    best = int(np.argmin(vals))
    best_val, best_w = float(vals[best]), W[best]
    for j in range(k):
        vj = float(_rel_rows(row[None, :], G[j][None, :])[0])
        if vj < best_val:
            best_val, best_w = vj, np.eye(k)[j]
    return best_val, best_w @ G


def hull_distance(nu_rows: np.ndarray, G: np.ndarray,
                  iters: int = 4000) -> np.ndarray:
    """Euclidean distance from each row to the convex hull of rows of G."""
    V = np.atleast_2d(np.asarray(nu_rows, dtype=float))
    k = G.shape[0]
    W = np.full((V.shape[0], k), 1.0 / k)
    gram = G @ G.T
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(gram).max()) + 1e-12)
    for _ in range(iters):
        grad = 2.0 * (W @ G - V) @ G.T
        W_new = project_simplex(W - step * grad)
        if np.abs(W_new - W).max() < 1e-15:
            W = W_new
            break
        W = W_new
    return np.linalg.norm(W @ G - V, axis=1)


def hull_indicator(nu, generators: Sequence[Dist]) -> float | np.ndarray:
    """0 when nu lies in the convex hull of the generators, else +inf."""
    V, single = _rows(nu)
    G = np.stack([g.weights for g in generators])
    if G.shape[0] == 1:
        d = np.linalg.norm(V - G[0][None, :], axis=1)
    elif V.shape[1] == 2:
        # Two-state simplex: the hull is the interval of first coordinates.
        lo, hi = G[:, 0].min(), G[:, 0].max()
        excess = np.maximum(np.maximum(lo - V[:, 0], V[:, 0] - hi), 0.0)
        d = excess * np.sqrt(2.0)
    else:
        d = hull_distance(V, G)
    out = np.where(d <= HULL_TOL, 0.0, INF)
    return float(out[0]) if single else out


def transport_cost(nu, mu, cost) -> float | np.ndarray:
    """Exact optimal transport cost from mu to nu, one transportation
    simplex solve per row; +inf when no finite-cost coupling exists and on
    rows off the domain (a negative entry, or mass other than mu's)."""
    V, single = _rows(nu)
    w = _ref_weights(mu)
    c = np.asarray(cost, dtype=float)
    off = (V < 0).any(axis=1) | (np.abs(V.sum(axis=1) - w.sum()) > 1e-9)
    out = np.array([INF if o else solve_transport(w, v, c).value
                    for v, o in zip(V, off)])
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def penalty(nu, spec: AlphaSpec) -> float | np.ndarray:
    """Evaluate the one-step penalty of the given specification."""
    if isinstance(spec, RelativeEntropy):
        return relative_entropy(nu, spec.mu)
    if isinstance(spec, LpEntropy):
        return lp_entropy(nu, spec.mu, spec.p)
    if isinstance(spec, Shortfall):
        return shortfall_penalty(nu, spec.mu, spec.loss)
    if isinstance(spec, Robust):
        return robust_entropy(nu, spec.generators)
    if isinstance(spec, SetIndicator):
        return hull_indicator(nu, spec.generators)
    if isinstance(spec, Transport):
        return transport_cost(nu, spec.mu, spec.cost)
    raise TypeError(f"unknown penalty spec {spec!r}")


def penalty_rows(spec: AlphaSpec, rows: np.ndarray) -> np.ndarray:
    out = penalty(np.atleast_2d(np.asarray(rows, dtype=float)), spec)
    return np.atleast_1d(out)


def penalty_grad(spec: AlphaSpec, rows: np.ndarray) -> np.ndarray:
    """Gradient of the one-step penalty at each row of a (B, m) batch.

    Relative and robust entropy give log(nu / ref) + 1, against mu or the
    minimizing hull mixture; L^p entropy R^(1-p) (dnu/dmu)^(p-1), with R the
    L^p(mu) norm of dnu/dmu; shortfall l*'(t* dnu/dmu) at the minimizing t*;
    transport the column potentials of an optimal plan (nan without one).
    The set indicator has no gradient.
    """
    V = np.atleast_2d(np.asarray(rows, dtype=float))
    if isinstance(spec, (RelativeEntropy, Robust)):
        ref = spec.mu.weights[None, :] if isinstance(spec, RelativeEntropy) \
            else _robust_rows(V, np.stack([g.weights
                                           for g in spec.generators]))[1]
        return (np.log(np.maximum(V, 1e-300)) -
                np.log(np.maximum(ref, 1e-300)) + 1.0)
    if isinstance(spec, (LpEntropy, Shortfall)):
        w = spec.mu.weights
        live = w > 0.0
        ratio = np.zeros_like(V)
        ratio[:, live] = V[:, live] / w[live]
        if isinstance(spec, Shortfall):
            _, t = _shortfall_rows(V, w, spec.loss)
            return np.asarray(spec.loss.conjugate_prime(t[:, None] * ratio))
        p = spec.p
        R = np.power(np.dot(np.power(ratio[:, live], p), w[live]), 1.0 / p)
        return (np.power(np.maximum(R, 1e-300), 1.0 - p)[:, None] *
                np.power(ratio, p - 1.0))
    if isinstance(spec, Transport):
        out = np.full(V.shape, np.nan)
        for b, v in enumerate(V):
            sol = solve_transport(spec.mu.weights, v, spec.cost)
            if sol.col_potentials is not None:
                out[b] = sol.col_potentials
        return out
    raise TypeError(f"no penalty gradient for {spec!r}")
