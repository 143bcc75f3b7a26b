"""Penalty functionals on probability vectors and their dual risk measures.

Six families are implemented, each a proper convex function alpha of the
probability vector with value +inf off its effective domain:

* relative entropy against a reference law;
* L^p entropy  ||dnu/dmu||_{L^p(mu)} - 1  (the heavy-tail penalty);
* shortfall penalty  inf_{t>0} (1/t) (1 + int l*(t dnu/dmu) dmu)  for a
  convex nondecreasing loss l;
* robust entropy: the infimum of relative entropy over a convex hull of
  reference laws (two generators: a Newton root of the mixture weight's
  first-order condition; any other number: a batched EM and face-Newton
  loop over the mixture weights, each row certified by Cover's bound);
* the indicator of a convex hull (0 inside, +inf outside), by exact distance;
* optimal transport cost to the reference law for a nonnegative cost
  matrix (computed exactly by the transportation simplex).

Each family is one class that owns both halves of its dual pair: alpha
with its supergradient from one pass, and rho(f) = sup_nu (int f dnu -
alpha(nu)), rows in, rows out (see ``AlphaSpec``).  Callers go through
``penalty(nu, spec)`` (values only), ``penalty_rows`` (the ascents) and
``risk.risk_rows(spec, F)``.  The shortfall and L^p risks are the smallest
m with int l(f - m) dmu <= 1 (Foellmer & Schied, Stochastic Finance, 4.9),
found per row by ``optim.newton_nonincreasing``.  Weighted sums over
states go through ``extreal.weighted_row_sums``, so a row's value does not
depend on the other rows of its batch.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import extreal
from .extreal import INF, fold_columns, weighted_row_sums
from .losses import LossFn, PowerLoss
from .optim import newton_nonincreasing
from .spaces import Dist, SpaceError
from .transport import solve_transport

log = logging.getLogger("sanovdual")

HULL_TOL = 1e-9      # largest exact hull distance counted as membership
EM_STEPS = 20        # EM steps before the robust mixture loop's Newton steps
MIXTURE_PASSES = 200  # cap on the passes of the robust mixture loop


# ---------------------------------------------------------------------------
# Penalty families
# ---------------------------------------------------------------------------

class AlphaSpec:
    """A penalty family.  On (B, m) float batches, ``penalty_rows(V)`` gives
    alpha and its gradient (``None`` for a family without one) at each row
    of V from one inner solve, ``risk_rows(F, near)`` and
    ``maximizer_rows(F)`` rho and the law attaining it (NaN where none
    does) for each row of F.  ``near`` (None or a level) says where each
    row's rho is expected; only the root-finding families use it.
    """

    method = "closed_form"    # how rho is found: "closed_form" | "root_find"
    has_gradient = True       # False where penalty_rows returns None for it

    @property
    def size(self) -> int:
        """The number of states: mu's."""
        return self.mu.size

    @property
    def support(self) -> np.ndarray:
        """States that can carry mass while the penalty stays finite."""
        return self.mu.weights > 0

    def law(self, row: np.ndarray) -> Dist | None:
        """A maximizer row as a law, None for a NaN row."""
        return None if np.isnan(row).any() else Dist(row)


class _Hull(AlphaSpec):
    """A family given by the convex hull of its generator laws; ``what``
    names it in errors."""

    def __post_init__(self):
        if len(self.generators) < 1:
            raise SpaceError(f"{self.what} needs a nonempty generator list")

    @property
    def size(self) -> int:
        return self.generators[0].size

    @property
    def support(self) -> np.ndarray:
        sup = np.zeros(self.size, dtype=bool)
        for g in self.generators:
            sup |= g.weights > 0
        return sup

    @property
    def weights(self) -> np.ndarray:
        """The generators as the rows of a (k, m) array."""
        return np.stack([g.weights for g in self.generators])


@dataclass(frozen=True)
class RelativeEntropy(AlphaSpec):
    """sum nu_i log(nu_i / mu_i), with 0 log 0 = 0; +inf off the support;
    rho is the entropic risk log int e^f dmu."""

    mu: Dist

    def penalty_rows(self, V: np.ndarray):
        W = self.mu.weights[None, :]
        return _rel_rows(V, W), _entropy_grad(V, W)

    def risk_rows(self, F: np.ndarray, near=None) -> np.ndarray:
        return entropic_risk_rows(F, self.mu.weights)

    def maximizer_rows(self, F: np.ndarray) -> np.ndarray:
        return _gibbs_rows(F, self.mu.weights[None, :])


class _LossPair(AlphaSpec):
    """A family whose rho is the shortfall risk of ``self.loss`` under mu."""

    method = "root_find"

    def risk_rows(self, F: np.ndarray, near=None) -> np.ndarray:
        return shortfall_risk_rows(F, self.mu.weights, self.loss, near)

    def maximizer_rows(self, F: np.ndarray) -> np.ndarray:
        """mu tilted by l'(f - rho(f)), normalized."""
        loss, w = self.loss, self.mu.weights
        m_star = shortfall_risk_rows(F, w, loss)
        neg = np.isneginf(F)
        with np.errstate(invalid="ignore", divide="ignore"):
            tilt = np.where((w > 0) & ~neg, np.asarray(loss.prime(
                np.where(neg, 0.0, F) - m_star[:, None])), 0.0)
            out = w * tilt
            total = out.sum(axis=1)
            out = out / total[:, None]
        out[~np.isfinite(m_star) | ~(total > 0)] = np.nan
        return out


@dataclass(frozen=True)
class LpEntropy(_LossPair):
    """||dnu/dmu||_{L^p(mu)} - 1 when nu << mu, else +inf; zero iff nu = mu.
    rho is the shortfall risk of the power loss of exponent p/(p-1)."""

    mu: Dist
    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise SpaceError("L^p entropy needs p > 1")
        self.loss    # LossError where p/(p - 1) rounds to 1 (p above ~1e16)

    @property
    def loss(self) -> PowerLoss:
        return PowerLoss(self.p / (self.p - 1.0))

    def penalty_rows(self, V: np.ndarray):
        """R - 1 and its gradient R^(1-p) (dnu/dmu)^(p-1), with R the
        L^p(mu) norm of dnu/dmu (0 off mu's support); the gradient is nan
        where R is 0."""
        p, w = self.p, self.mu.weights
        live = w > 0.0
        ratio = _ratio(V, w)
        R = np.power(weighted_row_sums(np.power(ratio[:, live], p), w[live]),
                     1.0 / p)
        out = R - 1.0
        out[((V > 0.0) & ~live).any(axis=1)] = INF
        with np.errstate(over="ignore", invalid="ignore"):
            grad = (np.power(np.maximum(R, 1e-300), 1.0 - p)[:, None] *
                    np.power(ratio, p - 1.0))
        return out, grad


@dataclass(frozen=True)
class Shortfall(_LossPair):
    """inf over t > 0 of (1/t)(1 + int l*(t dnu/dmu) dmu); rho is the
    shortfall risk inf{m : int l(f - m) dmu <= 1}."""

    mu: Dist
    loss: LossFn

    def penalty_rows(self, V: np.ndarray):
        """alpha, and its gradient l*'(t* dnu/dmu) at the minimizing t*."""
        out, t = _shortfall_rows(V, self.mu.weights, self.loss)
        return out, np.asarray(self.loss.conjugate_prime(
            t[:, None] * _ratio(V, self.mu.weights)))


@dataclass(frozen=True)
class Robust(_Hull):
    """The infimum of relative entropy over the hull of the generators; rho
    is the largest entropic risk among the generators."""

    generators: tuple[Dist, ...]

    what = "robust penalty"

    def penalty_rows(self, V: np.ndarray):
        """alpha, and its gradient log(nu / M) + 1 against the minimizing
        hull mixture M."""
        out, M = _robust_rows(V, self.weights)
        return out, _entropy_grad(V, M)

    def risk_rows(self, F: np.ndarray, near=None) -> np.ndarray:
        vals = np.stack([entropic_risk_rows(F, g.weights)
                         for g in self.generators])
        return vals.max(axis=0)

    def maximizer_rows(self, F: np.ndarray) -> np.ndarray:
        G = self.weights
        return _gibbs_rows(F, G[np.argmax([entropic_risk_rows(F, g)
                                           for g in G], axis=0)])


@dataclass(frozen=True)
class SetIndicator(_Hull):
    """0 on the hull of the generators, +inf off it; rho is the largest
    expectation among the generators, attained at a generator."""

    generators: tuple[Dist, ...]

    what = "set indicator"
    has_gradient = False

    def __post_init__(self):
        super().__post_init__()
        k, m = len(self.generators), self.size
        faces = sum(math.comb(k, r) for r in range(1, min(k, m) + 1))
        if faces > 4096:
            raise SpaceError(f"{self.what}: {k} generators on {m} states "
                             f"have {faces} hull faces, over 4096")

    def penalty_rows(self, V: np.ndarray):
        return np.where(hull_distance(V, self.weights) <= HULL_TOL, 0.0,
                        INF), None

    def risk_rows(self, F: np.ndarray, near=None) -> np.ndarray:
        vals = np.stack([extreal.integral_rows(g.weights, F)
                         for g in self.generators])
        return vals.max(axis=0)

    def maximizer_rows(self, F: np.ndarray) -> np.ndarray:
        """The best generator of each row."""
        G = self.weights
        vals = [extreal.integral_rows(g, F) for g in G]
        return G[np.argmax(vals, axis=0)]

    def law(self, row: np.ndarray) -> Dist:
        """The generator a maximizer row is, returned as it is."""
        return next(g for g in self.generators
                    if np.array_equal(g.weights, row))


@dataclass(frozen=True)
class Transport(AlphaSpec):
    """The optimal transport cost from mu to nu for the cost matrix c; rho
    integrates the relaxation max_y (f(y) - c(x, y)) against mu."""

    mu: Dist
    cost: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=float)
        m = self.mu.size
        if c.shape != (m, m):
            raise SpaceError("cost matrix must be m x m")
        if (c < 0).any():
            raise SpaceError("cost entries must be >= 0")
        if np.isinf(c).all(axis=1).any():
            raise SpaceError("cost needs at least one finite entry per row")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "cost", c)

    @property
    def support(self) -> np.ndarray:
        live = self.mu.weights > 0
        return np.isfinite(self.cost[live]).any(axis=0)

    def _off(self, V: np.ndarray) -> np.ndarray:
        """Rows off the domain: a negative entry, or mass other than mu's."""
        w = self.mu.weights
        return (V < 0).any(axis=1) | (np.abs(V.sum(axis=1) - w.sum()) > 1e-9)

    def penalty_rows(self, V: np.ndarray):
        """The cost and, as its gradient, the column potentials of an
        optimal plan, from one transportation simplex solve per row; +inf
        and nan where no finite-cost coupling exists and off the domain."""
        out, grad = np.full(len(V), INF), np.full(V.shape, np.nan)
        for b in np.flatnonzero(~self._off(V)):
            sol = solve_transport(self.mu.weights, V[b], self.cost)
            out[b] = sol.value
            if sol.col_potentials is not None:
                grad[b] = sol.col_potentials
        return out, grad

    def _relaxed(self, F: np.ndarray) -> np.ndarray:
        """f(y) - c(x, y) as (B, m_x, m_y), -inf where either is excluded."""
        c = self.cost
        return np.where(np.isinf(c)[None, :, :] | np.isneginf(F)[:, None, :],
                        -np.inf, F[:, None, :] - c[None, :, :])

    def risk_rows(self, F: np.ndarray, near=None) -> np.ndarray:
        """mu's integral of max_y f(y) - c(x, y), over the finite c(x, y)
        only: f(y) = -inf gives -inf there by itself."""
        w, finite = self.mu.weights, np.isfinite(self.cost)
        best = np.zeros(F.shape)
        for x in np.flatnonzero(w > 0):
            best[:, x] = fold_columns(
                np.maximum, F - np.where(finite[x], self.cost[x], 0.0),
                np.flatnonzero(finite[x]))
        return extreal.integral_rows(w, best)

    def maximizer_rows(self, F: np.ndarray) -> np.ndarray:
        """mu's mass at x moved to a best reply argmax_y f(y) - c(x, y)."""
        w = self.mu.weights
        terms = self._relaxed(F)
        best = terms.argmax(axis=2)                     # (B, m_x)
        out = np.zeros(F.shape)
        rows = np.arange(len(F))
        for x in np.flatnonzero(w > 0):
            out[rows, best[:, x]] += w[x]
        out[~np.isfinite(terms[:, w > 0]).any(axis=2).all(axis=1)] = np.nan
        return out

    def reply_costs(self, F: np.ndarray) -> np.ndarray:
        """The cost of the coupling by which ``maximizer_rows`` moves mu,
        each x to its best reply, for each row of finite f."""
        live = np.flatnonzero(self.mu.weights > 0)
        best = self._relaxed(F).argmax(axis=2)[:, live]
        return self.cost[live, best] @ self.mu.weights[live]


def penalty(nu, spec: AlphaSpec) -> float | np.ndarray:
    """alpha(nu) without its gradient: a float for a law or a vector, one
    value per row of a (B, m) batch."""
    V = np.asarray(nu.weights if isinstance(nu, Dist) else nu, dtype=float)
    if V.ndim == 1:
        return float(spec.penalty_rows(V[None, :])[0][0])
    return spec.penalty_rows(V)[0]


# ---------------------------------------------------------------------------
# Row kernels
# ---------------------------------------------------------------------------

def _ratio(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dnu/dmu of each row, 0 off mu's support."""
    live = w > 0.0
    ratio = np.zeros_like(V)
    ratio[:, live] = V[:, live] / w[live]
    return ratio


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


def _entropy_grad(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """log(nu / ref) + 1 for broadcastable (B, m) pairs."""
    return np.log(np.maximum(V, 1e-300)) - np.log(np.maximum(W, 1e-300)) + 1.0


def entropic_risk_rows(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log int e^f dmu of each row, shifted by its largest entry on mu's
    support, which is the value where it is +inf or -inf."""
    live = (w > 0.0).nonzero()[0]
    shift = fold_columns(np.maximum, F, live)
    fin = np.isfinite(shift)
    s0 = np.where(fin, shift, 0.0)
    with np.errstate(divide="ignore"):
        out = s0 + np.log(weighted_row_sums(np.exp(F[:, live] - s0[:, None]),
                                            w[live]))
    return np.where(fin, out, shift)


def _gibbs_rows(F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The reference rows W tilted by e^f, normalized; NaN rows where f is
    -inf on the whole support."""
    logits = np.where((W > 0) & ~np.isneginf(F),
                      np.log(np.maximum(W, 1e-300)) + F, -np.inf)
    fin = np.isfinite(logits)
    top = np.where(fin, logits, -np.inf).max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):     # 0/0 on rows without a law
        out = np.exp(np.where(fin, logits - top, -np.inf))
        return out / out.sum(axis=1, keepdims=True)


def shortfall_risk_rows(F: np.ndarray, w: np.ndarray, loss: LossFn,
                        near=None) -> np.ndarray:
    """The smallest m with int l(f - m) dmu <= 1, per row.  It is the
    row's largest entry on mu's support where that is +inf or -inf.

    The root finder's lower end opens at s - 1e-9 (1 + |s|), for s the
    level ``near`` where the roots are expected or else the row's cash
    floor rho(f) >= int f dmu (alpha(mu) = 0; with -inf entries, the mean
    of the finite ones).  A start above a row's root is stepped out, so
    every row is certified either way.  G sums the states by
    ``weighted_row_sums`` over (states, rows) arrays."""
    live = (w > 0.0).nonzero()[0]
    wl = w[live]
    FT = np.asarray(F, dtype=float).T[live]     # each state's row contiguous
    top = fold_columns(np.maximum, FT.T, range(len(live)))
    work = np.isfinite(top)
    out = np.array(top)
    if not work.any():
        return out

    FT = FT if work.all() else np.compress(work, FT, axis=1)
    fin = np.isfinite(FT)       # False at -inf only
    masked = not fin.all()
    # G's weights and the finite mass, which rounds as weighted_row_sums
    # gives it below, so that a row's start does not depend on its batch.
    head, mass = wl, sum(wl.tolist())
    if masked:      # G's -inf part is its first state, of weight 1
        FT = np.where(fin, FT, 0.0)
        cw = weighted_row_sums(~fin.T, wl) * loss.left_limit
        head, mass = np.append(1.0, wl), weighted_row_sums(fin.T, wl)
    if near is None:
        # hi is an upper end, since every loss has l(-1) < 1 and
        # left_limit < 1, so the first step down, hi - lo, is over 1.
        s, hi = weighted_row_sums(FT.T, wl) / mass, top[work] + 1.0
    else:
        s = np.full(FT.shape[1], float(near))
        hi = s + 1e-9 * (1.0 + np.abs(s))
    lo = s - 1e-9 * (1.0 + np.abs(s))

    def G(m):
        Z = FT - m
        vals, slopes = loss.value(Z), loss.prime(Z)
        if masked:
            vals = np.vstack([cw, np.where(fin, vals, 0.0)])
            slopes = np.where(fin, slopes, 0.0)
        return (weighted_row_sums(vals.T, head),
                weighted_row_sums(slopes.T, -wl))

    out[work] = newton_nonincreasing(G, 1.0, lo, hi, hi - lo)
    return out


def _shortfall_rows(V: np.ndarray, w: np.ndarray, loss: LossFn):
    """Shortfall penalty of each row of V and its minimizing t.

    With tau = 1/t and y = dnu/dmu / tau, tau (1 + int l*(y) dmu) is convex
    with derivative 1 - K(tau), K(tau) = int l(l*'(y)) dmu nonincreasing:
    tau* is the smallest tau with K(tau) <= 1, found in log tau with slope
    -int y^2 l*''(y) dmu.  +inf for mass off mu's support or below 0.
    """
    live = w > 0.0
    wl = w[live]
    rl = V[:, live] / wl
    off = ((V > 0.0) & ~live).any(axis=1) | (rl < 0.0).any(axis=1)
    R = rl[~off]

    def K(s: np.ndarray):
        Y = R * np.exp(-s)[:, None]
        curv = Y * Y * loss.conjugate_second(np.where(Y > 0.0, Y, 1.0))
        value = weighted_row_sums(loss.value(loss.conjugate_prime(Y)), wl)
        return value, weighted_row_sums(curv, -wl)

    lo, ones = np.zeros(len(R)), np.ones(len(R))
    tau = np.ones(V.shape[0])
    tau[~off] = np.exp(newton_nonincreasing(K, 1.0, lo, ones, ones))
    out = tau * (1.0 + weighted_row_sums(loss.conjugate(rl / tau[:, None]),
                                         wl))
    out[off] = INF
    return out, 1.0 / tau


def _robust_rows(V: np.ndarray, G: np.ndarray):
    """Robust entropy of each row of V against the generators (rows of G),
    and the minimizing hull mixture.

    Two generators: for phi(w) = H(nu | m(w)), m(w) = g1 + w d, d = g0 - g1,
    -phi'(w) = sum nu d / m(w) is nonincreasing in w and convex in
    v = w / (1 - w); its root in v is the minimizer unless that sits at
    w = 0 or w = 1.  The endpoints win only when strictly lower.  Any
    other number of generators goes to ``_mixture_rows``, which certifies
    each row by Cover's bound.
    """
    k = G.shape[0]
    if k == 2:
        g0, g1 = G
        live = (V > 0.0) & ((g0 > 0.0) | (g1 > 0.0))[None, :]

        def mix_at(wv: np.ndarray) -> np.ndarray:
            return wv[:, None] * g0[None, :] + (1.0 - wv)[:, None] * g1[None, :]

        def foc(U: np.ndarray, on: np.ndarray, wv: np.ndarray):
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(on, (g0 - g1) / mix_at(wv), 0.0)
            value, slope = (U * r).sum(axis=1), -(U * r * r).sum(axis=1)
            return value, np.where(np.isfinite(value), slope, 0.0)

        at0, at1 = (foc(V, live, np.full(len(V), e))[0] for e in (0.0, 1.0))
        wv = np.where(at0 > 0.0, 1.0, 0.0)
        work = (at0 > 0.0) & (at1 < 0.0)
        U, on = V[work], live[work]

        def in_v(v: np.ndarray):
            value, slope = foc(U, on, v / (1.0 + v))
            return value, slope / ((1.0 + v) * (1.0 + v))

        lo, ones = np.zeros(len(U)), np.ones(len(U))
        v = newton_nonincreasing(in_v, 0.0, lo, ones, ones)
        wv[work] = v / (1.0 + v)
        out = _rel_rows(V, mix_at(wv))
        for end in (0.0, 1.0):
            at_end = _rel_rows(V, mix_at(np.full(V.shape[0], end)))
            wv = np.where(at_end < out, end, wv)
            out = np.minimum(out, at_end)
        return out, mix_at(wv)
    return _mixture_rows(V, G)


def _state_sums(T: np.ndarray) -> np.ndarray:
    """Sums of T over its last axis by ``weighted_row_sums``, so that no row
    depends on its batch."""
    m = T.shape[-1]
    sums = weighted_row_sums(T.reshape(-1, m), np.ones(m))
    return sums.reshape(T.shape[:-1])


def _normalized(W: np.ndarray) -> np.ndarray:
    """Each row of W over its sum."""
    return W / _state_sums(W)[:, None]


def _mixture_state(W: np.ndarray, N: np.ndarray, G: np.ndarray):
    """At mixture weights W (B, k): the mixtures M = W G, nu / M (0 off
    nu's support), H(nu | M) (+inf where M misses nu) and r_j = sum_i nu_i
    G_ji / M_i."""
    M = sum(W[:, j, None] * G[j] for j in range(len(G)))
    live = N > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        Q = np.where(live, N / M, 0.0)
        H = _state_sums(np.where(live, N * (np.log(N) - np.log(M)), 0.0))
        return M, Q, H, _state_sums(Q[:, None, :] * G)


def _mixture_rows(V: np.ndarray, G: np.ndarray):
    """inf over mixture weights w of H(nu | w^T G) for each row nu of V and
    the minimizing mixture w^T G: the maximum-likelihood mixture problem.

    With s = sum_i nu_i and r_j = sum_i nu_i G_ji / (w^T G)_i, Cover's
    bound H - s log(max_j r_j / s) <= inf <= H certifies every w.  From the
    barycenter, ``EM_STEPS`` EM steps w <- w r / s; then each pass takes a
    Newton step on the face {w_j > 0}, by least squares in the differences
    G_j - G_ref to the face's largest weight (singular when k > m), cut at
    the boundary, whose blocking weights drop to 0, and halved up to 7
    times until it lowers H.  Failing that, the zero weight with the
    largest r_j > s re-enters by a Newton step towards its vertex (at most
    halfway), or else an EM step is taken.  A row stops at a gap of
    1e-12 (1 + |H|); rows open after ``MIXTURE_PASSES`` passes are logged.
    Rows with mass where every generator is 0 are +inf.
    """
    k = len(G)
    N = np.where(V > 0.0, V, 0.0)
    s = _state_sums(N)
    W = np.full((len(V), k), 1.0 / k)
    run = (s > 0.0) & ~((N > 0.0) & (G <= 0.0).all(axis=0)).any(axis=1)

    def cover_gap(H, r, s):
        """The gap of each row, and whether it is over 1e-12 (1 + |H|)."""
        gap = s * np.log(r.max(axis=1) / s)
        return gap, gap > 1e-12 * (1.0 + np.abs(H))

    for it in range(MIXTURE_PASSES):
        rows = np.flatnonzero(run)
        if rows.size == 0:
            break
        M, Q, H, r = _mixture_state(W[rows], N[rows], G)
        go = cover_gap(H, r, s[rows])[1]
        run[rows] = go
        rows, M, Q, H, r = (a[go] for a in (rows, M, Q, H, r))
        Wr, Nr, at = W[rows], N[rows], np.arange(go.sum())
        step = _normalized(Wr * r)
        if it < EM_STEPS:
            W[rows] = step
            continue

        # Re-entry of the zero weight j with the largest r_j, taken only
        # where no Newton step below lowers H.
        Mon = np.where(Nr > 0.0, M, 1.0)
        slope = np.where(Wr == 0.0, r - s[rows, None], 0.0)
        j = slope.argmax(axis=1)
        slope = slope[at, j]
        d = np.where(Nr > 0.0, G[j] / Mon - 1.0, 0.0)
        gam = np.clip(slope / np.maximum(_state_sums(Nr * d * d), 1e-300),
                      0.0, 0.5)[:, None]
        enter = _normalized(Wr + gam * (np.eye(k)[j] - Wr))
        step = np.where(gam > 0.0, enter, step)

        # Newton on the face, in the weights other than its largest, ref.
        ref = Wr.argmax(axis=1)
        Dg = G[None, :, :] - G[ref][:, None, :]
        Hess = _state_sums(Dg[:, :, None, :] * Dg[:, None, :, :]
                           * (Q / Mon)[:, None, None, :])
        grad = _state_sums(Dg * Q[:, None, :])
        D = np.zeros_like(Wr)
        for b, (w, h, g, i) in enumerate(zip(Wr, Hess, grad, ref)):
            S = np.flatnonzero(w > 0.0)
            S = S[S != i]
            D[b, S] = np.linalg.lstsq(h[np.ix_(S, S)], g[S], rcond=None)[0]
            D[b, i] = -D[b, S].sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(D < 0.0, Wr / -D, INF)
        t = np.minimum(ratio.min(axis=1), 1.0)[:, None]
        search = np.ones(len(rows), dtype=bool)
        for _ in range(8):
            cut = ratio <= t
            raw = np.where(cut, 0.0, np.maximum(Wr + t * D, 0.0))
            trial = _normalized(raw)
            Ht = _mixture_state(trial, Nr, G)[2]
            ok = search & ((Ht < H) | ((Ht <= H) & cut.any(axis=1)))
            step = np.where(ok[:, None], trial, step)
            search &= ~ok & (raw != Wr).any(axis=1)
            if not search.any():
                break
            t = 0.5 * t
        W[rows] = step
    M, _, H, r = _mixture_state(W, N, G)
    gap, over = cover_gap(H[run], r[run], s[run])
    if over.any():
        log.warning("_mixture_rows: %d passes left %d row(s) open, largest "
                    "Cover gap %.3g", MIXTURE_PASSES, int(over.sum()),
                    gap[over].max())
    return H, M


def hull_distance(V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of V to the hull of the rows of G:
    the least distance to the affine hull of a face of at most min(k, m)
    generators (Caratheodory), among rows with nonnegative face weights."""
    best = np.full(V.shape[0], INF)
    for r in range(1, min(G.shape) + 1):
        for first, *rest in itertools.combinations(range(len(G)), r):
            D, U = (G[rest] - G[first]).T, (V - G[first]).T
            c = np.linalg.lstsq(D, U, rcond=None)[0]
            ok = (c >= 0.0).all(axis=0) & (c.sum(axis=0) <= 1.0)
            best = np.minimum(best, np.where(
                ok, np.linalg.norm(U - D @ c, axis=0), INF))
    return best
