"""Reference computations that only the tests use.

The chain-rule toolbox for joint laws on E^n (dense product tensors, stage
kernels, disintegration and composition, the tensorized penalty), the
scalar one-row risk wrappers and maximizer, one-off risk measures
(optimized certainty equivalent, robust entropic risk), the penalty
recovered from the risk measure, exact enumerations (type classes and
their ranks, SAA exceedance, the i.i.d. expectation of a function of the
empirical measure, the n-step entropic value of one), the joint law that
attains a dense recursion's value, the segment-at-a-time quadrature
walk, the transportation simplex without kept tables, references over the mixture weights of a hull (the distance to
it by SLSQP, an EM upper bound on robust entropy), and maximization by
golden section along coordinates (on a box, and the former 2- and 3-d
rate function search), transport limit targets by linear programming,
values with central-difference gradients of rows-in,
values-out functions, and a tabulated loss's conjugate by a scan of every
node per entry.

Joint laws on E^n are dense tensors in row-major order: the flat index of
(x_1, ..., x_n) is x_1 * m^(n-1) + ... + x_n, i.e. x_1 is the slowest axis.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.special import gammaln

from sanovdual import extreal
from sanovdual.extreal import INF, NEG_INF
from sanovdual.losses import LossError, LossFn, TabulatedLoss
from sanovdual.montecarlo import GrowthValidationError, SAAInstance, rep_rng
from sanovdual.laws import FiniteSupportLaw
from sanovdual.cramer import _cumulant
from sanovdual.quadrature import expect
from sanovdual.optim import golden_min, newton_nonincreasing
from sanovdual.penalties import (AlphaSpec, LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport,
                                 entropic_risk_rows, penalty,
                                 shortfall_risk_rows)
from sanovdual.risk import risk_rows
from sanovdual.transport import (_MAX_PIVOTS, _PEN_TOL, TransportSolution,
                                 _northwest_corner)
from sanovdual.spaces import (DENSE_CAP, SUM_SLACK, Dist, SpaceError,
                              _as_prob_vector, _freeze, type_index,
                              type_successors)

log = logging.getLogger("sanovdual")


# ---------------------------------------------------------------------------
# Extended reals
# ---------------------------------------------------------------------------

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
    """Integrate ``values`` against the nonnegative vector ``weights``, one
    point at a time: a reference for ``extreal.integral_rows``.

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


# ---------------------------------------------------------------------------
# Joint laws on E^n, kernels and the chain rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductDist:
    """A joint law on E^n stored as a dense probability tensor."""

    n: int
    m: int
    tensor: np.ndarray  # flat, length m^n, row-major over (x_1, ..., x_n)

    def __post_init__(self):
        m = self.m
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

    def reshaped(self) -> np.ndarray:
        return self.tensor.reshape((self.m,) * self.n)

    @classmethod
    def iid(cls, mu: Dist, n: int) -> "ProductDist":
        t = mu.weights.copy()
        for _ in range(n - 1):
            t = np.multiply.outer(t, mu.weights).ravel()
        return cls(n, mu.size, t)


@dataclass(frozen=True)
class Kernel:
    """Stage-k conditional law: one Dist row per prefix in E^(k-1)."""

    stage: int  # k >= 2; rows are indexed by prefixes of length k-1
    m: int
    rows: np.ndarray  # shape (m^(k-1), m), each row a probability vector

    def __post_init__(self):
        m = self.m
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
        idx = 0
        for x in prefix:
            idx = idx * self.m + x
        return Dist(self.rows[idx])


def empirical_measure(m: int, x: Sequence[int]) -> Dist:
    """The empirical measure (1/n) sum of point masses of a sample tuple
    on m states."""
    xs = np.asarray(x, dtype=int)
    if xs.size < 1:
        raise SpaceError("empty sample")
    if (xs < 0).any() or (xs >= m).any():
        raise SpaceError("sample index out of range")
    counts = np.bincount(xs, minlength=m).astype(float)
    return Dist(counts / xs.size)


def disintegrate(nu: ProductDist) -> tuple[Dist, list[Kernel]]:
    """Split a joint law into its first marginal and stage kernels.

    On zero-probability prefixes the kernel row is the uniform
    distribution; any choice is valid there and uniform is deterministic.
    """
    m, n = nu.m, nu.n
    t = nu.reshaped()
    first = Dist(t.reshape(m, -1).sum(axis=1) if n > 1 else t.ravel())
    kernels = []
    for k in range(2, n + 1):
        joint = t.reshape((m ** k, -1)).sum(axis=1).reshape(m ** (k - 1), m)
        prefix = joint.sum(axis=1)
        rows = np.full_like(joint, 1.0 / m)
        live = prefix > 0.0
        rows[live] = joint[live] / prefix[live, None]
        kernels.append(Kernel(k, m, rows))
    return first, kernels


def compose(first: Dist, kernels: Iterable[Kernel]) -> ProductDist:
    """Rebuild the joint law from a first marginal and stage kernels."""
    t = first.weights.copy()
    n = 1
    for ker in kernels:
        if ker.m != first.size:
            raise SpaceError("kernel state count mismatch")
        if ker.rows.shape[0] != t.size:
            raise SpaceError(
                f"kernel at stage {ker.stage} expects {ker.rows.shape[0]} "
                f"prefixes, got {t.size}"
            )
        t = (t[:, None] * ker.rows).ravel()
        n += 1
    return ProductDist(n, first.size, t)


def tensor_penalty(nu: ProductDist, spec: AlphaSpec) -> float:
    """Expected sum of one-step penalties over the disintegration kernels."""
    out = tensor_penalty_batch(nu.tensor[None, :], nu.n, nu.m, spec)
    return float(out[0])


def tensor_penalty_batch(tensors: np.ndarray, n: int, m: int,
                         spec: AlphaSpec) -> np.ndarray:
    """Tensorized penalty over a (B, m^n) batch of joint laws: the expected
    sum of the one-step penalties of the successive disintegration kernels;
    terms on zero-probability prefixes contribute nothing."""
    T = np.atleast_2d(np.asarray(tensors, dtype=float))
    B = T.shape[0]
    total = np.zeros(B)
    for k in range(1, n + 1):
        joint = T.reshape(B, m ** k, -1).sum(axis=2)
        joint = joint.reshape(B, m ** (k - 1), m)
        prefix = joint.sum(axis=2)                          # (B, m^(k-1))
        rows = np.full_like(joint, 1.0 / m)
        live = prefix > 0.0
        rows[live] = joint[live] / prefix[live][:, None]
        alpha = penalty(rows.reshape(-1, m), spec).reshape(B, -1)
        contrib = np.where(live,
                           prefix * np.where(np.isfinite(alpha), alpha, 0.0),
                           0.0)
        contrib[live & np.isposinf(alpha)] = INF
        total = total + contrib.sum(axis=1)
    return total


def greedy_optimizer_from_trace(stages, spec: AlphaSpec) -> ProductDist:
    """The joint law attaining a dense recursion's value, from its stage
    values (``backward_value_dense(..., keep_trace=True)``): the maximizer
    of the first stage, then one kernel row per prefix, stage by stage."""
    m = spec.size
    first = Dist(spec.maximizer_rows(stages[1][None])[0])
    kernels = [Kernel(k, m, spec.maximizer_rows(stages[k].reshape(-1, m)))
               for k in range(2, len(stages))]
    return compose(first, kernels)


# ---------------------------------------------------------------------------
# Type classes and exact enumerations
# ---------------------------------------------------------------------------

def dense_ranks(n: int, m: int) -> np.ndarray:
    """Type-class rank of every flat index of E^n (row-major order)."""
    r = np.zeros(1, dtype=np.int64)
    for j in range(n):
        r = type_successors(j, m)[r].ravel()
    return r


def expand_dense(n: int, m: int, values: np.ndarray) -> np.ndarray:
    """The dense field on E^n, m^n entries, of the symmetric one with
    ``values`` by type class in rank order."""
    return np.asarray(values, dtype=float)[dense_ranks(n, m)]


def symmetric_from_dense(f: np.ndarray, n: int, m: int) -> np.ndarray:
    """Compress a dense field to its values by type class in rank order,
    rejecting non-symmetric input; each type class keeps the value at its
    first flat index."""
    flat = np.asarray(f, dtype=float).ravel()
    if flat.size != m ** n:
        raise SpaceError("dense field length does not match m^n")
    rank = dense_ranks(n, m)
    _, first = np.unique(rank, return_index=True)
    if not np.isclose(flat, flat[first][rank], rtol=0.0, atol=1e-12).all():
        raise SpaceError("field is not permutation-invariant")
    return flat[first]


def type_rank(counts) -> np.ndarray:
    """Rank of (..., m) occupancy vectors within ``type_index(sum, m)``:
    sum over d < m of C(T_d + d - 1, d), T_d the sum of the last d counts
    (the combinatorial number system, Knuth, TAOCP 4A, 7.2.1.3)."""
    tail = np.cumsum(np.asarray(counts, dtype=np.int64)[..., :0:-1], axis=-1)
    binom = np.ones_like(tail)                      # over T_1, ..., T_{m-1}
    for i in range(1, tail.shape[-1] + 1):
        binom[..., i - 1:] = binom[..., i - 1:] * (tail[..., i - 1:] + i - 1) // i
    return binom.sum(axis=-1)


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
    return [(c, multinomial(c)) for c in map(tuple, type_index(n, m).tolist())]


def _type_log_probs(w: np.ndarray, n: int):
    """The type classes of E^n that have positive probability under the
    n-fold product of w, and their log probabilities."""
    C = type_index(n, w.size)
    C = C[~((C > 0) & (w <= 0)).any(axis=1)]
    return C, gammaln(n + 1) - gammaln(C + 1).sum(axis=1) + \
        C @ np.log(np.where(w > 0, w, 1.0))


def iid_empirical_expectation(F, nu_weights, n: int) -> float:
    """E under the n-fold product of nu of F(L_n), summed by type class."""
    C, logp = _type_log_probs(np.asarray(nu_weights, dtype=float), n)
    return float(sum(np.exp(lp) * float(F(c / n)) for lp, c in zip(logp, C)))


def entropic_type_value(F, mu_weights, n: int) -> float:
    """(1/n) log E exp(n F(L_n)) under the n-fold product of mu, the
    n-step entropic value of n F(L_n) over n, as one log-sum-exp over the
    type classes with their multinomial weights; F maps (B, m) laws to
    (B,) values."""
    C, logp = _type_log_probs(np.asarray(mu_weights, dtype=float), n)
    terms = logp + n * F(C / n)
    peak = terms.max()
    return float((peak + np.log(np.exp(terms - peak).sum())) / n)


def saa_exact_exceedance(instance: SAAInstance, n: int) -> float:
    """Exact exceedance probability by enumerating the n-fold product law
    (finite-support laws only)."""
    if not isinstance(instance.law, FiniteSupportLaw):
        raise TypeError("exact enumeration needs a finite-support law")
    law = instance.law
    idx = np.array(list(itertools.product(range(law.weights.size), repeat=n)))
    means = instance.empirical_losses(law.atoms[idx])
    hit = np.abs(means.min(axis=0) - instance.true_value()) >= instance.epsilon
    # Summed in enumeration order; pairwise np.sum would change last digits.
    return float(sum(law.weights[idx[hit]].prod(axis=1), 0.0))


def check_integrability(instance: SAAInstance, seed: int = 0,
                        draws: int = 100_000) -> float:
    """Sampled q-th moment of (sup_x h(x, W))^+ of an SAA instance; raises
    ``GrowthValidationError`` unless it is finite.  It draws from stream 0
    of the seed, which no Monte Carlo experiment uses."""
    w = instance.law.draw(rep_rng(seed, 0), draws)
    H = np.stack([instance.loss(x, w) for x in instance.decisions])
    val = float(np.mean(np.maximum(H.max(axis=0), 0.0) ** instance.q))
    if not math.isfinite(val):
        raise GrowthValidationError("sampled psi^q moment is not finite")
    return val


# ---------------------------------------------------------------------------
# The transportation simplex without kept tables
# ---------------------------------------------------------------------------

def solve_transport_uncached(a, b, cost,
                             eps: float = 1e-13) -> TransportSolution:
    """``transport.solve_transport`` as it was before it kept its tables:
    it builds A and inverts the basis afresh on every pivot."""
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    cost = np.asarray(cost, dtype=float)
    R, C = a.size, b.size
    if cost.shape != (R, C):
        raise ValueError("cost matrix shape mismatch")
    if (cost < 0).any():
        raise ValueError("cost entries must be >= 0")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise ValueError("marginals must have equal mass")

    forbidden = np.isinf(cost)
    fin = np.where(forbidden, 0.0, cost)
    pair = np.column_stack([forbidden.ravel(), fin.ravel()])
    val_tol = 1e-12 * (1.0 + float(np.abs(fin).max(initial=0.0)))
    cells = np.arange(R * C)
    A = np.zeros((R + C, R * C))
    A[cells // C, cells] = 1.0
    A[R + cells % C, cells] = 1.0
    A = A[1:]

    ap = a + eps
    bp = b.copy()
    bp[-1] += R * eps
    rhs = np.concatenate([ap[1:], bp])
    basis = _northwest_corner(ap, bp)

    pivots = 0
    while True:
        Binv = np.rint(np.linalg.inv(A.take(basis, axis=1)))
        y = Binv.T @ pair.take(basis, axis=0)
        r0, r1 = (pair - A.T @ y).T
        negative = (r0 < -_PEN_TOL) | ((r0 <= _PEN_TOL) & (r1 < -val_tol))
        negative[basis] = False
        entering = int(negative.argmax())
        if not negative[entering]:
            break
        if pivots == _MAX_PIVOTS:
            raise ArithmeticError("transportation simplex failed to terminate")
        pivots += 1
        x = Binv @ rhs
        minus = Binv @ A[:, entering] > 0.5
        theta = x[minus].min()
        del basis[int((minus & (x <= theta)).argmax())]
        basis.append(entering)

    exact = Binv @ np.concatenate([a[1:], b])
    if (exact < -1e-8).any():
        raise ArithmeticError("tree flow went negative beyond tolerance")
    plan = np.zeros(R * C)
    plan[basis] = np.maximum(exact, 0.0)
    plan = plan.reshape(R, C)

    if float(plan[forbidden].sum()) > 1e-12:
        return TransportSolution(INF, None, None, None, pivots)
    u = np.concatenate([[0.0], y[:R - 1, 1]])
    value = float((plan * fin).sum())
    return TransportSolution(value, plan, u, y[R - 1:, 1].copy(), pivots)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

def bisect_root(G: Callable[[float], float], target: float, lo: float,
                hi: float, rel_tol: float = 1e-12) -> float:
    """Smallest m with G(m) <= target for a scalar nonincreasing G, by plain
    bisection: [lo, hi] is widened by its width until G(lo) > target >=
    G(hi), then halved until hi - lo <= rel_tol (1 + |hi|); returns hi."""
    while G(lo) <= target:
        lo -= hi - lo
    while G(hi) > target:
        hi += hi - lo
    while hi - lo > rel_tol * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if G(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Penalty infima by golden section
# ---------------------------------------------------------------------------

def shortfall_penalty_golden(V: np.ndarray, w: np.ndarray,
                             loss: LossFn) -> np.ndarray:
    """Shortfall penalty of each row of V as a direct minimum over t: the
    map log t -> (1/t)(1 + int l*(t dnu/dmu) dmu) is scanned at 61 points
    of [-30, 30], then golden section runs between the neighbours of the
    best point; +inf for mass of nu off the support of mu."""
    V = np.atleast_2d(np.asarray(V, dtype=float))
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

    B = V.shape[0]
    grid = np.linspace(-30.0, 30.0, 61)
    vals = np.stack([objective(np.full(B, s)) for s in grid])
    best = np.argmin(vals, axis=0)
    _, out = golden_min(objective, grid[np.maximum(best - 1, 0)],
                        grid[np.minimum(best + 1, grid.size - 1)])
    out = np.minimum(out, vals[best, np.arange(B)])
    out[((V > 0.0) & ~live[None, :]).any(axis=1)] = INF
    return out


def robust_pair_golden(V: np.ndarray, g0: np.ndarray,
                       g1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Robust entropy of each row of V against two generators, and the
    minimizing mixture weight w of w g0 + (1 - w) g1: golden section over
    w in [0, 1], where an endpoint wins only when strictly lower."""
    V = np.atleast_2d(np.asarray(V, dtype=float))

    def mix_at(wv: np.ndarray) -> np.ndarray:
        return wv[:, None] * g0[None, :] + (1.0 - wv)[:, None] * g1[None, :]

    def objective(wv: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(V > 0.0, V * np.log(V / mix_at(wv)), 0.0)
        return terms.sum(axis=1)

    B = V.shape[0]
    wv, out = golden_min(objective, np.zeros(B), np.ones(B))
    for end in (0.0, 1.0):
        at_end = objective(np.full(B, end))
        wv = np.where(at_end < out, end, wv)
        out = np.minimum(out, at_end)
    return out, wv


# ---------------------------------------------------------------------------
# Central differences
# ---------------------------------------------------------------------------

def numeric_tangent_grad(fn: Callable[[np.ndarray], np.ndarray],
                         X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of a rows-in, values-out ``fn`` at each row of X, of
    shape (k, ...), and its central-difference gradients there, from one
    ``fn`` call on the k (2n + 1) rows X, X + h e_i and X - h e_i (n
    entries per row, h = 1e-7): an ascent evaluator.

    Where one probe is not finite the difference is one-sided; where
    neither is, the entry is 0.
    """
    X = np.asarray(X, dtype=float)
    k, shape = X.shape[0], X.shape[1:]
    n = int(np.prod(shape))
    h = 1e-7
    eye = np.eye(n)
    steps = np.concatenate([np.zeros((1, n)), h * eye, -h * eye])
    probes = (X.reshape(k, 1, n) + steps).reshape((-1,) + shape)
    vals = np.asarray(fn(probes), dtype=float).reshape(k, 2 * n + 1)
    fx, up, dn = vals[:, :1], vals[:, 1:n + 1], vals[:, n + 1:]
    fin_up, fin_dn = np.isfinite(up), np.isfinite(dn)
    with np.errstate(invalid="ignore"):
        g = np.where(fin_up & fin_dn, (up - dn) / (2 * h),
                     np.where(fin_up, (up - fx) / h,
                              np.where(fin_dn, (fx - dn) / h, 0.0)))
    return fx[:, 0], g.reshape(X.shape)


# ---------------------------------------------------------------------------
# Maximization by golden section along coordinates
# ---------------------------------------------------------------------------

def golden_max(fn, lo, hi):
    """Golden-section maximum of a unimodal function on [lo, hi]."""
    x, v = golden_min(lambda t: -fn(t), lo, hi)
    return x, -v


# ---------------------------------------------------------------------------
# Transport limit targets by linear programming
# ---------------------------------------------------------------------------

def _coupling_lp(objective, mu, cost, A=None, b=None, extra=0):
    """min of ``objective`` . (pi, z) over couplings pi (row-major) with
    first marginal mu, no mass on an infinite cost, and ``extra`` free
    variables z, subject to A (pi, z) <= b: scipy's HiGHS linear program.
    +inf when infeasible."""
    mu = np.asarray(mu, dtype=float)
    finite = np.isfinite(np.asarray(cost, dtype=float)).ravel()
    m = len(mu)
    A_eq = np.hstack([np.kron(np.eye(m), np.ones(m)), np.zeros((m, extra))])
    bounds = [(0.0, None if f else 0.0) for f in finite] + \
        [(None, None)] * extra
    res = linprog(objective, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=mu,
                  bounds=bounds, method="highs")
    return res.fun if res.status == 0 else INF


def transport_level_cost(mu, cost, c: int, s: float) -> float:
    """The least W_c(mu, nu) over the laws nu with nu_c = s."""
    m = len(mu)
    C = np.asarray(cost, dtype=float).ravel()
    at_c = np.tile(np.eye(m)[c], m)
    return _coupling_lp(np.where(np.isfinite(C), C, 0.0), mu, cost,
                        np.vstack([at_c, -at_c]), np.array([s, -s]))


def abs_well_transport_sup(mu, cost, c: int, center: float,
                           k: float) -> float:
    """sup over nu of -k |nu_c - center| - W_c(mu, nu): the largest z - <c,
    pi> with z <= -k (nu_c - center) and z <= k (nu_c - center)."""
    m = len(mu)
    C = np.asarray(cost, dtype=float).ravel()
    at_c = np.tile(np.eye(m)[c], m)
    A = np.array([np.append(k * at_c, 1.0), np.append(-k * at_c, 1.0)])
    return -_coupling_lp(np.append(np.where(np.isfinite(C), C, 0.0), -1.0),
                         mu, cost, A, np.array([k * center, -k * center]),
                         extra=1)


def coordinate_ascent_box(objective: Callable[[np.ndarray], float],
                          x0: np.ndarray, lo: float, hi: float,
                          sweeps: int = 50,
                          tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Cyclic coordinate maximization over the box [lo, hi]^d, by golden
    section along each coordinate, until a sweep gains at most ``tol``; a
    ``sanovdual`` warning is logged if ``sweeps`` sweeps do not get there."""
    x = np.asarray(x0, dtype=float).copy()
    fx = objective(x)
    for _ in range(sweeps):
        improved = 0.0
        for i in range(x.size):
            def slice_fn(t, i=i):
                y = x.copy()
                y[i] = t
                return objective(y)
            ti, vi = golden_max(slice_fn, lo, hi)
            if vi > fx + 1e-15:
                improved += vi - fx
                x[i], fx = ti, vi
        if improved <= tol:
            break
    else:
        log.warning("coordinate_ascent_box: %d sweeps left the ascent open, "
                    "the last one gained %.3g", sweeps, improved)
    return x, fx


def plus_power_moment(law, t, m: float, q: float) -> float:
    """E[ ((1 + <t, X> - m)^+)^q ] alone, apart from the moment rows that
    the cumulant's Newton search uses."""
    t = np.atleast_1d(t)
    if isinstance(law, FiniteSupportLaw):
        pts = law.atoms
        proj = pts @ t if pts.ndim == 2 else pts * float(t[0])
        base = np.maximum(1.0 + proj - m, 0.0) ** q
        return float(np.dot(law.weights, base))
    ts = float(t[0])
    if ts == 0.0:
        return max(1.0 - m, 0.0) ** q
    return expect(law.pdf, *law.support,
                  lambda x: np.maximum(1.0 + ts * x - m, 0.0) ** q,
                  breaks=((m - 1.0) / ts,), centre=law.centre)


def rate_coordinate_search(law, x, q: float, ray_radius: float = 1e3):
    """The rate function in two or three dimensions as sanovdual computed
    it before its Newton search: the best point of a 7^d grid on [-2, 2]^d,
    then coordinate ascent on the box of radius 16 and on the box of
    radius ``ray_radius``; +inf where the value still grows by more than
    1e-6 (1 + |value|) from the first box to the second, so a maximizer
    beyond 16 reads as +inf.  Each cumulant root starts from the tangent at
    the point solved last."""
    xv = np.asarray(x, dtype=float)
    d = xv.size
    tangent = None

    def objective(t):
        nonlocal tangent
        start = None
        if tangent is not None:
            t_i, lam_i, grad_i = tangent
            start = lam_i + float(np.dot(grad_i, t - t_i))
        lam, grad, _ = _cumulant(law, t, q, start)
        if grad is not None:    # copied: the coordinate ascent mutates t
            tangent = (np.array(t), lam, grad)
        return float(np.dot(xv, t)) - lam

    grid = np.linspace(-2.0, 2.0, 7)
    mesh = np.stack(np.meshgrid(*([grid] * d), indexing="ij"),
                    axis=-1).reshape(-1, d)
    t0 = mesh[int(np.argmax([objective(t) for t in mesh]))]
    t_inner, v_inner = coordinate_ascent_box(objective, t0, -16.0, 16.0,
                                             sweeps=30)
    _, v_outer = coordinate_ascent_box(objective, t_inner, -ray_radius,
                                       ray_radius, sweeps=30)
    if v_outer > v_inner + 1e-6 * (1.0 + abs(v_inner)):
        return INF
    return v_outer


# ---------------------------------------------------------------------------
# References over the mixture weights of a hull
# ---------------------------------------------------------------------------

def hull_distance_slsqp(v: np.ndarray, G: np.ndarray) -> float:
    """Euclidean distance from v to the hull of the rows of G, as the least
    |w^T G - v| over the k-simplex of mixture weights w, by SLSQP from the
    barycenter: no enumeration of faces."""
    k = G.shape[0]
    res = minimize(lambda w: float(np.sum((w @ G - v) ** 2)),
                   np.full(k, 1.0 / k),
                   jac=lambda w: 2.0 * G @ (w @ G - v), method="SLSQP",
                   bounds=[(0.0, 1.0)] * k,
                   constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones(k)}],
                   options={"ftol": 1e-16, "maxiter": 1000})
    w = np.maximum(res.x, 0.0)
    return float(np.linalg.norm((w / w.sum()) @ G - v))


def robust_em_bound(row: np.ndarray, G: np.ndarray,
                    steps: int = 5000) -> float:
    """An upper bound on the robust entropy of one law against the rows of
    G: H(nu | w^T G) after ``steps`` EM updates w <- w (nu / w^T G) G^T of
    the mixture weights from the barycenter.  Every iterate is a feasible
    mixture, so the value bounds the infimum from above."""
    w = np.full(G.shape[0], 1.0 / G.shape[0])
    for _ in range(steps):
        ratio = np.divide(row, w @ G, out=np.zeros_like(row), where=row > 0.0)
        w = w * (ratio @ G.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(row > 0.0, row * np.log(row / (w @ G)), 0.0)
    return float(terms.sum())


# ---------------------------------------------------------------------------
# Row kernels as reductions along each row
# ---------------------------------------------------------------------------
# The one-step risk kernels in the form they had before their max, min,
# any and sum over a row's states became elementwise operations on whole
# state columns.  Every value must stay bit for bit what these give.

def integral_rows_by_row(weights, rows) -> np.ndarray:
    """``extreal.integral_rows`` by reductions along each row."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(rows, dtype=float)
    live = w > 0.0
    if not live.any():
        return np.zeros(v.shape[0])
    vs = v[:, live]
    neg = np.isneginf(vs).any(axis=1)
    pos = np.isposinf(vs).any(axis=1)
    out = extreal.weighted_row_sums(np.where(np.isfinite(vs), vs, 0.0),
                                    w[live])
    out[pos] = INF
    out[neg] = NEG_INF
    return out


def entropic_risk_rows_by_row(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``penalties.entropic_risk_rows`` by reductions along each row."""
    live = w > 0.0
    Fl = F[:, live]
    pos = np.isposinf(Fl).any(axis=1)
    shift = np.max(np.where(np.isneginf(Fl), -np.inf, Fl), axis=1)
    s0 = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = s0 + np.log(extreal.weighted_row_sums(np.exp(np.where(
            np.isneginf(Fl), -np.inf, Fl) - s0[:, None]), w[live]))
    out[np.isneginf(shift)] = NEG_INF
    out[pos] = INF
    return out


def shortfall_risk_rows_by_row(F: np.ndarray, w: np.ndarray,
                               loss: LossFn) -> np.ndarray:
    """``penalties.shortfall_risk_rows`` by reductions along each row and
    G on (rows, states) arrays, from the same mu-mean floor.  Its weight
    sum of the -inf states rounds alike for fewer than 8 states."""
    live = w > 0.0
    Fl = np.asarray(F, dtype=float)[:, live]
    wl = w[live]
    out = np.full(Fl.shape[0], np.nan)
    pos = np.isposinf(Fl).any(axis=1)
    fin = np.isfinite(Fl)
    const = (wl[None, :] * np.isneginf(Fl)).sum(axis=1) * loss.left_limit
    no_finite = ~fin.any(axis=1)
    out[pos] = INF
    out[no_finite & ~pos] = NEG_INF
    work = ~(pos | no_finite)
    if not work.any():
        return out
    Fw, finw, cw = Fl[work], fin[work], const[work]
    hi = np.where(finw, Fw, -np.inf).max(axis=1) + 1.0
    Fz = np.where(finw, Fw, 0.0)
    # The mu-mean of the finite entries, the floor the kernel starts at.
    s = (extreal.weighted_row_sums(Fz, wl) /
         extreal.weighted_row_sums(finw, wl))
    lo = s - 1e-9 * (1.0 + np.abs(s))
    head = np.concatenate([[1.0], wl])     # cw first, then the states

    def G(m):
        Z = Fz - m[:, None]
        vals = np.where(finw, loss.value(Z), 0.0)
        slopes = np.where(finw, loss.prime(Z), 0.0)
        return (extreal.weighted_row_sums(np.column_stack([cw, vals]), head),
                extreal.weighted_row_sums(slopes, -wl))

    out[work] = newton_nonincreasing(G, 1.0, lo, hi, hi - lo)
    return out


def power2_shortfall_rows(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The shortfall risk of the loss ((1 + x)^+)^2 in closed form, per row
    with a finite largest entry.  On the active states A, where
    1 + f - rho > 0, sum_A w (1 + f - rho)^2 = 1 is a quadratic in rho, so
    rho = M + 1 - sqrt((1 - V) / W) for the mass W, mean M and spread
    V = sum_A w (f - M)^2 of f on A.  A holds the k largest entries for the
    smallest k whose rho leaves the next entry inactive: a smaller k gives
    a root below the next entry, as that entry is active."""
    live = w > 0.0
    Fl = np.asarray(F, dtype=float)[:, live]
    order = np.argsort(-Fl, axis=1, kind="stable")
    fs = np.take_along_axis(Fl, order, axis=1)
    ws = w[live][order]
    out = np.full(len(Fl), np.nan)
    for k in range(1, fs.shape[1] + 1):
        f, v = fs[:, :k], ws[:, :k]
        W = v.sum(axis=1)
        with np.errstate(invalid="ignore"):     # -inf in A, or V > 1
            M = (v * f).sum(axis=1) / W
            V = (v * (f - M[:, None]) ** 2).sum(axis=1)
            rho = M + 1.0 - np.sqrt((1.0 - V) / W)
        below = fs[:, k] if k < fs.shape[1] else -np.inf
        first = np.isnan(out) & (rho >= 1.0 + below)
        out[first] = rho[first]
    return out


def transport_risk_rows_by_row(spec: Transport, F: np.ndarray) -> np.ndarray:
    """``Transport.risk_rows`` by a maximum along each row of the (B, m, m)
    relaxation f(y) - c(x, y)."""
    c = spec.cost
    with np.errstate(invalid="ignore"):     # inf - inf, masked out
        relaxed = np.where(np.isinf(c)[None, :, :] |
                           np.isneginf(F)[:, None, :],
                           -np.inf, F[:, None, :] - c[None, :, :])
    return integral_rows_by_row(spec.mu.weights, relaxed.max(axis=2))


# ---------------------------------------------------------------------------
# Scalar risk wrappers and one-off risk measures
# ---------------------------------------------------------------------------

def _w(mu) -> np.ndarray:
    return mu.weights if isinstance(mu, Dist) else np.asarray(mu, dtype=float)


def entropic_risk(f, mu) -> float:
    """log int e^f dmu, computed with a max shift."""
    return float(entropic_risk_rows(np.atleast_2d(np.asarray(f, float)),
                                    _w(mu))[0])


def shortfall_risk(f, mu, loss: LossFn) -> float:
    """inf{m : int l(f - m) dmu <= 1}: one row of
    ``penalties.shortfall_risk_rows``."""
    return float(shortfall_risk_rows(np.atleast_2d(np.asarray(f, float)),
                                     _w(mu), loss)[0])


def risk(f, spec: AlphaSpec) -> float:
    """One-step risk of the given penalty specification."""
    return float(risk_rows(spec, np.atleast_2d(np.asarray(f, dtype=float)))[0])


def risk_maximizer(f, spec: AlphaSpec) -> Optional[Dist]:
    """The law attaining sup_nu (int f dnu - alpha(nu)), one field at a
    time, or None when no law attains a finite value: the per-row loop
    that the ``maximizer_rows`` methods replace, kept as its reference."""
    fv = np.asarray(f, dtype=float)

    if isinstance(spec, (RelativeEntropy, Robust)):
        if isinstance(spec, RelativeEntropy):
            w = spec.mu.weights
        else:
            best = int(np.argmax([entropic_risk(fv, g)
                                  for g in spec.generators]))
            w = spec.generators[best].weights
        logits = np.where((w > 0) & ~np.isneginf(fv),
                          np.log(np.maximum(w, 1e-300)) + fv, -np.inf)
        if not np.isfinite(logits).any():
            return None
        logits -= logits[np.isfinite(logits)].max()
        out = np.exp(np.where(np.isfinite(logits), logits, -np.inf))
        return Dist(out / out.sum())

    if isinstance(spec, (LpEntropy, Shortfall)):
        loss = spec.loss
        w = spec.mu.weights
        m_star = shortfall_risk(fv, spec.mu, loss)
        if not np.isfinite(m_star):
            return None
        tilt = np.where((w > 0) & ~np.isneginf(fv),
                        np.asarray(loss.prime(np.where(np.isneginf(fv), 0.0,
                                                       fv) - m_star)), 0.0)
        out = w * tilt
        if out.sum() <= 0:
            return None
        return Dist(out / out.sum())

    if isinstance(spec, SetIndicator):
        vals = [integral(g.weights, fv) for g in spec.generators]
        return spec.generators[int(np.argmax(vals))]

    if isinstance(spec, Transport):
        c = np.asarray(spec.cost, dtype=float)
        w = spec.mu.weights
        out = np.zeros(spec.size)
        for x in range(spec.size):
            if w[x] <= 0:
                continue
            terms = np.where(np.isinf(c[x]) | np.isneginf(fv), -np.inf,
                             fv - c[x])
            if not np.isfinite(terms).any():
                return None
            out[int(np.argmax(terms))] += w[x]
        return Dist(out)

    raise TypeError(f"unknown penalty spec {spec!r}")


def robust_entropic_risk(f, generators: Sequence[Dist]) -> float:
    """max over generator laws of the entropic risk (hull max sits at a vertex)."""
    F = np.atleast_2d(np.asarray(f, dtype=float))
    vals = [entropic_risk_rows(F, g.weights)[0] for g in generators]
    return float(max(vals))


def grid_then_golden_min(fn, lo, hi, coarse: int = 121):
    """Coarse scan to bracket the minimum, then golden section inside."""
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, coarse - 1)]
    return golden_min(fn, a, b)


def oce_risk(f, mu, phi_star: Callable[[np.ndarray], np.ndarray]) -> float:
    """Optimized-certainty-equivalent dual: inf_m (int phi*(f - m) dmu + m)."""
    fv = np.asarray(f, dtype=float)
    w = _w(mu)
    live = w > 0.0
    fl, wl = fv[live], w[live]
    if np.isposinf(fl).any():
        return INF

    def J(m):
        vals = np.asarray(phi_star(fl - m), dtype=float)
        return float(np.dot(np.where(np.isfinite(vals), vals, 0.0), wl)
                     + (INF if (np.isposinf(vals) & (wl > 0)).any() else 0.0)) + m

    lo = float(np.min(fl[np.isfinite(fl)], initial=0.0)) - 1.0
    hi = float(np.max(fl[np.isfinite(fl)], initial=0.0)) + 1.0
    for _ in range(60):
        xs = np.linspace(lo, hi, 41)
        vals = [J(x) for x in xs]
        i = int(np.argmin(vals))
        if 0 < i < len(xs) - 1:
            _, v = grid_then_golden_min(J, xs[i - 1], xs[i + 1], coarse=9)
            return v
        span = hi - lo
        lo, hi = lo - span, hi + span
        if span > 1e12:
            break
    log.warning("oce_risk: objective appears unbounded below")
    return NEG_INF


@dataclass(frozen=True)
class ConjugateEstimate:
    value: float      # lower approximation of the penalty via sup_f
    direct: float     # the penalty evaluated directly
    gap: float        # direct - value (>= 0 up to solver tolerance)


def penalty_from_risk(nu: Dist, spec: AlphaSpec, bound: float = 6.0,
                      coarse: int = 5, sweeps: int = 60) -> ConjugateEstimate:
    """Lower approximation of alpha(nu) = sup_f (int f dnu - rho(f)):
    a coarse grid in the box [-bound, bound]^m, then cyclic coordinate
    ascent (the objective is concave in f)."""
    nv = nu.weights
    m = nv.size

    def phi(fvec):
        return float(np.dot(nv, fvec)) - risk(fvec, spec)

    best = np.zeros(m)
    best_v = phi(best)
    if m <= 3 and coarse >= 2:
        axes = [np.linspace(-bound, bound, coarse)] * m
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        for cand in mesh:
            v = phi(cand)
            if v > best_v:
                best, best_v = cand.copy(), v
    x, val = coordinate_ascent_box(phi, best, -bound, bound, sweeps=sweeps)
    direct = float(penalty(nu, spec))
    return ConjugateEstimate(float(val), direct, direct - float(val))


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def tabulated_from_callable(fn, lo: float, hi: float, left_limit: float = 0.0,
                            points: int = 4097) -> TabulatedLoss:
    """A TabulatedLoss sampled from ``fn`` on an even grid over [lo, hi]."""
    xs = np.linspace(lo, hi, points)
    return TabulatedLoss(tuple(xs), tuple(float(fn(x)) for x in xs),
                         left_limit)


def _tabulated_refine(loss: TabulatedLoss, yy: float) -> tuple[float, float]:
    """Node sup of x*y - l(x) over every node (the first maximum), then a
    parabola through the three nodes around the best one."""
    xs = np.asarray(loss.xs)
    vs = np.asarray(loss.ys)
    gains = xs * yy - vs
    j = int(np.argmax(gains))
    best_x, best_v = xs[j], float(gains[j])
    if 0 < j < xs.size - 1:
        x0, x1, x2 = xs[j - 1:j + 2]
        v0, v1, v2 = vs[j - 1:j + 2]
        d1 = (v1 - v0) / (x1 - x0)
        d2 = (v2 - v1) / (x2 - x1)
        a = (d2 - d1) / (x2 - x0)
        if a > 1e-12:
            b = d1 - a * (x0 + x1)
            xv = float(np.clip((yy - b) / (2 * a), x0, x2))
            c = v0 - (a * x0 + b) * x0
            cand = xv * yy - (a * xv * xv + b * xv + c)
            if cand > best_v:
                best_x, best_v = xv, float(cand)
    return best_x, best_v


def tabulated_conjugate_loop(loss: TabulatedLoss, y) -> tuple[np.ndarray,
                                                              np.ndarray]:
    """(l*(y), l*'(y)) of a tabulated loss by a full node scan per entry:
    the reference of ``TabulatedLoss.conjugate`` and ``conjugate_prime``."""
    flat = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    s_lo, s_hi = loss._slopes[0], loss._slopes[-1]
    conj, prime = np.empty_like(flat), np.empty_like(flat)
    for j, yy in enumerate(flat):
        with np.errstate(invalid="ignore"):
            x, v = _tabulated_refine(loss, yy)
        if yy < 0.0 or yy > s_hi + 1e-15:
            conj[j] = INF
        elif yy == 0.0 and s_lo == 0.0:
            conj[j] = max(v, -loss.left_limit)
        else:
            conj[j] = v
        prime[j] = INF if yy > s_hi + 1e-15 else x
    return conj, prime


def validate_loss(loss: LossFn, grid: Sequence[float] | None = None) -> None:
    """Check convexity (midpoint), monotonicity and the negative-side bound."""
    xs = np.asarray(grid if grid is not None else np.linspace(-12.0, 12.0, 201))
    vals = np.asarray([float(np.min(loss.value(x))) for x in xs])
    mid = np.asarray([float(np.min(loss.value(0.5 * (a + b))))
                      for a, b in zip(xs[:-1], xs[1:])])
    if (mid > 0.5 * (vals[:-1] + vals[1:]) + 1e-9).any():
        raise LossError("midpoint convexity check failed")
    if (np.diff(vals) < -1e-12).any():
        raise LossError("loss is not nondecreasing on the check grid")
    for x in (-1e-3, -1.0, -10.0):
        if float(np.min(loss.value(x))) >= 1.0:
            raise LossError(f"loss({x}) >= 1")


# ---------------------------------------------------------------------------
# Quadrature, one segment at a time
# ---------------------------------------------------------------------------

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
    """Finite segment integrated on geometrically growing tiles from a."""
    total = 0.0
    x = a
    step = min(1.0 + 0.5 * abs(a), b - a)
    while x < b - 1e-300:
        nxt = min(x + step, b)
        total += _segment(pdf, fn, x, nxt)
        x = nxt
        step *= 6.0
    return total


def _sequential_tail(pdf, fn, edge: float, sign: float, total,
                     rel_tol: float, max_segments: int):
    """(total plus the tail beyond ``edge``, segments summed, far end of
    the last one)."""
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
            return total, k + 1, edge
    return total, max_segments, edge


def sequential_expect(pdf, lo: float, hi: float, fn, breaks=(), *,
                      centre: float, rel_tol: float = 1e-13,
                      max_segments: int = 90):
    """``quadrature.expect`` with one integrand call per segment and tails
    walked one segment at a time: (value, {"upper" | "lower": (segments
    summed in that tail, far end of the last one)})."""
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
    tails = {}
    if not np.isfinite(hi):
        total, *tails["upper"] = _sequential_tail(
            pdf, fn, edges[-1], 1.0, total, rel_tol, max_segments)
    if not np.isfinite(lo):
        total, *tails["lower"] = _sequential_tail(
            pdf, fn, edges[0], -1.0, total, rel_tol, max_segments)
    return total, tails
