"""Reference computations that only the tests use.

The chain-rule toolbox for joint laws on E^n (dense product tensors, stage
kernels, disintegration and composition, the tensorized penalty), the
scalar one-row risk wrappers and maximizer, one-off risk measures
(optimized certainty equivalent, robust entropic risk), the penalty
recovered from the risk measure, exact enumerations (type classes, SAA
exceedance, the i.i.d. expectation of a function of the empirical measure)
and the joint law that attains a dense recursion's value.

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
from scipy.special import gammaln

from sanovdual import extreal
from sanovdual.extreal import INF, NEG_INF
from sanovdual.losses import LossError, LossFn, PowerLoss, TabulatedLoss
from sanovdual.montecarlo import GrowthValidationError, SAAInstance, rep_rng
from sanovdual.laws import FiniteSupportLaw
from sanovdual.optim import coordinate_ascent_box, golden_min
from sanovdual.penalties import (AlphaSpec, LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport, penalty,
                                 penalty_rows, spec_space)
from sanovdual.risk import (entropic_risk_rows, maximizer_rows, risk_rows,
                            shortfall_risk_rows)
from sanovdual.spaces import (DENSE_CAP, SUM_SLACK, Dist, FiniteSpace,
                              SpaceError, _as_prob_vector, _freeze,
                              type_index)

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


# ---------------------------------------------------------------------------
# Joint laws on E^n, kernels and the chain rule
# ---------------------------------------------------------------------------

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
        alpha = penalty_rows(spec, rows.reshape(-1, m)).reshape(B, -1)
        contrib = np.where(live,
                           prefix * np.where(np.isfinite(alpha), alpha, 0.0),
                           0.0)
        contrib[live & np.isposinf(alpha)] = INF
        total = total + contrib.sum(axis=1)
    return total


def greedy_optimizer_from_trace(trace) -> ProductDist:
    """The joint law attaining a dense recursion's value: the maximizer of
    the first stage, then one kernel row per prefix, stage by stage."""
    m = trace.space.size
    first = Dist(trace.space, maximizer_rows(trace.spec, trace.stages[1])[0])
    kernels = [Kernel(k, trace.space,
                      maximizer_rows(trace.spec,
                                     trace.stages[k].reshape(-1, m)))
               for k in range(2, trace.n + 1)]
    return compose(first, kernels)


# ---------------------------------------------------------------------------
# Type classes and exact enumerations
# ---------------------------------------------------------------------------

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


def iid_empirical_expectation(F, nu_weights, n: int) -> float:
    """E under the n-fold product of nu of F(L_n), summed by type class."""
    w = np.asarray(nu_weights, dtype=float)
    C = type_index(n, w.size)
    C = C[~((C > 0) & (w <= 0)).any(axis=1)]     # classes of probability 0
    logp = gammaln(n + 1) - gammaln(C + 1).sum(axis=1) + \
        C @ np.log(np.where(w > 0, w, 1.0))
    return float(sum(np.exp(lp) * float(F(c / n)) for lp, c in zip(logp, C)))


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
    ``GrowthValidationError`` unless it is finite."""
    w = instance.law.draw(rep_rng(seed, 0), draws)
    H = np.stack([instance.loss(x, w) for x in instance.decisions])
    val = float(np.mean(np.maximum(H.max(axis=0), 0.0) ** instance.q))
    if not math.isfinite(val):
        raise GrowthValidationError("sampled psi^q moment is not finite")
    return val


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
    ``risk.shortfall_risk_rows``."""
    return float(shortfall_risk_rows(np.atleast_2d(np.asarray(f, float)),
                                     _w(mu), loss)[0])


def risk(f, spec: AlphaSpec) -> float:
    """One-step risk of the given penalty specification."""
    return float(risk_rows(spec, np.atleast_2d(np.asarray(f, dtype=float)))[0])


def risk_maximizer(f, spec: AlphaSpec) -> Optional[Dist]:
    """The law attaining sup_nu (int f dnu - alpha(nu)), one field at a
    time, or None when no law attains a finite value: the per-row loop
    that ``risk.maximizer_rows`` replaces, kept as its reference."""
    fv = np.asarray(f, dtype=float)
    space = spec_space(spec)

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
        return Dist(space, out / out.sum())

    if isinstance(spec, (LpEntropy, Shortfall)):
        loss = spec.loss if isinstance(spec, Shortfall) else \
            PowerLoss(spec.loss_exponent)
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
        return Dist(space, out / out.sum())

    if isinstance(spec, SetIndicator):
        vals = [extreal.integral(g.weights, fv) for g in spec.generators]
        return spec.generators[int(np.argmax(vals))]

    if isinstance(spec, Transport):
        c = np.asarray(spec.cost, dtype=float)
        w = spec.mu.weights
        out = np.zeros(space.size)
        for x in range(space.size):
            if w[x] <= 0:
                continue
            terms = np.where(np.isinf(c[x]) | np.isneginf(fv), -np.inf,
                             fv - c[x])
            if not np.isfinite(terms).any():
                return None
            out[int(np.argmax(terms))] += w[x]
        return Dist(space, out)

    raise TypeError(f"unknown penalty spec {spec!r}")


def robust_entropic_risk(f, generators: Sequence[Dist]) -> float:
    """max over generator laws of the entropic risk (hull max sits at a vertex)."""
    F = np.atleast_2d(np.asarray(f, dtype=float))
    vals = [entropic_risk_rows(F, g.weights)[0] for g in generators]
    return float(max(vals))


def grid_then_golden_min(fn, lo, hi, coarse: int = 121, tol: float = 1e-12):
    """Coarse scan to bracket the minimum, then golden section inside."""
    xs = np.linspace(lo, hi, coarse)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, coarse - 1)]
    return golden_min(fn, a, b, tol=tol)


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
