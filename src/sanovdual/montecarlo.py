"""Monte Carlo verification harness.

Deterministic per-replication streams for drawing from the laws of
``laws.py``, tail probability estimation with Wilson intervals, log-log
rate fitting, sample-average-approximation experiments for stochastic
optimization, and the bounded-increment martingale experiment.

Replication i draws from a counter-based Philox generator keyed by
base_seed XOR i.  Every experiment reads replications in blocks of
consecutive rows, each row drawn from its own stream, and reduces whole
blocks with numpy, so the block size never changes a result.  An
experiment loop builds one generator and rekeys it in place for each row,
which draws the same streams as a new generator per replication.  Known
defect: the XOR key makes seeds share streams (rep_rng(0, 1) is
rep_rng(1, 0)), and every schedule point reuses them (ROADMAP item 5).

All rate checks are one-sided upper-bound checks: no lower-bound claim is
ever asserted.  Slack constants (1.2 bound ratio, +0.25 slope, +0.1 on the
martingale exponent) are harness choices and are surfaced in the result
objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .laws import FiniteSupportLaw, Law, LogNormalLaw, ParetoLaw, StudentTLaw
from .optim import golden_max
from .quadrature import expect as _quad_expect

WILSON_Z = 1.959963984540054   # two-sided 95%

BOUND_RATIO_SLACK = 1.2
SLOPE_SLACK = 0.25
MARTINGALE_SLACK = 0.1

# Samples (times coordinates) per replication block: wide enough for the
# martingale step loop, small enough that SAA loss temporaries stay cheap.
_BLOCK_ELEMENTS = 2 ** 17


def _rep_key(base_seed: int, i: int) -> int:
    """Philox key of replication i: base_seed XOR i, to 64 bits."""
    return (int(base_seed) ^ int(i)) & (2 ** 64 - 1)


def rep_rng(base_seed: int, i: int) -> np.random.Generator:
    """A new generator for replication i: Philox keyed by ``_rep_key``."""
    return np.random.Generator(np.random.Philox(key=_rep_key(base_seed, i)))


def _replication_streams(seed: int, replications: int):
    """Yield the stream of each replication i in turn, drawing exactly as
    ``rep_rng(seed, i)``.  It is one generator, rekeyed in place, so draw
    from each stream before taking the next: seeding a new Philox costs
    several times more than resetting its state."""
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state      # zero counter, empty buffer, no spare uint32
    for i in range(replications):
        fresh["state"]["key"][0] = _rep_key(seed, i)
        bitgen.state = fresh
        yield rng


def _replication_blocks(draw: Callable[[np.random.Generator, int], np.ndarray],
                        n: int, replications: int, seed: int):
    """Yield replications stacked into (rows, n, ...) blocks, row i being
    ``draw(rep_rng(seed, i), n)``.  Each block overwrites the previous one."""
    if replications < 1:
        raise ValueError("need at least one replication")
    draws = (draw(rng, n) for rng in _replication_streams(seed, replications))
    first = next(draws)
    rows = max(1, min(replications, _BLOCK_ELEMENTS // first.size))
    block = np.empty((rows,) + first.shape, dtype=first.dtype)
    draws = itertools.chain([first], draws)
    for start in range(0, replications, rows):
        k = min(rows, replications - start)
        for j in range(k):
            block[j] = next(draws)
        yield block[:k]


# perfbench/tracer.py times sampling through these names; the laws are the
# samplers.
ParetoSampler = ParetoLaw
StudentTSampler = StudentTLaw
LogNormalSampler = LogNormalLaw
FiniteSampler = FiniteSupportLaw


# Martingale increment families: each maps per-step uniforms to increments,
# possibly depending on the running sum (conditionally centered, bounded).

@dataclass(frozen=True)
class RademacherIncrements:
    """Fair +-1 increments; log-mgf bound phi(y) = log cosh y."""

    def phi(self, y: float) -> float:
        return float(np.logaddexp(y, -y) - math.log(2.0))

    def step(self, u: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.where(u < 0.5, -1.0, 1.0)


@dataclass(frozen=True)
class UniformIncrements:
    """Uniform[-1, 1] increments; phi(y) = log(sinh y / y)."""

    def phi(self, y: float) -> float:
        if abs(y) < 1e-8:
            return y * y / 6.0
        return float(np.log(np.sinh(abs(y)) / abs(y)))

    def step(self, u, s):
        return 2.0 * u - 1.0


@dataclass(frozen=True)
class ScriptedIncrements:
    """Past-dependent, conditionally centered increments in [-1, 1].

    When the running sum is nonnegative the step is -1/2 w.p. 2/3 and +1
    w.p. 1/3; otherwise -1 w.p. 1/3 and +1/2 w.p. 2/3.  Any such bounded
    centered family satisfies the log cosh bound, so the same phi applies
    uniformly even though the sequence is not i.i.d.
    """

    def phi(self, y: float) -> float:
        return float(np.logaddexp(y, -y) - math.log(2.0))

    def step(self, u, s):
        up = np.where(u < 2.0 / 3.0, -0.5, 1.0)
        dn = np.where(u < 1.0 / 3.0, -1.0, 0.5)
        return np.where(s >= 0.0, up, dn)


IncrementFamily = RademacherIncrements | UniformIncrements | ScriptedIncrements

INCREMENT_FAMILIES = {
    "rademacher": RademacherIncrements,
    "uniform": UniformIncrements,
    "scripted": ScriptedIncrements,
}


# ---------------------------------------------------------------------------
# Tail estimation
# ---------------------------------------------------------------------------

def wilson_interval(hits: int, total: int,
                    z: float = WILSON_Z) -> tuple[float, float]:
    if total <= 0:
        raise ValueError("need at least one replication")
    p = hits / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class TailEstimate:
    n: int
    r: float
    replications: int
    hits: int
    p_hat: float
    lo: float
    hi: float

    def csv_row(self, bound: Optional[float] = None) -> tuple:
        return (self.n, self.r, self.p_hat, self.lo, self.hi,
                bound if bound is not None else "")


def estimate_tail(law: Law, n: int, r: float, replications: int,
                  seed: int) -> TailEstimate:
    """Fraction of replications whose sample mean reaches radius r.

    Scalar samples compare the mean itself; vector samples compare its
    Euclidean norm.
    """
    if replications < 1000:
        raise ValueError("need at least 1e3 replications for a usable interval")
    hits = 0
    for block in _replication_blocks(law.draw, n, replications, seed):
        means = block.mean(axis=1)
        if means.ndim > 1:
            means = np.linalg.norm(means, axis=1)
        hits += int((means >= r).sum())
    p = hits / replications
    lo, hi = wilson_interval(hits, replications)
    return TailEstimate(n, r, replications, hits, p, lo, hi)


@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
    upper95: float
    points_used: int
    status: str  # "ok" | "inconclusive"


def rate_fit(ns: Sequence[int], p_hats: Sequence[float]) -> RateFit:
    """Least-squares slope of log p against log n, zero-hit cells excluded."""
    ns = np.asarray(ns, dtype=float)
    ps = np.asarray(p_hats, dtype=float)
    keep = ps > 0.0
    if keep.sum() < 3:
        return RateFit(math.nan, math.nan, math.nan, int(keep.sum()),
                       "inconclusive")
    from scipy.special import stdtrit   # lazy, as in StudentTLaw.pdf
    x = np.log(ns[keep])
    y = np.log(ps[keep])
    k = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    resid = y - (ym + slope * (x - xm))
    sigma2 = float((resid ** 2).sum() / (k - 2))
    se = math.sqrt(sigma2 / sxx)
    upper = slope + float(stdtrit(k - 2, 0.95)) * se
    return RateFit(slope, se, upper, k, "ok")


def mann_kendall_upward_p(xs: Sequence[float]) -> float:
    """One-sided p-value of the Mann-Kendall test against an upward trend."""
    x = np.asarray(xs, dtype=float)
    k = x.size
    s = 0
    for i in range(k - 1):
        s += int(np.sign(x[i + 1:] - x[i]).sum())
    var = k * (k - 1) * (2 * k + 5) / 18.0
    _, counts = np.unique(x, return_counts=True)
    for t in counts[counts > 1]:
        var -= t * (t - 1) * (2 * t + 5) / 18.0
    if var <= 0:
        return 1.0
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return float(0.5 * math.erfc(z / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Stochastic optimization experiments
# ---------------------------------------------------------------------------

class GrowthValidationError(ValueError):
    """The declared growth function fails on the decision grid."""


@dataclass
class SAAInstance:
    """A finite-grid stochastic program min_x E[h(x, W)].

    ``loss(x, W)`` must be elementwise in W: the Monte Carlo experiments
    pass (rows, n) blocks of replications, and exact values pass the atoms
    or quadrature nodes.  ``growth`` must be vectorized too; it maps an
    array of decision distances to growth values.  ``law`` provides the
    Monte Carlo draws; exact values V(mu) use its finite support or
    quadrature against its closed-form density.
    """

    decisions: np.ndarray
    loss: Callable[[float, np.ndarray], np.ndarray]
    law: Law
    epsilon: float
    q: float
    growth: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.decisions = np.asarray(self.decisions, dtype=float)

    def expected_losses(self) -> np.ndarray:
        """E[h(x, W)] per decision, exactly or by quadrature."""
        if isinstance(self.law, FiniteSupportLaw):
            return np.array([
                float(np.dot(self.law.weights, self.loss(x, self.law.atoms)))
                for x in self.decisions
            ])
        out = np.empty(self.decisions.size)
        for j, x in enumerate(self.decisions):
            out[j] = _quad_expect(self.law.pdf, *self.law.support,
                                  lambda w: self.loss(x, w))
        return out

    def true_value(self) -> float:
        return float(self.expected_losses().min())

    def true_argmin(self) -> float:
        ev = self.expected_losses()
        return float(self.decisions[int(np.argmin(ev))])

    def empirical_losses(self, W: np.ndarray) -> np.ndarray:
        """(decisions, rows) mean loss over each row of a (rows, n) block."""
        return np.stack([self.loss(x, W).mean(axis=1) for x in self.decisions])


@dataclass
class ExceedanceSeries:
    """Exceedance probabilities along a sample-size schedule with the
    polynomial-rate diagnostics."""

    schedule: list[int]
    estimates: list[TailEstimate]
    scaled: list[float]            # n^(q-1) * p_hat
    mann_kendall_p: float
    fit: RateFit
    slope_budget: float


@dataclass
class SAARun(ExceedanceSeries):
    true_value: float


@dataclass
class ArgminRun(ExceedanceSeries):
    argmin: float


def _exceedance_series(run_cls, instance: SAAInstance,
                       schedule: Sequence[int], replications: int, seed: int,
                       exceeds: Callable[[np.ndarray], np.ndarray], target):
    """``run_cls`` of the hit counts along the schedule; ``exceeds`` maps a
    block's (decisions, rows) empirical losses to one boolean per row."""
    schedule = [int(n) for n in schedule]
    q = instance.q
    ests = []
    for n in schedule:
        hits = 0
        for block in _replication_blocks(instance.law.draw, n, replications,
                                         seed):
            hits += int(exceeds(instance.empirical_losses(block)).sum())
        lo, hi = wilson_interval(hits, replications)
        ests.append(TailEstimate(n, instance.epsilon, replications, hits,
                                 hits / replications, lo, hi))
    scaled = [n ** (q - 1.0) * e.p_hat for n, e in zip(schedule, ests)]
    return run_cls(schedule, ests, scaled, mann_kendall_upward_p(scaled),
                    rate_fit(schedule, [e.p_hat for e in ests]),
                    (1.0 - q) + SLOPE_SLACK, target)


def saa_run(instance: SAAInstance, schedule: Sequence[int], replications: int,
            seed: int) -> SAARun:
    """Exceedance probabilities of |V(L_n) - V(mu)| >= epsilon with the
    polynomial-rate diagnostics."""
    v_star = instance.true_value()
    return _exceedance_series(
        SAARun, instance, schedule, replications, seed,
        lambda means: np.abs(means.min(axis=0) - v_star) >= instance.epsilon,
        v_star)


def argmin_tracking(instance: SAAInstance, schedule: Sequence[int],
                    replications: int, seed: int) -> ArgminRun:
    """Exceedance of growth(d(argmin(mu), argmin(L_n))) >= epsilon.

    The declared growth function is validated on the grid first:
    growth(d(x*, x)) <= E h(x, .) - E h(x*, .) must hold for every grid
    decision, otherwise the experiment refuses to run.
    """
    if instance.growth is None:
        raise GrowthValidationError("no growth function declared")
    ev = instance.expected_losses()
    j_star = int(np.argmin(ev))
    x_star = float(instance.decisions[j_star])
    gap = ev - ev[j_star]
    growth = instance.growth(np.abs(instance.decisions - x_star))
    viol = np.flatnonzero(growth > gap + 1e-12)
    if viol.size:
        j = viol[0]
        raise GrowthValidationError(
            f"growth hypothesis fails at {viol.size} grid points, e.g. "
            f"x={instance.decisions[j]:g}: growth={growth[j]:.3g} > "
            f"gap={gap[j]:.3g}")

    def exceeds(means):
        x_hat = instance.decisions[means.argmin(axis=0)]
        return instance.growth(np.abs(x_hat - x_star)) >= instance.epsilon
    return _exceedance_series(ArgminRun, instance, schedule, replications,
                              seed, exceeds, x_star)


# ---------------------------------------------------------------------------
# Martingale experiment
# ---------------------------------------------------------------------------

@dataclass
class AzumaResult:
    n: int
    r: float
    replications: int
    hits: int
    p_hat: float
    phi_star: float
    empirical_exponent: float      # (1/n) log p_hat, -inf when no hits
    budget: float                  # -phi_star + slack
    ok: bool
    exact_tail: Optional[float] = None


def conjugate_scalar(phi: Callable[[float], float], r: float,
                     radius: float = 1e3) -> float:
    """phi*(r) = sup_y (r y - phi(y)) by expanding golden-section search."""
    lo, hi = -1.0, 1.0
    for _ in range(40):
        y, v = golden_max(lambda t: r * t - phi(t), lo, hi, tol=1e-12)
        if min(y - lo, hi - y) > 0.05 * (hi - lo):
            return v
        if hi - lo >= 2.0 * radius:
            return v
        lo *= 2.0
        hi *= 2.0
    return v


def _simulate_final_means(family: IncrementFamily, n: int, replications: int,
                          seed: int) -> np.ndarray:
    """S_n / n for each replication, one Philox row of uniforms each."""
    out = []
    for U in _replication_blocks(lambda rng, n: rng.random(n), n,
                                 replications, seed):
        s = np.zeros(len(U))
        for k in range(n):
            s += family.step(U[:, k], s)
        out.append(s / n)
    return np.concatenate(out)


def azuma_experiment(family: IncrementFamily, r: float, n: int,
                     replications: int, seed: int,
                     slack: float = MARTINGALE_SLACK) -> AzumaResult:
    """Compare (1/n) log P(S_n/n >= r) against -phi*(r) + slack."""
    means = _simulate_final_means(family, n, replications, seed)
    hits = int((means >= r).sum())
    p_hat = hits / replications
    phi_star = conjugate_scalar(family.phi, r)
    emp = math.log(p_hat) / n if hits > 0 else -math.inf
    budget = -phi_star + slack
    exact = None
    if isinstance(family, RademacherIncrements):
        exact = _rademacher_exact_tail(n, r)
    return AzumaResult(n, r, replications, hits, p_hat, phi_star, emp,
                       budget, emp <= budget, exact)


def _rademacher_exact_tail(n: int, r: float) -> float:
    """Exact P(S_n / n >= r) for fair +-1 steps, summed in log space."""
    k_min = math.ceil((n + r * n) / 2.0)
    if k_min > n:
        return 0.0
    log_half = -n * math.log(2.0)
    total = 0.0
    for k in range(int(k_min), n + 1):
        total += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                          - math.lgamma(n - k + 1) + log_half)
    return total
