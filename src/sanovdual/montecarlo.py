"""Monte Carlo verification harness.

Deterministic replication streams for drawing from the laws of
``laws.py``, and the experiments that check the tail bounds with them: the
mean tail, sample-average approximation of a stochastic program (its value
and its argmin) and the bounded-increment martingale.  Every estimate is
one hit count, ``_tail_estimate``, over at least ``MIN_REPLICATIONS``
replications, with its Wilson interval; the experiments differ only in the
reduction that marks a hit.  A run along a sample-size schedule is one
``ExceedanceSeries`` with its log-log rate fit and slope budget.

Each (seed, experiment, schedule point) draws from its own counter-based
Philox generator, keyed by (seed << 64) | stream, where the stream id
encodes the experiment and the sample size n.  Distinct seeds, experiments
and schedule points therefore never share a key.  An experiment reads its
replications as consecutive rows of that one generator, a (rows, n) block
per draw call, and reduces whole blocks with numpy, so the block size
never changes a result.

All rate checks are one-sided upper-bound checks: no lower-bound claim is
ever asserted.  Slack constants (1.2 bound ratio, +0.25 slope, +0.1 on the
martingale exponent) are harness choices and are surfaced in the result
objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .laws import FiniteSupportLaw, Law, LogNormalLaw, ParetoLaw, StudentTLaw
from .optim import legendre_max

WILSON_Z = 1.959963984540054   # two-sided 95%
MIN_REPLICATIONS = 1000        # fewer give no usable interval

BOUND_RATIO_SLACK = 1.2
SLOPE_SLACK = 0.25
MARTINGALE_SLACK = 0.1

# Experiment tags: the top byte of a stream id, n the SAMPLE_BITS below it,
# so every sample size n is below 2^SAMPLE_BITS.
SAMPLE_BITS = 56
_TAIL, _SAA_VALUE, _SAA_ARGMIN, _MARTINGALE = 1, 2, 3, 4

# Samples per replication block.  Wide blocks serve the martingale step
# loop.  An SAA block stays at 2^14 samples, so that each loss(x, W)
# temporary stays under glibc's 128 KiB mmap threshold: in a fresh process,
# larger ones page-faulted afresh on every call.
_BLOCK_ELEMENTS = {_TAIL: 2 ** 17, _SAA_VALUE: 2 ** 14, _SAA_ARGMIN: 2 ** 14,
                   _MARTINGALE: 2 ** 17}


def _stream(experiment: int, n: int) -> int:
    """Stream id of schedule point n of an experiment."""
    if not 0 < n < 2 ** SAMPLE_BITS:
        raise ValueError(f"sample size {n} outside [1, 2^{SAMPLE_BITS})")
    return experiment << SAMPLE_BITS | n


def rep_rng(seed: int, stream: int) -> np.random.Generator:
    """A new generator for one (seed, stream): Philox keyed by the 128-bit
    (seed << 64) | stream, both in [0, 2^64)."""
    return np.random.Generator(np.random.Philox(key=int(seed) << 64
                                                | int(stream)))


def _replication_blocks(draw: Callable[..., np.ndarray], n: int,
                        replications: int, seed: int, experiment: int):
    """Yield replications stacked into (rows, n, ...) blocks, drawn as
    ``draw(rng, (rows, n), out=...)`` from the one generator
    ``rep_rng(seed, _stream(experiment, n))``.  Row i is the i-th
    consecutive (1, n) draw of that generator, whatever the block size.
    From the second block on, ``out`` is the previous block, which the draw
    may fill in place."""
    rng = rep_rng(seed, _stream(experiment, n))
    rows = max(1, min(replications, _BLOCK_ELEMENTS[experiment] // n))
    block = draw(rng, (rows, n))
    yield block
    for start in range(rows, replications, rows):
        k = min(rows, replications - start)
        yield draw(rng, (k, n), out=block[:k])


# perfbench/tracer.py times sampling through these names; the laws are the
# samplers.
ParetoSampler = ParetoLaw
StudentTSampler = StudentTLaw
LogNormalSampler = LogNormalLaw
FiniteSampler = FiniteSupportLaw


class IncrementFamily:
    """A martingale increment family: it maps per-step uniforms to
    increments, possibly depending on the running sum (conditionally
    centered, bounded)."""

    def exact_tail(self, n: int, r: float) -> Optional[float]:
        """Exact P(S_n / n >= r), or None without a closed form."""
        return None


def _log_cosh(y: float) -> tuple[float, float, float]:
    """log cosh y and its first two derivatives."""
    th = math.tanh(y)
    return float(np.logaddexp(y, -y) - math.log(2.0)), th, 1.0 - th * th


@dataclass(frozen=True)
class RademacherIncrements(IncrementFamily):
    """Fair +-1 increments; log-mgf bound phi(y) = log cosh y."""

    def phi(self, y: float) -> float:
        return _log_cosh(y)[0]

    def phi_derivatives(self, y: float) -> tuple[float, float, float]:
        return _log_cosh(y)

    def step(self, u: np.ndarray, s: np.ndarray) -> np.ndarray:
        return np.where(u < 0.5, -1.0, 1.0)

    def exact_tail(self, n: int, r: float) -> float:
        """Exact P(S_n / n >= r), summed in log space; 0 past the bound 1
        of the increments, before n r can overflow."""
        if r > 1.0:
            return 0.0
        k_min = math.ceil((n + r * n) / 2.0)
        log_half = -n * math.log(2.0)
        total = 0.0
        for k in range(int(k_min), n + 1):
            total += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                              - math.lgamma(n - k + 1) + log_half)
        return total


@dataclass(frozen=True)
class UniformIncrements(IncrementFamily):
    """Uniform[-1, 1] increments; phi(y) = log(sinh y / y)."""

    def phi(self, y: float) -> float:
        a = abs(y)
        if a < 1e-8:
            return y * y / 6.0
        if a > 20.0:        # sinh overflows past 710
            return a - math.log(2.0 * a) + math.log1p(-math.exp(-2.0 * a))
        return float(np.log(np.sinh(a) / a))

    def phi_derivatives(self, y: float) -> tuple[float, float, float]:
        """phi, phi' = coth y - 1/y and phi'' = 1/y^2 - 1/sinh^2 y; near 0,
        where these differences cancel, their series."""
        y2 = y * y
        if abs(y) < 0.05:
            return (self.phi(y),
                    y * (1 / 3 - y2 * (1 / 45 - y2 * (2 / 945 - y2 / 4725))),
                    1 / 3 - y2 * (1 / 15 - y2 * (2 / 189 - y2 / 675)))
        csch = 2.0 * math.exp(-abs(y)) / -math.expm1(-2.0 * abs(y))
        return self.phi(y), 1.0 / math.tanh(y) - 1.0 / y, 1.0 / y2 - csch ** 2

    def step(self, u, s):
        return 2.0 * u - 1.0


@dataclass(frozen=True)
class ScriptedIncrements(IncrementFamily):
    """Past-dependent, conditionally centered increments in [-1, 1].

    When the running sum is nonnegative the step is -1/2 w.p. 2/3 and +1
    w.p. 1/3; otherwise -1 w.p. 1/3 and +1/2 w.p. 2/3.  Any such bounded
    centered family satisfies the log cosh bound, so the same phi applies
    uniformly even though the sequence is not i.i.d.
    """

    phi = RademacherIncrements.phi
    phi_derivatives = RademacherIncrements.phi_derivatives

    def step(self, u, s):
        up = np.where(u < 2.0 / 3.0, -0.5, 1.0)
        dn = np.where(u < 1.0 / 3.0, -1.0, 0.5)
        return np.where(s >= 0.0, up, dn)


INCREMENT_FAMILIES = {
    "rademacher": RademacherIncrements,
    "uniform": UniformIncrements,
    "scripted": ScriptedIncrements,
}


# ---------------------------------------------------------------------------
# Tail estimation
# ---------------------------------------------------------------------------

def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    z = WILSON_Z
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


def _tail_estimate(draw: Callable[..., np.ndarray], n: int, r: float,
                   replications: int, seed: int, experiment: int,
                   hit: Callable[[np.ndarray], np.ndarray]) -> TailEstimate:
    """The replications of schedule point n that ``hit`` marks: it maps a
    (rows, n, ...) block of ``_replication_blocks`` to one boolean per
    row.  ``r`` is the radius the hits exceed."""
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications "
                         "for a usable interval")
    hits = 0
    for block in _replication_blocks(draw, n, replications, seed, experiment):
        hits += int(hit(block).sum())
    lo, hi = wilson_interval(hits, replications)
    return TailEstimate(n, r, replications, hits, hits / replications, lo, hi)


def estimate_tail(law: Law, n: int, r: float, replications: int,
                  seed: int) -> TailEstimate:
    """Fraction of replications whose sample mean reaches radius r.

    Scalar samples compare the mean itself; vector samples compare its
    Euclidean norm.
    """
    def hit(block):
        means = block.mean(axis=1)
        if means.ndim > 1:
            means = np.linalg.norm(means, axis=1)
        return means >= r
    return _tail_estimate(law.draw, n, r, replications, seed, _TAIL, hit)


@dataclass(frozen=True)
class RateFit:
    slope: float
    stderr: float
    upper95: float
    points_used: int
    status: str  # "ok" | "inconclusive"


def rate_fit(ns: Sequence[int], p_hats: Sequence[float]) -> RateFit:
    """Least-squares slope of log p against log n, zero-hit cells excluded;
    "inconclusive" unless at least 3 distinct n have hits."""
    ns = np.asarray(ns, dtype=float)
    ps = np.asarray(p_hats, dtype=float)
    keep = ps > 0.0
    if np.unique(ns[keep]).size < 3:
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
    Monte Carlo draws and the exact values V(mu), by ``law.expect``.
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
        """E[h(x, W)] per decision, by one expectation whose rows are the
        decisions."""
        return self.law.expect(lambda w: np.stack([self.loss(x, w)
                                                   for x in self.decisions]))

    def true_value(self) -> float:
        return float(self.expected_losses().min())

    def empirical_losses(self, W: np.ndarray) -> np.ndarray:
        """(decisions, rows) mean loss over each row of a (rows, n) block."""
        return np.stack([self.loss(x, W).mean(axis=1) for x in self.decisions])


@dataclass
class ExceedanceSeries:
    """Exceedance probabilities along a sample-size schedule with the
    polynomial-rate diagnostics; ``target`` is the value the run is
    measured against (V(mu), the argmin, or the radius r)."""

    schedule: list[int]
    estimates: list[TailEstimate]
    scaled: list[float]            # n^(q-1) * p_hat
    mann_kendall_p: float
    fit: RateFit
    slope_budget: float
    target: float


def exceedance_series(q: float, schedule: Sequence[int],
                      estimate: Callable[[int], TailEstimate],
                      target: float) -> ExceedanceSeries:
    """The series of ``estimate(n)`` along the schedule, whose rate slope
    the moment order q bounds by 1 - q (plus ``SLOPE_SLACK``)."""
    schedule = [int(n) for n in schedule]
    ests = [estimate(n) for n in schedule]
    scaled = [n ** (q - 1.0) * e.p_hat for n, e in zip(schedule, ests)]
    return ExceedanceSeries(schedule, ests, scaled,
                            mann_kendall_upward_p(scaled),
                            rate_fit(schedule, [e.p_hat for e in ests]),
                            (1.0 - q) + SLOPE_SLACK, target)


def saa_run(instance: SAAInstance, schedule: Sequence[int], replications: int,
            seed: int) -> ExceedanceSeries:
    """Exceedance probabilities of |V(L_n) - V(mu)| >= epsilon with the
    polynomial-rate diagnostics; the target is V(mu)."""
    v_star = instance.true_value()

    def hit(block):
        means = instance.empirical_losses(block)
        return np.abs(means.min(axis=0) - v_star) >= instance.epsilon
    return exceedance_series(instance.q, schedule, lambda n: _tail_estimate(
        instance.law.draw, n, instance.epsilon, replications, seed,
        _SAA_VALUE, hit), v_star)


def argmin_tracking(instance: SAAInstance, schedule: Sequence[int],
                    replications: int, seed: int) -> ExceedanceSeries:
    """Exceedance of growth(d(argmin(mu), argmin(L_n))) >= epsilon; the
    target is argmin(mu).

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

    def hit(block):
        means = instance.empirical_losses(block)
        x_hat = instance.decisions[means.argmin(axis=0)]
        return instance.growth(np.abs(x_hat - x_star)) >= instance.epsilon
    return exceedance_series(instance.q, schedule, lambda n: _tail_estimate(
        instance.law.draw, n, instance.epsilon, replications, seed,
        _SAA_ARGMIN, hit), x_star)


# ---------------------------------------------------------------------------
# Martingale experiment
# ---------------------------------------------------------------------------

@dataclass
class AzumaResult:
    estimate: TailEstimate         # of P(S_n / n >= r)
    phi_star: float
    empirical_exponent: float      # (1/n) log p_hat, -inf when no hits
    budget: float                  # -phi_star + slack
    ok: bool
    exact_tail: Optional[float]


def conjugate_scalar(family: IncrementFamily, r: float) -> float:
    """phi*(r) = sup_y (r y - phi(y)) for the family's convex phi, by
    ``optim.legendre_max``; where no maximizer lies within
    ``optim.RAY_RADIUS`` it is the best value within it, a lower bound."""
    return legendre_max(family.phi_derivatives, r)[1]


def azuma_experiment(family: IncrementFamily, r: float, n: int,
                     replications: int, seed: int) -> AzumaResult:
    """Compare (1/n) log P(S_n/n >= r) against -phi*(r) + MARTINGALE_SLACK;
    each replication walks one row of n uniforms."""
    def hit(U):
        s = np.zeros(len(U))
        for k in range(n):
            s += family.step(U[:, k], s)
        return s / n >= r
    est = _tail_estimate(np.random.Generator.random, n, r, replications, seed,
                         _MARTINGALE, hit)
    phi_star = conjugate_scalar(family, r)
    emp = math.log(est.p_hat) / n if est.hits > 0 else -math.inf
    budget = -phi_star + MARTINGALE_SLACK
    return AzumaResult(est, phi_star, emp, budget, emp <= budget,
                       family.exact_tail(n, r))
