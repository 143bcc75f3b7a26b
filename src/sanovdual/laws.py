"""Law families of the heavy-tail apparatus, one frozen class per family.

Each class validates its parameters on construction and owns its
``expect(fn, breaks)`` (one value per row of a vectorized integrand),
``dim`` and ``check_moment(q)`` (``LawError`` unless E|X|^q is finite).
The continuous families (Pareto, Student t, log-normal) integrate by
quadrature against their closed-form density, with ``breaks`` exact, from
their support and centre (where the density concentrates; quadrature
tiles outward from it).  The empirical law of observed samples is the
finite law with equal weights on them (``EmpiricalLaw``).  Every family
draws Monte Carlo samples from a numpy Generator: ``draw(rng, size, out)``
fills and returns ``out`` where numpy can draw in place, and returns a new
array otherwise.  Consecutive draws from one generator are the same
samples as one draw of their joint size.  Centering subtracts the
analytic mean, so a centered law has mean zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extreal import INF
from .quadrature import expect as _quad_expect


class LawError(ValueError):
    """Law not admissible for the requested exponent."""


class _Law:
    def check_moment(self, q: float) -> None:
        """Every moment exists unless a family says otherwise."""


class _DensityLaw(_Law):
    """A closed one-dimensional family with a density."""

    dim = 1

    def expect(self, fn, breaks=()):
        return _quad_expect(self.pdf, *self.support, fn, breaks,
                            centre=self.centre)


def norm_power(x: np.ndarray, q: float) -> np.ndarray:
    """||x||^q of each point of a (k,) or (k, d) array."""
    return (np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=1)) ** q


@dataclass(frozen=True)
class FiniteSupportLaw(_Law):
    """Atoms of shape (k,) or (k, d) with probability weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or a.shape[0] != w.size:
            raise LawError("atoms and weights must align")
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise LawError("weights must be a probability vector")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w / w.sum())

    @property
    def dim(self) -> int:
        return 1 if self.atoms.ndim == 1 else self.atoms.shape[1]

    def check_moment(self, q: float) -> None:
        """E|X|^q is a finite sum here, but it can overflow a float."""
        with np.errstate(over="ignore"):
            if not np.isfinite(self.expect(lambda x: norm_power(x, q))):
                raise LawError(f"E|X|^{q} over its points is not finite")

    def expect(self, fn, breaks=()):
        return fn(self.atoms) @ self.weights

    def draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        idx = rng.choice(self.weights.size, size=size, p=self.weights)
        return np.take(self.atoms, idx, axis=0, out=out)


def EmpiricalLaw(samples) -> FiniteSupportLaw:
    """The plug-in law of observed samples, shape (N,) or (N, d): weight
    1/N on each."""
    s = np.asarray(samples, dtype=float)
    if s.ndim not in (1, 2) or not len(s) or not np.isfinite(s).all():
        raise LawError("samples: expected a nonempty list of finite samples")
    return FiniteSupportLaw(s, np.full(len(s), 1.0 / len(s)))


@dataclass(frozen=True)
class ParetoLaw(_DensityLaw):
    """Standard Pareto with survival x^(-a) on [1, inf), optionally centered
    by its analytic mean a/(a-1)."""

    a: float
    centered: bool = True

    def __post_init__(self):
        if not self.a > 1.0:
            raise LawError("Pareto needs tail index a > 1 for a finite mean")

    def check_moment(self, q: float) -> None:
        if not self.a > q:
            raise LawError(f"Pareto tail a={self.a} does not integrate |x|^{q}")

    @property
    def shift(self) -> float:
        return self.a / (self.a - 1.0) if self.centered else 0.0

    @property
    def support(self) -> tuple[float, float]:
        return 1.0 - self.shift, INF

    @property
    def centre(self) -> float:     # the density peaks at the left edge
        return self.support[0]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.a * np.power(x + self.shift, -self.a - 1.0)

    def draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        """(1 - U)^(-1/a) - shift on uniforms U in [0, 1): never inf."""
        x = rng.random(size, out=out)
        np.subtract(1.0, x, out=x)
        np.power(x, -1.0 / self.a, out=x)
        x -= self.shift
        return x


@dataclass(frozen=True)
class StudentTLaw(_DensityLaw):
    df: float

    def __post_init__(self):
        if not self.df > 1.0:
            raise LawError("Student t needs df > 1")

    def check_moment(self, q: float) -> None:
        if not self.df > q:
            raise LawError(f"Student t df={self.df} does not integrate |x|^{q}")

    @property
    def support(self) -> tuple[float, float]:
        return -INF, INF

    centre = 0.0

    def pdf(self, x: np.ndarray) -> np.ndarray:
        from scipy.special import poch   # lazy: its import takes ~0.25 s
        df = self.df
        return np.exp(np.log(poch(0.5 * df, 0.5))
                      - 0.5 * (np.log(df) + np.log(np.pi))
                      - (df + 1.0) / 2.0 * np.log1p(x * x / df))

    def draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        return rng.standard_t(self.df, size)


@dataclass(frozen=True)
class LogNormalLaw(_DensityLaw):
    sigma: float
    centered: bool = True

    def __post_init__(self):
        if not self.sigma > 0:
            raise LawError("log-normal needs sigma > 0")

    @property
    def shift(self) -> float:
        return float(np.exp(self.sigma ** 2 / 2.0)) if self.centered else 0.0

    @property
    def support(self) -> tuple[float, float]:
        return -self.shift, INF

    @property
    def centre(self) -> float:     # left edge: every piece tiles rightward
        return self.support[0]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(x, dtype=float) + self.shift
        s = self.sigma
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (-np.log(y) ** 2 / (2.0 * s ** 2)
                      - np.log(s * y * np.sqrt(2.0 * np.pi)))
        return np.where(y > 0.0, np.exp(logpdf), 0.0)

    def draw(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        x = rng.standard_normal(size, out=out)
        x *= self.sigma
        np.exp(x, out=x)
        x -= self.shift
        return x


Law = FiniteSupportLaw | ParetoLaw | StudentTLaw | LogNormalLaw
