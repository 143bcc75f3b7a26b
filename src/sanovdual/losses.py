"""Loss functions for shortfall risk measures and their convex conjugates.

A loss is a nondecreasing, nonconstant, convex function l with l(x) < 1 for
x < 0.  The exponential loss reproduces the entropic pair; the power loss
((1+x)^+)^q reproduces the L^p pair with p = q/(q-1).  Arbitrary sampled
losses get a numerical conjugate with a documented 1e-6 error budget.
Every method maps an array to an ndarray of its shape (0-d for a scalar).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extreal import INF, NEG_INF

SCAN_BLOCK = 512    # entries per block of a full node scan (TabulatedLoss)


class LossError(ValueError):
    """Loss fails the admissibility checks."""


@dataclass(frozen=True)
class ExpLoss:
    """l(x) = exp(x); the entropic loss."""

    left_limit = 0.0    # l(x) -> 0 as x -> -inf

    def value(self, x):
        return np.asarray(np.exp(x))

    def prime(self, x):
        return np.asarray(np.exp(x))

    def conjugate(self, y):
        """l*(y) = y log y - y for y >= 0 (0 at 0), +inf for y < 0."""
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(y > 0.0, y * np.log(y) - y, 0.0)
        return np.where(y < 0.0, INF, out)

    def conjugate_prime(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(y > 0.0, np.log(np.maximum(y, 1e-300)), NEG_INF)

    def conjugate_second(self, y):
        """l*''(y) = 1/y for y > 0."""
        return np.asarray(1.0 / np.asarray(y, dtype=float))


@dataclass(frozen=True)
class PowerLoss:
    """l(x) = ((1+x)^+)^q for q > 1; the heavy-tail (L^p) loss."""

    q: float
    left_limit = 0.0    # l(x) = 0 for x <= -1

    def __post_init__(self):
        if not self.q > 1.0:
            raise LossError("power loss needs q > 1")

    @property
    def p(self) -> float:
        return self.q / (self.q - 1.0)

    def value(self, x):
        return np.asarray(np.maximum(1.0 + np.asarray(x, dtype=float), 0.0)
                          ** self.q)

    def prime(self, x):
        return np.asarray(self.q * np.maximum(
            1.0 + np.asarray(x, dtype=float), 0.0) ** (self.q - 1.0))

    def conjugate(self, y):
        """l*(y) = y ((y/q)^(1/(q-1)) / p - 1) for y >= 0, +inf below."""
        y = np.asarray(y, dtype=float)
        u = np.power(np.maximum(y, 0.0) / self.q, 1.0 / (self.q - 1.0))
        return np.where(y < 0.0, INF, y * (u / self.p - 1.0))

    def conjugate_prime(self, y):
        # Derivative equals the maximizing point x*(y) = (y/q)^(1/(q-1)) - 1.
        y = np.asarray(y, dtype=float)
        return np.asarray(np.power(np.maximum(y, 0.0) / self.q,
                                   1.0 / (self.q - 1.0)) - 1.0)

    def conjugate_second(self, y):
        """l*''(y) = (y/q)^((2-q)/(q-1)) / (q (q-1)) for y > 0."""
        q = self.q
        return np.asarray(np.power(np.asarray(y, dtype=float) / q,
                                   (2.0 - q) / (q - 1.0)) / (q * (q - 1.0)))


@dataclass(frozen=True)
class TabulatedLoss:
    """A convex nondecreasing loss given by samples, conjugated numerically.

    The loss is piecewise linear through (xs, ys), extended linearly with
    the boundary slopes outside [xs[0], xs[-1]] and approaching
    ``left_limit`` as x -> -inf when the left slope is zero.  The conjugate
    is exact for the piecewise-linear interpolant; against the underlying
    smooth loss the documented error budget is 1e-6 for grids of ~4097
    points on the effective domain.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    left_limit: float = 0.0
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.size < 3 or xs.size != ys.size:
            raise LossError("need at least 3 sample points")
        if (np.diff(xs) <= 0).any():
            raise LossError("sample abscissae must be increasing")
        slopes = np.diff(ys) / np.diff(xs)
        if (np.diff(slopes) < -1e-9).any():
            raise LossError("loss is not convex on the sample grid")
        if (slopes < -1e-12).any():
            raise LossError("loss is not nondecreasing")
        object.__setattr__(self, "xs", tuple(float(x) for x in xs))
        object.__setattr__(self, "ys", tuple(float(y) for y in ys))
        object.__setattr__(self, "_slopes", slopes)
        for x in (-1e-3, -1.0, -10.0):
            if self.value(x) >= 1.0:
                raise LossError("loss must stay below 1 on the negative axis")
        if not self.left_limit < 1.0:
            raise LossError("declared left limit must be < 1")

    def value(self, x):
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        x = np.asarray(x, dtype=float)
        lo = ys[0] + self._slopes[0] * (np.minimum(x, xs[0]) - xs[0])
        hi = ys[-1] + self._slopes[-1] * (np.maximum(x, xs[-1]) - xs[-1])
        mid = np.interp(x, xs, ys)
        return np.where(x <= xs[0], lo, np.where(x >= xs[-1], hi, mid))

    def prime(self, x):
        xs = np.asarray(self.xs)
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, x) - 1, 0, self._slopes.size - 1)
        return np.asarray(self._slopes[idx])

    @np.errstate(invalid="ignore")
    def _node_search(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node sup of x*y - l(x) and its node, plus a local quadratic
        correction, for each entry of a flat array y.

        The node is the first best gain x*y - l(x).  Nondecreasing slopes
        put it among the three nodes at the ``searchsorted`` position of y
        in the slopes (NaN: the first node); slopes that drop, by the
        rounding ``__post_init__`` allows, scan every node, in blocks of
        SCAN_BLOCK entries.  Fitting a parabola through the three nodes
        around the best one recovers smooth-loss accuracy O(h^3) instead of
        the O(h^2) of the bare node maximum; for genuinely piecewise-linear
        samples the parabola degenerates and the node value stands.
        """
        xs, vs = np.asarray(self.xs), np.asarray(self.ys)
        if (np.diff(self._slopes) >= 0.0).all():
            k = np.where(np.isnan(y), 0, np.searchsorted(self._slopes, y))
            near = np.clip(k[:, None] + np.arange(-1, 2), 0, xs.size - 1)
            j = near[np.arange(y.size),
                     np.argmax(xs[near] * y[:, None] - vs[near], axis=1)]
        else:
            j = np.concatenate([np.argmax(xs * part[:, None] - vs, axis=1)
                                for part in np.array_split(
                                    y, y.size // SCAN_BLOCK + 1)])
        best_x, best_v = xs[j], xs[j] * y - vs[j]
        i = np.clip(j, 1, xs.size - 2)
        x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
        d1, d2 = self._slopes[i - 1], self._slopes[i]
        a = (d2 - d1) / (x2 - x0)
        fit = (j > 0) & (j < xs.size - 1) & (a > 1e-12)
        a = np.where(fit, a, 1.0)
        b = d1 - a * (x0 + x1)
        xv = np.clip((y - b) / (2 * a), x0, x2)
        c = vs[i - 1] - (a * x0 + b) * x0
        cand = xv * y - (a * xv * xv + b * xv + c)
        take = fit & (cand > best_v)
        return np.where(take, xv, best_x), np.where(take, cand, best_v)

    def conjugate(self, y):
        """sup_x (x y - l(x)): node maximum with local quadratic refinement."""
        arr = np.asarray(y, dtype=float)
        flat = arr.ravel()
        out = self._node_search(flat)[1]
        if self._slopes[0] == 0.0:
            # Flat left tail: the sup over x -> -inf is -left_limit.
            out = np.where((flat == 0.0) & (-self.left_limit > out),
                           -self.left_limit, out)
        out = np.where((flat < 0.0) | (flat > self._slopes[-1] + 1e-15),
                       INF, out)
        return out.reshape(arr.shape)

    def conjugate_prime(self, y):
        arr = np.asarray(y, dtype=float)
        flat = arr.ravel()
        out = self._node_search(flat)[0]
        # +inf where the conjugate is +inf
        out = np.where(flat > self._slopes[-1] + 1e-15, INF, out)
        return out.reshape(arr.shape)

    def conjugate_second(self, y):
        """0: no curvature to follow, so root searches on it bisect."""
        return np.zeros_like(np.asarray(y, dtype=float))


LossFn = ExpLoss | PowerLoss | TabulatedLoss
