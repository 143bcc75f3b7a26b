"""Backward recursion for the tensorized risk functional and its uses.

The n-step value of a dense field f on E^n is computed by the backward
recursion: the last coordinate is collapsed with the one-step risk measure,
slice by slice, n times.  For permutation-invariant fields the recursion
only needs the occupancy vector (type class) of the consumed prefix, which
is what makes long horizons tractable.

On top of the recursion sit the empirical-measure limit harness, the
superhedging decomposition (initial capital plus adapted acceptable
increments), and the adapted-control form of the transport risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import extreal
from .extreal import INF, NEG_INF
from .optim import numeric_tangent_grad, pgd_max_simplex, simplex_grid
from .penalties import AlphaSpec, Transport, penalty_rows, spec_space
from .risk import risk_rows
from .spaces import (DENSE_CAP, Dist, FiniteSpace, SpaceError,
                     SymmetricField, type_index, type_rank)
from .transport import solve_transport

__all__ = [
    "DPTrace", "SanovRun", "SuperhedgeCert", "backward_value_dense",
    "backward_value_symmetric", "symmetric_terminal", "sanov_limit",
    "superhedge", "transport_control_value", "transport_longrun",
    "simplex_supremum",
]


@dataclass
class DPTrace:
    """Stage values of the backward recursion: stages[k] has length m^k."""

    n: int
    space: FiniteSpace
    spec: AlphaSpec
    stages: list[np.ndarray]   # stages[0] is the scalar value

    @property
    def value(self) -> float:
        return float(self.stages[0][0])


def _flatten_field(f, space: FiniteSpace) -> tuple[np.ndarray, int]:
    arr = np.asarray(f, dtype=float)
    flat = arr.ravel()
    m = space.size
    n = int(round(np.log(flat.size) / np.log(m))) if m > 1 else arr.ndim
    if m ** n != flat.size:
        raise SpaceError("field length is not a power of the space size")
    return flat, n


def backward_value_dense(f, space: FiniteSpace, spec: AlphaSpec,
                         keep_trace: bool = False
                         ) -> tuple[float, Optional[DPTrace]]:
    """n-step risk of a dense field by the backward recursion."""
    flat, n = _flatten_field(f, space)
    m = space.size
    if flat.size > DENSE_CAP:
        raise SpaceError("dense field exceeds the 2^24 cap; "
                         "use backward_value_symmetric")
    stages = [flat.copy()] if keep_trace else []
    g = flat
    for _ in range(n):
        g = risk_rows(spec, g.reshape(-1, m))
        if keep_trace:
            stages.append(g.copy())
    value = float(g[0])
    trace = None
    if keep_trace:
        stages.reverse()
        trace = DPTrace(n, space, spec, stages)
    return value, trace


def backward_value_symmetric(values_by_type, n: int, space: FiniteSpace,
                             spec: AlphaSpec) -> float:
    """Backward recursion over occupancy vectors of the consumed prefix.

    ``values_by_type`` holds the terminal values in rank order (rows of
    ``type_index(n, m)``).  Valid because every implemented one-step risk is
    permutation-equivariant in the conditioning prefix: its parameters do
    not depend on the prefix at all.
    """
    m = space.size
    V = SymmetricField(n, space, values_by_type).values
    step = np.eye(m, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        V = risk_rows(spec, V[type_rank(type_index(k, m)[:, None] + step)])
    return float(V[0])


def symmetric_terminal(F: Callable[[np.ndarray], np.ndarray], n: int,
                       space: FiniteSpace) -> np.ndarray:
    """Terminal values n * F(type/n) of a function of L_n, in rank order."""
    return n * _values(F, type_index(n, space.size) / n)


def _values(F: Callable[[np.ndarray], np.ndarray],
            rows: np.ndarray) -> np.ndarray:
    """F at each row of a (B, m) batch of laws; F must return (B,) values."""
    vals = np.asarray(F(rows), dtype=float)
    if vals.shape != (len(rows),):
        raise TypeError(f"F must map a batch of {len(rows)} laws to shape "
                        f"({len(rows)},), got {vals.shape}")
    return vals


# ---------------------------------------------------------------------------
# Limit harness
# ---------------------------------------------------------------------------

def simplex_supremum(objective: Callable[[np.ndarray], np.ndarray],
                     m: int, step: float = 0.01) -> tuple[float, np.ndarray]:
    """sup of a rows-in, values-out function over the simplex: one call on
    the (B, m) grid, then projected ascent from the best grid point."""
    pts = simplex_grid(m, step)
    vals = objective(pts)
    i = int(np.argmax(vals))
    best, best_v = pts[i], float(vals[i])
    x, v = pgd_max_simplex(objective, best)
    if v > best_v:
        best, best_v = x, v
    return best_v, best


@dataclass
class SanovRun:
    """Scaled n-step values of n F(L_n) against the limiting supremum."""

    label: str
    schedule: list[int]
    values: list[float]
    target: float
    gaps: list[float]
    coupling_target: Optional[float] = None
    argmax: Optional[list[float]] = None

    def to_json_dict(self) -> dict:
        out = {
            "label": self.label,
            "schedule": self.schedule,
            "v_n": self.values,
            "target": self.target,
            "gaps": self.gaps,
        }
        if self.coupling_target is not None:
            out["coupling_target"] = self.coupling_target
        if self.argmax is not None:
            out["argmax"] = self.argmax
        return out

    def csv_rows(self) -> list[tuple]:
        return [(n, v, self.target, g)
                for n, v, g in zip(self.schedule, self.values, self.gaps)]


def sanov_limit(F: Callable[[np.ndarray], np.ndarray], spec: AlphaSpec,
                schedule: Sequence[int], grid_step: float = 0.01,
                label: str = "sanov") -> SanovRun:
    """(1/n) rho_n(n F o L_n) along a schedule, with the limit target
    sup_nu (F(nu) - alpha(nu)); a transport spec takes its target from the
    coupling form (see ``transport_longrun``)."""
    space = spec_space(spec)
    values = []
    for n in schedule:
        term = symmetric_terminal(F, n, space)
        values.append(backward_value_symmetric(term, n, space, spec) / n)

    def J(nu):
        a = penalty_rows(spec, nu)
        return np.where(np.isfinite(a), _values(F, nu) - a, NEG_INF)

    coupling = None
    if isinstance(spec, Transport):
        pts = simplex_grid(space.size, grid_step)
        coupling, arg = _coupling_supremum(F, spec.mu, spec.cost,
                                           pts[int(np.argmax(J(pts)))])
        target = float(J(arg[None])[0])
    else:
        target, arg = simplex_supremum(J, space.size, step=grid_step)
    gaps = [abs(v - target) for v in values]
    return SanovRun(label, [int(n) for n in schedule],
                    [float(v) for v in values], float(target), gaps,
                    coupling_target=coupling,
                    argmax=[float(x) for x in arg])


# ---------------------------------------------------------------------------
# Superhedging decomposition
# ---------------------------------------------------------------------------

@dataclass
class SuperhedgeCert:
    """Initial capital y plus adapted increments reproducing f exactly.

    Each increment slice is acceptable: its one-step risk vanishes (up to
    the root-finding tolerance), and y + sum of increments telescopes back
    to f.
    """

    y: float
    increments: list[np.ndarray]   # increments[k-1] has length m^k
    residual_max: float
    slice_risk_max: float

    def to_json_dict(self) -> dict:
        return {
            "y": self.y,
            "increments": [inc.tolist() for inc in self.increments],
            "residual_max": self.residual_max,
            "slice_risk_max": self.slice_risk_max,
        }


def superhedge(f, space: FiniteSpace, spec: AlphaSpec) -> SuperhedgeCert:
    """Decompose f as y + sum of adapted acceptable increments."""
    value, trace = backward_value_dense(f, space, spec, keep_trace=True)
    m = space.size
    n = trace.n
    increments = []
    slice_max = 0.0
    for k in range(1, n + 1):
        g_k = trace.stages[k]
        g_prev = trace.stages[k - 1]
        inc = g_k - np.repeat(g_prev, m)
        increments.append(inc)
        slice_vals = risk_rows(spec, inc.reshape(-1, m))
        slice_max = max(slice_max, float(np.abs(slice_vals).max()))
    total = np.zeros(1)
    for inc in increments:
        total = np.repeat(total, m) + inc
    residual = np.abs(np.asarray(f, dtype=float).ravel() - value - total)
    return SuperhedgeCert(value, increments, float(residual.max()), slice_max)


# ---------------------------------------------------------------------------
# Transport: adapted-control form and long-run limit
# ---------------------------------------------------------------------------

def transport_control_value(f, space: FiniteSpace, mu: Dist, cost) -> float:
    """Value of the adapted-control problem: steer targets y_k at cost
    c(X_k, y_k) to maximize E[f(y_1, ..., y_n) - sum c(X_k, y_k)].

    Independent of the generic recursion: a direct post-decision backward
    pass, used to cross-check the Transport-spec recursion.
    """
    flat, n = _flatten_field(f, space)
    m = space.size
    c = np.asarray(cost, dtype=float)
    w = mu.weights
    J = flat
    for _ in range(n):
        arr = J.reshape(-1, 1, m)                     # (prefixes, 1, y)
        gains = arr - c[None, :, :]                   # (prefixes, x, y)
        gains = np.where(np.isinf(c)[None, :, :] |
                         np.isneginf(arr), -np.inf, gains)
        best = gains.max(axis=2)                      # (prefixes, x)
        J = extreal.integral_rows(w, best)
    return float(J[0])


def transport_longrun(F: Callable[[np.ndarray], np.ndarray], mu: Dist, cost,
                      schedule: Sequence[int], grid_step: float = 0.01,
                      label: str = "transport-longrun") -> SanovRun:
    """Long-run scaled control values against the transport limit
    sup_nu (F(nu) - W_c(mu, nu)), from its coupling form, which is smooth in
    the kernel K: the ascent from the grid maximizer gives
    ``coupling_target``, and ``target`` is the exact F(nu*) - W_c(mu, nu*)
    at nu* = mu K* (``argmax``).  grid max <= coupling_target <= target <=
    sup, with equality when K* is an optimal plan between mu and nu*.
    """
    return sanov_limit(F, Transport(mu, cost), schedule, grid_step=grid_step,
                       label=label)


def _coupling_supremum(F, mu: Dist, c: np.ndarray, nu0: np.ndarray
                       ) -> tuple[float, np.ndarray]:
    """sup over couplings pi with first marginal mu of
    F(second marginal) - int c dpi, and the second marginal of the best
    coupling: one projected ascent over the kernels K (pi = diag(mu) K, a
    product of m simplices), with one row per start.

    The starts are the optimal plan to nu0, the uniform kernel on the
    allowed cells and the cheapest cell of each row.
    """
    m = mu.m
    w = mu.weights
    allowed = ~np.isinf(c)
    wc = w[:, None] * np.where(allowed, c, 0.0)

    def objective(K):
        return _values(F, w @ K) - (K * wc).reshape(len(K), -1).sum(axis=1)

    def gradient(K):
        gF = numeric_tangent_grad(lambda N: _values(F, N), w @ K)
        return w[:, None] * gF[:, None, :] - wc

    starts = []
    sol = solve_transport(w, Dist(mu.space, nu0).weights, c)
    if sol.plan is not None:
        starts.append(np.where(w[:, None] > 0, sol.plan / np.maximum(
            w[:, None], 1e-300), 1.0))
    starts.append(np.ones((m, m)))      # the projection makes these uniform
    greedy = np.zeros((m, m))
    greedy[np.arange(m), np.argmin(np.where(allowed, c, INF), axis=1)] = 1.0
    starts.append(greedy)
    K, vals = pgd_max_simplex(objective, np.array(starts), gradient=gradient,
                              support=allowed)
    best = int(np.argmax(vals))
    return float(vals[best]), w @ K[best]
