"""Backward recursion for the tensorized risk functional and its uses.

The n-step value of a dense field f on E^n is computed by the backward
recursion: the last coordinate is collapsed with the one-step risk measure,
slice by slice, n times.  For permutation-invariant fields the recursion
only needs the occupancy vector (type class) of the consumed prefix, which
is what makes long horizons tractable.  The Sanov harness goes further:
its F (``SimplexFunction``) labels the groups of states whose counts the
terminal value reads only through their sum (a well's coordinate and the
rest, say), and the recursion runs over the counts by group.

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
from .optim import pgd_max_simplex, simplex_grid
from .penalties import AlphaSpec, Transport, penalty
from .risk import penalized_objective, risk_rows
from .spaces import (DENSE_CAP, Dist, FiniteSpace, SpaceError,
                     SymmetricField, type_index, type_successors)
from .transport import solve_transport

__all__ = [
    "SanovRun", "SuperhedgeCert", "backward_value_dense",
    "backward_value_symmetric", "backward_values_symmetric",
    "symmetric_terminal", "SimplexFunction", "sanov_limit",
    "superhedge", "transport_control_value", "simplex_supremum",
]

GRID_STEP = 0.01    # mesh of the simplex grid that starts a limit target
GRID_BLOCK = 2 ** 14    # grid rows per evaluator call of that scan


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
                         ) -> tuple[float, Optional[list[np.ndarray]]]:
    """n-step risk of a dense field by the backward recursion, and with
    ``keep_trace`` its stage values: stage k has m^k entries, and stage 0
    is the value."""
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
            stages.append(g)
    stages.reverse()
    return float(g[0]), stages if keep_trace else None


def backward_value_symmetric(values_by_type, n: int, space: FiniteSpace,
                             spec: AlphaSpec) -> float:
    """Backward recursion over occupancy vectors of the consumed prefix.

    ``values_by_type`` holds the terminal values in rank order (rows of
    ``type_index(n, m)``).  The one-entry case of
    ``backward_values_symmetric``, which serves a whole schedule in one
    pass, with every state its own group.
    """
    return backward_values_symmetric(lambda _: values_by_type, [n],
                                     np.arange(space.size), spec)[0]


def backward_values_symmetric(terminal: Callable[[int], np.ndarray],
                              schedule: Sequence[int], labels: np.ndarray,
                              spec: AlphaSpec) -> list[float]:
    """The backward recursion over type classes for every n of a schedule
    in one descent from level max(n); the values come in schedule order.

    ``labels`` numbers the group of each of the m states, by first
    appearance, and a class counts draws by group: level k has the classes
    of ``type_index(k, g)``, and ``terminal(n)`` gives entry n's terminal
    values in their rank order.  Each level gathers the group successors
    back to the m states, ``type_successors(k, g)[:, labels]``.  When the
    terminal values depend on the counts by group only, so does every
    level (the empirical-measure chain is lumpable; Kemeny and Snell,
    Finite Markov Chains, 1960, 6.3), and each row is, bit for bit, a row
    of the recursion over the states' own classes (identity labels).

    Entry n joins when the descent reaches level n and from there runs in
    lockstep with the entries already started: each level makes one
    ``risk_rows`` call on the stacked rows of every started entry.  Every
    one-step risk treats each row on its own, so an entry's value does not
    depend on the others.  Valid because every implemented one-step risk
    is permutation-equivariant in the conditioning prefix: its parameters
    do not depend on the prefix at all.
    """
    m, g = len(labels), int(max(labels)) + 1
    joins = sorted(set(schedule))          # levels still to join, top last
    order = []                             # the n of each stacked block
    V = np.empty(0)
    for level in range(joins[-1], -1, -1):
        if joins and joins[-1] == level:
            term = SymmetricField(level, FiniteSpace.of_size(g),
                                  terminal(joins.pop()))
            V = np.concatenate([V, term.values])
            order.append(level)
        if level:
            succ = type_successors(level - 1, g)[:, labels]
            rows = V.reshape(len(order), -1)[:, succ]
            V = risk_rows(spec, rows.reshape(-1, m))
    value = dict(zip(order, V.tolist()))
    return [value[n] for n in schedule]


def symmetric_terminal(F: SimplexFunction, n: int,
                       space: FiniteSpace) -> np.ndarray:
    """Terminal values n F(L_n) by group counts, one per row of
    ``type_index(n, g)`` in rank order, for the groups of ``F.labels``:
    F at the law that puts each group's count on its first state."""
    first = np.unique(F.labels, return_index=True)[1]
    counts = type_index(n, first.size)
    types = np.zeros((len(counts), space.size), dtype=counts.dtype)
    types[:, first] = counts
    return n * F(types / n)


# The wells: the shape of nu_c - center, and its slope, which for abs_well
# reads 0 at the kink.
_WELLS = {"square_well": (np.square, lambda d: 2.0 * d),
          "abs_well": (np.abs, np.sign)}


@dataclass(frozen=True)
class SimplexFunction:
    """A function F of the law on m states, rows in: F(rows) maps a (B, m)
    batch of laws to their (B,) values, and ``grad(rows)`` to their (B, m)
    (super)gradients.  Each kind is a function of one linear form <a, nu>:

    - ``constant``: F = value;
    - ``linear``: F = <coeffs, nu>;
    - ``square_well`` and ``abs_well``: F = scale (nu_c - center)^2 and
      F = scale |nu_c - center|, with c the coordinate.

    ``labels`` numbers, by first appearance, the groups of states whose
    counts F(L_n) reads only through their sum, bit for bit: one group
    for a constant, a well's coordinate apart from the rest, and one
    group per state for a linear F, whose sum rounds state by state.
    """

    kind: str
    m: int
    value: float = 0.0                      # a constant's
    coeffs: Optional[np.ndarray] = None     # a linear F's
    coordinate: int = 0                     # a well's c, centre and scale
    center: float = 0.0
    scale: float = 0.0

    def __call__(self, nu: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(nu), self.value)
        if self.kind == "linear":
            return nu @ self.coeffs
        shape = _WELLS[self.kind][0]
        return self.scale * shape(nu[:, self.coordinate] - self.center)

    def grad(self, nu: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.zeros_like(nu)
        if self.kind == "linear":
            return np.broadcast_to(self.coeffs, nu.shape)
        c, slope = self.coordinate, _WELLS[self.kind][1]
        return self.scale * slope(nu[:, c, None] - self.center) * \
            np.eye(self.m)[c]

    @property
    def labels(self) -> np.ndarray:
        if self.kind == "constant":
            return np.zeros(self.m, dtype=np.int64)
        if self.kind == "linear":
            return np.arange(self.m)
        apart = np.arange(self.m) == self.coordinate
        return (apart != apart[0]).astype(np.int64)

    def fault(self, n: int) -> Optional[str]:
        """Why this F does not serve its m states up to n draws, led by the
        key at fault, or None.  A linear F has m coefficients and a well's
        coordinate is a state; n F and its gradient must be finite on the
        simplex.  Their sizes peak at its vertices, and a well overflows by
        its centre when n shape(nu_c - center) does for nu_c in [0, 1]."""
        if self.kind == "linear" and len(self.coeffs) != self.m:
            return (f"coeffs: expected {self.m} coefficients, "
                    f"got {len(self.coeffs)}")
        if self.kind in _WELLS and self.coordinate >= self.m:
            return (f"coordinate: expected an integer in [0, {self.m}), "
                    f"got {self.coordinate!r}")
        vertices = np.eye(self.m)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(n * self(vertices)).all() and \
                    np.isfinite(self.grad(vertices)).all():
                return None
            key = {"constant": "value", "linear": "coeffs"}.get(self.kind)
            if key is None:
                d = np.array([0.0, 1.0]) - self.center
                key = "scale" if np.isfinite(
                    n * _WELLS[self.kind][0](d)).all() else "center"
        return f"{key}: n F(nu) overflows a float on the simplex at n = {n}"


# ---------------------------------------------------------------------------
# Limit harness
# ---------------------------------------------------------------------------

def simplex_supremum(objective: Callable, m: int, step: float,
                     support: np.ndarray) -> tuple[float, np.ndarray]:
    """sup over the simplex of an evaluator that maps (B, m) rows to their
    (values, (super)gradients): a scan of the grid, GRID_BLOCK rows per
    call so that its gradients stay small, then projected ascent from the
    first best grid point, with the entries where ``support`` is False held
    at 0; when the evaluator returns ``None`` gradients, that grid point."""
    pts = simplex_grid(m, step)
    best_v, best = NEG_INF, pts[0]
    for lo in range(0, len(pts), GRID_BLOCK):
        vals, grads = objective(pts[lo:lo + GRID_BLOCK])
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best = float(vals[i]), pts[lo + i]
    if grads is not None:
        x, v = pgd_max_simplex(objective, best, support=support)
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


def sanov_limit(F: SimplexFunction, spec: AlphaSpec,
                schedule: Sequence[int], grid_step: float = GRID_STEP
                ) -> SanovRun:
    """(1/n) rho_n(n F o L_n) along a schedule, with the limit target
    sup_nu (F(nu) - alpha(nu)).  One backward pass over the type classes
    of F's groups serves the whole schedule (``backward_values_symmetric``).

    The target ascends from the best grid point along F.grad - grad alpha
    on the spec's support, one pass of F - alpha per point; a penalty
    without a gradient (a set indicator) keeps the grid point.

    A transport spec takes its target sup_nu (F(nu) - W_c(mu, nu)) from the
    coupling form, which is smooth in the kernel K: the ascent from the
    grid maximizer gives ``coupling_target``, and ``target`` is the exact
    F(nu*) - W_c(mu, nu*) at nu* = mu K* (``argmax``).  grid max <=
    coupling_target <= target <= sup, with equality when K* is an optimal
    plan between mu and nu*.  Its run is labelled "transport-longrun", any
    other "sanov".
    """
    space = spec.space
    values = [v / n for n, v in zip(schedule, backward_values_symmetric(
        lambda n: symmetric_terminal(F, n, space), schedule, F.labels, spec))]

    label, coupling = "sanov", None
    if isinstance(spec, Transport):
        def J(nu):
            a = penalty(nu, spec)
            return np.where(np.isfinite(a), F(nu) - a, NEG_INF)

        label = "transport-longrun"
        pts = simplex_grid(space.size, grid_step)
        coupling, arg = _coupling_supremum(F, spec.mu, spec.cost,
                                           pts[int(np.argmax(J(pts)))])
        target = float(J(arg[None])[0])
    else:
        target, arg = simplex_supremum(penalized_objective(spec, F, F.grad),
                                       space.size, grid_step, spec.support)
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
    to f.  The increments share one buffer, ``flat``: stage k = 1..n holds
    its m^k entries from offset m + m^2 + ... + m^(k-1).
    """

    y: float
    flat: np.ndarray
    increments: list[np.ndarray]   # views of flat; increments[k-1]: m^k
    residual_max: float
    slice_risk_max: float


def superhedge(f, space: FiniteSpace, spec: AlphaSpec) -> SuperhedgeCert:
    """Decompose f as y + sum of adapted acceptable increments."""
    value, stages = backward_value_dense(f, space, spec, keep_trace=True)
    m = space.size
    flat = np.empty(sum(g.size for g in stages[1:]))
    increments = []
    slice_max = 0.0
    start = 0
    for g_prev, g_k in zip(stages, stages[1:]):
        inc = flat[start:start + g_k.size]
        start += g_k.size
        rows = inc.reshape(-1, m)
        np.subtract(g_k.reshape(-1, m), g_prev[:, None], out=rows)
        increments.append(inc)
        # By cash additivity every slice risk is 0 up to rounding; a NaN
        # survives np.maximum, so the gate sees it.
        slice_vals = risk_rows(spec, rows, near=0.0)
        slice_max = float(np.maximum(slice_max, np.abs(slice_vals).max()))
    total = np.zeros(1)
    for inc in increments:
        total = np.repeat(total, m) + inc
    residual = np.abs(np.asarray(f, dtype=float).ravel() - value - total)
    return SuperhedgeCert(value, flat, increments, float(residual.max()),
                          slice_max)


# ---------------------------------------------------------------------------
# Transport: adapted-control form and the coupling supremum
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


def _coupling_supremum(F: SimplexFunction, mu: Dist, c: np.ndarray,
                       nu0: np.ndarray) -> tuple[float, np.ndarray]:
    """sup over couplings pi with first marginal mu of
    F(second marginal) - int c dpi, and the second marginal of the best
    coupling: one projected ascent over the kernels K (pi = diag(mu) K, a
    product of m simplices), with one row per start, along the gradient
    mu_x (F.grad(mu K)_y - c(x, y)) in cell (x, y).

    The starts are the optimal plan to nu0, the uniform kernel on the
    allowed cells and the cheapest cell of each row.
    """
    m = mu.m
    w = mu.weights
    allowed = ~np.isinf(c)
    wc = w[:, None] * np.where(allowed, c, 0.0)

    def objective(K):
        nu = w @ K
        vals = F(nu) - (K * wc).reshape(len(K), -1).sum(axis=1)
        return vals, w[:, None] * F.grad(nu)[:, None, :] - wc

    starts = []
    sol = solve_transport(w, Dist(mu.space, nu0).weights, c)
    if sol.plan is not None:
        starts.append(np.where(w[:, None] > 0, sol.plan / np.maximum(
            w[:, None], 1e-300), 1.0))
    starts.append(np.ones((m, m)))      # the projection makes these uniform
    greedy = np.zeros((m, m))
    greedy[np.arange(m), np.argmin(np.where(allowed, c, INF), axis=1)] = 1.0
    starts.append(greedy)
    K, vals = pgd_max_simplex(objective, np.array(starts), support=allowed)
    best = int(np.argmax(vals))
    return float(vals[best]), w @ K[best]
