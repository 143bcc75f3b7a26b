"""Backward recursion for the tensorized risk functional and its uses.

The n-step value of a dense field f on E^n is computed by the backward
recursion: the last coordinate is collapsed with the one-step risk measure,
slice by slice, n times.  For permutation-invariant fields the recursion
only needs the occupancy vector (type class) of the consumed prefix, which
is what makes long horizons tractable.  The Sanov harness goes further:
its F (``SimplexFunction``) labels the groups of states whose counts the
terminal value reads only through their sum (a well's coordinate and the
rest, say), and the recursion runs over the counts by group; F reads the
law through one linear form, so its limit target is a 1-d dual.

On top of the recursion sit the empirical-measure limit harness, the
superhedging decomposition (initial capital plus adapted acceptable
increments), and the adapted-control form of the transport risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import math

import numpy as np

from . import extreal
from .extreal import NEG_INF
from .optim import simplex_grid
from .penalties import AlphaSpec, SetIndicator, Transport, penalty
from .risk import risk_rows
from .spaces import (DENSE_CAP, Dist, SpaceError, SymmetricField, type_index,
                     type_successors)

__all__ = [
    "SanovRun", "SuperhedgeCert", "backward_value_dense",
    "backward_value_symmetric", "backward_values_symmetric",
    "symmetric_terminal", "SimplexFunction", "sanov_limit",
    "superhedge", "transport_control_value", "simplex_supremum",
]

GRID_STEP = 0.01    # mesh of the simplex grid of a set-indicator target
GRID_BLOCK = 2 ** 14    # grid rows per evaluator call of that scan
SEARCH_POINTS = 64  # candidate t per call of a target's search
SEARCH_TOL = 1e-7   # bracket width that stops it, times min(1, first width)
GAP_TOL = 1e-9      # largest dual gap of a certified target, per 1 + |target|


def _flatten_field(f, m: int) -> tuple[np.ndarray, int]:
    arr = np.asarray(f, dtype=float)
    flat = arr.ravel()
    n = int(round(np.log(flat.size) / np.log(m))) if m > 1 else arr.ndim
    if m ** n != flat.size:
        raise SpaceError("field length is not a power of the number of states")
    return flat, n


def backward_value_dense(f, spec: AlphaSpec, keep_trace: bool = False
                         ) -> tuple[float, Optional[list[np.ndarray]]]:
    """n-step risk of a dense field on the m = ``spec.size`` states by the
    backward recursion, and with ``keep_trace`` its stage values: stage k
    has m^k entries, and stage 0 is the value."""
    m = spec.size
    flat, n = _flatten_field(f, m)
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


def backward_value_symmetric(values_by_type, n: int, spec: AlphaSpec) -> float:
    """Backward recursion over occupancy vectors of the consumed prefix.

    ``values_by_type`` holds the terminal values in rank order (rows of
    ``type_index(n, m)``, m = ``spec.size``).  The one-entry case of
    ``backward_values_symmetric``, which serves a whole schedule in one
    pass, with every state its own group.
    """
    return backward_values_symmetric(lambda _: values_by_type, [n],
                                     np.arange(spec.size), spec)[0]


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
            term = SymmetricField(level, g, terminal(joins.pop()))
            V = np.concatenate([V, term.values])
            order.append(level)
        if level:
            succ = type_successors(level - 1, g)[:, labels]
            rows = V.reshape(len(order), -1)[:, succ]
            V = risk_rows(spec, rows.reshape(-1, m))
    value = dict(zip(order, V.tolist()))
    return [value[n] for n in schedule]


def symmetric_terminal(F: SimplexFunction, n: int) -> np.ndarray:
    """Terminal values n F(L_n) by group counts, one per row of
    ``type_index(n, g)`` in rank order, for the groups of ``F.labels``:
    F at the law that puts each group's count on its first state."""
    first = np.unique(F.labels, return_index=True)[1]
    counts = type_index(n, first.size)
    types = np.zeros((len(counts), F.m), dtype=counts.dtype)
    types[:, first] = counts
    return n * F(types / n)


# The wells: the shape of nu_c - center.
_WELLS = {"square_well": np.square, "abs_well": np.abs}


@dataclass(frozen=True)
class SimplexFunction:
    """A function F of the law on m states, rows in: F(rows) maps a (B, m)
    batch of laws to their (B,) values.  Each kind is a function of one
    linear form <a, nu>:

    - ``constant``: F = value;
    - ``linear``: F = <coeffs, nu>;
    - ``square_well`` and ``abs_well``: F = scale (nu_c - center)^2 and
      F = scale |nu_c - center|, with c the coordinate.

    So F = phi(<a, nu>) with a = ``form``, and ``bracket``, ``phi_star``
    and ``s_star`` set up the 1-d search for its limit target
    (``sanov_limit``).

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
        shape = _WELLS[self.kind]
        return self.scale * shape(nu[:, self.coordinate] - self.center)

    @property
    def labels(self) -> np.ndarray:
        if self.kind == "constant":
            return np.zeros(self.m, dtype=np.int64)
        if self.kind == "linear":
            return np.arange(self.m)
        apart = np.arange(self.m) == self.coordinate
        return (apart != apart[0]).astype(np.int64)

    @property
    def form(self) -> np.ndarray:
        """The a of F = phi(<a, nu>): 0 for a constant, the coefficients
        of a linear F, e_c for a well."""
        if self.kind == "constant":
            return np.zeros(self.m)
        if self.kind == "linear":
            return np.asarray(self.coeffs, dtype=float)
        return np.eye(self.m)[self.coordinate]

    @property
    def bracket(self) -> tuple[float, float]:
        """The t = phi'(s) for s in [0, 1], which holds the t that solves
        the 1-d search of the limit target: on a well, the slopes
        2 scale (s - c) or [-|scale|, |scale|], and for a constant (0) or
        a linear F (1) the one t where phi_* is finite."""
        if self.kind in ("constant", "linear"):
            t = float(self.kind == "linear")
            return t, t
        if self.kind == "square_well":
            ends = 2.0 * self.scale * (1.0 - self.center), \
                -2.0 * self.scale * self.center
            return min(ends), max(ends)
        return -abs(self.scale), abs(self.scale)

    def phi_star(self, t: float) -> float:
        """phi_*(t) = inf_s (t s - phi(s)) of a concave phi on the bracket:
        -value, 0, t c - t^2 / (4k) for a square well (k = -scale) and t c
        for an abs well."""
        if self.kind == "constant":
            return -self.value
        if self.kind == "linear":
            return 0.0
        quad = 0.25 * t * (t / -self.scale) \
            if self.kind == "square_well" and t else 0.0
        return t * self.center - quad

    def s_star(self, t: np.ndarray) -> np.ndarray:
        """The s where a well's phi'(s) = t, or its kink's: c + t /
        (2 scale) for a square well, c for an abs well."""
        if self.kind == "square_well":
            return self.center + t / (2.0 * self.scale)
        return np.full(np.shape(t), self.center)

    def fault(self, n: int) -> Optional[str]:
        """Why this F does not serve its m states up to n draws, led by the
        key at fault, or None.  A linear F has m coefficients and a well's
        coordinate is a state; n F must be finite on the simplex, where its
        size peaks at the vertices, and so must the width of ``bracket``.
        A well overflows by its centre when n shape(nu_c - center) does
        for nu_c in [0, 1]."""
        if self.kind == "linear" and len(self.coeffs) != self.m:
            return (f"coeffs: expected {self.m} coefficients, "
                    f"got {len(self.coeffs)}")
        if self.kind in _WELLS and self.coordinate >= self.m:
            return (f"coordinate: expected an integer in [0, {self.m}), "
                    f"got {self.coordinate!r}")
        vertices = np.eye(self.m)
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = self.bracket
            if np.isfinite(n * self(vertices)).all() and \
                    np.isfinite(hi - lo):
                return None
            key = {"constant": "value", "linear": "coeffs"}.get(self.kind)
            if key is None:
                d = np.array([0.0, 1.0]) - self.center
                key = "scale" if np.isfinite(
                    n * _WELLS[self.kind](d)).all() else "center"
        return f"{key}: n F(nu) overflows a float on the simplex at n = {n}"


# ---------------------------------------------------------------------------
# Limit harness
# ---------------------------------------------------------------------------

def simplex_supremum(objective: Callable, m: int,
                     step: float) -> tuple[float, np.ndarray]:
    """The largest value of an evaluator of (B, m) rows on the simplex grid
    of mesh ``step``, GRID_BLOCK rows per call, and its first best grid
    point."""
    pts = simplex_grid(m, step)
    best_v, best = NEG_INF, pts[0]
    for lo in range(0, len(pts), GRID_BLOCK):
        vals = objective(pts[lo:lo + GRID_BLOCK])
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best = float(vals[i]), pts[lo + i]
    return best_v, best


def _scans(width: float, shrink: float) -> int:
    """The steps that narrow a bracket of ``width`` to SEARCH_TOL
    min(1, width) when each keeps 1/shrink of it."""
    return math.ceil(math.log(max(width, 1.0) / SEARCH_TOL) /
                     math.log(shrink))


def _dual_search(F: SimplexFunction, spec: AlphaSpec, a: np.ndarray):
    """The last t-bracket [lo, hi] of the search for a minimizer of
    h(t) = rho(t a) - phi_*(t), with the maximizers nu_lo and nu_hi at its
    ends.  h'(t) = <a, nu_t> - s*(t), with nu_t = maximizer_rows(t a)
    (Danskin), is nondecreasing, so each step evaluates SEARCH_POINTS t
    across the bracket as the rows of one ``maximizer_rows`` call and keeps
    the cell where h' turns nonnegative; an end where it does not is the
    minimizer.  A bracket that is one point is the minimizer at once."""
    lo, hi = F.bracket
    if lo == hi:
        nu = spec.maximizer_rows(lo * a[None])[0]
        return lo, hi, nu, nu
    tol = SEARCH_TOL * min(1.0, hi - lo)
    for _ in range(_scans(hi - lo, SEARCH_POINTS - 1)):
        ts = np.linspace(lo, hi, SEARCH_POINTS)
        nus = spec.maximizer_rows(ts[:, None] * a)
        up = nus @ a >= F.s_star(ts)
        i = int(np.argmax(up)) if up.any() else len(ts) - 1
        j = i - 1 if up[i] and i else i
        lo, hi, nu_lo, nu_hi = ts[j], ts[i], nus[j], nus[i]
        if hi - lo <= tol:
            break
    return lo, hi, nu_lo, nu_hi


def _dual_target(F: SimplexFunction, spec: AlphaSpec):
    """sup_nu (F(nu) - alpha(nu)) for F = phi(<a, nu>) with phi concave:
    by Sion's minimax theorem it is inf_t h(t), h(t) = rho(t a) - phi_*(t),
    the contraction from Sanov to Cramer (Dembo and Zeitouni, Large
    Deviations Techniques and Applications, Thm 4.2.1).  Returns the
    target F(nu) - alpha(nu), a lower bound; the upper bound h(t); nu; and
    for a transport spec the coupling target, F(nu) less the cost of the
    coupling that moves mu to nu.

    nu mixes the maximizers at the ends of the last bracket, lam nu_lo +
    (1 - lam) nu_hi, so that <a, nu> is an s*(t) of the bracket: the
    maximizers at a minimizer form a convex set, so nu is optimal up to
    the bracket's width even where rho(t a) has a kink (transport), and so
    is the same mix of the two best-reply couplings.  The tangents
    t <a, nu_t> - alpha(nu_t) of rho(t a) at the two ends cross at that
    kink, and the upper bound is h there."""
    a = F.form
    lo, hi, nu_lo, nu_hi = _dual_search(F, spec, a)
    g_lo, g_hi = nu_lo @ a, nu_hi @ a
    lam, t = 1.0, 0.5 * (lo + hi)
    if g_hi > g_lo:
        s = min(max(F.s_star(t), g_lo), g_hi)
        lam = (g_hi - s) / (g_hi - g_lo)
    nu = lam * nu_lo + (1.0 - lam) * nu_hi
    alpha = penalty(np.stack([nu_lo, nu_hi, nu]), spec)
    if g_hi > g_lo:
        t = min(max((alpha[1] - alpha[0]) / (g_hi - g_lo), lo), hi)
    upper = float(risk_rows(spec, t * a[None])[0]) - F.phi_star(t)
    value = float(F(nu[None])[0])
    coupling = None
    if isinstance(spec, Transport):
        cost = spec.reply_costs(np.outer([lo, hi], a))
        coupling = value - float(lam * cost[0] + (1.0 - lam) * cost[1])
    return value - float(alpha[2]), upper, nu, coupling


def _convex_target(F: SimplexFunction, spec: AlphaSpec):
    """sup_nu (F(nu) - alpha(nu)) for a well of positive scale, whose
    convex phi falls outside the minimax theorem.  Toland's duality
    (Toland, J. Math. Anal. Appl. 66, 1978) makes it sup_t g(t), g(t) =
    rho(t a) - phi^*(t) with phi^*(t) = sup over s in [0, 1] of
    (t s - phi(s)), and the t = phi'(s) of a best s lies in F.bracket.
    g need not be concave, so each step evaluates SEARCH_POINTS t across
    the bracket as the rows of one ``risk_rows`` call and keeps the two
    cells around the best.  Not certified: a scan can miss a narrow peak.

    nu = maximizer_rows(t a) at the best t has alpha(nu) = t <a, nu> -
    rho(t a), and phi(<a, nu>) >= t <a, nu> - phi^*(t), so the value
    F(nu) - alpha(nu) that nu attains is at least g(t); it is the target.
    Returns it, nu, and for a transport spec the coupling target, F(nu)
    less the cost of the best-reply coupling behind nu."""
    a = F.form
    lo, hi = F.bracket
    tol = SEARCH_TOL * min(1.0, hi - lo)
    best_t, best_g = lo, NEG_INF
    for _ in range(_scans(hi - lo, 0.5 * (SEARCH_POINTS - 1))):
        ts = np.linspace(lo, hi, SEARCH_POINTS)
        # phi^*(t) of a concave t s - phi(s): at s*(t) or an end of [0, 1]
        s = np.clip([np.zeros_like(ts), np.ones_like(ts), F.s_star(ts)],
                    0.0, 1.0)
        conj = ts * s - F(s.reshape(-1, 1) * a).reshape(s.shape)
        g = risk_rows(spec, ts[:, None] * a) - conj.max(axis=0)
        i = int(np.argmax(g))
        if g[i] > best_g:
            best_t, best_g = ts[i], g[i]
        lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        if hi - lo <= tol:
            break
    row = best_t * a[None]
    nu = spec.maximizer_rows(row)[0]
    value = float(F(nu[None])[0])
    coupling = None
    if isinstance(spec, Transport):
        coupling = value - float(spec.reply_costs(row)[0])
    return value - float(penalty(nu, spec)), nu, coupling


@dataclass
class SanovRun:
    """Scaled n-step values of n F(L_n) against the limiting supremum.
    A certified run's ``target`` is F - alpha at ``argmax`` and its
    ``upper_bound`` a dual value >= the supremum; a transport run's
    ``coupling_target`` is F(argmax) less the cost of an explicit coupling
    from mu to argmax."""

    label: str
    schedule: list[int]
    values: list[float]
    target: float
    gaps: list[float]
    argmax: list[float]
    upper_bound: Optional[float] = None
    coupling_target: Optional[float] = None

    @property
    def certified(self) -> bool:
        return self.upper_bound is not None

    def to_json_dict(self) -> dict:
        out = {
            "label": self.label,
            "schedule": self.schedule,
            "v_n": self.values,
            "target": self.target,
            "gaps": self.gaps,
            "argmax": self.argmax,
            "certified": self.certified,
        }
        if self.upper_bound is not None:
            out["upper_bound"] = self.upper_bound
        if self.coupling_target is not None:
            out["coupling_target"] = self.coupling_target
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

    The target comes from the certified 1-d dual (``_dual_target``) when F
    is concave, that is for every F but a well of positive scale, which
    takes an uncertified search over t (``_convex_target``).  A set
    indicator keeps the best point of the simplex grid of ``grid_step``
    (``simplex_supremum``), uncertified, and that is wrong wherever the
    sup is off the grid: the three set-indicator configs of ROADMAP item
    15 report 0.30, 0.61 and 0.74 for the sups 0.613, 0.613 and 0.7955.
    Its switch to the dual waits for an oracle of the benchmark (ROADMAP
    item 1).  A transport run is labelled "transport-longrun", any other
    "sanov".
    """
    values = [v / n for n, v in zip(schedule, backward_values_symmetric(
        lambda n: symmetric_terminal(F, n), schedule, F.labels, spec))]

    upper = coupling = None
    if isinstance(spec, SetIndicator):
        target, arg = simplex_supremum(lambda X: F(X) - penalty(X, spec),
                                       spec.size, grid_step)
    elif F.scale > 0.0:
        target, arg, coupling = _convex_target(F, spec)
    else:
        target, upper, arg, coupling = _dual_target(F, spec)
    gaps = [abs(v - target) for v in values]
    return SanovRun("transport-longrun" if isinstance(spec, Transport)
                    else "sanov", [int(n) for n in schedule],
                    [float(v) for v in values], float(target), gaps,
                    [float(x) for x in arg], upper_bound=upper,
                    coupling_target=coupling)


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


def superhedge(f, spec: AlphaSpec) -> SuperhedgeCert:
    """Decompose f as y + sum of adapted acceptable increments."""
    value, stages = backward_value_dense(f, spec, keep_trace=True)
    m = spec.size
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
# Transport: adapted-control form
# ---------------------------------------------------------------------------

def transport_control_value(f, mu: Dist, cost) -> float:
    """Value of the adapted-control problem: steer targets y_k at cost
    c(X_k, y_k) to maximize E[f(y_1, ..., y_n) - sum c(X_k, y_k)].

    Independent of the generic recursion: a direct post-decision backward
    pass, used to cross-check the Transport-spec recursion.
    """
    m = mu.size
    flat, n = _flatten_field(f, m)
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
