"""Risk measures dual to the penalty functionals.

Each penalty family in ``penalties`` owns its closed-form (or
root-finding) risk rho(f) = sup_nu (int f dnu - alpha(nu)) and the law
attaining it, rows in, rows out.  This module is their entry point
(``risk_rows``, ``risk_result``) and adds a generic simplex maximizer of
the same supremum (``generic_risk``).

Every result is bracketed.  By the Fenchel-Young inequality each law nu
gives the lower bound int f dnu - alpha(nu), and the closed form is the
upper bound.  A closed-form result takes its lower bound from one
``penalty`` row at its maximizer; a generic result is the best point of
its ascent, which stops once it is within ``GAP_TOL`` (1 + |rho|) of the
closed form.

All evaluators accept extended-real inputs: -inf entries of f behave as
hard exclusions and +inf entries (on charged states) push the value to
+inf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import extreal
from .extreal import INF, NEG_INF
from .optim import pgd_max_simplex
from .penalties import AlphaSpec, penalty
from .spaces import Dist

GAP_TOL = 1e-9      # largest dual gap of a certified value, per 1 + |value|
RESTARTS = 200      # starts of a generic run that does not set its own
ROW_BLOCK = 2 ** 13     # rows per block of a risk_rows call


@dataclass(frozen=True)
class RhoResult:
    """Value of a risk evaluation, the attaining law when available, and
    the bounds lower_bound <= rho <= upper_bound that bracket it (both the
    value where it is infinite)."""

    value: float
    maximizer: Optional[Dist]
    method: str  # "closed_form" | "root_find" | "simplex_opt"
    lower_bound: float
    upper_bound: float


def risk_rows(spec: AlphaSpec, F: np.ndarray, near=None) -> np.ndarray:
    """rho of each row of a (B, m) batch (or of one field, as one row).
    ``near``, a level where the values are expected, is where the
    root-finding families start their brackets; the others ignore it.

    The batch is evaluated in consecutive blocks of ``ROW_BLOCK`` rows, so
    the temporaries of a family's kernel stay cache-sized however wide the
    batch; every family treats each row on its own, so the values are
    those of one call on the whole batch, bit for bit."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    out = np.empty(len(F))
    for lo in range(0, len(F), ROW_BLOCK):
        out[lo:lo + ROW_BLOCK] = spec.risk_rows(F[lo:lo + ROW_BLOCK], near)
    return out


def risk_result(f, spec: AlphaSpec) -> RhoResult:
    """The closed form, the upper bound, with its maximizer nu* and the
    lower bound <f, nu*> - alpha(nu*), -inf when no law attains it."""
    F = np.atleast_2d(np.asarray(f, dtype=float))
    value = float(risk_rows(spec, F)[0])
    if not np.isfinite(value):
        return RhoResult(value, None, spec.method, value, value)
    nu = spec.law(spec.maximizer_rows(F)[0])
    lower = NEG_INF if nu is None else \
        float(extreal.integral_rows(nu.weights, F)[0]) - penalty(nu, spec)
    return RhoResult(value, nu, spec.method, lower, value)


# ---------------------------------------------------------------------------
# Generic simplex maximizer
# ---------------------------------------------------------------------------

def generic_risk(f, spec: AlphaSpec, restarts: int = RESTARTS,
                 seed: int = 0) -> RhoResult:
    """Maximize int f dnu - alpha(nu) over the simplex by one batched
    projected gradient ascent, one row per start: the uniform law on the
    feasible states, the closed-form maximizer, then random restarts.  Its
    evaluator maps rows X to (<f, X> - alpha, f - grad alpha) from one
    ``penalty_rows`` pass, -inf where alpha is +inf.

    The value is the ascent's best point, a lower bound; the closed form
    ``risk_rows`` is the upper bound, and the ascent stops once its best
    row is within ``GAP_TOL`` (1 + |upper|) of it."""
    fv = np.asarray(f, dtype=float)

    if not spec.has_gradient:     # a set indicator: rho at a generator
        return replace(risk_result(fv, spec), method="simplex_opt")

    sub = spec.support & ~np.isneginf(fv)
    if not sub.any():
        return RhoResult(NEG_INF, None, "simplex_opt", NEG_INF, NEG_INF)
    if np.isposinf(fv[sub]).any():
        return RhoResult(INF, None, "simplex_opt", INF, INF)
    f_sub = np.where(sub, fv, 0.0)
    upper = float(risk_rows(spec, fv)[0])

    d = int(sub.sum())
    rng = np.random.default_rng(seed)
    starts = [np.full(d, 1.0 / d)]
    smart = spec.law(spec.maximizer_rows(fv[None])[0])
    if smart is not None and not (smart.weights[~sub] > 1e-12).any():
        w0 = np.maximum(smart.weights[sub], 1e-9)
        starts.append(w0 / w0.sum())
    while len(starts) < max(restarts, 1):
        starts.append(rng.dirichlet(np.ones(d)))
    X0 = np.zeros((len(starts), fv.size))
    X0[:, sub] = starts

    def J(X):
        a, grad = spec.penalty_rows(X)
        vals = extreal.weighted_row_sums(X, f_sub) - a
        return np.where(np.isfinite(a), vals, NEG_INF), f_sub - grad

    X, vals = pgd_max_simplex(J, X0, max_iter=250, ftol=1e-12, support=sub,
                              target=upper - GAP_TOL * (1.0 + abs(upper)))
    best = int(np.argmax(vals))
    value = float(vals[best])
    maximizer = Dist(X[best]) if np.isfinite(value) else None
    return RhoResult(value, maximizer, "simplex_opt", value, upper)
