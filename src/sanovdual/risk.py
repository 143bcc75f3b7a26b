"""Risk measures dual to the penalty functionals.

For each penalty family there is a closed-form (or root-finding) evaluator
of  rho(f) = sup_nu (int f dnu - alpha(nu))  on a finite space, plus the
argmax law, a certified generic simplex maximizer, and a grid tool that
recovers the penalty back from the risk measure.

All evaluators accept extended-real inputs: -inf entries of f behave as
hard exclusions and +inf entries (on charged states) push the value to
+inf.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import extreal
from .extreal import INF, NEG_INF
from .losses import LossFn, PowerLoss
from .optim import (bisect_nonincreasing, coordinate_ascent_box,
                    grid_then_golden_min, pgd_max_simplex)
from .penalties import (AlphaSpec, LpEntropy, RelativeEntropy, Robust,
                        SetIndicator, Shortfall, Transport, feasible_support,
                        penalty, penalty_grad, penalty_rows, spec_space)
from .spaces import Dist

log = logging.getLogger("sanovdual")


@dataclass(frozen=True)
class RhoResult:
    """Value of a risk evaluation plus the attaining law when available."""

    value: float
    maximizer: Optional[Dist]
    method: str  # "closed_form" | "root_find" | "simplex_opt"


# ---------------------------------------------------------------------------
# Closed-form / root-finding evaluators
# ---------------------------------------------------------------------------

def entropic_risk(f, mu) -> float:
    """log int e^f dmu, computed with a max shift."""
    return float(entropic_risk_rows(np.atleast_2d(np.asarray(f, float)),
                                    _w(mu))[0])


def _w(mu) -> np.ndarray:
    return mu.weights if isinstance(mu, Dist) else np.asarray(mu, dtype=float)


def entropic_risk_rows(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    live = w > 0.0
    Fl = F[:, live]
    wl = w[live]
    out = np.empty(F.shape[0])
    pos = np.isposinf(Fl).any(axis=1)
    shift = np.max(np.where(np.isneginf(Fl), -np.inf, Fl), axis=1)
    dead = np.isneginf(shift)
    s0 = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = s0 + np.log(np.dot(np.exp(np.where(np.isneginf(Fl), -np.inf,
                                                 Fl) - s0[:, None]), wl))
    out[dead] = NEG_INF
    out[pos] = INF
    return out


def shortfall_risk(f, mu, loss: LossFn) -> float:
    """inf{m : int l(f - m) dmu <= 1} by bisection on the nonincreasing map."""
    return float(shortfall_risk_rows(np.atleast_2d(np.asarray(f, float)),
                                     _w(mu), loss)[0])


def shortfall_risk_rows(F: np.ndarray, w: np.ndarray,
                        loss: LossFn) -> np.ndarray:
    live = w > 0.0
    Fl = np.asarray(F, dtype=float)[:, live]
    wl = w[live]
    B = Fl.shape[0]
    out = np.full(B, np.nan)

    pos = np.isposinf(Fl).any(axis=1)
    fin = np.isfinite(Fl)
    const = (wl[None, :] * np.isneginf(Fl)).sum(axis=1) * loss.left_limit
    no_finite = ~fin.any(axis=1)
    out[pos] = INF
    out[no_finite & ~pos] = NEG_INF
    work = ~(pos | no_finite)
    if not work.any():
        return out

    Fw = Fl[work]
    finw = fin[work]
    cw = const[work]
    lo = np.where(finw, Fw, np.inf).min(axis=1) - 1.0
    hi = np.where(finw, Fw, -np.inf).max(axis=1) + 1.0

    def G(m):
        vals = np.where(finw, loss.value(np.where(finw, Fw, 0.0) - m[:, None]), 0.0)
        return vals @ wl + cw

    # Rows whose level never drops to 1 (possible for a bounded loss) are
    # +inf; rows that satisfy the level everywhere are unbounded below.
    out[work] = bisect_nonincreasing(G, 1.0, lo, hi)
    return out


def oce_risk(f, mu, phi_star: Callable[[np.ndarray], np.ndarray]) -> float:
    """Optimized-certainty-equivalent dual: inf_m (int phi*(f - m) dmu + m).

    Only the one-step (n = 1) evaluator exists; no tensorized form is
    exposed for this family.
    """
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


def robust_entropic_risk(f, generators: Sequence[Dist]) -> float:
    """max over generator laws of the entropic risk (hull max sits at a vertex)."""
    F = np.atleast_2d(np.asarray(f, dtype=float))
    vals = [entropic_risk_rows(F, g.weights)[0] for g in generators]
    return float(max(vals))


def transport_risk_rows(F: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    terms = F[:, None, :] - c[None, :, :]
    terms = np.where(np.isinf(c)[None, :, :] | np.isneginf(F)[:, None, :],
                     -np.inf, terms)
    relaxed = terms.max(axis=2)                    # (B, m_x)
    return extreal.integral_rows(w, relaxed)


def set_indicator_risk_rows(F: np.ndarray, generators: Sequence[Dist]) -> np.ndarray:
    vals = np.stack([extreal.integral_rows(g.weights, F) for g in generators])
    return vals.max(axis=0)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def risk(f, spec: AlphaSpec) -> float:
    """One-step risk of the given penalty specification."""
    return float(risk_rows(spec, np.atleast_2d(np.asarray(f, dtype=float)))[0])


def risk_rows(spec: AlphaSpec, F: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if isinstance(spec, RelativeEntropy):
        return entropic_risk_rows(F, spec.mu.weights)
    if isinstance(spec, LpEntropy):
        return shortfall_risk_rows(F, spec.mu.weights,
                                   PowerLoss(spec.loss_exponent))
    if isinstance(spec, Shortfall):
        return shortfall_risk_rows(F, spec.mu.weights, spec.loss)
    if isinstance(spec, Robust):
        vals = np.stack([entropic_risk_rows(F, g.weights)
                         for g in spec.generators])
        return vals.max(axis=0)
    if isinstance(spec, SetIndicator):
        return set_indicator_risk_rows(F, spec.generators)
    if isinstance(spec, Transport):
        return transport_risk_rows(F, spec.mu.weights, spec.cost)
    raise TypeError(f"unknown penalty spec {spec!r}")


def risk_maximizer(f, spec: AlphaSpec) -> Optional[Dist]:
    """The law attaining sup_nu (int f dnu - alpha(nu)), when finite."""
    fv = np.asarray(f, dtype=float)
    space = spec_space(spec)

    if isinstance(spec, (RelativeEntropy, Robust)):
        if isinstance(spec, RelativeEntropy):
            w = spec.mu.weights
        else:
            best = int(np.argmax([entropic_risk(fv, g) for g in spec.generators]))
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


def risk_result(f, spec: AlphaSpec) -> RhoResult:
    value = risk(f, spec)
    method = "root_find" if isinstance(spec, (LpEntropy, Shortfall)) \
        else "closed_form"
    maximizer = risk_maximizer(f, spec) if np.isfinite(value) else None
    return RhoResult(value, maximizer, method)


# ---------------------------------------------------------------------------
# Generic simplex maximizer
# ---------------------------------------------------------------------------

def generic_risk(f, spec: AlphaSpec, restarts: int = 200,
                 seed: int = 0) -> RhoResult:
    """Maximize int f dnu - alpha(nu) over the simplex by one batched
    projected gradient ascent, one row per start: the uniform law on the
    feasible states, the closed-form maximizer, then random restarts."""
    fv = np.asarray(f, dtype=float)
    space = spec_space(spec)

    if isinstance(spec, SetIndicator):
        vals = [extreal.integral(g.weights, fv) for g in spec.generators]
        best = int(np.argmax(vals))
        return RhoResult(float(vals[best]), spec.generators[best],
                         "simplex_opt")

    sub = feasible_support(spec) & ~np.isneginf(fv)
    if not sub.any():
        return RhoResult(NEG_INF, None, "simplex_opt")
    if np.isposinf(fv[sub]).any():
        return RhoResult(INF, None, "simplex_opt")
    f_sub = np.where(sub, fv, 0.0)

    def J(X):
        a = penalty_rows(spec, X)
        return np.where(np.isfinite(a), X @ f_sub - a, NEG_INF)

    def grad(X):
        return f_sub - penalty_grad(spec, X)

    d = int(sub.sum())
    rng = np.random.default_rng(seed)
    starts = [np.full(d, 1.0 / d)]
    smart = risk_maximizer(fv, spec)
    if smart is not None and not (smart.weights[~sub] > 1e-12).any():
        w0 = np.maximum(smart.weights[sub], 1e-9)
        starts.append(w0 / w0.sum())
    while len(starts) < max(restarts, 1):
        starts.append(rng.dirichlet(np.ones(d)))
    X0 = np.zeros((len(starts), fv.size))
    X0[:, sub] = starts

    # Closed-form certification at 1e-6 is the accuracy gate; the envelope
    # gradients carry ~1e-8 noise, so a tighter stop stalls.
    X, vals = pgd_max_simplex(J, X0, gradient=grad, max_iter=250,
                              grad_tol=3e-8, ftol=1e-12, support=sub)
    best = int(np.argmax(vals))
    maximizer = Dist(space, X[best]) if np.isfinite(vals[best]) else None
    return RhoResult(float(vals[best]), maximizer, "simplex_opt")


# ---------------------------------------------------------------------------
# Recovering the penalty from the risk measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugateEstimate:
    value: float      # lower approximation of the penalty via sup_f
    direct: float     # the penalty evaluated directly
    gap: float        # direct - value (>= 0 up to solver tolerance)


def penalty_from_risk(nu: Dist, spec: AlphaSpec, bound: float = 6.0,
                      coarse: int = 5, sweeps: int = 60) -> ConjugateEstimate:
    """Lower approximation of alpha(nu) = sup_f (int f dnu - rho(f)).

    Test utility, not a production inverse: maximizes over a coarse grid in
    the box [-bound, bound]^m and then runs cyclic coordinate ascent (the
    objective is concave in f).
    """
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
