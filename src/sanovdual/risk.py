"""Risk measures dual to the penalty functionals.

For each penalty family there is a closed-form (or root-finding) evaluator
of  rho(f) = sup_nu (int f dnu - alpha(nu))  on a finite space and the law
attaining it, both rows in, rows out, plus a certified generic simplex
maximizer.  The shortfall and L^p risks are the smallest m with
int l(f - m) dmu <= 1 (Foellmer & Schied, Stochastic Finance, 4.9), found
per row by ``optim.newton_nonincreasing``; a row's value does not depend on
the other rows of its batch.

All evaluators accept extended-real inputs: -inf entries of f behave as
hard exclusions and +inf entries (on charged states) push the value to
+inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import extreal
from .extreal import INF, NEG_INF
from .losses import LossFn, PowerLoss
from .optim import newton_nonincreasing, pgd_max_simplex
from .penalties import (AlphaSpec, LpEntropy, RelativeEntropy, Robust,
                        SetIndicator, Shortfall, Transport, feasible_support,
                        penalty_grad, penalty_rows, spec_space)
from .spaces import Dist


@dataclass(frozen=True)
class RhoResult:
    """Value of a risk evaluation plus the attaining law when available."""

    value: float
    maximizer: Optional[Dist]
    method: str  # "closed_form" | "root_find" | "simplex_opt"


# ---------------------------------------------------------------------------
# Closed-form / root-finding evaluators
# ---------------------------------------------------------------------------

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

    Fz = np.where(finw, Fw, 0.0)

    def G(m):
        Z = Fz - m[:, None]
        vals = np.where(finw, loss.value(Z), 0.0)
        slopes = np.where(finw, loss.prime(Z), 0.0)
        # Column by column: a matrix product may round a row differently
        # in batches of different sizes.
        value, slope = cw, 0.0
        for j, wj in enumerate(wl):
            value = value + wj * vals[:, j]
            slope = slope - wj * slopes[:, j]
        return value, slope

    # hi is an upper end, since every loss has l(-1) < 1 and left_limit < 1.
    out[work] = newton_nonincreasing(G, 1.0, lo, hi, hi - lo)
    return out


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


def maximizer_rows(spec: AlphaSpec, F: np.ndarray) -> np.ndarray:
    """The law attaining sup_nu (int f dnu - alpha(nu)) for each row f of a
    (B, m) batch, as (B, m) rows; a row is NaN where no law attains a
    finite value.  A set indicator's row is its best generator."""
    F = np.atleast_2d(np.asarray(F, dtype=float))

    if isinstance(spec, (RelativeEntropy, Robust)):
        if isinstance(spec, RelativeEntropy):
            W = spec.mu.weights[None, :]
        else:
            G = np.stack([g.weights for g in spec.generators])
            W = G[np.argmax([entropic_risk_rows(F, g) for g in G], axis=0)]
        logits = np.where((W > 0) & ~np.isneginf(F),
                          np.log(np.maximum(W, 1e-300)) + F, -np.inf)
        fin = np.isfinite(logits)
        top = np.where(fin, logits, -np.inf).max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):     # 0/0 on rows without a law
            out = np.exp(np.where(fin, logits - top, -np.inf))
            return out / out.sum(axis=1, keepdims=True)

    if isinstance(spec, (LpEntropy, Shortfall)):
        loss = spec.loss if isinstance(spec, Shortfall) else \
            PowerLoss(spec.loss_exponent)
        w = spec.mu.weights
        m_star = shortfall_risk_rows(F, w, loss)
        neg = np.isneginf(F)
        with np.errstate(invalid="ignore", divide="ignore"):
            tilt = np.where((w > 0) & ~neg, np.asarray(loss.prime(
                np.where(neg, 0.0, F) - m_star[:, None])), 0.0)
            out = w * tilt
            total = out.sum(axis=1)
            out = out / total[:, None]
        out[~np.isfinite(m_star) | ~(total > 0)] = np.nan
        return out

    if isinstance(spec, SetIndicator):
        G = np.stack([g.weights for g in spec.generators])
        vals = [extreal.integral_rows(g, F) for g in G]
        return G[np.argmax(vals, axis=0)]

    if isinstance(spec, Transport):
        c, w = spec.cost, spec.mu.weights
        terms = np.where(np.isinf(c)[None, :, :] | np.isneginf(F)[:, None, :],
                         -np.inf, F[:, None, :] - c[None, :, :])
        best = terms.argmax(axis=2)                     # (B, m_x)
        out = np.zeros(F.shape)
        rows = np.arange(len(F))
        for x in np.flatnonzero(w > 0):
            out[rows, best[:, x]] += w[x]
        out[~np.isfinite(terms[:, w > 0]).any(axis=2).all(axis=1)] = np.nan
        return out

    raise TypeError(f"unknown penalty spec {spec!r}")


def _law(spec: AlphaSpec, row: np.ndarray) -> Optional[Dist]:
    """A maximizer row as a law, None for a NaN row; a set indicator's row
    is its generator, returned as it is."""
    if np.isnan(row).any():
        return None
    if isinstance(spec, SetIndicator):
        return next(g for g in spec.generators
                    if np.array_equal(g.weights, row))
    return Dist(spec_space(spec), row)


def risk_result(f, spec: AlphaSpec) -> RhoResult:
    F = np.atleast_2d(np.asarray(f, dtype=float))
    value = float(risk_rows(spec, F)[0])
    method = "root_find" if isinstance(spec, (LpEntropy, Shortfall)) \
        else "closed_form"
    maximizer = _law(spec, maximizer_rows(spec, F)[0]) \
        if np.isfinite(value) else None
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
        row = maximizer_rows(spec, fv[None])[0]
        return RhoResult(extreal.integral(row, fv), _law(spec, row),
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
    smart = _law(spec, maximizer_rows(spec, fv[None])[0])
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
