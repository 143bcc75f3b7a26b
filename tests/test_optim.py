import logging
import math

import numpy as np
import pytest

from oracles import coordinate_ascent_box
from sanovdual import optim
from sanovdual.optim import (golden_min, legendre_max, legendre_max_nd,
                             newton_nonincreasing, pgd_max_simplex)


def test_batched_golden_rows_match_scalar_searches():
    centers = np.array([0.1, 0.5, 0.93])

    def fn(x):
        return (x - centers) ** 2

    xs, vals = golden_min(fn, np.zeros(3), np.ones(3))
    for c, x, v in zip(centers, xs, vals):
        xc, vc = golden_min(lambda t: (t - c) ** 2, 0.0, 1.0)
        assert x == xc and v == vc and abs(x - c) <= 1e-6


def test_bisection_marks_uncrossed_rows_infinite():
    # Row 0 crosses at m = 0.3; row 1 stays above the target everywhere;
    # row 2 stays below it everywhere.  No row has a slope to follow, so
    # only bisection steps can close row 0.
    def G(m):
        return np.array([max(0.3 - m[0], 0.0) + 0.5, 2.0, 0.0]), np.zeros(3)

    out = newton_nonincreasing(G, 0.5, np.zeros(3), np.ones(3), np.ones(3))
    assert abs(out[0] - 0.3) <= 1e-12
    assert out[1] == math.inf and out[2] == -math.inf


def _square_drop(m):
    """G(m) = ((1 - m)^+)^2 with its slope, for a float or per row; the
    level 1 is reached at 0."""
    b = np.maximum(1.0 - m, 0.0)
    return b * b, -2.0 * b


def test_newton_returns_certified_root():
    for lo, hi, step in ((-3.0, 3.0, 4.0), (2.0, 1.0, 1e-12),
                         (0.4, 0.5, 0.1), (-0.5, -0.2, 1.0)):
        m = newton_nonincreasing(_square_drop, 1.0, lo, hi, step)
        assert _square_drop(m)[0] <= 1.0 < _square_drop(m - 1e-12)[0]
    # G(m) = exp(-m) + 0.5 is convex and reaches 1 at log 2.
    m = newton_nonincreasing(lambda m: (math.exp(-m) + 0.5, -math.exp(-m)),
                             1.0, -2.0, 2.0, 4.0)
    assert abs(m - math.log(2.0)) <= 2e-12


def test_batched_newton_rows_match_scalar_searches():
    # Each row of one call ends exactly where a scalar search on that row
    # ends, whatever the other rows need: steep and flat rows, a row that
    # must step its lower end down and ones that must find their upper end
    # by expanding the bracket; rows where G is concave left of its root,
    # so that a Newton step overshoots it; a row below the target
    # everywhere (-inf) and one above it everywhere (+inf, after the
    # iteration cap).  Kind 0 is ((1 + c - m)^+)^2, kind 1 the same to the
    # 16th power, kind 2 1 - z / (1 + |z|) with z = m - c, kinds 3 and 4
    # the constants 0.5 and 2.  Products and quotients only, so that a row
    # and a float round alike.  The caller's arrays stay as they were.
    roots = np.array([0.3, -7.5, 1e3, 0.25, 40.0, 0.3, -2.5, 5.0, 0.0,
                      0.0, 1e4, 3.0])
    kind = np.array([0, 1, 0, 1, 1, 2, 2, 2, 3, 4, 1, 0])

    @np.errstate(over="ignore")     # far left of the root, b^16 = inf
    def G(m, c=roots, k=kind):
        b = np.maximum(1.0 + c - m, 0.0)
        b2 = b * b
        b4 = b2 * b2
        b15 = b4 * b4 * b4 * b2 * b
        z = m - c
        a = 1.0 + np.abs(z)
        return (np.select([k == 0, k == 1, k == 2, k == 3],
                          [b2, b15 * b, 1.0 - z / a, 0.5], 2.0),
                np.select([k == 0, k == 1, k == 2],
                          [-2.0 * b, -16.0 * b15, -1.0 / (a * a)], 0.0))

    n = roots.size
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    step = hi - lo
    args = [a.copy() for a in (lo, hi, step)]
    got = newton_nonincreasing(G, 1.0, *args)
    for a, b in zip(args, (lo, hi, step)):
        assert np.array_equal(a, b)
    for i in range(n):
        def row(m, i=i):
            v, s = G(np.array([m]), roots[i:i + 1], kind[i:i + 1])
            return float(v[0]), float(s[0])

        m = newton_nonincreasing(row, 1.0, lo[i], hi[i], step[i])
        assert got[i] == m
        if kind[i] == 3:
            assert m == -math.inf
        elif kind[i] == 4:
            assert m == math.inf
        else:
            assert abs(m - roots[i]) <= 1e-12 * (1.0 + abs(m))


@pytest.mark.parametrize("q", [20.0, 50.0])
def test_slow_newton_falls_back_to_bisection(q):
    # Far left of the root of ((1 - m)^+)^q = 1, Newton gains only a factor
    # 1 - 1/q per step; the safeguard must keep bisection's pace.
    calls = []

    def G(m):
        calls.append(m)
        b = max(1.0 - m, 0.0)
        return b ** q, -q * b ** (q - 1.0)

    m = newton_nonincreasing(G, 1.0, -202.0, 202.0, 404.0)
    assert G(m)[0] <= 1.0 < G(m - 1e-12)[0]
    assert abs(m) <= 1e-12
    bisection_steps = math.ceil(math.log2(404.0 / 1e-12))
    assert len(calls) <= 2 * bisection_steps


@pytest.mark.parametrize("shape", ["tanh", "cubic"])
def test_newton_on_monotone_nonconvex_rows(shape):
    # G = -tanh(4 (m - c)) or -(m - c)^3 - (m - c)/100 is decreasing but
    # concave right of its root c, so a Newton step from the left can
    # overshoot.  Each row must still end at c inside a certified bracket.
    roots = np.array([0.3, -2.5, 7.0, 0.999, 0.0])

    def G(m):
        z = m - roots
        if shape == "tanh":
            t = np.tanh(4.0 * z)
            return -t, -4.0 * (1.0 - t * t)
        return -z ** 3 - 0.01 * z, -3.0 * z * z - 0.01

    lo = np.zeros(5)
    got = newton_nonincreasing(G, 0.0, lo, lo + 1.0, lo + 1.0)
    tol = 1e-12 * (1.0 + np.abs(got))
    assert (G(got)[0] <= 0.0).all() and (G(got - tol)[0] > 0.0).all()
    assert (np.abs(got - roots) <= tol).all()


def test_newton_marks_uncrossed_levels_infinite():
    # Row 0 crosses at m = 0.3; row 1 stays above the target everywhere;
    # row 2 stays below it everywhere.
    def G(m):
        return (np.array([max(0.3 - m[0], 0.0) + 0.5, 2.0, 0.0]),
                np.array([-1.0 if m[0] < 0.3 else 0.0, 0.0, 0.0]))

    out = newton_nonincreasing(G, 0.5, np.zeros(3), np.ones(3), np.ones(3))
    assert abs(out[0] - 0.3) <= 1e-12
    assert out[1] == math.inf and out[2] == -math.inf
    assert newton_nonincreasing(lambda m: (0.0, 0.0), 1.0, 0.0, 1.0,
                                1.0) == -math.inf
    assert newton_nonincreasing(lambda m: (2.0, 0.0), 1.0, 0.0, 1.0,
                                1.0) == math.inf


def _bowl(X):
    """-|x - c|^2 per row, -inf where the first entry passes 0.9, and its
    gradient."""
    c = np.linspace(0.4, 0.05, X.shape[-1])
    vals = -((X - c) ** 2).reshape(len(X), -1).sum(axis=1)
    return (np.where(X.reshape(len(X), -1)[:, 0] > 0.9, -math.inf, vals),
            -2.0 * (X - c))


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_batched_ascent_rows_match_one_row_calls(shape):
    # A row-independent objective: each row of one call must end exactly
    # where a call on that row alone ends, including a row that starts at
    # -inf and a masked entry.
    rng = np.random.default_rng(3)
    X0 = rng.dirichlet(np.ones(4), size=(5,) + shape[:-1])
    X0[1].reshape(-1, 4)[0] = [0.95, 0.05, 0.0, 0.0]     # starts at -inf
    support = np.ones(shape, dtype=bool)
    support[..., 3] = False
    X, vals = pgd_max_simplex(_bowl, X0, support=support)
    assert vals[1] == -math.inf and np.isfinite(np.delete(vals, 1)).all()
    assert (X[..., 3] == 0.0).all()
    for b in range(len(X0)):
        x, v = pgd_max_simplex(_bowl, X0[b:b + 1], support=support)
        assert np.array_equal(x[0], X[b]) and v[0] == vals[b]
    if len(shape) == 1:     # a single point is a row too
        x, v = pgd_max_simplex(_bowl, X0[0], support=support)
        assert np.array_equal(x, X[0]) and v == vals[0]


def test_ascent_stops_once_its_best_row_reaches_the_target(caplog):
    # A finite target ends the whole ascent after the first iteration whose
    # best row reaches it, with no cap warning even at the cap; a start
    # that reaches it is returned with one evaluator call.  A target of
    # +-inf or NaN runs the ascent as if it had none, bit for bit.
    X0 = np.random.default_rng(4).dirichlet(np.ones(4), size=3)
    calls = []

    def counted(X):
        calls.append(len(X))
        return _bowl(X)
    X, vals = pgd_max_simplex(_bowl, X0)
    for target in (math.inf, -math.inf, math.nan):
        Y, got = pgd_max_simplex(_bowl, X0, target=target)
        assert np.array_equal(Y, X) and np.array_equal(got, vals)
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        _, first = pgd_max_simplex(_bowl, X0, max_iter=1)
        assert caplog.records
        caplog.clear()
        _, got = pgd_max_simplex(_bowl, X0, max_iter=1, target=first.max())
        assert np.array_equal(got, first) and not caplog.records
        pgd_max_simplex(counted, X0, target=first.max())
        n_target = len(calls)
        calls.clear()
        pgd_max_simplex(counted, X0)
        assert n_target < len(calls)
        calls.clear()
        pgd_max_simplex(counted, X0, target=_bowl(X0)[0].max() - 1e-12)
        assert calls == [3]
    assert not caplog.records


@pytest.mark.parametrize("solver", ["golden", "newton", "newton_rows",
                                    "pgd", "legendre", "legendre_plane"])
def test_exhausted_iteration_cap_warns(caplog, monkeypatch, solver):
    monkeypatch.setattr(optim, "STEP_CAP", 3 if solver == "golden" else 2)
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        if solver == "golden":
            golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        elif solver == "newton":
            newton_nonincreasing(_square_drop, 1.0, -3.0, 3.0, 4.0)
        elif solver == "newton_rows":
            newton_nonincreasing(_square_drop, 1.0, np.array([-3.0, 0.4]),
                                 np.array([3.0, 0.5]), np.array([4.0, 0.1]))
        elif solver == "pgd":
            pgd_max_simplex(_bowl, np.full((2, 4), 0.25), max_iter=1)
        elif solver == "legendre":
            legendre_max(_exp3, 5.0)
        else:
            legendre_max_nd(_log_sum_exp, np.array([0.2, 0.3]))
    name = {"golden": "golden_min", "newton": "newton_nonincreasing",
            "newton_rows": "newton_nonincreasing",
            "pgd": "pgd_max_simplex", "legendre": "legendre_max",
            "legendre_plane": "legendre_max_nd"}[solver]
    assert any(r.message.startswith(f"{name}: ") and "last bracket" in
               r.message for r in caplog.records)


def test_converged_searches_stay_quiet(caplog):
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        newton_nonincreasing(_square_drop, 1.0, -3.0, 3.0, 4.0)
        newton_nonincreasing(_square_drop, 1.0, np.array([-3.0, 0.4]),
                             np.array([3.0, 0.5]), np.array([4.0, 0.1]))
        pgd_max_simplex(_bowl, np.full((2, 4), 0.25))
        legendre_max(_exp3, 5.0)
        legendre_max_nd(_log_sum_exp, np.array([0.2, 0.3]))
    assert not caplog.records


def _exp3(t):
    """exp with its two derivatives: convex, conjugate x log x - x."""
    e = math.exp(t)
    return e, e, e


@pytest.mark.parametrize("x", [1e-6, 0.3, 1.0, 5.0, 1e6])
def test_legendre_of_exp(x):
    # Newton from t = 0 toward log(1e6) = 13.8 would step 1e6: the steps
    # are capped at 1, 2, 4, ... until the maximizer is bracketed.
    t, v, status, bound = legendre_max(_exp3, x)
    want = x * math.log(x) - x
    assert status == "ok"
    assert want - 1e-12 * (1.0 + abs(want)) <= v <= want + 1e-15 * abs(want)
    assert v <= bound <= v + 1e-12 * (1.0 + abs(v))
    assert abs(t - math.log(x)) <= 1e-3


@pytest.mark.parametrize("x", [-1.0, -1e-3])
def test_legendre_beyond_the_slopes_diverges(x):
    # exp' > 0 everywhere: no maximizer for x < 0, so the search runs to
    # -radius in doubling steps and reports the best value it saw there.
    calls = []

    def fn(t):
        calls.append(t)
        return _exp3(t)
    t, v, status, bound = legendre_max(fn, x)
    assert status == "diverged" and t == -1e3 and bound == math.inf
    assert len(calls) <= 2 * math.log2(1e3) + 2


def test_legendre_quadratic_stops_on_the_exact_root():
    calls = []

    def fn(t):
        calls.append(t)
        return 0.5 * t * t, t, 1.0
    t, v, status, _ = legendre_max(fn, 0.7)
    assert (t, status) == (0.7, "ok") and v == 0.7 * 0.7 - 0.5 * 0.7 * 0.7
    assert len(calls) == 2


def test_legendre_kinked_function_certifies_by_bisection():
    # log(1 + e^(20 t)) / 20, nearly |t|^+ with a sharp turn: the curvature
    # misleads Newton far from the turn, so bisection must close the gap.
    def fn(t):
        z = 20.0 * t
        p = 0.5 * (1.0 + math.tanh(0.5 * z))
        return np.logaddexp(0.0, z) / 20.0, p, 20.0 * p * (1.0 - p)
    for x in (0.001, 0.25, 0.999):
        t, v, status, _ = legendre_max(fn, x)
        want = (x * math.log(x) + (1 - x) * math.log1p(-x)) / 20.0
        assert status == "ok" and abs(v - want) <= 1e-12 * (1 + abs(want))


def test_legendre_non_finite_evaluation_raises():
    with pytest.raises(FloatingPointError, match="legendre_max"):
        legendre_max(lambda t: (0.0, math.nan, 0.0), 0.5)


def _log_sum_exp(t):
    """log(1 + e^t_1 + e^t_2) with its gradient and Hessian: convex, and
    its conjugate at x is the negative entropy of (1 - x_1 - x_2, x_1, x_2)
    inside the simplex, +inf outside it."""
    z = np.concatenate(([0.0], t))
    e = np.exp(z - z.max())
    p = e[1:] / e.sum()
    return z.max() + math.log(e.sum()), p, np.diag(p) - np.outer(p, p)


@pytest.mark.parametrize("x", [(0.2, 0.3), (0.05, 0.9), (1e-4, 0.5)])
def test_legendre_in_the_plane(x):
    x = np.array(x)
    t, v, status, bound = legendre_max_nd(_log_sum_exp, x)
    p = np.array([1.0 - x.sum(), *x])
    want = float(p @ np.log(p))
    tol = 1e-12 * (1.0 + abs(want))
    assert status == "ok" and abs(v - want) <= tol
    assert v <= bound <= v + tol
    assert np.abs(t - np.log(x / p[0])).max() <= 1e-5


@pytest.mark.parametrize("x", [(0.7, 0.6), (-0.1, 0.5)])
def test_legendre_outside_the_plane_domain_diverges(x):
    # The gradient of log-sum-exp never leaves the open simplex, so the
    # search runs to the radius in doubling steps.
    calls = []

    def fn(t):
        calls.append(t)
        return _log_sum_exp(t)
    t, v, status, bound = legendre_max_nd(fn, np.array(x))
    assert status == "diverged" and bound == math.inf
    assert np.linalg.norm(t) <= 1e3 * (1.0 + 1e-15)
    assert len(calls) <= 2 * math.log2(1e3) + 10


def _scaled_log_sum_exp(t, s=100.0):
    """s log(1 + e^(t_1 / s) + e^(t_2 / s)): its conjugate is s times the
    negative entropy, and its maximizers lie s times further out."""
    f, grad, hess = _log_sum_exp(t / s)
    return s * f, grad, hess / s


def test_legendre_plane_maximizer_near_the_radius_is_found():
    # The maximizer s (log(x / p_0)) lies at |t| = 621, inside the radius,
    # and the search reaches the sphere on its way there.
    x = np.array([0.001, 0.5])
    t, v, status, bound = legendre_max_nd(_scaled_log_sum_exp, x)
    p = np.array([1.0 - x.sum(), *x])
    want = 100.0 * float(p @ np.log(p))
    tol = 1e-12 * (1.0 + abs(want))
    assert status == "ok" and abs(v - want) <= 1e-10 * (1.0 + abs(want))
    assert v <= bound <= v + tol
    assert abs(np.linalg.norm(t) - 621.3) <= 0.1


def _softplus_of_sum(t):
    """log(1 + e^(t_1 + t_2)): its Hessian is singular at every t, and its
    conjugate is finite only on the segment x_1 = x_2 in [0, 1]."""
    z = float(t.sum())
    p = 0.5 * (1.0 + math.tanh(0.5 * z))
    return np.logaddexp(0.0, z), np.full(2, p), np.full((2, 2), p * (1 - p))


@pytest.mark.parametrize("a", [0.5, 0.3, 0.9])
def test_legendre_singular_hessian_on_its_range(a):
    t, v, status, bound = legendre_max_nd(_softplus_of_sum, np.array([a, a]))
    want = a * math.log(a) + (1.0 - a) * math.log1p(-a)
    tol = 1e-12 * (1.0 + abs(want))
    assert status == "ok" and abs(v - want) <= tol
    assert v <= bound <= v + tol


def test_legendre_singular_hessian_off_its_range_diverges():
    calls = []

    def fn(t):
        calls.append(t)
        return _softplus_of_sum(t)
    t, v, status, bound = legendre_max_nd(fn, np.array([0.3, 0.4]))
    assert status == "diverged" and bound == math.inf
    assert len(calls) <= 2 * math.log2(1e3) + 10


def test_oracle_coordinate_ascent_warns_at_its_sweep_cap(caplog):
    # Along a narrow diagonal ridge each coordinate sweep gains little.
    def ridge(y):
        return -100.0 * (y[0] - y[1]) ** 2 - (y[0] + y[1] - 1.0) ** 2
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        coordinate_ascent_box(ridge, np.zeros(2), -2.0, 2.0, sweeps=2)
    assert any(r.message.startswith("coordinate_ascent_box: 2 sweeps")
               for r in caplog.records)
