import logging
import math

import numpy as np
import pytest

from sanovdual.optim import golden_min, newton_nonincreasing, pgd_max_simplex


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
    # must step its lower end down and one that must find its upper end.
    # G = ((1 + c - m)^+)^2 or ^16, by products only, so that a row and a
    # float round alike.
    roots = np.array([0.3, -7.5, 1e3, 0.25, 40.0])
    slow = np.array([0.0, 1.0, 0.0, 1.0, 1.0])

    def G(m, c=roots, s=slow):
        b = np.maximum(1.0 + c - m, 0.0)
        b2 = b * b
        b4 = b2 * b2
        b15 = b4 * b4 * b4 * b2 * b
        return ((1.0 - s) * b2 + s * (b15 * b),
                -((1.0 - s) * 2.0 * b + s * 16.0 * b15))

    lo, hi = np.full(5, -1.0), np.full(5, 1.0)
    got = newton_nonincreasing(G, 1.0, lo, hi, hi - lo)
    for i in range(5):
        m = newton_nonincreasing(lambda m: G(m, roots[i], slow[i]), 1.0,
                                 lo[i], hi[i], hi[i] - lo[i])
        assert got[i] == m and abs(m - roots[i]) <= 1e-12 * (1.0 + abs(m))


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
    """-|x - c|^2 per row, -inf where the first entry passes 0.9."""
    c = np.linspace(0.4, 0.05, X.shape[-1])
    vals = -((X - c) ** 2).reshape(len(X), -1).sum(axis=1)
    return np.where(X.reshape(len(X), -1)[:, 0] > 0.9, -math.inf, vals)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
@pytest.mark.parametrize("exact", [False, True])
def test_batched_ascent_rows_match_one_row_calls(shape, exact):
    # A row-independent objective: each row of one call must end exactly
    # where a call on that row alone ends, including a row that starts at
    # -inf and a masked entry.
    rng = np.random.default_rng(3)
    X0 = rng.dirichlet(np.ones(4), size=(5,) + shape[:-1])
    X0[1].reshape(-1, 4)[0] = [0.95, 0.05, 0.0, 0.0]     # starts at -inf
    support = np.ones(shape, dtype=bool)
    support[..., 3] = False
    gradient = (lambda X: -2.0 * (X - np.linspace(0.4, 0.05, 4))) \
        if exact else None
    X, vals = pgd_max_simplex(_bowl, X0, gradient=gradient, support=support)
    assert vals[1] == -math.inf and np.isfinite(np.delete(vals, 1)).all()
    assert (X[..., 3] == 0.0).all()
    for b in range(len(X0)):
        x, v = pgd_max_simplex(_bowl, X0[b:b + 1], gradient=gradient,
                               support=support)
        assert np.array_equal(x[0], X[b]) and v[0] == vals[b]
    if len(shape) == 1:     # a single point is a row too
        x, v = pgd_max_simplex(_bowl, X0[0], gradient=gradient,
                               support=support)
        assert np.array_equal(x, X[0]) and v == vals[0]


@pytest.mark.parametrize("solver", ["golden", "newton", "newton_rows",
                                    "pgd"])
def test_exhausted_iteration_cap_warns(caplog, solver):
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        if solver == "golden":
            golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, max_iter=3)
        elif solver == "newton":
            newton_nonincreasing(_square_drop, 1.0, -3.0, 3.0, 4.0,
                                 max_iter=2)
        elif solver == "newton_rows":
            newton_nonincreasing(_square_drop, 1.0, np.array([-3.0, 0.4]),
                                 np.array([3.0, 0.5]), np.array([4.0, 0.1]),
                                 max_iter=2)
        else:
            pgd_max_simplex(_bowl, np.full((2, 4), 0.25), max_iter=1)
    name = {"golden": "golden_min", "newton": "newton_nonincreasing",
            "newton_rows": "newton_nonincreasing",
            "pgd": "pgd_max_simplex"}[solver]
    assert any(r.message.startswith(f"{name}: ") and "last bracket" in
               r.message for r in caplog.records)


def test_converged_searches_stay_quiet(caplog):
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        newton_nonincreasing(_square_drop, 1.0, -3.0, 3.0, 4.0)
        newton_nonincreasing(_square_drop, 1.0, np.array([-3.0, 0.4]),
                             np.array([3.0, 0.5]), np.array([4.0, 0.1]))
        pgd_max_simplex(_bowl, np.full((2, 4), 0.25))
    assert not caplog.records
