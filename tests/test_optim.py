import logging
import math

import numpy as np
import pytest

from sanovdual.optim import (bisect_nonincreasing, golden_min,
                             newton_nonincreasing)


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
    # row 2 stays below it everywhere.
    def G(m):
        return np.array([max(0.3 - m[0], 0.0) + 0.5, 2.0, 0.0])

    out = bisect_nonincreasing(G, 0.5, np.zeros(3), np.ones(3))
    assert abs(out[0] - 0.3) <= 1e-9
    assert out[1] == math.inf and out[2] == -math.inf


def _square_drop(m):
    """G(m) = ((1 - m)^+)^2 with its slope; the level 1 is reached at 0."""
    b = max(1.0 - m, 0.0)
    return b * b, -2.0 * b, m


def test_newton_returns_certified_root():
    for lo, hi, step in ((-3.0, 3.0, 4.0), (2.0, 1.0, 1e-12),
                         (0.4, 0.5, 0.1), (-0.5, -0.2, 1.0)):
        m, extra = newton_nonincreasing(_square_drop, 1.0, lo, hi, step)
        assert extra == m
        assert _square_drop(m)[0] <= 1.0 < _square_drop(m - 1e-12)[0]
    # G(m) = exp(-m) + 0.5 is convex and reaches 1 at log 2.
    m, _ = newton_nonincreasing(
        lambda m: (math.exp(-m) + 0.5, -math.exp(-m), None), 1.0, -2.0, 2.0,
        4.0)
    assert abs(m - math.log(2.0)) <= 2e-12


@pytest.mark.parametrize("q", [20.0, 50.0])
def test_slow_newton_falls_back_to_bisection(q):
    # Far left of the root of ((1 - m)^+)^q = 1, Newton gains only a factor
    # 1 - 1/q per step; the safeguard must keep bisection's pace.
    calls = []

    def G(m):
        calls.append(m)
        b = max(1.0 - m, 0.0)
        return b ** q, -q * b ** (q - 1.0), None

    m, _ = newton_nonincreasing(G, 1.0, -202.0, 202.0, 404.0)
    assert G(m)[0] <= 1.0 < G(m - 1e-12)[0]
    assert abs(m) <= 1e-12
    bisection_steps = math.ceil(math.log2(404.0 / 1e-12))
    assert len(calls) <= 2 * bisection_steps


def test_newton_marks_uncrossed_levels_infinite():
    m, extra = newton_nonincreasing(lambda m: (0.0, 0.0, None), 1.0, 0.0,
                                    1.0, 1.0)
    assert m == -math.inf and extra is None
    m, extra = newton_nonincreasing(lambda m: (2.0, 0.0, None), 1.0, 0.0,
                                    1.0, 1.0)
    assert m == math.inf and extra is None
    assert m == math.inf


@pytest.mark.parametrize("solver", ["bisect", "golden", "newton"])
def test_exhausted_iteration_cap_warns(caplog, solver):
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        if solver == "bisect":
            bisect_nonincreasing(lambda m: 0.3 - m, 0.0, np.zeros(2),
                                 np.ones(2), max_iter=3)
        elif solver == "golden":
            golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, max_iter=3)
        else:
            newton_nonincreasing(_square_drop, 1.0, -3.0, 3.0, 4.0,
                                 max_iter=2)
    name = {"bisect": "bisect_nonincreasing", "golden": "golden_min",
            "newton": "newton_nonincreasing"}[solver]
    assert any(r.message.startswith(f"{name}: ") and "last bracket" in
               r.message for r in caplog.records)


def test_converged_searches_stay_quiet(caplog):
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        bisect_nonincreasing(lambda m: 0.3 - m, 0.0, np.zeros(2), np.ones(2))
        golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        newton_nonincreasing(_square_drop, 1.0, -3.0, 3.0, 4.0)
    assert not caplog.records
