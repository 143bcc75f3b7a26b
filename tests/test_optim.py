import math

import numpy as np

from sanovdual.optim import bisect_nonincreasing, golden_min


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
