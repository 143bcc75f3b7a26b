import math

import numpy as np
import pytest

from oracles import tabulated_from_callable, validate_loss
from sanovdual.losses import ExpLoss, LossError, PowerLoss, TabulatedLoss


def conjugate_oracle(loss, y, lo=-60.0, hi=60.0, points=200001):
    """Dense-grid sup_x (x y - l(x)); independent of the analytic formulas."""
    xs = np.linspace(lo, hi, points)
    return float(np.max(xs * y - loss.value(xs)))


class TestExpLoss:
    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.7, 10.0])
    def test_conjugate_matches_grid(self, y):
        loss = ExpLoss()
        assert abs(loss.conjugate(y) - conjugate_oracle(loss, y)) <= 1e-6

    def test_conjugate_edges(self):
        loss = ExpLoss()
        assert loss.conjugate(0.0) == 0.0
        assert loss.conjugate(-0.5) == math.inf

    def test_conjugate_prime_is_argmax(self):
        loss = ExpLoss()
        for y in (0.3, 1.0, 4.0):
            h = 1e-6
            num = (loss.conjugate(y + h) - loss.conjugate(y - h)) / (2 * h)
            assert abs(loss.conjugate_prime(y) - num) <= 1e-5


class TestPowerLoss:
    @pytest.mark.parametrize("q,y", [(2.0, 0.5), (2.0, 3.0), (1.5, 1.2),
                                     (3.0, 0.8), (4.0, 2.5)])
    def test_conjugate_matches_grid(self, q, y):
        loss = PowerLoss(q)
        assert abs(loss.conjugate(y) - conjugate_oracle(loss, y)) <= 1e-5

    def test_conjugate_q2_closed_form(self):
        # q = 2: l*(y) = y^2/4 - y, from the quadratic first-order condition.
        loss = PowerLoss(2.0)
        for y in (0.0, 0.5, 2.0, 7.0):
            assert abs(loss.conjugate(y) - (y * y / 4.0 - y)) <= 1e-12

    def test_negative_side_infinite(self):
        assert PowerLoss(2.0).conjugate(-1.0) == math.inf

    def test_lower_bound_minus_loss_at_zero(self):
        # l*(y) >= -l(0) = -1 everywhere on the finite side.
        loss = PowerLoss(3.0)
        ys = np.linspace(0.0, 10.0, 101)
        assert (loss.conjugate(ys) >= -1.0 - 1e-12).all()

    def test_prime_is_derivative(self):
        loss = PowerLoss(2.5)
        for y in (0.4, 1.0, 5.0):
            h = 1e-6
            num = (loss.conjugate(y + h) - loss.conjugate(y - h)) / (2 * h)
            assert abs(loss.conjugate_prime(y) - num) <= 1e-5

    def test_requires_q_above_one(self):
        with pytest.raises(LossError):
            PowerLoss(1.0)


class TestTabulatedLoss:
    def make_exp_tab(self):
        xs = np.linspace(-12.0, 6.0, 4097)
        return TabulatedLoss(tuple(xs), tuple(np.exp(xs)), left_limit=0.0)

    def test_value_interpolates(self):
        tab = self.make_exp_tab()
        for x in (-3.2, 0.0, 2.5):
            assert abs(tab.value(x) - math.exp(x)) <= 1e-4

    def test_conjugate_close_to_analytic(self):
        tab = self.make_exp_tab()
        exact = ExpLoss()
        for y in (0.5, 1.0, 3.0, 20.0):
            assert abs(tab.conjugate(y) - exact.conjugate(y)) <= 1e-5

    def test_beyond_max_slope_infinite(self):
        tab = TabulatedLoss((-1.0, 0.0, 1.0), (0.25, 1.0, 2.0))
        assert tab.conjugate(10.0) == math.inf

    def test_rejects_nonconvex(self):
        with pytest.raises(LossError, match="convex"):
            TabulatedLoss((-1.0, 0.0, 1.0), (0.0, 0.9, 1.0))

    def test_rejects_decreasing(self):
        with pytest.raises(LossError):
            TabulatedLoss((-1.0, 0.0, 1.0), (0.5, 0.4, 0.45))

    def test_rejects_too_large_on_negatives(self):
        with pytest.raises(LossError):
            TabulatedLoss((-2.0, 0.0, 2.0), (1.5, 2.0, 4.0))

    def test_from_callable(self):
        tab = tabulated_from_callable(lambda x: max(1.0 + x, 0.0) ** 2,
                                      -10.0, 10.0)
        assert abs(tab.value(1.0) - 4.0) <= 1e-5


class TestValidateLoss:
    def test_accepts_standard(self):
        validate_loss(ExpLoss())
        validate_loss(PowerLoss(2.0))

    def test_rejects_bad_custom(self):
        class Bad:
            left_limit = 0.0

            def value(self, x):
                return np.abs(np.asarray(x))  # l(-1) = 1, not < 1

        with pytest.raises(LossError):
            validate_loss(Bad())
