import math

import numpy as np
import pytest

from oracles import (tabulated_conjugate_loop, tabulated_from_callable,
                     validate_loss)
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

    def test_conjugate_second_is_derivative(self):
        loss = ExpLoss()
        for y in (0.3, 1.0, 4.0):
            h = 1e-6
            num = (loss.conjugate_prime(y + h) -
                   loss.conjugate_prime(y - h)) / (2 * h)
            assert abs(loss.conjugate_second(y) - num) <= 1e-6 * (1 + num)


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

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 4.0])
    def test_conjugate_second_is_derivative(self, q):
        loss = PowerLoss(q)
        for y in (0.4, 1.0, 5.0):
            h = 1e-6
            num = (loss.conjugate_prime(y + h) -
                   loss.conjugate_prime(y - h)) / (2 * h)
            assert abs(loss.conjugate_second(y) - num) <= 1e-6 * (1 + num)

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

    def test_beyond_max_slope_argmax_is_infinite(self):
        # A flat left piece and +inf: value must not meet 0 * inf.
        tab = TabulatedLoss((-2.0, -1.0, 0.0, 1.0), (0.25, 0.25, 1.0, 2.0))
        with np.errstate(all="raise"):
            assert tab.conjugate_prime(10.0) == math.inf
            assert tab.value(math.inf) == math.inf
            assert (tab.conjugate_second(np.array([0.5, 1.0])) == 0.0).all()
        assert math.isfinite(tab.conjugate_prime(1.0))     # the top slope

    @pytest.mark.parametrize("loss", [
        TabulatedLoss((-2.0, -1.0, 0.0, 1.0), (0.25, 0.25, 1.0, 2.0)),
        TabulatedLoss((-3.0, -1.0, 0.0, 1.0, 2.0, 4.0),
                      (0.0, 0.0, 0.3, 1.5, 3.5, 9.0), left_limit=0.2),
        tabulated_from_callable(lambda x: max(1.0 + x, 0.0) ** 2, -10.0,
                                10.0, points=257),
        # Its slopes drop by 4e-10, which the convexity check lets pass: at
        # y in (1 - 2e-10, 1] node 3 gains more than node 1.
        TabulatedLoss((-1.0, 0.0, 1.0, 2.0, 3.0),
                      (0.0, 0.0, 1.0, 2.0 - 4e-10, 4.0 - 4e-10))],
        ids=["4", "6", "257", "near-collinear"])
    def test_node_search_matches_full_scan(self, loss):
        # The node search equals a scan of every node per entry, bit for
        # bit: on a sweep, at and beside every slope, at signed zeros, past
        # the top slope, at NaN and around the near-collinear table's drop.
        s = loss._slopes
        y = np.concatenate([np.linspace(-1.0, 1.2 * s[-1] + 1.0, 2001), s,
                            s + 1e-15, s - 1e-15, s[-1] + [1e-15, 2e-15],
                            1.0 - np.array([1e-10, 3e-10, 5e-10]),
                            [0.0, -0.0, math.nan, math.inf]])
        conj, prime = tabulated_conjugate_loop(loss, y)
        assert loss.conjugate(y).tobytes() == conj.tobytes()
        assert loss.conjugate_prime(y).tobytes() == prime.tobytes()
        assert loss.conjugate(y[5]) == conj[5]
        assert loss.conjugate_prime(y[5]) == prime[5]

    def test_linear_stretch_gives_a_maximizer(self):
        # At y = 1/2 every node of the stretch [-1, 3] where l has slope 1/2
        # is a maximizer, and within rounding of 1/2 the rounding of x*y -
        # l(x) decides which one a full scan picks; the node search may
        # pick another one there.
        xs = np.linspace(-10.0, 10.0, 257)
        loss = TabulatedLoss(tuple(xs), tuple(
            0.5 * np.maximum(1.0 + xs, 0.0) + np.maximum(xs - 3.0, 0.0) ** 2))
        y = np.concatenate([np.linspace(0.0, loss._slopes[-1], 2001),
                            loss._slopes, [0.5 - 1e-15, 0.5 + 1e-15]])
        conj, prime = tabulated_conjugate_loop(loss, y)
        x = loss.conjugate_prime(y)
        tie = np.abs(y - 0.5) <= 1e-14
        assert loss.conjugate(y).tobytes() == conj.tobytes()
        assert (x[~tie] == prime[~tie]).all()
        assert ((-1.0 <= x[tie]) & (x[tie] <= 3.0)).all()

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


@pytest.mark.parametrize("loss", [
    ExpLoss(), PowerLoss(2.5),
    TabulatedLoss((-2.0, -1.0, 0.0, 1.0), (0.25, 0.25, 1.0, 2.0))],
    ids=["exp", "power", "tabulated"])
@pytest.mark.parametrize("x", [np.array(0.5), np.linspace(0.1, 2.0, 5),
                               np.linspace(0.1, 2.0, 6).reshape(2, 3)],
                         ids=["0d", "1d", "2d"])
def test_every_method_maps_an_array_to_an_array_of_its_shape(loss, x):
    # Neither a Python float nor a numpy scalar: a 0-d input gives a 0-d
    # ndarray.
    for method in ("value", "prime", "conjugate", "conjugate_prime",
                   "conjugate_second"):
        out = getattr(loss, method)(x)
        assert type(out) is np.ndarray and out.shape == x.shape, method
        assert out.dtype == float, method
