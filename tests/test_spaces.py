import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import (Kernel, ProductDist, compose, dense_ranks,
                     disintegrate, empirical_measure, expand_dense,
                     multinomial, symmetric_from_dense, type_classes,
                     type_rank)
from sanovdual import extreal
from sanovdual.spaces import (Dist, SpaceError, SymmetricField, type_index,
                              type_successors)


def random_product(rng, m, n, full_support=True):
    t = rng.dirichlet(np.ones(m ** n))
    if full_support:
        t = t + 1e-3
        t /= t.sum()
    return ProductDist(n, m, t)


class TestExtReal:
    def test_neg_inf_dominates(self):
        assert oracles.add(math.inf, -math.inf) == -math.inf
        assert oracles.add(1.0, -math.inf, math.inf) == -math.inf
        assert oracles.add(1.0, math.inf) == math.inf
        assert oracles.sub(math.inf, math.inf) == -math.inf
        assert oracles.sub(3.0, 1.0) == 2.0

    def test_integral_ignores_null_sets(self):
        assert extreal.integral_rows([0.0, 1.0], [[math.inf, 2.0]])[0] == 2.0
        assert extreal.integral_rows([0.5, 0.5],
                                     [[math.inf, 2.0]])[0] == math.inf
        assert extreal.integral_rows([0.5, 0.5],
                                     [[math.inf, -math.inf]])[0] == -math.inf

    def test_integral_rows(self):
        out = extreal.integral_rows(
            np.array([0.5, 0.5]),
            np.array([[1.0, 3.0], [-math.inf, 0.0], [math.inf, 0.0]]))
        assert out[0] == 2.0
        assert out[1] == -math.inf
        assert out[2] == math.inf


class TestEmpiricalMeasure:
    def test_counts(self):
        # E={a,b}, x=(a,a,b,a) -> (0.75, 0.25)
        d = empirical_measure(2, [0, 0, 1, 0])
        np.testing.assert_allclose(d.weights, [0.75, 0.25])

    def test_point_mass(self):
        np.testing.assert_allclose(empirical_measure(2, [0]).weights, [1, 0])

    def test_three_states(self):
        # direct count oracle: (c,b,a,c,c,b) -> (1/6, 2/6, 3/6)
        d = empirical_measure(3, [2, 1, 0, 2, 2, 1])
        np.testing.assert_allclose(d.weights, [1 / 6, 2 / 6, 3 / 6])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 3, size=11)
        base = empirical_measure(3, x).weights
        for _ in range(5):
            perm = rng.permutation(x)
            np.testing.assert_array_equal(
                empirical_measure(3, perm).weights, base)

    def test_out_of_range(self):
        with pytest.raises(SpaceError):
            empirical_measure(2, [0, 2])


class TestDisintegrate:
    def test_product_measure(self):
        mu = Dist([0.3, 0.7])
        nu = ProductDist.iid(mu, 2)
        first, kernels = disintegrate(nu)
        np.testing.assert_allclose(first.weights, mu.weights)
        np.testing.assert_allclose(kernels[0].rows,
                                   np.tile(mu.weights, (2, 1)))

    def test_point_mass(self):
        t = np.zeros(4)
        t[0 * 2 + 1] = 1.0  # delta at (a, b)
        nu = ProductDist(2, 2, t)
        first, kernels = disintegrate(nu)
        np.testing.assert_allclose(first.weights, [1, 0])
        np.testing.assert_allclose(kernels[0].dist([0]).weights, [0, 1])

    def test_conditional_oracle(self):
        # nu(x2 | x1) = nu(x1, x2) / sum_y nu(x1, y)
        rng = np.random.default_rng(1)
        nu = random_product(rng, 2, 2)
        t = nu.reshaped()
        _, kernels = disintegrate(nu)
        for x1 in range(2):
            expect = t[x1] / t[x1].sum()
            np.testing.assert_allclose(kernels[0].dist([x1]).weights, expect,
                                       atol=1e-14)

    def test_zero_prefix_gets_uniform(self):
        t = np.array([0.5, 0.5, 0.0, 0.0])  # no mass on x1 = b
        nu = ProductDist(2, 2, t)
        _, kernels = disintegrate(nu)
        np.testing.assert_allclose(kernels[0].dist([1]).weights, [0.5, 0.5])


class TestCompose:
    def test_constant_kernel_gives_product(self):
        mu = Dist([0.4, 0.6])
        ker = Kernel(2, 2, np.tile(mu.weights, (2, 1)))
        nu = compose(mu, [ker])
        np.testing.assert_allclose(nu.tensor, ProductDist.iid(mu, 2).tensor)

    def test_point_masses(self):
        ker = Kernel(2, 2, np.tile([0.0, 1.0], (2, 1)))
        nu = compose(Dist([1.0, 0.0]), [ker])
        expect = np.zeros(4)
        expect[1] = 1.0
        np.testing.assert_allclose(nu.tensor, expect)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3)])
    def test_roundtrip(self, m, n):
        rng = np.random.default_rng(2)
        nu = random_product(rng, m, n)
        first, kernels = disintegrate(nu)
        back = compose(first, kernels)
        assert np.abs(back.tensor - nu.tensor).max() <= 1e-12

    def test_shape_mismatch(self):
        ker = Kernel(3, 2, np.tile([0.5, 0.5], (4, 1)))
        with pytest.raises(SpaceError):
            compose(Dist.uniform(2), [ker])


class TestTypeClasses:
    def test_two_two(self):
        got = dict(type_classes(2, 2))
        assert got == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_one_three(self):
        got = type_classes(1, 3)
        assert sorted(mult for _, mult in got) == [1, 1, 1]

    def test_binomial_oracle(self):
        got = dict(type_classes(4, 2))
        for k in range(5):
            assert got[(4 - k, k)] == math.comb(4, k)
        assert sum(got.values()) == 2 ** 4

    @pytest.mark.parametrize("n,m", [(5, 2), (4, 3), (3, 4)])
    def test_total_count(self, n, m):
        assert sum(mult for _, mult in type_classes(n, m)) == m ** n

    @pytest.mark.parametrize("n,m", [(6, 2), (5, 3)])
    def test_class_probabilities_sum_to_one(self, n, m):
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(m))
        total = sum(mult * np.prod(w ** np.array(c))
                    for c, mult in type_classes(n, m))
        assert abs(total - 1.0) <= 1e-10

    def test_multinomial_exact(self):
        assert multinomial((3, 2, 1)) == 60


def recursive_compositions(n, m):
    """Occupancy vectors of n over m, first count descending."""
    if m == 1:
        return [(n,)]
    return [(c0,) + rest for c0 in range(n, -1, -1)
            for rest in recursive_compositions(n - c0, m - 1)]


class TestTypeIndex:
    @pytest.mark.parametrize("n,m", [(0, 3), (5, 1), (6, 2), (5, 3), (4, 5)])
    def test_order_and_rank(self, n, m):
        index = type_index(n, m)
        assert [tuple(c) for c in index.tolist()] == \
            recursive_compositions(n, m)
        assert np.array_equal(type_rank(index), np.arange(len(index)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_successors_match_the_rank_oracle(self, m):
        step = np.eye(m, dtype=np.int64)
        for k in range(13):
            succ = type_successors(k, m)
            assert succ.dtype == np.int64
            assert np.array_equal(
                succ, type_rank(type_index(k, m)[:, None] + step))

    @pytest.mark.parametrize("m,top", [(1, 8), (2, 16), (3, 10), (4, 8)])
    def test_dense_ranks_match_counting(self, m, top):
        # Occupancy vectors of every flat index, built by counting draws,
        # ranked by the oracle: up to m^n = 2^16, 3^10 and 4^8 entries.
        counts = np.zeros((1, m), dtype=np.int64)
        for n in range(top + 1):
            assert np.array_equal(dense_ranks(n, m), type_rank(counts))
            counts = (counts[:, None, :] +
                      np.eye(m, dtype=np.int64)).reshape(-1, m)


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(SpaceError):
            Dist([-0.1, 1.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(SpaceError):
            Dist([0.6, 0.6])

    def test_non_finite_weights_rejected(self):
        # A NaN sum passes |s - 1| > slack, so NaN needs its own check.
        for w in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]):
            with pytest.raises(SpaceError, match="finite"):
                Dist(w)

    def test_near_sum_normalized(self):
        d = Dist([0.5 + 4e-10, 0.5])
        assert abs(d.weights.sum() - 1.0) <= 1e-15

    def test_dense_cap(self):
        with pytest.raises(SpaceError, match="symmetric"):
            ProductDist(16, 3, np.ones(3 ** 16) / 3 ** 16)

    def test_immutable(self):
        d = Dist.uniform(2)
        with pytest.raises(ValueError):
            d.weights[0] = 0.9


class TestSymmetricField:
    def test_from_dense_roundtrip(self):
        # rank order: (2, 0), (1, 1), (0, 2)
        vals = np.array([1.0, -0.5, 2.0])
        field = SymmetricField(2, 2, vals)
        dense = expand_dense(field)
        back = symmetric_from_dense(dense, 2, 2)
        assert np.array_equal(back.values, vals)
        vals = np.random.default_rng(4).normal(size=15)   # m=3, n=4
        dense = expand_dense(SymmetricField(4, 3, vals))
        order = recursive_compositions(4, 3)
        for idx, x in enumerate(itertools.product(range(3), repeat=4)):
            counts = tuple(np.bincount(x, minlength=3).tolist())
            assert dense[idx] == vals[order.index(counts)]
        back = symmetric_from_dense(dense, 4, 3)
        assert np.array_equal(back.values, vals)

    def test_rejects_asymmetric(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])  # f(a,b) != f(b,a)
        with pytest.raises(SpaceError, match="permutation"):
            symmetric_from_dense(f, 2, 2)
