import itertools
import math

import numpy as np
import pytest

from oracles import (ProductDist, robust_pair_golden, shortfall_penalty_golden,
                     tabulated_from_callable, tensor_penalty)
from sanovdual.losses import ExpLoss, PowerLoss
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport,
                                 hull_indicator, lp_entropy, penalty,
                                 penalty_grad,
                                 relative_entropy, robust_entropy,
                                 shortfall_penalty, transport_cost)
from sanovdual.spaces import Dist, FiniteSpace

# +inf off a support, 0 log 0 and zero generator entries are handled
# without a numpy warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TWO = FiniteSpace.of_size(2)
THREE = FiniteSpace.of_size(3)
UNIF2 = Dist.uniform(TWO)
UNIF3 = Dist.uniform(THREE)
LOG2 = 0.6931471805599453


def endpoint_cost_2x2(mu, nu, cost):
    """2-state transport cost from its one degree of freedom t = plan[0, 0].

    The cost is linear in t, so the optimum sits at an endpoint of the
    feasible interval; +inf cells pin t to one of the same endpoints.
    """
    forbidden = np.isinf(cost)
    best = math.inf
    for t in (max(0.0, mu[0] + nu[0] - 1.0), min(mu[0], nu[0])):
        plan = np.maximum([[t, mu[0] - t], [nu[0] - t, 1.0 - mu[0] - nu[0] + t]],
                          0.0)
        if not (forbidden & (plan > 1e-14)).any():
            best = min(best, float((plan * np.where(forbidden, 0.0,
                                                    cost)).sum()))
    return best


def rand_dist(rng, space, full=True):
    w = rng.dirichlet(np.ones(space.size))
    if full:
        w = w + 1e-3
        w /= w.sum()
    return Dist(space, w)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        assert relative_entropy(UNIF2, UNIF2) == 0.0

    def test_point_mass_against_uniform(self):
        assert abs(relative_entropy(Dist(TWO, [1, 0]), UNIF2) - LOG2) <= 1e-12

    def test_absolute_continuity_failure(self):
        assert relative_entropy(UNIF2, Dist(TWO, [1, 0])) == math.inf


class TestLpEntropy:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        assert lp_entropy(UNIF2, UNIF2, 2.0) == 0.0
        for _ in range(20):
            nu = rand_dist(rng, TWO)
            val = lp_entropy(nu, UNIF2, 2.0)
            if np.abs(nu.weights - UNIF2.weights).max() > 1e-6:
                assert val > 0.0

    def test_point_mass_value(self):
        # ((0.5 * 2^2))^(1/2) - 1 = sqrt(2) - 1
        got = lp_entropy(Dist(TWO, [1, 0]), UNIF2, 2.0)
        assert abs(got - (math.sqrt(2.0) - 1.0)) <= 1e-12

    def test_off_support_infinite(self):
        assert lp_entropy(UNIF2, Dist(TWO, [1, 0]), 2.0) == math.inf


def with_zero(rng, dist):
    """The law with one entry, picked at random, set to 0 and renormalized."""
    w = dist.weights.copy()
    w[rng.integers(w.size)] = 0.0
    return Dist(dist.space, w / w.sum())


class TestShortfallPenalty:
    def test_exp_loss_recovers_relative_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mu = rand_dist(rng, THREE)
            nu = rand_dist(rng, THREE)
            for law in (nu, with_zero(rng, nu)):
                got = shortfall_penalty(law, mu, ExpLoss())
                assert abs(got - relative_entropy(law, mu)) <= 1e-12

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_power_loss_recovers_lp_entropy(self, q):
        rng = np.random.default_rng(2)
        p = q / (q - 1.0)
        for space in (TWO, THREE):
            for _ in range(25):
                mu = rand_dist(rng, space)
                nu = rand_dist(rng, space)
                for law in (nu, with_zero(rng, nu)):
                    got = shortfall_penalty(law, mu, PowerLoss(q))
                    assert abs(got - lp_entropy(law, mu, p)) <= 1e-12

    @pytest.mark.parametrize("hi", [6.0, 2.0])
    def test_tabulated_loss_matches_golden_search(self, hi):
        # A tabulated loss has no conjugate curvature, so its rows bisect.
        # On [-12, 2] the conjugate is +inf above slope e^2, and rows with
        # dnu/dmu near 10 meet that edge at their minimum.
        tab = tabulated_from_callable(np.exp, -12.0, hi)
        rng = np.random.default_rng(15)
        mu = np.array([0.05, 0.35, 0.6])
        V = np.vstack([rng.dirichlet(np.ones(3), size=6),
                       [[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]]])
        got = shortfall_penalty(V, mu, tab)
        want = shortfall_penalty_golden(V, mu, tab)
        assert np.isfinite(want).all()
        assert np.abs(got - want).max() <= 1e-9

    def test_zero_at_reference(self):
        tab = tabulated_from_callable(np.exp, -12.0, 6.0)
        for loss in (ExpLoss(), PowerLoss(2.0), PowerLoss(3.0), tab):
            assert abs(shortfall_penalty(UNIF2, UNIF2, loss)) <= 1e-8

    def test_off_support_infinite(self):
        assert shortfall_penalty(UNIF2, Dist(TWO, [1, 0]),
                                 PowerLoss(2.0)) == math.inf


class TestRobustEntropy:
    def test_singleton(self):
        rng = np.random.default_rng(3)
        nu, mu = rand_dist(rng, TWO), rand_dist(rng, TWO)
        assert robust_entropy(nu, (mu,)) == relative_entropy(nu, mu)

    def test_hull_member_is_zero(self):
        g = (Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.8, 0.2]))
        assert abs(robust_entropy(Dist(TWO, [0.4, 0.6]), g)) <= 1e-9

    def test_point_mass_hull_covers(self):
        # hull of the two point masses is the whole simplex on {a, b}
        g = (Dist(TWO, [1.0, 0.0]), Dist(TWO, [0.0, 1.0]))
        assert abs(robust_entropy(Dist(TWO, [0.3, 0.7]), g)) <= 1e-9

    def test_three_generators_matches_mixture_grid(self):
        rng = np.random.default_rng(4)
        gens = tuple(rand_dist(rng, THREE) for _ in range(3))
        for _ in range(5):
            nu = rand_dist(rng, THREE)
            got = robust_entropy(nu, gens)
            # grid oracle over mixture weights
            best = math.inf
            ticks = np.linspace(0, 1, 101)
            for w1 in ticks:
                for w2 in ticks:
                    if w1 + w2 > 1.0 + 1e-12:
                        continue
                    mix = (w1 * gens[0].weights + w2 * gens[1].weights +
                           (1 - w1 - w2) * gens[2].weights)
                    best = min(best, relative_entropy(nu.weights[None, :],
                                                      mix)[0])
            assert got <= best + 1e-9
            assert got >= best - 1e-4  # grid resolution

    @pytest.mark.parametrize("case", ["random", "ends", "zeros"])
    def test_two_generators_match_golden_search(self, case):
        rng = np.random.default_rng(16)
        g0, g1 = (rand_dist(rng, THREE).weights for _ in range(2))
        V = rng.dirichlet(np.ones(3), size=20)
        if case == "ends":
            # Laws on the line through g0 and g1, beyond either end: the
            # minimum sits at w = 1 (past g0) or w = 0 (past g1).
            s = np.linspace(0.0, 0.3, 6)[:, None]
            V = np.vstack([g0 + s * (g0 - g1), g1 + s * (g1 - g0), g0, g1])
        if case == "zeros":
            g0 = np.array([0.6, 0.4, 0.0])
            g1 = np.array([0.0, 0.3, 0.7])
            V = np.vstack([V, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                               [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]])
        gens = (Dist(THREE, g0), Dist(THREE, g1))
        got = robust_entropy(V, gens)
        want, w = robust_pair_golden(V, g0, g1)
        assert np.isfinite(want).all()
        assert np.abs(got - want).max() <= 1e-12
        if case == "ends":
            # strictly beyond an end, that end is the oracle's minimizer
            assert (w[1:6] == 1.0).all() and (w[7:12] == 0.0).all()

    def test_unsupported_is_infinite(self):
        g = (Dist(THREE, [0.5, 0.5, 0.0]), Dist(THREE, [0.2, 0.8, 0.0]))
        assert robust_entropy(Dist(THREE, [0.2, 0.2, 0.6]), g) == math.inf


class TestHullIndicator:
    def test_member(self):
        g = (Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.8, 0.2]))
        assert hull_indicator(Dist(TWO, [0.5, 0.5]), g) == 0.0
        assert hull_indicator(g[0], g) == 0.0

    def test_nonmember(self):
        g = (Dist(TWO, [1.0, 0.0]),)
        assert hull_indicator(Dist(TWO, [0.5, 0.5]), g) == math.inf

    def test_segment_membership_three_states(self):
        g = (Dist(THREE, [0.6, 0.2, 0.2]), Dist(THREE, [0.2, 0.6, 0.2]))
        mid = Dist(THREE, 0.5 * g[0].weights + 0.5 * g[1].weights)
        assert hull_indicator(mid, g) == 0.0
        assert hull_indicator(UNIF3, g) == math.inf


class TestTransportCost:
    def test_identity_zero(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0.5, 2.0, (2, 2))
        np.fill_diagonal(cost, 0.0)
        nu = rand_dist(rng, TWO)
        assert abs(transport_cost(nu, nu, cost)) <= 1e-10

    def test_total_variation_matches_coupling_grid(self):
        # brute force over the one-parameter family of 2x2 couplings
        rng = np.random.default_rng(6)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(10):
            mu, nu = rand_dist(rng, TWO), rand_dist(rng, TWO)
            t_lo = max(0.0, mu.weights[0] + nu.weights[0] - 1.0)
            t_hi = min(mu.weights[0], nu.weights[0])
            best = math.inf
            for t in np.arange(t_lo, t_hi + 1e-3, 1e-3):
                t = min(t, t_hi)
                plan = np.array([
                    [t, mu.weights[0] - t],
                    [nu.weights[0] - t, 1 - mu.weights[0] - nu.weights[0] + t],
                ])
                best = min(best, float((plan * cost).sum()))
            got = transport_cost(nu, mu, cost)
            tv = max(nu.weights[0] - mu.weights[0],
                     mu.weights[0] - nu.weights[0])
            assert abs(got - best) <= 2e-3
            assert abs(got - tv) <= 1e-12

    def test_point_mass_reference(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 3, (3, 3))
        nu = rand_dist(rng, THREE)
        got = transport_cost(nu, Dist(THREE, [1, 0, 0]), cost)
        assert abs(got - float(np.dot(cost[0], nu.weights))) <= 1e-12

    def test_infeasible_inf(self):
        cost = np.array([[0.0, math.inf], [math.inf, 1.0]])
        got = transport_cost(Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]),
                             cost)
        assert got == math.inf

    def test_off_simplex_rows_are_inf(self):
        # Rows of mass 1 + h, or with a negative entry, are off the domain:
        # +inf on every number of states, not a raise or a finite value.
        for mu in (UNIF2, UNIF3):
            m = mu.m
            cost = 1.0 - np.eye(m)
            heavy = np.full(m, 1.0 / m)
            heavy[0] += 1e-7
            negative = np.full(m, 1.0 / m)
            negative[0] -= 0.6
            negative[1] += 0.6
            got = transport_cost(np.stack([heavy, negative]), mu, cost)
            assert np.isposinf(got).all()
            assert transport_cost(heavy, mu, cost) == math.inf

    def test_diagonal_flag_validation(self):
        from sanovdual.spaces import SpaceError
        cost = np.array([[math.inf, 1.0], [1.0, 0.0]])
        Transport(UNIF2, cost)
        with pytest.raises(SpaceError, match="finite"):
            Transport(UNIF2, np.array([[math.inf, math.inf], [1.0, 0.0]]))

    def test_2x2_fast_path_agrees_with_solver(self):
        from sanovdual.transport import solve_transport
        rng = np.random.default_rng(8)
        for _ in range(20):
            mu, nu = rand_dist(rng, TWO, full=False), rand_dist(rng, TWO,
                                                                full=False)
            cost = rng.uniform(0, 4, (2, 2))
            if rng.random() < 0.3:
                cost[rng.integers(2), rng.integers(2)] = math.inf
            fast = endpoint_cost_2x2(mu.weights, nu.weights, cost)
            slow = solve_transport(mu.weights, nu.weights, cost).value
            if math.isinf(fast) or math.isinf(slow):
                assert fast == slow
            else:
                assert abs(fast - slow) <= 1e-10


class TestTensorPenalty:
    def test_product_law_is_n_times_penalty(self):
        rng = np.random.default_rng(9)
        specs = [RelativeEntropy(UNIF2), LpEntropy(UNIF2, 2.0),
                 Shortfall(UNIF2, PowerLoss(2.0)),
                 Robust((UNIF2, Dist(TWO, [0.3, 0.7]))),
                 Transport(UNIF2, np.array([[0.0, 1.0], [1.0, 0.0]]))]
        nu = rand_dist(rng, TWO)
        for n in (1, 2, 3):
            prod = ProductDist.iid(nu, n)
            for spec in specs:
                a1 = penalty(nu, spec)
                an = tensor_penalty(prod, spec)
                assert abs(an - n * a1) <= 1e-8 * (1 + abs(a1)) * n

    def test_chain_rule_relative_entropy(self):
        # alpha_2 under relative entropy equals H(. | mu x mu) exactly
        rng = np.random.default_rng(10)
        mu = rand_dist(rng, THREE)
        spec = RelativeEntropy(mu)
        prod = ProductDist.iid(mu, 2)
        for _ in range(50):
            t = rng.dirichlet(np.ones(9))
            nu = ProductDist(2, THREE, t)
            lhs = tensor_penalty(nu, spec)
            rhs = relative_entropy(t[None, :], np.asarray(prod.tensor))[0]
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_lp_tensor_bound(self, n):
        # alpha_n <= n^(1/q) ||dnu/dmu^n||_{L^p}, q = p = 2
        rng = np.random.default_rng(11)
        spec = LpEntropy(UNIF2, 2.0)
        prod = ProductDist.iid(UNIF2, n)
        for _ in range(100):
            t = rng.dirichlet(np.ones(2 ** n))
            nu = ProductDist(n, TWO, t)
            an = tensor_penalty(nu, spec)
            ratio = t / prod.tensor
            norm = float(np.dot(ratio ** 2, prod.tensor) ** 0.5)
            assert an <= n ** 0.5 * norm + 1e-9

    def test_one_step_matches_penalty(self):
        rng = np.random.default_rng(12)
        nu = rand_dist(rng, TWO)
        spec = LpEntropy(UNIF2, 2.0)
        assert abs(tensor_penalty(ProductDist(1, TWO, nu.weights), spec) -
                   penalty(nu, spec)) <= 1e-12

    def test_zero_probability_prefix_contributes_nothing(self):
        t = np.array([0.5, 0.5, 0.0, 0.0])  # x1 = b never happens
        nu = ProductDist(2, TWO, t)
        spec = RelativeEntropy(Dist(TWO, [0.9, 0.1]))
        val = tensor_penalty(nu, spec)
        assert math.isfinite(val)


class TestPenaltyGrad:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("family", ["relative_entropy", "lp_entropy",
                                        "shortfall", "robust", "transport"])
    def test_matches_central_differences(self, family, m):
        # Along the tangent directions e_i - e_j: transport potentials are
        # only defined up to a constant.
        rng = np.random.default_rng(40 + m)
        space = FiniteSpace.of_size(m)
        mu = rand_dist(rng, space)
        cost = rng.uniform(0.2, 2.0, (m, m))
        np.fill_diagonal(cost, 0.0)
        spec = {
            "relative_entropy": RelativeEntropy(mu),
            "lp_entropy": LpEntropy(mu, 2.5),
            "shortfall": Shortfall(mu, PowerLoss(3.0)),
            # m generators: the Newton root of the mixture's first-order
            # condition on 2 states, the mixture ascent on 3
            "robust": Robust(tuple(rand_dist(rng, space) for _ in range(m))),
            "transport": Transport(mu, cost),
        }[family]
        h = 1e-6
        # The 3-generator mixture comes from an ascent that stops once its
        # gains stall below 1e-13; on an edge of the hull that leaves the
        # gradient off by up to about 5e-6.
        tol = 1e-5 if family == "robust" and m == 3 else 1e-6
        for _ in range(4):
            nu = rand_dist(rng, space).weights
            g = penalty_grad(spec, nu[None, :])[0]
            for i, j in itertools.combinations(range(m), 2):
                e = np.zeros(m)
                e[i], e[j] = h, -h
                fd = (penalty(nu + e, spec) - penalty(nu - e, spec)) / (2 * h)
                assert abs(g[i] - g[j] - fd) <= tol * (1.0 + abs(fd))


class TestConvexityAndJensen:
    def specs(self):
        return [RelativeEntropy(UNIF2), LpEntropy(UNIF2, 2.0),
                Shortfall(UNIF2, PowerLoss(3.0)),
                Robust((Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]))),
                SetIndicator((Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]))),
                Transport(UNIF2, np.array([[0.0, 2.0], [1.0, 0.0]]))]

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(13)
        for spec in self.specs():
            for _ in range(40):
                nu1, nu2 = rand_dist(rng, TWO), rand_dist(rng, TWO)
                t = rng.uniform(0.1, 0.9)
                mix = Dist(TWO, t * nu1.weights + (1 - t) * nu2.weights)
                a_mix = penalty(mix, spec)
                a1, a2 = penalty(nu1, spec), penalty(nu2, spec)
                bound = t * a1 + (1 - t) * a2
                if math.isinf(bound):
                    continue
                assert a_mix <= bound + 1e-8

    def test_jensen_mean_measure(self):
        # penalty(mean of the mixture) <= mean of the penalties
        rng = np.random.default_rng(14)
        for spec in self.specs():
            for _ in range(15):
                k = rng.integers(2, 5)
                comps = [rand_dist(rng, TWO) for _ in range(k)]
                probs = rng.dirichlet(np.ones(k))
                mean = Dist(TWO, sum(p * c.weights
                                     for p, c in zip(probs, comps)))
                lhs = penalty(mean, spec)
                rhs = float(sum(p * penalty(c, spec)
                                for p, c in zip(probs, comps)))
                if math.isinf(rhs):
                    continue
                assert lhs <= rhs + 1e-8
