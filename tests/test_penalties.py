import itertools
import logging
import math

import numpy as np
import pytest

from oracles import (ProductDist, hull_distance_slsqp, robust_em_bound,
                     robust_pair_golden, shortfall_penalty_golden,
                     tabulated_from_callable, tensor_penalty)
from sanovdual import penalties
from sanovdual.losses import ExpLoss, PowerLoss
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport,
                                 _robust_rows, hull_distance, penalty)
from sanovdual.spaces import Dist, SpaceError

# +inf off a support, 0 log 0 and zero generator entries are handled
# without a numpy warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

UNIF2 = Dist.uniform(2)
UNIF3 = Dist.uniform(3)
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


def rand_dist(rng, m, full=True):
    w = rng.dirichlet(np.ones(m))
    if full:
        w = w + 1e-3
        w /= w.sum()
    return Dist(w)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        assert penalty(UNIF2, RelativeEntropy(UNIF2)) == 0.0

    def test_point_mass_against_uniform(self):
        assert abs(penalty(Dist([1, 0]), RelativeEntropy(UNIF2)) - LOG2) \
            <= 1e-12

    def test_absolute_continuity_failure(self):
        assert penalty(UNIF2, RelativeEntropy(Dist([1, 0]))) == math.inf


class TestLpEntropy:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        assert penalty(UNIF2, LpEntropy(UNIF2, 2.0)) == 0.0
        for _ in range(20):
            nu = rand_dist(rng, 2)
            val = penalty(nu, LpEntropy(UNIF2, 2.0))
            if np.abs(nu.weights - UNIF2.weights).max() > 1e-6:
                assert val > 0.0

    def test_point_mass_value(self):
        # ((0.5 * 2^2))^(1/2) - 1 = sqrt(2) - 1
        got = penalty(Dist([1, 0]), LpEntropy(UNIF2, 2.0))
        assert abs(got - (math.sqrt(2.0) - 1.0)) <= 1e-12

    def test_off_support_infinite(self):
        assert penalty(UNIF2, LpEntropy(Dist([1, 0]), 2.0)) == math.inf


def with_zero(rng, dist):
    """The law with one entry, picked at random, set to 0 and renormalized."""
    w = dist.weights.copy()
    w[rng.integers(w.size)] = 0.0
    return Dist(w / w.sum())


class TestShortfallPenalty:
    def test_exp_loss_recovers_relative_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mu = rand_dist(rng, 3)
            nu = rand_dist(rng, 3)
            for law in (nu, with_zero(rng, nu)):
                got = penalty(law, Shortfall(mu, ExpLoss()))
                assert abs(got - penalty(law, RelativeEntropy(mu))) <= 1e-12

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_power_loss_recovers_lp_entropy(self, q):
        rng = np.random.default_rng(2)
        p = q / (q - 1.0)
        for m in (2, 3):
            for _ in range(25):
                mu = rand_dist(rng, m)
                nu = rand_dist(rng, m)
                for law in (nu, with_zero(rng, nu)):
                    got = penalty(law, Shortfall(mu, PowerLoss(q)))
                    assert abs(got - penalty(law, LpEntropy(mu, p))) <= 1e-12

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
        got = penalty(V, Shortfall(Dist(mu), tab))
        want = shortfall_penalty_golden(V, mu, tab)
        assert np.isfinite(want).all()
        assert np.abs(got - want).max() <= 1e-9

    def test_zero_at_reference(self):
        tab = tabulated_from_callable(np.exp, -12.0, 6.0)
        for loss in (ExpLoss(), PowerLoss(2.0), PowerLoss(3.0), tab):
            assert abs(penalty(UNIF2, Shortfall(UNIF2, loss))) <= 1e-8

    def test_off_support_infinite(self):
        assert penalty(UNIF2, Shortfall(Dist([1, 0]),
                                        PowerLoss(2.0))) == math.inf


class TestRobustEntropy:
    def test_singleton(self):
        rng = np.random.default_rng(3)
        nu, mu = rand_dist(rng, 2), rand_dist(rng, 2)
        assert penalty(nu, Robust((mu,))) == penalty(nu, RelativeEntropy(mu))

    def test_hull_member_is_zero(self):
        g = (Dist([0.2, 0.8]), Dist([0.8, 0.2]))
        assert abs(penalty(Dist([0.4, 0.6]), Robust(g))) <= 1e-9

    def test_point_mass_hull_covers(self):
        # hull of the two point masses is the whole simplex on {a, b}
        g = (Dist([1.0, 0.0]), Dist([0.0, 1.0]))
        assert abs(penalty(Dist([0.3, 0.7]), Robust(g))) <= 1e-9

    def test_three_generators_matches_mixture_grid(self):
        rng = np.random.default_rng(4)
        gens = tuple(rand_dist(rng, 3) for _ in range(3))
        for _ in range(5):
            nu = rand_dist(rng, 3)
            got = penalty(nu, Robust(gens))
            # grid oracle over mixture weights
            best = math.inf
            ticks = np.linspace(0, 1, 101)
            for w1 in ticks:
                for w2 in ticks:
                    if w1 + w2 > 1.0 + 1e-12:
                        continue
                    mix = (w1 * gens[0].weights + w2 * gens[1].weights +
                           (1 - w1 - w2) * gens[2].weights)
                    best = min(best, penalty(nu.weights[None, :],
                                             RelativeEntropy(Dist(mix)))[0])
            assert got <= best + 1e-9
            assert got >= best - 1e-4  # grid resolution

    @pytest.mark.parametrize("case", ["random", "ends", "zeros"])
    def test_two_generators_match_golden_search(self, case):
        rng = np.random.default_rng(16)
        g0, g1 = (rand_dist(rng, 3).weights for _ in range(2))
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
        gens = (Dist(g0), Dist(g1))
        got = penalty(V, Robust(gens))
        want, w = robust_pair_golden(V, g0, g1)
        assert np.isfinite(want).all()
        assert np.abs(got - want).max() <= 1e-12
        if case == "ends":
            # strictly beyond an end, that end is the oracle's minimizer
            assert (w[1:6] == 1.0).all() and (w[7:12] == 0.0).all()

    def test_two_generators_hold_both_weights(self):
        # The root in v lies where w = v / (1 + v) rounds to 1, and g1 alone
        # has mass on state 4: a 1 - w of 0 dropped g1, H(nu | g0) was
        # +inf, and the w = 0 end won with 24.33.  A grid of w near 1
        # reaches 6.68268379576e-07.
        nu = Dist([1.40612322e-12, 4.88140181e-24, 0.999999992,
                   7.88180795e-09, 3.51586839e-17])
        G = np.array([[5.33679134e-07, 2.33123747e-12, 0.999999466,
                       1.11022243e-16, 0.0],
                      [4.77626086e-14, 8.47457356e-21, 2.70205214e-11,
                       1.80015580e-30, 1.0]])
        gens = tuple(Dist(g) for g in G)
        got = penalty(nu, Robust(gens))
        want = penalties._mixture_rows(nu.weights[None], np.stack(
            [g.weights for g in gens]))[0][0]
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
        assert got <= 6.68268379576e-07

    def test_unsupported_is_infinite(self):
        g = (Dist([0.5, 0.5, 0.0]), Dist([0.2, 0.8, 0.0]))
        assert penalty(Dist([0.2, 0.2, 0.6]), Robust(g)) == math.inf

    def test_four_generators_at_most_the_em_bound(self):
        rng = np.random.default_rng(20)
        G = rng.dirichlet(np.ones(5), size=4)
        V = rng.dirichlet(np.ones(5), size=20)
        got = penalty(V[16], Robust(tuple(Dist(g) for g in G)))
        assert got <= robust_em_bound(V[16], G) + 1e-12

    def test_em_bound_is_finite_where_the_mixture_vanishes(self):
        # nu is 0 on the only state where the third generator has mass, so
        # EM drives that weight, and the mixture on that state, to 0.
        nu = np.array([0.5, 0.5, 0.0])
        G = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.1, 0.6, 0.3]])
        with np.errstate(invalid="raise", divide="raise"):
            em = robust_em_bound(nu, G)
        assert math.isfinite(em)
        assert em >= penalties._mixture_rows(nu[None], G)[0][0]

    @pytest.mark.parametrize("m, k", [(3, 3), (5, 4), (8, 6), (3, 5)])
    def test_meets_cover_bound(self, m, k):
        # Cover's bound at the returned mixture M: H(nu | M) minus
        # log max_j sum_i nu_i G_ji / M_i is at most the infimum.
        rng = np.random.default_rng(10 * m + k)
        G = rng.dirichlet(np.ones(m), size=k)
        V = rng.dirichlet(np.ones(m), size=20)
        vals, mix = _robust_rows(V, G)
        lower = vals - np.log(((V / mix) @ G.T).max(axis=1))
        assert (lower >= vals - 1e-12 * (1.0 + np.abs(vals))).all()
        em = np.array([robust_em_bound(v, G) for v in V])
        assert (vals <= em + 1e-12).all()

    def test_open_rows_are_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(penalties, "MIXTURE_PASSES", 3)
        rng = np.random.default_rng(21)
        G = rng.dirichlet(np.ones(4), size=3)
        V = rng.dirichlet(np.ones(4), size=5)
        with caplog.at_level(logging.WARNING, logger="sanovdual"):
            vals, mix = _robust_rows(V, G)
        r = (V / mix) @ G.T
        gap = np.log(r.max(axis=1) / V.sum(axis=1))
        assert len(caplog.records) == 1
        msg = caplog.records[0].getMessage()
        assert msg.startswith("_mixture_rows: 3 passes left 5 row(s) open")
        assert msg.endswith(f"largest Cover gap {gap.max():.3g}")


class TestHullIndicator:
    def test_member(self):
        g = (Dist([0.2, 0.8]), Dist([0.8, 0.2]))
        assert penalty(Dist([0.5, 0.5]), SetIndicator(g)) == 0.0
        assert penalty(g[0], SetIndicator(g)) == 0.0

    def test_nonmember(self):
        g = (Dist([1.0, 0.0]),)
        assert penalty(Dist([0.5, 0.5]), SetIndicator(g)) == math.inf

    def test_segment_membership_three_states(self):
        g = (Dist([0.6, 0.2, 0.2]), Dist([0.2, 0.6, 0.2]))
        mid = Dist(0.5 * g[0].weights + 0.5 * g[1].weights)
        assert penalty(mid, SetIndicator(g)) == 0.0
        assert penalty(UNIF3, SetIndicator(g)) == math.inf

    @staticmethod
    def spec(G):
        return SetIndicator(tuple(Dist(g) for g in G))

    @pytest.mark.parametrize("m, k", [(3, 3), (4, 4), (5, 5), (4, 3)])
    def test_generators_and_mixtures_are_members(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        for _ in range(40):
            G = rng.dirichlet(np.ones(m), size=k)
            V = np.vstack([G, rng.dirichlet(np.ones(k), size=50) @ G])
            assert (penalty(V, self.spec(G)) == 0.0).all()

    def test_nearly_coincident_generators_are_members(self):
        # Two generators agree to about 7e-3; the Gram matrix has condition
        # number 1.9e6.
        rng = np.random.default_rng(1)
        G = rng.dirichlet(np.ones(3), size=3)
        V = np.vstack([G, rng.dirichlet(np.ones(3), size=50) @ G])
        assert (penalty(V, self.spec(G)) == 0.0).all()

    @pytest.mark.parametrize("m, k", [(4, 1), (3, 2), (3, 3), (4, 3), (5, 5),
                                      (2, 4), (3, 5), (4, 6)])
    def test_distance_matches_slsqp(self, m, k):
        rng = np.random.default_rng(100 * m + k)
        for _ in range(4):
            G = rng.dirichlet(np.ones(m), size=k)
            V = np.vstack([rng.dirichlet(np.ones(m), size=8),
                           rng.dirichlet(np.ones(k), size=2) @ G,
                           rng.normal(size=(2, m))])
            want = [hull_distance_slsqp(v, G) for v in V]
            assert np.abs(hull_distance(V, G) - want).max() <= 1e-7

    def test_two_states_is_the_interval_excess(self):
        G = np.array([[0.2, 0.8], [0.7, 0.3], [0.4, 0.6]])
        x = np.linspace(0.0, 1.0, 101)
        V = np.column_stack([x, 1.0 - x])
        excess = np.maximum(np.maximum(0.2 - x, x - 0.7), 0.0)
        assert np.abs(hull_distance(V, G) - excess * np.sqrt(2.0)).max() \
            <= 1e-15

    def test_face_cap(self):
        # 12 generators on 12 states have 2^12 - 1 faces; 13 have 8,191.
        self.spec(np.eye(12))
        with pytest.raises(SpaceError, match="8191 hull faces"):
            self.spec(np.eye(13))
        rng = np.random.default_rng(4)
        with pytest.raises(SpaceError, match="30 generators on 10 states"):
            self.spec(rng.dirichlet(np.ones(10), size=30))


@pytest.mark.parametrize("family, what", [(Robust, "robust penalty"),
                                          (SetIndicator, "set indicator")])
def test_hull_generators_share_their_number_of_states(family, what):
    # A hull's generators share one number of states, checked when it is
    # built rather than at its first penalty.
    with pytest.raises(SpaceError, match=rf"{what}: generators on different "
                       r"numbers of states, \[2, 3\]"):
        family((Dist([0.2, 0.3, 0.5]), Dist([0.5, 0.5])))


class TestTransportCost:
    def test_identity_zero(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0.5, 2.0, (2, 2))
        np.fill_diagonal(cost, 0.0)
        nu = rand_dist(rng, 2)
        assert abs(penalty(nu, Transport(nu, cost))) <= 1e-10

    def test_total_variation_matches_coupling_grid(self):
        # brute force over the one-parameter family of 2x2 couplings
        rng = np.random.default_rng(6)
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(10):
            mu, nu = rand_dist(rng, 2), rand_dist(rng, 2)
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
            got = penalty(nu, Transport(mu, cost))
            tv = max(nu.weights[0] - mu.weights[0],
                     mu.weights[0] - nu.weights[0])
            assert abs(got - best) <= 2e-3
            assert abs(got - tv) <= 1e-12

    def test_point_mass_reference(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 3, (3, 3))
        nu = rand_dist(rng, 3)
        got = penalty(nu, Transport(Dist([1, 0, 0]), cost))
        assert abs(got - float(np.dot(cost[0], nu.weights))) <= 1e-12

    def test_infeasible_inf(self):
        cost = np.array([[0.0, math.inf], [math.inf, 1.0]])
        got = penalty(Dist([0.2, 0.8]),
                      Transport(Dist([0.7, 0.3]), cost))
        assert got == math.inf

    def test_off_simplex_rows_are_inf(self):
        # Rows of mass 1 + h, or with a negative entry, are off the domain:
        # +inf on every number of states, not a raise or a finite value.
        for mu in (UNIF2, UNIF3):
            m = mu.size
            cost = 1.0 - np.eye(m)
            heavy = np.full(m, 1.0 / m)
            heavy[0] += 1e-7
            negative = np.full(m, 1.0 / m)
            negative[0] -= 0.6
            negative[1] += 0.6
            got = penalty(np.stack([heavy, negative]), Transport(mu, cost))
            assert np.isposinf(got).all()
            assert penalty(heavy, Transport(mu, cost)) == math.inf

    def test_grad_is_nan_on_off_simplex_rows(self):
        # The rows penalty_rows maps to +inf have no gradient: NaN rows,
        # not a raise; the rows on the domain keep their potentials.
        for mu in (UNIF2, UNIF3):
            m = mu.size
            spec = Transport(mu, 1.0 - np.eye(m))
            good = np.linspace(1.0, 2.0, m)
            good /= good.sum()
            heavy = good.copy()
            heavy[0] += 1e-7
            negative = good.copy()
            negative[0] -= 0.6
            negative[1] += 0.6
            V = np.stack([heavy, good, negative])
            a, g = spec.penalty_rows(V)
            assert np.isposinf(a[[0, 2]]).all()
            assert np.isnan(g[[0, 2]]).all()
            assert g[1].tobytes() == \
                spec.penalty_rows(good[None])[1][0].tobytes()
            assert np.isfinite(g[1]).all()

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
            mu, nu = rand_dist(rng, 2, full=False), rand_dist(rng, 2,
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
                 Robust((UNIF2, Dist([0.3, 0.7]))),
                 Transport(UNIF2, np.array([[0.0, 1.0], [1.0, 0.0]]))]
        nu = rand_dist(rng, 2)
        for n in (1, 2, 3):
            prod = ProductDist.iid(nu, n)
            for spec in specs:
                a1 = penalty(nu, spec)
                an = tensor_penalty(prod, spec)
                assert abs(an - n * a1) <= 1e-8 * (1 + abs(a1)) * n

    def test_chain_rule_relative_entropy(self):
        # alpha_2 under relative entropy equals H(. | mu x mu) exactly
        rng = np.random.default_rng(10)
        mu = rand_dist(rng, 3)
        spec = RelativeEntropy(mu)
        prod = ProductDist.iid(mu, 2)
        joint = RelativeEntropy(Dist(prod.tensor))
        for _ in range(50):
            t = rng.dirichlet(np.ones(9))
            nu = ProductDist(2, 3, t)
            lhs = tensor_penalty(nu, spec)
            rhs = penalty(t[None, :], joint)[0]
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    def test_lp_tensor_bound(self, n):
        # alpha_n <= n^(1/q) ||dnu/dmu^n||_{L^p}, q = p = 2
        rng = np.random.default_rng(11)
        spec = LpEntropy(UNIF2, 2.0)
        prod = ProductDist.iid(UNIF2, n)
        for _ in range(100):
            t = rng.dirichlet(np.ones(2 ** n))
            nu = ProductDist(n, 2, t)
            an = tensor_penalty(nu, spec)
            ratio = t / prod.tensor
            norm = float(np.dot(ratio ** 2, prod.tensor) ** 0.5)
            assert an <= n ** 0.5 * norm + 1e-9

    def test_one_step_matches_penalty(self):
        rng = np.random.default_rng(12)
        nu = rand_dist(rng, 2)
        spec = LpEntropy(UNIF2, 2.0)
        assert abs(tensor_penalty(ProductDist(1, 2, nu.weights), spec) -
                   penalty(nu, spec)) <= 1e-12

    def test_zero_probability_prefix_contributes_nothing(self):
        t = np.array([0.5, 0.5, 0.0, 0.0])  # x1 = b never happens
        nu = ProductDist(2, 2, t)
        spec = RelativeEntropy(Dist([0.9, 0.1]))
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
        mu = rand_dist(rng, m)
        cost = rng.uniform(0.2, 2.0, (m, m))
        np.fill_diagonal(cost, 0.0)
        spec = {
            "relative_entropy": RelativeEntropy(mu),
            "lp_entropy": LpEntropy(mu, 2.5),
            "shortfall": Shortfall(mu, PowerLoss(3.0)),
            # m generators: the Newton root of the mixture's first-order
            # condition on 2 states, the mixture ascent on 3
            "robust": Robust(tuple(rand_dist(rng, m) for _ in range(m))),
            "transport": Transport(mu, cost),
        }[family]
        h = 1e-6
        # Robust entropy over 3 generators keeps a looser tolerance here;
        # test_robust_matches_sixth_order_differences checks it to 1e-9.
        tol = 1e-5 if family == "robust" and m == 3 else 1e-6
        for _ in range(4):
            nu = rand_dist(rng, m).weights
            g = spec.penalty_rows(nu[None, :])[1][0]
            for i, j in itertools.combinations(range(m), 2):
                e = np.zeros(m)
                e[i], e[j] = h, -h
                fd = (penalty(nu + e, spec) - penalty(nu - e, spec)) / (2 * h)
                assert abs(g[i] - g[j] - fd) <= tol * (1.0 + abs(fd))

    @pytest.mark.parametrize("m, k", [(3, 3), (5, 4), (4, 4), (6, 3)])
    def test_robust_matches_sixth_order_differences(self, m, k):
        # The mixture loop's gradient log(nu / M) + 1 along e_i - e_j,
        # against (45 d1 - 9 d2 + d3) / (60 h), dn = f(nu + n h e) -
        # f(nu - n h e).
        rng = np.random.default_rng(60 + 10 * m + k)
        spec = Robust(tuple(rand_dist(rng, m) for _ in range(k)))
        h = 1e-5
        for _ in range(4):
            nu = rand_dist(rng, m).weights
            g = spec.penalty_rows(nu[None, :])[1][0]
            for i, j in itertools.combinations(range(m), 2):
                e = np.zeros(m)
                e[i], e[j] = h, -h
                f = penalty(np.array([nu + n * e for n in (1, -1, 2, -2, 3,
                                                           -3)]), spec)
                fd = (45 * (f[0] - f[1]) - 9 * (f[2] - f[3]) +
                      (f[4] - f[5])) / (60 * h)
                assert abs(g[i] - g[j] - fd) <= 1e-9 * (1.0 + abs(fd))


class TestConvexityAndJensen:
    def specs(self):
        return [RelativeEntropy(UNIF2), LpEntropy(UNIF2, 2.0),
                Shortfall(UNIF2, PowerLoss(3.0)),
                Robust((Dist([0.2, 0.8]), Dist([0.7, 0.3]))),
                SetIndicator((Dist([0.2, 0.8]), Dist([0.7, 0.3]))),
                Transport(UNIF2, np.array([[0.0, 2.0], [1.0, 0.0]]))]

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(13)
        for spec in self.specs():
            for _ in range(40):
                nu1, nu2 = rand_dist(rng, 2), rand_dist(rng, 2)
                t = rng.uniform(0.1, 0.9)
                mix = Dist(t * nu1.weights + (1 - t) * nu2.weights)
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
                comps = [rand_dist(rng, 2) for _ in range(k)]
                probs = rng.dirichlet(np.ones(k))
                mean = Dist(sum(p * c.weights
                                     for p, c in zip(probs, comps)))
                lhs = penalty(mean, spec)
                rhs = float(sum(p * penalty(c, spec)
                                for p, c in zip(probs, comps)))
                if math.isinf(rhs):
                    continue
                assert lhs <= rhs + 1e-8
