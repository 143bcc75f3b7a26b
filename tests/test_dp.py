import itertools
import math

import numpy as np
import pytest

from dp_oracles import greedy_optimizer_from_trace, iid_empirical_expectation
from sanovdual.dp import (backward_value_dense, backward_value_symmetric,
                          sanov_limit, simplex_supremum, superhedge,
                          symmetric_terminal, transport_control_value,
                          transport_longrun)
from sanovdual.losses import ExpLoss, PowerLoss
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport, penalty,
                                 tensor_penalty, tensor_penalty_batch)
from sanovdual.risk import entropic_risk, risk
from sanovdual.spaces import (Dist, FiniteSpace, ProductDist, SpaceError,
                              SymmetricField)

TWO = FiniteSpace.of_size(2)
THREE = FiniteSpace.of_size(3)
UNIF2 = Dist.uniform(TWO)
COST_TV = np.array([[0.0, 1.0], [1.0, 0.0]])


def all_specs():
    g1, g2 = Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3])
    return [
        RelativeEntropy(UNIF2),
        LpEntropy(UNIF2, 2.0),
        Shortfall(UNIF2, PowerLoss(2.0)),
        Robust((g1, g2)),
        SetIndicator((g1, g2)),
        Transport(UNIF2, np.array([[0.0, 1.5], [0.8, 0.0]])),
    ]


def three_state_specs():
    mu = Dist(THREE, [0.5, 0.3, 0.2])
    g = (Dist(THREE, [0.6, 0.25, 0.15]), Dist(THREE, [0.3, 0.4, 0.3]))
    return [
        RelativeEntropy(mu),
        LpEntropy(mu, 2.0),
        Shortfall(mu, PowerLoss(2.0)),
        Robust(g),
        SetIndicator(g),
        Transport(mu, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                [2.0, 1.0, 0.0]])),
    ]


class TestDenseRecursion:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (2, 6), (3, 3)])
    def test_entropic_log_sum_oracle(self, m, n):
        rng = np.random.default_rng(0)
        space = FiniteSpace.of_size(m)
        w = rng.dirichlet(np.ones(m)) + 0.1
        mu = Dist(space, w / w.sum())
        f = rng.normal(size=m ** n)
        v, _ = backward_value_dense(f, space, RelativeEntropy(mu))
        want = math.log(float(np.dot(ProductDist.iid(mu, n).tensor,
                                     np.exp(f - f.max())))) + f.max()
        assert abs(v - want) <= 1e-9

    def test_singleton_set_indicator_is_expectation(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=4)
        v, _ = backward_value_dense(f, TWO, SetIndicator((UNIF2,)))
        want = float(np.dot(ProductDist.iid(UNIF2, 2).tensor, f))
        assert abs(v - want) <= 1e-12

    def test_robust_matches_product_enumeration(self):
        # sup over laws whose stage kernels pick hull vertices: |M|^(1+m)
        # product-form candidates carry the max of log int e^f.
        rng = np.random.default_rng(2)
        g = (Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]))
        spec = Robust(g)
        for _ in range(10):
            f = rng.normal(size=4).reshape(2, 2)
            v, _ = backward_value_dense(f, TWO, spec)
            best = -math.inf
            for first in g:
                for k0 in g:
                    for k1 in g:
                        t = np.concatenate([first.weights[0] * k0.weights,
                                            first.weights[1] * k1.weights])
                        best = max(best, math.log(float(
                            np.dot(t, np.exp(f.ravel())))))
            assert abs(v - best) <= 1e-9

    def test_cap_error_mentions_symmetric(self):
        with pytest.raises(SpaceError, match="symmetric"):
            backward_value_dense(np.zeros(2 ** 25), TWO, RelativeEntropy(UNIF2))

    def test_monotone_in_data(self):
        rng = np.random.default_rng(3)
        for spec in all_specs():
            f = rng.normal(size=4)
            g = f - np.abs(rng.normal(size=4))
            vf, _ = backward_value_dense(f, TWO, spec)
            vg, _ = backward_value_dense(g, TWO, spec)
            assert vf >= vg - 1e-10

    def test_translation(self):
        rng = np.random.default_rng(4)
        for spec in all_specs():
            f = rng.normal(size=4)
            c = 0.83
            v1, _ = backward_value_dense(f, TWO, spec)
            v2, _ = backward_value_dense(f + c, TWO, spec)
            assert abs(v2 - (v1 + c)) <= 1e-8


class TestSampledSupremum:
    @pytest.mark.parametrize("n", [2, 3])
    def test_recursion_dominates_sampled_values_and_is_achieved(self, n):
        # two-sided certificate: DP value >= every sampled dual value, and
        # the greedy kernel extraction achieves the DP value.
        rng = np.random.default_rng(5)
        draws = rng.dirichlet(np.ones(2 ** n), size=500)
        for spec in all_specs():
            f = rng.normal(size=2 ** n)
            v, trace = backward_value_dense(f, TWO, spec, keep_trace=True)
            alphas = tensor_penalty_batch(draws, n, 2, spec)
            vals = draws @ f - alphas
            vals = vals[np.isfinite(vals)]
            if vals.size:
                assert v >= vals.max() - 1e-7
            nu_star = greedy_optimizer_from_trace(trace)
            achieved = float(np.dot(nu_star.tensor, f)) - \
                tensor_penalty(nu_star, spec)
            assert achieved >= v - 1e-6


class TestSymmetricRecursion:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_dense(self, n):
        rng = np.random.default_rng(6)
        for space, specs in ((TWO, all_specs()), (THREE, three_state_specs())):
            for spec in specs:
                for _ in range(4):
                    coefs = rng.normal(size=space.size)
                    quad = rng.normal()

                    def F(nu):
                        return nu @ coefs + quad * nu[:, 0] ** 2

                    term = symmetric_terminal(F, n, space)
                    v_sym = backward_value_symmetric(term, n, space, spec)
                    dense = SymmetricField(n, space, term).expand_dense()
                    v_den, _ = backward_value_dense(dense, space, spec)
                    assert abs(v_sym - v_den) <= 1e-8

    def test_linear_f_classical_factorizes(self):
        # F(nu) = int fbar dnu: the recursion factorizes, v_n = rho(fbar)
        rng = np.random.default_rng(7)
        fbar = rng.normal(size=2)
        spec = RelativeEntropy(UNIF2)
        want = entropic_risk(fbar, UNIF2)
        for n in (1, 2, 5, 17):
            term = symmetric_terminal(lambda nu: nu @ fbar, n, TWO)
            v = backward_value_symmetric(term, n, TWO, spec) / n
            assert abs(v - want) <= 1e-10

    def test_constant_f(self):
        for spec in all_specs():
            if isinstance(spec, Transport):
                continue  # rho(0) = 0 only for zero-diagonal transport
            for n in (1, 3, 8):
                term = symmetric_terminal(lambda nu: np.full(len(nu), 0.37),
                                          n, TWO)
                v = backward_value_symmetric(term, n, TWO, spec) / n
                assert abs(v - 0.37) <= 1e-9

    def test_rejects_asymmetric_dense_input(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(SpaceError, match="permutation"):
            SymmetricField.from_dense(f, 2, TWO)


class TestSanovLimit:
    def test_linear_gap_is_zero(self):
        rng = np.random.default_rng(8)
        fbar = rng.normal(size=2)
        run = sanov_limit(lambda nu: nu @ fbar, RelativeEntropy(UNIF2),
                          [1, 2, 5, 10])
        assert max(run.gaps) <= 1e-6

    def test_classical_matches_binomial_log_sum(self):
        def F(nu):      # one law (m,) or a batch of rows (B, m)
            return -(nu[..., 0] - 0.7) ** 2

        run = sanov_limit(F, RelativeEntropy(UNIF2), [25, 50])
        for n, v in zip(run.schedule, run.values):
            total = sum(math.comb(n, j) * 0.5 ** n *
                        math.exp(n * F(np.array([j / n, 1 - j / n])))
                        for j in range(n + 1))
            assert abs(v - math.log(total) / n) <= 1e-9

    def test_set_indicator_bracketed_by_products_and_limit(self):
        # Adapted hull kernels dominate i.i.d. product laws at finite n, and
        # the scaled value never exceeds the limiting sup of F on the hull.
        g = (Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]))

        def F(nu):      # one law (m,) or a batch of rows (B, m)
            return -(nu[..., 0] - 0.5) ** 2

        run = sanov_limit(F, SetIndicator(g), [2, 4, 8, 16])
        limit = max(F(w * g[0].weights + (1 - w) * g[1].weights)
                    for w in np.linspace(0, 1, 2001))
        assert abs(run.target - limit) <= 1e-9
        for n, v in zip(run.schedule, run.values):
            product_best = max(iid_empirical_expectation(
                F, w * g[0].weights + (1 - w) * g[1].weights, n)
                for w in np.linspace(0, 1, 201))
            assert v >= product_best - 1e-9
            assert v <= limit + 1e-12
        # the gap to the limit closes along the schedule
        assert run.gaps[-1] <= run.gaps[0] + 1e-12

    def test_scalar_contract_f_is_refused(self):
        # F maps a (B, m) batch to (B,) values.  A one-law F would read row
        # 0 of the batch, or return one number; both raise.
        for F in (lambda nu: -(nu[0] - 0.7) ** 2, lambda nu: 0.37):
            with pytest.raises(TypeError, match="batch"):
                sanov_limit(F, RelativeEntropy(UNIF2), [25])

    def test_finite_n_lower_bound(self):
        # v_n >= E_{nu^n}[F o L_n] - alpha(nu) on a grid of product laws
        def F(nu):      # one law (m,) or a batch of rows (B, m)
            return -(nu[..., 0] - 0.7) ** 2

        spec = RelativeEntropy(UNIF2)
        run = sanov_limit(F, spec, [5, 10])
        for n, v in zip(run.schedule, run.values):
            for w in np.linspace(0.05, 0.95, 19):
                nu = np.array([w, 1 - w])
                lower = iid_empirical_expectation(F, nu, n) - \
                    penalty(Dist(TWO, nu), spec)
                assert v >= lower - 1e-9


class TestSuperhedge:
    def test_one_step(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=2)
        cert = superhedge(f, TWO, RelativeEntropy(UNIF2))
        want = f - entropic_risk(f, UNIF2)
        np.testing.assert_allclose(cert.increments[0], want, atol=1e-12)
        assert abs(risk(cert.increments[0], RelativeEntropy(UNIF2))) <= 1e-9

    def test_classical_two_steps(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = rng.normal(size=4)
            cert = superhedge(f, TWO, RelativeEntropy(UNIF2))
            assert cert.residual_max <= 1e-10
            assert cert.slice_risk_max <= 1e-9

    def test_shortfall_slices_hit_unit_level(self):
        # at the optimum each increment slice satisfies int l(Y) dmu = 1
        rng = np.random.default_rng(11)
        loss = PowerLoss(2.0)
        spec = Shortfall(UNIF2, loss)
        for _ in range(5):
            f = rng.normal(size=4)
            cert = superhedge(f, TWO, spec)
            for inc in cert.increments:
                rows = inc.reshape(-1, 2)
                for row in rows:
                    level = float(np.dot(UNIF2.weights, loss.value(row)))
                    assert abs(level - 1.0) <= 1e-7


class TestTransportControl:
    def test_forced_diagonal(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=4)
        cost = np.full((2, 2), math.inf)
        np.fill_diagonal(cost, 0.0)
        got = transport_control_value(f, TWO, UNIF2, cost)
        want = float(np.dot(ProductDist.iid(UNIF2, 2).tensor, f))
        assert abs(got - want) <= 1e-12

    def test_zero_cost_gives_max(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=8)
        got = transport_control_value(f, TWO, UNIF2, np.zeros((2, 2)))
        assert abs(got - f.max()) <= 1e-12

    def test_agrees_with_recursion(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            cost = rng.uniform(0, 2, (2, 2))
            f = rng.normal(size=4)
            v1, _ = backward_value_dense(f, TWO, Transport(UNIF2, cost))
            v2 = transport_control_value(f, TWO, UNIF2, cost)
            assert abs(v1 - v2) <= 1e-10


class TestTransportLongrun:
    def test_linear_target_is_one_step_risk(self):
        rng = np.random.default_rng(15)
        fbar = rng.normal(size=2)
        run = transport_longrun(lambda nu: nu @ fbar, UNIF2, COST_TV,
                                [1, 2, 4])
        want = risk(fbar, Transport(UNIF2, COST_TV))
        assert abs(run.target - want) <= 2e-3
        assert abs(run.coupling_target - want) <= 1e-6

    def test_constant_target(self):
        run = transport_longrun(lambda nu: np.full(len(nu), 0.21), UNIF2,
                                COST_TV, [1, 3])
        assert abs(run.target - 0.21) <= 1e-9
        assert abs(run.coupling_target - 0.21) <= 1e-9

    def test_two_targets_agree(self):
        for F, mu, cost in [
            (lambda nu: -np.abs(nu[:, 0] - 0.9), UNIF2, COST_TV),
            # A forbidden cell and an optimum off the grid.
            (lambda nu: -3.0 * (nu[:, 0] - 0.2) ** 2, Dist(TWO, [0.6, 0.4]),
             np.array([[0.0, 1.0], [math.inf, 0.0]])),
        ]:
            run = transport_longrun(F, mu, cost, [2, 4, 8])
            assert abs(run.target - run.coupling_target) <= 1e-6


class TestSimplexSupremum:
    def test_concave_quadratic(self):
        val, arg = simplex_supremum(lambda x: -(x[..., 0] - 0.3) ** 2, 2,
                                    step=0.01)
        assert abs(val) <= 1e-10
        assert abs(arg[0] - 0.3) <= 1e-4
