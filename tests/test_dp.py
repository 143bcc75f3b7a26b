import itertools
import math

import numpy as np
import pytest

from oracles import (ProductDist, entropic_risk, greedy_optimizer_from_trace,
                     iid_empirical_expectation, risk, symmetric_from_dense,
                     tensor_penalty, tensor_penalty_batch, type_rank)
import sanovdual.dp as dp_module
import sanovdual.penalties as penalties_module
from sanovdual.dp import (SimplexFunction, backward_value_dense,
                          backward_value_symmetric, backward_values_symmetric,
                          sanov_limit, simplex_supremum, superhedge,
                          symmetric_terminal, transport_control_value)
from sanovdual.losses import ExpLoss, PowerLoss
from sanovdual.optim import simplex_grid
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport, penalty)
from sanovdual.risk import risk_rows
from sanovdual.spaces import (Dist, FiniteSpace, SpaceError, SymmetricField,
                              type_index)

TWO = FiniteSpace.of_size(2)
THREE = FiniteSpace.of_size(3)
FOUR = FiniteSpace.of_size(4)
UNIF2 = Dist.uniform(TWO)
COST_TV = np.array([[0.0, 1.0], [1.0, 0.0]])


def _well(center, scale=-1.0, m=2, kind="square_well", coordinate=0):
    """F(nu) = scale (nu_c - center)^2 (or scale |nu_c - center|) on a
    batch of laws of m states, c = ``coordinate``."""
    return SimplexFunction(kind, m, coordinate=coordinate, center=center,
                           scale=scale)


def _linear(fbar):
    """F(nu) = <nu, fbar> on a batch of laws."""
    return SimplexFunction("linear", len(fbar), coeffs=np.asarray(fbar))


def _one(F):
    """F on one law (m,) rather than a batch of rows."""
    return lambda nu: float(F(np.asarray(nu)[None])[0])


def _terminal(F, n, m):
    """n F(type/n) at every type class of E^n on m states in rank order:
    the terminal values of the recursion over the states' own classes, for
    any F that maps (B, m) laws to (B,) values."""
    return n * F(type_index(n, m) / n)


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


def four_state_specs():
    mu = Dist(FOUR, [0.1, 0.2, 0.3, 0.4])
    g = (Dist(FOUR, [0.4, 0.3, 0.2, 0.1]), Dist.uniform(FOUR))
    return [
        RelativeEntropy(mu),
        LpEntropy(mu, 2.0),
        Shortfall(mu, PowerLoss(2.0)),
        Robust(g),
        SetIndicator(g),
        Transport(mu, np.abs(np.subtract.outer(np.arange(4.0),
                                               np.arange(4.0)))),
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
            v, stages = backward_value_dense(f, TWO, spec, keep_trace=True)
            alphas = tensor_penalty_batch(draws, n, 2, spec)
            vals = draws @ f - alphas
            vals = vals[np.isfinite(vals)]
            if vals.size:
                assert v >= vals.max() - 1e-7
            nu_star = greedy_optimizer_from_trace(stages, TWO, spec)
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

                    term = _terminal(F, n, space.size)
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
            term = symmetric_terminal(_linear(fbar), n, TWO)
            v = backward_value_symmetric(term, n, TWO, spec) / n
            assert abs(v - want) <= 1e-10

    def test_constant_f(self):
        for spec in all_specs():
            if isinstance(spec, Transport):
                continue  # rho(0) = 0 only for zero-diagonal transport
            for n in (1, 3, 8):
                term = _terminal(SimplexFunction("constant", 2, value=0.37),
                                 n, 2)
                v = backward_value_symmetric(term, n, TWO, spec) / n
                assert abs(v - 0.37) <= 1e-9

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["states", "groups"])
    @pytest.mark.parametrize("space, specs", [
        (TWO, all_specs()), (THREE, three_state_specs())], ids=["m2", "m3"])
    def test_schedule_in_lockstep_is_bit_identical(self, space, specs,
                                                   grouped):
        # One descent for an unsorted schedule with a repeat equals, bit for
        # bit, each entry's own recursion ranked level by level by the
        # oracle, and the one-entry call.  Ungrouped, every state is its
        # own group; grouped, a well on the last state lumps the others.
        m = space.size
        if grouped:
            F = _well(0.3, m=m, coordinate=m - 1)
            labels = F.labels

            def term(n):
                return symmetric_terminal(F, n, space)
        else:
            coefs = np.random.default_rng(19).normal(size=m)
            labels = np.arange(m)

            def term(n):
                return _terminal(lambda nu: nu @ coefs + 0.8 * nu[:, 0] ** 2,
                                 n, m)
        g = int(labels.max()) + 1
        step = np.eye(g, dtype=np.int64)[labels]
        schedule = [10, 4, 10]
        for spec in specs:
            joined = []

            def terminal(n):
                joined.append(n)
                return term(n)

            got = backward_values_symmetric(terminal, schedule, labels, spec)
            assert joined == [10, 4]
            for n, v in zip(schedule, got):
                V = term(n)
                if not grouped:
                    assert v == backward_value_symmetric(V, n, space, spec)
                for k in range(n - 1, -1, -1):
                    V = risk_rows(spec, V[type_rank(type_index(k, g)[:, None]
                                                    + step)])
                assert v == float(V[0])

    @pytest.mark.parametrize("space, specs", [
        (THREE, three_state_specs()), (FOUR, four_state_specs())],
        ids=["m3", "m4"])
    def test_lumped_values_equal_the_per_state_recursion(self, space, specs):
        # A well on any coordinate lumps the other states, a constant all
        # of them; each v_n equals, bit for bit, the recursion over the
        # classes of the states themselves (identity labels).
        m = space.size
        Fs = [SimplexFunction("constant", m, value=0.37)] + [
            _well(0.4, -2.0, m, kind, c)
            for kind in ("square_well", "abs_well") for c in range(m)]
        schedule = [5, 9]
        for spec in specs:
            for F in Fs:
                lumped = backward_values_symmetric(
                    lambda n: symmetric_terminal(F, n, space), schedule,
                    F.labels, spec)
                per_state = backward_values_symmetric(
                    lambda n: _terminal(F, n, m), schedule, np.arange(m),
                    spec)
                assert lumped == per_state

    def test_lumped_work_count(self, monkeypatch):
        # A 3-state well has two groups, so level j gathers the j classes
        # of level j - 1, not C(j + 1, 2): one risk_rows call per level,
        # on the stacked rows of the entries started, C(31, 2) + C(61, 2)
        # rows in all.
        rows = []
        real = dp_module.risk_rows

        def spy(spec, F, *args):
            rows.append(len(F))
            return real(spec, F, *args)
        monkeypatch.setattr(dp_module, "risk_rows", spy)
        sanov_limit(_well(0.7, m=3), three_state_specs()[0], [30, 60])
        assert rows == [j * (1 + (j <= 30)) for j in range(60, 0, -1)]
        assert sum(rows) == 465 + 1830

    def test_rejects_asymmetric_dense_input(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(SpaceError, match="permutation"):
            symmetric_from_dense(f, 2, TWO)


class TestSanovLimit:
    def test_linear_gap_is_zero(self):
        rng = np.random.default_rng(8)
        fbar = rng.normal(size=2)
        run = sanov_limit(_linear(fbar), RelativeEntropy(UNIF2),
                          [1, 2, 5, 10])
        assert max(run.gaps) <= 1e-6

    def test_classical_matches_binomial_log_sum(self):
        F = _well(0.7)
        run = sanov_limit(F, RelativeEntropy(UNIF2), [25, 50])
        for n, v in zip(run.schedule, run.values):
            total = sum(math.comb(n, j) * 0.5 ** n *
                        math.exp(n * _one(F)([j / n, 1 - j / n]))
                        for j in range(n + 1))
            assert abs(v - math.log(total) / n) <= 1e-9

    def test_set_indicator_bracketed_by_products_and_limit(self):
        # Adapted hull kernels dominate i.i.d. product laws at finite n, and
        # the scaled value never exceeds the limiting sup of F on the hull.
        g = (Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]))
        F = _one(_well(0.5))
        run = sanov_limit(_well(0.5), SetIndicator(g), [2, 4, 8, 16])
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

    def test_finite_n_lower_bound(self):
        # v_n >= E_{nu^n}[F o L_n] - alpha(nu) on a grid of product laws
        F = _well(0.7)
        spec = RelativeEntropy(UNIF2)
        run = sanov_limit(F, spec, [5, 10])
        for n, v in zip(run.schedule, run.values):
            for w in np.linspace(0.05, 0.95, 19):
                nu = np.array([w, 1 - w])
                lower = iid_empirical_expectation(_one(F), nu, n) - \
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
        run = sanov_limit(_linear(fbar), Transport(UNIF2, COST_TV),
                          [1, 2, 4])
        want = risk(fbar, Transport(UNIF2, COST_TV))
        assert abs(run.target - want) <= 2e-3
        assert abs(run.coupling_target - want) <= 1e-6

    def test_constant_target(self):
        run = sanov_limit(SimplexFunction("constant", 2, value=0.21),
                          Transport(UNIF2, COST_TV), [1, 3])
        assert abs(run.target - 0.21) <= 1e-9
        assert abs(run.coupling_target - 0.21) <= 1e-9

    def test_two_targets_agree(self):
        for F, mu, cost in [
            (_well(0.9, kind="abs_well"), UNIF2, COST_TV),
            # A forbidden cell and an optimum off the grid.
            (_well(0.2, -3.0), Dist(TWO, [0.6, 0.4]),
             np.array([[0.0, 1.0], [math.inf, 0.0]])),
        ]:
            run = sanov_limit(F, Transport(mu, cost), [2, 4, 8])
            assert abs(run.target - run.coupling_target) <= 1e-6


class TestSimplexSupremum:
    def test_concave_quadratic(self):
        F = _well(0.3)
        val, arg = simplex_supremum(lambda X: (F(X), F.grad(X)), 2, 0.01,
                                    np.ones(2, bool))
        assert abs(val) <= 1e-10
        assert abs(arg[0] - 0.3) <= 1e-4

    def test_no_gradient_keeps_the_best_grid_point(self):
        F = _well(0.333)
        val, arg = simplex_supremum(lambda X: (F(X), None), 2, 0.01,
                                    np.ones(2, bool))
        assert arg.tolist() == [0.33, 0.67] and val == _one(F)(arg)

    @pytest.mark.parametrize("F", [_well(0.333), lambda X: 0.0 * X[:, 0]],
                             ids=["well", "flat"])
    def test_grid_scan_goes_block_by_block(self, monkeypatch, F):
        # Blocks of GRID_BLOCK rows find the first best grid point, as one
        # call on the whole grid does, ties included.
        sizes = []

        def objective(X):
            sizes.append(len(X))
            return F(X), None
        whole = simplex_supremum(objective, 2, 0.01, np.ones(2, bool))
        monkeypatch.setattr(dp_module, "GRID_BLOCK", 7)
        sizes.clear()
        val, arg = simplex_supremum(objective, 2, 0.01, np.ones(2, bool))
        assert sizes == [7] * 14 + [3]
        assert val == whole[0] and arg.tolist() == whole[1].tolist()

    @pytest.mark.parametrize("spec", [
        LpEntropy(Dist(THREE, [0.5, 0.5, 0.0]), 2.0),
        Shortfall(Dist(THREE, [0.5, 0.5, 0.0]), PowerLoss(2.0))])
    def test_ascent_stays_on_the_support(self, spec):
        # The gradient points into the state mu does not charge, where alpha
        # is +inf; an ascent that may step there never leaves the grid
        # point (0.6, 0.4, 0).  The sup is over nu = (x, 1 - x, 0): a grid
        # over x, then a grid within one step of its best point.
        F = _well(0.7, m=3)
        run = sanov_limit(F, spec, [2], grid_step=0.1)
        lo, hi, best = 0.0, 1.0, -math.inf
        for _ in range(2):
            x = np.linspace(lo, hi, 100001)
            V = np.stack([x, 1.0 - x, np.zeros_like(x)], axis=1)
            vals = F(V) - penalty(V, spec)
            i = int(np.argmax(vals))
            best = max(best, float(vals[i]))
            lo, hi = x[max(i - 1, 0)], x[min(i + 1, x.size - 1)]
        assert run.argmax[2] == 0.0
        assert abs(run.target - best) <= 1e-9


class TestAscentGradients:
    """The Sanov and coupling ascents take one evaluator of values and
    gradients: every call covers at most the rows still running, never a
    stack of difference probes, and each evaluated point costs one inner
    solve of the penalty."""

    def _spy(self, monkeypatch):
        seen = []
        real = dp_module.pgd_max_simplex

        def spy(objective, x0, **kwargs):
            starts = 1 if np.ndim(x0) == 1 else len(x0)
            calls = {"starts": starts, "objective": []}
            seen.append(calls)

            def obj(X):
                calls["objective"].append(len(X))
                return objective(X)
            return real(obj, x0, **kwargs)
        monkeypatch.setattr(dp_module, "pgd_max_simplex", spy)
        return seen

    @pytest.mark.parametrize("spec", [
        s for s in three_state_specs() if not isinstance(s, SetIndicator)])
    def test_objective_never_sees_probe_stacks(self, monkeypatch, spec):
        seen = self._spy(monkeypatch)
        sanov_limit(_well(0.7, m=3), spec, [2])
        assert len(seen) == 1 and len(seen[0]["objective"]) >= 2
        assert max(seen[0]["objective"]) <= seen[0]["starts"]

    @pytest.mark.parametrize("spec, solve", [
        (three_state_specs()[3], "_robust_rows"),
        (three_state_specs()[2], "_shortfall_rows")])
    def test_one_inner_solve_per_point(self, monkeypatch, spec, solve):
        # The grid and every ascent point run the family's inner solve
        # once: values and gradient come from the same pass.
        seen = self._spy(monkeypatch)
        real, solved = getattr(penalties_module, solve), []

        def counted(V, *args):
            solved.append(len(V))
            return real(V, *args)
        monkeypatch.setattr(penalties_module, solve, counted)
        sanov_limit(_well(0.7, m=3), spec, [2], grid_step=0.1)
        grid = len(simplex_grid(3, 0.1))
        assert solved == [grid] + seen[0]["objective"]

    def test_set_indicator_makes_no_ascent(self, monkeypatch):
        seen = self._spy(monkeypatch)
        g = (Dist(TWO, [0.2, 0.8]), Dist(TWO, [0.7, 0.3]))
        sanov_limit(_well(0.5), SetIndicator(g), [2])
        assert seen == []
