import itertools
import math

import numpy as np
import pytest

from oracles import (ProductDist, entropic_risk, expand_dense,
                     greedy_optimizer_from_trace, iid_empirical_expectation,
                     risk, symmetric_from_dense, tensor_penalty,
                     tensor_penalty_batch, type_rank)
import sanovdual.dp as dp_module
import sanovdual.optim as optim_module
import sanovdual.penalties as penalties_module
import sanovdual.risk as risk_module
from sanovdual.dp import (SimplexFunction, backward_value_dense,
                          backward_value_symmetric, backward_values_symmetric,
                          sanov_limit, simplex_supremum, superhedge,
                          symmetric_terminal, transport_control_value)
from sanovdual.losses import ExpLoss, PowerLoss
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport, penalty)
from sanovdual.risk import risk_rows
from sanovdual.spaces import Dist, SpaceError, type_index

UNIF2 = Dist.uniform(2)
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
    g1, g2 = Dist([0.2, 0.8]), Dist([0.7, 0.3])
    return [
        RelativeEntropy(UNIF2),
        LpEntropy(UNIF2, 2.0),
        Shortfall(UNIF2, PowerLoss(2.0)),
        Robust((g1, g2)),
        SetIndicator((g1, g2)),
        Transport(UNIF2, np.array([[0.0, 1.5], [0.8, 0.0]])),
    ]


def three_state_specs():
    mu = Dist([0.5, 0.3, 0.2])
    g = (Dist([0.6, 0.25, 0.15]), Dist([0.3, 0.4, 0.3]))
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
    mu = Dist([0.1, 0.2, 0.3, 0.4])
    g = (Dist([0.4, 0.3, 0.2, 0.1]), Dist.uniform(4))
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
        w = rng.dirichlet(np.ones(m)) + 0.1
        mu = Dist(w / w.sum())
        f = rng.normal(size=m ** n)
        v, _ = backward_value_dense(f, RelativeEntropy(mu))
        want = math.log(float(np.dot(ProductDist.iid(mu, n).tensor,
                                     np.exp(f - f.max())))) + f.max()
        assert abs(v - want) <= 1e-9

    def test_singleton_set_indicator_is_expectation(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=4)
        v, _ = backward_value_dense(f, SetIndicator((UNIF2,)))
        want = float(np.dot(ProductDist.iid(UNIF2, 2).tensor, f))
        assert abs(v - want) <= 1e-12

    def test_robust_matches_product_enumeration(self):
        # sup over laws whose stage kernels pick hull vertices: |M|^(1+m)
        # product-form candidates carry the max of log int e^f.
        rng = np.random.default_rng(2)
        g = (Dist([0.2, 0.8]), Dist([0.7, 0.3]))
        spec = Robust(g)
        for _ in range(10):
            f = rng.normal(size=4).reshape(2, 2)
            v, _ = backward_value_dense(f, spec)
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
            backward_value_dense(np.zeros(2 ** 25), RelativeEntropy(UNIF2))

    def test_monotone_in_data(self):
        rng = np.random.default_rng(3)
        for spec in all_specs():
            f = rng.normal(size=4)
            g = f - np.abs(rng.normal(size=4))
            vf, _ = backward_value_dense(f, spec)
            vg, _ = backward_value_dense(g, spec)
            assert vf >= vg - 1e-10

    def test_translation(self):
        rng = np.random.default_rng(4)
        for spec in all_specs():
            f = rng.normal(size=4)
            c = 0.83
            v1, _ = backward_value_dense(f, spec)
            v2, _ = backward_value_dense(f + c, spec)
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
            v, stages = backward_value_dense(f, spec, keep_trace=True)
            alphas = tensor_penalty_batch(draws, n, 2, spec)
            vals = draws @ f - alphas
            vals = vals[np.isfinite(vals)]
            if vals.size:
                assert v >= vals.max() - 1e-7
            nu_star = greedy_optimizer_from_trace(stages, spec)
            achieved = float(np.dot(nu_star.tensor, f)) - \
                tensor_penalty(nu_star, spec)
            assert achieved >= v - 1e-6


class TestSymmetricRecursion:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_dense(self, n):
        rng = np.random.default_rng(6)
        for m, specs in ((2, all_specs()), (3, three_state_specs())):
            for spec in specs:
                for _ in range(4):
                    coefs = rng.normal(size=m)
                    quad = rng.normal()

                    def F(nu):
                        return nu @ coefs + quad * nu[:, 0] ** 2

                    term = _terminal(F, n, m)
                    v_sym = backward_value_symmetric(term, n, spec)
                    dense = expand_dense(n, m, term)
                    v_den, _ = backward_value_dense(dense, spec)
                    assert abs(v_sym - v_den) <= 1e-8

    def test_linear_f_classical_factorizes(self):
        # F(nu) = int fbar dnu: the recursion factorizes, v_n = rho(fbar)
        rng = np.random.default_rng(7)
        fbar = rng.normal(size=2)
        spec = RelativeEntropy(UNIF2)
        want = entropic_risk(fbar, UNIF2)
        for n in (1, 2, 5, 17):
            term = symmetric_terminal(_linear(fbar), n)
            v = backward_value_symmetric(term, n, spec) / n
            assert abs(v - want) <= 1e-10

    def test_constant_f(self):
        for spec in all_specs():
            if isinstance(spec, Transport):
                continue  # rho(0) = 0 only for zero-diagonal transport
            for n in (1, 3, 8):
                term = _terminal(SimplexFunction("constant", 2, value=0.37),
                                 n, 2)
                v = backward_value_symmetric(term, n, spec) / n
                assert abs(v - 0.37) <= 1e-9

    @pytest.mark.parametrize("grouped", [False, True],
                             ids=["states", "groups"])
    @pytest.mark.parametrize("m, specs", [
        (2, all_specs()), (3, three_state_specs())], ids=["m2", "m3"])
    def test_schedule_in_lockstep_is_bit_identical(self, m, specs,
                                                   grouped):
        # One descent for an unsorted schedule with a repeat equals, bit for
        # bit, each entry's own recursion ranked level by level by the
        # oracle, and the one-entry call.  Ungrouped, every state is its
        # own group; grouped, a well on the last state lumps the others.
        if grouped:
            F = _well(0.3, m=m, coordinate=m - 1)
            labels = F.labels

            def term(n):
                return symmetric_terminal(F, n)
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
                    assert v == backward_value_symmetric(V, n, spec)
                for k in range(n - 1, -1, -1):
                    V = risk_rows(spec, V[type_rank(type_index(k, g)[:, None]
                                                    + step)])
                assert v == float(V[0])

    @pytest.mark.parametrize("m, specs", [
        (3, three_state_specs()), (4, four_state_specs())],
        ids=["m3", "m4"])
    def test_lumped_values_equal_the_per_state_recursion(self, m, specs):
        # A well on any coordinate lumps the other states, a constant all
        # of them; each v_n equals, bit for bit, the recursion over the
        # classes of the states themselves (identity labels).
        Fs = [SimplexFunction("constant", m, value=0.37)] + [
            _well(0.4, -2.0, m, kind, c)
            for kind in ("square_well", "abs_well") for c in range(m)]
        schedule = [5, 9]
        for spec in specs:
            for F in Fs:
                lumped = backward_values_symmetric(
                    lambda n: symmetric_terminal(F, n), schedule,
                    F.labels, spec)
                per_state = backward_values_symmetric(
                    lambda n: _terminal(F, n, m), schedule, np.arange(m),
                    spec)
                assert lumped == per_state

    def test_lumped_work_count(self, monkeypatch):
        # A 3-state well has two groups, so level j gathers the j classes
        # of level j - 1, not C(j + 1, 2): one risk_rows call per level,
        # on the stacked rows of the entries started, C(31, 2) + C(61, 2)
        # rows in all; the target then adds one row, its upper bound.
        rows = []
        real = dp_module.risk_rows

        def spy(spec, F, *args):
            rows.append(len(F))
            return real(spec, F, *args)
        monkeypatch.setattr(dp_module, "risk_rows", spy)
        sanov_limit(_well(0.7, m=3), three_state_specs()[0], [30, 60])
        assert rows == [j * (1 + (j <= 30)) for j in range(60, 0, -1)] + [1]
        assert sum(rows) == 465 + 1830 + 1

    def test_rejects_asymmetric_dense_input(self):
        f = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(SpaceError, match="permutation"):
            symmetric_from_dense(f, 2, 2)

    @pytest.mark.parametrize("values", [np.zeros(2), np.zeros(4),
                                        np.zeros((3, 1))],
                             ids=["short", "long", "column"])
    def test_values_cover_every_type_class(self, values):
        # n = 2 draws on 2 states make three type classes, one value each
        with pytest.raises(SpaceError, match="every type class exactly"):
            backward_value_symmetric(values, 2, RelativeEntropy(UNIF2))


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
        g = (Dist([0.2, 0.8]), Dist([0.7, 0.3]))
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

    def test_positive_scale_matches_a_brute_force_grid(self):
        # A convex F: sup over s = nu_0 of (s - 0.7)^2 - I(s), where
        # I(s) = s log(s / 0.5) + (1 - s) log((1 - s) / 0.5) is the least
        # relative entropy to mu at nu_0 = s, on 2,000,001 points of s.
        mu = Dist([0.5, 0.3, 0.2])
        run = sanov_limit(_well(0.7, 1.0, m=3), RelativeEntropy(mu), [2])
        s = np.linspace(0.0, 1.0, 2000001)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.nan_to_num(s * np.log(s / 0.5)) + \
                np.nan_to_num((1.0 - s) * np.log((1.0 - s) / 0.5))
        psi = (s - 0.7) ** 2 - rate
        assert not run.certified and run.upper_bound is None
        assert abs(run.target - psi.max()) <= 1e-12
        assert abs(run.argmax[0] - s[np.argmax(psi)]) <= 1e-6
        nu = np.asarray(run.argmax)
        assert run.target == _one(_well(0.7, 1.0, m=3))(nu) - \
            penalty(nu, RelativeEntropy(mu))

    @pytest.mark.parametrize("spec", [
        RelativeEntropy(Dist([0.5, 0.5, 0.0])),
        Transport(Dist([0.5, 0.5, 0.0]),
                  np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf],
                            [2.0, 1.0, 0.0]]))],
        ids=["RelativeEntropy", "Transport"])
    def test_positive_scale_never_reaches_an_unreachable_level(self, spec):
        # mu puts no mass on state 2, and no law with nu_2 > 0 has a finite
        # penalty, so the sup of 1e4 (nu_2 - 0.1)^2 - alpha is F(mu) = 100,
        # attained at mu; a search over nu_2 that took an unreachable level
        # as cheap reported 7,100.
        run = sanov_limit(_well(0.1, 1e4, m=3, coordinate=2), spec, [2])
        assert abs(run.target - 100.0) <= 1e-12
        assert run.argmax == [0.5, 0.5, 0.0]
        if isinstance(spec, Transport):
            assert run.coupling_target == run.target

    def test_positive_scale_transport_keeps_its_coupling_target(self):
        # The coupling target is F(argmax) less the cost of an explicit
        # coupling to argmax, so it lies at most target; here they meet.
        mu = Dist([0.5, 0.3, 0.2])
        cost = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        spec = Transport(mu, cost)
        for kind in ("square_well", "abs_well"):
            F = _well(0.4, 2.0, m=3, kind=kind, coordinate=1)
            run = sanov_limit(F, spec, [2])
            nu = np.asarray(run.argmax)
            assert not run.certified
            assert run.target == _one(F)(nu) - penalty(nu, spec)
            assert abs(run.coupling_target - run.target) <= 1e-12
            grid = type_index(40, 3) / 40.0
            assert (F(grid) - penalty(grid, spec)).max() <= run.target + 1e-12

    @pytest.mark.parametrize("scale", [-1e36, -1e40])
    def test_wide_bracket_is_narrowed_to_the_tolerance(self, scale):
        # The search's step count grows with the bracket: a fixed cap of
        # 24 steps left a t-cell too wide for the gap gate at these
        # scales.  As the scale grows the sup tends to -I(0.35), the least
        # relative entropy to mu at nu_1 = 0.35.
        mu = Dist([0.5, 0.3, 0.2])
        run = sanov_limit(_well(0.35, scale, m=3, coordinate=1),
                          RelativeEntropy(mu), [2])
        want = -(0.35 * math.log(0.35 / 0.3) + 0.65 * math.log(0.65 / 0.7))
        assert run.certified
        assert abs(run.upper_bound - run.target) <= \
            dp_module.GAP_TOL * (1.0 + abs(run.target))
        assert abs(run.target - want) <= 1e-12

    @pytest.mark.parametrize("kind", ["square_well", "abs_well"])
    @pytest.mark.parametrize("spec", four_state_specs()[:4] +
                             four_state_specs()[5:],
                             ids=lambda s: type(s).__name__)
    def test_dual_bounds_meet_above_the_grid(self, spec, kind):
        # On 4 states the two bounds meet within 1e-12 (1 + |target|),
        # and no point of the simplex grid beats the target.
        F = _well(0.35, -2.0, m=4, kind=kind, coordinate=1)
        run = sanov_limit(F, spec, [2])
        assert run.certified
        assert abs(run.upper_bound - run.target) <= \
            1e-12 * (1.0 + abs(run.target))
        grid = type_index(20, 4) / 20.0
        assert (F(grid) - penalty(grid, spec)).max() <= run.target + 1e-12
        nu = np.asarray(run.argmax)
        assert abs(_one(F)(nu) - penalty(nu, spec) - run.target) <= 1e-15

    def test_finite_n_lower_bound(self):
        # v_n >= E_{nu^n}[F o L_n] - alpha(nu) on a grid of product laws
        F = _well(0.7)
        spec = RelativeEntropy(UNIF2)
        run = sanov_limit(F, spec, [5, 10])
        for n, v in zip(run.schedule, run.values):
            for w in np.linspace(0.05, 0.95, 19):
                nu = np.array([w, 1 - w])
                lower = iid_empirical_expectation(_one(F), nu, n) - \
                    penalty(Dist(nu), spec)
                assert v >= lower - 1e-9


class TestSuperhedge:
    def test_one_step(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=2)
        cert = superhedge(f, RelativeEntropy(UNIF2))
        want = f - entropic_risk(f, UNIF2)
        np.testing.assert_allclose(cert.increments[0], want, atol=1e-12)
        assert abs(risk(cert.increments[0], RelativeEntropy(UNIF2))) <= 1e-9

    def test_classical_two_steps(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = rng.normal(size=4)
            cert = superhedge(f, RelativeEntropy(UNIF2))
            assert cert.residual_max <= 1e-10
            assert cert.slice_risk_max <= 1e-9

    def test_shortfall_slices_hit_unit_level(self):
        # at the optimum each increment slice satisfies int l(Y) dmu = 1
        rng = np.random.default_rng(11)
        loss = PowerLoss(2.0)
        spec = Shortfall(UNIF2, loss)
        for _ in range(5):
            f = rng.normal(size=4)
            cert = superhedge(f, spec)
            for inc in cert.increments:
                rows = inc.reshape(-1, 2)
                for row in rows:
                    level = float(np.dot(UNIF2.weights, loss.value(row)))
                    assert abs(level - 1.0) <= 1e-7

    def test_shortfall_root_work_count(self, monkeypatch):
        # Root finds start at each row's mu-mean floor: a seeded 2^16
        # field evaluates G on 685,785 rows in all, against 896,758 from
        # the cold bracket [min f - 1, max f + 1].
        rows, real = [], penalties_module.newton_nonincreasing

        def counted(G, *args):
            def G_counted(m):
                rows.append(np.size(m))
                return G(m)
            return real(G_counted, *args)
        monkeypatch.setattr(penalties_module, "newton_nonincreasing", counted)
        f = np.random.default_rng(1).normal(size=2 ** 16)
        cert = superhedge(f, Shortfall(UNIF2, PowerLoss(2.0)))
        assert cert.residual_max <= 1e-10 and cert.slice_risk_max <= 1e-9
        assert sum(rows) <= 690_000


class TestTransportControl:
    def test_forced_diagonal(self):
        rng = np.random.default_rng(12)
        f = rng.normal(size=4)
        cost = np.full((2, 2), math.inf)
        np.fill_diagonal(cost, 0.0)
        got = transport_control_value(f, UNIF2, cost)
        want = float(np.dot(ProductDist.iid(UNIF2, 2).tensor, f))
        assert abs(got - want) <= 1e-12

    def test_zero_cost_gives_max(self):
        rng = np.random.default_rng(13)
        f = rng.normal(size=8)
        got = transport_control_value(f, UNIF2, np.zeros((2, 2)))
        assert abs(got - f.max()) <= 1e-12

    def test_agrees_with_recursion(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            cost = rng.uniform(0, 2, (2, 2))
            f = rng.normal(size=4)
            v1, _ = backward_value_dense(f, Transport(UNIF2, cost))
            v2 = transport_control_value(f, UNIF2, cost)
            assert abs(v1 - v2) <= 1e-10


class TestTransportLongrun:
    def test_linear_target_is_one_step_risk(self):
        rng = np.random.default_rng(15)
        fbar = rng.normal(size=2)
        run = sanov_limit(_linear(fbar), Transport(UNIF2, COST_TV),
                          [1, 2, 4])
        want = risk(fbar, Transport(UNIF2, COST_TV))
        assert abs(run.target - want) <= 1e-12
        assert abs(run.upper_bound - want) <= 1e-12
        assert abs(run.coupling_target - want) <= 1e-12

    def test_off_grid_optimum_from_both_bounds(self):
        # The optimum (0.7333, 0.0667, 0.2) is off every simplex grid; its
        # value is -19/60 in closed form.
        mu = Dist([0.5, 0.3, 0.2])
        cost = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        run = sanov_limit(_well(0.9, -3.0, m=3), Transport(mu, cost), [2],
                          grid_step=0.1)
        for value in (run.target, run.upper_bound, run.coupling_target):
            assert abs(value + 19.0 / 60.0) <= 1e-15
        assert abs(run.argmax[0] - 11.0 / 15.0) <= 1e-7

    def test_constant_target(self):
        run = sanov_limit(SimplexFunction("constant", 2, value=0.21),
                          Transport(UNIF2, COST_TV), [1, 3])
        assert abs(run.target - 0.21) <= 1e-9
        assert abs(run.coupling_target - 0.21) <= 1e-9

    def test_two_targets_agree(self):
        for F, mu, cost in [
            (_well(0.9, kind="abs_well"), UNIF2, COST_TV),
            # A forbidden cell and an optimum off the grid.
            (_well(0.2, -3.0), Dist([0.6, 0.4]),
             np.array([[0.0, 1.0], [math.inf, 0.0]])),
        ]:
            run = sanov_limit(F, Transport(mu, cost), [2, 4, 8])
            assert abs(run.target - run.coupling_target) <= 1e-6


class TestSimplexSupremum:
    def test_no_gradient_keeps_the_best_grid_point(self):
        F = _well(0.333)
        val, arg = simplex_supremum(F, 2, 0.01)
        assert arg.tolist() == [0.33, 0.67] and val == _one(F)(arg)

    @pytest.mark.parametrize("F", [_well(0.333), lambda X: 0.0 * X[:, 0]],
                             ids=["well", "flat"])
    def test_grid_scan_goes_block_by_block(self, monkeypatch, F):
        # Blocks of GRID_BLOCK rows find the first best grid point, as one
        # call on the whole grid does, ties included.
        sizes = []

        def objective(X):
            sizes.append(len(X))
            return F(X)
        whole = simplex_supremum(objective, 2, 0.01)
        monkeypatch.setattr(dp_module, "GRID_BLOCK", 7)
        sizes.clear()
        val, arg = simplex_supremum(objective, 2, 0.01)
        assert sizes == [7] * 14 + [3]
        assert val == whole[0] and arg.tolist() == whole[1].tolist()

    @pytest.mark.parametrize("spec", [
        LpEntropy(Dist([0.5, 0.5, 0.0]), 2.0),
        Shortfall(Dist([0.5, 0.5, 0.0]), PowerLoss(2.0))])
    def test_ascent_stays_on_the_support(self, spec):
        # mu does not charge the last state, where alpha is +inf; the sup
        # is over nu = (x, 1 - x, 0): a grid over x, then a grid within one
        # step of its best point.
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


class TestTargetWorkCount:
    """The dual target makes no simplex ascent, and a bounded number of
    ``maximizer_rows`` and ``risk_rows`` calls that the simplex grid's
    step does not change."""

    def _spy(self, monkeypatch, spec):
        calls = {"maximizer_rows": [], "risk_rows": [], "penalty_rows": []}
        for name in calls:
            real = getattr(type(spec), name)

            def spy(self, F, *args, _name=name, _real=real):
                calls[_name].append(len(F))
                return _real(self, F, *args)
            monkeypatch.setattr(type(spec), name, spy)

        def no_ascent(*args, **kwargs):
            raise AssertionError("a limit target ran the simplex ascent")
        for module in (optim_module, risk_module):
            monkeypatch.setattr(module, "pgd_max_simplex", no_ascent)
        return calls

    @pytest.mark.parametrize("F", [
        _well(0.7, m=3), _well(0.4, -3.0, m=3, kind="abs_well"),
        _linear([0.3, -1.0, 2.0]), SimplexFunction("constant", 3, value=1.0)],
        ids=["square_well", "abs_well", "linear", "constant"])
    @pytest.mark.parametrize("spec", [
        s for s in three_state_specs() if not isinstance(s, SetIndicator)],
        ids=lambda s: type(s).__name__)
    def test_bounded_calls_without_ascent(self, monkeypatch, spec, F):
        # Schedule [1] makes one risk_rows call in the recursion; the
        # target adds one row for its upper bound and one penalty call of
        # three rows.  A well's search takes calls of SEARCH_POINTS rows,
        # 5 on these brackets of width <= 6.
        calls, counts = self._spy(monkeypatch, spec), []
        for step in (0.1, 0.01):
            assert sanov_limit(F, spec, [1], grid_step=step).certified
            counts.append({k: v.copy() for k, v in calls.items()})
            for v in calls.values():
                v.clear()
        assert counts[0] == counts[1]
        calls = counts[0]
        assert calls["risk_rows"] == [1, 1]
        assert calls["penalty_rows"] == [3]
        if F.kind in ("linear", "constant"):
            assert calls["maximizer_rows"] == [1]
        else:
            assert 1 <= len(calls["maximizer_rows"]) <= 5
            assert set(calls["maximizer_rows"]) == {dp_module.SEARCH_POINTS}

    @pytest.mark.parametrize("kind", ["square_well", "abs_well"])
    @pytest.mark.parametrize("spec", [
        s for s in three_state_specs() if not isinstance(s, SetIndicator)],
        ids=lambda s: type(s).__name__)
    def test_positive_scale_calls_are_batched(self, monkeypatch, spec, kind):
        # Each step of the positive-scale search is one risk_rows call of
        # SEARCH_POINTS rows, 6 on these brackets of width 4; the target
        # adds one maximizer_rows row and one penalty row.
        F = _well(0.4, 2.0, m=3, kind=kind)
        calls, counts = self._spy(monkeypatch, spec), []
        for step in (0.1, 0.01):
            assert not sanov_limit(F, spec, [1], grid_step=step).certified
            counts.append({k: v.copy() for k, v in calls.items()})
            for v in calls.values():
                v.clear()
        assert counts[0] == counts[1]
        calls = counts[0]
        assert calls["risk_rows"][0] == 1
        assert 1 <= len(calls["risk_rows"][1:]) <= 6
        assert set(calls["risk_rows"][1:]) == {dp_module.SEARCH_POINTS}
        assert calls["maximizer_rows"] == [1]
        assert calls["penalty_rows"] == [1]

    def test_set_indicator_scans_the_grid_alone(self, monkeypatch):
        g = (Dist([0.2, 0.8]), Dist([0.7, 0.3]))
        spec = SetIndicator(g)
        calls = self._spy(monkeypatch, spec)
        run = sanov_limit(_well(0.5), spec, [2], grid_step=0.01)
        assert not run.certified and run.upper_bound is None
        assert calls["maximizer_rows"] == []
        assert calls["penalty_rows"] == [101]
