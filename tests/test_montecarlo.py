import dataclasses
import math

import numpy as np
import pytest

from oracles import check_integrability, saa_exact_exceedance
from sanovdual import laws, montecarlo
from sanovdual.laws import (FiniteSupportLaw, LogNormalLaw, ParetoLaw,
                            StudentTLaw)
from sanovdual.montecarlo import (GrowthValidationError, RademacherIncrements,
                                  SAAInstance, ScriptedIncrements,
                                  UniformIncrements, azuma_experiment,
                                  conjugate_scalar, estimate_tail,
                                  mann_kendall_upward_p, rate_fit, rep_rng,
                                  saa_run,
                                  wilson_interval, argmin_tracking)
from sanovdual.quadrature import expect

RADEMACHER = FiniteSupportLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def exact_binomial_tail(n, r):
    """P(mean of n fair +-1 steps >= r), exact."""
    k_min = math.ceil((n + r * n) / 2.0)
    return sum(math.comb(n, k) for k in range(k_min, n + 1)) / 2.0 ** n


def binomial_lower_quantile(k, p, level):
    """The smallest c with P(Binomial(k, p) <= c) >= level."""
    cdf = 0.0
    for c in range(k + 1):
        cdf += math.comb(k, c) * p ** c * (1 - p) ** (k - c)
        if cdf >= level:
            return c
    return k


class TestSeeding:
    def test_replication_streams_differ(self):
        a = rep_rng(42, 0).random(4)
        b = rep_rng(42, 1).random(4)
        assert not np.allclose(a, b)

    def test_replication_streams_reproduce(self):
        assert np.array_equal(rep_rng(7, 3).random(8), rep_rng(7, 3).random(8))

    def test_each_call_is_a_new_generator(self):
        held = rep_rng(7, 3)
        first = held.random(3)
        again = rep_rng(7, 3)
        assert again is not held
        assert again.bit_generator is not held.bit_generator
        assert np.array_equal(again.random(3), first)
        assert np.array_equal(held.random(5), rep_rng(7, 3).random(8)[3:])

    def test_seeds_do_not_share_streams(self):
        assert not np.array_equal(rep_rng(0, 1).random(8),
                                  rep_rng(1, 0).random(8))


class TestSamplers:
    @pytest.mark.parametrize("sampler", [
        ParetoLaw(2.5), LogNormalLaw(0.8), StudentTLaw(5.0),
    ])
    def test_centering_within_three_se(self, sampler):
        x = sampler.draw(rep_rng(0, 0), 1_000_000)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean()) <= 3 * se

    @pytest.mark.parametrize("law", [ParetoLaw(2.5), ParetoLaw(1.2),
                                     ParetoLaw(3.0, centered=False)])
    def test_pareto_is_the_inverse_cdf_on_uniforms(self, law):
        x = law.draw(rep_rng(5, 1), (40, 7))
        u = rep_rng(5, 1).random((40, 7))
        assert np.array_equal(x, (1.0 - u) ** (-1.0 / law.a) - law.shift)
        assert np.isfinite(x).all()

    def test_pareto_uses_analytic_mean(self):
        assert abs(ParetoLaw(2.5).shift - 2.5 / 1.5) <= 1e-15
        assert ParetoLaw(2.5, centered=False).shift == 0.0

    def test_finite_sampler_distribution(self):
        s = FiniteSupportLaw(np.array([1.0, 5.0]), np.array([0.25, 0.75]))
        x = s.draw(rep_rng(1, 0), 200_000)
        assert abs((x == 5.0).mean() - 0.75) <= 0.01


class TestEstimateTail:
    def test_degenerate_sampler_never_hits(self):
        s = FiniteSupportLaw(np.array([0.0]), np.array([1.0]))
        est = estimate_tail(s, 50, 0.5, 2000, seed=0)
        assert est.hits == 0 and est.p_hat == 0.0

    def test_matches_exact_binomial(self):
        # Seeds 0..K-1 draw independent streams, so the number of 95% Wilson
        # intervals that cover the exact tail is Binomial(K, 0.95) at
        # nominal coverage; pass at its 0.1% lower quantile.
        n, r, seeds = 100, 0.2, 60
        p = exact_binomial_tail(n, r)
        need = binomial_lower_quantile(seeds, 0.95, 1e-3)
        assert need == 51
        cover = sum(est.lo <= p <= est.hi for est in (
            estimate_tail(RADEMACHER, n, r, 20_000, seed=seed)
            for seed in range(seeds)))
        assert cover >= need

    def test_deterministic_and_thread_invariant(self):
        a = estimate_tail(RADEMACHER, 50, 0.3, 3000, seed=5)
        b = estimate_tail(RADEMACHER, 50, 0.3, 3000, seed=5)
        assert a == b

    def test_replication_floor(self):
        with pytest.raises(ValueError):
            estimate_tail(RADEMACHER, 10, 0.1, 999, seed=0)

    def test_vector_samples_use_norm(self):
        atoms = np.array([[1.0, 0.0], [-1.0, 0.0]])
        s = FiniteSupportLaw(atoms, np.array([0.5, 0.5]))
        est = estimate_tail(s, 4, 0.99, 2000, seed=1)
        # ||mean|| >= 0.99 iff all four draws agree: prob 2 * (1/16)
        lo, hi = wilson_interval(est.hits, est.replications)
        assert lo <= 0.125 <= hi


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 100)
        assert lo <= 0.07 <= hi

    def test_coverage_on_exact_binomial(self):
        # >= 93% of intervals should cover the true p across 300 runs
        n, r = 20, 0.3
        p_true = exact_binomial_tail(n, r)
        cover = 0
        runs = 300
        for k in range(runs):
            est = estimate_tail(RADEMACHER, n, r, 1000, seed=10_000 + k)
            cover += est.lo <= p_true <= est.hi
        assert cover / runs >= 0.93


class TestRateFit:
    def test_exact_power_law(self):
        ns = [10, 100, 1000]
        fit = rate_fit(ns, [n ** -1.5 for n in ns])
        assert abs(fit.slope + 1.5) <= 1e-12
        assert fit.status == "ok"

    def test_exponential_decay_is_steeper_than_polynomial(self):
        # light-tail oracle: binomial tails fall faster than n^(1-q)
        ns = [20, 40, 80, 160]
        fit = rate_fit(ns, [exact_binomial_tail(n, 0.3) for n in ns])
        assert fit.status == "ok"
        assert fit.slope < (1.0 - 2.0)

    def test_zero_hits_excluded(self):
        fit = rate_fit([10, 20, 40, 80], [0.1, 0.0, 0.025, 0.0125])
        assert fit.points_used == 3

    def test_inconclusive(self):
        fit = rate_fit([10, 20, 40], [0.1, 0.0, 0.0])
        assert fit.status == "inconclusive"

    @pytest.mark.parametrize("ns,p_hats", [
        ([10, 10, 10], [0.1, 0.2, 0.3]),
        ([10, 20, 10, 20], [0.1, 0.05, 0.12, 0.06]),
        ([10, 20, 40, 10], [0.1, 0.05, 0.0, 0.12])])
    def test_fewer_than_three_distinct_sizes_with_hits(self, ns, p_hats):
        # Repeated sizes give no spread in log n to fit a slope on.
        fit = rate_fit(ns, p_hats)
        assert fit.status == "inconclusive" and math.isnan(fit.slope)

    def test_a_repeated_size_among_three_distinct_ones(self):
        fit = rate_fit([10, 10, 100, 1000], [10 ** -1.5] * 2 +
                       [100 ** -1.5, 1000 ** -1.5])
        assert fit.status == "ok" and fit.points_used == 4
        assert abs(fit.slope + 1.5) <= 1e-12


class TestMannKendall:
    def test_monotone_directions(self):
        assert mann_kendall_upward_p([1, 2, 3, 4, 5, 6]) < 0.05
        assert mann_kendall_upward_p([6, 5, 4, 3, 2, 1]) > 0.9

    def test_flat_is_neutral(self):
        assert abs(mann_kendall_upward_p([1.0, 1.0, 1.0, 1.0]) - 0.5) <= 0.5


def make_finite_instance(epsilon=0.2):
    return SAAInstance(
        decisions=np.array([0.0, 1.0]),
        loss=lambda x, w: np.abs(w - x),
        law=FiniteSupportLaw(np.array([0.0, 1.0, 2.0]),
                          np.array([0.6, 0.3, 0.1])),
        epsilon=epsilon, q=2.0,
    )


class TestSAA:
    def test_true_value_exact(self):
        inst = make_finite_instance()
        # E|w| = 0.3 + 0.2 = 0.5; E|w - 1| = 0.6 + 0.1 = 0.7
        assert abs(inst.true_value() - 0.5) <= 1e-12
        ev = inst.expected_losses()
        assert inst.decisions[int(np.argmin(ev))] == 0.0

    def test_loss_independent_of_w_never_exceeds(self):
        inst = SAAInstance(
            decisions=np.array([0.0, 1.0]),
            loss=lambda x, w: np.full_like(w, 1.0 + x),
            law=FiniteSupportLaw(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
            epsilon=0.05, q=2.0)
        run = saa_run(inst, [2, 4], 2000, seed=0)
        assert all(e.hits == 0 for e in run.estimates)

    def test_exact_enumeration_matches_monte_carlo(self):
        inst = make_finite_instance()
        p_exact = saa_exact_exceedance(inst, 3)
        run = saa_run(inst, [3], 20_000, seed=1)
        est = run.estimates[0]
        assert est.lo <= p_exact <= est.hi

    def test_integrability_check(self):
        inst = SAAInstance(
            decisions=np.linspace(0, 2, 5),
            loss=lambda x, w: (x - 1.0) ** 2 + x * w,
            law=ParetoLaw(2.5), epsilon=0.5, q=2.0)
        val = check_integrability(inst, seed=0, draws=50_000)
        assert math.isfinite(val)

    def test_quadrature_value_for_closed_law(self):
        # E[(x-1)^2 + x W] = (x-1)^2 for centered W: V(mu) = 0 at x = 1
        inst = SAAInstance(
            decisions=np.linspace(0, 2, 21),
            loss=lambda x, w: (x - 1.0) ** 2 + x * w,
            law=ParetoLaw(2.5), epsilon=0.5, q=2.0)
        assert abs(inst.true_value()) <= 1e-9

    def test_quadrature_rows_are_the_decisions(self, monkeypatch):
        # One quadrature for every decision; each row agrees with its own
        # scalar integral up to the shared tail walk.
        inst = SAAInstance(
            decisions=np.linspace(0, 2, 5),
            loss=lambda x, w: (x - 1.0) ** 2 + np.abs(w - x),
            law=StudentTLaw(4.0), epsilon=0.5, q=2.0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return expect(*args, **kwargs)
        monkeypatch.setattr(laws, "_quad_expect", counted)
        got = inst.expected_losses()
        assert len(calls) == 1 and got.shape == (5,)
        for value, x in zip(got, inst.decisions):
            want = expect(inst.law.pdf, *inst.law.support,
                          lambda w: inst.loss(x, w), centre=inst.law.centre)
            assert abs(value - want) <= 1e-13 * abs(want)


class TestArgminTracking:
    def test_unique_minimizer_converges(self):
        inst = SAAInstance(
            decisions=np.linspace(0, 2, 5),
            loss=lambda x, w: (x - 1.0) ** 2 + 0.2 * x * w,
            law=FiniteSupportLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            epsilon=0.05, q=2.0,
            growth=lambda d: 0.9 * d * d)
        run = argmin_tracking(inst, [10, 200], 2000, seed=2)
        assert run.target == 1.0     # the argmin of mu
        assert run.estimates[-1].p_hat <= run.estimates[0].p_hat

    def test_ties_refused(self):
        inst = SAAInstance(
            decisions=np.array([0.0, 1.0]),
            loss=lambda x, w: np.abs(w),  # decision-independent
            law=FiniteSupportLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5])),
            epsilon=0.1, q=2.0, growth=lambda d: d * d)
        with pytest.raises(GrowthValidationError):
            argmin_tracking(inst, [5], 1000, seed=0)

    def test_missing_growth_refused(self):
        inst = make_finite_instance()
        with pytest.raises(GrowthValidationError):
            argmin_tracking(inst, [5], 1000, seed=0)

    def test_heavy_tail_slope_within_budget(self):
        # uniformly convex quadratic objective with heavy-tailed noise:
        # the exceedance rate slope stays within (1-q) + 0.25
        inst = SAAInstance(
            decisions=np.linspace(0.0, 2.0, 11),
            loss=lambda x, w: (x - 1.0) ** 2 + 0.3 * x * w,
            law=ParetoLaw(2.5),
            epsilon=0.09, q=2.0,
            growth=lambda d: 0.9 * d * d)
        run = argmin_tracking(inst, [10, 20, 40, 80], 60_000, seed=4)
        assert run.fit.status == "ok"
        assert run.fit.slope <= run.slope_budget
        assert run.mann_kendall_p > 0.05


PLANAR = FiniteSupportLaw(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]]),
                          np.array([0.4, 0.4, 0.2]))


def tail_stream(n):
    return montecarlo._stream(montecarlo._TAIL, n)


def consecutive_rows(draw, seed, stream, rows, n):
    """``rows`` consecutive (1, n) draws from the (seed, stream) generator."""
    rng = rep_rng(seed, stream)
    return np.concatenate([draw(rng, (1, n)) for _ in range(rows)])


class TestReplicationBlocks:
    """Blocks change how replications are reduced, never what they draw:
    block rows are consecutive (1, n) draws of one (seed, stream)
    generator."""

    @staticmethod
    def one_row_blocks(monkeypatch):
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS",
                            dict.fromkeys(montecarlo._BLOCK_ELEMENTS, 1))

    @staticmethod
    def assert_rows_are_streams(monkeypatch, draw):
        # Rows of 7, not a multiple of 4: a Philox buffer or a spare 32-bit
        # half left over from one row must carry into the next, exactly as
        # in consecutive draws.  A seed above 2^63 keys with the top bit set.
        seed = 2 ** 63 + 11
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS",
                            {montecarlo._TAIL: 100})
        blocks = [b.copy() for b in montecarlo._replication_blocks(
            draw, 7, 250, seed, montecarlo._TAIL)]
        assert len(blocks) > 1 and len(blocks[0]) > 1
        want = consecutive_rows(draw, seed, tail_stream(7), 250, 7)
        assert np.array_equal(np.concatenate(blocks), want)

    @pytest.mark.parametrize("law", [ParetoLaw(2.5), PLANAR, StudentTLaw(5.0),
                                     LogNormalLaw(0.8), RADEMACHER])
    def test_rows_are_the_replication_streams(self, monkeypatch, law):
        self.assert_rows_are_streams(monkeypatch, law.draw)

    @pytest.mark.parametrize("draw", [
        np.random.Generator.random,         # the martingale uniforms
        lambda rng, size, out=None: rng.integers(0, 7, size, dtype=np.int32),
    ], ids=["random", "int32"])
    def test_raw_rows_are_the_replication_streams(self, monkeypatch, draw):
        self.assert_rows_are_streams(monkeypatch, draw)

    @staticmethod
    def philox_keys(monkeypatch):
        """The key of every Philox built from now on, in order."""
        keys = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            keys.append(kwargs["key"])
            return philox(*args, **kwargs)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        return keys

    def test_one_generator_per_pass(self, monkeypatch):
        keys = self.philox_keys(monkeypatch)
        self.one_row_blocks(monkeypatch)
        for _ in montecarlo._replication_blocks(np.random.Generator.random, 5,
                                                1000, 3, montecarlo._TAIL):
            pass
        assert keys == [3 << 64 | tail_stream(5)]

    def test_schedule_points_and_experiments_get_their_own_keys(
            self, monkeypatch):
        keys = self.philox_keys(monkeypatch)
        seed = 9
        estimate_tail(RADEMACHER, 10, 0.5, 1000, seed)
        estimate_tail(RADEMACHER, 20, 0.5, 1000, seed)
        instance = make_finite_instance()
        instance.growth = lambda d: 0.1 * d
        saa_run(instance, [10, 20], 1000, seed)
        argmin_tracking(instance, [10, 20], 1000, seed)
        azuma_experiment(RademacherIncrements(), 0.5, 10, 1000, seed)
        assert len(keys) == 7 and len(set(keys)) == 7
        assert all(k >> 64 == seed for k in keys)

    def test_no_replications_refused(self):
        with pytest.raises(ValueError):
            saa_run(make_finite_instance(), [3], 0, seed=0)

    @pytest.mark.parametrize("run", [
        lambda reps: estimate_tail(RADEMACHER, 10, 0.1, reps, 0),
        lambda reps: saa_run(make_finite_instance(), [3], reps, 0),
        lambda reps: argmin_tracking(dataclasses.replace(
            make_finite_instance(), growth=lambda d: 0.1 * d), [3], reps, 0),
        lambda reps: azuma_experiment(RademacherIncrements(), 0.5, 10, reps,
                                      0),
    ], ids=["mean_tail", "saa_value", "saa_argmin", "azuma"])
    def test_every_experiment_keeps_the_floor(self, run):
        floor = montecarlo.MIN_REPLICATIONS
        run(floor)
        with pytest.raises(ValueError, match=f"at least {floor} "):
            run(floor - 1)

    @pytest.mark.parametrize("law, r", [(ParetoLaw(2.5), 0.3),
                                        (RADEMACHER, 0.2),
                                        (PLANAR, 0.6)])
    def test_estimate_tail(self, monkeypatch, law, r):
        default = estimate_tail(law, 30, r, 2500, seed=3)
        assert 0 < default.hits < default.replications
        x = consecutive_rows(law.draw, 3, tail_stream(30), 2500, 30)
        m = x.mean(axis=1)      # the per-replication reduction
        if m.ndim > 1:
            m = np.array([np.linalg.norm(row) for row in m])
        assert default.hits == int((m >= r).sum())
        self.one_row_blocks(monkeypatch)
        assert estimate_tail(law, 30, r, 2500, seed=3) == default

    @pytest.mark.parametrize("instance", [
        make_finite_instance(),
        SAAInstance(decisions=np.linspace(0.0, 2.0, 5),
                    loss=lambda x, w: (x - 1.0) ** 2 + x * w,
                    law=ParetoLaw(2.5), epsilon=0.3, q=2.0),
        SAAInstance(decisions=np.array([0.0, 1.0]),
                    loss=lambda x, w: np.abs(w),   # decision-independent
                    law=make_finite_instance().law, epsilon=0.1, q=2.0),
    ], ids=["finite", "pareto", "decision_independent"])
    def test_saa_run(self, monkeypatch, instance):
        default = saa_run(instance, [3, 20], 1500, seed=4)
        assert any(e.hits for e in default.estimates)
        v_star = instance.true_value()
        for e in default.estimates:     # the per-replication reduction
            stream = montecarlo._stream(montecarlo._SAA_VALUE, e.n)
            rng = rep_rng(4, stream)
            loop = 0
            for _ in range(1500):
                w = instance.law.draw(rng, (1, e.n))
                v = min(instance.loss(x, w).mean() for x in instance.decisions)
                loop += bool(abs(v - v_star) >= instance.epsilon)
            assert e.hits == loop
        self.one_row_blocks(monkeypatch)
        blocked = saa_run(instance, [3, 20], 1500, seed=4)
        assert blocked.estimates == default.estimates
        assert blocked.scaled == default.scaled

    def test_argmin_tracking(self, monkeypatch):
        instance = SAAInstance(
            decisions=np.linspace(0.0, 2.0, 11),
            loss=lambda x, w: (x - 1.0) ** 2 + 0.3 * x * w,
            law=ParetoLaw(2.5), epsilon=0.09, q=2.0,
            growth=lambda d: 0.9 * d * d)
        default = argmin_tracking(instance, [10, 40], 1500, seed=4)
        self.one_row_blocks(monkeypatch)
        blocked = argmin_tracking(instance, [10, 40], 1500, seed=4)
        assert blocked.estimates == default.estimates
        assert any(e.hits for e in default.estimates)

    @pytest.mark.parametrize("family", [RademacherIncrements(),
                                        UniformIncrements(),
                                        ScriptedIncrements()])
    def test_martingale_final_means(self, monkeypatch, family):
        # The Azuma hits are the walks whose final mean S_n / n reaches r.
        default = azuma_experiment(family, 0.1, 40, 1500, seed=6)
        assert 0 < default.estimate.hits < default.estimate.replications
        stream = montecarlo._stream(montecarlo._MARTINGALE, 40)
        loop = 0
        for u in consecutive_rows(np.random.Generator.random, 6, stream,
                                  1500, 40):
            s = np.zeros(1)
            for k in range(40):
                s += family.step(u[k:k + 1], s)
            loop += bool(s[0] / 40 >= 0.1)
        assert default.estimate.hits == loop
        self.one_row_blocks(monkeypatch)
        blocked = azuma_experiment(family, 0.1, 40, 1500, seed=6)
        assert blocked == default


class TestAzuma:
    def test_conjugate_log_cosh(self):
        # phi*(r) = r atanh(r) - log cosh(atanh r), frozen via the identity
        got = conjugate_scalar(RademacherIncrements(), 0.5)
        want = 0.5 * math.atanh(0.5) - math.log(math.cosh(math.atanh(0.5)))
        assert abs(got - want) <= 1e-10
        assert abs(got - 0.130812035941137) <= 1e-12

    @pytest.mark.parametrize("r", [-0.95, -0.3, 0.0, 1e-6, 0.1, 0.3, 0.5,
                                   0.9, 0.999])
    def test_conjugate_matches_rademacher_closed_form(self, r):
        # the binary entropy form ((1+r) ln(1+r) + (1-r) ln(1-r)) / 2
        want = ((1 + r) * math.log1p(r) + (1 - r) * math.log1p(-r)) / 2
        for family in (RademacherIncrements(), ScriptedIncrements()):
            got = conjugate_scalar(family, r)
            assert abs(got - want) <= 1e-12 * (1.0 + want)

    def test_conjugate_beyond_the_steps_is_the_value_at_the_radius(self):
        # phi*(r) = +inf for r > 1: a lower bound, r y - phi(y) at y = 1e3
        got = conjugate_scalar(RademacherIncrements(), 1.5)
        assert abs(got - (500.0 + math.log(2.0))) <= 1e-9

    @pytest.mark.parametrize("family", [RademacherIncrements(),
                                        UniformIncrements()])
    @pytest.mark.parametrize("y", [0.0, 1e-9, 0.01, 0.0499, 0.0501, 0.3,
                                   -2.0, 25.0, 800.0])
    def test_phi_derivatives_match_differences(self, family, y):
        _, d1, d2 = family.phi_derivatives(y)
        h = 1e-5
        assert abs(d1 - (family.phi_derivatives(y + h)[0]
                         - family.phi_derivatives(y - h)[0]) / (2 * h)) \
            <= 1e-8
        assert abs(d2 - (family.phi_derivatives(y + h)[1]
                         - family.phi_derivatives(y - h)[1]) / (2 * h)) <= 1e-8
        assert 0.0 <= d2 <= 1.0 and abs(d1) <= 1.0

    def test_impossible_event(self):
        res = azuma_experiment(RademacherIncrements(), 1.5, 50, 2000, seed=0)
        assert res.estimate.p_hat == 0.0
        assert res.ok

    def test_exact_tail_reported(self):
        res = azuma_experiment(RademacherIncrements(), 0.2, 30, 2000, seed=1)
        want = exact_binomial_tail(30, 0.2)
        assert abs(res.exact_tail - want) <= 1e-12
        assert res.lo_check() if hasattr(res, "lo_check") else True

    @pytest.mark.parametrize("family", [RademacherIncrements(),
                                        UniformIncrements(),
                                        ScriptedIncrements()])
    def test_bound_holds_at_moderate_radius(self, family):
        res = azuma_experiment(family, 0.1, 400, 4000, seed=2)
        assert res.ok

    def test_scripted_increments_conditionally_centered(self):
        fam = ScriptedIncrements()
        rng = np.random.default_rng(3)
        u = rng.random(200_000)
        up = fam.step(u, np.full(u.size, 1.0))
        dn = fam.step(u, np.full(u.size, -1.0))
        assert abs(up.mean()) <= 3 * up.std() / math.sqrt(u.size)
        assert abs(dn.mean()) <= 3 * dn.std() / math.sqrt(u.size)
        assert np.abs(up).max() <= 1.0 and np.abs(dn).max() <= 1.0
        # genuinely different conditional laws depending on the past
        assert not np.array_equal(up, dn)

    def test_uniform_phi_matches_mgf(self):
        fam = UniformIncrements()
        for y in (0.01, 0.5, 1.5, 25.0):
            mgf = (math.exp(y) - math.exp(-y)) / (2 * y)
            assert abs(fam.phi_derivatives(y)[0] - math.log(mgf)) <= 1e-9
