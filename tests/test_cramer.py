import logging
import math

import numpy as np
import pytest

from sanovdual import cramer
from sanovdual.cramer import (ConjugatePair, _cumulant, check_admissible,
                              conjugate_pair, cumulant, deviation_bound,
                              moment_norm, plus_power_moment,
                              plus_power_moments, rate_function)
from sanovdual.laws import (EmpiricalLaw, FiniteSupportLaw, LawError,
                            LogNormalLaw, ParetoLaw, StudentTLaw)
from sanovdual.optim import bisect_nonincreasing, golden_max

RADEMACHER = FiniteSupportLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def cumulant_grid_oracle(law, t, q, lo=-3.0, hi=3.0, points=6_000_001):
    """Dense grid on m for the scalar level-1 equation; independent of the
    bisection path."""
    ms = np.linspace(lo, hi, points)
    # nonincreasing in m: first index where the moment drops to <= 1
    vals = np.array([plus_power_moment(law, t, m, q)
                     for m in np.linspace(lo, hi, 1201)])
    rough = np.linspace(lo, hi, 1201)[np.argmax(vals <= 1.0)]
    fine = np.linspace(rough - 0.01, rough + 0.01, 20001)
    vals = np.array([plus_power_moment(law, t, m, q) for m in fine])
    return float(fine[np.argmax(vals <= 1.0)])


def cumulant_bisection_oracle(law, t, q):
    """Bisection on the scalar moment over the cold bracket
    [-2 (1 + |t|), 2 (1 + |t|)], to a width of 1e-12 (1 + |m|)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    scale = 1.0 + float(np.linalg.norm(t))
    return bisect_nonincreasing(lambda m: plus_power_moment(law, t, m, q),
                                1.0, -2.0 * scale, 2.0 * scale, rel_tol=1e-12)


def rate_golden_oracle(law, x, q):
    """The 1-d rate search with a cold cumulant at every point: golden
    section on [-1, 1], doubled while the maximizer sits at an edge."""
    lo, hi = -1.0, 1.0
    while True:
        t, v = golden_max(lambda s: s * x - cumulant(law, s, q), lo, hi,
                          tol=1e-11)
        if min(t - lo, hi - t) >= 0.05 * (hi - lo):
            return v
        lo, hi = 2.0 * lo, 2.0 * hi


_RNG = np.random.default_rng(7)
ORACLE_LAWS = {
    "pareto2.5_q2": (ParetoLaw(2.5), 2.0),
    "pareto3.5_q3": (ParetoLaw(3.5), 3.0),
    "student_t": (StudentTLaw(4.0), 2.0),
    "lognormal": (LogNormalLaw(0.5), 2.0),
    "finite": (FiniteSupportLaw(np.array([-1.0, 0.5, 2.0]),
                                np.array([0.3, 0.5, 0.2])), 2.0),
    "empirical_1d": (EmpiricalLaw(_RNG.standard_t(5.0, 60)), 2.5),
    "empirical_2d": (EmpiricalLaw(_RNG.standard_t(5.0, (60, 2))), 2.0),
}


class TestNewtonCumulant:
    @pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
    def test_matches_bisection_oracle(self, name):
        law, q = ORACLE_LAWS[name]
        points = (-0.35, 0.0, 0.3)
        if name == "empirical_2d":
            points = ((-0.3, 0.1), (0.0, 0.0), (0.2, 0.25))
        for t in points:
            got = cumulant(law, t, q)
            assert abs(got - cumulant_bisection_oracle(law, t, q)) <= 1e-10

    @pytest.mark.parametrize("name", ["pareto2.5_q2", "finite",
                                      "empirical_2d"])
    def test_gradient_is_the_slope(self, name):
        law, q = ORACLE_LAWS[name]
        t = np.array([0.2, -0.15]) if name == "empirical_2d" \
            else np.array([0.2])
        _, grad = _cumulant(law, t, q)
        h = 1e-5
        for i in range(t.size):
            e = np.zeros_like(t)
            e[i] = h
            fd = (cumulant(law, t + e, q) - cumulant(law, t - e, q)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6

    @pytest.mark.parametrize("offset", [0.5, 1e-13, -3.0])
    def test_bad_start_still_returns_certified_root(self, offset):
        law, q = ParetoLaw(2.5), 2.0
        t = np.array([0.3])
        cold, _ = _cumulant(law, t, q)
        got, _ = _cumulant(law, t, q, start=cold + offset)
        assert abs(got - cold) <= 2e-12
        tol = 1e-12 * (1.0 + abs(got))
        assert plus_power_moments(law, t, got, q)[0] <= 1.0
        assert plus_power_moments(law, t, got - tol, q)[0] > 1.0


class TestCumulant:
    def test_point_mass_is_zero_everywhere(self):
        law = FiniteSupportLaw(np.array([0.0]), np.array([1.0]))
        for t in (-2.0, 0.0, 0.7, 5.0):
            assert abs(cumulant(law, t, 2.0)) <= 1e-11
        # Far from the root Newton gains only a factor 1 - 1/q per step,
        # so bisection steps must take over.
        for q, t in ((20.0, 100.0), (20.0, -100.0), (50.0, 3.0), (50.0, 1e3)):
            assert abs(cumulant(law, t, q)) <= 1e-11

    def test_zero_argument_is_zero_for_any_law(self):
        for law in (RADEMACHER, ParetoLaw(2.5), LogNormalLaw(0.5)):
            assert abs(cumulant(law, 0.0, 2.0)) <= 1e-10

    def test_rademacher_against_grid_oracle(self):
        for t in (0.3, 0.5, 0.9):
            got = cumulant(RADEMACHER, t, 2.0)
            oracle = cumulant_grid_oracle(RADEMACHER, t, 2.0)
            assert abs(got - oracle) <= 2e-6

    def test_rademacher_closed_form(self):
        # level-1 equation in closed form: 1 - sqrt(1 - t^2) while both
        # branches stay positive, 1 + t - sqrt(2) after the kink.
        assert abs(cumulant(RADEMACHER, 0.5, 2.0) -
                   (1.0 - math.sqrt(0.75))) <= 1e-10
        assert abs(cumulant(RADEMACHER, 0.9, 2.0) -
                   (1.9 - math.sqrt(2.0))) <= 1e-10

    def test_convex_on_grid(self):
        ts = np.linspace(-0.6, 0.6, 13)
        vals = np.array([cumulant(RADEMACHER, t, 2.0) for t in ts])
        mids = 0.5 * (vals[:-2] + vals[2:])
        assert (vals[1:-1] <= mids + 1e-9).all()

    def test_empirical_matches_finite(self):
        atoms = np.array([-1.0, 0.5, 2.0])
        fin = FiniteSupportLaw(atoms, np.array([0.25, 0.5, 0.25]))
        emp = EmpiricalLaw(np.repeat(atoms, [1, 2, 1]))
        for t in (0.2, 0.6):
            assert abs(cumulant(fin, t, 2.0) - cumulant(emp, t, 2.0)) <= 1e-10


class TestWarmRateFunction:
    @pytest.mark.parametrize("name,x", [
        ("pareto2.5_q2", -0.3), ("pareto2.5_q2", 0.25),
        ("pareto3.5_q3", -0.15), ("finite", 0.4), ("finite", -0.5)])
    def test_matches_cold_golden_oracle(self, name, x):
        law, q = ORACLE_LAWS[name]
        got = rate_function(law, x, q)
        assert got.status == "ok"
        assert abs(got.value - rate_golden_oracle(law, x, q)) <= 1e-10

    def test_two_dimensional_search_matches_cold_search(self, monkeypatch):
        law, q = ORACLE_LAWS["empirical_2d"]
        x = np.array([0.2, -0.1])
        got = rate_function(law, x, q)
        monkeypatch.setattr(cramer, "_cumulant",
                            lambda law, t, q, start=None: _cumulant(law, t, q))
        cold = rate_function(law, x, q)
        assert got.status == cold.status == "ok"
        assert abs(got.value - cold.value) <= 1e-10


class TestMomentNorm:
    def test_constant(self):
        law = FiniteSupportLaw(np.array([-2.5]), np.array([1.0]))
        assert abs(moment_norm(law, 2.0) - 2.5) <= 1e-12

    def test_rademacher(self):
        assert abs(moment_norm(RADEMACHER, 2.0) - 1.0) <= 1e-12

    def test_pareto_centered_matches_monte_carlo(self):
        law = ParetoLaw(3.0)
        got = moment_norm(law, 2.0)
        rng = np.random.default_rng(0)
        draws = rng.pareto(3.0, 10_000_000) + 1.0 - 1.5
        sq = draws ** 2
        est = math.sqrt(sq.mean())
        se = sq.std() / math.sqrt(sq.size) / (2 * est)
        assert abs(got - est) <= 3 * se

    def test_analytic_pareto_variance(self):
        # var of Pareto(a) is a / ((a-1)^2 (a-2))
        a = 2.5
        got = moment_norm(ParetoLaw(a), 2.0)
        assert abs(got - math.sqrt(a / ((a - 1) ** 2 * (a - 2)))) <= 1e-8


class TestRateFunction:
    def test_rademacher_closed_form(self):
        # rate(x) = sqrt(1 + x^2) - 1 from the stationarity of t x - L(t)
        for x in (0.0, 0.3, 0.5):
            got = rate_function(RADEMACHER, x, 2.0)
            assert got.status == "ok"
            assert abs(got.value - (math.sqrt(1 + x * x) - 1.0)) <= 1e-7

    def test_point_mass_off_center_diverges(self):
        law = FiniteSupportLaw(np.array([0.0]), np.array([1.0]))
        got = rate_function(law, 0.5, 2.0)
        assert got.value == math.inf
        assert got.status == "diverged"

    def test_value_at_mean_in_unit_band(self):
        # normalization differs from the entropic case: rate(mean) lands in
        # [-1, 0] rather than at zero
        for law in (RADEMACHER, ParetoLaw(2.5)):
            got = rate_function(law, 0.0, 2.0)
            assert -1.0 - 1e-9 <= got.value <= 1e-9

    def test_minorant(self):
        rng = np.random.default_rng(1)
        for law in (RADEMACHER, ParetoLaw(2.5)):
            mq = moment_norm(law, 2.0)
            for _ in range(20):
                x = float(rng.uniform(-2.0, 2.0))
                got = rate_function(law, x, 2.0).value
                assert got >= -1.0 + abs(x) / mq - 1e-6

    def test_matches_constrained_penalty_form(self):
        # rate(x) = inf{ lp_entropy(nu) : mean(nu) = x } on a finite law:
        # the constraint set on 3 atoms is a segment, swept by grid.
        from sanovdual.penalties import lp_entropy
        from sanovdual.spaces import Dist, FiniteSpace

        atoms = np.array([-1.0, 0.0, 1.0])
        w = np.array([0.3, 0.4, 0.3])
        law = FiniteSupportLaw(atoms, w)
        space = FiniteSpace.of_size(3)
        mu = Dist(space, w)
        for x in (0.0, 0.25, -0.4):
            best = math.inf
            for t in np.linspace(0.0, 1.0, 40001):
                # one-parameter family with mean x: nu = (a, b, c) with
                # c - a = x, a + b + c = 1
                c = t
                a = c - x
                b = 1.0 - a - c
                if min(a, b, c) < -1e-12:
                    continue
                nu = np.array([max(a, 0), max(b, 0), max(c, 0)])
                nu /= nu.sum()
                best = min(best, lp_entropy(nu[None, :], mu, 2.0)[0])
            got = rate_function(law, x, 2.0).value
            assert abs(got - best) <= 5e-3

    def test_dimension_cap(self):
        with pytest.raises(LawError):
            rate_function(RADEMACHER, np.zeros(4), 2.0)


class TestDeviationBound:
    def test_reference_value(self):
        assert abs(deviation_bound(2.0, 1.0, 2.0, 100) - 0.01) <= 1e-15

    def test_monotone_in_radius(self):
        vals = [deviation_bound(r, 1.0, 2.0, 50) for r in (1.5, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.002

    def test_power_law_in_n(self):
        a = deviation_bound(2.0, 1.0, 2.5, 100)
        b = deviation_bound(2.0, 1.0, 2.5, 200)
        assert abs(b / a - 2.0 ** (1.0 - 2.5)) <= 1e-12

    def test_vacuous_radius_rejected(self):
        with pytest.raises(ValueError):
            deviation_bound(0.9, 1.0, 2.0, 10)


class TestAdmissibility:
    def test_pareto_needs_heavier_moment(self):
        with pytest.raises(LawError):
            check_admissible(ParetoLaw(1.8), 2.0)
        with pytest.raises(LawError):
            cumulant(ParetoLaw(1.8), 0.3, 2.0)

    def test_student_t(self):
        with pytest.raises(LawError):
            check_admissible(StudentTLaw(2.0), 2.0)
        check_admissible(StudentTLaw(3.5), 2.0)

    @pytest.mark.parametrize("a,truncated", [(2.05, True), (2.5, False)])
    def test_quadrature_truncation_warns(self, caplog, a, truncated):
        with caplog.at_level(logging.WARNING, logger="sanovdual"):
            moment_norm(ParetoLaw(a), 2.0)
        warned = any("upper tail truncated" in r.message
                     for r in caplog.records)
        assert warned == truncated

    def test_student_t_moment(self):
        # var of t(df) is df / (df - 2)
        df = 4.0
        got = moment_norm(StudentTLaw(df), 2.0)
        assert abs(got - math.sqrt(df / (df - 2.0))) <= 1e-7


class TestConjugatePair:
    def test_records(self):
        pair = conjugate_pair(RADEMACHER, 2.0,
                              np.linspace(-0.6, 0.6, 9),
                              np.linspace(-0.8, 0.8, 9))
        assert isinstance(pair, ConjugatePair)
        assert pair.convex_dual and pair.convex_primal
        assert pair.minorant_ok
        assert abs(pair.value_at_zero) <= 1e-10
        assert pair.p == 2.0
        rows = pair.csv_rows("dual")
        assert len(rows) == 9 and len(rows[0]) == 2
