import logging
import math

import numpy as np
import pytest

from oracles import (bisect_root, golden_max, plus_power_moment,
                     rate_coordinate_search)
from sanovdual import cramer, optim
from sanovdual.cramer import (ConjugatePair, _cumulant, check_admissible,
                              conjugate_pair, cumulant, deviation_bound,
                              moment_norm, plus_power_moments,
                              rate_function)
from sanovdual.laws import (EmpiricalLaw, FiniteSupportLaw, LawError,
                            LogNormalLaw, ParetoLaw, StudentTLaw, _DensityLaw)
from sanovdual.quadrature import expect as _expect

RADEMACHER = FiniteSupportLaw(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def cumulant_grid_oracle(law, t, q, lo=-3.0, hi=3.0, points=6_000_001):
    """Dense grid on m for the scalar level-1 equation; independent of the
    root finder."""
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
    return bisect_root(lambda m: plus_power_moment(law, t, m, q), 1.0,
                       -2.0 * scale, 2.0 * scale)


def rate_golden_oracle(law, x, q):
    """The 1-d rate search with a cold cumulant at every point: golden
    section on [-1, 1], doubled while the maximizer sits at an edge."""
    lo, hi = -1.0, 1.0
    while True:
        t, v = golden_max(lambda s: s * x - cumulant(law, s, q), lo, hi)
        if min(t - lo, hi - t) >= 0.05 * (hi - lo):
            return v
        lo, hi = 2.0 * lo, 2.0 * hi


def student_t4_dense_cumulant(t):
    """The Student t (df 4, q = 2) cumulant by bisection on a moment
    integrated with breaks spaced geometrically on both sides of 0, so no
    segment can lose the bulk whatever the kink."""
    law = StudentTLaw(4.0)
    geom = np.geomspace(1e-3, 1e7, 120)
    breaks = (0.0, *geom, *-geom)

    def G(m):
        return _expect(law.pdf, *law.support,
                       lambda x: np.maximum(1.0 + t * x - m, 0.0) ** 2,
                       breaks=(*breaks, (m - 1.0) / t), centre=0.0)
    return bisect_root(G, 1.0, -2.0 * (1.0 + abs(t)), 2.0 * (1.0 + abs(t)))


_RNG = np.random.default_rng(7)
ORACLE_LAWS = {
    "pareto2.5_q2": (ParetoLaw(2.5), 2.0),
    "pareto3.5_q3": (ParetoLaw(3.5), 3.0),
    "pareto2.5_q1.5": (ParetoLaw(2.5), 1.5),
    "student_t": (StudentTLaw(4.0), 2.0),
    "lognormal": (LogNormalLaw(0.5), 2.0),
    "finite": (FiniteSupportLaw(np.array([-1.0, 0.5, 2.0]),
                                np.array([0.3, 0.5, 0.2])), 2.0),
    "empirical_1d": (EmpiricalLaw(_RNG.standard_t(5.0, 60)), 2.5),
    "empirical_2d": (EmpiricalLaw(_RNG.standard_t(5.0, (60, 2))), 2.0),
}
EMPIRICAL_3D = EmpiricalLaw(np.random.default_rng(8).standard_t(5.0, (60, 3)))
# Interior points whose maximizers lie well within the oracle's inner box.
POINTS_2D_3D = [
    ("empirical_2d", (0.2, -0.1)), ("empirical_2d", (-0.4, 0.3)),
    ("empirical_2d", (0.5, 0.45)), ("empirical_2d", (-0.25, -0.5)),
    ("empirical_2d", (0.0, 0.0)), ("empirical_2d", (0.6, -0.3)),
    ("empirical_3d", (0.1, 0.2, -0.1)), ("empirical_3d", (-0.4, 0.3, 0.2)),
    ("empirical_3d", (0.5, -0.2, 0.4)), ("empirical_3d", (0.0, 0.0, 0.0)),
    ("empirical_3d", (-0.3, -0.4, -0.5)),
    ("empirical_3d", (0.45, 0.5, -0.35))]


def law_2d_3d(name):
    return (EMPIRICAL_3D, 2.0) if name == "empirical_3d" else ORACLE_LAWS[name]


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
        _, grad, _ = _cumulant(law, t, q)
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
        cold, _, _ = _cumulant(law, t, q)
        got, _, _ = _cumulant(law, t, q, start=cold + offset)
        assert abs(got - cold) <= 2e-12
        tol = 1e-12 * (1.0 + abs(got))
        assert plus_power_moments(law, t, got, q)[0] <= 1.0
        assert plus_power_moments(law, t, got - tol, q)[0] > 1.0


class TestCumulant:
    @pytest.mark.parametrize("t", [1e-6, -1e-6, 1e-3, -1e-3, 0.05, -0.3])
    def test_student_t_small_argument(self, t):
        # For X ~ t(4), E[((1 + tX - t^2)^+)^2] = 1, so the cumulant is
        # t^2; near t = 0 its one kink lies far out in a tail.
        got = cumulant(StudentTLaw(4.0), t, 2.0)
        assert abs(got - t * t) <= 2e-12 * (1.0 + t * t)
        assert abs(got - student_t4_dense_cumulant(t)) <= 2e-12

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


POINTS_1D = [
    ("pareto2.5_q2", -0.3), ("pareto2.5_q2", 0.25),
    ("pareto2.5_q2", -0.6), ("pareto3.5_q3", -0.15),
    ("pareto2.5_q1.5", -0.6), ("pareto2.5_q1.5", 0.3),
    ("student_t", 0.1), ("student_t", -0.6),
    ("lognormal", -0.3), ("lognormal", 0.4),
    ("finite", 0.4), ("finite", -0.5),
    ("empirical_1d", -0.6), ("empirical_1d", 0.25)]


class TestWarmRateFunction:
    @pytest.mark.parametrize("name,x", POINTS_1D)
    def test_matches_cold_golden_oracle(self, name, x):
        law, q = ORACLE_LAWS[name]
        got = rate_function(law, x, q)
        assert got.status == "ok"
        assert abs(got.value - rate_golden_oracle(law, x, q)) <= 1e-10

    @pytest.mark.parametrize("name,x", POINTS_1D)
    def test_bound_is_within_tolerance_of_the_value(self, name, x):
        # The two-tangent bound carries the cumulant's rounding, so the
        # search reports the value where rounding puts the bound below it.
        law, q = ORACLE_LAWS[name]
        got = rate_function(law, x, q)
        assert got.value <= got.bound <= got.value + 1e-12 * (
            1.0 + abs(got.value))

    def test_diverged_point_is_cheap(self, monkeypatch):
        # Below the support of the centered Pareto the supremum runs off to
        # t = -inf; doubling steps reach the ray radius in about log2 of it.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return _cumulant(*args, **kwargs)
        monkeypatch.setattr(cramer, "_cumulant", counted)
        radius = optim.RAY_RADIUS
        got = rate_function(ParetoLaw(2.5), -1.5, 2.0)
        assert got.status == "diverged" and got.value == math.inf
        assert len(calls) <= 2.0 * math.log2(radius) + 10.0

    def test_two_dimensional_search_matches_cold_search(self, monkeypatch):
        law, q = ORACLE_LAWS["empirical_2d"]
        x = np.array([0.2, -0.1])
        got = rate_function(law, x, q)
        monkeypatch.setattr(cramer, "_cumulant",
                            lambda law, t, q, start=None, curvature=False:
                            _cumulant(law, t, q, None, curvature))
        cold = rate_function(law, x, q)
        assert got.status == cold.status == "ok"
        assert abs(got.value - cold.value) <= 1e-10


class TestRateFunctionInTwoAndThreeDimensions:
    @pytest.mark.parametrize("name,x", POINTS_2D_3D)
    def test_matches_coordinate_search_oracle(self, name, x):
        law, q = law_2d_3d(name)
        got = rate_function(law, x, q)
        assert got.status == "ok"
        assert abs(got.value - rate_coordinate_search(law, x, q)) <= 1e-10

    @pytest.mark.parametrize("name,x", POINTS_2D_3D)
    def test_certificate_bounds_the_value(self, name, x):
        # The tangent planes bound the supremum within tolerance of the
        # value, which the objective reaches at the returned point.
        law, q = law_2d_3d(name)
        got = rate_function(law, x, q)
        assert got.status == "ok"
        tol = 1e-12 * (1.0 + abs(got.value))
        assert got.value <= got.bound <= got.value + tol
        at = float(np.dot(x, got.argmax)) - cumulant(law, got.argmax, q)
        assert at >= got.value - tol

    def test_diverged_point_is_cheap(self, monkeypatch):
        # x exceeds every sample in each coordinate, so it lies outside
        # their hull and the supremum runs off to |t| = inf.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return _cumulant(*args, **kwargs)
        monkeypatch.setattr(cramer, "_cumulant", counted)
        radius = optim.RAY_RADIUS
        x = EMPIRICAL_3D.atoms.max(axis=0) + 0.5
        got = rate_function(EMPIRICAL_3D, x, 2.0)
        assert got.status == "diverged"
        assert got.value == got.bound == math.inf
        assert len(calls) <= 2.0 * math.log2(radius) + 10.0


class TestRateFunctionOnDegenerateLaws:
    # Atoms on a line in the plane and in a plane in space: the Hessian of
    # the cumulant is singular at every t.
    LINE = FiniteSupportLaw(np.array([[-1.0, -1.0], [1.0, 1.0]]),
                            np.array([0.5, 0.5]))
    PLANE = FiniteSupportLaw(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                       [0.0, 1.0, 0.0]]),
                             np.array([0.5, 0.3, 0.2]))

    def test_mean_is_zero(self):
        got = rate_function(self.LINE, (0.0, 0.0), 2.0)
        assert got.status == "ok" and got.value == got.bound == 0.0

    @pytest.mark.parametrize("a", [0.3, -0.9])
    def test_line_matches_the_law_on_the_line(self, a):
        # Along (1, 1) / sqrt(2) the atoms sit at -sqrt(2) and sqrt(2).
        line = FiniteSupportLaw(np.array([-math.sqrt(2.0), math.sqrt(2.0)]),
                                np.array([0.5, 0.5]))
        got = rate_function(self.LINE, (a, a), 2.0)
        want = rate_function(line, a * math.sqrt(2.0), 2.0).value
        tol = 1e-12 * (1.0 + abs(got.value))
        assert got.status == "ok" and abs(got.value - want) <= 1e-10
        assert got.value <= got.bound <= got.value + tol

    def test_plane_matches_the_law_in_the_plane(self):
        flat = FiniteSupportLaw(self.PLANE.atoms[:, :2], self.PLANE.weights)
        got = rate_function(self.PLANE, (0.2, 0.3, 0.0), 2.0)
        want = rate_function(flat, (0.2, 0.3), 2.0).value
        tol = 1e-12 * (1.0 + abs(got.value))
        assert got.status == "ok" and abs(got.value - want) <= 1e-10
        assert got.value <= got.bound <= got.value + tol

    @pytest.mark.parametrize("law,x", [(LINE, (0.3, 0.2)),
                                       (PLANE, (0.2, 0.3, 0.1))])
    def test_off_the_support_diverges(self, law, x):
        got = rate_function(law, x, 2.0)
        assert got.status == "diverged" and got.value == math.inf


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
    @pytest.mark.parametrize("name", sorted(ORACLE_LAWS))
    def test_status_matches_value(self, name):
        # "ok" carries a finite value, "diverged" exactly +inf.
        law, q = ORACLE_LAWS[name]
        points = (-1.5, -0.6, 0.0, 0.1, 0.3, 3.0)
        if name == "empirical_2d":
            points = ((0.2, -0.1), (0.0, 0.0), (5.0, 5.0))
        statuses = set()
        for x in points:
            got = rate_function(law, x, q)
            statuses.add(got.status)
            assert got.status in ("ok", "diverged")
            if got.status == "ok":
                assert math.isfinite(got.value)
                assert got.argmax is not None
            else:
                assert got.value == math.inf and got.argmax is None
        assert "ok" in statuses

    def test_student_t_closed_form(self):
        # The cumulant is t^2 (see TestCumulant), so the rate is x^2 / 4.
        for x in (-1.5, -0.2, 0.1, 0.6):
            got = rate_function(StudentTLaw(4.0), x, 2.0)
            assert got.status == "ok"
            assert abs(got.value - 0.25 * x * x) <= 2e-12

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
        from sanovdual.penalties import LpEntropy, penalty
        from sanovdual.spaces import Dist

        atoms = np.array([-1.0, 0.0, 1.0])
        w = np.array([0.3, 0.4, 0.3])
        law = FiniteSupportLaw(atoms, w)
        spec = LpEntropy(Dist(w), 2.0)
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
                best = min(best, penalty(nu[None, :], spec)[0])
            got = rate_function(law, x, 2.0).value
            assert abs(got - best) <= 5e-3

    def test_dimension_cap(self):
        with pytest.raises(LawError):
            rate_function(RADEMACHER, np.zeros(4), 2.0)

    @pytest.mark.parametrize("law,x", [
        (RADEMACHER, [0.1, 0.2]),
        (ORACLE_LAWS["empirical_2d"][0], [0.1]),
        (ORACLE_LAWS["empirical_2d"][0], [0.1, 0.2, 0.3]),
    ], ids=["2d_x_1d_finite", "1d_x_2d_empirical", "3d_x_2d_empirical"])
    def test_x_of_another_dimension_than_the_law(self, law, x):
        with pytest.raises(LawError, match="dimension"):
            rate_function(law, np.array(x), 2.0)

    @pytest.mark.parametrize("law,t,dims", [
        (RADEMACHER, [0.1, 0.2], "t has dimension 2, the law dimension 1"),
        (ORACLE_LAWS["empirical_2d"][0], [0.1],
         "t has dimension 1, the law dimension 2"),
        (ORACLE_LAWS["empirical_2d"][0], 0.0,
         "t has dimension 1, the law dimension 2"),
        (ParetoLaw(2.5), [0.1, 0.2], "t has dimension 2, the law dimension 1"),
    ], ids=["2d_t_1d_finite", "1d_t_2d_empirical", "zero_t_2d_empirical",
            "2d_t_pareto"])
    def test_cumulant_of_t_of_another_dimension_than_the_law(self, law, t,
                                                            dims):
        # A 1-d law once read only t's first entry, and a 2-d sample failed
        # inside numpy's matmul; both name the two dimensions now.
        for solve in (cumulant, lambda *a: _cumulant(*a, curvature=True)):
            with pytest.raises(LawError, match=dims):
                solve(law, np.asarray(t, dtype=float), 2.0)


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

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            deviation_bound(2.0, 1.0, 2.0, n)

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError, match="M_q >= 0"):
            deviation_bound(2.0, -1.0, 2.5, 10)


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

    def test_each_public_entry_checks_once(self, monkeypatch):
        # conjugate_pair checks (law, q) once and moment_norm once more;
        # every solve in between takes the unchecked paths.
        real, calls = FiniteSupportLaw.check_moment, []

        def spy(law, q):
            calls.append(q)
            return real(law, q)
        monkeypatch.setattr(FiniteSupportLaw, "check_moment", spy)
        law = ORACLE_LAWS["finite"][0]
        grid = np.linspace(-0.6, 0.6, 5)
        for entry, most in [
                (lambda: conjugate_pair(law, 2.0, grid, grid), 2),
                (lambda: cumulant(law, 0.3, 2.0), 1),
                (lambda: rate_function(law, 0.3, 2.0), 1),
                (lambda: moment_norm(law, 2.0), 1)]:
            calls.clear()
            entry()
            assert 1 <= len(calls) <= most

    @pytest.mark.parametrize("law,q", [(ParetoLaw(1.8), 2.0),
                                       (ParetoLaw(2.5), 1.0)],
                             ids=["no_moment", "q_at_1"])
    def test_each_public_entry_refuses_before_any_solve(self, monkeypatch,
                                                        law, q):
        def solve(*args, **kwargs):
            raise AssertionError("a solve ran before the check")
        monkeypatch.setattr(_DensityLaw, "expect", solve)
        for entry in (lambda: conjugate_pair(law, q, [0.1], [0.1]),
                      lambda: cumulant(law, 0.3, q),
                      lambda: rate_function(law, 0.3, q),
                      lambda: moment_norm(law, q)):
            with pytest.raises(LawError):
                entry()

    def test_student_t_moment(self):
        # var of t(df) is df / (df - 2)
        df = 4.0
        got = moment_norm(StudentTLaw(df), 2.0)
        assert abs(got - math.sqrt(df / (df - 2.0))) <= 1e-7


class TestConjugatePair:
    def test_rate_points_share_one_pass_at_zero(self, monkeypatch):
        # Every 1-d rate search starts at t = 0; the pair pays that pass
        # over the law once and still gets each point's own value.
        law, q = ParetoLaw(2.5), 2.0
        primal = np.linspace(-0.3, 0.3, 3)
        want = [rate_function(law, x, q).value for x in primal]
        passes = []

        def counted(law, t, q, start=None, curvature=False):
            if curvature and not np.any(t):
                passes.append(t)
            return _cumulant(law, t, q, start, curvature)
        monkeypatch.setattr(cramer, "_cumulant", counted)
        pair = conjugate_pair(law, q, np.linspace(-0.4, 0.4, 3), primal)
        assert len(passes) == 1
        assert pair.primal_values.tolist() == want

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
