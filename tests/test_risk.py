import math
import tracemalloc

import numpy as np
import pytest

from oracles import (bisect_root, entropic_risk, entropic_risk_rows_by_row,
                     integral, integral_rows_by_row, oce_risk,
                     penalty_from_risk, power2_shortfall_rows, risk,
                     risk_maximizer, robust_entropic_risk, shortfall_risk,
                     shortfall_risk_rows_by_row, transport_risk_rows_by_row)
import sanovdual.risk as risk_module
from sanovdual import extreal
from sanovdual.losses import ExpLoss, PowerLoss, TabulatedLoss
from sanovdual.optim import TOL
from sanovdual.penalties import (LpEntropy, RelativeEntropy, Robust,
                                 SetIndicator, Shortfall, Transport,
                                 entropic_risk_rows, penalty,
                                 shortfall_risk_rows)
from sanovdual.risk import generic_risk, risk_result, risk_rows
from sanovdual.spaces import Dist

UNIF2 = Dist.uniform(2)
LOG2 = 0.6931471805599453
INF = math.inf


def rand_dist(rng, m):
    w = rng.dirichlet(np.ones(m)) + 1e-3
    return Dist(w / w.sum())


def all_specs(rng):
    g1, g2 = Dist([0.2, 0.8]), Dist([0.7, 0.3])
    return [
        RelativeEntropy(UNIF2),
        LpEntropy(UNIF2, 2.0),
        Shortfall(UNIF2, PowerLoss(2.0)),
        Robust((g1, g2)),
        SetIndicator((g1, g2)),
        Transport(UNIF2, np.array([[0.0, 1.5], [0.8, 0.0]])),
    ]


class TestEntropicRisk:
    def test_constant(self):
        assert abs(entropic_risk([1.7, 1.7], UNIF2) - 1.7) <= 1e-12

    def test_two_point_value(self):
        got = entropic_risk([0.0, math.log(3.0)], UNIF2)
        assert abs(got - LOG2) <= 1e-12

    def test_indicator_gives_log_mass(self):
        # f = 0 on A, -inf off A: value log mu(A)
        mu = Dist([0.5, 0.3, 0.2])
        got = entropic_risk([0.0, 0.0, -INF], mu)
        assert abs(got - math.log(0.8)) <= 1e-12

    def test_all_neg_inf(self):
        assert entropic_risk([-INF, -INF], UNIF2) == -INF

    def test_pos_inf(self):
        assert entropic_risk([INF, 0.0], UNIF2) == INF


class TestShortfallRisk:
    def test_exp_matches_entropic(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.integers(2, 6)
            mu = rand_dist(rng, int(m))
            f = rng.normal(size=m) * 2.0
            got = shortfall_risk(f, mu, ExpLoss())
            want = entropic_risk(f, mu)
            assert abs(got - want) <= 1e-9

    def test_constant_translation(self):
        # f = c: value c + rho(0), and rho(0) = 0 when l(0) = 1
        for loss in (ExpLoss(), PowerLoss(2.0)):
            assert abs(shortfall_risk([2.5, 2.5], UNIF2, loss) - 2.5) <= 1e-9

    def test_power2_root_oracle(self):
        # m solves 0.5[((1-m)^+)^2 + ((2-m)^+)^2] = 1; dense-grid root:
        # on m < 1 both terms live, 2m^2 - 6m + 3 = 0, m = 1.5 - sqrt(3)/2.
        got = shortfall_risk([0.0, 1.0], UNIF2, PowerLoss(2.0))
        grid = np.linspace(-1.0, 2.0, 3_000_001)
        G = 0.5 * (np.maximum(1.0 - grid, 0) ** 2 +
                   np.maximum(2.0 - grid, 0) ** 2)
        oracle = grid[np.argmax(G <= 1.0)]
        assert abs(got - oracle) <= 1e-6
        assert abs(got - (1.5 - math.sqrt(3.0) / 2.0)) <= 1e-9

    def test_neg_inf_entries(self):
        got = shortfall_risk([0.0, -INF], UNIF2, ExpLoss())
        assert abs(got - math.log(0.5)) <= 1e-9

    def test_everything_neg_inf(self):
        assert shortfall_risk([-INF, -INF], UNIF2, PowerLoss(2.0)) == -INF

    def test_pos_inf(self):
        assert shortfall_risk([INF, 0.0], UNIF2, PowerLoss(2.0)) == INF

    @pytest.mark.parametrize("kind", ["shortfall", "lp"])
    def test_rows_do_not_depend_on_their_batch(self, kind):
        # Each row of a batch is bit for bit its one-row value, and within
        # the root finder's tolerance of plain bisection on its level.
        mu = Dist([0.5, 0.3, 0.2])
        spec = Shortfall(mu, PowerLoss(2.0)) if kind == "shortfall" \
            else LpEntropy(mu, 3.0)
        loss = PowerLoss(2.0 if kind == "shortfall" else 1.5)
        F = np.random.default_rng(0).normal(size=(50, 3))
        rows = risk_rows(spec, F)
        for f, value in zip(F, rows):
            assert risk_rows(spec, f[None])[0] == value
            root = bisect_root(
                lambda m: float(np.dot(mu.weights, loss.value(f - m))), 1.0,
                f.min() - 1.0, f.max() + 1.0)
            assert abs(value - root) <= 1e-11 * (1.0 + abs(root))


def edge_rows(m: int, dead: int, seed: int = 0) -> np.ndarray:
    """Random rows on m states, then rows with +inf, -inf and both among
    them, with every entry -inf, and with -inf everywhere but the state
    ``dead`` (or +inf, -inf only there)."""
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(24, m)) * 3.0
    F[0, 1] = INF
    F[1, 0] = F[1, 2] = -INF
    F[2, :] = -INF
    F[3, 0], F[3, 1] = INF, -INF
    F[4, :] = -INF
    F[4, dead] = 0.5
    F[5, dead] = INF
    F[6, dead] = -INF
    F[7, :-1] = INF
    F[8, 1:] = -INF
    return F


class TestColumnKernels:
    """The row kernels on edge rows, against their by-row forms in
    ``oracles``: each row bit for bit that value and its one-row value."""

    TAB = TabulatedLoss((-2.0, -1.0, 0.0, 1.0), (0.25, 0.25, 1.0, 2.0),
                        left_limit=0.25)

    @staticmethod
    def check(kernel, reference, F):
        got = kernel(F)
        assert got.dtype == np.float64 and got.shape == (len(F),)
        assert got.tobytes() == reference(F).tobytes()
        for f, value in zip(F, got):
            assert kernel(f[None]).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("m,dead", [(3, 1), (5, 4), (4, None)])
    def test_every_kernel_on_edge_rows(self, m, dead):
        w = np.linspace(1.0, 2.0, m)
        if dead is not None:
            w[dead] = 0.0
        w = w / w.sum()
        F = edge_rows(m, 2 if dead is None else dead)
        mu = Dist(w)
        self.check(lambda X: entropic_risk_rows(X, w),
                   lambda X: entropic_risk_rows_by_row(X, w), F)
        self.check(lambda X: extreal.integral_rows(w, X),
                   lambda X: integral_rows_by_row(w, X), F)
        for loss in (PowerLoss(2.0), PowerLoss(3.5), ExpLoss(), self.TAB):
            self.check(lambda X: shortfall_risk_rows(X, w, loss),
                       lambda X: shortfall_risk_rows_by_row(X, w, loss), F)
        cost = np.abs(np.subtract.outer(np.arange(m), np.arange(m))) * 0.7
        cost[0, m - 1] = cost[m - 1, 1] = INF
        spec = Transport(mu, cost)
        self.check(spec.risk_rows,
                   lambda X: transport_risk_rows_by_row(spec, X), F)

    def test_edge_values(self):
        # The bookkeeping itself: +inf on a charged state wins, -inf rules
        # a row where it covers mu's support (in an integral, where it
        # charges any state), and the zero-weight state counts for nothing.
        w = np.array([0.5, 0.0, 0.5])
        F = edge_rows(3, 1)
        integral = extreal.integral_rows(w, F)
        for vals in (entropic_risk_rows(F, w), integral,
                     shortfall_risk_rows(F, w, PowerLoss(2.0))):
            assert np.isfinite(vals[[0, 5, 6]]).all()
            assert (vals[[1, 2, 4]] == -INF).all()
            assert (vals[[3, 7]] == INF).all()
            assert vals[8] == -INF if vals is integral else \
                np.isfinite(vals[8])


class TestWarmBracket:
    """A ``near`` hint only moves where the root finder starts: every row
    keeps G(rho) <= 1 and agrees with the start at its mu-mean floor,
    also where its root lies far from the hint."""

    @staticmethod
    def G(F, w, loss, m):
        """int l(f - m) dmu per row, summed as the root finder sums it."""
        live = w > 0.0
        Fl, wl = F[:, live], w[live]
        fin = np.isfinite(Fl)
        with np.errstate(invalid="ignore"):
            vals = np.where(fin, loss.value(np.where(fin, Fl, 0.0) -
                                            m[:, None]), 0.0)
        cw = extreal.weighted_row_sums(np.isneginf(Fl), wl) * loss.left_limit
        return extreal.weighted_row_sums(np.column_stack([cw, vals]),
                                         np.concatenate([[1.0], wl]))

    @pytest.mark.parametrize("loss", [PowerLoss(2.0), PowerLoss(3.5),
                                      ExpLoss(), TestColumnKernels.TAB],
                             ids=["q2", "q3.5", "exp", "tabulated"])
    @pytest.mark.parametrize("m,dead", [(3, 1), (4, None)])
    def test_matches_cold_bracket(self, loss, m, dead):
        w = np.linspace(1.0, 2.0, m)
        if dead is not None:
            w[dead] = 0.0
        w = w / w.sum()
        F = edge_rows(m, 2 if dead is None else dead)
        cold = shortfall_risk_rows(F, w, loss)
        fin = np.isfinite(cold)
        # Rows with their roots at 0, up to rounding, then moved off it.
        F0 = F - np.where(fin, cold, 0.0)[:, None]
        for shift in (0.0, 5.0, -5.0, 1e-6, -1e-6):
            Fs = F0 + shift
            want = shortfall_risk_rows(Fs, w, loss)
            got = shortfall_risk_rows(Fs, w, loss, near=0.0)
            assert got[~fin].tobytes() == want[~fin].tobytes()
            assert (np.abs(got[fin] - want[fin]) <=
                    1e-12 * (1.0 + np.abs(want[fin]))).all()
            assert (np.abs(got[fin] - shift) <= 1e-9).all()
            assert (self.G(Fs[fin], w, loss, got[fin]) <= 1.0).all()

    def test_risk_rows_passes_the_hint(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(40, 3))
        mu = Dist([0.5, 0.3, 0.2])
        for spec in (Shortfall(mu, ExpLoss()), LpEntropy(mu, 2.0)):
            F0 = F - risk_rows(spec, F)[:, None]
            warm = risk_rows(spec, F0, near=0.0)
            assert warm.tobytes() == shortfall_risk_rows(
                F0, mu.weights, spec.loss, near=0.0).tobytes()
            assert np.abs(warm).max() <= 1e-11
        # The closed-form families ignore it.
        cost = np.abs(np.subtract.outer(np.arange(3), np.arange(3)))
        for spec in (RelativeEntropy(mu), Transport(mu, cost),
                     Robust((mu, Dist([0.2, 0.2, 0.6]))),
                     SetIndicator((mu, Dist([0.2, 0.2, 0.6])))):
            assert risk_rows(spec, F, near=0.0).tobytes() == \
                risk_rows(spec, F).tobytes()


def power2_batches():
    """The (F, w) batches the q = 2 closed form is checked on."""
    rng = np.random.default_rng(5)
    w4 = rng.dirichlet(np.ones(4))
    F = rng.normal(size=(400, 4)) * 3.0
    F[rng.random(size=F.shape) < 0.4] = -INF
    F[np.arange(400), rng.integers(4, size=400)] = rng.normal(size=400)
    batches = {
        "random": (rng.normal(size=(400, 4)) * 3.0, w4),
        "constant": (np.repeat(rng.normal(size=(60, 1)) * 10.0, 4, axis=1),
                     w4),
        "neg_inf": (F, w4),
        "zero_weight": (rng.normal(size=(400, 5)) * 3.0,
                        np.array([0.3, 0.0, 0.2, 0.4, 0.1])),
        "wide_spread": (rng.normal(size=(400, 3)) *
                        10.0 ** rng.uniform(-3.0, 6.0, size=(400, 1)),
                        np.array([0.001, 0.5, 0.499])),
        "wide_batch": (rng.normal(size=(2 ** 15, 2)) * 3.0,
                       np.array([0.25, 0.75]))}
    return [pytest.param(F, w, id=name) for name, (F, w) in batches.items()]


class TestFloorStart:
    """Roots found from the mu-mean floor against the closed form of the
    q = 2 shortfall risk: each row within 1e-12 (1 + |rho|) and certified,
    G(rho) <= 1 < G(rho - tol)."""

    @pytest.mark.parametrize("F,w", power2_batches())
    def test_matches_the_closed_form(self, F, w):
        loss = PowerLoss(2.0)
        got = shortfall_risk_rows(F, w, loss)
        want = power2_shortfall_rows(F, w)
        assert np.isfinite(want).all()
        assert (np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))).all()
        G = TestWarmBracket.G
        assert (G(F, w, loss, got) <= 1.0).all()
        assert (G(F, w, loss, got - TOL * (1.0 + np.abs(got))) > 1.0).all()


class TestOceRisk:
    def test_exp_phi_matches_entropic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = rand_dist(rng, 3)
            f = rng.normal(size=3)
            got = oce_risk(f, mu, lambda x: np.exp(x) - 1.0)
            assert abs(got - entropic_risk(f, mu)) <= 1e-7

    def test_constant_shift(self):
        # f = c: value c + inf_m (phi*(-m) + m); for stop-loss that is c
        got = oce_risk([1.2, 1.2], UNIF2, lambda x: np.maximum(x, 0.0))
        assert abs(got - 1.2) <= 1e-9

    def test_stop_loss_grid_oracle(self):
        # phi* = max(x, 0): grid oracle gives 0.5 for f = (0, 1), mu uniform
        phi = lambda x: np.maximum(x, 0.0)
        got = oce_risk([0.0, 1.0], UNIF2, phi)
        ms = np.linspace(-3, 3, 600001)
        vals = [0.5 * (max(-m, 0) + max(1 - m, 0)) + m for m in ms]
        assert abs(got - min(vals)) <= 1e-8
        assert abs(got - 0.5) <= 1e-9

    def test_unbounded_below_reports_neg_inf(self, caplog):
        # slope-2 conjugate makes the objective decrease without bound
        import logging
        with caplog.at_level(logging.WARNING, logger="sanovdual"):
            got = oce_risk([0.0, 1.0], UNIF2, lambda x: 2.0 * x)
        assert got == -INF
        assert any("unbounded" in r.message for r in caplog.records)


class TestRobustAndSetRisk:
    def test_singleton(self):
        rng = np.random.default_rng(2)
        mu = rand_dist(rng, 2)
        f = rng.normal(size=2)
        assert robust_entropic_risk(f, (mu,)) == entropic_risk(f, mu)

    def test_constant(self):
        g = (Dist([0.2, 0.8]), Dist([0.9, 0.1]))
        assert abs(robust_entropic_risk([0.7, 0.7], g) - 0.7) <= 1e-12

    def test_two_generators_enumeration(self):
        g = (Dist([0.2, 0.8]), Dist([0.9, 0.1]))
        f = np.array([0.0, 1.0])
        want = max(entropic_risk(f, g[0]), entropic_risk(f, g[1]))
        assert robust_entropic_risk(f, g) == want

    def test_set_indicator_risk(self):
        g = (Dist([0.2, 0.8]), Dist([0.9, 0.1]))
        spec = SetIndicator(g)
        f = np.array([0.0, 1.0])
        want = max(float(np.dot(gi.weights, f)) for gi in g)
        assert abs(risk(f, spec) - want) <= 1e-12


class TestTransportRisk:
    def test_zero_cost_gives_max(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=3)
        got = risk(f, Transport(Dist([0.2, 0.5, 0.3]),
                                np.zeros((3, 3))))
        assert abs(got - f.max()) <= 1e-12

    def test_diagonal_identity(self):
        # zero on the diagonal, +inf off: the relaxation is f itself
        rng = np.random.default_rng(4)
        f = rng.normal(size=3)
        mu = rand_dist(rng, 3)
        cost = np.full((3, 3), INF)
        np.fill_diagonal(cost, 0.0)
        got = risk(f, Transport(mu, cost))
        assert abs(got - float(np.dot(mu.weights, f))) <= 1e-12

    def test_matches_simplex_grid_oracle(self):
        from sanovdual.optim import simplex_grid
        rng = np.random.default_rng(5)
        pts = simplex_grid(3, 0.01)
        for _ in range(3):
            mu = rand_dist(rng, 3)
            cost = rng.uniform(0.0, 2.0, (3, 3))
            np.fill_diagonal(cost, 0.0)
            f = rng.normal(size=3)
            vals = pts @ f - penalty(pts, Transport(mu, cost))
            got = risk(f, Transport(mu, cost))
            assert got >= vals.max() - 1e-12
            assert got <= vals.max() + 2e-3


class TestMaximizers:
    def test_maximizer_achieves_value(self):
        rng = np.random.default_rng(6)
        for spec in all_specs(rng):
            for _ in range(10):
                f = rng.normal(size=2)
                res = risk_result(f, spec)
                assert res.maximizer is not None
                achieved = float(np.dot(res.maximizer.weights, f)) - \
                    penalty(res.maximizer, spec)
                assert achieved >= res.value - 1e-6

    def test_methods_tagged(self):
        assert risk_result(np.zeros(2), RelativeEntropy(UNIF2)).method == \
            "closed_form"
        assert risk_result(np.zeros(2), Shortfall(UNIF2, ExpLoss())).method \
            == "root_find"


def edge_fields(rng, m):
    """Random rows, integer rows (ties), rows with -inf entries, a row of
    all -inf entries and a constant row."""
    F = np.vstack([rng.normal(size=(6, m)) * 2.0,
                   np.round(rng.normal(size=(6, m))),
                   np.full((1, m), -INF), np.zeros((1, m))])
    holes = np.round(rng.normal(size=(6, m)))
    holes[rng.random((6, m)) < 0.4] = -INF
    holes[:, 0] = -INF
    return np.vstack([F, holes])


class TestMaximizerRows:
    def specs(self, rng):
        gens3 = tuple(rand_dist(rng, 3) for _ in range(3))
        mu3 = Dist([0.0, 0.4, 0.6])
        cost3 = rng.uniform(0.0, 2.0, (3, 3))
        np.fill_diagonal(cost3, 0.0)
        cost3[0, 1] = INF
        gens5 = tuple(rand_dist(rng, 5) for _ in range(4))
        return all_specs(rng) + [
            RelativeEntropy(mu3), LpEntropy(mu3, 3.0),
            Shortfall(mu3, ExpLoss()), Robust(gens3), SetIndicator(gens3),
            Transport(Dist([0.5, 0.3, 0.2]), cost3), Robust(gens5)]

    @staticmethod
    def achieved(row, f, spec):
        return integral(row, f) - penalty(Dist(row), spec)

    def test_rows_attain_the_value(self):
        rng = np.random.default_rng(16)
        for spec in self.specs(rng):
            F = edge_fields(rng, spec.size)
            X = spec.maximizer_rows(F)
            vals = risk_rows(spec, F)
            assert X.shape == F.shape
            nan = np.isnan(X).any(axis=1)
            if isinstance(spec, SetIndicator):
                assert not nan.any()
            else:
                assert np.array_equal(nan, vals == -INF), spec
            for row, f, v in zip(X[~nan], F[~nan], vals[~nan]):
                assert abs(row.sum() - 1.0) <= 1e-12 and (row >= 0).all()
                if np.isfinite(v):
                    assert self.achieved(row, f, spec) >= v - 1e-6

    def test_matches_the_per_row_reference(self):
        rng = np.random.default_rng(17)
        for spec in self.specs(rng):
            F = edge_fields(rng, spec.size)
            X = spec.maximizer_rows(F)
            for row, f, v in zip(X, F, risk_rows(spec, F)):
                ref = risk_maximizer(f, spec)
                one = spec.maximizer_rows(f[None])[0]
                assert np.isnan(one).any() == (ref is None)
                if ref is None:
                    assert np.isnan(row).all()
                    continue
                if np.isfinite(v):      # same arithmetic: equal bits
                    law = risk_result(f, spec).maximizer
                    assert np.array_equal(law.weights, ref.weights)
                if np.allclose(row, ref.weights, rtol=0.0, atol=1e-9):
                    continue
                # A tie broken the other way: both laws attain the value.
                assert np.isfinite(v)
                for law in (row, ref.weights):
                    assert self.achieved(law, f, spec) >= v - 1e-9


    def test_rows_do_not_depend_on_their_batch(self, monkeypatch):
        # Each row of every method equals its one-row call, bit for bit:
        # both halves of penalty_rows' (alpha, grad), and the values of
        # the others.  So risk_rows in blocks of 7 rows, batches of 40 and
        # 13 rows, equals one unblocked call, with and without a hint.
        monkeypatch.setattr(risk_module, "ROW_BLOCK", 7)
        rng = np.random.default_rng(18)
        for spec in self.specs(rng):
            m = spec.size
            F = np.vstack([edge_fields(rng, m), rng.normal(size=(20, m))])
            for rows in (F, F[:13]):
                for near in (None, 0.0):
                    assert risk_rows(spec, rows, near).tobytes() == \
                        spec.risk_rows(rows, near).tobytes(), (spec, near)
            X = spec.maximizer_rows(F)
            V = np.vstack([rng.dirichlet(np.ones(m), size=20), np.eye(m),
                           X[~np.isnan(X).any(axis=1)]])
            for method, rows in [(spec.penalty_rows, V), (spec.risk_rows, F),
                                 (spec.maximizer_rows, F)]:
                batch = method(rows)
                ones = [method(row[None]) for row in rows]
                if not isinstance(batch, tuple):
                    batch, ones = (batch,), [(one,) for one in ones]
                for k, part in enumerate(batch):
                    if part is None:        # a set indicator's gradient
                        assert all(one[k] is None for one in ones), spec
                        continue
                    for one, got in zip(ones, part):
                        assert np.asarray(one[k][0]).tobytes() == \
                            np.asarray(got).tobytes(), \
                            (spec, method.__name__, k)


class TestRowBlocks:
    def test_working_set_does_not_grow_with_the_batch(self):
        # risk_rows evaluates ROW_BLOCK rows at a time: a 2 MiB batch of
        # 2^17 shortfall rows peaks at about 3 MiB, where one call on the
        # whole batch peaks at about 33 MiB.
        spec = Shortfall(UNIF2, PowerLoss(2.0))
        F = np.random.default_rng(20).normal(size=(2 ** 17, 2))
        risk_rows(spec, F[:10])
        tracemalloc.start()
        try:
            risk_rows(spec, F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak


class TestGenericRisk:
    def test_objective_rows_do_not_depend_on_their_batch(self, monkeypatch):
        # The ascent evaluates only the rows still running, so each row of
        # the objective must equal its one-row value, bit for bit.
        real, seen = risk_module.pgd_max_simplex, {}

        def spy(objective, x0, **kwargs):
            seen["J"] = objective
            return real(objective, x0, **kwargs)
        monkeypatch.setattr(risk_module, "pgd_max_simplex", spy)
        rng = np.random.default_rng(19)
        for spec in TestMaximizerRows().specs(rng):
            if isinstance(spec, SetIndicator):
                continue
            m = spec.size
            generic_risk(rng.normal(size=m), spec, restarts=2, seed=5)
            X = rng.dirichlet(np.ones(m), size=50) * spec.support
            X /= X.sum(axis=1, keepdims=True)
            vals, grads = seen["J"](X)
            assert np.isfinite(vals).any()
            for row, val, grad in zip(X, vals, grads):
                one_val, one_grad = seen["J"](row[None])
                assert one_val[0].tobytes() == val.tobytes(), spec
                assert one_grad[0].tobytes() == grad.tobytes(), spec

    def test_matches_entropic_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            mu = rand_dist(rng, m)
            f = rng.normal(size=m) * 1.5
            res = generic_risk(f, RelativeEntropy(mu), restarts=4, seed=1)
            assert abs(res.value - entropic_risk(f, mu)) <= 1e-6

    def test_matches_other_closed_forms(self):
        rng = np.random.default_rng(8)
        for spec in all_specs(rng):
            for _ in range(4):
                f = rng.normal(size=2)
                res = generic_risk(f, spec, restarts=4, seed=2)
                want = risk(f, spec)
                assert abs(res.value - want) <= 1e-6

    def test_set_indicator_vertex(self):
        g = (Dist([0.2, 0.8]), Dist([0.9, 0.1]))
        res = generic_risk(np.array([1.0, 0.0]), SetIndicator(g))
        assert res.maximizer is g[1]
        assert abs(res.value - 0.9) <= 1e-12

    def test_zero_field_gives_zero_for_normalized_specs(self):
        rng = np.random.default_rng(9)
        for spec in all_specs(rng):
            if isinstance(spec, Transport):
                continue  # transport penalty needs zero-cost identity here
            res = generic_risk(np.zeros(2), spec, restarts=4, seed=3)
            assert abs(res.value) <= 1e-7

    def test_weak_duality_sampled(self):
        rng = np.random.default_rng(10)
        for spec in all_specs(rng):
            f = rng.normal(size=2)
            res = generic_risk(f, spec, restarts=4, seed=4)
            draws = rng.dirichlet(np.ones(2), size=1000)
            alphas = penalty(draws, spec)
            vals = draws @ f - alphas
            vals = vals[np.isfinite(vals)]
            if vals.size:
                assert res.value >= vals.max() - 1e-7


class TestRiskProperties:
    def test_monotone(self):
        rng = np.random.default_rng(11)
        for spec in all_specs(rng):
            for _ in range(10):
                f = rng.normal(size=2)
                g = f - np.abs(rng.normal(size=2))
                assert risk(f, spec) >= risk(g, spec) - 1e-10

    def test_translation(self):
        rng = np.random.default_rng(12)
        for spec in all_specs(rng):
            for _ in range(10):
                f = rng.normal(size=2)
                c = float(rng.normal()) * 2.0
                assert abs(risk(f + c, spec) - (risk(f, spec) + c)) <= 1e-9

    def test_convex_in_f(self):
        rng = np.random.default_rng(13)
        for spec in all_specs(rng):
            for _ in range(10):
                f1, f2 = rng.normal(size=2), rng.normal(size=2)
                t = float(rng.uniform(0.1, 0.9))
                lhs = risk(t * f1 + (1 - t) * f2, spec)
                rhs = t * risk(f1, spec) + (1 - t) * risk(f2, spec)
                assert lhs <= rhs + 1e-8

    def test_monotone_approximation_from_below(self):
        # rho(f) = sup_m rho(min(f, m)) for f bounded below
        rng = np.random.default_rng(14)
        for spec in all_specs(rng):
            f = np.array([0.5, 4.0])
            full = risk(f, spec)
            vals = [risk(np.minimum(f, m), spec) for m in (1.0, 2.0, 4.0, 8.0)]
            assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(vals, vals[1:]))
            assert abs(vals[-1] - full) <= 1e-9


class TestPenaltyFromRisk:
    def test_entropy_at_reference(self):
        est = penalty_from_risk(UNIF2, RelativeEntropy(UNIF2), bound=6.0)
        assert abs(est.value) <= 1e-3
        assert est.direct == 0.0

    def test_lp_random(self):
        rng = np.random.default_rng(15)
        spec = LpEntropy(UNIF2, 2.0)
        for _ in range(5):
            nu = rand_dist(rng, 2)
            est = penalty_from_risk(nu, spec, bound=6.0)
            assert abs(est.gap) <= 5e-3
            assert est.value <= est.direct + 1e-9

    def test_unsupported_grows_with_bound(self):
        # nu not << mu: the recovered value increases without bound in B
        nu = Dist([0.5, 0.5])
        spec = RelativeEntropy(Dist([1.0, 0.0]))
        vals = [penalty_from_risk(nu, spec, bound=b).value
                for b in (2.0, 6.0, 12.0)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 5.0
