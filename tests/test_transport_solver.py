import math

import numpy as np
import pytest
from scipy.optimize import linprog

from oracles import solve_transport_uncached
from sanovdual import transport
from sanovdual.transport import solve_transport


def linprog_oracle(a, b, cost):
    """Independent LP oracle (HiGHS); +inf cells are dropped variables."""
    R, C = len(a), len(b)
    cost = np.asarray(cost, dtype=float)
    keep = [(i, j) for i in range(R) for j in range(C)
            if math.isfinite(cost[i, j])]
    if not keep:
        return math.inf
    A_eq = np.zeros((R + C, len(keep)))
    c_vec = np.zeros(len(keep))
    for k, (i, j) in enumerate(keep):
        A_eq[i, k] = 1.0
        A_eq[R + j, k] = 1.0
        c_vec[k] = cost[i, j]
    rhs = np.concatenate([a, b])
    res = linprog(c_vec, A_eq=A_eq, b_eq=rhs, bounds=(0, None),
                  method="highs")
    if not res.success:
        return math.inf
    return float(res.fun)


@pytest.mark.parametrize("m,n,seed", [(2, 2, 0), (3, 3, 1), (4, 3, 2),
                                      (5, 5, 3), (3, 6, 4), (10, 10, 8),
                                      (12, 7, 9)])
def test_matches_linprog_on_random_instances(m, n, seed):
    rng = np.random.default_rng(seed)
    for trial in range(10):
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(n))
        cost = rng.uniform(0.0, 5.0, size=(m, n))
        got = solve_transport(a, b, cost)
        want = linprog_oracle(a, b, cost)
        assert abs(got.value - want) <= 1e-9


def test_identity_coupling_zero_diagonal():
    w = np.array([0.2, 0.3, 0.5])
    cost = np.ones((3, 3)) - np.eye(3)
    sol = solve_transport(w, w, cost)
    assert abs(sol.value) <= 1e-10


def test_point_mass_row():
    # mu = delta_0: the coupling is forced, cost = sum_y c(0, y) nu(y).
    nu = np.array([0.25, 0.35, 0.4])
    cost = np.array([[0.7, 1.3, 0.2], [9.0, 9.0, 9.0], [9.0, 9.0, 9.0]])
    sol = solve_transport(np.array([1.0, 0.0, 0.0]), nu, cost)
    assert abs(sol.value - float(np.dot(cost[0], nu))) <= 1e-12


def test_total_variation_cost():
    a = np.array([0.5, 0.5])
    b = np.array([0.3, 0.7])
    sol = solve_transport(a, b, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(sol.value - 0.2) <= 1e-12


def test_infeasible_returns_inf():
    a = np.array([0.5, 0.5])
    b = np.array([0.5, 0.5])
    cost = np.array([[0.0, math.inf], [math.inf, math.inf]])
    assert solve_transport(a, b, cost).value == math.inf


def test_forbidden_cells_respected():
    rng = np.random.default_rng(5)
    for trial in range(10):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        cost = rng.uniform(0.0, 3.0, size=(3, 3))
        cost[rng.integers(0, 3), rng.integers(0, 3)] = math.inf
        got = solve_transport(a, b, cost)
        want = linprog_oracle(a, b, cost)
        if math.isinf(want):
            assert math.isinf(got.value)
        else:
            assert abs(got.value - want) <= 1e-9


def test_zero_marginal_entries():
    a = np.array([0.0, 1.0])
    b = np.array([0.6, 0.0, 0.4])
    cost = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    sol = solve_transport(a, b, cost)
    assert abs(sol.value - (0.6 * 4.0 + 0.4 * 6.0)) <= 1e-10


def test_plan_marginals_exact():
    rng = np.random.default_rng(6)
    a = rng.dirichlet(np.ones(4))
    b = rng.dirichlet(np.ones(4))
    sol = solve_transport(a, b, rng.uniform(0, 2, (4, 4)))
    np.testing.assert_allclose(sol.plan.sum(axis=1), a, atol=1e-12)
    np.testing.assert_allclose(sol.plan.sum(axis=0), b, atol=1e-12)


def test_potentials_certify_value():
    # Complementary slackness: the dual value matches the primal value.
    rng = np.random.default_rng(7)
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    sol = solve_transport(a, b, rng.uniform(0, 2, (3, 3)))
    dual = float(np.dot(sol.row_potentials, a) + np.dot(sol.col_potentials, b))
    assert abs(dual - sol.value) <= 1e-10


def test_pivot_cap_raises(monkeypatch):
    # The northwest corner puts all mass on the costly diagonal; the optimum
    # is the anti-diagonal, so at least one pivot is needed.
    a = np.array([0.5, 0.5])
    cost = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert solve_transport(a, a, cost).pivots >= 1
    monkeypatch.setattr(transport, "_MAX_PIVOTS", 0)
    with pytest.raises(ArithmeticError, match="terminate"):
        solve_transport(a, a, cost)


# ---------------------------------------------------------------------------
# Kept tables: every solve is bit for bit the solve that keeps none
# ---------------------------------------------------------------------------

def assert_same_solution(got, want):
    assert got.pivots == want.pivots
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    for g, w in ((got.plan, want.plan),
                 (got.row_potentials, want.row_potentials),
                 (got.col_potentials, want.col_potentials)):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.fixture
def no_tables(monkeypatch):
    """Start from empty tables, and leave the module's own as they were."""
    monkeypatch.setattr(transport, "_TABLES", {})


def random_cost(rng, R, C):
    # Integer costs make ties and degenerate pivots; some cells forbidden.
    if rng.random() < 0.5:
        cost = rng.integers(0, 4, (R, C)).astype(float)
    else:
        cost = rng.uniform(0.0, 3.0, (R, C))
    cost[rng.random((R, C)) < 0.25] = math.inf
    return cost


def random_marginals(rng, R, C):
    a, b = rng.dirichlet(np.ones(R)), rng.dirichlet(np.ones(C))
    if rng.random() < 0.3:
        a[rng.integers(R)] = 0.0
        a /= a.sum()
    return a, b


def test_kept_tables_match_uncached_solves(no_tables):
    # More cost matrices than are kept, each met many times, so solves run
    # on new, kept and evicted tables alike.
    rng = np.random.default_rng(12)
    costs = [random_cost(rng, *rng.integers(2, 9, 2)) for _ in range(7)]
    seen = {"forbidden": 0, "infeasible": 0, "pivots": 0}
    for trial in range(700):
        cost = costs[rng.integers(len(costs))]
        a, b = random_marginals(rng, *cost.shape)
        got = solve_transport(a, b, cost)
        assert_same_solution(got, solve_transport_uncached(a, b, cost))
        seen["forbidden"] += bool(np.isinf(cost).any())
        seen["infeasible"] += math.isinf(got.value)
        seen["pivots"] += got.pivots >= 1
    assert min(seen.values()) >= 20
    assert len(transport._TABLES) == transport._COST_CAP


def test_same_solve_before_and_after_the_basis_cap(no_tables, monkeypatch):
    monkeypatch.setattr(transport, "_BASIS_CAP", 6)
    rng = np.random.default_rng(13)
    cost = rng.uniform(0.0, 2.0, (5, 5))
    a, b = random_marginals(rng, 5, 5)
    first = solve_transport(a, b, cost)
    assert first.pivots >= 1
    for _ in range(100):
        solve_transport(*random_marginals(rng, 5, 5), cost)
    (tables,) = transport._TABLES.values()
    assert len(tables.bases) == 6
    again = solve_transport(a, b, cost)
    assert_same_solution(again, first)
    assert_same_solution(again, solve_transport_uncached(a, b, cost))


def test_errors_raise_on_every_call(no_tables):
    a = np.array([0.2, 0.3, 0.5])
    cost = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for _ in range(2):
        solve_transport(a, a[::-1], cost)
        with pytest.raises(ValueError, match="equal mass"):
            solve_transport(a, np.array([0.5, 0.5, 0.5]), cost)
        with pytest.raises(ValueError, match="shape"):
            solve_transport(a, np.array([0.5, 0.5]), cost)
        negative = cost.copy()
        negative[0, 1] = -1.0
        with pytest.raises(ValueError, match=">= 0"):
            solve_transport(a, a, negative)
    # The same array, made negative in place after a good solve.
    cost[0, 1] = -1.0
    with pytest.raises(ValueError, match=">= 0"):
        solve_transport(a, a, cost)
