"""Exact optimal transport on finite spaces via the transportation simplex.

The simplex runs on the basis matrix.  The constraint matrix A has one
column per cell (i, j), with cell id i*C + j, and one row per marginal
constraint; the row of u_0 is dropped, since u_0 = 0 fixes the potentials.
A basis is R + C - 1 cell ids whose columns B = A[:, basis] form a spanning
tree of the bipartite row/column graph, so B is square and nonsingular.  A
is totally unimodular, so B^-1 has entries in {-1, 0, 1} and the rounded
inverse is exact.  The potentials solve B^T y = cost[basis], the basic
flows x and the pivot cycle d solve B [x, d] = [marginals, A_e]
(Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, ch. 5
and 7).  Only x depends on the marginals: A, B^-1, y, the entering cell
and d depend on the cost and the basis alone, so they are computed once
per (cost, basis) and kept for the last few cost matrices.

Northwest-corner start, Bland's rule for entering (first cell in row-major
order with a negative reduced cost) and leaving (first basic cell on the
cycle that reaches zero), and a perturbation ``_EPS`` of the marginals to
break degenerate ties.  Forbidden (infinite-cost) cells are handled with a
symbolic big-M: costs are pairs (penalty_units, cost) compared
lexicographically, so the solver first minimizes mass on forbidden cells
and only then the finite cost.  If the minimal forbidden mass is positive,
no finite-cost coupling exists and the value is +inf.

After the pivoting loop the flows of the final basis are re-solved against
the unperturbed marginals, so the reported plan sums exactly to the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extreal import INF
from .spaces import SUM_SLACK

_PEN_TOL = 1e-9     # penalties are near-integers
_EPS = 1e-13        # marginal perturbation
_MAX_PIVOTS = 20000
_COST_CAP = 4       # cost matrices whose tables are kept
_BASIS_CAP = 1024   # bases kept per cost matrix
_TABLES: dict = {}


@dataclass
class TransportSolution:
    value: float
    plan: Optional[np.ndarray]
    row_potentials: Optional[np.ndarray]
    col_potentials: Optional[np.ndarray]
    pivots: int


def _northwest_corner(a, b):
    """Cell ids of the northwest-corner basis for marginals (a, b)."""
    R, C = a.size, b.size
    arem = a.copy()
    brem = b.copy()
    basis = []
    i = j = 0
    while True:
        q = min(arem[i], brem[j])
        basis.append(i * C + j)
        arem[i] -= q
        brem[j] -= q
        if i == R - 1 and j == C - 1:
            break
        if arem[i] <= brem[j] and i < R - 1:
            i += 1
        elif j < C - 1:
            j += 1
        else:
            i += 1
    return basis


class _CostTables:
    """What a cost matrix alone fixes: the constraint matrix A, the
    lexicographic cost pairs and, per basis (its cell ids in order), the
    rounded inverse, the potentials, the entering cell (-1 at an optimum)
    and the decreasing half of its cycle.  Each is a pure function of the
    cost and the basis, so a solve that reuses them is bit-identical to
    one that recomputes them."""

    def __init__(self, cost: np.ndarray):
        if (cost < 0).any():
            raise ValueError("cost entries must be >= 0")
        R, C = cost.shape
        self.forbidden = np.isinf(cost)
        self.fin = np.where(self.forbidden, 0.0, cost)
        self.pair = np.column_stack([self.forbidden.ravel(),
                                     self.fin.ravel()])
        self.val_tol = 1e-12 * (1.0 + float(np.abs(self.fin).max(
            initial=0.0)))
        cells = np.arange(R * C)
        A = np.zeros((R + C, R * C))
        A[cells // C, cells] = 1.0
        A[R + cells % C, cells] = 1.0
        self.A = A[1:]
        self.bases = {}

    def at(self, basis: list):
        """(B^-1, y, entering, minus) of a basis, computed once."""
        key = tuple(basis)
        hit = self.bases.get(key)
        if hit is not None:
            return hit
        A, pair = self.A, self.pair
        Binv = np.rint(np.linalg.inv(A.take(basis, axis=1)))
        y = Binv.T @ pair.take(basis, axis=0)
        # Lexicographically negative: fewer forbidden units, or as many and
        # a lower finite cost.
        r0, r1 = (pair - A.T @ y).T
        negative = (r0 < -_PEN_TOL) | ((r0 <= _PEN_TOL) &
                                       (r1 < -self.val_tol))
        negative[basis] = False
        entering = int(negative.argmax())
        if negative[entering]:
            # Raising the entering flow by theta moves the basic flows by
            # -theta * d; the cells with d = +1 are the decreasing half of
            # the cycle.
            hit = (Binv, y, entering, Binv @ A[:, entering] > 0.5)
        else:
            hit = (Binv, y, -1, None)
        if len(self.bases) == _BASIS_CAP:
            del self.bases[next(iter(self.bases))]
        self.bases[key] = hit
        return hit


def _tables(cost: np.ndarray) -> _CostTables:
    """The tables of a cost matrix, kept for the last few matrices."""
    key = (cost.shape, cost.tobytes())
    tables = _TABLES.pop(key, None)
    if tables is None:
        tables = _CostTables(cost)
        if len(_TABLES) == _COST_CAP:
            del _TABLES[next(iter(_TABLES))]
    _TABLES[key] = tables
    return tables


def solve_transport(a, b, cost) -> TransportSolution:
    """Minimize sum(cost * plan) over couplings of marginals (a, b).

    ``cost`` entries must be >= 0; +inf marks forbidden cells.  Returns
    value +inf when every coupling must use a forbidden cell.
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    cost = np.asarray(cost, dtype=float)
    R, C = a.size, b.size
    if cost.shape != (R, C):
        raise ValueError("cost matrix shape mismatch")
    tables = _tables(cost)
    if abs(a.sum() - b.sum()) > SUM_SLACK:
        raise ValueError("marginals must have equal mass")

    ap = a + _EPS
    bp = b.copy()
    bp[-1] += R * _EPS
    rhs = np.concatenate([ap[1:], bp])
    basis = _northwest_corner(ap, bp)

    pivots = 0
    while True:
        Binv, y, entering, minus = tables.at(basis)
        if entering < 0:
            break
        if pivots == _MAX_PIVOTS:
            raise ArithmeticError("transportation simplex failed to terminate")
        pivots += 1
        x = Binv @ rhs
        theta = x[minus].min()
        del basis[int((minus & (x <= theta)).argmax())]
        basis.append(entering)

    # Optimality of the final basis depends only on the costs, so re-solve
    # its flows against the unperturbed marginals for an exact plan.
    exact = Binv @ np.concatenate([a[1:], b])
    if (exact < -1e-8).any():
        raise ArithmeticError("tree flow went negative beyond tolerance")
    plan = np.zeros(R * C)
    plan[basis] = np.maximum(exact, 0.0)
    plan = plan.reshape(R, C)

    if float(plan[tables.forbidden].sum()) > 1e-12:
        return TransportSolution(INF, None, None, None, pivots)
    u = np.concatenate([[0.0], y[:R - 1, 1]])
    value = float((plan * tables.fin).sum())
    return TransportSolution(value, plan, u, y[R - 1:, 1].copy(), pivots)
