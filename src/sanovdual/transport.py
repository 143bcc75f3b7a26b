"""Exact optimal transport on finite spaces via the transportation simplex.

The simplex runs on the basis matrix.  The constraint matrix A has one
column per cell (i, j), with cell id i*C + j, and one row per marginal
constraint; the row of u_0 is dropped, since u_0 = 0 fixes the potentials.
A basis is R + C - 1 cell ids whose columns B = A[:, basis] form a spanning
tree of the bipartite row/column graph, so B is square and nonsingular.  A
is totally unimodular, so B^-1 has entries in {-1, 0, 1} and the rounded
inverse is exact.  Each pivot inverts B once: the potentials solve
B^T y = cost[basis], the basic flows x and the pivot cycle d solve
B [x, d] = [marginals, A_e] (Bertsimas & Tsitsiklis, *Introduction to
Linear Optimization*, ch. 5 and 7).

Northwest-corner start, Bland's rule for entering (first cell in row-major
order with a negative reduced cost) and leaving (first basic cell on the
cycle that reaches zero), and a 1e-13 perturbation of the marginals to
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

_PEN_TOL = 1e-9     # penalties are near-integers
_MAX_PIVOTS = 20000


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


def solve_transport(a, b, cost, eps: float = 1e-13) -> TransportSolution:
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
    if (cost < 0).any():
        raise ValueError("cost entries must be >= 0")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise ValueError("marginals must have equal mass")

    forbidden = np.isinf(cost)
    fin = np.where(forbidden, 0.0, cost)
    pair = np.column_stack([forbidden.ravel(), fin.ravel()])
    val_tol = 1e-12 * (1.0 + float(np.abs(fin).max(initial=0.0)))
    cells = np.arange(R * C)
    A = np.zeros((R + C, R * C))
    A[cells // C, cells] = 1.0
    A[R + cells % C, cells] = 1.0
    A = A[1:]

    ap = a + eps
    bp = b.copy()
    bp[-1] += R * eps
    rhs = np.concatenate([ap[1:], bp])
    basis = _northwest_corner(ap, bp)

    pivots = 0
    while True:
        Binv = np.rint(np.linalg.inv(A.take(basis, axis=1)))
        y = Binv.T @ pair.take(basis, axis=0)
        # Lexicographically negative: fewer forbidden units, or as many and
        # a lower finite cost.
        r0, r1 = (pair - A.T @ y).T
        negative = (r0 < -_PEN_TOL) | ((r0 <= _PEN_TOL) & (r1 < -val_tol))
        negative[basis] = False
        entering = int(negative.argmax())
        if not negative[entering]:
            break
        if pivots == _MAX_PIVOTS:
            raise ArithmeticError("transportation simplex failed to terminate")
        pivots += 1
        # Raising the entering flow by theta moves the basic flows by
        # -theta * d; the cells with d = +1 are the decreasing half of the
        # cycle.
        x = Binv @ rhs
        minus = Binv @ A[:, entering] > 0.5
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

    if float(plan[forbidden].sum()) > 1e-12:
        return TransportSolution(INF, None, None, None, pivots)
    u = np.concatenate([[0.0], y[:R - 1, 1]])
    value = float((plan * fin).sum())
    return TransportSolution(value, plan, u, y[R - 1:, 1].copy(), pivots)
