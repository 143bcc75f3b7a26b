"""Reference computations that only the tests use: the i.i.d. expectation
of a function of the empirical measure, summed by type class, and the
joint law that attains a dense recursion's value."""

import numpy as np
from scipy.special import gammaln

from sanovdual.risk import risk_maximizer
from sanovdual.spaces import Kernel, ProductDist, compose, type_index


def iid_empirical_expectation(F, nu_weights, n: int) -> float:
    """E under the n-fold product of nu of F(L_n), summed by type class."""
    w = np.asarray(nu_weights, dtype=float)
    C = type_index(n, w.size)
    C = C[~((C > 0) & (w <= 0)).any(axis=1)]     # classes of probability 0
    logp = gammaln(n + 1) - gammaln(C + 1).sum(axis=1) + \
        C @ np.log(np.where(w > 0, w, 1.0))
    return float(sum(np.exp(lp) * float(F(c / n)) for lp, c in zip(logp, C)))


def greedy_optimizer_from_trace(trace) -> ProductDist:
    """Extract the joint law attaining the n-step value from a trace."""
    m = trace.space.size
    first = risk_maximizer(trace.stages[1], trace.spec)
    kernels = []
    for k in range(2, trace.n + 1):
        g_k = trace.stages[k].reshape(-1, m)
        rows = np.empty_like(g_k)
        for r in range(g_k.shape[0]):
            rows[r] = risk_maximizer(g_k[r], trace.spec).weights
        kernels.append(Kernel(k, trace.space, rows))
    return compose(first, kernels)
