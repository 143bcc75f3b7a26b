import numpy as np
import pytest

from sanovdual.cramer import moment_norm
from sanovdual.laws import ParetoLaw, StudentTLaw
from sanovdual.quadrature import expect


def _rows(t, m):
    """The cumulant's rows b^2, b and x b for b = (1 + t x - m)^+; they
    decay alike, so one shared tail walk serves each as its own would."""
    def b(x):
        return np.maximum(1.0 + t * x - m, 0.0)
    return [lambda x: b(x) ** 2, b, lambda x: x * b(x)]


@pytest.mark.parametrize("law", [ParetoLaw(3.5), StudentTLaw(4.0)],
                         ids=["one_sided", "two_sided"])
@pytest.mark.parametrize("t,m", [(0.3, 0.2), (-0.4, 0.1)])
def test_vector_rows_match_scalar_calls(law, t, m):
    fns = _rows(t, m)
    breaks = ((m - 1.0) / t,)
    got = expect(law.pdf, *law.support,
                 lambda x: np.stack([f(x) for f in fns]), breaks=breaks)
    assert got.shape == (3,)
    for value, f in zip(got, fns):
        want = expect(law.pdf, *law.support, f, breaks=breaks)
        assert abs(value - want) <= 1e-14 * abs(want)


def test_scalar_result_is_pinned():
    # A scalar integrand keeps its arithmetic bit for bit.
    law = ParetoLaw(2.5)
    got = expect(law.pdf, *law.support, lambda x: np.abs(x) ** 2,
                 breaks=(0.0,))
    assert got == 2.222222222222175
    assert moment_norm(law, 2.0) == 1.4907119849998438
