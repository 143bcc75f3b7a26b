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
                 lambda x: np.stack([f(x) for f in fns]), breaks=breaks,
                 centre=law.centre)
    assert got.shape == (3,)
    for value, f in zip(got, fns):
        want = expect(law.pdf, *law.support, f, breaks=breaks,
                      centre=law.centre)
        assert abs(value - want) <= 1e-14 * abs(want)


def test_scalar_result_is_pinned():
    # A scalar integrand keeps its arithmetic bit for bit.
    law = ParetoLaw(2.5)
    got = expect(law.pdf, *law.support, lambda x: np.abs(x) ** 2,
                 breaks=(0.0,), centre=law.centre)
    assert got == 2.222222222222175
    assert moment_norm(law, 2.0) == 1.4907119849998438


# Breaks spaced geometrically on both sides of 0: every segment spans a
# small ratio, so each is integrated to rounding whatever the one kink.
GEOM = np.geomspace(1e-3, 1e7, 120)
DENSE_BREAKS = (0.0, *GEOM, *-GEOM)


def dense_expect(law, fn, kink):
    return expect(law.pdf, *law.support, fn, breaks=(*DENSE_BREAKS, kink),
                  centre=law.centre)


@pytest.mark.parametrize("kink", [-1e3, -20.0, -1.0, 0.3, 7.0, 1e3, 1e6])
def test_whole_line_mass_with_one_far_break(kink):
    # The bulk near the centre must not fall between two sparse nodes of a
    # segment that starts at a far kink.
    law = StudentTLaw(4.0)
    got = expect(law.pdf, *law.support, np.ones_like, breaks=(kink,),
                 centre=law.centre)
    assert abs(got - 1.0) <= 1e-12


@pytest.mark.parametrize("t,m", [(0.05, 0.0), (-0.05, 0.0), (1e-3, 1e-6),
                                 (-1e-6, 1e-12)])
def test_whole_line_kink_matches_dense_breaks(t, m):
    law = StudentTLaw(4.0)
    kink = (m - 1.0) / t
    fns = _rows(t, m)
    got = expect(law.pdf, *law.support,
                 lambda x: np.stack([f(x) for f in fns]), breaks=(kink,),
                 centre=law.centre)
    for value, f in zip(got, fns):
        want = dense_expect(law, f, kink)
        assert abs(value - want) <= 1e-13 * (1.0 + abs(want))


@pytest.mark.parametrize("breaks", [(), (-0.3, 4.0), (25.0,)])
def test_centre_at_the_left_edge_tiles_as_a_plain_break(breaks):
    # Pareto's centre is its left edge: every piece lies right of it and is
    # tiled from its left end, exactly as with no centre at all.
    law = ParetoLaw(2.5)
    fn = lambda x: np.abs(x) ** 2    # noqa: E731
    got = expect(law.pdf, *law.support, fn, breaks=breaks, centre=law.centre)
    assert got == expect(law.pdf, *law.support, fn, breaks=breaks,
                         centre=-np.inf)
