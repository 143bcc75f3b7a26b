import logging

import numpy as np
import pytest

from oracles import sequential_expect
from sanovdual.cramer import moment_norm
from sanovdual.laws import LogNormalLaw, ParetoLaw, StudentTLaw
from sanovdual import quadrature
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


# The block walk against the segment-at-a-time walk it replaced.  The rows
# b^2, b and |x| b are nonnegative, so each is summed without cancellation
# and agrees to rounding.
WALK_LAWS = {"pareto": ParetoLaw(2.5), "student_t": StudentTLaw(4.0),
             "lognormal": LogNormalLaw(1.0)}


def _nonneg_rows(t, m):
    def b(x):
        return np.maximum(1.0 + t * x - m, 0.0)
    return lambda x: np.stack([b(x) ** 2, b(x), np.abs(x) * b(x)])


def _truncated(caplog, call, max_segments):
    """The tails ("upper", "lower") that ``call`` truncates at
    ``max_segments``."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="sanovdual"), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MAX_SEGMENTS", max_segments)
        call()
    return {tail for r in caplog.records for tail in ("upper", "lower")
            if f"{tail} tail truncated" in r.getMessage()}


def _same_walk(caplog, law, fn, kw):
    """(expect, the sequential walk's value, its segments per tail), after
    checking that both agree to rounding and sum the same segments."""
    args = (law.pdf, *law.support, fn)
    got = expect(*args, **kw)
    want, tails = sequential_expect(*args, **kw)
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-14 * np.abs(want))
    # Each tail stops after the same segment: capped one segment short it
    # is truncated, capped there it is not.
    for tail, (k, _) in tails.items():
        def call():
            return expect(*args, **kw)
        assert tail in _truncated(caplog, call, k - 1)
        assert tail not in _truncated(caplog, call, k)
    # The segments of a block past the stop are integrated but not summed.
    assert np.array_equal(expect(law.pdf, *law.support,
                                 _beyond(fn, tails, np.nan), **kw), got)
    return got, want, {tail: k for tail, (k, _) in tails.items()}


def _beyond(fn, tails, value):
    """fn, but ``value`` past the far end of each tail of ``tails``."""
    upper = tails.get("upper", (0, np.inf))[1]
    lower = tails.get("lower", (0, -np.inf))[1]
    return lambda x: np.where((x > upper) | (x < lower), value, fn(x))


@pytest.mark.parametrize("law", WALK_LAWS.values(), ids=WALK_LAWS.keys())
@pytest.mark.parametrize("t,m", [(0.3, 0.2), (-0.4, 0.1), (1e-3, 0.0),
                                 (-1e-3, 0.2), (-1e-6, 0.0)],
                         ids=["near", "near_negative", "far_left",
                              "far_right", "farther_right"])
@pytest.mark.parametrize("rows", [False, True], ids=["scalar", "rows"])
def test_block_walk_matches_sequential_walk(caplog, law, t, m, rows):
    fn = _nonneg_rows(t, m)
    if not rows:
        fn = (lambda f: lambda x: f(x)[0])(fn)
    kw = dict(breaks=((m - 1.0) / t,), centre=law.centre)
    got, want, _ = _same_walk(caplog, law, fn, kw)
    assert np.shape(got) == np.shape(want) == ((3,) if rows else ())


@pytest.mark.parametrize("law,fn,t,segments", [
    (LogNormalLaw(0.5), np.ones_like, -1.0, 5),
    (ParetoLaw(3.5), _nonneg_rows(1e-3, 0.2), 1e-3, 13)],
    ids=["second_block", "third_block"])
def test_stop_on_the_first_segment_of_a_block(caplog, law, fn, t, segments):
    # The pair of small pieces straddles two blocks.
    kw = dict(breaks=((0.2 - 1.0) / t,), centre=law.centre)
    assert _same_walk(caplog, law, fn, kw)[2] == {"upper": segments}


def test_mirrored_pieces_and_two_tails_match_sequential_walk(caplog):
    # Kinks on both sides of the centre: two mirrored pieces left of it,
    # two plain ones right of it, and both tails.
    law = StudentTLaw(4.0)
    kw = dict(breaks=(-40.0, -0.5, 3.0, 900.0), centre=law.centre)
    got, _, segments = _same_walk(caplog, law, _nonneg_rows(0.3, 0.2), kw)
    assert got.shape == (3,) and set(segments) == {"upper", "lower"}


def _counting(fn):
    calls = []

    def counted(x):
        calls.append(x.size)
        return fn(x)
    return counted, calls


def _blocks(segments):
    """Tail blocks (4, 8, 16, 32, 64 segments) that cover ``segments``."""
    return next(j for j in range(1, 6) if 4 * (2 ** j - 1) >= segments)


@pytest.mark.parametrize("t,m,pieces", [(0.3, 0.2, 0), (-0.4, 0.1, 1),
                                        (-1e-3, 0.0, 1)])
def test_one_integrand_call_per_piece_and_tail_block(t, m, pieces):
    law = ParetoLaw(2.5)

    def f(x):
        return np.maximum(1.0 + t * x - m, 0.0) ** 2
    kw = dict(breaks=((m - 1.0) / t,), centre=law.centre)
    fn, calls = _counting(f)
    expect(law.pdf, *law.support, fn, **kw)
    _, tails = sequential_expect(law.pdf, *law.support, f, **kw)
    assert len(calls) == pieces + _blocks(tails["upper"][0])


@pytest.mark.parametrize("max_segments,sizes", [(90, [4, 8, 16, 32, 30]),
                                                (7, [4, 3])])
def test_tail_that_never_decays_stops_at_max_segments(caplog, monkeypatch,
                                                      max_segments, sizes):
    monkeypatch.setattr(quadrature, "MAX_SEGMENTS", max_segments)
    fn, calls = _counting(np.ones_like)
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        got = expect(np.ones_like, 0.0, np.inf, fn, centre=0.0)
    assert calls == [64 * n for n in sizes]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1 and messages[0].startswith(
        f"quadrature: upper tail truncated after {max_segments} segments at ")
    want, tails = sequential_expect(np.ones_like, 0.0, np.inf, np.ones_like,
                                    centre=0.0, max_segments=max_segments)
    assert tails["upper"][0] == max_segments
    assert abs(got - want) <= 1e-14 * want
