"""The level-by-level table build against the collector it replaced
(``collect_oracle``): the same acceptance, the same table, the same error."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import catalog as cat
from mipkit import group_core as gc
from collect_oracle import oracle_from_pc_presentation


def _outcome(build, pres):
    """The table's bytes, or the rejection's text."""
    try:
        return build(pres).mul.tobytes()
    except gc.PresentationError as exc:
        return str(exc)


@pytest.mark.parametrize("entry", cat.builtin_catalog(), ids=lambda e: e.name)
def test_catalog_tables_equal_the_collectors(entry, groups):
    oracle = oracle_from_pc_presentation(entry.presentation)
    assert groups[entry.name].mul.tobytes() == oracle.mul.tobytes()


@st.composite
def presentations(draw, max_exponent, max_log=None, p=None, log=None):
    """A pc presentation over the prime ``p`` (drawn when None) of order
    p^log (drawn when None, up to the cap for its prime and up to
    p^max_log when given), relative orders p or p^2, and relation words,
    half of them empty, of up to two factors, each exponent at most
    ``max_exponent``."""
    if p is None:
        p = draw(st.sampled_from(sorted(gc.ORDER_CAPS)))
    top = gc.log_p(gc.ORDER_CAPS[p], p)
    left = log or draw(st.integers(1, top if max_log is None else min(top, max_log)))
    rel_orders = []
    while left:
        e = draw(st.integers(1, min(left, 2)))
        rel_orders.append(p**e)
        left -= e
    d = len(rel_orders)

    def word(i):
        if i + 1 == d:
            return ()
        factor = st.tuples(st.integers(i + 1, d - 1), st.integers(1, max_exponent))
        return tuple(draw(st.one_of(st.just([]), st.lists(factor, min_size=1, max_size=2))))

    return gc.PcPresentation(
        p,
        tuple(rel_orders),
        {i: word(i) for i in range(d)},
        {(j, i): word(i) for i in range(d) for j in range(i + 1, d)},
    )


def _built(pres):
    try:
        return gc.from_pc_presentation(pres)
    except gc.PresentationError:
        return None


def consistent_groups(max_exponent, max_log=None, p=None, log=None):
    """The groups of drawn consistent presentations: ``presentations``
    built by ``from_pc_presentation``, with the draws it rejects filtered
    out, so a test that needs a group runs on every example it is given."""
    drawn = presentations(max_exponent, max_log=max_log, p=p, log=log)
    return drawn.map(_built).filter(lambda G: G is not None)


@settings(max_examples=300, deadline=None)
@given(pres=presentations(max_exponent=9))
def test_drawn_presentations_build_as_the_collector_builds(pres):
    # small exponents keep the collector inside its step cap
    assert _outcome(gc.from_pc_presentation, pres) == _outcome(oracle_from_pc_presentation, pres)


def _reduced(pres):
    """The same presentation with each exponent of g_j taken modulo
    |<g_j, ..., g_d>|, which g_j's order divides."""
    sizes = [math.prod(pres.rel_orders[j:]) for j in range(len(pres.rel_orders))]

    def reduce(word):
        return tuple((g, e % sizes[g]) for g, e in word if e % sizes[g])

    return gc.PcPresentation(
        pres.p,
        pres.rel_orders,
        {i: reduce(w) for i, w in pres.powers.items()},
        {key: reduce(w) for key, w in pres.commutators.items()},
    )


HUGE = 10**12


@pytest.mark.parametrize(
    "text, order",
    [
        # g2 has order 4: g1^2 = g2^(10^12 - 1) = g2 g3, so C8
        ("p 2\ngens 3\norder 1 2\norder 2 2\norder 3 2\npow 1 = g2^999999999999\npow 2 = g3\n", 8),
        # [g2, g1] = g3^(10^12 + 1) = g3^2: the Heisenberg group of order 27
        (f"p 3\ngens 3\norder 1 3\norder 2 3\norder 3 3\ncomm 2 1 = g3^{HUGE + 1}\n", 27),
        # g1^5 = g2^(5 * 10^12 + 2) = g2^2 and [g2, g1] = g3^HUGE = 1: C25 x C5
        (f"p 5\ngens 3\norder 1 5\norder 2 5\norder 3 5\npow 1 = g2^{5 * HUGE + 2}\ncomm 3 1 = g3^{HUGE}\n", 125),
        # g1^7 = g2^(7 * 10^12 + 7) = 1: C7 x C7
        (f"p 7\ngens 2\norder 1 7\norder 2 7\npow 1 = g2^{7 * HUGE + 7}\n", 49),
        # [g2, g1] = g2^(4 * 10^12 + 1) = g2 with g2 of order 4: inconsistent
        (f"p 2\ngens 2\norder 1 2\norder 2 4\ncomm 2 1 = g2^{4 * HUGE + 1}\n", None),
        # huge exponents in both a power and a commutator word, mod 8 and 4
        (f"p 2\ngens 3\norder 1 2\norder 2 2\norder 3 2\npow 1 = g2^{8 * HUGE + 3}\n"
         f"pow 2 = g3\ncomm 2 1 = g3^{4 * HUGE + 2}\n", 8),
    ],
    ids=["c8-past-the-old-step-cap", "heis27", "c25xc5", "c7xc7", "inconsistent", "mixed"],
)
def test_huge_exponents_build_as_their_reduced_forms(text, order):
    pres = gc.PcPresentation.parse(text)
    small = _reduced(pres)
    got = _outcome(gc.from_pc_presentation, pres)
    assert got == _outcome(gc.from_pc_presentation, small)
    assert got == _outcome(oracle_from_pc_presentation, small)
    if order is None:
        assert got.startswith("inconsistent presentation")
    else:
        assert len(got) == order * order * 8  # int64 cells


@settings(max_examples=100, deadline=None)
@given(pres=presentations(max_exponent=HUGE * 7 + 3))
def test_drawn_huge_exponents_build_as_their_reduced_forms(pres):
    small = _reduced(pres)
    got = _outcome(gc.from_pc_presentation, pres)
    assert got == _outcome(gc.from_pc_presentation, small)
    assert got == _outcome(oracle_from_pc_presentation, small)
