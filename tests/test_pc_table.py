"""The level-by-level table build against the collector it replaced
(``collect_oracle``): the same acceptance and the same table; a rejected
presentation is inconsistent to both, though they may stop it at different
checks."""

import hashlib
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


def _verdict(build, pres):
    """The table's bytes, or None for a rejection as inconsistent.  Two
    builders may stop an inconsistent presentation at different checks,
    so the rejection's text is no part of the verdict."""
    try:
        return build(pres).mul.tobytes()
    except gc.PresentationError as exc:
        assert str(exc).startswith("inconsistent presentation: "), str(exc)
        return None


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
    assert _verdict(gc.from_pc_presentation, pres) == _verdict(oracle_from_pc_presentation, pres)


def test_builders_may_reject_one_presentation_at_different_checks():
    # a drawn inconsistent presentation: the level-by-level table fails
    # Light's test, the collector's table the inverse check before it
    pres = gc.PcPresentation.parse(
        "p 2\ngens 5\norder 1 2\norder 2 2\norder 3 2\norder 4 4\norder 5 2\n"
        "comm 3 2 = g4\ncomm 4 1 = g2*g2\n"
    )
    assert _outcome(gc.from_pc_presentation, pres) == (
        "inconsistent presentation: multiplication table is not associative"
    )
    assert _outcome(oracle_from_pc_presentation, pres) == "inconsistent presentation: inverse table inconsistent"


@settings(max_examples=300, deadline=None)
@given(pres=presentations(max_exponent=10**12))
def test_presentation_text_parses_back_to_the_presentation(pres):
    assert gc.PcPresentation.parse(pres.text()) == pres


CATALOG_SHA256 = {
    "C2": "b5e311e9f111026aee5e8838db528595c9dca725fa68a67fcb62f6a2fff80ca5",
    "C4": "f1d05ea52e16cd41affbc4f617284685f5dbcf8fed4d996dd482fe8d6388480c",
    "C8": "923a6f9bc08b7ac3295af649f73d81e522f0bf5b90238327a2203e711d5debb2",
    "C16": "4488e6dbb405bc88d08868edc5ae1ac44cc9e3d174ed2e1d90770dda6618f2c5",
    "C2xC2": "0d9c129ef0416f890ed8d1647ea622ed042761afda4cf65f6fbfd1adcefbf731",
    "C4xC2": "d1322f74970a7180dcc35f16763acaa8ea58045e51dfafda37eb0efdd54a43b9",
    "C2xC2xC2": "170b583592ef5d5295ad03b7f437789e67daf44fb89e3010e1909a4a6a3ef310",
    "D8": "dd66e6f484ded524814fe97348ae230d541e1dfbd7b7a48b582b7d6069db1d74",
    "Q8": "4abcb6cd8589c3f79de66abc1508ef3121a9be589ab95d92e6e04737d741de18",
    "D16": "28e2f3f5bc760f19ad9405a6f98b5e5bd611901459d652a14a25181c0b6b6702",
    "Q16": "0d0aa3ab790cf2d633981f9cfbc846d7de7b8e0ee3107db35ca56cb102898032",
    "SD16": "36d3ea89c81f521ac960578ba2a695cf6fdf61dd26aa50031f30e0b20f8f957d",
    "M16": "f98907bffaf119137f998c65d08feddd0cea0dfb00a5b3ed3c9d20dee7d2a31a",
    "D8xC2": "f2c83d86dd9a069cf58dc58bcc4c143a1e8f780302c6cefbffa55e1d7c3a7ede",
    "Q8xC2": "cfae39fd287b45af76895fb9bd430568dc9d98fdda631df116fe07cf3dba380c",
    "D8xC4": "37a08a83a9b1af05a69e3ef6431521bc7fbd3deff5c56db456ac231f5ef38be1",
    "Q8xC4": "2019f47658166a641ad8bc1245c28a02c2b8e8052adcbcd0ce2367be87e155e1",
    "D8xC4xC2": "6dbe3464e1a26fc36694beb39f03d3e48a4e0effbec7eb429906dede2d510b71",
    "C3": "40afe209c064913904eb5d6d3506677f6c86c33aec4e4cdaf3e758ad020242e4",
    "C9": "a7f9b9747ecb841a6b512e829a5f1849aa7ec3b13fb15504d4e1f469d4832db7",
    "C27": "5ea044f60d4cbbc593c1e6c8a6e333c02200adc351a7e36058eb1004a94ac5db",
    "C3xC3": "993f805556b6d64f503d429574ab0cb1548041b5868cadeb9a7d3f709e489b4a",
    "C9xC3": "fb098733f564f582874c2f4f866a147750e3594e9263ffd612438e49ba4de701",
    "Heis27": "cdd9e9dbcd79bdeaf15c7fcc98d337b5f0ffec2ce89eb747d0a3ebd49e2ca17c",
    "M27": "725f20992b6e9d01c18219666a94ba2c4f0650954aa4e532a143af8df938260b",
    "Heis27xC3": "0cdf4d26122cf464dd24bfd15d48c80e29152062e0dc38af261800851a5b5690",
    "Heis27xC9": "4fbcceb3405b63620bbb12771cec6f7db31c7bae682ccefb5fdce7bcf5539f62",
    "M27xC3": "b8fa9af8300361ddafd8372dd559b7c8d30b5f5026447a686743a9623d29e6c3",
    "M27xC9": "8d819a7ae58a20d3c07a43dc37f94cd34731c062b0ea0a4e9df4e3f530eab333",
}


def test_catalog_presentation_strings_are_pinned():
    # cache keys, golden hashes and benchmark inputs hash these strings
    got = {e.name: hashlib.sha256(e.presentation.encode()).hexdigest() for e in cat.builtin_catalog()}
    assert got == CATALOG_SHA256


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
    assert _outcome(gc.from_pc_presentation, pres) == _outcome(gc.from_pc_presentation, small)
    assert _verdict(gc.from_pc_presentation, pres) == _verdict(oracle_from_pc_presentation, small)
