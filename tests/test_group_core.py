import ast
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import canonical_invariants as ci
from mipkit import catalog as cat
from mipkit import cli
from mipkit import decomposition as dc
from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit import modular_algebra as ma
import frattini_oracle
import greedy_oracle
import group_oracle
import normal_oracle
from test_pc_table import consistent_groups


def census(G):
    return dict(Counter(G.element_order(g) for g in G.elements))


def test_dihedral_presentation_census(groups):
    # dihedral of order 8: 1 identity, 5 involutions, 2 elements of order 4
    assert census(groups["D8"]) == {1: 1, 2: 5, 4: 2}


def test_quaternion_presentation_census(groups):
    # quaternion signature: exactly one involution
    assert census(groups["Q8"]) == {1: 1, 2: 1, 4: 6}


def test_cyclic_table_is_addition(groups):
    C4 = groups["C4"]
    expect = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    assert C4.mul.tolist() == expect


def test_higher_order_16_censuses(groups):
    assert census(groups["D16"]) == {1: 1, 2: 9, 4: 2, 8: 4}
    assert census(groups["Q16"]) == {1: 1, 2: 1, 4: 10, 8: 4}
    assert census(groups["SD16"]) == {1: 1, 2: 5, 4: 6, 8: 4}
    assert census(groups["M16"]) == {1: 1, 2: 3, 4: 4, 8: 8}


def test_inconsistent_presentation_rejected():
    # g2 has order 4 but the commutator relation forces an inconsistency:
    # [g2,g1] = g2 would give g1^-1 g2 g1 = g2^2, and collection cannot
    # produce a consistent group of order 8 (g2^2 has order 2, conjugation
    # must preserve order)
    bad = "p 2\ngens 2\norder 1 2\norder 2 4\ncomm 2 1 = g2^1\n"
    with pytest.raises(gc.PresentationError):
        gc.from_pc_presentation(bad)


def test_order_cap_enforced():
    with pytest.raises(gc.CapExceededError):
        gc.from_pc_presentation("p 2\ngens 1\norder 1 256\n")


@pytest.mark.parametrize(
    "text, order_and_exponent",
    [
        ("p 2\ngens 1000000000000\norder 1 2\n", None),
        # g2^(10^12 - 1) = g2, so g1^2 = g2: C4
        ("p 2\ngens 2\norder 1 2\norder 2 2\npow 1 = g2^999999999999\n", (4, 4)),
        # g2 has order 4, so g1^2 = g2^(10^12 - 1) = g2 g3 has order 4: C8
        ("p 2\ngens 3\norder 1 2\norder 2 2\norder 3 2\npow 1 = g2^999999999999\npow 2 = g3\n", (8, 8)),
    ],
    ids=["gens-1e12", "empty-power-word", "past-the-step-cap"],
)
def test_huge_counts_in_a_presentation_finish_at_once(text, order_and_exponent):
    # a parse that built set(range(d)), or a build that looped as many times
    # as an exponent's value, would take hours or all memory on these
    if order_and_exponent is None:
        with pytest.raises(gc.PresentationError):
            gc.from_pc_presentation(text)
    else:
        G = gc.from_pc_presentation(text)
        assert (G.order, G.exponent()) == order_and_exponent


def test_word_range_validation():
    with pytest.raises(gc.PresentationError):
        # power word may only use higher generators
        gc.PcPresentation.parse("p 2\ngens 2\norder 1 2\norder 2 4\npow 2 = g1^1\n")


def test_direct_product_c2_c2(groups):
    P = gc.direct_product(groups["C2"], groups["C2"])
    assert P.order == 4 and P.exponent() == 2 and P.is_abelian


def test_direct_product_carries_the_merged_presentation(groups):
    # D8 x C2 joins the two presentations: the catalog's D8xC2, appended
    # cyclic generator and table alike
    P = gc.direct_product(groups["D8"], groups["C2"])
    assert P.presentation == groups["D8xC2"].presentation
    assert np.array_equal(P.mul, groups["D8xC2"].mul)
    G = groups["D8"]
    Q, _ = gc.quotient(G, gc.center(G))
    for no_presentation in (Q, group_oracle.as_group(G.subgroup((1,)))[0], gc.from_mul_table(G.mul)):
        assert no_presentation.presentation is None
        assert gc.direct_product(no_presentation, groups["C2"]).presentation is None


@pytest.mark.parametrize("a, b", [("C2", "D8"), ("D8", "Q8"), ("C3", "Heis27"), ("C4", "M16")])
def test_merged_relations_of_the_second_factor_build_the_product(groups, a, b):
    # the second factor's powers and commutators are shifted past the first
    # factor's generators, and the merged presentation builds the product's table
    A, B = groups[a], groups[b]
    merged = gc.merge_presentations(A.presentation, B.presentation)
    shift = len(A.presentation.rel_orders)
    assert any(j >= shift for j, _ in merged.commutators)
    assert np.array_equal(gc.from_pc_presentation(merged).mul, gc.direct_product(A, B).mul)


def test_foreign_subgroups_and_unfit_products_are_refused(groups):
    G = groups["D8"]
    foreign = gc.center(cat.build("D8"))  # same table, another group
    whole = G
    for call in (
        lambda: gc.join(whole, foreign),
        lambda: gc.intersect_subgroups(whole, foreign),
        lambda: gc.omega_relative(G, foreign, 1),
    ):
        with pytest.raises(ValueError, match="^subgroups of different parents$"):
            call()
    with pytest.raises(ValueError, match="^subgroup of a different group$"):
        gc.quotient(G, foreign)
    with pytest.raises(ValueError, match="^direct product needs a common prime$"):
        gc.direct_product(G, groups["C3"])
    with pytest.raises(gc.CapExceededError, match="^product order 256 exceeds the cap for p=2$"):
        gc.direct_product(groups["D8xC4xC2"], groups["C4"])


def test_direct_product_order_and_center(groups):
    P = gc.direct_product(groups["D8"], groups["C4"])
    assert P.order == groups["D8"].order * groups["C4"].order
    # Z(D8 x C4) = Z(D8) x C4
    assert gc.center(P).order == 8


def test_direct_product_embeddings(groups):
    P = gc.direct_product(groups["D8"], groups["C4"])
    emb_a, emb_b = P.embeddings
    assert group_oracle.is_injective(emb_a) and group_oracle.is_injective(emb_b)
    img_a = group_oracle.image_subgroup(emb_a)
    img_b = group_oracle.image_subgroup(emb_b)
    assert img_a.order == 8 and img_b.order == 4
    assert gc.intersect_subgroups(img_a, img_b).is_trivial()


def test_center_and_derived_of_dihedral(groups):
    D8 = groups["D8"]
    z = gc.center(D8)
    assert z.order == 2
    d = gc.commutator_subgroup(D8)
    assert d.order == 2 and d == z


def test_commutator_subgroup_of_abelian_is_trivial(groups):
    for name in ("C8", "C4xC2", "C9xC3"):
        assert gc.commutator_subgroup(groups[name]).is_trivial()


def test_omega_agemo_cyclic(groups):
    C8 = groups["C8"]
    assert gc.omega(C8, 1).order == 2
    assert gc.agemo(C8, 1).order == 4
    assert gc.omega(C8, 0).is_trivial()
    assert group_oracle.is_whole_group(gc.agemo(C8, 0))


def test_omega_agemo_monotone_and_stable(groups):
    for name in ("D8", "C16", "M16", "Heis27", "M27"):
        G = groups[name]
        p, exp = G.p, G.exponent()
        tmax = 0
        while p**tmax < exp:
            tmax += 1
        prev_om, prev_ag = None, None
        for t in range(tmax + 2):
            om, ag = gc.omega(G, t), gc.agemo(G, t)
            if prev_om is not None:
                assert om.contains_subgroup(prev_om)
                assert prev_ag.contains_subgroup(ag)
            prev_om, prev_ag = om, ag
        assert group_oracle.is_whole_group(gc.omega(G, tmax))
        assert gc.agemo(G, tmax).is_trivial()


def test_omega_relative_examples(groups):
    D8 = groups["D8"]
    assert group_oracle.is_whole_group(gc.omega_relative(D8, D8, 3))
    # every element of the dihedral group squares into the derived subgroup
    assert group_oracle.is_whole_group(gc.omega_relative(D8, gc.commutator_subgroup(D8), 1))


def test_omega_relative_matches_quotient_omega(small_groups):
    for G in small_groups.values():
        for n in gc.normal_subgroups(G):
            q, proj = gc.quotient(G, n)
            for t in (1, 2):
                rel = gc.omega_relative(G, n, t)
                image = sorted({proj(x) for x in rel.elements})
                assert image == list(gc.omega(q, t).elements)


def test_omega_relative_requires_normal(groups):
    D8 = groups["D8"]
    s = D8.subgroup((4,))
    assert not s.is_normal()
    with pytest.raises(gc.NotNormalError):
        gc.omega_relative(D8, s, 1)


def test_frattini_examples(groups):
    assert gc.frattini(groups["C4xC2"]).order == 2
    assert gc.frattini(groups["Q8"]).order == 2
    assert gc.frattini(groups["C2xC2xC2"]).is_trivial()


def test_frattini_equals_intersection_of_maximals(small_groups):
    for G in small_groups.values():
        assert gc.frattini(G) == frattini_oracle.frattini_by_maximals(G)


@settings(max_examples=300, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_frattini_equals_intersection_of_maximals(G):
    # orders up to p^4: the oracle enumerates every normal subgroup
    assert gc.frattini(G) == frattini_oracle.frattini_by_maximals(G)


def test_jennings_series_examples(groups):
    assert [s.order for s in gc.jennings_series_product_formula(groups["D8"])] == [8, 2, 1]
    assert [s.order for s in gc.jennings_series_product_formula(groups["C8"])] == [8, 4, 2, 2, 1]


def test_jennings_head_terms(small_groups):
    for G in small_groups.values():
        series = gc.jennings_series_product_formula(G)
        assert group_oracle.is_whole_group(series[0])
        if len(series) > 1:
            assert series[1] == gc.frattini(G)
        for d in series:
            assert d.is_normal()
        for a, b in zip(series, series[1:]):
            assert a.contains_subgroup(b)
            a_grp, a_map = group_oracle.as_group(a)
            back = {g: i for i, g in enumerate(a_map)}
            b_inside = gc.subgroup_from_elements(a_grp, [back[g] for g in b.elements])
            layer, _ = gc.quotient(a_grp, b_inside)
            assert layer.is_abelian and layer.exponent() in (1, G.p)


def test_jennings_of_abelian_determines_type(groups):
    # the term orders of C8 and C4xC2 differ although |G| and |Frattini| agree
    orders_a = [s.order for s in gc.jennings_series_product_formula(groups["C8"])]
    orders_b = [s.order for s in gc.jennings_series_product_formula(groups["C4xC2"])]
    assert orders_a != orders_b


def _type_from_jennings_orders(orders, p):
    # for abelian G the term at n is the (ceil log_p n)-th power subgroup,
    # so the term orders recover every |power subgroup| and hence the type:
    # log|P_k| - log|P_{k+1}| counts the invariant factors above p^k
    def log_p(x):
        e = 0
        while p**e < x:
            e += 1
        return e

    orders = list(orders) + [1]
    power_subgroup_logs = []
    k = 0
    while True:
        n = p ** max(k - 1, 0) + 1 if k else 1
        idx = min(n, len(orders)) - 1
        power_subgroup_logs.append(log_p(orders[idx]))
        if orders[idx] == 1:
            break
        k += 1
    counts = [
        power_subgroup_logs[k] - power_subgroup_logs[k + 1]
        for k in range(len(power_subgroup_logs) - 1)
    ]
    factors = []
    for k in range(len(counts) - 1, -1, -1):
        higher = counts[k + 1] if k + 1 < len(counts) else 0
        factors.extend([p ** (k + 1)] * (counts[k] - higher))
    return sorted(factors, reverse=True)


def test_jennings_orders_reconstruct_abelian_type(groups):
    for name in ("C2", "C4", "C8", "C16", "C2xC2", "C4xC2", "C2xC2xC2",
                 "C3", "C9", "C27", "C3xC3", "C9xC3"):
        G = groups[name]
        orders = [s.order for s in gc.jennings_series_product_formula(G)]
        assert _type_from_jennings_orders(orders, G.p) == gc.abelian_type(G).to_list(), name


def test_quotient_examples(groups):
    D8 = groups["D8"]
    q, proj = gc.quotient(D8, D8.trivial_subgroup())
    assert q.order == 8 and group_oracle.is_injective(proj)
    q, proj = gc.quotient(D8, gc.center(D8))
    assert q.order == 4 and q.exponent() == 2 and q.is_abelian
    q, _ = gc.quotient(D8, D8)
    assert q.order == 1


def test_quotient_requires_normal(groups):
    D8 = groups["D8"]
    with pytest.raises(gc.NotNormalError):
        gc.quotient(D8, D8.subgroup((4,)))


def test_burnside_basis_examples(groups):
    assert len(gc.burnside_basis(groups["C4xC2"])) == 2
    assert gc.min_generators(groups["Q8"]) == 2
    assert gc.min_generators(groups["D8xC4xC2"]) == 4


def test_burnside_basis_generates_deterministically(small_groups):
    for G in small_groups.values():
        basis = gc.burnside_basis(G)
        assert basis == gc.burnside_basis(G)
        assert group_oracle.is_whole_group(G.subgroup(tuple(basis)))


def test_burnside_basis_extension(groups):
    # a subgroup basis with full rank modulo Frattini extends to the group
    D8xC4 = gc.direct_product(groups["D8"], groups["C4"])
    emb_a, emb_b = D8xC4.embeddings
    t = D8xC4.subgroup((emb_b(1),))
    seed = gc.burnside_basis(t)
    full = gc.burnside_basis_extend(D8xC4, seed)
    assert full[: len(seed)] == seed
    assert len(full) == gc.min_generators(D8xC4)
    assert group_oracle.is_whole_group(D8xC4.subgroup(tuple(full)))


def test_abelian_type_examples(groups):
    assert gc.abelian_type(groups["C4xC2"]).to_list() == [4, 2]
    assert gc.abelian_type(groups["C2xC2xC2"]).to_list() == [2, 2, 2]
    assert gc.abelian_type(groups["C9xC3"]).to_list() == [9, 3]


def test_abelian_type_of_quotient(groups):
    # (C8 x C2) / (Omega_1(C8) x 1)  ~  C4 x C2
    P = gc.direct_product(groups["C8"], groups["C2"])
    emb_a, _ = P.embeddings
    om1 = gc.omega(groups["C8"], 1)
    n = P.subgroup(tuple(emb_a(x) for x in om1.elements if x))
    q, _ = gc.quotient(P, n)
    assert gc.abelian_type(q).to_list() == [4, 2]


def test_abelian_type_rejects_nonabelian(groups):
    with pytest.raises(ValueError):
        gc.abelian_type(groups["D8"])


def _section_table(m, n):
    """M/N as its own table: M's table by ``as_group``, then ``quotient``."""
    m_grp, m_map = group_oracle.as_group(m)
    back = {g: i for i, g in enumerate(m_map)}
    q, _ = gc.quotient(m_grp, gc.subgroup_from_elements(m_grp, [back[g] for g in n.elements]))
    return q


def _type_by_omega_closure(A):
    """The abelian type of a table from the orders of its Omega_t subgroups."""
    log_sizes = [0]
    t = 1
    while True:
        om = gc.omega(A, t)
        log_sizes.append(gc.log_p(om.order, A.p))
        if om.order == A.order:
            break
        t += 1
    counts = [b - a for a, b in zip(log_sizes, log_sizes[1:])] + [0]
    orders = []
    for i in range(1, len(counts)):
        orders.extend([A.p**i] * (counts[i - 1] - counts[i]))
    return sorted(orders, reverse=True)


def _assert_section_types_match_the_quotient_table(G) -> int:
    """Every abelian section M/N of normal subgroups, counted in place
    against M/N's own table; returns how many were checked."""
    checked = 0
    normals = gc.normal_subgroups(G)
    for m in normals:
        derived = gc.commutator_subgroup(m)
        for n in normals:
            if m.contains_subgroup(n) and n.contains_subgroup(derived):
                expected = _type_by_omega_closure(_section_table(m, n))
                assert gc.abelian_type(m, n).to_list() == expected, (G.name, m, n)
                checked += 1
    return checked


def test_section_type_matches_the_quotient_table(small_groups):
    assert sum(map(_assert_section_types_match_the_quotient_table, small_groups.values())) > 2000


@settings(max_examples=100, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_section_types_match_the_quotient_table(G):
    _assert_section_types_match_the_quotient_table(G)


def test_jennings_in_place_matches_the_subgroup_table(small_groups):
    for G in small_groups.values():
        for n in gc.normal_subgroups(G):
            in_place = [s.order for s in gc.jennings_series_product_formula(n)]
            table = [s.order for s in gc.jennings_series_product_formula(group_oracle.as_group(n)[0])]
            assert in_place == table, (G.name, n)


def test_subgroup_predicates_match_elementwise_oracles(small_groups):
    for G in small_groups.values():
        for s in [G.subgroup((g,)) for g in G.elements] + gc.normal_subgroups(G):
            assert s.is_normal() == all(
                group_oracle.conjugate(G, x, g) in s for x in s.elements for g in G.elements
            )
            assert s.exponent() == max(G.element_order(x) for x in s.elements)


def test_section_type_rejections(groups):
    D8 = groups["D8"]
    z, r = gc.center(D8), D8.subgroup((4,))
    with pytest.raises(ValueError, match="N <= S") as info:
        gc.abelian_type(z, D8)
    assert info.type is ValueError
    with pytest.raises(ValueError, match="N <= S"):
        gc.abelian_type(D8, gc.center(groups["Q8"]))
    with pytest.raises(gc.NotNormalError):
        gc.abelian_type(D8, r)
    with pytest.raises(ValueError, match="not abelian") as info:
        gc.abelian_type(D8, D8.trivial_subgroup())
    assert info.type is ValueError
    assert gc.abelian_type(D8, z).to_list() == [2, 2]
    assert gc.abelian_type(r, r).to_list() == []


def test_centralizer_examples(groups):
    D8 = groups["D8"]
    assert group_oracle.is_whole_group(gc.centralizer(D8, gc.commutator_subgroup(D8)))
    r = D8.subgroup((1,))
    assert gc.centralizer(D8, r).order == 4


def test_centralizer_matches_elementwise_commuting(groups):
    # every normal pair (S, T) of the groups of order <= 16: the elements of
    # S commuting with all of T, and the center as C_S(S)
    for G in groups.values():
        if G.order > 16:
            continue
        normals = gc.normal_subgroups(G)
        for s in normals:
            for t in normals:
                want = [x for x in s.elements if all(G.mul[x, y] == G.mul[y, x] for y in t.elements)]
                assert gc.centralizer(s, t).elements == tuple(want)
            assert gc.center(s) == gc.centralizer(s, s)


def test_group_hom_validation(groups):
    C4 = groups["C4"]
    gc.GroupHom(C4, C4, [0, 3, 2, 1])  # inversion is a homomorphism
    with pytest.raises(ValueError):
        gc.GroupHom(C4, C4, [0, 1, 1, 1])


def test_normal_subgroup_enumeration_counts(groups):
    assert len(gc.normal_subgroups(groups["D8"])) == 6
    assert len(gc.normal_subgroups(groups["Q8"])) == 6
    assert len(gc.normal_subgroups(groups["C16"])) == 5
    assert len(gc.normal_subgroups(groups["Heis27"])) == 7
    assert len(gc.normal_subgroups(groups["D8xC4xC2"])) == 137
    assert len(gc.normal_subgroups(groups["M27xC9"])) == 57
    assert len(gc.normal_subgroups(groups["Heis27xC9"])) == 57
    for n in gc.normal_subgroups(groups["D8"]):
        assert n.is_normal()


def test_tampered_table_rejected(groups):
    table = groups["C4"].mul.copy()
    table[1, 1] = 3  # now 1*1 = 3 while 3 = 1*2: breaks associativity/latin
    table[1, 2] = 2
    with pytest.raises((gc.PresentationError, ValueError)):
        gc.from_mul_table(table)


def test_mul_table_input_requires_identity_zero(groups):
    table = groups["C4"].mul.copy()
    perm = np.array([1, 0, 2, 3])
    shuffled = perm[table[perm][:, perm]]
    with pytest.raises(ValueError):
        gc.from_mul_table(shuffled)


def test_mul_table_with_non_integral_entries_rejected():
    # refused, not truncated: cast to integers this table reads as C2
    with pytest.raises(ValueError, match="must be integers, not float64"):
        gc.from_mul_table(np.array([[0, 1.7], [1.2, 0]]))
    for dtype in (bool, np.uint8):
        G = gc.from_mul_table(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert G.mul.dtype == np.int64 and G.mul.tolist() == [[0, 1], [1, 0]]


def test_group_layer_and_linear_algebra_support_the_same_primes():
    # a prime the group layer accepts must not reach an unsupported prime
    # in fp_linalg mid-command
    assert set(gc.ORDER_CAPS) == set(fl.SUPPORTED_PRIMES)


def test_abelian_type_merge():
    a = gc.AbelianType((4, 2))
    b = gc.AbelianType((8, 2))
    assert group_oracle.merge(a, b).orders == (8, 4, 2, 2)
    assert a.rank_of_exponent(2) == 1
    with pytest.raises(ValueError):
        gc.AbelianType((2, 4))


def test_trivial_group_from_table():
    G = gc.from_mul_table(np.zeros((1, 1), dtype=np.int64), name="1")
    assert G.order == 1 and G.exponent() == 1
    assert gc.burnside_basis(G) == []
    assert gc.frattini(G).is_trivial()
    assert [s.order for s in gc.jennings_series_product_formula(G)] == [1]


def test_larger_primes_supported():
    C5 = gc.from_pc_presentation("p 5\ngens 1\norder 1 5\n", name="C5")
    assert C5.order == 5 and gc.abelian_type(C5).to_list() == [5]
    C49 = gc.from_pc_presentation("p 7\ngens 2\norder 1 7\norder 2 7\n", name="C7xC7")
    assert gc.min_generators(C49) == 2
    with pytest.raises(gc.CapExceededError):
        gc.from_pc_presentation("p 5\ngens 1\norder 1 625\n")


def test_subgroup_as_group_identity_preserved(groups):
    D16 = groups["D16"]
    sub = gc.agemo(D16, 1)
    grp, back = group_oracle.as_group(sub)
    assert grp.order == sub.order
    assert back[0] == 0
    for i in range(grp.order):
        for j in range(grp.order):
            assert back[grp.mul[i, j]] == D16.mul[back[i], back[j]]


def test_log_p_is_exact():
    # past 2**63 a float log cannot even take the argument
    for p in (2, 3, 5, 7):
        for k in range(70):
            assert gc.log_p(p**k, p) == k
    # a float log rounds the first two to 39 and 9 instead of refusing them
    for n, p in ((3**39 + 1, 3), (2**7 * 3, 2), (6, 2), (0, 2), (8, 1), (8, 0)):
        with pytest.raises(ValueError):
            gc.log_p(n, p)


def test_normal_subgroups_repeat_across_processes():
    script = (
        "import hashlib\n"
        "from mipkit import catalog, group_core as gc\n"
        "for name in ('D8xC4xC2', 'M27xC9', 'Heis27xC3'):\n"
        "    subs = gc.normal_subgroups(catalog.build(name))\n"
        "    data = repr([(s.elements, s.generators) for s in subs]).encode()\n"
        "    print(name, hashlib.sha256(data).hexdigest())\n"
    )
    src = str(Path(gc.__file__).resolve().parents[1])
    runs = [
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert runs[0].count("\n") == 3
    assert runs[0] == runs[1]


# -- the memo rule: one cache mechanism, lists handed out as copies ---------


def _list_valued_memos():
    return {
        "conjugacy_classes": lambda G, A: G.conjugacy_classes(),
        "jennings_series_product_formula": lambda G, A: gc.jennings_series_product_formula(G),
        "burnside_basis": lambda G, A: gc.burnside_basis(G),
        "normal_subgroups": lambda G, A: gc.normal_subgroups(G),
        "jennings_by_ideal": lambda G, A: ma.jennings_by_ideal(A),
    }


@pytest.mark.parametrize("name", sorted(_list_valued_memos()))
def test_memoized_lists_are_handed_out_as_copies(name):
    fn = _list_valued_memos()[name]
    G = cat.build("D8")
    A = ma.GroupAlgebra(G)
    first = fn(G, A)
    expected = list(first)
    first.clear()
    assert fn(G, A) == expected


def test_center_of_group_and_of_full_subgroup_share_one_entry(groups):
    # the subgroup of all of G's elements, checked from its set, is G
    G = groups["Q8"]
    full = gc.subgroup_from_elements(G, G.elements)
    assert full is G
    assert gc.center(G) is gc.center(full)
    assert gc.jennings_series_product_formula(G) == gc.jennings_series_product_formula(full)
    # a walk from generators and a check of the set give one subgroup,
    # witnessed by the walk over its sorted elements
    G = cat.lookup("D8xC2").build()
    a = G.subgroup([G.order - 1, G.order - 2, G.order - 4])
    b = gc.subgroup_from_elements(G, a.elements)
    assert a is b and a.generators == tuple(gc._grow(G, a.elements)[1])
    assert gc.center(a) is gc.center(b)


@settings(max_examples=40, deadline=None)
@given(G=consistent_groups(max_exponent=9), seed=st.integers(0, 2**32 - 1))
def test_drawn_group_witness_is_the_walk_over_all_its_elements(G, seed):
    # Light's generators, taken before the table is known to be
    # associative, are the greedy witness of the walk over every element
    for H in (G, _relabeled(G, seed)):
        assert H.generators == tuple(gc._grow(H, H.elements)[1])


@settings(max_examples=40, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_subgroups_are_one_object_per_element_set(G):
    basis = gc.burnside_basis(G)
    cyclic = [G.subgroup((x,)) for x in basis]
    maximal = G.subgroup(basis[:-1] + list(gc.frattini(G).generators))
    normals = gc.normal_subgroups(G)
    made = cyclic + normals + [gc.join(a, b) for a in cyclic for b in cyclic]
    made += [gc.intersect_subgroups(a, N) for a in cyclic + [maximal] for N in normals]
    for S in (G, maximal):
        made += [S, gc.center(S), gc.frattini(S), gc.commutator_subgroup(S)]
        made += [f(S, t) for f in (gc.agemo, gc.omega) for t in (1, 2)]
        made += gc.jennings_series_product_formula(S)
    for S in made:
        assert S is gc.subgroup_from_elements(G, S.elements)
        assert S.generators == tuple(gc._grow(G, S.elements)[1])


def test_a_group_is_the_subgroup_of_all_its_elements(groups):
    G = groups["D8xC2"]
    assert isinstance(G, gc.Subgroup) and G.parent is G
    assert G.elements == tuple(range(G.order)) and G.is_normal()
    assert G.generators == tuple(gc._grow(G, G.elements)[1])
    full = gc.subgroup_from_elements(G, range(G.order))
    assert full == G and hash(full) == hash(G) and full._cache is G._cache
    # each group is its own parent, so two builds of one group stay unequal
    assert G != cat.build("D8xC2")
    # one property, for a group and for a subgroup alike
    center = gc.center(G)
    assert [G.is_abelian, center.is_abelian, full.is_abelian] == [False, True, False]
    assert all(isinstance(X.is_abelian, bool) for X in (G, center, full))
    with pytest.raises(TypeError):
        center.is_abelian()


# -- one memo cache per subgroup element set ---------------------------------


def _subgroup_memo_probes():
    """One call of each memoized ``group_core`` function that a Subgroup
    reaches, made on the subgroup ``s``."""
    return {
        "Subgroup.is_normal": lambda s: s.is_normal(),
        "Subgroup.is_abelian": lambda s: s.is_abelian,
        "Subgroup.exponent": lambda s: s.exponent(),
        "Subgroup._mask": lambda s: s._mask(),
        "Subgroup._coset_labels": lambda s: s._coset_labels(),
        "center": gc.center,
        "commutator_subgroup": gc.commutator_subgroup,
        "omega": lambda s: [gc.omega(s, t) for t in (1, 2)],
        "agemo": lambda s: [gc.agemo(s, t) for t in (1, 2)],
        "power_commutator": lambda s: [gc.power_commutator(s, t) for t in (1, 2)],
        "jennings_series_product_formula": gc.jennings_series_product_formula,
        "burnside_basis": gc.burnside_basis,
        # S/S' is abelian; the unmemoized walk keeps the modulus out of the cache
        "abelian_type": lambda s: gc.abelian_type(s, gc._commutators(s, s)),
    }


# memoized on a FiniteGroup alone: no other Subgroup owner reaches them
_GROUP_ONLY_MEMOS = {
    "FiniteGroup.power_p_map",
    "FiniteGroup._columns",
    "FiniteGroup.commutator_table",
    "FiniteGroup.conjugacy_classes",
    "normal_subgroups",
}


def _plain(value):
    """A memo value as plain data: a subgroup as its elements and witness."""
    if isinstance(value, gc.Subgroup):
        return value.elements, value.generators
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def test_every_memo_has_a_shared_cache_probe():
    # a memoized property is found by its getter
    memos = {
        f.__qualname__
        for space in (vars(gc), vars(gc.FiniteGroup), vars(gc.Subgroup))
        for f in (getattr(v, "fget", v) for v in space.values())
        if getattr(f, "__wrapped__", None) is not None and f.__module__ == gc.__name__
    }
    assert memos == set(_subgroup_memo_probes()) | _GROUP_ONLY_MEMOS


def _probe_subgroups(pres):
    """Element sets to probe in the group of ``pres``: the whole group, a
    maximal subgroup and the cyclic subgroup of the last Burnside basis
    element, found on a group of their own so the probed ones start cold."""
    G = gc.from_pc_presentation(pres)
    basis = gc.burnside_basis(G)
    sets = {G.elements}
    if basis:
        sets.add(G.subgroup(basis[:-1] + list(gc.frattini(G).generators)).elements)
        sets.add(G.subgroup(basis[-1:]).elements)
    return sorted(sets)


def _check_shared_memos(pres, elements):
    """A subgroup built by a walk from its elements in descending order and
    the same subgroup checked from its sorted elements are one object, so
    they share one cache.  Each memo gives it what either way gets in a
    group of its own.

    The one value that holds its owner: D_1 of the Jennings series is the
    subgroup itself, so it is compared by identity in the one group and by
    its elements across groups."""
    ways = {
        "walk": lambda G: G.subgroup(elements[::-1]),
        "set": lambda G: gc.subgroup_from_elements(G, elements),
    }
    for name, probe in _subgroup_memo_probes().items():
        alone = [probe(build(gc.from_pc_presentation(pres))) for build in ways.values()]
        G = gc.from_pc_presentation(pres)
        owner = ways["walk"](G)
        assert owner is ways["set"](G)
        values = [probe(owner), *alone]
        if name == "jennings_series_product_formula":
            assert values[0][0] is owner
            assert len({v[0].elements for v in values}) == 1
            values = [v[1:] for v in values]
        assert all(_plain(v) == _plain(values[0]) for v in values), name


@pytest.mark.parametrize("entry", cat.builtin_catalog(), ids=lambda e: e.name)
def test_subgroups_with_one_element_set_share_memoized_values(entry):
    pres = gc.PcPresentation.parse(entry.presentation)
    for elements in _probe_subgroups(pres):
        _check_shared_memos(pres, elements)


@settings(max_examples=40, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_subgroups_with_one_element_set_share_memoized_values(G):
    for elements in _probe_subgroups(G.presentation):
        _check_shared_memos(G.presentation, elements)


def test_memo_keys_on_arguments_and_keeps_types():
    G = cat.build("C16")
    assert [gc.omega(G, t).order for t in range(5)] == [1, 2, 4, 8, 16]
    assert [gc.agemo(G, t).order for t in range(5)] == [16, 8, 4, 2, 1]
    assert isinstance(gc.abelian_type(G), gc.AbelianType)
    assert isinstance(G.exponent(), int) and isinstance(G.is_abelian, bool)
    assert isinstance(group_oracle.as_group(G), tuple)


def test_presentations_are_parsed_only_at_the_text_boundary():
    """``PcPresentation.parse`` runs only where text comes in: building a
    group from a spec, the catalog's product entries and the catalog
    listing.  Everything else reads the object ``G.presentation``, and no
    module keeps a provenance record."""
    allowed = {
        ("group_core", "from_pc_presentation"),
        ("catalog", "_with_cyclics"),
        ("cli", "_cmd_catalog"),
    }
    found = set()
    for path in Path(gc.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "provenance" not in text, path.name
        stack = [(ast.parse(text), None)]
        while stack:
            node, func = stack.pop()
            if func is None and isinstance(node, ast.FunctionDef):
                func = node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "parse"
                and "PcPresentation" in ast.unparse(node.func.value)
            ):
                found.add((path.stem, func))
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert ("group_core", "from_pc_presentation") in found
    assert found <= allowed, found


def test_subgroups_are_built_only_by_the_closure_helpers():
    """A ``Subgroup`` is built in two places: the group itself, as the
    subgroup of all its elements (``FiniteGroup.__init__`` runs
    ``Subgroup.__init__`` on itself), and ``subgroup_from_elements``, the
    registry's one door, which builds every other subgroup once per element
    set.  No module builds a subgroup's own table with ``as_group``."""
    allowed = {
        ("group_core", "FiniteGroup.__init__"),
        ("group_core", "subgroup_from_elements"),
    }
    built, tables = set(), set()
    for path in Path(gc.__file__).parent.glob("*.py"):
        stack = [(ast.parse(path.read_text()), None, None)]
        while stack:
            node, cls, func = stack.pop()
            if cls is None and func is None and isinstance(node, ast.ClassDef):
                cls = node.name
            if func is None and isinstance(node, ast.FunctionDef):
                func = f"{cls}.{node.name}" if cls else node.name
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                if callee.rsplit(".", 1)[-1] == "Subgroup" or callee.endswith("Subgroup.__init__"):
                    built.add((path.stem, func))
                if callee.rsplit(".", 1)[-1] == "as_group":
                    tables.add((path.stem, func))
            stack.extend((child, cls, func) for child in ast.iter_child_nodes(node))
    assert built == allowed, built
    assert not tables, tables


def test_trivial_subgroup_has_an_empty_witness(groups):
    # the witness is empty exactly for the trivial subgroup, and an empty
    # generator set gives the answers the element set gave
    G = groups["D8xC2"]
    whole, triv = G, G.trivial_subgroup()
    center = gc.center(G)
    assert triv.generators == () and G.subgroup([0, 0]).generators == ()
    assert all(s.generators for s in gc.normal_subgroups(G) if not s.is_trivial())
    assert gc._normalizes(G, whole, triv) and gc._normalizes(G, triv, center)
    assert gc.abelian_type(triv).orders == ()
    assert gc.abelian_type(center, center).orders == ()
    assert gc.centralizer(G, triv) == whole
    assert gc.centralizer(center, triv) == center
    A = ma.GroupAlgebra(G)
    assert ma.relative_augmentation_ideal(A, triv).space.dim == 0
    assert ma.relative_augmentation_ideal(A, whole).space.dim == G.order - 1
    aug = ma.augmentation_ideal(A).space
    assert ma.left_multiplier_span(A, triv, aug).dim == 0


def test_only_memo_touches_the_per_object_caches():
    """Every ``._cache`` access sits in ``_memo`` or in the constructors
    that create the dict.
    ``_ideal_chain`` grows the dict of one memo entry, ``_ideal_terms``, and
    touches no cache itself."""
    allowed = {
        ("group_core", "_memo"),
        ("group_core", "__init__"),
        ("modular_algebra", "__init__"),
    }
    found = set()
    for path in Path(gc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        stack = [(tree, None)]
        while stack:
            node, func = stack.pop()
            if func is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name  # the outermost function: _memo, not its wrapper
            if isinstance(node, ast.Attribute) and node.attr == "_cache":
                found.add((path.stem, func))
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert found - allowed == set()


# -- Light's associativity test against the n^3 oracle -----------------------


def _associative_n3(mul):
    """The exhaustive check over all n^3 triples, chunked to bound memory:
    the oracle for Light's test."""
    n = mul.shape[0]
    chunk = max(1, (1 << 22) // (n * n))
    for start in range(0, n, chunk):
        block = np.arange(start, min(start + chunk, n))
        if not np.array_equal(mul[mul[block], :], mul[block][:, mul]):
            return False
    return True


def _cycle_switches(mul, length):
    """(a, c, cycle) for every Latin-preserving row switch of a group table.

    For rows a, c the columns map as b -> d with c*d = a*b; on a cycle of
    that map rows a and c can trade their entries and every row and column
    stays a permutation.  A 2-cycle is an intercalate swap.  Row 0, column 0
    and the value 0 are left alone, so the identity and inverses survive.
    """
    n = mul.shape[0]
    col_of = np.argsort(mul, axis=1)  # col_of[c, v]: the column where row c holds v
    found = []
    for a, c in itertools.combinations(range(1, n), 2):
        step = col_of[c, mul[a]]
        for b in range(1, n):
            cycle = [b]
            while len(cycle) <= length and step[cycle[-1]] != b:
                cycle.append(int(step[cycle[-1]]))
            if len(cycle) == length and min(cycle) == b and 0 not in cycle and 0 not in mul[a, cycle]:
                found.append((a, c, cycle))
    return found


def _switched(mul, a, c, cycle):
    table = mul.copy()
    table[a, cycle], table[c, cycle] = mul[c, cycle], mul[a, cycle]
    return table


SWITCH_SAMPLE = 100


@pytest.mark.parametrize(
    "name", [e.name for e in cat.builtin_catalog() if gc.PcPresentation.parse(e.presentation).order <= 81]
)
def test_light_test_rejects_exactly_what_the_n3_oracle_rejects(name, groups):
    """Row switches of a catalog table (all of them, or a seeded sample of
    SWITCH_SAMPLE where there are more than 500) reach the associativity
    check; ``from_mul_table`` must raise the one associativity error exactly
    when the n^3 oracle rejects."""
    G = groups[name]
    assert _associative_n3(G.mul)
    switches = _cycle_switches(G.mul, 2 if G.p == 2 else 3)
    if name == "D8xC2":
        assert len(switches) == 462
    if len(switches) > 500:
        rng = np.random.default_rng(6)
        switches = [switches[i] for i in rng.choice(len(switches), SWITCH_SAMPLE, replace=False)]
    for a, c, cycle in switches:
        table = _switched(G.mul, a, c, cycle)
        # the walk picks what the BFS picks on tables that are not
        # associative too: Light's test runs on its picks
        assert gc._light_generators(table) == group_oracle.light_generators(table)
        if _associative_n3(table):
            gc.from_mul_table(table)
        else:
            with pytest.raises(gc.PresentationError) as info:
                gc.from_mul_table(table)
            assert type(info.value) is gc.PresentationError
            assert str(info.value) == "multiplication table is not associative"


def test_light_generators_match_the_bfs_oracle(groups):
    for name, G in groups.items():
        assert gc._light_generators(G.mul) == group_oracle.light_generators(G.mul), name


def test_non_associative_mul_file_is_one_parse_error(capsys, monkeypatch, tmp_path):
    mul = cat.build("D8xC2").mul
    table = next(
        t for t in (_switched(mul, *s) for s in _cycle_switches(mul, 2)) if not _associative_n3(t)
    )
    path = tmp_path / "bad.mul"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in table.tolist()))
    monkeypatch.setenv("MIPKIT_CACHE_DIR", str(tmp_path / "cache"))
    code = cli.main(["--no-timing", "analyze", f"@{path}"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"]["kind"] == "parse"
    assert report["error"]["message"].endswith("multiplication table is not associative")


def _split_invariants(G):
    """The parts of G's split certificate that do not depend on the
    numbering of its elements."""
    cert = dc.ab_nab_split(G).certificate
    return (
        cert["ab_type"],
        [(c["t"], c["rank"], c["order"]) for c in cert["components"]],
        cert["nab"]["order"],
        cert["nab"]["abelianization"],
    )


@pytest.mark.parametrize("name", ["D8xC2", "Q8xC2", "Heis27", "M27", "M27xC9", "Heis27xC9"])
def test_relabeled_table_has_the_same_fingerprint(name, groups):
    """A random relabeling fixing 0, fed as a raw table, is accepted with
    generators chosen greedily in its own index order and gives the
    fingerprint and the split invariants of the presentation build."""
    G = groups[name]
    H = _relabeled(G)
    gens = gc._light_generators(H.mul)
    assert gens == group_oracle.light_generators(H.mul)
    assert gens == sorted(gens)
    assert gens == gc._grow(H, H.elements)[1]
    assert ci.fingerprint(H).invariant_bytes() == ci.fingerprint(G).invariant_bytes()
    assert _split_invariants(H) == _split_invariants(G)


# orders p^3 to p^5 for p = 2 and 3
_DRAWN_ORDERS = [(p, log) for p in (2, 3) for log in (3, 4, 5)]


@settings(max_examples=100, deadline=None)
@given(
    G=st.sampled_from(_DRAWN_ORDERS).flatmap(
        lambda pl: consistent_groups(max_exponent=9, p=pl[0], log=pl[1])
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_relabeled_table_has_the_same_fingerprint(G, seed):
    """The fingerprint and the split invariants are invariants of the
    group, not of the numbering of its table."""
    H = _relabeled(G, seed)
    assert ci.fingerprint(H).invariant_bytes() == ci.fingerprint(G).invariant_bytes()
    assert _split_invariants(H) == _split_invariants(G)


# -- subgroup closure: Dimino's coset walk against the set BFS ---------------


def _closure_bfs(G, gens):
    """BFS under right multiplication by the generators: the oracle for the
    closure ``_grow`` finds."""
    seen = {0}
    frontier = [0]
    gens = [g for g in gens if g != 0]
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(G.mul[x, g])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def _reduce_generators_bfs(G, elements):
    """The greedy witness, closing by BFS again after every generator it
    adds: the oracle for the generators ``_grow`` picks."""
    target = len(_closure_bfs(G, elements))
    gens = []
    current = {0}
    for g in elements:
        if g not in current:
            gens.append(g)
            current = set(_closure_bfs(G, gens))
            if len(current) == target:
                break
    return tuple(gens)


def _assert_walk_matches_bfs(G, xs):
    seen, gens = gc._grow(G, xs)
    assert tuple(sorted(seen)) == _closure_bfs(G, xs)
    assert tuple(gens) == _reduce_generators_bfs(G, xs)


CATALOG_NAMES = [e.name for e in cat.builtin_catalog()]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_walk_matches_bfs_on_normal_subgroups(name, groups):
    G = groups[name]
    for N in gc.normal_subgroups(G):
        _assert_walk_matches_bfs(G, N.elements)
        _assert_walk_matches_bfs(G, N.generators)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_walk_matches_bfs_on_drawn_lists(name, groups, data):
    """Shuffled prefixes of a normal subgroup (mostly not closed) mixed with
    drawn elements, 0 and repeats among them."""
    G = groups[name]
    N = data.draw(st.sampled_from(gc.normal_subgroups(G)))
    base = data.draw(st.permutations(N.elements))
    cut = data.draw(st.integers(0, len(base)))
    extra = data.draw(st.lists(st.integers(0, G.order - 1), max_size=6))
    xs = data.draw(st.permutations(base[:cut] + extra + extra[:2]))
    _assert_walk_matches_bfs(G, xs)


def test_subgroup_from_elements_rejects_a_set_that_is_not_closed(groups):
    D8 = groups["D8"]
    assert sorted(gc._grow(D8, [1])[0]) == [0, 1, 2, 3]
    with pytest.raises(gc.InternalCheckError) as info:
        gc.subgroup_from_elements(D8, [0, 1, 2])
    assert str(info.value) == "3 elements of D8 are not a subgroup: they generate order 4"


def test_basis_extension_outside_the_subgroup_is_an_internal_error(groups):
    D8 = groups["D8"]
    Z = gc.center(D8)
    assert 4 not in Z
    with pytest.raises(gc.InternalCheckError) as info:
        gc.burnside_basis_extend(Z, (4,))
    assert str(info.value) == (
        "extended basis generates a subgroup of order 2 of D8, not the given subgroup of order 2"
    )


def test_conjugation_gathers_match_scalar_loops(groups):
    # the oracle's normal_closure and conjugacy_classes against one
    # conjugation per (element, conjugator) pair, the loops they replaced
    for name, G in groups.items():
        classes, seen = [], set()
        for a in G.elements:
            if a not in seen:
                orbit = sorted({group_oracle.conjugate(G, a, g) for g in G.elements})
                seen.update(orbit)
                classes.append(tuple(orbit))
        assert G.conjugacy_classes() == classes, name
        step = max(1, G.order // 16)
        picks = [[g] for g in range(0, G.order, step)] + [[], [1, G.order - 1]]
        for elems in picks:
            gens = set(elems) - {0}
            conj = {group_oracle.conjugate(G, x, g) for x in gens for g in G.elements}
            want = gc._generated(G, sorted(conj))
            got = normal_oracle.normal_closure(G, elems)
            assert (got.elements, got.generators) == (want.elements, want.generators), name


def _greedy_seed(S):
    """Elements of S independent modulo Phi(S), greedy from the top index
    down: a seed unlike the prefix the extension would pick itself."""
    G = S.parent
    current, seed = gc.frattini(S), []
    for x in reversed(S.elements):
        if x not in current:
            seed.append(x)
            current = gc.join(current, G.subgroup((x,)))
    return seed[: (len(seed) + 1) // 2]


def test_burnside_basis_extend_matches_join_loop(groups):
    # one Dimino walk against one join per pick, on every normal subgroup
    # of every catalog group, with no seed and with a seed
    for name, G in groups.items():
        for N in gc.normal_subgroups(G):
            for seed in ((), _greedy_seed(N)):
                want = greedy_oracle.burnside_basis_extend(N, seed)
                assert gc.burnside_basis_extend(N, seed) == want, (name, N.order, seed)
            if not gc.frattini(N).is_trivial():
                dependent = [gc.frattini(N).elements[1]]
                for extend in (gc.burnside_basis_extend, greedy_oracle.burnside_basis_extend):
                    with pytest.raises(ValueError, match="not independent modulo Frattini"):
                        extend(N, dependent)


# -- normal subgroups: class closures joined by coset labels ------------------


def _assert_normals_match_the_oracle(G):
    """The same element sets in the same order as the frontier x found join
    closure; each one normal, and its witness walks back to it."""
    subs = gc.normal_subgroups(G)
    want = normal_oracle.normal_subgroups(G)
    assert [s.elements for s in subs] == [s.elements for s in want], G.name
    whole = G
    for s in subs:
        assert gc._normalizes(G, whole, s), (G.name, s.order)
        assert tuple(sorted(gc._grow(G, s.generators)[0])) == s.elements, (G.name, s.order)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_normal_subgroups_match_the_oracle(name):
    _assert_normals_match_the_oracle(cat.build(name))


@settings(max_examples=100, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_normal_subgroups_match_the_oracle(G):
    # orders up to p^4: the oracle joins every pair of normal subgroups
    _assert_normals_match_the_oracle(G)


def _relabeled(G, seed=None):
    """A raw ``.mul`` copy of G with its elements other than 1 shuffled,
    seeded by ``seed``, or by the name when it is None: classes and coset
    labels come in another order."""
    rng = np.random.default_rng(sum(map(ord, G.name)) if seed is None else seed)
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    table = np.empty_like(G.mul)
    table[np.ix_(perm, perm)] = perm[G.mul]
    return gc.from_mul_table(table, name=G.name)


@pytest.mark.parametrize("name", ["D8xC4xC2", "M27xC9"])
def test_relabeled_normal_subgroups_match_the_oracle(name, groups):
    _assert_normals_match_the_oracle(_relabeled(groups[name]))


def test_normal_subgroups_walk_once_per_subgroup(monkeypatch):
    # two walks per class closure (its generators, then the registry's walk
    # over the new set) and one per new product set; no pairwise join
    G = cat.build("D8xC4xC2")
    calls = Counter()
    join, grow = gc.join, gc._grow
    monkeypatch.setattr(gc, "join", lambda a, b: calls.update(["join"]) or join(a, b))
    monkeypatch.setattr(gc, "_grow", lambda H, xs: calls.update(["walk"]) or grow(H, xs))
    subs = gc.normal_subgroups(G)
    assert len(subs) == 137
    assert calls["join"] == 0
    assert calls["walk"] <= 2 * (len(G.conjugacy_classes()) - 1) + len(subs)


def test_normal_subgroups_recheck_each_product_by_its_walk(monkeypatch):
    # the registry's walk over each new product set comes back trivial, so
    # the registry refuses the first product the coset labels give
    G = cat.build("D8xC4")
    grow = gc._grow
    closures = {frozenset(grow(G, cls)[0]) for cls in G.conjugacy_classes()[1:]}

    def lossy(H, xs):
        xs = tuple(xs)
        # a class (other than {1}) lacks the identity; a subgroup's set has it
        if 0 in xs and frozenset(xs) not in closures:
            return {0}, []
        return grow(H, xs)

    monkeypatch.setattr(gc, "_grow", lossy)
    with pytest.raises(gc.InternalCheckError, match=r"elements of D8xC4 are not a subgroup: they generate order 1$"):
        gc.normal_subgroups(G)


# -- group quantities off the power table and the coset labels ---------------


def _assert_series_match_the_oracle(S):
    """G' and every Omega_t up to the exponent with their generator
    witnesses, and the Jennings series by Lazard's
    recursion as element sets, against the loops and the grid of
    Jennings' product formula in ``group_oracle``."""
    G = S.parent
    where = (G.name, S.elements)

    def same(got, want):
        return (got.elements, got.generators) == (want.elements, want.generators)

    assert same(gc.commutator_subgroup(S), group_oracle.commutator_subgroup(S)), where
    for t in range(gc.log_p(S.exponent(), G.p) + 1):
        assert same(gc.omega(S, t), group_oracle.omega(S, t)), (where, t)
    jennings = gc.jennings_series_product_formula(S)
    grid = group_oracle.jennings_series_product_formula(S)
    assert [d.elements for d in jennings] == [d.elements for d in grid], where


def _assert_quantities_match_the_oracle(G):
    """Every p^t-power map up to the exponent, the exponent, commutativity,
    every element order, G/N's table and projection for every normal N,
    and the series of G and of every normal N, against the loops in
    ``group_oracle``."""
    tmax = gc.log_p(group_oracle.exponent(G), G.p)
    for t in range(tmax + 1):
        assert G.power_p_map(t).tolist() == group_oracle.power_p_map(G, t).tolist(), (G.name, t)
    assert G.exponent() == group_oracle.exponent(G)
    assert G.is_abelian == group_oracle.is_abelian(G)
    orders = [group_oracle.element_order(G, g) for g in G.elements]
    assert [G.element_order(g) for g in G.elements] == orders, G.name
    _assert_series_match_the_oracle(G)
    for N in gc.normal_subgroups(G):
        Q, proj = gc.quotient(G, N)
        want, want_proj = group_oracle.quotient(G, N)
        assert Q.mul.tolist() == want.mul.tolist(), (G.name, N.elements)
        assert proj.images.tolist() == want_proj.images.tolist(), (G.name, N.elements)
        _assert_series_match_the_oracle(N)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_group_quantities_match_the_oracle(name, groups):
    _assert_quantities_match_the_oracle(groups[name])


@settings(max_examples=100, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_group_quantities_match_the_oracle(G):
    # orders up to p^4: every normal subgroup gets a quotient
    _assert_quantities_match_the_oracle(G)


@pytest.mark.parametrize("name", ["D8xC4xC2", "M27xC9"])
def test_relabeled_group_quantities_match_the_oracle(name, groups):
    _assert_quantities_match_the_oracle(_relabeled(groups[name]))


def _agemo_commutator_joins(tree):
    """The functions that join an ``agemo`` with a ``commutator_subgroup``,
    each given as a call or as a name bound to one by a plain assignment in
    the same function."""
    makers = {"agemo", "commutator_subgroup"}

    def made_by(node, bound):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).rsplit(".", 1)[-1]
            return name if name in makers else None
        return None

    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and made_by(node.value, bound):
                    bound[target.id] = made_by(node.value, bound)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == "join":
                if makers <= {made_by(arg, bound) for arg in node.args}:
                    found.add(func.name)
    return found


def test_only_power_commutator_joins_agemo_with_commutator_subgroup():
    """Mho_t(S)S' is formed in ``group_core.power_commutator`` alone; every
    other module calls it."""
    found = {}
    for path in Path(gc.__file__).parent.glob("*.py"):
        names = _agemo_commutator_joins(ast.parse(path.read_text()))
        if names:
            found[path.stem] = names
    assert found == {"group_core": {"power_commutator"}}, found
    # a join through a bound name is found as well
    bound = "def f(G, t):\n    derived = gc.commutator_subgroup(G)\n    return gc.join(gc.agemo(G, t), derived)\n"
    assert _agemo_commutator_joins(ast.parse(bound)) == {"f"}


def _commutator_closures(tree):
    """The functions that close a subgroup (``_generated``, ``_grow`` or
    ``subgroup``) over values read off ``commutator_table()``, in the call
    itself or through names bound to them in the same function."""
    closers = {"_generated", "_grow", "subgroup"}

    def callee(node):
        return ast.unparse(node.func).rsplit(".", 1)[-1]

    def reads_table(node, tainted):
        return any(
            (isinstance(n, ast.Call) and callee(n) == "commutator_table")
            or (isinstance(n, ast.Name) and n.id in tainted)
            for n in ast.walk(node)
        )

    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        tainted, size = set(), -1
        while size != len(tainted):  # until no binding adds a name
            size = len(tainted)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and reads_table(node.value, tainted):
                    tainted.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and callee(node) in closers:
                if any(reads_table(arg, tainted) for arg in node.args):
                    found.add(func.name)
    return found


def test_only_commutators_closes_the_commutator_table():
    """[H, S] is gathered and closed in ``group_core._commutators`` alone;
    G' and the Jennings series call it."""
    found = {}
    for path in Path(gc.__file__).parent.glob("*.py"):
        names = _commutator_closures(ast.parse(path.read_text()))
        if names:
            found[path.stem] = names
    assert found == {"group_core": {"_commutators"}}, found
    # the inline gathers kept as oracles are found, the bound name included
    oracle = ast.parse(Path(group_oracle.__file__).read_text())
    assert _commutator_closures(oracle) == {"commutator_subgroup", "lower_central_series"}


def _coset_minima(tree):
    """The functions that take a minimum (``min``, ``minimum.reduce``, or
    ``amin`` or an array's ``.min`` along an axis) over values read off a
    multiplication table (``.mul``, ``mul_elems`` or ``_columns``), in the
    call itself or through names bound to them in the same function."""
    readers = {"mul", "mul_elems", "_columns"}

    def takes_min(node):
        name = ast.unparse(node.func)
        if name == "min" or name.endswith("minimum.reduce"):
            return True
        if name.rsplit(".", 1)[-1] not in {"min", "amin"}:
            return False
        # an array's min over no axis is one scalar, a range check
        array_args = 1 if name.startswith(("np.", "numpy.")) else 0
        return any(k.arg == "axis" for k in node.keywords) or len(node.args) > array_args

    def reads_table(node, tainted):
        return any(
            (isinstance(n, ast.Attribute) and n.attr in readers)
            or (isinstance(n, ast.Name) and n.id in tainted)
            for n in ast.walk(node)
        )

    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        tainted, size = set(), -1
        while size != len(tainted):  # until no binding adds a name
            size = len(tainted)
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and reads_table(node.value, tainted):
                    tainted.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and takes_min(node):
                operands = node.args + ([node.func.value] if isinstance(node.func, ast.Attribute) else [])
                if any(reads_table(arg, tainted) for arg in operands):
                    found.add(func.name)
    return found


def test_only_coset_labels_reduce_the_table_to_coset_minima():
    """Right cosets are labelled by their least element in
    ``Subgroup._coset_labels`` alone; ``quotient``, ``normal_subgroups``,
    the algebra's ``ElementaryQuotient`` and ``relative_augmentation_ideal``
    read those labels."""
    found = {}
    for path in Path(gc.__file__).parent.glob("*.py"):
        names = _coset_minima(ast.parse(path.read_text()))
        if names:
            found[path.stem] = names
    assert found == {"group_core": {"_coset_labels"}}, found
    # a method call, a bound name over a scalar loop, a ufunc reduction and
    # a positional axis are found; the whole table's minimum is not
    snippets = (
        "def rows(G, K):\n    return G.mul[list(K.elements)].min(axis=0)\n",
        "def loop(G, K, x):\n    coset = [G.mul_elems(k, x) for k in K.elements]\n    return min(coset)\n",
        "def ufunc(G, idx):\n    return np.minimum.reduce(G.mul[idx])\n",
        "def positional(G, idx):\n    return np.min(G.mul[idx], 0)\n",
    )
    for text in snippets:
        assert len(_coset_minima(ast.parse(text))) == 1, text
    assert not _coset_minima(ast.parse("def check(G):\n    return G.mul.min() < 0\n"))


def test_jennings_and_omega_take_no_detour(monkeypatch):
    # Lazard's recursion does not read the exponent, and Omega_t is the
    # relative Omega over the trivial subgroup
    def refuse(*args):
        raise AssertionError("not called by Lazard's recursion")

    want = [d.elements for d in group_oracle.jennings_series_product_formula(cat.build("M27xC9"))]
    monkeypatch.setattr(gc.Subgroup, "exponent", refuse)
    G = cat.build("M27xC9")
    assert [d.elements for d in gc.jennings_series_product_formula(G)] == want
    monkeypatch.undo()
    calls = []
    relative = gc.omega_relative
    monkeypatch.setattr(gc, "omega_relative", lambda *a: calls.append(a[2]) or relative(*a))
    assert gc.omega(G, 1).order == 27 and calls == [1]


def test_negative_power_exponents_are_rejected(groups):
    G = groups["D8"]
    for call in (
        lambda: G.power_p_map(-1),
        lambda: gc.omega_relative(G, gc.center(G), -1),
        lambda: gc.omega(G, -1),
        lambda: gc.agemo(G, -1),
    ):
        with pytest.raises(ValueError, match=r"^t must be >= 0$"):
            call()


def test_far_power_maps_stop_at_the_identity():
    # every t past log_p(exponent) gives the map onto the identity, in a
    # bounded number of steps (t = 900 once recursed once per t)
    G = cat.build("D8")
    assert not G.power_p_map(900).any()
    assert gc.omega(G, 900) == gc.omega(G, 2)
    assert gc.agemo(G, 900).is_trivial()
    assert gc.omega_relative(G, gc.center(G), 900) == G
    assert ma.power_quotient_map(G, 900).rank() == 0


@settings(max_examples=100, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_jennings_by_ideal_matches_the_product_formula(G):
    # the algebra's D_n = {g : g - 1 in I^n} against Jennings' grid, which
    # checks Lazard's recursion through the algebra as well
    by_ideal = ma.jennings_by_ideal(ma.GroupAlgebra(G))
    grid = group_oracle.jennings_series_product_formula(G)
    assert [d.elements for d in by_ideal] == [d.elements for d in grid]


def _abelian_type_builders(tree):
    """The functions that build an ``AbelianType``: a call by name or
    attribute, or inside the class itself a call of ``cls``, ``type(self)``
    or ``__class__``.  The outermost function names a method's call."""
    found = set()
    stack = [(tree, None, None)]
    while stack:
        node, cls, func = stack.pop()
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif func is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).rsplit(".", 1)[-1]
            own = cls == "AbelianType" and name in {"cls", "type(self)", "__class__"}
            if name == "AbelianType" or own:
                found.add(func)
        stack.extend((child, cls, func) for child in ast.iter_child_nodes(node))
    return found


def test_only_from_ranks_builds_an_abelian_type():
    """An abelian type is assembled from per-exponent ranks in
    ``AbelianType.from_ranks`` alone; ``abelian_type``, the split's
    ``ab_type`` and ``formula_ab_type`` call it."""
    found = {}
    for path in Path(gc.__file__).parent.glob("*.py"):
        names = _abelian_type_builders(ast.parse(path.read_text()))
        if names:
            found[path.stem] = names
    assert found == {"group_core": {"from_ranks"}}, found
    # a module attribute, a bare name at module level and a method's own
    # class are found
    snippets = (
        "def f(p):\n    return gc.AbelianType((p,))\n",
        "TRIVIAL = AbelianType(())\n",
        "class AbelianType:\n    def double(self):\n        return type(self)(self.orders * 2)\n",
    )
    for text in snippets:
        assert len(_abelian_type_builders(ast.parse(text))) == 1, text


def test_no_module_calls_np_unique():
    # np.unique imports numpy.ma on its first call, which costs resident
    # memory on every path through the library; _distinct does without
    calls = [
        (path.stem, ast.unparse(node.func))
        for path in Path(gc.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == "unique"
    ]
    assert not calls, calls
