import json
from types import SimpleNamespace

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from mipkit import catalog as cat
from mipkit import decomposition as dc
from mipkit import group_core as gc
from mipkit import modular_algebra as ma
import group_oracle
import split_oracle
from test_group_core import _relabeled, _split_invariants
from test_pc_table import consistent_groups


def test_homocyclic_rank_examples(groups):
    assert dc.homocyclic_rank(groups["C4"], 1) == 0
    assert dc.homocyclic_rank(groups["C4"], 2) == 1
    assert dc.homocyclic_rank(groups["D8"], 1) == 0
    assert dc.homocyclic_rank(groups["D8"], 2) == 0
    assert dc.homocyclic_rank(groups["D8xC4"], 2) == 1
    assert dc.homocyclic_rank(groups["C2xC2xC2"], 1) == 3


def test_extract_component_c4xc2(groups):
    T, S = dc.extract_component(groups["C4xC2"], 2)
    assert gc.abelian_type(T).to_list() == [4]
    assert S.order == 2


def test_extract_component_d8xc4(groups):
    T, S = dc.extract_component(groups["D8xC4"], 2)
    assert gc.abelian_type(T).to_list() == [4]
    assert S.order == 8 and not S.is_abelian
    # the complement is the dihedral factor up to isomorphism: its
    # abelianization has type [2, 2]
    s_grp, _ = group_oracle.as_group(S)
    q, _ = gc.quotient(s_grp, gc.commutator_subgroup(s_grp))
    assert gc.abelian_type(q).to_list() == [2, 2]


def test_extract_component_rank_zero(groups):
    T, S = dc.extract_component(groups["Q8"], 1)
    assert T.is_trivial() and group_oracle.is_whole_group(S)
    T, S = dc.extract_component(groups["Q8"], 2)
    assert T.is_trivial() and group_oracle.is_whole_group(S)


def test_complement_of_twisted_torsion_factor(groups):
    # T = <(a, b)> inside C4 x C2 satisfies all preconditions; the claim
    # must return an order-2 complement
    G = groups["C4xC2"]
    emb_a, emb_b = None, None
    # catalog C4xC2 is built from its presentation: g1 and g2 sit at their
    # mixed-radix place values
    g1, g2 = gc._pcp_generator_indices(G.presentation)
    twisted = G.subgroup((G.mul_elems(g1, g2),))
    assert gc.abelian_type(twisted).to_list() == [4]
    S = dc.complement_construction(G, twisted)
    assert S.order == 2
    assert gc.intersect_subgroups(S, twisted).is_trivial()


def test_complement_of_diagonal_in_c4xc4(groups):
    C4 = groups["C4"]
    G = gc.direct_product(C4, C4)
    emb_a, emb_b = G.embeddings
    diag = G.subgroup((G.mul_elems(emb_a(1), emb_b(1)),))
    S = dc.complement_construction(G, diag)
    assert gc.abelian_type(S).to_list() == [4]
    assert gc.intersect_subgroups(S, diag).is_trivial()


def test_complement_of_trivial_subgroup(groups):
    G = groups["D8"]
    assert group_oracle.is_whole_group(dc.complement_construction(G, G.trivial_subgroup()))
    # inside a subgroup A the complement of the trivial subgroup is A
    _, A = dc.extract_component(groups["D8xC4xC2"], 1)
    assert dc.complement_construction(A, A.parent.trivial_subgroup()) is A


def test_complement_preconditions_checked(groups):
    # each precondition is checked once, on (A, T), before the peel
    G = groups["C4xC2"]
    g1, _ = gc._pcp_generator_indices(G.presentation)
    inside_frattini = G.subgroup((G.power(g1, 2),))
    with pytest.raises(ValueError, match="^T meets Mho_t"):
        dc.complement_construction(G, inside_frattini)
    with pytest.raises(ValueError, match="^T is not homocyclic: \\[4,2\\]$"):
        dc.complement_construction(G, G)
    D8 = groups["D8"]
    derived = gc.commutator_subgroup(D8)  # meets Mho_1(G)G' nontrivially
    with pytest.raises(ValueError, match="^T meets Mho_t"):
        dc.complement_construction(D8, derived)
    reflection = next(x for x in D8.elements if x not in gc.center(D8) and D8.element_order(x) == 2)
    with pytest.raises(ValueError, match="^T is not inside the central p\\^t-torsion$"):
        dc.complement_construction(D8, D8.subgroup([reflection]))


def test_split_d8xc4xc2(groups):
    d = dc.ab_nab_split(groups["D8xC4xC2"])
    assert d.nab.order == 8 and not d.nab.is_abelian
    assert d.ab_type().to_list() == [4, 2]
    assert [(c.t, c.rank) for c in d.components] == [(1, 1), (2, 1)]
    assert d.certificate["nab"]["abelianization"] == [2, 2]


def test_split_of_abelian_groups_gives_invariant_factors(groups):
    for name in ("C2", "C8", "C16", "C4xC2", "C2xC2xC2", "C9xC3", "C27"):
        G = groups[name]
        d = dc.ab_nab_split(G)
        assert d.nab.is_trivial(), name
        assert d.ab_type() == gc.abelian_type(G), name


def test_split_of_indecomposables_extracts_nothing(groups):
    for name in ("Q8", "D8", "D16", "Q16", "SD16", "M16", "Heis27", "M27"):
        d = dc.ab_nab_split(groups[name])
        assert d.components == ()
        assert group_oracle.is_whole_group(d.nab), name


def test_split_idempotent_on_nonabelian_part(groups):
    d = dc.ab_nab_split(groups["D8xC4xC2"])
    nab_grp, _ = group_oracle.as_group(d.nab)
    again = dc.ab_nab_split(nab_grp)
    assert again.components == ()
    assert group_oracle.is_whole_group(again.nab)


def test_component_checks_pass(groups):
    for name in ("D8xC4xC2", "D8xC2", "Q8xC4", "C4xC2"):
        G = groups[name]
        d = dc.ab_nab_split(G)
        report = dc.component_checks(G, d)
        assert report["all_pass"], (name, report)


@settings(max_examples=300, deadline=None)
@given(G=consistent_groups(max_exponent=9))
def test_drawn_groups_split_as_the_formula_says(G):
    # on every consistent drawn presentation the peeled split certifies,
    # its abelian type is the per-exponent quotient formula's, and each
    # component passes its structural checks
    d = dc.ab_nab_split(G)
    assert d.certificate["verified"]
    assert d.ab_type() == dc.formula_ab_type(G)
    assert dc.component_checks(G, d)["all_pass"]


def test_agemo_derived_match_for_complement(groups):
    # Mho_2(G)G' computed in G equals Mho_2(S)S' for the dihedral complement
    G = groups["D8xC4"]
    T, S = dc.extract_component(G, 2)
    lhs = gc.join(gc.agemo(G, 2), gc.commutator_subgroup(G))
    rhs = gc.join(gc.agemo(S, 2), gc.commutator_subgroup(S))
    assert lhs == rhs
    assert lhs.order == 2  # <r^2> inside the dihedral factor


def test_formula_ab_type_matches_peeling(small_groups):
    for name, G in small_groups.items():
        assert dc.formula_ab_type(G) == dc.ab_nab_split(G).ab_type(), name


def test_split_merges_with_abelian_products(groups):
    for g_name in ("D8", "Q8", "C4"):
        for a_name in ("C2", "C4xC2"):
            G = gc.direct_product(groups[g_name], groups[a_name])
            expected = group_oracle.merge(
                dc.ab_nab_split(groups[g_name]).ab_type(), gc.abelian_type(groups[a_name])
            )
            assert dc.ab_nab_split(G).ab_type() == expected, (g_name, a_name)


def test_split_determinism(groups):
    from mipkit import catalog as cat

    a = dc.ab_nab_split(cat.build("D8xC4xC2")).certificate
    b = dc.ab_nab_split(cat.build("D8xC4xC2")).certificate
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(
        dc.ab_nab_split(groups["D8xC4xC2"]).certificate, sort_keys=True
    )


def test_peel_trace_shape(groups):
    d = dc.ab_nab_split(groups["D8xC4xC2"])
    trace = d.certificate["peel_trace"]
    assert [step["t"] for step in trace] == [1, 2]
    assert [step["rank"] for step in trace] == [1, 1]
    assert trace[-1]["residual_order"] == 8


def _certificate_json(split, G):
    return json.dumps(split(G).certificate, sort_keys=True)


@pytest.mark.parametrize("name", [e.name for e in cat.builtin_catalog()])
def test_split_in_g_matches_the_residual_table_split(name):
    # the peel inside G's table picks the elements the residual tables
    # picked: each residual numbered its elements in increasing G order
    assert _certificate_json(dc.ab_nab_split, cat.build(name)) == _certificate_json(
        split_oracle.ab_nab_split, cat.build(name)
    )


@settings(max_examples=200, deadline=None)
@given(G=consistent_groups(max_exponent=9))
def test_drawn_splits_match_the_residual_table_split(G):
    expected = _certificate_json(split_oracle.ab_nab_split, gc.from_pc_presentation(G.presentation))
    assert _certificate_json(dc.ab_nab_split, G) == expected


# g1^3 = g2^3 and [g4, g2] = g3: G = <g1> x <g1 g2^-1, g4>, C9 times a
# non-abelian group of order 27.  Adjusting x by y of order 9 needs
# x^{w p^s} y^{p^e} in S_j N, not x^{w p^s} y^{-p^e}.
_ADJUST_BY_ORDER_9 = "p 3\ngens 4\norder 1 3\norder 2 9\norder 3 3\norder 4 3\npow 1 = g2^3\ncomm 4 2 = g3^1\n"


def test_split_adjusts_by_a_generator_of_order_9():
    G = gc.from_pc_presentation(_ADJUST_BY_ORDER_9, name="C9xNab27")
    d = dc.ab_nab_split(G)
    assert [(c.t, c.rank) for c in d.components] == [(2, 1)]
    assert d.nab.order == 27 and not d.nab.is_abelian
    assert d.certificate["verified"] is True
    assert dc.component_checks(G, d)["all_pass"]
    assert _certificate_json(dc.ab_nab_split, G) == _certificate_json(
        split_oracle.ab_nab_split, gc.from_pc_presentation(_ADJUST_BY_ORDER_9, name="C9xNab27")
    )


def _q8_central_c4_by(m):
    """Q8oC4 x C_{2^m}: g1^2 = g2^2 = [g2, g1] = g3^2 with g3 of order 4,
    and g4 of order 2^m when m > 0."""
    orders = [2, 2, 4] + [2**m] * (m > 0)
    return (
        f"p 2\ngens {len(orders)}\n"
        + "".join(f"order {i} {q}\n" for i, q in enumerate(orders, 1))
        + "pow 1 = g3^2\npow 2 = g3^2\ncomm 2 1 = g3^2\n"
    )


# G = Q8oC4 x <g4> with g4 of order 4.  At t = 2 the power map x -> x^2 on
# Omega_2(Z)Phi/Phi has a kernel, so the lift is read off the domain basis
# element that is not a kernel pivot; on every catalog group the kernels
# the split reads are zero.
_Q8_CENTRAL_C4_BY_C4 = _q8_central_c4_by(2)
# [g2, g1] = g3^3 with g3 of order 9: Heis27oC9 x <g4>, g4 of order 3
_HEIS27_CENTRAL_C9_BY_C3 = "p 3\ngens 4\norder 1 3\norder 2 3\norder 3 9\norder 4 3\ncomm 2 1 = g3^3\n"


@st.composite
def central_products(draw):
    """Q8oC4 x C_{2^m} (m <= 3) or Heis27oC9 x C3, as built from the
    presentation or as a table with its elements relabelled by a drawn
    seed, which moves the kernel pivots among the domain's basis."""
    text = draw(st.sampled_from([_q8_central_c4_by(m) for m in range(4)] + [_HEIS27_CENTRAL_C9_BY_C3]))
    G = gc.from_pc_presentation(text, name="central")
    seed = draw(st.none() | st.integers(min_value=0, max_value=2**32 - 1))
    return G if seed is None else _relabeled(G, seed)


def test_split_lifts_skip_the_kernel_pivot():
    G = gc.from_pc_presentation(_Q8_CENTRAL_C4_BY_C4, name="Q8oC4xC4")
    lam = ma.power_quotient_map(G, 2)
    assert (lam.domain.rank, lam.kernel().dim, lam.rank()) == (2, 1, 1)
    d = dc.ab_nab_split(G)
    assert [(c.t, c.rank) for c in d.components] == [(2, 1)]
    assert d.nab.order == 16 and not d.nab.is_abelian
    assert dc.component_checks(G, d)["all_pass"]
    assert _certificate_json(dc.ab_nab_split, G) == _certificate_json(
        split_oracle.ab_nab_split, gc.from_pc_presentation(_Q8_CENTRAL_C4_BY_C4, name="Q8oC4xC4")
    )
    assert _split_invariants(_relabeled(G)) == _split_invariants(G)


@settings(max_examples=60, deadline=None)
@given(G=central_products())
def test_drawn_central_products_split_as_the_oracle_splits(G):
    fresh = gc.from_mul_table(G.mul, name=G.name)
    assert _certificate_json(dc.ab_nab_split, G) == _certificate_json(split_oracle.ab_nab_split, fresh)


def test_central_products_reach_a_lift_past_a_kernel_pivot(monkeypatch):
    # the strategy draws a split whose extraction at positive rank reads
    # its lifts off a power map with a nonzero kernel
    calls = []
    extract = dc.extract_component

    def spy(A, t):
        T, S = extract(A, t)
        calls.append((T.is_trivial(), ma.power_quotient_map(A, t).kernel().dim))
        return T, S

    monkeypatch.setattr(dc, "extract_component", spy)

    def skips_a_kernel_pivot(G):
        calls.clear()
        dc.ab_nab_split(G)
        return any(not trivial and kernel_dim for trivial, kernel_dim in calls)

    find(central_products(), skips_a_kernel_pivot, settings=settings(deadline=None))


def test_split_builds_no_group_table(groups, monkeypatch):
    built = []
    init = gc.FiniteGroup.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(gc.FiniteGroup, "__init__", spy)
    G = groups["D8xC4xC2"]
    assert [(c.t, c.rank) for c in dc.ab_nab_split(G).components] == [(1, 1), (2, 1)]
    assert built == []
    # the spy sees the residual tables the old split built
    split_oracle.ab_nab_split(cat.build("D8xC4xC2"))
    assert built == ["D8xC4xC2", "D8xC4xC2_sub32", "D8xC4xC2_sub32_sub8"]


def test_extract_component_inside_a_subgroup(groups):
    # the complement of C2 in D8xC4xC2 is worked on inside G's table and
    # gives the factor and complement its own table gives
    G = groups["D8xC4xC2"]
    _, S = dc.extract_component(G, 1)
    T, R = dc.extract_component(S, 2)
    table, back = group_oracle.as_group(S)
    T_tab, R_tab = dc.extract_component(table, 2)
    assert T.parent is G and R.parent is G
    assert T.elements == tuple(back[x] for x in T_tab.elements)
    assert R.elements == tuple(back[x] for x in R_tab.elements)
    assert dc.homocyclic_rank(R, 2) == 0 and dc.homocyclic_rank(S, 2) == 1


def test_internal_product_check_refuses_bad_factors(groups):
    G = groups["C4xC2"]
    g1, _ = gc._pcp_generator_indices(G.presentation)
    # <a> and <a^2> overlap: orders 4 * 2 = |G|, but they generate <a>
    with pytest.raises(gc.InternalCheckError) as info:
        dc._verify_internal_product(G, [G.subgroup([g1]), G.subgroup([G.power(g1, 2)])])
    assert str(info.value) == (
        "C4xC2: factors of orders [4, 2] generate a subgroup of order 4,"
        " not the ambient group of order 8"
    )
    # <r> and <s> generate D8, but do not commute
    D8 = groups["D8"]
    r = next(x for x in D8.elements if D8.element_order(x) == 4)
    rot = D8.subgroup([r])
    s = next(x for x in D8.elements if x not in rot)
    with pytest.raises(gc.InternalCheckError, match="do not commute elementwise"):
        dc._verify_internal_product(D8, [rot, D8.subgroup([s])])
    # a true product passes, also inside a subgroup as its ambient group
    T, S = dc.extract_component(G, 2)
    dc._verify_internal_product(G, [S, T])
    dc._verify_internal_product(T, [T, G.trivial_subgroup()])
    with pytest.raises(gc.InternalCheckError, match="not the ambient group of order 4"):
        dc._verify_internal_product(T, [S, G.trivial_subgroup(), G.subgroup([G.power(g1, 2)])])


# -- every fault inside the split is an InternalCheckError --------------------
#
# Each fault below is one that a deleted re-check used to catch, or one that
# escaped as a plain ValueError.  Each must stop the split with an
# InternalCheckError, raised by the one check of its fact that remains.


def _claim_drops_a_generator(monkeypatch):
    # a claim step whose result misses the ambient group: its first adjusted
    # generator, when it has one, is replaced by the identity
    claim = dc._claim_adjust

    def dropped(A, xs, y, t):
        adjusted = claim(A, xs, y, t)
        return [0, *adjusted[1:]] if adjusted else adjusted

    monkeypatch.setattr(dc, "_claim_adjust", dropped)


def _partial_component(monkeypatch, own_complement):
    # one generator T1 of a component of rank >= 2, with the complement of
    # T1 itself or with the complement of the whole component
    extract = dc.extract_component

    def partial(A, t):
        T, S = extract(A, t)
        if len(T.generators) < 2:
            return T, S
        T1 = A.parent.subgroup(T.generators[:1])
        return T1, dc.complement_construction(A, T1) if own_complement else S

    monkeypatch.setattr(dc, "extract_component", partial)


class _FaultyKernel:
    """A power map whose ``kernel()`` is ``kernel(lam)``, the rest lam's."""

    def __init__(self, lam, kernel):
        self._lam = lam
        self.kernel = lambda: kernel(lam)

    def __getattr__(self, name):
        return getattr(self._lam, name)


def _faulty_kernel(kernel):
    def inject(monkeypatch):
        power_map = ma.power_quotient_map
        monkeypatch.setattr(ma, "power_quotient_map", lambda A, t: _FaultyKernel(power_map(A, t), kernel))

    return inject


def _one_dimension_too_big(lam):
    # the lift is read off the right basis elements, but its rank is one short
    ker = lam.kernel()
    return SimpleNamespace(dim=ker.dim + 1, pivots=ker.pivots)


def _pivots_off_the_kernel(lam):
    # the pivots are the domain's other indices: the lift is read off the kernel
    ker = lam.kernel()
    others = [k for k in range(lam.domain.rank) if k not in ker.pivots]
    return SimpleNamespace(dim=ker.dim, pivots=tuple(others[: ker.dim]))


def _lift_of_the_wrong_exponent(monkeypatch):
    # the extraction at exponent p^t reads the power map of exponent p^{t+1}
    power_map = ma.power_quotient_map
    monkeypatch.setattr(ma, "power_quotient_map", lambda A, t: power_map(A, t + 1))


FAULTS = {
    "claim_drops_a_generator": _claim_drops_a_generator,
    "partial_with_its_complement": lambda monkeypatch: _partial_component(monkeypatch, True),
    "partial_with_the_whole_complement": lambda monkeypatch: _partial_component(monkeypatch, False),
    "lift_of_the_wrong_rank": _faulty_kernel(_one_dimension_too_big),
    "lift_of_the_wrong_exponent": _lift_of_the_wrong_exponent,
    "lift_off_the_kernel_pivots": _faulty_kernel(_pivots_off_the_kernel),
}
# groups outside the catalog, by the name their presentation is built with
FAULT_PRESENTATIONS = {"Q8oC4xC4": _Q8_CENTRAL_C4_BY_C4}
# (fault, group, the message of the check that catches it)
SPLIT_FAULTS = [
    ("claim_drops_a_generator", "D8xC4xC2", "D8xC4xC2: factor orders [8, 2] do not multiply to 64"),
    ("claim_drops_a_generator", "M27xC9", "M27xC9: factor orders [3, 9] do not multiply to 243"),
    ("claim_drops_a_generator", "Heis27xC9", "Heis27xC9: factor orders [3, 9] do not multiply to 243"),
    # the next peel step's Burnside basis extension refuses the identity
    (
        "claim_drops_a_generator",
        "C2xC2xC2",
        "C2xC2xC2: complement of T of order 8: seed elements are not independent modulo Frattini",
    ),
    (
        "claim_drops_a_generator",
        "C3xC3",
        "C3xC3: complement of T of order 9: seed elements are not independent modulo Frattini",
    ),
    ("partial_with_its_complement", "C2xC2xC2", "C2xC2xC2: final residual of order 4 has a C2 factor"),
    ("partial_with_its_complement", "C3xC3", "C3xC3: final residual of order 3 has a C3 factor"),
    ("partial_with_the_whole_complement", "C2xC2xC2", "C2xC2xC2: factor orders [2, 1] do not multiply to 8"),
    ("partial_with_the_whole_complement", "C3xC3", "C3xC3: factor orders [3, 1] do not multiply to 9"),
    ("lift_of_the_wrong_rank", "C2xC2xC2", "C2xC2xC2: lift of order 8 is not homocyclic of rank 2: [2,2,2]"),
    ("lift_of_the_wrong_rank", "C3xC3", "C3xC3: lift of order 9 is not homocyclic of rank 1: [3,3]"),
    ("lift_of_the_wrong_exponent", "C4xC2", "C4xC2: lift of order 4 is not homocyclic of rank 1: [4]"),
    ("lift_of_the_wrong_exponent", "D8xC4xC2", "D8xC4xC2: lift of order 4 is not homocyclic of rank 1: [4]"),
    # the one catalog-free case: every catalog group's kernels are zero
    ("lift_off_the_kernel_pivots", "Q8oC4xC4", "Q8oC4xC4: lift of order 4: T meets Mho_t(G)G'"),
]
SPLIT_FAULT_IDS = [f"{fault}-{name}" for fault, name, _ in SPLIT_FAULTS]


@pytest.mark.parametrize("fault, name, message", SPLIT_FAULTS, ids=SPLIT_FAULT_IDS)
def test_every_fault_in_the_split_is_an_internal_error(monkeypatch, fault, name, message):
    G = gc.from_pc_presentation(FAULT_PRESENTATIONS[name], name=name) if name in FAULT_PRESENTATIONS else cat.build(name)
    FAULTS[fault](monkeypatch)
    with pytest.raises(gc.InternalCheckError) as info:
        dc.ab_nab_split(G)
    assert str(info.value) == message


def test_a_claim_with_no_adjustment_is_an_internal_error(groups):
    # the claim's one raise: y = a^2 lies in N = Mho_1(C4), against the
    # claim's requirement, so no x^w y^{p^e} with p not dividing w lies in N
    G = groups["C4"]
    a = next(x for x in G.elements if G.element_order(x) == 4)
    y = G.power(a, 2)
    with pytest.raises(gc.InternalCheckError) as info:
        dc._claim_adjust(G, [a], y, 1)
    assert str(info.value) == f"C4: no adjustment of x = {a} by y = {y} of order 2"
