import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mipkit import catalog as cat
from mipkit import group_core as gc
from mipkit import modular_algebra as ma


def census(G):
    return dict(Counter(G.element_order(g) for g in G.elements()))


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


def test_word_range_validation():
    with pytest.raises(gc.PresentationError):
        # power word may only use higher generators
        gc.PcPresentation.parse("p 2\ngens 2\norder 1 2\norder 2 4\npow 2 = g1^1\n")


def test_presentation_text_roundtrip(groups):
    for name in ("D8", "Q16", "Heis27", "M27xC9"):
        text = groups[name].provenance["pcp"]
        pres = gc.PcPresentation.parse(text)
        assert pres.to_text() == gc.PcPresentation.parse(pres.to_text()).to_text()


def test_direct_product_c2_c2(groups):
    P = gc.direct_product(groups["C2"], groups["C2"])
    assert P.order == 4 and P.exponent() == 2 and P.is_abelian


def test_direct_product_order_and_center(groups):
    P = gc.direct_product(groups["D8"], groups["C4"])
    assert P.order == groups["D8"].order * groups["C4"].order
    # Z(D8 x C4) = Z(D8) x C4
    assert gc.center(P).order == 8


def test_direct_product_embeddings(groups):
    P = gc.direct_product(groups["D8"], groups["C4"])
    emb_a, emb_b = P.embeddings
    assert emb_a.is_injective() and emb_b.is_injective()
    img_a = emb_a.image_subgroup()
    img_b = emb_b.image_subgroup()
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


def test_lower_central_series_dihedral(groups):
    assert [s.order for s in gc.lower_central_series(groups["D8"])] == [8, 2, 1]
    assert [s.order for s in gc.lower_central_series(groups["D16"])] == [16, 4, 2, 1]


def test_omega_agemo_cyclic(groups):
    C8 = groups["C8"]
    assert gc.omega(C8, 1).order == 2
    assert gc.agemo(C8, 1).order == 4
    assert gc.omega(C8, 0).is_trivial()
    assert gc.agemo(C8, 0).is_whole_group()


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
        assert gc.omega(G, tmax).is_whole_group()
        assert gc.agemo(G, tmax).is_trivial()


def test_omega_relative_examples(groups):
    D8 = groups["D8"]
    assert gc.omega_relative(D8, D8.full_subgroup(), 3).is_whole_group()
    # every element of the dihedral group squares into the derived subgroup
    assert gc.omega_relative(D8, gc.commutator_subgroup(D8), 1).is_whole_group()


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
        assert gc.frattini(G) == gc.frattini_by_maximals(G)


def test_jennings_series_examples(groups):
    assert [s.order for s in gc.jennings_series_product_formula(groups["D8"])] == [8, 2, 1]
    assert [s.order for s in gc.jennings_series_product_formula(groups["C8"])] == [8, 4, 2, 2, 1]


def test_jennings_head_terms(small_groups):
    for G in small_groups.values():
        series = gc.jennings_series_product_formula(G)
        assert series[0].is_whole_group()
        if len(series) > 1:
            assert series[1] == gc.frattini(G)
        for d in series:
            assert d.is_normal()
        for a, b in zip(series, series[1:]):
            assert a.contains_subgroup(b)
            layer = gc.quotient_of_subgroups(a, b)
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
    assert q.order == 8 and proj.is_injective()
    q, proj = gc.quotient(D8, gc.center(D8))
    assert q.order == 4 and q.exponent() == 2 and q.is_abelian
    q, _ = gc.quotient(D8, D8.full_subgroup())
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
        assert G.subgroup(tuple(basis)).is_whole_group()


def test_burnside_basis_extension(groups):
    # a subgroup basis with full rank modulo Frattini extends to the group
    D8xC4 = gc.direct_product(groups["D8"], groups["C4"])
    emb_a, emb_b = D8xC4.embeddings
    t = D8xC4.subgroup((emb_b(1),))
    seed = gc.burnside_basis(t)
    full = gc.burnside_basis_extend(D8xC4, seed)
    assert full[: len(seed)] == seed
    assert len(full) == gc.min_generators(D8xC4)
    assert D8xC4.subgroup(tuple(full)).is_whole_group()


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


def test_centralizer_examples(groups):
    D8 = groups["D8"]
    assert gc.centralizer(D8, gc.commutator_subgroup(D8)).is_whole_group()
    r = D8.subgroup((1,))
    assert gc.centralizer(D8, r).order == 4


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


def test_abelian_type_merge():
    a = gc.AbelianType((4, 2))
    b = gc.AbelianType((8, 2))
    assert a.merge(b).orders == (8, 4, 2, 2)
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
    grp, back = sub.as_group()
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
        "lower_central_series": lambda G, A: gc.lower_central_series(G),
        "jennings_series_product_formula": lambda G, A: gc.jennings_series_product_formula(G),
        "burnside_basis": lambda G, A: gc.burnside_basis(G),
        "normal_subgroups": lambda G, A: gc.normal_subgroups(G),
        "jennings_by_ideal": lambda G, A: ma.jennings_by_ideal(A),
    }


@pytest.mark.parametrize("name", sorted(_list_valued_memos()))
def test_memoized_lists_are_handed_out_as_copies(name):
    fn = _list_valued_memos()[name]
    # a fresh build: cat.build would hand out the D8 every other test shares
    G = next(e for e in cat.builtin_catalog() if e.name == "D8").build()
    A = ma.GroupAlgebra(G)
    first = fn(G, A)
    expected = list(first)
    first.clear()
    assert fn(G, A) == expected


def test_center_of_group_and_of_full_subgroup_share_one_entry(groups):
    G = groups["Q8"]
    assert gc.center(G) is gc.center(G.full_subgroup())
    assert gc.lower_central_series(G) == gc.lower_central_series(G.full_subgroup())


def test_memo_keys_on_arguments_and_keeps_types():
    G = cat.build("C16")
    assert [gc.omega(G, t).order for t in range(5)] == [1, 2, 4, 8, 16]
    assert [gc.agemo(G, t).order for t in range(5)] == [16, 8, 4, 2, 1]
    assert isinstance(gc.abelian_type(G), gc.AbelianType)
    assert isinstance(G.exponent(), int) and isinstance(G.is_abelian, bool)
    assert isinstance(G.full_subgroup().as_group(), tuple)


def test_only_memo_touches_the_per_object_caches():
    """Every ``._cache`` access sits in ``_memo``, in the constructors that
    create the dict, in ``full_subgroup`` (which shares its parent's dict) or
    in ``_ideal_chain`` (whose growing chain is not a function value)."""
    allowed = {
        ("group_core", "_memo"),
        ("group_core", "__init__"),
        ("group_core", "full_subgroup"),
        ("modular_algebra", "__init__"),
        ("modular_algebra", "_ideal_chain"),
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
