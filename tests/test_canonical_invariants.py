import ast
import copy
import hashlib
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import canonical_invariants as ci
from mipkit import catalog as cat
from mipkit import decomposition as dc
from mipkit import group_core as gc
import compare_oracle
import group_oracle
from test_pc_table import consistent_groups


def keys_of(exprs):
    return {e.key for e in exprs}


# every (depth, t_max) the pinned digests cover; the keys are the JSON keys
# of every ``analyze`` payload, so a change to either digest changes output
PINNED_CATALOGS = [(d, t) for d in (1, 2) for t in range(1, 6)]


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_catalog_keys_are_pinned():
    lines = []
    for d, t in PINNED_CATALOGS:
        lines.append(f"# depth {d}, t_max {t}")
        lines.extend(sorted(e.key for e in ci.generate_catalog(d, t)))
    assert sha256_lines(lines) == (
        "ac78ac88aa156c7516a0dcf6d90e19ceb6b1fe73e12033f75c5b7ee4ffefea61"
    )


def test_normal_forms_are_pinned():
    lines = [
        ci.normalize(e, tau).key
        for d, t in PINNED_CATALOGS
        for e in ci.generate_catalog(d, t)
        for tau in range(1, 5)
    ]
    assert sha256_lines(lines) == (
        "729c5f718d1c12c37734049641fab156d4d4abfd393bb1263795de7382c81506"
    )


def test_depth_one_catalog_contents():
    keys = keys_of(ci.generate_catalog(1, 1))
    assert "G'" in keys
    assert "Mho(1;G,G')" in keys  # the Frattini subgroup
    assert "Om(1;G')" in keys


def test_catalog_contains_the_component_detector_expression():
    # central torsion above the powers-and-derived subgroup, both at t
    keys = keys_of(ci.generate_catalog(2, 2))
    assert "OmZ(1;Mho(1;G,G'))" in keys
    assert "OmZ(2;Mho(2;G,G'))" in keys


def test_catalog_contains_named_depth2_subgroups():
    keys = keys_of(ci.generate_catalog(2, 2))
    # Mho_t(Z G')G', Om_t(G : Z G') via the stabilized central form arrive
    # only after tau-normalization; their literal-t forms are present:
    assert "Mho(1;OmZ(1;G'),G')" in keys
    assert "Om(1;OmZ(1;G'))" in keys


def test_equal_constructions_are_one_object():
    a = ci.PowerTimes(2, ci.Product((ci.DERIVED, ci.TorsionAbove(1, ci.DERIVED))), ci.DERIVED)
    b = ci.PowerTimes(2, ci.Product([ci.DERIVED, ci.TorsionAbove(1, ci.DERIVED)]), ci.DERIVED)
    assert a is b
    assert ci.CentralTorsionTimes(None, ci.DERIVED) is ci.CentralTorsionTimes(None, ci.DERIVED)
    assert ci.TorsionAbove(1, ci.DERIVED) is not ci.TorsionAbove(2, ci.DERIVED)
    assert a.key == "Mho(2;Join(G',Om(1;G')),G')" and a.depth == 3 and a.contains_derived


def test_copies_and_unpickled_nodes_are_the_interned_node():
    a = ci.PowerTimes(2, ci.Product((ci.DERIVED, ci.TorsionAbove(1, ci.DERIVED))), ci.DERIVED)
    for node in (a, ci.WHOLE, ci.DERIVED, ci.TorsionAbove(1, ci.DERIVED)):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    assert copy.deepcopy([a, a])[1] is a


def test_normalize_is_idempotent_by_identity():
    for e in ci.generate_catalog(2, 3):
        for tau in (None, 1, 2, 3):
            norm = ci.normalize(e, tau)
            assert ci.normalize(norm, tau) is norm, (e, tau)


def test_catalog_list_is_a_fresh_copy():
    first = ci.generate_catalog(2, 2)
    expected = list(first)
    first.clear()
    again = ci.generate_catalog(2, 2)
    assert again == expected and again is not first
    again.append(ci.WHOLE)
    assert ci.generate_catalog(2, 2) == expected


def test_structural_dedup():
    joined = ci.normalize(ci.Product((ci.DERIVED, ci.DERIVED)))
    assert joined.key == "G'"
    collapsed = ci.normalize(ci.Product((ci.DERIVED, ci.TorsionAbove(1, ci.DERIVED))))
    assert collapsed.key == "Om(1;G')"
    assert ci.normalize(ci.TorsionAbove(2, ci.WHOLE)).key == "G"


def test_normalize_with_stabilization_threshold():
    tau = 2
    assert ci.normalize(ci.TorsionAbove(2, ci.DERIVED), tau) == ci.WHOLE
    assert ci.normalize(ci.PowerTimes(2, ci.WHOLE, ci.DERIVED), tau) == ci.DERIVED
    stab = ci.normalize(ci.CentralTorsionTimes(3, ci.DERIVED), tau)
    assert stab.key == "OmZ(s;G')"


def test_evaluate_frattini_expression(groups):
    for name in ("D8", "Q8", "M16", "Heis27"):
        G = groups[name]
        got = ci.evaluate(ci.PowerTimes(1, ci.WHOLE, ci.DERIVED), G)
        assert got == gc.frattini(G), name


def test_evaluate_stabilized_central_form(groups):
    for name in ("D8", "M16", "M27"):
        G = groups[name]
        got = ci.evaluate(ci.CentralTorsionTimes(None, ci.DERIVED), G)
        assert got == gc.join(gc.center(G), gc.commutator_subgroup(G)), name


def test_evaluate_torsion_above_derived_on_dihedral(groups):
    assert group_oracle.is_whole_group(ci.evaluate(ci.TorsionAbove(1, ci.DERIVED), groups["D8"]))


def test_evaluate_rejects_missing_derived_containment(groups):
    with pytest.raises(ci.ContainmentError):
        ci.evaluate(ci.TorsionAbove(1, ci.TRIVIAL), groups["D8"])


def test_non_normal_evaluation_names_group_and_orders(monkeypatch):
    G = cat.build("D8")  # fresh: no evaluation memoized on it yet
    monkeypatch.setattr(gc.Subgroup, "is_normal", lambda self: False)
    with pytest.raises(gc.InternalCheckError, match=r"G' is not normal in D8: \|G\| = 8, \|subgroup\| = 2"):
        ci.evaluate(ci.DERIVED, G)


def test_evaluations_are_normal_subgroups(groups):
    for name in ("D8", "Q8", "M16", "Heis27", "M27"):
        G = groups[name]
        for expr in ci.generate_catalog(2, 2):
            sub = ci.evaluate(expr, G)
            assert sub.is_normal()


def test_fingerprint_d8_q8_byte_equal(groups):
    fp_d8 = ci.fingerprint(groups["D8"])
    fp_q8 = ci.fingerprint(groups["Q8"])
    assert fp_d8 == fp_q8
    assert fp_d8.invariant_bytes() == fp_q8.invariant_bytes()


def test_fingerprint_separates_cyclic8_from_c4xc2(groups):
    tau = 3
    fp_a = ci.fingerprint(groups["C8"], tau=tau)
    fp_b = ci.fingerprint(groups["C4xC2"], tau=tau)
    assert fp_a != fp_b
    assert fp_a.payload["jennings"] != fp_b.payload["jennings"]


def test_fingerprint_json_schema(groups):
    payload = json.loads(ci.fingerprint(groups["D8"]).to_json())
    assert set(payload) == {"group", "p", "order", "d", "jennings", "ab_type", "catalog"}
    assert payload["group"] == "D8"
    assert payload["jennings"] == [8, 2, 1]
    assert payload["ab_type"] == []
    some_bundle = payload["catalog"]["G'"]
    assert set(some_bundle) == {"order", "jennings", "ab_type", "z_meet_type", "z_quot_type", "pairs"}


def test_payload_keys_are_named_by_group_keys(groups):
    payload = ci.fingerprint(groups["D8"]).payload
    assert set(payload) == {"group", "p"} | {name for name, _ in ci._GROUP_KEYS} | {"catalog"}


def _nodes(expr):
    yield expr
    for child in expr.children:
        yield from _nodes(child)


def _structurally_sound(expr):
    # every node that requires G' <= N takes an N that contains G' in every group
    return all(n.children[-1].contains_derived for n in _nodes(expr) if n.op in ci._ABOVE_OPS)


def test_fingerprint_catalogs_are_structurally_sound(groups):
    # so no fingerprint evaluation can raise ContainmentError
    taus = {ci.stabilization_threshold(G) for G in groups.values()}
    for depth in (1, 2):
        for tau in taus:
            for t_max in (1, 2, tau + 1):
                exprs, _ = ci._normal_catalog(depth, min(t_max, tau), tau)
                assert all(_structurally_sound(e) for e in exprs), (depth, t_max, tau)
    for depth, t_max in ((2, 3), (3, 1)):
        for expr in ci.generate_catalog(depth, t_max):
            for tau in (1, 2, 3):
                assert _structurally_sound(ci.normalize(expr, tau)), (expr.key, tau)


def test_fingerprint_has_one_catalog_key_per_normal_form(groups):
    assert len(groups) == 29
    for name, G in groups.items():
        tau = ci.stabilization_threshold(G)
        exprs, _ = ci._normal_catalog(2, tau, tau)
        assert list(ci.fingerprint(G).payload["catalog"]) == [e.key for e in exprs], name


def test_keys_of_one_subgroup_share_one_bundle(groups):
    G = groups["D8"]
    catalog = ci.fingerprint(G).payload["catalog"]
    tau = ci.stabilization_threshold(G)
    exprs, _ = ci._normal_catalog(2, tau, tau)
    by_subgroup = {}
    for expr in exprs:
        if expr.key in catalog:
            by_subgroup.setdefault(ci.evaluate(expr, G, tau).elements, set()).add(expr.key)
    assert len(by_subgroup) < len(catalog)  # some subgroup has several keys
    for keys in by_subgroup.values():
        assert len({id(catalog[key]) for key in keys}) == 1
    assert len({id(bundle) for bundle in catalog.values()}) == len(by_subgroup)


def test_keys_of_one_n_share_one_pair_entry(groups):
    # one entry object per (subgroup, N) pair, whatever the number of keys
    G = groups["D8"]
    catalog = ci.fingerprint(G).payload["catalog"]
    tau = ci.stabilization_threshold(G)
    _, n_pool = ci._normal_catalog(2, tau, tau)
    n_subgroups = {ci.evaluate(n_expr, G, tau).elements for n_expr in n_pool}
    assert len(n_subgroups) < len(n_pool)  # some N has several keys
    bundles = {id(bundle): bundle for bundle in catalog.values()}.values()
    entries = {id(entry) for bundle in bundles for entry in bundle["pairs"].values()}
    assert len(entries) == len(bundles) * len(n_subgroups)


def test_fingerprint_serialization_is_canonical(groups):
    a = ci.fingerprint(groups["D8"]).to_json()
    b = ci.fingerprint(groups["D8"]).to_json()
    assert a == b


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(), st.text(max_size=3)
)


@st.composite
def _shared_trees(draw):
    # each container draws its items from everything drawn before it, so
    # sub-objects recur by identity and scalars repeat
    pool = draw(st.lists(_SCALARS, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 10))):
        items = draw(st.lists(st.sampled_from(pool), max_size=4))
        kind = draw(st.sampled_from(["list", "tuple", "str-keys", "int-keys"]))
        if kind == "list":
            pool.append(items)
        elif kind == "tuple":
            pool.append(tuple(items))
        else:
            keys = st.text(max_size=3) if kind == "str-keys" else st.integers(-20, 20)
            drawn = draw(st.lists(keys, min_size=len(items), max_size=len(items), unique=True))
            pool.append(dict(zip(drawn, items)))
    return pool[-1]


@settings(max_examples=300, deadline=None)
@given(_shared_trees())
def test_canonical_json_matches_json_dumps(obj):
    assert ci.canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_canonical_json_of_payloads_matches_json_dumps(groups):
    for name in ("C8", "D8", "Q16"):
        payload = ci.fingerprint(groups[name]).payload
        assert ci.canonical_json(payload) == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_fingerprint_of_abelian_group_determines_type(groups):
    for name in ("C8", "C4xC2", "C2xC2xC2", "C9xC3"):
        fp = ci.fingerprint(groups[name])
        assert fp.payload["ab_type"] == gc.abelian_type(groups[name]).to_list()


def test_fingerprint_monotone_in_tmax(groups):
    G = groups["D8"]
    tau = ci.stabilization_threshold(G)
    base = ci.fingerprint(G, 2, tau + 1)
    for extra in (2, 3):
        assert ci.fingerprint(G, 2, tau + extra) == base


@pytest.mark.parametrize("depth", [1, 2])
def test_catalog_past_tau_normalizes_as_at_tau(depth):
    # fingerprint reads the catalog at min(t_max, tau): every t >= tau
    # normalizes to one stable form, so a t past tau adds no expression
    for tau in range(1, 6):
        at_tau = {ci.normalize(e, tau) for e in ci.generate_catalog(depth, tau)}
        for t in (tau + 1, tau + 3):
            assert {ci.normalize(e, tau) for e in ci.generate_catalog(depth, t)} == at_tau


def test_catalog_level_past_the_candidate_cap_is_refused():
    # depth 3 at t_max 3 would build 1.9M candidates at level 3, any depth 4
    # at least 20.8M at level 4: the levels below are built, that one refused
    for depth, t, level in ((3, 3, 3), (4, 1, 4), (5, 1, 4)):
        with pytest.raises(gc.CapExceededError, match=f"at level {level}, over the cap"):
            ci.generate_catalog(depth, t)


def test_compare_group_with_itself(groups):
    verdict = ci.compare(groups["M16"], groups["M16"])
    assert verdict["verdict"] == "indistinguishable-at-depth"


def test_compare_separates_by_jennings(groups):
    verdict = ci.compare(groups["C8"], groups["C4xC2"])
    assert verdict["verdict"] == "distinguished-by"
    assert verdict["key"] == "jennings"


def test_compare_d8_q8_indistinguishable(groups):
    verdict = ci.compare(groups["D8"], groups["Q8"])
    assert verdict["verdict"] == "indistinguishable-at-depth"


def test_compare_products_indistinguishable(groups):
    for a_name, b_name in (("D8xC2", "Q8xC2"), ("D8xC4", "Q8xC4")):
        verdict = ci.compare(groups[a_name], groups[b_name])
        assert verdict["verdict"] == "indistinguishable-at-depth", (a_name, b_name)


def test_compare_separates_modular_16_group(groups):
    # semidihedral vs modular: the derived-subgroup quotient types differ
    verdict = ci.compare(groups["SD16"], groups["M16"])
    assert verdict["verdict"] == "distinguished-by"
    verdict = ci.compare(groups["D16"], groups["M16"])
    assert verdict["verdict"] == "distinguished-by"


def test_compare_cannot_separate_d16_from_sd16(groups):
    # the catalog subgroups of the two maximal-class groups coincide order
    # for order and type for type; equal fingerprints never claim
    # isomorphic algebras
    verdict = ci.compare(groups["D16"], groups["SD16"])
    assert verdict["verdict"] == "indistinguishable-at-depth"


def test_direct_product_consistency_for_equal_fingerprints(groups):
    # find every equal-fingerprint pair among the small catalog entries,
    # then check the fingerprints keep agreeing after any abelian factor
    small = {n: g for n, g in groups.items() if g.order <= 16}
    equal_pairs = []
    for a_name in small:
        for b_name in small:
            if a_name < b_name and small[a_name].order == small[b_name].order:
                if ci.compare(small[a_name], small[b_name])["verdict"] == (
                    "indistinguishable-at-depth"
                ):
                    equal_pairs.append((a_name, b_name))
    assert ("D8", "Q8") in equal_pairs
    assert ("D16", "SD16") in equal_pairs
    for g_name, h_name in equal_pairs:
        for a_name in ("C2", "C4"):
            a = groups[a_name]
            if groups[g_name].order * a.order > 64:
                continue
            g = gc.direct_product(groups[g_name], a)
            h = gc.direct_product(groups[h_name], a)
            verdict = ci.compare(g, h)["verdict"]
            assert verdict == "indistinguishable-at-depth", (g_name, h_name, a_name)


def test_ab_extraction_through_products(groups):
    # the abelian-factor entry of fingerprint(G + A) is type(Ab(G) + A)
    for g_name in ("D8", "Q8", "C4", "D8xC2"):
        for a_name in ("C2", "C4"):
            g = groups[g_name]
            a = groups[a_name]
            prod = gc.direct_product(g, a)
            if prod.order > 64:
                continue
            fp = ci.fingerprint(prod)
            expected = group_oracle.merge(dc.ab_nab_split(g).ab_type(), gc.abelian_type(a))
            assert fp.payload["ab_type"] == expected.to_list(), (g_name, a_name)


def test_stabilization_threshold(groups):
    assert ci.stabilization_threshold(groups["D8"]) == 2  # exponent 4
    assert ci.stabilization_threshold(groups["C16"]) == 4
    assert ci.stabilization_threshold(groups["Heis27"]) == 1


# -- compare against the oracle that builds both full fingerprints ------------


def _same_prime_pairs(groups):
    return [(a, b) for a in groups for b in groups if groups[a].p == groups[b].p]


@pytest.mark.parametrize("depth", [1, 2])
def test_compare_matches_the_oracle_on_catalog_pairs(depth, groups):
    pairs = _same_prime_pairs(groups)
    assert len(pairs) == 445
    for a, b in pairs:
        got = ci.compare(groups[a], groups[b], depth)
        assert got == compare_oracle.compare(groups[a], groups[b], depth), (a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compare_matches_the_oracle_on_drawn_pairs(data):
    # H of G's order, so that later keys and the catalogs get compared
    G = data.draw(consistent_groups(max_exponent=9))
    H = data.draw(consistent_groups(max_exponent=9, p=G.p, log=gc.log_p(G.order, G.p)))
    assert ci.compare(G, H) == compare_oracle.compare(G, H)


def test_compare_of_a_relabeled_table_matches_the_oracle(groups):
    # D8xC4 against Q8xC4 agree on every key, so both catalogs are read
    G, H = groups["D8xC4"], groups["Q8xC4"]
    rng = np.random.default_rng(sum(map(ord, G.name)))
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    table = np.empty_like(G.mul)
    table[np.ix_(perm, perm)] = perm[G.mul]
    R = gc.from_mul_table(table, name=G.name)
    for X, Y in ((R, H), (H, R), (R, G)):
        assert ci.compare(X, Y) == compare_oracle.compare(X, Y)
    assert ci.compare(R, H)["verdict"] == "indistinguishable-at-depth"


def _formula_names(tree):
    """The abelian-factor formula's names that a module's tree mentions: as
    a variable, an attribute, an imported name or a string constant."""
    formula = {"formula_ab_type", "_formula_component_rank"}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name.rsplit(".", 1)[-1], node.asname})
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    return named & formula


def test_fingerprint_reads_the_abelian_factor_off_the_checked_split():
    """The ``ab_type`` key is ``ab_nab_split``'s type, which the split has
    compared with the quotient formula; the fingerprint never reaches the
    formula itself."""
    assert _formula_names(ast.parse(Path(ci.__file__).read_text())) == set()
    # a call, an import, a bound attribute and a getattr string are found
    snippets = (
        "def f(G):\n    return dc.formula_ab_type(G)\n",
        "from .decomposition import _formula_component_rank\n",
        "rank = dc._formula_component_rank\n",
        "def g(G):\n    return getattr(dc, 'formula_ab_type')(G)\n",
    )
    for text in snippets:
        assert _formula_names(ast.parse(text)), text
