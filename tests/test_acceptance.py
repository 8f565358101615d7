"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria A3, A4 and the witness-extension clause of A7 assume that an
explicit algebra isomorphism F_2 D8 -> F_2 Q8 exists.  No such
isomorphism exists (the two algebras differ in the number of square-zero
radical elements, 48 vs 16, and the isomorphism problem has a positive
answer at order 8), so those assertions fail honestly; the attainable
clauses of the same criteria are asserted first and hold.
"""

import itertools
import time

import numpy as np
import pytest

from mipkit import canonical_invariants as ci
from mipkit import catalog as cat
from mipkit import decomposition as dc
from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit import modular_algebra as ma


def announce(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def fresh_groups():
    """Rebuild every catalog group so no cross-test cache deflates timings."""
    return {entry.name: cat.build(entry.name) for entry in cat.builtin_catalog()}


# -- A1 ---------------------------------------------------------------------


def test_a1_jennings_cross_check():
    groups = fresh_groups()
    started = time.time()
    for name, G in groups.items():
        ma.jennings_by_ideal(ma.GroupAlgebra(G))  # hard-asserts both routes agree
    d8 = ma.GroupAlgebra(groups["D8"])
    dims = [ma._ideal_chain(d8, n).dim for n in range(6)]
    elapsed = time.time() - started
    # cross-check against the Poincare polynomial (1+x)^2 (1+x^2)
    poly = np.convolve(np.convolve([1, 1], [1, 1]), [1, 0, 1])
    from_poly = [int(sum(poly[k:])) for k in range(len(poly))] + [0]
    ok = dims == [8, 7, 5, 3, 1, 0] == from_poly and elapsed < 1.0
    announce("A1 jennings-cross-check", ok, f"dims={dims}, {elapsed:.2f}s")
    assert dims == [8, 7, 5, 3, 1, 0]
    assert from_poly == dims
    assert elapsed < 1.0


# -- A2 ---------------------------------------------------------------------


def test_a2_separation_of_cyclic8_and_c4xc2():
    started = time.time()
    c8 = cat.build("C8")
    c4xc2 = cat.build("C4xC2")
    verdict = ci.compare(c8, c4xc2)
    dim_a = ma._ideal_chain(ma.GroupAlgebra(c8), 2).dim
    dim_b = ma._ideal_chain(ma.GroupAlgebra(c4xc2), 2).dim
    elapsed = time.time() - started
    ok = (
        verdict["verdict"] == "distinguished-by"
        and dim_a == 6
        and dim_b == 5
        and elapsed < 1.0
    )
    announce("A2 separation", ok, f"dim I^2: {dim_a} vs {dim_b}, {elapsed:.2f}s")
    assert verdict["verdict"] == "distinguished-by"
    assert (dim_a, dim_b) == (6, 5)
    assert elapsed < 1.0


# -- A3 ---------------------------------------------------------------------


def test_a3_classical_coincidence():
    started = time.time()
    d8, q8 = cat.build("D8"), cat.build("Q8")
    fp_equal = ci.fingerprint(d8).invariant_bytes() == ci.fingerprint(q8).invariant_bytes()
    witness = ma.iso_search(ma.GroupAlgebra(d8), ma.GroupAlgebra(q8))
    elapsed = time.time() - started
    ok = fp_equal and witness is not None and elapsed < 10.0
    announce(
        "A3 classical-coincidence",
        ok,
        f"fingerprints byte-equal={fp_equal}, witness={'found' if witness else 'none'}, {elapsed:.2f}s",
    )
    assert fp_equal, "fingerprint(D8) != fingerprint(Q8)"
    assert elapsed < 10.0
    assert witness is not None, (
        "spec defect: no augmentation-preserving isomorphism F_2 D8 -> F_2 Q8 "
        "exists.  The exhaustive search over all unit pairs satisfying the "
        "dihedral presentation relations terminates with rank <= 3 < 8; the "
        "two algebras differ in an isomorphism invariant (48 vs 16 square-zero "
        "elements of the radical), and a witness would contradict the known "
        "positive answer of the modular isomorphism problem at order 8."
    )


# -- A4 ---------------------------------------------------------------------


def test_a4_canonicity_witnessed():
    d8, q8 = cat.build("D8"), cat.build("Q8")
    witness = ma.iso_search(ma.GroupAlgebra(d8), ma.GroupAlgebra(q8))
    if witness is None:
        announce(
            "A4 canonicity-witnessed",
            False,
            "blocked: the A3 witness does not exist; the same subspace-image "
            "checks pass under genuine exotic automorphisms in the regular suite",
        )
        pytest.fail(
            "cannot run as stated: requires the (nonexistent) F_2 D8 -> F_2 Q8 "
            "witness from A3.  The executable transfer property itself "
            "is exercised in test_iso_search.py against exotic automorphisms of "
            "F_2 D8, F_2 Q8 and F_2 (C4xC2), where every catalog expression's "
            "relative ideal is verified to be preserved."
        )
    exprs = ci.generate_catalog(2, 2)
    results = ci.verify_canonical_images(witness, exprs)
    announce("A4 canonicity-witnessed", all(results.values()))
    assert results and all(results.values())


# -- A5 ---------------------------------------------------------------------


def _check_intersection_identity(A, l_sub, n_sub, aug_spans):
    """I(L)G meet span(N - 1) equals the relative ideal of L meet N in kN,
    witnessed by double containment plus the dimension formula."""
    G = A.group
    ideal_l = (
        ma.relative_augmentation_ideal(A, l_sub).space
        if l_sub.order > 1
        else fl.zero_subspace(A.p, A.dim)
    )
    aug_n = aug_spans[n_sub.elements]
    meet = gc.intersect_subgroups(l_sub, n_sub)
    eye = np.eye(A.dim, dtype=np.int64)
    builder = fl.SubspaceBuilder(A.p, A.dim)
    n_arr = np.array(n_sub.elements)
    for m in meet.generators or tuple(x for x in meet.elements if x):
        rows = (eye[G.mul[m, n_arr]] - eye[n_arr]) % A.p
        builder.absorb(rows)
    expected = builder.subspace()
    if not (ideal_l.contains_space(expected) and aug_n.contains_space(expected)):
        return False
    inter_dim = ideal_l.dim + aug_n.dim - ideal_l.sum(aug_n).dim
    return inter_dim == expected.dim


def test_a5_identity_suite():
    started = time.time()
    groups = fresh_groups()
    for name, G in groups.items():
        A = ma.GroupAlgebra(G)
        p = G.p
        tau = ci.stabilization_threshold(G)
        normals = gc.normal_subgroups(G)
        aug_spans = {n.elements: ma.augmentation_span(A, n) for n in normals}

        # intersection identity on every ordered normal pair
        for l_sub in normals:
            for n_sub in normals:
                assert _check_intersection_identity(A, l_sub, n_sub, aug_spans), (
                    name,
                    l_sub.order,
                    n_sub.order,
                )

        # kernel of the p^t-power map on abelian members (asserted inside)
        if G.is_abelian:
            for t in range(1, tau + 2):
                ma.power_map_commutative(A, t)

        # preimage identity through every projection, for nested pairs
        for n_sub in normals:
            if n_sub.is_trivial():
                continue
            proj = ma.natural_projection(A, n_sub)
            for l_sub in normals:
                if not l_sub.contains_subgroup(n_sub):
                    continue
                image_l = sorted({proj.hom(x) for x in l_sub.elements})
                l_over_n = gc.subgroup_from_elements(proj.target.group, image_l)
                target = (
                    ma.relative_augmentation_ideal(proj.target, l_over_n).space
                    if l_over_n.order > 1
                    else fl.zero_subspace(p, proj.target.dim)
                )
                pre = fl.preimage(proj.matrix, target, p)
                assert pre == ma.relative_augmentation_ideal(A, l_sub).space, name

        # graded-quotient checks
        ma.center_decomposition(A)
        for t in range(1, tau + 2):
            assert ma.power_diagram_commutes(A, t), (name, t)
        if G.order > 1:
            assert ma.jennings_layer_embedding(A, 1).is_bijective(), name

        # (1 + I(N)G + I^n) meet G = D_n(G) N for every normal N
        length = len(gc.jennings_series_product_formula(G))
        for n_sub in normals:
            for k in range(1, length + 1):
                ma.group_jennings_with_normal(A, n_sub, k)

    # direct-sum decomposition of ideal powers on explicit direct products
    for a_name, b_name in (
        ("D8", "C2"),
        ("Q8", "C2"),
        ("D8", "C4"),
        ("Q8", "C4"),
        ("C4", "C2"),
        ("D8xC4", "C2"),
        ("Heis27", "C3"),
        ("M27", "C9"),
    ):
        prod = gc.direct_product(groups[a_name], groups[b_name])
        A = ma.GroupAlgebra(prod)
        emb_n, emb_l = prod.embeddings
        n_sub = gc.subgroup_from_elements(prod, emb_n.images.tolist())
        l_sub = gc.subgroup_from_elements(prod, emb_l.images.tolist())
        aug_l = ma.augmentation_span(A, l_sub)
        l_power = aug_l
        n = 1
        while True:
            total = ma._ideal_chain(A, n)
            left = ma.left_multiplier_span(A, n_sub, ma._ideal_chain(A, n - 1))
            if n > 1:
                l_power = ma.subspace_product(A, l_power, aug_l)
            assert left.intersect(l_power).dim == 0, (a_name, b_name, n)
            assert left.sum(l_power) == total, (a_name, b_name, n)
            if total.dim == 0:
                break
            n += 1
    elapsed = time.time() - started
    announce("A5 identity-suite", True, f"{elapsed:.1f}s")


# -- A6 ---------------------------------------------------------------------


def test_a6_decomposition_correctness():
    started = time.time()
    groups = fresh_groups()
    for name, G in groups.items():
        decomp = dc.ab_nab_split(G)  # certificate verified internally
        assert decomp.certificate["verified"]
        report = dc.component_checks(G, decomp)
        assert report["all_pass"], (name, report)
        assert dc.formula_ab_type(G) == decomp.ab_type(), name
    big = dc.ab_nab_split(groups["D8xC4xC2"])
    nab_ok = (
        big.nab.order == 8
        and not big.nab.is_abelian
        and big.certificate["nab"]["abelianization"] == [2, 2]
    )
    ab_ok = big.ab_type().to_list() == [4, 2]
    elapsed = time.time() - started
    announce("A6 decomposition", nab_ok and ab_ok, f"{elapsed:.1f}s")
    assert nab_ok and ab_ok


# -- A7 ---------------------------------------------------------------------


def test_a7_product_consistency():
    started = time.time()
    d8, q8 = cat.build("D8"), cat.build("Q8")
    factor_names = ("C2", "C4", "C4xC2")
    all_equal = True
    for a_name in factor_names:
        a = cat.build(a_name)
        g = gc.direct_product(d8, a)
        h = gc.direct_product(q8, a)
        tau = max(ci.stabilization_threshold(g), ci.stabilization_threshold(h))
        eq = (
            ci.fingerprint(g, tau=tau).invariant_bytes()
            == ci.fingerprint(h, tau=tau).invariant_bytes()
        )
        all_equal = all_equal and eq
        assert eq, f"fingerprint(D8x{a_name}) != fingerprint(Q8x{a_name})"
    witness = ma.iso_search(ma.GroupAlgebra(d8), ma.GroupAlgebra(q8))
    elapsed = time.time() - started
    if witness is None:
        announce(
            "A7 product-consistency",
            False,
            f"fingerprint equalities hold for A in {factor_names}; extension "
            f"clause blocked by the missing A3 witness, {elapsed:.1f}s",
        )
        pytest.fail(
            "the witness-extension clause cannot run as stated: it tensors the "
            "(nonexistent) F_2 D8 -> F_2 Q8 witness with the identity of kA.  "
            "All fingerprint equalities of this criterion hold; the tensor "
            "construction itself is exercised at dimensions 16 and 32 in "
            "test_iso_search.py using exotic automorphism witnesses."
        )
    ext, gp, hp = ma.extend_by_abelian(witness, cat.build("C2"))
    results = ci.verify_canonical_images(ext, ci.generate_catalog(2, 2))
    announce("A7 product-consistency", all(results.values()))
    assert all(results.values())


# -- A8 ---------------------------------------------------------------------


def test_a8_abelian_completeness():
    started = time.time()
    names_p2 = ["C2", "C4", "C8", "C16", "C2xC2", "C4xC2", "C2xC2xC2"]
    names_p3 = ["C3", "C9", "C27", "C3xC3", "C9xC3"]
    for family in (names_p2, names_p3):
        groups = {n: cat.build(n) for n in family}
        for a_name, b_name in itertools.combinations_with_replacement(family, 2):
            a, b = groups[a_name], groups[b_name]
            same_type = (a_name == b_name) or (
                gc.abelian_type(a).orders == gc.abelian_type(b).orders
            )
            verdict = ci.compare(a, b)
            indistinguishable = verdict["verdict"] == "indistinguishable-at-depth"
            assert indistinguishable == same_type, (a_name, b_name, verdict)
    elapsed = time.time() - started
    ok = elapsed < 60.0
    announce("A8 abelian-completeness", ok, f"{elapsed:.1f}s")
    assert elapsed < 60.0
