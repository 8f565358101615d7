import ast
import functools
import inspect
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import catalog as cat
from mipkit import fp_linalg as fl
import greedy_oracle
import group_oracle
import iso_oracle
from rref_oracle import oracle_rref
from mipkit import group_core as gc
from mipkit import modular_algebra as ma
from test_group_core import _relabeled
from test_pc_table import consistent_groups


def one_minus(A, g):
    v = np.zeros(A.dim, dtype=np.int64)
    v[g] += 1
    v[0] -= 1
    return v % A.p


def test_basis_multiplication_and_inverses(algebras):
    A = algebras["D8"]
    G = A.group
    eye = np.eye(A.dim, dtype=np.int64)
    for g in range(G.order):
        prod = A.multiply_vec(eye[g], eye[G.inv_elem(g)])
        assert np.array_equal(prod, eye[0])
        assert np.array_equal(A.power_vec(eye[g], G.element_order(g)), eye[0])


def test_square_of_generator_minus_one_in_cyclic_4(algebras):
    A = algebras["C4"]
    x = one_minus(A, 1)
    # (a-1)^2 = a^2 - 2a + 1 = a^2 + 1 over F_2
    assert A.multiply_vec(x, x).tolist() == [1, 0, 1, 0]
    assert A.power_vec(x, 2).tolist() == [1, 0, 1, 0]


def test_augmentation_is_multiplicative(algebras):
    rng = np.random.default_rng(23)
    for name in ("D8", "C9xC3", "M16"):
        A = algebras[name]
        for _ in range(20):
            x = rng.integers(0, A.p, size=A.dim)
            y = rng.integers(0, A.p, size=A.dim)
            prod = A.multiply_vec(x, y).sum() % A.p
            assert prod == (x.sum() * y.sum()) % A.p


def test_relative_augmentation_ideal_extremes(algebras):
    A = algebras["D8"]
    G = A.group
    assert ma.relative_augmentation_ideal(A, G.trivial_subgroup()).space.dim == 0
    assert ma.relative_augmentation_ideal(A, G).space == ma.augmentation_ideal(A).space


def test_relative_augmentation_ideal_center_of_dihedral(algebras):
    A = algebras["D8"]
    rel = ma.relative_augmentation_ideal(A, gc.center(A.group))
    assert rel.space.dim == 8 - 4


def test_relative_ideal_requires_normal(algebras):
    A = algebras["D8"]
    with pytest.raises(gc.NotNormalError):
        ma.relative_augmentation_ideal(A, A.group.subgroup((4,)))


def _assert_augmentation_span_matches_elimination(A, S):
    # span(S - 1) against an elimination of {e_s - e_0 : s in S}
    eye = np.eye(A.dim, dtype=np.int64)
    rows = (eye[list(S.elements)] - eye[0]) % A.p
    basis, pivots = oracle_rref(rows, A.p)
    space = ma.augmentation_span(A, S)
    assert space.pivots == pivots, (A.group.name, S.elements)
    assert np.array_equal(space.basis, basis), (A.group.name, S.elements)


def test_relative_ideal_closed_form_matches_elimination(groups, algebras, small_groups):
    # the echelon basis {e_g - e_last(C)} against an elimination of the
    # spanning set {e_mg - e_g} over the generators m of N; the relabeled
    # copies number their coset labels in another order
    relabeled = {f"relabeled {name}": _relabeled(groups[name]) for name in ("D8xC4xC2", "M27xC9")}
    for name, G in {**groups, **relabeled}.items():
        A = algebras.get(name) or ma.GroupAlgebra(G)
        eye = np.eye(G.order, dtype=np.int64)
        for N in gc.normal_subgroups(G):
            _assert_augmentation_span_matches_elimination(A, N)
            space = ma.relative_augmentation_ideal(A, N).space
            if N.order == 1:
                assert space.dim == 0
                continue
            blocks = [eye[G.mul[m, :]] - eye for m in N.generators]
            basis, pivots = oracle_rref(np.concatenate(blocks) % G.p, G.p)
            assert space.pivots == pivots, (name, N.order)
            assert np.array_equal(space.basis, basis), (name, N.order)
    # augmentation_span takes any subgroup: the non-normal cyclic ones
    for name, G in small_groups.items():
        cyclic = {G.subgroup((g,)) for g in range(1, G.order)}
        for S in sorted((S for S in cyclic if not S.is_normal()), key=lambda S: S.elements):
            _assert_augmentation_span_matches_elimination(algebras[name], S)


def _assert_ideal_reads_only_the_element_set(G, N, witness):
    """A hand-built subgroup with N's elements and a witness that generates
    less than N gives, on a fresh algebra, the registry N's ideal: I(N)G
    depends on the element set alone."""
    assert G.subgroup(witness).order < N.order
    fake = gc.Subgroup(G, N.elements, witness)
    got = ma.relative_augmentation_ideal(ma.GroupAlgebra(G), fake).space
    want = ma.relative_augmentation_ideal(ma.GroupAlgebra(G), N).space
    assert got.pivots == want.pivots
    assert np.array_equal(got.basis, want.basis)


def test_relative_ideal_reads_the_element_set_not_a_cyclic_witness(groups):
    G = groups["D8xC4"]
    N = gc.center(G)
    # N's element set with the generator of a proper cyclic subgroup
    _assert_ideal_reads_only_the_element_set(G, N, (max(N.elements, key=G.element_order),))


def test_relative_ideal_reads_the_element_set_not_a_truncated_witness(groups):
    G = groups["D8xC2"]
    Z = gc.center(G)
    _assert_ideal_reads_only_the_element_set(G, Z, Z.generators[:1])


def test_ideal_two_sidedness(algebras):
    for name in ("D8", "Q8", "Heis27"):
        A = algebras[name]
        assert ma.augmentation_ideal(A).verify_two_sided()
        n = gc.center(A.group)
        assert ma.relative_augmentation_ideal(A, n).verify_two_sided()


def test_ideal_power_chain_of_dihedral(algebras):
    A = algebras["D8"]
    dims = [ma._ideal_chain(A, n).dim for n in range(6)]
    assert dims == [8, 7, 5, 3, 1, 0]


def test_cold_ideal_chain_call_stays_shallow():
    # I(C243)^n has dimension 243 - n.  A cold call for n = 243 fills the
    # lower terms bottom-up, so it needs a few frames, not two per term.
    A = ma.GroupAlgebra(gc.from_pc_presentation("p 3\ngens 1\norder 1 243\n", name="C243"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        last = ma._ideal_chain(A, 243)
    finally:
        sys.setrecursionlimit(limit)
    assert last.dim == 0
    assert [ma._ideal_chain(A, n).dim for n in range(245)] == [243 - n for n in range(244)] + [0]


def test_ideal_chain_stops_at_its_first_zero_term():
    # a far power builds each nonzero term once and stores nothing past
    # the first zero term, which stands for every n beyond it
    A = ma.GroupAlgebra(cat.build("D8"))
    assert ma._ideal_chain(A, 4000).dim == 0
    # the subspaces the cache holds, as memo entries or inside a memoized dict
    held = sum(len(v) if isinstance(v, dict) else isinstance(v, fl.Subspace) for v in A._cache.values())
    assert held <= ma.nilpotency_index(A) + 2
    assert ma._ideal_chain(A, 10**6).dim == 0


def test_ideal_power_via_products_matches_chain(algebras):
    for name in ("D8", "C8", "Heis27"):
        A = algebras[name]
        aug = ma.augmentation_ideal(A).space
        sq = ma.subspace_product(A, aug, aug)
        assert sq == ma._ideal_chain(A, 2)
        assert ma.subspace_product(A, sq, aug) == ma._ideal_chain(A, 3)


def test_second_power_separates_cyclic8_from_c4xc2(algebras):
    assert ma._ideal_chain(algebras["C8"], 2).dim == 6
    assert ma._ideal_chain(algebras["C4xC2"], 2).dim == 5


def test_loewy_layers_match_poincare_polynomial(small_groups):
    for name, G in small_groups.items():
        A = ma.GroupAlgebra(G)
        assert ma.loewy_layer_dims(A) == ma.jennings_poincare_layer_dims(G), name


def test_jennings_by_ideal_examples(algebras):
    series = ma.jennings_by_ideal(algebras["D8"])
    assert [s.order for s in series] == [8, 2, 1]
    assert series[1] == gc.frattini(algebras["D8"].group)
    trivial = ma.jennings_by_ideal(algebras["C2"])
    assert [s.order for s in trivial] == [2, 1]


def test_jennings_by_ideal_matches_membership_in_eliminated_powers(small_groups):
    # D_n as {g : e_g - e_0 in I^n}, with I^n eliminated by the oracle from
    # the chain's basis and each row reduced against that basis here
    for name, G in small_groups.items():
        A = ma.GroupAlgebra(G)
        p = G.p
        eye = np.eye(A.dim, dtype=np.int64)
        rows = (eye - eye[0]) % p
        for n, term in enumerate(ma.jennings_by_ideal(A), start=1):
            basis, pivots = oracle_rref(ma._ideal_chain(A, n).basis, p)
            residual = (rows - rows[:, list(pivots)] @ basis) % p
            members = np.flatnonzero(~residual.any(axis=1))
            assert set(term.elements) == set(members.tolist()), (name, n)


def test_jennings_by_ideal_abelian_reproduces_type(algebras):
    orders = [s.order for s in ma.jennings_by_ideal(algebras["C4xC2"])]
    assert orders == [8, 2, 1]
    orders = [s.order for s in ma.jennings_by_ideal(algebras["C8"])]
    assert orders == [8, 4, 2, 2, 1]


def test_commutator_subspace_abelian_is_zero(algebras):
    assert ma.commutator_subspace(algebras["C9xC3"]).dim == 0


def test_commutator_subspace_dimension(algebras):
    for name in ("D8", "Q8", "D16", "Heis27"):
        A = algebras[name]
        expected = A.dim - len(A.group.conjugacy_classes())
        assert ma.commutator_subspace(A).dim == expected


def test_algebra_center_is_spanned_by_class_sums(algebras):
    for name in ("D8", "M16", "Heis27"):
        A = algebras[name]
        z = ma.algebra_center(A)
        assert z.dim == len(A.group.conjugacy_classes())
        for cls in A.group.conjugacy_classes():
            v = np.zeros(A.dim, dtype=np.int64)
            for x in cls:
                v[x] = 1
            assert z.contains(v)


def test_algebra_center_of_dihedral_has_dim_5(algebras):
    assert ma.algebra_center(algebras["D8"]).dim == 5


def test_center_decomposition(algebras):
    for name in ("D8", "Q8", "D16", "M16", "Heis27", "M27"):
        lhs, group_part, comm_part = ma.center_decomposition(algebras[name])
        assert lhs.dim == group_part.dim + comm_part.dim


def test_natural_projection_extremes(algebras):
    A = algebras["D8"]
    G = A.group
    proj = ma.natural_projection(A, G.trivial_subgroup())
    assert fl.rref(proj.matrix, A.p).dim == A.dim  # bijection
    proj = ma.natural_projection(A, G)
    assert proj.target.dim == 1  # the augmentation map onto F_p
    x = np.arange(A.dim) % A.p
    assert (x @ proj.matrix % A.p)[0] == x.sum() % A.p


def test_natural_projection_kernel_dimension(algebras):
    A = algebras["D8"]
    proj = ma.natural_projection(A, gc.center(A.group))
    assert fl.kernel(proj.matrix, A.p).dim == 4


def test_power_map_kernel_on_cyclic_4(algebras):
    pm = ma.power_map_commutative(algebras["C4"], 1)
    assert pm.kernel.dim == 2
    assert pm.kernel == ma.relative_augmentation_ideal(
        algebras["C4"], gc.omega(algebras["C4"].group, 1)
    ).space


def test_power_map_on_elementary_abelian(algebras):
    A = algebras["C2xC2"]
    pm = ma.power_map_commutative(A, 1)
    assert pm.kernel == ma.augmentation_ideal(A).space
    assert pm.image_hull.dim == 1


def test_power_map_image_hull_on_cyclic_8(algebras):
    pm = ma.power_map_commutative(algebras["C8"], 2)
    assert pm.image_hull.dim == 2


def test_power_map_rejects_nonabelian(algebras):
    with pytest.raises(ValueError):
        ma.power_map_commutative(algebras["D8"], 1)


def test_power_quotient_map_examples(groups):
    lam = ma.power_quotient_map(groups["C4"], 1)
    assert lam.domain.rank == 0 and lam.rank() == 0
    lam = ma.power_quotient_map(groups["C4"], 2)
    assert lam.domain.rank == 1 and lam.rank() == 1
    for t in (1, 2):
        lam = ma.power_quotient_map(groups["D8"], t)
        assert lam.domain.rank == 0
    d8xc4 = gc.direct_product(groups["D8"], groups["C4"])
    lam = ma.power_quotient_map(d8xc4, 2)
    assert lam.domain.rank == 1 and lam.rank() == 1


def test_elementary_quotient_rejects_a_non_normal_k(groups):
    D8 = groups["D8"]
    with pytest.raises(gc.NotNormalError):
        ma.ElementaryQuotient(D8, D8.subgroup((4,)))


def test_elementary_quotient_rejects_a_non_abelian_section(groups):
    # Heis27 has exponent 3, so only commutativity fails
    heis = groups["Heis27"]
    with pytest.raises(ValueError, match="not abelian") as info:
        ma.ElementaryQuotient(heis, heis.trivial_subgroup())
    assert info.type is ValueError


def test_elementary_quotient_rejects_exponent_above_p(groups):
    G = groups["C4xC2"]
    with pytest.raises(ValueError, match="not of exponent p") as info:
        ma.ElementaryQuotient(G, G.trivial_subgroup())
    assert info.type is ValueError
    # the same group modulo its squares passes
    assert ma.ElementaryQuotient(G, gc.agemo(G, 1)).rank == 2


def test_layer_embedding_injective_and_psi1_bijective(small_groups):
    for name, G in small_groups.items():
        A = ma.GroupAlgebra(G)
        emb = ma.jennings_layer_embedding(A, 1)
        assert emb.is_bijective(), name
        assert emb.domain.rank == gc.min_generators(G)


def test_layer_embedding_with_normal_part(algebras):
    A = algebras["D8"]
    z = gc.center(A.group)
    emb = ma.jennings_layer_embedding(A, 2, z)
    assert fl.rref(emb.matrix, 2).dim == emb.domain.rank


def test_ideal_power_quotient_map_well_defined(algebras):
    for name in ("D8", "Q8", "C8", "M16"):
        A = algebras[name]
        for t in (1, 2):
            lam = ma.ideal_power_quotient_map(A, t)
            assert lam.matrix.shape[0] == lam.domain.rank


def test_power_diagram_commutes_on_small_catalog(small_groups):
    for name, G in small_groups.items():
        A = ma.GroupAlgebra(G)
        tau = 0
        while G.p**tau < G.exponent():
            tau += 1
        for t in range(1, tau + 2):
            assert ma.power_diagram_commutes(A, t), (name, t)


def test_kernel_correspondence_between_power_maps(groups):
    # the kernels of the two q-th power maps match through the degree-one
    # layer embedding
    for name in ("D8xC4", "C4xC2", "M16"):
        G = groups[name] if name in groups else None
        if G is None:
            continue
        A = ma.GroupAlgebra(G)
        for t in (1, 2):
            lam = ma.power_quotient_map(G, t)
            big = ma.ideal_power_quotient_map(A, t)
            psi1 = fl.Subquotient(ma._ideal_chain(A, 1), ma._ideal_chain(A, 2))
            images = []
            for b in lam.domain.basis:
                v = np.zeros(A.dim, dtype=np.int64)
                v[b] += 1
                v[0] -= 1
                images.append(psi1.coords(v % A.p))
            if not images:
                continue
            emb = np.array(images, dtype=np.int64)
            lam_ker_image = fl.rref(
                (lam.kernel().basis @ emb) % A.p, A.p
            ) if lam.kernel().dim else fl.zero_subspace(A.p, psi1.rank)
            domain_image = fl.rref(emb, A.p)
            big_ker_restricted = domain_image.intersect(big.kernel())
            assert lam_ker_image == big_ker_restricted, (name, t)


def test_group_jennings_with_normal_examples(algebras):
    A = algebras["D8"]
    G = A.group
    d3 = ma.group_jennings_with_normal(A, G.trivial_subgroup(), 3)
    assert d3.is_trivial()
    whole = ma.group_jennings_with_normal(A, G, 3)
    assert group_oracle.is_whole_group(whole)
    z = gc.center(G)
    got = ma.group_jennings_with_normal(A, z, 3)
    assert got == z and got.order == 2


def test_group_jennings_with_normal_sweep(small_groups):
    for name, G in small_groups.items():
        if G.order > 16:
            continue
        A = ma.GroupAlgebra(G)
        length = len(gc.jennings_series_product_formula(G))
        for n in gc.normal_subgroups(G):
            for k in range(1, length + 1):
                ma.group_jennings_with_normal(A, n, k)  # raises on mismatch


def test_jennings_terms_reject_n_below_one(algebras):
    # a term index below 1 is a bad argument, not an index from the end of
    # the series and not a failed identity
    A = algebras["D8"]
    one = A.group.trivial_subgroup()
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        ma.group_jennings_with_normal(A, one, 0)
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        ma.group_jennings_with_normal(A, one, -1)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        ma.jennings_layer_embedding(A, -2)
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        ma._ideal_chain(A, -2)


def test_intersection_identity_on_dihedral_pairs(algebras):
    # I(L)G n kN-augmentation = relative ideal of L n N inside kN
    A = algebras["D8"]
    G = A.group
    eye = np.eye(A.dim, dtype=np.int64)
    for l_sub in gc.normal_subgroups(G):
        ideal_l = (
            ma.relative_augmentation_ideal(A, l_sub).space
            if l_sub.order > 1
            else fl.zero_subspace(A.p, A.dim)
        )
        for n_sub in gc.normal_subgroups(G):
            rows = [eye[x] - eye[0] for x in n_sub.elements if x]
            aug_n = fl.rref(np.array(rows) % A.p, A.p, A.dim) if rows else fl.zero_subspace(A.p, A.dim)
            meet = gc.intersect_subgroups(l_sub, n_sub)
            rows = []
            for m in meet.elements:
                if m:
                    for g in n_sub.elements:
                        row = eye[G.mul[m, g]] - eye[g]
                        rows.append(row % A.p)
            expected = fl.rref(rows, A.p, A.dim) if rows else fl.zero_subspace(A.p, A.dim)
            assert ideal_l.intersect(aug_n) == expected


def test_preimage_identity_through_projection(algebras):
    # I(L)G is the full preimage of I(L/N)(G/N) under the projection
    A = algebras["Q8"]
    G = A.group
    for n_sub in gc.normal_subgroups(G):
        if n_sub.is_trivial():
            continue
        proj = ma.natural_projection(A, n_sub)
        for l_sub in gc.normal_subgroups(G):
            if not l_sub.contains_subgroup(n_sub):
                continue
            image_l = sorted({proj.hom(x) for x in l_sub.elements})
            l_over_n = gc.subgroup_from_elements(proj.target.group, image_l)
            target = (
                ma.relative_augmentation_ideal(proj.target, l_over_n).space
                if l_over_n.order > 1
                else fl.zero_subspace(A.p, proj.target.dim)
            )
            pre = fl.preimage(proj.matrix, target, A.p)
            assert pre == ma.relative_augmentation_ideal(A, l_sub).space


@pytest.mark.parametrize("name", ["D8xC4", "M27xC3"])
def test_projection_kernels_and_preimages_read_off_labels(name, monkeypatch):
    # kG -> k(G/N) sends each basis element to one basis element and every
    # relative ideal is a partition space, so the kernel check and every
    # preimage of I(L/N) are read off labels: no call eliminates
    A = ma.GroupAlgebra(_fresh(name))
    normals = gc.normal_subgroups(A.group)
    calls = []
    rref = fl._rref
    monkeypatch.setattr(fl, "_rref", lambda mat, p: calls.append(mat.shape) or rref(mat, p))
    preimages = []
    for n_sub in normals:
        proj = ma.natural_projection(A, n_sub)
        for l_sub in normals:
            if not l_sub.contains_subgroup(n_sub):
                continue
            image_l = sorted({proj.hom(x) for x in l_sub.elements})
            l_over_n = gc.subgroup_from_elements(proj.target.group, image_l)
            target = ma.relative_augmentation_ideal(proj.target, l_over_n).space
            pre = fl.preimage(proj.matrix, target, A.p)
            assert pre == ma.relative_augmentation_ideal(A, l_sub).space
            preimages.append(pre)
    assert calls == []
    assert len(preimages) > len(normals) and all(pre.labels is not None for pre in preimages)


def test_one_minus_rows_built_once_per_algebra_and_read_only(algebras):
    A = algebras["C9xC3"]
    rows = ma._one_minus_rows(A)
    assert ma._one_minus_rows(A) is rows
    assert not rows.flags.writeable
    assert np.array_equal(rows, [one_minus(A, g) for g in range(A.dim)])


def test_product_ideal_direct_sum(groups):
    # I(G)^n = I(N) I(G)^{n-1} (+) I(L)^n for G = N x L
    for a_name, b_name in (("D8", "C2"), ("C4", "C2"), ("Q8", "C4")):
        prod = gc.direct_product(groups[a_name], groups[b_name])
        A = ma.GroupAlgebra(prod)
        emb_n, emb_l = prod.embeddings
        n_sub = group_oracle.image_subgroup(emb_n)
        l_sub = group_oracle.image_subgroup(emb_l)
        aug_n = ma.augmentation_span(A, n_sub)
        aug_l = ma.augmentation_span(A, l_sub)
        l_power = aug_l
        for n in range(1, 6):
            total = ma._ideal_chain(A, n)
            left = ma.subspace_product(A, aug_n, ma._ideal_chain(A, n - 1))
            # the generator-translate form spans the same product
            assert left == ma.left_multiplier_span(A, n_sub, ma._ideal_chain(A, n - 1))
            if n > 1:
                l_power = ma.subspace_product(A, l_power, aug_l)
            assert left.intersect(l_power).dim == 0, (a_name, b_name, n)
            assert left.sum(l_power) == total, (a_name, b_name, n)


def test_ideal_complement_criterion_on_products(groups):
    for a_name, b_name in (("D8", "C2"), ("Q8", "C2")):
        prod = gc.direct_product(groups[a_name], groups[b_name])
        A = ma.GroupAlgebra(prod)
        emb_l, emb_n = prod.embeddings  # N = the abelian factor here
        l_sub = group_oracle.image_subgroup(emb_l)
        n_sub = group_oracle.image_subgroup(emb_n)
        j = ma.relative_augmentation_ideal(A, n_sub).space
        report = ma.check_ideal_complement(A, j, n_sub, l_sub)
        assert all(report.values()), report


def test_nilpotency_index(algebras):
    assert ma.nilpotency_index(algebras["D8"]) == 5
    assert ma.nilpotency_index(algebras["C8"]) == 8


def test_trivial_group_algebra():
    import numpy as np

    G = gc.from_mul_table(np.zeros((1, 1), dtype=np.int64), name="1")
    A = ma.GroupAlgebra(G)
    assert ma.augmentation_ideal(A).space.dim == 0
    assert [s.order for s in ma.jennings_by_ideal(A)] == [1]


def test_algebra_over_p5():
    C5 = gc.from_pc_presentation("p 5\ngens 1\norder 1 5\n", name="C5")
    A = ma.GroupAlgebra(C5)
    assert [ma._ideal_chain(A, n).dim for n in range(6)] == [5, 4, 3, 2, 1, 0]
    pm = ma.power_map_commutative(A, 1)
    assert pm.kernel.dim == 4 and pm.image_hull.dim == 1


def test_relative_augmentation_ideal_checks_its_input_on_every_call():
    from mipkit import catalog as cat

    A = ma.GroupAlgebra(cat.build("D8"))
    assert ma.relative_augmentation_ideal(A, gc.center(A.group)).space.dim == 4
    # same element indices, other parent: a cached answer must not leak out
    with pytest.raises(ValueError, match="different group"):
        ma.relative_augmentation_ideal(A, gc.center(cat.build("Q8")))


def test_augmentation_span_rejects_a_foreign_subgroup(groups, algebras):
    A = algebras["D8"]
    # same order, other parent; and a subgroup larger than the group
    for foreign in (gc.center(groups["Q8"]), groups["D8xC4"]):
        with pytest.raises(ValueError, match="different group"):
            ma.augmentation_span(A, foreign)


def test_left_multiplier_span_rejects_a_foreign_subgroup(groups, algebras):
    A = algebras["D8"]
    ideal = ma.augmentation_ideal(A).space
    for foreign in (gc.center(groups["Q8"]), groups["D8xC4"]):
        with pytest.raises(ValueError, match="different group"):
            ma.left_multiplier_span(A, foreign, ideal)


@pytest.mark.parametrize("name", ["D8", "C9", "C2"])
def test_zero_operands_give_the_zero_space(algebras, name):
    A = algebras[name]
    G = A.group
    zero = fl.zero_subspace(A.p, A.dim)
    aug = ma.augmentation_ideal(A).space
    # the zero space eliminated, and as the partition space of singletons
    zeros = [zero, fl.partition_subspace(A.p, np.arange(A.dim))]
    iso = ma.iso_search(A, ma.GroupAlgebra(G))
    results = [ma.left_multiplier_span(A, G.trivial_subgroup(), aug)]
    for z in zeros:
        results += [
            ma.subspace_product(A, z, aug),
            ma.subspace_product(A, aug, z),
            ma.subspace_product(A, z, z),
            ma.left_multiplier_span(A, G, z),
            ma.left_multiplier_span(A, G.trivial_subgroup(), z),
            iso.apply_subspace(z),
        ]
    for got in results:
        assert got == zero and zero == got and hash(got) == hash(zero)
        assert got.pivots == () and got.basis.shape == (0, A.dim)


# -- the product kernel against the per-coefficient loop ---------------------


def _multiply_loop(A, x, y):
    """xy as the sum of x[g] (g . y) over the nonzero coefficients, one left
    translation y[mul[g^-1, :]] at a time: the oracle for the gather."""
    G = A.group
    z = np.zeros(A.dim, dtype=np.int64)
    for g in np.nonzero(x)[0]:
        z += x[g] * y[G.mul[G.inv[g], :]]
    return z % A.p


def _power_loop(A, x, k):
    z = np.zeros(A.dim, dtype=np.int64)
    z[0] = 1
    for _ in range(k):
        z = _multiply_loop(A, z, x)
    return z


_PCP_GROUPS = {
    "C5": "p 5\ngens 1\norder 1 5\n",
    "C25": "p 5\ngens 1\norder 1 25\n",
    "C5xC5": "p 5\ngens 2\norder 1 5\norder 2 5\n",
    "C7": "p 7\ngens 1\norder 1 7\n",
}
_KERNEL_GROUPS = sorted(
    [e.name for e in cat.builtin_catalog() if e.expected["order"] <= 27] + list(_PCP_GROUPS)
)


@functools.cache
def _kernel_algebra(name):
    if name in _PCP_GROUPS:
        return ma.GroupAlgebra(gc.from_pc_presentation(_PCP_GROUPS[name], name=name))
    return ma.GroupAlgebra(cat.build(name))


@st.composite
def _vectors(draw, A):
    """Coefficient vectors of every density, from zero to full support."""
    k = draw(st.integers(0, A.dim))
    support = draw(st.permutations(range(A.dim)))[:k]
    values = draw(st.lists(st.integers(1, A.p - 1), min_size=k, max_size=k))
    v = np.zeros(A.dim, dtype=np.int64)
    v[support] = values
    return v


def test_kernel_groups_cover_every_prime():
    assert {_kernel_algebra(name).p for name in _KERNEL_GROUPS} == {2, 3, 5, 7}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(_KERNEL_GROUPS), data=st.data())
def test_multiply_and_power_match_the_loop(name, data):
    # one row, and blocks of rows: row-wise block x block, a single row
    # broadcast on either side, and powers of a block, in int64 and int8
    A = _kernel_algebra(name)
    x = data.draw(_vectors(A))
    y = data.draw(_vectors(A))
    assert np.array_equal(A.multiply_vec(x, y), _multiply_loop(A, x, y))
    for k in range(10):
        assert np.array_equal(A.power_vec(x, k), _power_loop(A, x, k)), k
    m = data.draw(st.integers(1, 4))
    X = np.array([data.draw(_vectors(A)) for _ in range(m)])
    Y = np.array([data.draw(_vectors(A)) for _ in range(m)])
    cases = [
        (X, Y, [_multiply_loop(A, a, b) for a, b in zip(X, Y)]),
        (x, Y, [_multiply_loop(A, x, b) for b in Y]),
        (X, y, [_multiply_loop(A, a, y) for a in X]),
    ]
    for left, right, want in cases:
        for dtype in (np.int64, np.int8):
            got = A.multiply_vec(left.astype(dtype), right.astype(dtype))
            assert got.dtype == dtype and np.array_equal(got, want)
    for k in range(10):
        want = [_power_loop(A, a, k) for a in X]
        assert np.array_equal(A.power_vec(X, k), want), k
        assert np.array_equal(A.power_vec(X.astype(np.int8), k), want), k


@pytest.mark.parametrize("name", ["D8xC4", "M27xC9"])
def test_dense_products_match_the_loop_past_order_27(name, algebras):
    # n = 32 and 243, past the kernel groups: rows of every coefficient p-1
    # (the largest sums) and random dense rows; one row times one row and
    # a block times one row take the matrix product, and the (n,1,n) x
    # (1,n,n) block product of AlgebraIso's check the translation loop
    # (at n = 32 only: the loop oracle makes n^3 steps)
    A = algebras[name]
    rng = np.random.default_rng(A.dim)
    X = np.vstack([np.full(A.dim, A.p - 1), rng.integers(0, A.p, size=(3, A.dim))])
    Y = np.vstack([np.full(A.dim, A.p - 1), rng.integers(0, A.p, size=(3, A.dim))])
    cases = [(x, y, _multiply_loop(A, x, y)) for x in X for y in Y]
    cases += [(X, y, [_multiply_loop(A, x, y) for x in X]) for y in Y]
    if A.dim == 32:
        M = rng.integers(0, A.p, size=(A.dim, A.dim))
        cases.append((M[:, None], M[None], [[_multiply_loop(A, a, b) for b in M] for a in M]))
    for left, right, want in cases:
        for dtype in (np.int64, np.int8):
            got = A.multiply_vec(left.astype(dtype), right.astype(dtype))
            assert got.dtype == dtype and np.array_equal(got, want)


def test_power_vec_refuses_a_negative_exponent_and_keeps_the_dtype_at_zero(algebras):
    # a negative k never reached 0 under k >>= 1; x^0 is the identity in the
    # operand's dtype, one row or a block
    A = algebras["C4"]
    x = one_minus(A, 1).astype(np.int8)
    for k in (-1, -4):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            A.power_vec(x, k)
    for operand in (x, np.stack([x, x])):
        one = A.power_vec(operand, 0)
        assert one.dtype == np.int8 and one.shape == operand.shape
        assert np.array_equal(one, np.broadcast_to([1, 0, 0, 0], operand.shape))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_KERNEL_GROUPS), data=st.data())
def test_subspace_product_matches_the_loop(name, data):
    A = _kernel_algebra(name)
    xs = data.draw(st.lists(_vectors(A), max_size=3))
    ys = data.draw(st.lists(_vectors(A), max_size=3))
    u = fl.rref(xs, A.p, A.dim) if xs else fl.zero_subspace(A.p, A.dim)
    v = fl.rref(ys, A.p, A.dim) if ys else fl.zero_subspace(A.p, A.dim)
    products = [_multiply_loop(A, x, y) for x in u.basis for y in v.basis]
    expected = fl.rref(products, A.p, A.dim) if products else fl.zero_subspace(A.p, A.dim)
    assert ma.subspace_product(A, u, v) == expected


@pytest.mark.parametrize("name", ["D8", "Q8", "C9"])
def test_vec_inverse_of_every_unit(algebras, name):
    B = algebras[name]
    one = np.zeros(B.dim, dtype=np.int64)
    one[0] = 1
    for u in ma._unit_candidates(B).astype(np.int64):
        inv = B.power_vec(u, iso_oracle.inverse_exponent(B))
        assert np.array_equal(B.multiply_vec(inv, u), one)
        assert np.array_equal(B.multiply_vec(u, inv), one)


def test_elementary_quotient_basis_matches_join_loop(groups):
    # every elementary abelian section of normal subgroups, basis and
    # coordinates (see below), and the pools power_quotient_map passes
    for name, G in groups.items():
        _assert_quotient_coords_match_the_oracle(G)
        phi = gc.frattini(G)
        for t in range(1, 4):
            otz = gc.omega(gc.center(G), t)
            top = gc.join(otz, phi)
            want = greedy_oracle.elementary_quotient_basis(top, phi, otz.elements)
            assert ma.ElementaryQuotient(top, phi, rep_pool=otz.elements).basis == want


def test_elementary_quotient_pool_that_misses_the_quotient(groups):
    G = groups["D8xC4"]
    phi = gc.frattini(G)
    pool = phi.elements + (next(g for g in G.elements if g not in phi),)
    for build in (ma.ElementaryQuotient, greedy_oracle.elementary_quotient_basis):
        with pytest.raises(ValueError, match="pool does not generate the quotient"):
            build(G, phi, pool)


def _assert_quotient_coords_match_the_oracle(G):
    """For every pair K <= M of normal subgroups with M/K elementary
    abelian and the pools None, Omega_1(Z(G)), M reversed and G reversed
    (which holds elements outside M): the basis against the join loop and
    the coordinates of every element of M against the enumeration of all
    p^rank x |K| products in ``greedy_oracle``, and no coordinates for an
    element outside M or an index outside G."""
    normals = gc.normal_subgroups(G)
    torsion = gc.omega(gc.center(G), 1).elements
    for M in normals:
        phi = gc.frattini(M)
        outside = [-1, G.order] + [g for g in G.elements if g not in M][:: max(1, (G.order - M.order) // 3)]
        for K in normals:
            if not (M.contains_subgroup(K) and K.contains_subgroup(phi)):
                continue
            for pool in (None, torsion, tuple(reversed(M.elements)), tuple(reversed(G.elements))):
                where = (G.name, M.elements, K.elements, pool)
                try:
                    want = greedy_oracle.elementary_quotient_basis(M, K, pool)
                except ValueError:
                    with pytest.raises(ValueError, match="pool does not generate the quotient"):
                        ma.ElementaryQuotient(M, K, rep_pool=pool)
                    continue
                eq = ma.ElementaryQuotient(M, K, rep_pool=pool)
                assert eq.basis == want, where
                coords = greedy_oracle.elementary_quotient_coords(M, K, want)
                assert [eq.coords(x).tolist() for x in M.elements] == [list(coords[x]) for x in M.elements], where
                for x in outside:
                    with pytest.raises(KeyError):
                        eq.coords(x)


@settings(max_examples=100, deadline=None)
@given(G=consistent_groups(max_exponent=9, max_log=4))
def test_drawn_quotient_coords_match_the_oracle(G):
    _assert_quotient_coords_match_the_oracle(G)


@pytest.mark.parametrize("name", ["D8xC4xC2", "M27xC9"])
def test_relabeled_quotient_coords_match_the_oracle(name, groups):
    _assert_quotient_coords_match_the_oracle(_relabeled(groups[name]))


def test_class_and_center_spaces_match_elimination(algebras):
    # [kG, kG] and I(Z(G)) as partition spaces, against an elimination of
    # the difference rows they were built from
    for name, A in algebras.items():
        G = A.group
        eye = np.eye(A.dim, dtype=np.int64)
        cases = [
            (ma.commutator_subspace(A), [eye[x] - eye[c[0]] for c in G.conjugacy_classes() for x in c[1:]]),
            (ma.center_decomposition(A)[1], [eye[z] - eye[0] for z in gc.center(G).elements if z]),
        ]
        for space, rows in cases:
            basis, pivots = oracle_rref(np.array(rows, dtype=np.int64).reshape(-1, A.dim) % A.p, A.p)
            assert space.pivots == pivots and np.array_equal(space.basis, basis), name


# -- failed identity checks name the group and the dimensions ---------------


def test_failed_projection_check_names_group_and_dimensions(groups, monkeypatch):
    G = groups["D8"]
    A = ma.GroupAlgebra(G)
    wrong = ma.relative_augmentation_ideal(A, G)
    monkeypatch.setattr(ma, "relative_augmentation_ideal", lambda A, n_sub: wrong)
    with pytest.raises(gc.InternalCheckError) as info:
        ma.natural_projection(A, gc.center(G))
    assert str(info.value) == (
        "projection kernel != relative augmentation ideal on D8 mod |N| = 2: "
        "dim ker = 4, dim I(N)G = 7"
    )


def test_failed_center_decomposition_names_group_and_dimensions(groups, monkeypatch):
    G = groups["D8"]
    A = ma.GroupAlgebra(G)
    lhs, _, _ = ma.center_decomposition(A)
    zero = fl.zero_subspace(A.p, A.dim)
    monkeypatch.setattr(ma, "augmentation_span", lambda A, sub: zero)
    with pytest.raises(gc.InternalCheckError) as info:
        ma.center_decomposition(A)
    assert str(info.value) == (
        "center decomposition on D8 does not exhaust Z(kG) n I(G): the parts span dim 3 of dim 4"
    )
    monkeypatch.setattr(ma, "augmentation_span", lambda A, sub: lhs)
    with pytest.raises(gc.InternalCheckError) as info:
        ma.center_decomposition(A)
    assert str(info.value) == (
        "center decomposition on D8 is not direct: dim I(Z(G)) = 4, "
        "dim [kG,kG] n Z(kG) = 3, their meet has dim 3"
    )
    # the centralizer of one generator is more than the center
    burnside_basis = gc.burnside_basis
    monkeypatch.setattr(gc, "burnside_basis", lambda G: burnside_basis(G)[:1])
    with pytest.raises(gc.InternalCheckError) as info:
        ma.center_decomposition(ma.GroupAlgebra(G))
    assert str(info.value) == (
        "center of kG has dimension 6 on D8, not the number of conjugacy classes 5"
    )


def test_failed_layer_embedding_names_group_and_dimensions(groups, monkeypatch):
    A = ma.GroupAlgebra(groups["D8"])
    monkeypatch.setattr(fl, "kernel", lambda matrix, p: fl.full_subspace(p, matrix.shape[0]))
    with pytest.raises(gc.InternalCheckError) as info:
        ma.jennings_layer_embedding(A, 1)
    assert str(info.value) == (
        "Jennings layer embedding is not injective on D8 at n = 1 mod |N| = 1: rank 0 of domain rank 2"
    )


def test_failed_jennings_membership_names_group_and_orders(groups, monkeypatch):
    G = groups["D8"]
    A = ma.GroupAlgebra(G)
    # every g - 1 reads as a member of I^2
    monkeypatch.setattr(ma, "_one_minus_rows", lambda A: np.zeros((A.dim, A.dim), dtype=np.int64))
    with pytest.raises(gc.InternalCheckError) as info:
        ma.group_jennings_with_normal(A, G.trivial_subgroup(), 2)
    assert str(info.value) == (
        "(1 + I(N)G + I^n) n G != D_n(G)N on D8 at n = 2 mod |N| = 1: 8 elements, |D_n(G)N| = 2"
    )


def _fresh(name):
    # a group of its own, so a patched check leaves no entry in a shared memo
    return next(e for e in cat.builtin_catalog() if e.name == name).build()


def _new_coords_per_call():
    # a coordinate map that never answers twice alike: nothing is well defined
    counter = itertools.count()
    return lambda self, x: np.array([next(counter)])


def test_failed_power_map_checks_name_group_and_orders(monkeypatch):
    zero = lambda matrix, p: fl.zero_subspace(p, matrix.shape[1])  # noqa: E731
    with monkeypatch.context() as m:
        m.setattr(fl, "kernel", zero)
        with pytest.raises(gc.InternalCheckError) as info:
            ma.power_map_commutative(ma.GroupAlgebra(_fresh("C4xC2")), 1)
    assert str(info.value) == "p^1-power map kernel on C4xC2 != I(Omega_1)G, |Omega_1| = 4"
    rref = fl.rref
    with monkeypatch.context() as m:
        # the image hull is the one rref call that names no ambient dimension
        m.setattr(fl, "rref", lambda rows, p, n=None: zero(rows, p) if n is None else rref(rows, p, n))
        with pytest.raises(gc.InternalCheckError) as info:
            ma.power_map_commutative(ma.GroupAlgebra(_fresh("C4xC2")), 1)
    assert str(info.value) == "p^1-power map image hull on C4xC2 != span of Mho_1, |Mho_1| = 2"


def test_failed_quotient_checks_name_group_and_orders(monkeypatch):
    G = _fresh("C4xC2")
    whole, phi = G, gc.frattini(G)
    with monkeypatch.context() as m:
        # every power is the identity, so every coset rep is the identity
        m.setattr(gc.FiniteGroup, "power", lambda self, a, k: 0)
        with pytest.raises(gc.InternalCheckError) as info:
            ma.ElementaryQuotient(whole, phi)
    assert str(info.value) == "coset enumeration on C4xC2 collided: |M| = 8, |K| = 2"
    with monkeypatch.context() as m:
        m.setattr(ma.ElementaryQuotient, "coords", _new_coords_per_call())
        with pytest.raises(gc.InternalCheckError) as info:
            ma.power_quotient_map(_fresh("C4xC2"), 1)
    assert str(info.value) == (
        "graded power map x -> x^1 on C4xC2 is not well defined: |M| = 4, |K| = 2"
    )
    with monkeypatch.context() as m:
        m.setattr(ma.Subquotient, "coords", _new_coords_per_call())
        with pytest.raises(gc.InternalCheckError) as info:
            ma.ideal_power_quotient_map(ma.GroupAlgebra(_fresh("C4xC2")), 1)
    assert str(info.value) == "ideal power map v -> v^1 on C4xC2 is not well defined mod |N| = 2"


# -- one construction for each graded object ----------------------------------


def _graded_constructions(tree):
    """(function, what) for every I^n + I(N)G sum and every index into the
    product-formula Jennings series in a module, with names bound to such
    calls followed through plain assignments inside each function."""
    makers = {
        "_ideal_chain": "chain",
        "relative_augmentation_ideal": "rel",
        "jennings_series_product_formula": "formula",
    }

    def kind(node, bound):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "attr", getattr(sub.func, "id", None))
                if name in makers:
                    return makers[name]
        return None

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and kind(node.value, bound):
                    bound[target.id] = kind(node.value, bound)
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "sum"
                and node.args
                and {kind(node.func.value, bound), kind(node.args[0], bound)} == {"chain", "rel"}
            ):
                found.append((func.name, "I^n + I(N)G"))
            if isinstance(node, ast.Subscript) and kind(node.value, bound) == "formula":
                found.append((func.name, "D_n"))
    return found


def test_graded_objects_are_built_only_by_their_helpers():
    """I^n + I(N)G is summed only in ``_filtration`` and D_n is read off
    the product formula only in ``_jennings_term``."""
    tree = ast.parse(Path(ma.__file__).read_text())
    found = _graded_constructions(tree)
    assert ("_filtration", "I^n + I(N)G") in found
    assert ("_jennings_term", "D_n") in found
    assert {f for f, _ in found} <= {"_filtration", "_jennings_term"}, found
