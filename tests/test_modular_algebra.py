import numpy as np
import pytest

from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit import modular_algebra as ma


def one_minus(A, g):
    v = np.zeros(A.dim, dtype=np.int64)
    v[g] += 1
    v[0] -= 1
    return A.element(v % A.p)


def test_basis_multiplication_and_inverses(algebras):
    A = algebras["D8"]
    G = A.group
    for g in range(G.order):
        prod = A.basis_element(g) * A.basis_element(G.inv_elem(g))
        assert prod == A.one()


def test_square_of_generator_minus_one_in_cyclic_4(algebras):
    A = algebras["C4"]
    x = one_minus(A, 1)
    sq = x * x
    # (a-1)^2 = a^2 - 2a + 1 = a^2 + 1 over F_2
    assert sq.coeffs.tolist() == [1, 0, 1, 0]


def test_augmentation_is_multiplicative(algebras):
    rng = np.random.default_rng(23)
    for name in ("D8", "C9xC3", "M16"):
        A = algebras[name]
        for _ in range(20):
            x = A.element(rng.integers(0, A.p, size=A.dim))
            y = A.element(rng.integers(0, A.p, size=A.dim))
            assert (x * y).augmentation() == (x.augmentation() * y.augmentation()) % A.p


def test_relative_augmentation_ideal_extremes(algebras):
    A = algebras["D8"]
    G = A.group
    assert ma.relative_augmentation_ideal(A, G.trivial_subgroup()).dim == 0
    assert ma.relative_augmentation_ideal(A, G.full_subgroup()).space == ma.augmentation_ideal(A).space


def test_relative_augmentation_ideal_center_of_dihedral(algebras):
    A = algebras["D8"]
    rel = ma.relative_augmentation_ideal(A, gc.center(A.group))
    assert rel.dim == 8 - 4


def test_relative_ideal_requires_normal(algebras):
    A = algebras["D8"]
    with pytest.raises(gc.NotNormalError):
        ma.relative_augmentation_ideal(A, A.group.subgroup((4,)))


def test_relative_ideal_closed_form_matches_elimination(groups, algebras):
    # the echelon basis {e_g - e_last(C)} against an elimination of the
    # spanning set {e_mg - e_g} over the generators m of N
    for name, G in groups.items():
        A = algebras[name]
        eye = np.eye(G.order, dtype=np.int64)
        for N in gc.normal_subgroups(G):
            space = ma.relative_augmentation_ideal(A, N).space
            if N.order == 1:
                assert space.dim == 0
                continue
            blocks = [eye[G.mul[m, :]] - eye for m in N.generators]
            basis, pivots = fl._rref(np.concatenate(blocks) % G.p, G.p)
            assert space.pivots == pivots, (name, N.order)
            assert np.array_equal(space.basis, basis), (name, N.order)


def test_relative_ideal_rejects_generators_of_a_proper_subgroup(groups):
    G = groups["D8xC4"]
    N = gc.center(G)
    cyclic = G.subgroup((max(N.elements, key=G.element_order),))
    assert cyclic.order < N.order
    # N's element set with a generator tuple that closes to less than N
    fake = gc.Subgroup(G, N.elements, cyclic.generators)
    with pytest.raises(gc.InternalCheckError):
        ma.relative_augmentation_ideal(ma.GroupAlgebra(G), fake)


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


def test_first_power_is_the_ideal(algebras):
    A = algebras["Q8"]
    i1 = ma.ideal_power(ma.augmentation_ideal(A), 1)
    assert i1.space == ma.augmentation_ideal(A).space


def test_ideal_power_via_products_matches_chain(algebras):
    for name in ("D8", "C8", "Heis27"):
        A = algebras[name]
        aug = ma.augmentation_ideal(A)
        sq = ma.ideal_product(aug, aug)
        assert sq.space == ma._ideal_chain(A, 2)
        cube = ma.ideal_product(sq, aug)
        assert cube.space == ma._ideal_chain(A, 3)


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
    proj = ma.natural_projection(A, G.full_subgroup())
    assert proj.target.dim == 1  # the augmentation map onto F_p
    x = np.arange(A.dim) % A.p
    assert proj.apply_vec(x)[0] == x.sum() % A.p


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


def test_layer_embedding_injective_and_psi1_bijective(small_groups):
    for name, G in small_groups.items():
        if G.order == 1:
            continue
        A = ma.GroupAlgebra(G)
        emb = ma.jennings_layer_embedding(A, 1)
        assert emb.is_bijective(), name
        assert emb.domain.rank == gc.min_generators(G)


def test_layer_embedding_with_normal_part(algebras):
    A = algebras["D8"]
    z = gc.center(A.group)
    emb = ma.jennings_layer_embedding(A, 2, z)
    assert fl.image(emb.matrix, 2).dim == emb.domain.rank


def test_ideal_power_quotient_map_well_defined(algebras):
    for name in ("D8", "Q8", "C8", "M16"):
        A = algebras[name]
        for t in (1, 2):
            lam = ma.ideal_power_quotient_map(A, t)
            assert lam.matrix.shape[0] == lam.domain.rank


def test_power_diagram_commutes_on_small_catalog(small_groups):
    for name, G in small_groups.items():
        if G.order == 1:
            continue
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
            lam_ker_image = fl.image(
                (lam.kernel().basis @ emb) % A.p, A.p
            ) if lam.kernel().dim else fl.zero_subspace(A.p, psi1.rank)
            domain_image = fl.image(emb, A.p)
            big_ker_restricted = domain_image.intersect(big.kernel())
            assert lam_ker_image == big_ker_restricted, (name, t)


def test_group_jennings_with_normal_examples(algebras):
    A = algebras["D8"]
    G = A.group
    d3 = ma.group_jennings_with_normal(A, G.trivial_subgroup(), 3)
    assert d3.is_trivial()
    whole = ma.group_jennings_with_normal(A, G.full_subgroup(), 3)
    assert whole.is_whole_group()
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


def test_product_ideal_direct_sum(groups):
    # I(G)^n = I(N) I(G)^{n-1} (+) I(L)^n for G = N x L
    for a_name, b_name in (("D8", "C2"), ("C4", "C2"), ("Q8", "C4")):
        prod = gc.direct_product(groups[a_name], groups[b_name])
        A = ma.GroupAlgebra(prod)
        emb_n, emb_l = prod.embeddings
        n_sub = emb_n.image_subgroup()
        l_sub = emb_l.image_subgroup()
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
        l_sub = emb_l.image_subgroup()
        n_sub = emb_n.image_subgroup()
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
    assert ma.augmentation_ideal(A).dim == 0
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
    assert ma.relative_augmentation_ideal(A, gc.center(A.group)).dim == 4
    # same element indices, other parent: a cached answer must not leak out
    with pytest.raises(ValueError, match="different group"):
        ma.relative_augmentation_ideal(A, gc.center(cat.build("Q8")))
