import hashlib
import itertools
import json

import numpy as np
import pytest

from mipkit import canonical_invariants as ci
from mipkit import catalog as cat
from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit import modular_algebra as ma
import group_oracle
from iso_oracle import oracle_iso_search, oracle_iso_search_iter


def square_zero_count(A):
    """|{x in I(G) : x^2 = 0}| by brute force; an isomorphism invariant."""
    count = 0
    for bits in itertools.product(range(A.p), repeat=A.dim):
        v = np.array(bits, dtype=np.int64)
        if v.sum() % A.p:
            continue
        if not A.multiply_vec(v, v).any():
            count += 1
    return count


def is_group_induced(iso):
    return all(row.sum() == 1 for row in iso.matrix)


def exotic_automorphism(A):
    """First self-isomorphism whose generator images are not group elements."""
    for iso in ma.iso_search_iter(A, ma.GroupAlgebra(A.group)):
        if not is_group_induced(iso):
            return iso
    return None


def test_dihedral_vs_quaternion_algebras_are_not_isomorphic(algebras):
    # The complex group algebras of the two groups are isomorphic; the
    # modular ones are not.  The brute-force invariant below and the
    # exhaustive search agree, consistent with the known positive answer
    # of the isomorphism problem at order p^3.
    assert square_zero_count(algebras["D8"]) == 48
    assert square_zero_count(algebras["Q8"]) == 16
    assert ma.iso_search(algebras["D8"], algebras["Q8"]) is None


def test_cyclic8_vs_c4xc2_exhaustion(algebras):
    assert ma.iso_search(algebras["C8"], algebras["C4xC2"]) is None


def test_self_search_finds_identity_first(algebras):
    A = algebras["C4"]
    iso = ma.iso_search(A, ma.GroupAlgebra(A.group))
    assert iso is not None
    assert np.array_equal(iso.matrix, np.eye(4, dtype=np.int64))


def test_self_search_dihedral_identity_then_exotic(algebras):
    A = algebras["D8"]
    it = ma.iso_search_iter(A, ma.GroupAlgebra(A.group))
    first = next(it)
    assert np.array_equal(first.matrix, np.eye(8, dtype=np.int64))
    second = next(it)
    assert not is_group_induced(second)  # images involve proper algebra units


def test_witness_is_deterministic(algebras):
    a = ma.iso_search(algebras["D8"], ma.GroupAlgebra(algebras["D8"].group))
    b = ma.iso_search(algebras["D8"], ma.GroupAlgebra(algebras["D8"].group))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.generator_images == b.generator_images


def test_caps_enforced(algebras):
    with pytest.raises(gc.CapExceededError, match="^iso search capped at dimension 16$"):
        ma.iso_search(algebras["D8xC4"], algebras["Q8xC4"])  # dim 32 > 16
    heis = algebras["Heis27"]
    with pytest.raises(gc.CapExceededError, match="^iso search capped at dimension 16$"):
        ma.iso_search(heis, heis)  # dim 27 > 16, checked before its 3 generators
    # dim 16 passes, and D8xC2's presentation has 3 generators > 2
    with pytest.raises(gc.CapExceededError, match="^iso search capped at 2 generators$"):
        ma.iso_search(algebras["D8xC2"], algebras["Q8xC2"])


def test_mismatched_dimensions_exhaust_immediately(algebras):
    assert ma.iso_search(algebras["C4"], algebras["C8"]) is None


@pytest.fixture(scope="module")
def d8_exotic(algebras):
    iso = exotic_automorphism(algebras["D8"])
    assert iso is not None
    return iso


def test_canonical_ideals_fixed_by_exotic_automorphism(algebras, d8_exotic):
    # the executable transfer property: every catalog expression's relative
    # ideal is fixed setwise by a genuine non-group automorphism
    exprs = ci.generate_catalog(2, 2)
    results = ci.verify_canonical_images(d8_exotic, exprs)
    assert results and all(results.values())


def test_canonical_ideals_fixed_for_more_algebras(algebras):
    for name in ("Q8", "C4xC2"):
        iso = exotic_automorphism(algebras[name])
        if iso is None:
            continue
        results = ci.verify_canonical_images(iso, ci.generate_catalog(2, 2))
        assert results and all(results.values()), name


def test_extension_by_abelian_is_an_isomorphism(algebras, d8_exotic):
    ext, gp, hp = ma.extend_by_abelian(d8_exotic, gc.from_pc_presentation("p 2\ngens 1\norder 1 2\n", name="C2"))
    assert ext.source.dim == 16
    # AlgebraIso verified multiplicativity/bijectivity at construction;
    # additionally the canonical ideals stay fixed in dimension 16
    results = ci.verify_canonical_images(ext, ci.generate_catalog(2, 2))
    assert results and all(results.values())


def test_extension_to_dimension_32(algebras, d8_exotic):
    ext, gp, hp = ma.extend_by_abelian(d8_exotic, gc.from_pc_presentation("p 2\ngens 1\norder 1 4\n", name="C4"))
    assert ext.source.dim == 32
    exprs = ci.generate_catalog(1, 2)
    results = ci.verify_canonical_images(ext, exprs)
    assert results and all(results.values())


def test_complement_criterion_degenerate_factor(algebras):
    # a group with no abelian direct factor: J = I(1)G = 0, N = 1, L = G
    for name in ("D8", "Q8"):
        A = algebras[name]
        G = A.group
        report = ma.check_ideal_complement(
            A, fl.zero_subspace(A.p, A.dim), G.trivial_subgroup(), G
        )
        assert all(report.values()), (name, report)


def test_complement_criterion_through_extended_witness(algebras, d8_exotic):
    # G = D8 x C2 with N the C2 factor: the image of I(N)G under a genuine
    # dimension-16 isomorphism satisfies the complement criterion
    C2 = gc.from_pc_presentation("p 2\ngens 1\norder 1 2\n", name="C2")
    ext, gp, hp = ma.extend_by_abelian(d8_exotic, C2)
    emb_l, emb_n = gp.embeddings
    n_sub = group_oracle.image_subgroup(emb_n)
    l_sub = group_oracle.image_subgroup(emb_l)
    j = ext.apply_subspace(ma.relative_augmentation_ideal(ext.source, n_sub).space)
    emb_l_h, emb_n_h = hp.embeddings
    report = ma.check_ideal_complement(
        ext.target, j, group_oracle.image_subgroup(emb_n_h), group_oracle.image_subgroup(emb_l_h)
    )
    assert all(report.values()), report


def _swap_rows(m, g, h):
    m[[g, h]] = m[[h, g]]
    return m


def _add_row_zero(m, g):
    # an elementary row operation: bijective, but the augmentation of phi(g) drops by 1
    m[g] = (m[g] + m[0]) % 2
    return m


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda m: m[:, :-1].copy(), "isomorphism matrix has the wrong shape"),
        (lambda m: _add_row_zero(m, 3), "isomorphism does not preserve the augmentation"),
        (lambda m: _swap_rows(m, 0, 3), "isomorphism is not unital"),
        (lambda m: _swap_rows(m, 1, 2), "isomorphism is not multiplicative"),
    ],
    ids=["shape", "augmentation", "unital", "multiplicative"],
)
def test_algebra_iso_rejects_a_damaged_witness(algebras, damage, message):
    A = algebras["D8"]
    B = ma.GroupAlgebra(A.group)
    witness = ma.iso_search(A, B)
    bad = damage(witness.matrix.copy())
    assert fl.rref(bad, A.p).dim == min(bad.shape)  # full rank: no damage trips the bijectivity check
    with pytest.raises(ValueError, match=f"^{message}$"):
        ma.AlgebraIso(A, B, bad, witness.generator_images)


# -- the search order --------------------------------------------------------


def _int_to_vec(k, p, n):
    """Little-endian base-p digits of k: the encoding that orders candidates."""
    digits = np.zeros(n, dtype=np.int64)
    for i in range(n):
        digits[i] = k % p
        k //= p
    return digits


def _units_by_encoding(B):
    """1 + I(B) by filtering every integer below p^n: the oracle order."""
    vecs = (_int_to_vec(k, B.p, B.dim) for k in range(B.p**B.dim))
    return np.array([v for v in vecs if v.sum() % B.p == 1])


@pytest.mark.parametrize("name", ["C4", "C2xC2xC2", "D8", "C9", "C3xC3", "C5"])
def test_unit_candidates_in_encoding_order(algebras, name):
    if name == "C5":
        B = ma.GroupAlgebra(gc.from_pc_presentation("p 5\ngens 1\norder 1 5\n", name="C5"))
    else:
        B = algebras[name]
    units = ma._unit_candidates(B)
    assert units.shape == (B.p ** (B.dim - 1), B.dim)
    assert np.array_equal(units, _units_by_encoding(B))


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 4), (2, 8), (2, 16), (3, 3), (3, 9), (5, 5), (7, 7)])
def test_unit_candidates_come_out_in_encoding_order(p, n):
    # the algebra of the cyclic group of order n: every unit of augmentation
    # 1 once, and the little-endian encodings strictly increasing from the
    # identity e_0, the row the iso walk reads as its unit
    cyclic = (np.arange(n)[:, None] + np.arange(n)) % n
    units = ma._unit_candidates(ma.GroupAlgebra(gc.from_mul_table(cyclic))).astype(np.int64)
    assert units.shape == (p ** (n - 1), n)
    assert np.array_equal(units[0], np.eye(n, dtype=np.int64)[0])
    assert (units.sum(axis=1) % p == 1).all()
    assert (np.diff(units @ p ** np.arange(n)) > 0).all()


# SHA-256 of json.dumps([list of generator_images of every automorphism
# iso_search_iter yields, in order], separators=(",", ":")), recorded from the
# per-candidate search that re-derived every power and inverse.
_SELF_SEARCH_DIGESTS = {
    "D8": (512, "81b1692e66a57b3b5b70d46c0d1252bf695c8065b34b4f16533b9db9b2b1df80"),
    "Q8": (1536, "27fdf22c1b946029a47daa2d3e1f7dec6c7f1f22e6717eabd5b08afc874534c5"),
    "C4xC2": (2048, "2d680aeb6f2d5bfb8044f8e96d694e3fb7efe5ab11c7ed8d5dceacdfbf49e37e"),
}


@pytest.mark.parametrize("name", sorted(_SELF_SEARCH_DIGESTS))
def test_self_search_enumeration_is_pinned(algebras, name):
    A = algebras[name]
    images = [
        [list(u) for u in iso.generator_images]
        for iso in ma.iso_search_iter(A, ma.GroupAlgebra(A.group))
    ]
    digest = hashlib.sha256(json.dumps(images, separators=(",", ":")).encode()).hexdigest()
    assert (len(images), digest) == _SELF_SEARCH_DIGESTS[name]


def test_search_over_a_direct_product_reads_its_merged_presentation(groups, algebras):
    # C2 x C2 built as a product has the catalog C2xC2's presentation and
    # table, so the search maps the same generators to the same images
    product = ma.GroupAlgebra(gc.direct_product(groups["C2"], groups["C2"]))
    target = algebras["C2xC2"]
    images = [
        [iso.generator_images for iso in ma.iso_search_iter(source, target)]
        for source in (product, algebras["C2xC2"])
    ]
    assert images[0] and images[0] == images[1]


def test_search_from_a_group_without_presentation_raises(groups, algebras):
    G = groups["D8"]
    quotient, _ = gc.quotient(G, gc.center(G))  # C2 x C2
    subgroup, _ = group_oracle.as_group(G.subgroup((1,)))  # <g2> = C4
    # before the dimensions are compared: C8 has another
    for source, target in ((quotient, "C2xC2"), (subgroup, "C4"), (quotient, "C8")):
        with pytest.raises(gc.PresentationError, match="needs a power-commutator presentation"):
            ma.iso_search(ma.GroupAlgebra(source), algebras[target])


# -- against the search that checked relations through inverses --------------

_DIFFERENTIAL = ["C2", "C4", "C8", "C2xC2", "C4xC2", "D8", "Q8", "C3"]
_ORDERS = {entry.name: entry.expected["order"] for entry in cat.builtin_catalog()}


@pytest.mark.parametrize(
    "source,target",
    [(a, b) for a in _DIFFERENTIAL for b in _DIFFERENTIAL if _ORDERS[a] == _ORDERS[b]],
)
def test_search_matches_the_inverse_oracle(algebras, source, target):
    got = ma.iso_search(algebras[source], algebras[target])
    want = oracle_iso_search(algebras[source], algebras[target])
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert np.array_equal(got.matrix, want.matrix)
        assert got.generator_images == want.generator_images


def test_search_takes_no_inverse_power(algebras, monkeypatch):
    # relations are equations between positive words: the only powers are
    # the relative order 2 of g1, 4 of g2, and the word g2^2
    seen = set()
    power_vec = ma.GroupAlgebra.power_vec

    def spy(self, x, k):
        seen.add(k)
        return power_vec(self, x, k)

    monkeypatch.setattr(ma.GroupAlgebra, "power_vec", spy)
    assert ma.iso_search(algebras["D8"], algebras["Q8"]) is None
    assert seen == {2, 4}


def _product_shapes(monkeypatch, search, found=False):
    """The operand shapes of every ``multiply_vec`` call ``search()`` makes;
    the search finds an isomorphism exactly when ``found``."""
    shapes = []
    multiply_vec = ma.GroupAlgebra.multiply_vec

    def spy(self, x, y):
        shapes.append((x.shape, y.shape))
        return multiply_vec(self, x, y)

    monkeypatch.setattr(ma.GroupAlgebra, "multiply_vec", spy)
    assert (search() is not None) == found
    return shapes


def _left_rows(shapes) -> int:
    """The rows the products process, counted on their left operands: a
    block's leading dimension, one row for a single vector."""
    return sum(x[0] if len(x) > 1 else 1 for x, _ in shapes)


def test_relations_are_checked_on_candidate_blocks(algebras, monkeypatch):
    # one product per power step builds the tables for exponents 2 and 4
    # over all 128 units; then each of the 32 nodes whose pool survives
    # the two power relations checks g2 g1 = g1 g2 g2^2 on that pool in
    # three block products
    shapes = _product_shapes(
        monkeypatch, lambda: next(ma.iso_search_iter(algebras["Q8"], algebras["D8"]), None)
    )
    assert len(shapes) == 99
    assert shapes[:3] == [((128, 8), (128, 8))] * 3


def test_one_image_per_conjugacy_orbit_halves_the_checked_nodes(algebras, monkeypatch):
    # the same three table products, then 16 of those 32 nodes: the first
    # image is tried once per orbit of D8 acting by conjugation.  The rows
    # pin the second image too: each node's pool keeps the 8 candidates
    # that are least among their images by the first image's stabilizer
    # and pass the power relations, and checks g2 g1 = g1 g2 g2^2 in
    # products of 8, 1 and 8 rows: 3 * 128 + 16 * (8 + 1 + 8) = 656.  A
    # rule that skipped the first non-identity stabilizer row would keep
    # 16 candidates: 3 * 128 + 16 * 33 = 912.
    shapes = _product_shapes(monkeypatch, lambda: ma.iso_search(algebras["Q8"], algebras["D8"]))
    assert len(shapes) == 3 + 16 * 3
    assert shapes[:3] == [((128, 8), (128, 8))] * 3
    assert _left_rows(shapes) == 656


@pytest.mark.parametrize("name, pool, rows", [("Q8", 16, 432), ("D8", 32, 464)])
def test_a_self_search_checks_one_pool_per_orbit(algebras, monkeypatch, name, pool, rows):
    # H -> H: the three table products (3 * 128 rows); then the first
    # node's pool, the candidates that are least among their images by the
    # first image's stabilizer and pass the power relations (16 for Q8, 32
    # for D8), checks g2 g1 = g1 g2 g2^2 (both presentations' commutator)
    # in products of pool, 1 and pool rows and holds the first witness; its
    # matrix takes 7 one-row products, one per element after the identity,
    # and the multiplicativity check one product of 8 rows.  So
    # 3 * 128 + (2 * pool + 1) + 7 + 8 rows: 432 for Q8 and 464 for D8.  A
    # rule that skipped the first non-identity stabilizer row would double
    # the pool: 464 and 528.
    shapes = _product_shapes(monkeypatch, lambda: ma.iso_search(algebras[name], algebras[name]), found=True)
    assert shapes[3][0] == (pool, 8)
    assert _left_rows(shapes) == rows


_PASSMAN = [
    ("D16", "Q16"),
    ("Q16", "D16"),
    ("SD16", "Q16"),
    ("Q16", "SD16"),
    ("D16", "SD16"),
    ("SD16", "D16"),
]


@pytest.mark.parametrize("source,target", _PASSMAN)
def test_order_16_pairs_exhaust(algebras, source, target):
    # at order p^4 the group algebra determines the group (D. S. Passman,
    # Michigan Math. J. 12, 1965), so distinct groups admit no isomorphism
    assert ma.iso_search(algebras[source], algebras[target]) is None


# -- one image per conjugacy orbit --------------------------------------------

_SEARCHABLE = [
    entry.name
    for entry in cat.builtin_catalog()
    if len(gc.PcPresentation.parse(entry.presentation).rel_orders) <= ma.ISO_SEARCH_GEN_CAP
]
_ORBIT_PAIRS = [
    (a, b) for a in _SEARCHABLE for b in _SEARCHABLE if _ORDERS[a] == _ORDERS[b] <= 9
] + [(name, name) for name in _SEARCHABLE if _ORDERS[name] == 16]


def _encoding(u, p):
    return sum(int(c) * p**i for i, c in enumerate(u))


def _conjugate(H, h, u):
    """h u h^-1 on the group basis: the coefficient of x moves to h x h^-1."""
    v = [0] * H.order
    for x, c in enumerate(u):
        v[int(H.mul[H.mul[h, x], H.inv[h]])] = c
    return tuple(v)


@pytest.mark.parametrize("source,target", _ORBIT_PAIRS)
def test_orbit_search_finds_the_first_witness(algebras, source, target):
    # conjugation by H maps isomorphisms to isomorphisms, so trying one
    # image per orbit keeps the verdict and the first witness, and each of
    # its images is least among its conjugates by the h fixing the earlier
    # images
    A, B = algebras[source], algebras[target]
    got = ma.iso_search(A, B)
    want = next(ma.iso_search_iter(A, B), None)
    assert (got is None) == (want is None)
    if want is None:
        return
    assert np.array_equal(got.matrix, want.matrix)
    assert got.generator_images == want.generator_images
    H, images = B.group, got.generator_images
    for k, u in enumerate(images):
        for h in range(H.order):
            if all(_conjugate(H, h, w) == w for w in images[:k]):
                assert _encoding(_conjugate(H, h, u), B.p) >= _encoding(u, B.p), (k, h)


def _automorphisms(H):
    """Aut(H) by brute force, one row x -> a(x) each, sorted, so the
    identity's row comes first: every choice of images of the presentation's
    generators is spread over H by one walk of its table, and kept when the
    map is onto and a homomorphism on the whole table."""
    gens = gc._pcp_generator_indices(H.presentation)
    rows = []
    for images in itertools.product(range(H.order), repeat=len(gens)):
        a = np.full(H.order, -1)
        a[0] = 0
        reached = [0]
        for x in reached:  # grows as the walk reaches new elements
            for g, image in zip(gens, images):
                y = int(H.mul[x, g])
                if a[y] < 0:
                    a[y] = H.mul[a[x], image]
                    reached.append(y)
        if len(set(a.tolist())) == H.order and np.array_equal(a[H.mul], H.mul[a[:, None], a]):
            rows.append(a.tolist())
    return np.array(sorted(rows))


@pytest.mark.parametrize(
    "name,order",
    [("C2xC2", 6), ("Q8", 24), ("C3xC3", 48), ("D8", 8), ("C4xC2", 8), ("C8", 4), ("C4", 2)],
)
def test_orbit_rule_under_aut_h_keeps_the_first_witness(algebras, name, order):
    # every automorphism of H maps isomorphisms to isomorphisms, so the
    # walk may thin by all of Aut(H), but only by the automorphisms that
    # fix the images already chosen: on C2xC2, Q8 and C3xC3 a rule that
    # ignored the earlier images cut the first witness
    A = algebras[name]
    B = ma.GroupAlgebra(A.group)
    table = _automorphisms(B.group)
    assert len(table) == order
    assert np.array_equal(table[0], np.arange(B.dim))
    got = next(ma._iso_walk(A, B, table))
    want = oracle_iso_search(A, B)
    assert np.array_equal(got.matrix, want.matrix)
    assert got.generator_images == want.generator_images


# -- bijectivity decided in J/J^2 --------------------------------------------

_SMALL = [entry.name for entry in cat.builtin_catalog() if entry.expected["order"] <= 16]


@pytest.mark.parametrize("name", _SMALL)
def test_frattini_classes_are_the_coordinates_of_j_mod_j2(algebras, name):
    # row h of the classes and the J/J^2 coordinates of e_h - e_1 differ by
    # one invertible change of basis: both have rank dim J/J^2, and so does
    # the two side by side
    B = algebras[name]
    classes = ma._frattini_classes(B)
    layer = fl.Subquotient(ma._ideal_chain(B, 1), ma._ideal_chain(B, 2))
    coords = np.array([layer.coords(row) for row in ma._one_minus_rows(B)])
    d = layer.rank
    assert classes.shape == coords.shape == (B.dim, d)
    for mat in (classes, coords, np.hstack([classes, coords])):
        assert fl.rref(mat, B.p).dim == d


_EXHAUSTING = [("D8", "Q8"), ("Q8", "D8"), ("C8", "C4xC2"), ("C4xC2", "C8"), ("C9", "C3xC3")]


@pytest.mark.parametrize(
    "source,target", [(name, name) for name in ("D8", "Q8", "C4xC2", "C8")] + _EXHAUSTING
)
def test_every_witness_matches_the_inverse_oracle(algebras, source, target):
    # the J/J^2 prune cuts only subtrees holding no isomorphism: the whole
    # enumeration, not just its first witness, is the oracle's
    A, B = algebras[source], algebras[target]
    got = [(iso.matrix, iso.generator_images) for iso in ma.iso_search_iter(A, B)]
    want = [(iso.matrix, iso.generator_images) for iso in oracle_iso_search_iter(A, B)]
    assert len(got) == len(want)
    assert (len(got) == 0) == ((source, target) in _EXHAUSTING)
    for (got_matrix, got_images), (want_matrix, want_images) in zip(got, want):
        assert np.array_equal(got_matrix, want_matrix)
        assert got_images == want_images


@pytest.mark.parametrize("source,target", _EXHAUSTING)
def test_exhausting_search_builds_no_candidate_matrix(algebras, source, target, monkeypatch):
    # no tuple that satisfies the relations spans J/J^2, so none reaches
    # the isomorphism check
    built = []
    monkeypatch.setattr(ma.AlgebraIso, "__post_init__", lambda self: built.append(self))
    found = ma.iso_search(algebras[source], algebras[target])
    assert built == []
    assert found is None


@pytest.mark.parametrize("source,target", [("C9", "C3xC3"), ("C8", "C4xC2")])
def test_too_few_generators_exhaust_before_any_power(algebras, source, target, monkeypatch):
    # one generator cannot span a J/J^2 of dimension 2
    seen = []
    monkeypatch.setattr(ma.GroupAlgebra, "power_vec", lambda self, x, k: seen.append(k))
    assert ma.iso_search(algebras[source], algebras[target]) is None
    assert seen == []


def test_a_rejected_spanning_tuple_is_an_internal_error(algebras, monkeypatch):
    # a tuple spanning J/J^2 that fails the full check contradicts the
    # argument the prune rests on
    def reject(self):
        raise ValueError("isomorphism matrix is not bijective")

    monkeypatch.setattr(ma.AlgebraIso, "__post_init__", reject)
    with pytest.raises(gc.InternalCheckError, match="D8 -> D8.*not bijective"):
        ma.iso_search(algebras["D8"], ma.GroupAlgebra(algebras["D8"].group))
