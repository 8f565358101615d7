"""The group algebra F_pG as an explicit n-dimensional algebra.

Elements are coefficient row vectors indexed by group elements; the
structure constants are the multiplication table.  The module provides
augmentation and relative augmentation ideals, ideal powers, the
commutator subspace and algebra center, the Jennings series via ideal
membership, power maps between graded quotients, and a bounded
exhaustive search for explicit algebra isomorphisms of tiny algebras.

Products go through one left-translation table per algebra, row g of
``mul[inv]``, which maps y to g . y; xy is then a sum of translates of y,
one per nonzero coefficient of x: one integer matrix product with the
translates when y is one row, and row-wise over whole blocks otherwise.

Each object of the graded theory is made in one place: I(N)G in
``relative_augmentation_ideal`` (from N's coset labels in ``group_core``),
I^n in ``_ideal_chain`` (each term built once, up to the first zero
term), I^n + I(N)G in ``_filtration``, the Jennings term D_n(G), trivial
past the end of the series, in ``_jennings_term``, and the rows e_g - e_0
in ``_one_minus_rows``.

The graded pieces are M/K for normal K <= M with elementary abelian
quotient (``ElementaryQuotient``, whose coordinates are read off K's coset
labels in ``group_core``) and V/W for subspaces W <= V (``Subquotient``).
Every map between them, the group-side p^{t-1}-power map, the Jennings
layer embedding x |-> x - 1 and the algebra-side power map, is one
``GradedMap`` whose matrix ``_graded_map`` builds from the images of the
domain basis; for the two power maps it rechecks well-definedness from
a second representative of each basis class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fp_linalg as fl
from . import group_core as gc
from .fp_linalg import Subspace, Subquotient
from .group_core import (
    CapExceededError,
    FiniteGroup,
    InternalCheckError,
    NotNormalError,
    Subgroup,
)

ISO_SEARCH_DIM_CAP = 16
ISO_SEARCH_GEN_CAP = 2


class GroupAlgebra:
    """F_pG with basis indexed by the group elements."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.p = group.p
        self.dim = group.order
        self._cache: dict = {}
        # the narrowest integer type that holds a sum of dim products of
        # residues, so a product's sum is exact in it
        self._sum_dtype = np.min_scalar_type(-self.dim * (self.p - 1) ** 2)

    def __repr__(self) -> str:
        return f"GroupAlgebra(F_{self.p}[{self.group.name}], dim={self.dim})"

    # -- raw vector arithmetic -------------------------------------------------

    @gc._memo
    def _left_table(self) -> np.ndarray:
        """Row g is the left translation by g: (g . y) = y[table[g]]."""
        table = self.group.mul[self.group.inv]
        table.setflags(write=False)
        return table

    def multiply_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row-wise products of coefficient rows with entries in [0, p).
        Either factor may be one row or a block of rows; a single row
        broadcasts against a block.

        xy = sum over g of x[g] (g . y).  When y is one row that is x times
        the matrix of y's left translates, y[left], in one exact integer
        product; otherwise one left translation of every row of y per
        column g on which x is nonzero.  The result keeps the operands'
        dtype, so narrow blocks stay narrow.
        """
        left = self._left_table()
        acc = self._sum_dtype
        if y.ndim == 1:
            z = np.matmul(x, y[left], dtype=acc)
        else:
            z = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=acc)
            for g in np.flatnonzero(x.reshape(-1, self.dim).any(axis=0)):
                z += np.multiply(x[..., g, None], y[..., left[g]], dtype=acc)
        return (z % self.p).astype(np.result_type(x, y), copy=False)

    def power_vec(self, x: np.ndarray, k: int) -> np.ndarray:
        """x^k for one row or row-wise for a block of rows, k >= 0; x^0 is
        the identity in x's dtype."""
        if k < 0:
            raise ValueError("k must be >= 0")
        result = None
        base = x % self.p
        while k:
            if k & 1:
                result = base if result is None else self.multiply_vec(result, base)
            k >>= 1
            if k:
                base = self.multiply_vec(base, base)
        if result is None:
            result = np.zeros(x.shape, dtype=x.dtype)
            result[..., 0] = 1
        return result

    def translate_right(self, rows: np.ndarray, g: int) -> np.ndarray:
        """rows . g for a whole block of coefficient rows: (x . g) =
        x[mul[:, g^-1]]."""
        return rows[:, self.group.mul[:, self.group.inv[g]]]


@dataclass(frozen=True)
class AlgIdeal:
    """A two-sided ideal held as a subspace of the algebra."""

    algebra: GroupAlgebra
    space: Subspace

    def verify_two_sided(self) -> bool:
        """Exhaustive closure check under left/right basis translations."""
        A = self.algebra
        rows = self.space.basis
        for g in range(A.dim):
            if not self.space.contains_all(A.translate_right(rows, g)):
                return False
            if not self.space.contains_all(rows[:, A._left_table()[g]]):
                return False
        return True


# ---------------------------------------------------------------------------
# augmentation ideals and powers


def augmentation_ideal(A: GroupAlgebra) -> AlgIdeal:
    """I(G) = I(G)G, with the echelon basis e_i - e_{n-1}."""
    return relative_augmentation_ideal(A, A.group)


@gc._memo
def relative_augmentation_ideal(A: GroupAlgebra, n_sub: Subgroup) -> AlgIdeal:
    """I(N)G = span{(m-1)g}: the kernel of the projection onto F_p[G/N].

    Over any field, span{e_mg - e_g} for m in N is the set of vectors
    summing to zero on every right coset Ng: the partition space of N's
    coset labels (``Subgroup._coset_labels``), built without elimination.
    """
    if n_sub.parent is not A.group:
        raise ValueError("subgroup of a different group")
    if not n_sub.is_normal():
        raise NotNormalError("relative augmentation ideal needs a normal subgroup")
    return AlgIdeal(A, fl.partition_subspace(A.p, n_sub._coset_labels()))


def augmentation_span(A: GroupAlgebra, sub: Subgroup) -> Subspace:
    """span{ s - 1 : s in S } inside kG: the augmentation ideal of the
    embedded subalgebra kS (not the two-sided ideal I(S)G).

    It is the partition space of one block S and singletons elsewhere,
    for any subgroup S, normal or not.
    """
    if sub.parent is not A.group:
        raise ValueError("subgroup of a different group")
    labels = np.arange(A.dim)
    labels[list(sub.elements)] = 0
    return fl.partition_subspace(A.p, labels)


def left_multiplier_span(A: GroupAlgebra, n_sub: Subgroup, space: Subspace) -> Subspace:
    """span{ (m - 1) v } over m in N and v in a left-ideal subspace.

    Generators of N suffice: (m1 m2 - 1)v = (m1 - 1)(m2 v) + (m2 - 1)v and
    m2 v stays inside the space because it is a left ideal.
    """
    if n_sub.parent is not A.group:
        raise ValueError("subgroup of a different group")
    builder = fl.SubspaceBuilder(A.p, A.dim)
    for m in n_sub.generators:
        shifted = space.basis[:, A._left_table()[m]]
        builder.absorb((shifted - space.basis) % A.p)
    return builder.subspace()


@gc._memo
def _ideal_terms(A: GroupAlgebra) -> dict[int, Subspace]:
    """The terms I^0, I^1, ... of the chain filled so far, by exponent;
    ``_ideal_chain`` extends it in place."""
    return {0: fl.full_subspace(A.p, A.dim), 1: augmentation_ideal(A).space}


def _ideal_chain(A: GroupAlgebra, n: int) -> Subspace:
    """The subspace I(G)^n.

    Each step uses I^{k+1} = sum of I^k (g_j - 1) over a generating set,
    which equals I^k I(G) because I^k is a right ideal.  Each term is built
    once, from the highest one built so far, and the chain stops at its
    first zero term, which stands for every n past it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    terms = _ideal_terms(A)
    top = len(terms) - 1
    while top < n and terms[top].dim:
        prev = terms[top]
        builder = fl.SubspaceBuilder(A.p, A.dim)
        for g in gc.burnside_basis(A.group):
            builder.absorb((A.translate_right(prev.basis, g) - prev.basis) % A.p)
        top += 1
        terms[top] = builder.subspace()
    return terms[min(n, top)]


def _filtration(A: GroupAlgebra, n: int, n_sub: Subgroup) -> Subspace:
    """I(G)^n + I(N)G: the n-th term of the augmentation filtration of kG
    taken modulo I(N)G."""
    return _ideal_chain(A, n).sum(relative_augmentation_ideal(A, n_sub).space)


def subspace_product(A: GroupAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors of u and v."""
    builder = fl.SubspaceBuilder(A.p, A.dim)
    for x in u.basis:
        builder.absorb(A.multiply_vec(x, v.basis))  # x . every basis row of v
    return builder.subspace()


@gc._memo
def nilpotency_index(A: GroupAlgebra) -> int:
    """Least n with I(G)^n = 0."""
    n = 1
    while _ideal_chain(A, n).dim:
        n += 1
    return n


# ---------------------------------------------------------------------------
# Jennings series through the algebra


@gc._memo
def _one_minus_rows(A: GroupAlgebra) -> np.ndarray:
    """Row g is e_g - e_0 mod p, so row 0 is zero; built once per algebra
    and read-only."""
    rows = np.eye(A.dim, dtype=np.int64)
    rows[:, 0] -= 1
    rows %= A.p
    rows.setflags(write=False)
    return rows


def _jennings_term(G: FiniteGroup, n: int) -> Subgroup:
    """D_n(G) from the product formula; trivial past the end of the series."""
    if n < 1:
        raise ValueError("n must be >= 1")
    series = gc.jennings_series_product_formula(G)
    return series[n - 1] if n <= len(series) else G.trivial_subgroup()


@gc._memo
def jennings_by_ideal(A: GroupAlgebra) -> list[Subgroup]:
    """Dimension subgroups D_n = { g : g - 1 in I^n }, down to the first
    trivial one.

    Each term is ``group_jennings_with_normal`` with N = 1, which checks
    the membership set against the product formula's D_n, so each set is
    also checked to be a subgroup; disagreement raises loudly.
    """
    G = A.group
    depth = len(gc.jennings_series_product_formula(G))
    return [group_jennings_with_normal(A, G.trivial_subgroup(), n) for n in range(1, depth + 1)]


def loewy_layer_dims(A: GroupAlgebra) -> list[int]:
    """Dimensions of I^n / I^{n+1} down to zero."""
    return [_ideal_chain(A, n).dim - _ideal_chain(A, n + 1).dim for n in range(nilpotency_index(A))]


def jennings_poincare_layer_dims(G: FiniteGroup) -> list[int]:
    """Coefficients of prod_n (1 + x^n + ... + x^{(p-1)n})^{rank D_n/D_{n+1}}."""
    p = G.p
    series = gc.jennings_series_product_formula(G)
    poly = [1]
    for n, (d_n, d_n1) in enumerate(itertools.pairwise(series), start=1):
        rank = gc.log_p(d_n.order // d_n1.order, p)
        factor = [0] * ((p - 1) * n + 1)
        for k in range(p):
            factor[k * n] = 1
        for _ in range(rank):
            poly = np.convolve(poly, factor).tolist()
    return poly


# ---------------------------------------------------------------------------
# commutator subspace, center, projections


@gc._memo
def commutator_subspace(A: GroupAlgebra) -> Subspace:
    """[kG, kG]: spanned by the in-class differences x - y, so it is the
    partition space of the conjugacy classes."""
    labels = np.empty(A.dim, dtype=np.int64)
    for cls in A.group.conjugacy_classes():
        labels[list(cls)] = cls[0]  # classes are sorted orbits
    return fl.partition_subspace(A.p, labels)


@gc._memo
def algebra_center(A: GroupAlgebra) -> Subspace:
    """Solutions of xg = gx for a generating set; class sums as a basis."""
    n = A.dim
    eye = np.eye(n, dtype=np.int64)
    gens = gc.burnside_basis(A.group)
    if not gens:
        return fl.full_subspace(A.p, n)
    blocks = []
    for g in gens:
        r_mat = eye[A.group.mul[:, g]]
        l_mat = eye[A.group.mul[g, :]]
        blocks.append((r_mat - l_mat) % A.p)
    stacked = np.concatenate(blocks, axis=1)
    space = fl.kernel(stacked, A.p)
    classes = len(A.group.conjugacy_classes())
    if space.dim != classes:
        raise InternalCheckError(
            f"center of kG has dimension {space.dim} on {A.group.name}, "
            f"not the number of conjugacy classes {classes}"
        )
    return space


def center_decomposition(A: GroupAlgebra) -> tuple[Subspace, Subspace, Subspace]:
    """The decomposition Z(kG) n I(G) = I(Z(G)) (+) ([kG,kG] n Z(kG)).

    Returns (lhs, group_center_part, commutator_part) after verifying that
    the sum is direct and exhausts the left side.
    """
    zc = algebra_center(A)
    aug = augmentation_ideal(A).space
    lhs = zc.intersect(aug)
    part1 = augmentation_span(A, gc.center(A.group))
    part2 = commutator_subspace(A).intersect(zc)
    meet = part1.intersect(part2)
    if meet.dim != 0:
        raise InternalCheckError(
            f"center decomposition on {A.group.name} is not direct: "
            f"dim I(Z(G)) = {part1.dim}, dim [kG,kG] n Z(kG) = {part2.dim}, "
            f"their meet has dim {meet.dim}"
        )
    total = part1.sum(part2)
    if total != lhs:
        raise InternalCheckError(
            f"center decomposition on {A.group.name} does not exhaust Z(kG) n I(G): "
            f"the parts span dim {total.dim} of dim {lhs.dim}"
        )
    return lhs, part1, part2


@dataclass(frozen=True)
class AlgebraProjection:
    """The algebra map extending a group quotient projection."""

    source: GroupAlgebra
    target: GroupAlgebra
    matrix: np.ndarray
    hom: gc.GroupHom


def natural_projection(A: GroupAlgebra, n_sub: Subgroup) -> AlgebraProjection:
    """kG -> k(G/N), linear extension of g -> gN; kernel is I(N)G."""
    Q, hom = gc.quotient(A.group, n_sub)
    B = GroupAlgebra(Q)
    mat = np.zeros((A.dim, B.dim), dtype=np.int64)
    mat[np.arange(A.dim), hom.images] = 1
    ker = fl.kernel(mat, A.p)
    rel = relative_augmentation_ideal(A, n_sub).space
    if ker != rel:
        raise InternalCheckError(
            f"projection kernel != relative augmentation ideal on {A.group.name} "
            f"mod |N| = {n_sub.order}: dim ker = {ker.dim}, dim I(N)G = {rel.dim}"
        )
    return AlgebraProjection(A, B, mat, hom)


# ---------------------------------------------------------------------------
# the p^t-power map of a commutative algebra


@dataclass(frozen=True)
class CommutativePowerMap:
    """x -> x^{p^t} on F_pQ for abelian Q, as a matrix on the group basis."""

    algebra: GroupAlgebra
    t: int
    matrix: np.ndarray
    kernel: Subspace
    image_hull: Subspace


def power_map_commutative(A: GroupAlgebra, t: int) -> CommutativePowerMap:
    """Build the p^t-power map; only additive when the algebra is commutative.

    Its kernel is the ideal of the p^t-torsion subgroup and the linear hull
    of its image is the span of the subgroup of p^t-th powers; both are
    verified here rather than assumed.
    """
    G = A.group
    if not G.is_abelian:
        raise ValueError("the p^t-power map is only linear over an abelian group")
    if t < 1:
        raise ValueError("t must be >= 1")
    powmap = G.power_p_map(t)
    mat = np.zeros((A.dim, A.dim), dtype=np.int64)
    mat[np.arange(A.dim), powmap] = 1
    ker = fl.kernel(mat, A.p)
    omega = gc.omega(G, t)
    if ker != relative_augmentation_ideal(A, omega).space:
        raise InternalCheckError(f"p^{t}-power map kernel on {G.name} != I(Omega_{t})G, |Omega_{t}| = {omega.order}")
    # the hull is spanned by the unit rows of the image, so it is Mho_t's
    # span exactly when the image is Mho_t's element set
    mho = gc.agemo(G, t)
    if set(powmap.tolist()) != set(mho.elements):
        raise InternalCheckError(f"p^{t}-power map image hull on {G.name} != span of Mho_{t}, |Mho_{t}| = {mho.order}")
    hull = fl.rref(np.eye(A.dim, dtype=np.int64)[list(mho.elements)], A.p, A.dim)
    return CommutativePowerMap(A, t, mat, ker, hull)


# ---------------------------------------------------------------------------
# elementary abelian group quotients and the graded power maps


class ElementaryQuotient:
    """M/K for K normal in M with elementary abelian quotient.

    Fixes a deterministic basis of coset representatives (smallest parent
    index first, drawn from ``rep_pool`` when given) and supports exact
    coordinate lookups for every element of M.

    The representatives are the greedy ones: each pool element of M that
    lies outside K and the representatives before it.  That is the greedy
    witness of one Dimino walk (``gc._grow``) over K's generators and then
    the pool, less the witnesses that lie in K.

    Coordinates are read off K's coset labels (``Subgroup._coset_labels``):
    x has the digits (a_1, ..., a_r) of the one product b_1^{a_1} ... b_r^{a_r}
    of basis elements whose coset label is x's.
    """

    def __init__(self, m_sub: Subgroup, k_sub: Subgroup, rep_pool: Optional[Sequence[int]] = None):
        G = m_sub.parent
        p = G.p
        if any(q != p for q in gc.abelian_type(m_sub, k_sub).orders):
            raise ValueError("M/K is not of exponent p")
        self.group = G
        self.m_sub = m_sub
        self.k_sub = k_sub
        self.p = p
        rank = gc.log_p(m_sub.order // k_sub.order, p)
        self.rank = rank
        pool = m_sub.elements if rep_pool is None else [x for x in rep_pool if x in m_sub]
        walk = gc._grow(G, k_sub.generators + tuple(pool))[1]
        basis = [x for x in walk if x not in k_sub]
        if len(basis) != rank:
            raise ValueError("representative pool does not generate the quotient")
        self.basis = basis
        # the products in the order of their digit tuples, last digit fastest
        reps = np.zeros(1, dtype=np.int64)
        for b in basis:
            reps = G.mul[reps[:, None], [G.power(b, e) for e in range(p)]].ravel()
        self._labels = k_sub._coset_labels()
        self._digits = dict(zip(self._labels[reps].tolist(), itertools.product(range(p), repeat=rank)))
        if len(self._digits) != reps.size:
            raise InternalCheckError(
                f"coset enumeration on {G.name} collided: |M| = {m_sub.order}, |K| = {k_sub.order}"
            )

    def coords(self, x: int) -> np.ndarray:
        if x not in self.m_sub:  # the label array would also answer -1
            raise KeyError(x)
        return np.array(self._digits[int(self._labels[x])], dtype=np.int64)


@dataclass(frozen=True)
class GradedMap:
    """A linear map between graded pieces (``ElementaryQuotient`` or
    ``Subquotient``): row i of ``matrix`` is the codomain coordinates of
    the image of the domain's i-th basis element."""

    domain: ElementaryQuotient | Subquotient
    codomain: ElementaryQuotient | Subquotient
    matrix: np.ndarray

    def kernel(self) -> Subspace:
        return fl.kernel(self.matrix, self.domain.p)

    def rank(self) -> int:
        return self.domain.rank - self.kernel().dim

    def is_bijective(self) -> bool:
        return self.domain.rank == self.codomain.rank == self.rank()


def _graded_map(dom, cod, images, seconds=(), failure=None) -> GradedMap:
    """The map sending the domain's i-th basis element to ``images[i]``.
    ``seconds[i]``, where given, is the image of a second representative of
    the same class; other coordinates raise ``InternalCheckError(failure())``."""
    rows = [cod.coords(x) for x in images]
    for row, x in zip(rows, seconds):
        if not np.array_equal(cod.coords(x), row):
            raise InternalCheckError(failure())
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), cod.rank)
    return GradedMap(dom, cod, matrix)


@gc._memo
def power_quotient_map(G: Subgroup, t: int) -> GradedMap:
    """The p^{t-1} power map from the central p^t-torsion modulo Frattini
    into the graded piece of p^{t-1}-th powers modulo p^t-th powers, for G
    a group or a subgroup (computed in its parent's table).

    Domain: Omega_t(Z(G)) Phi(G) / Phi(G), with representatives drawn from
    Omega_t(Z(G)).  Codomain: Mho_{t-1}(G)G' / Mho_t(G)G'.  Well-definedness
    is rechecked from a second representative of every basis coset.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    P = G.parent
    otz = gc.omega(gc.center(G), t)
    phi = gc.frattini(G)
    dom = ElementaryQuotient(gc.join(otz, phi), phi, rep_pool=otz.elements)
    cod = ElementaryQuotient(gc.power_commutator(G, t - 1), gc.power_commutator(G, t))
    q = P.p ** (t - 1)
    power = P.power_p_map(t - 1)  # x -> x^q
    # the second representative of b Phi(G) is b k for one k in Phi(G)
    seconds = power[P.mul[dom.basis, phi.elements[1]]].tolist() if phi.order > 1 else []
    return _graded_map(
        dom, cod, power[dom.basis].tolist(), seconds,
        lambda: f"graded power map x -> x^{q} on {P.name} is not well defined: |M| = {dom.m_sub.order}, |K| = {phi.order}",
    )


# ---------------------------------------------------------------------------
# graded maps on the algebra side


def jennings_layer_embedding(A: GroupAlgebra, n: int, n_sub: Optional[Subgroup] = None) -> GradedMap:
    """The injective map D_n(G)N/D_{n+1}(G)N -> (I^n + I(N)G)/(I^{n+1} + I(N)G),
    x D_{n+1}N |-> (x - 1)."""
    G = A.group
    if n_sub is None:
        n_sub = G.trivial_subgroup()
    if not n_sub.is_normal():
        raise NotNormalError("layer embedding needs a normal subgroup")
    dom = ElementaryQuotient(
        gc.join(_jennings_term(G, n), n_sub), gc.join(_jennings_term(G, n + 1), n_sub)
    )
    cod = Subquotient(_filtration(A, n, n_sub), _filtration(A, n + 1, n_sub))
    emb = _graded_map(dom, cod, _one_minus_rows(A)[dom.basis])
    rank = emb.rank()
    if rank != dom.rank:
        raise InternalCheckError(
            f"Jennings layer embedding is not injective on {G.name} at n = {n} "
            f"mod |N| = {n_sub.order}: rank {rank} of domain rank {dom.rank}"
        )
    return emb


def ideal_power_quotient_map(A: GroupAlgebra, t: int) -> GradedMap:
    """The q-th power map I/I^2 -> (I^q + I(N)G)/(I^{q+1} + I(N)G),
    x + I^2 |-> x^q, q = p^{t-1}, N = Mho_t(G)G'.

    Additivity holds because the codomain absorbs I(N)G with G' <= N, and
    well-definedness is rechecked from shifted representatives.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    G = A.group
    q = A.p ** (t - 1)
    n_sub = gc.power_commutator(G, t)
    shift = _ideal_chain(A, 2)
    dom = Subquotient(_ideal_chain(A, 1), shift)
    cod = Subquotient(_filtration(A, q, n_sub), _filtration(A, q + 1, n_sub))
    seconds = A.power_vec((dom.basis_rows + shift.basis[0]) % A.p, q) if shift.dim else []
    return _graded_map(
        dom, cod, A.power_vec(dom.basis_rows, q), seconds,
        lambda: f"ideal power map v -> v^{q} on {G.name} is not well defined mod |N| = {n_sub.order}",
    )


def power_diagram_commutes(A: GroupAlgebra, t: int) -> bool:
    """Elementwise commutativity of the square linking the group-side and
    algebra-side q-th power maps through the layer embeddings.

    For every x in Omega_t(Z(G))Phi(G) the cosets of x^q - 1 and (x-1)^q
    agree modulo I^{q+1} + I(Mho_t(G)G')G: one membership check of the
    block of differences.  In characteristic p, (x - 1)^q = x^q - 1
    exactly; the content of the square is that both power maps are well
    defined, which the two map builders check.
    """
    G = A.group
    q = A.p ** (t - 1)
    xs = list(power_quotient_map(G, t).domain.m_sub.elements)
    one_minus = _one_minus_rows(A)
    power = G.power_p_map(t - 1)  # x -> x^q
    diffs = (one_minus[power[xs]] - A.power_vec(one_minus[xs], q)) % A.p
    return _filtration(A, q + 1, gc.power_commutator(G, t)).contains_all(diffs)


def group_jennings_with_normal(A: GroupAlgebra, n_sub: Subgroup, n: int) -> Subgroup:
    """(1 + I(N)G + I(G)^n) intersected with G; checked to equal D_n(G)N."""
    G = A.group
    if not n_sub.is_normal():
        raise NotNormalError("needs a normal subgroup")
    residual = _filtration(A, n, n_sub).reduce_rows(_one_minus_rows(A))
    members = np.flatnonzero(~residual.any(axis=1)).tolist()
    expected = gc.join(_jennings_term(G, n), n_sub)
    if set(members) != set(expected.elements):
        raise InternalCheckError(
            f"(1 + I(N)G + I^n) n G != D_n(G)N on {G.name} at n = {n} "
            f"mod |N| = {n_sub.order}: {len(members)} elements, |D_n(G)N| = {expected.order}"
        )
    return expected


# ---------------------------------------------------------------------------
# explicit isomorphism search for tiny algebras


@dataclass(frozen=True)
class AlgebraIso:
    """An explicit algebra isomorphism phi: kG -> kH on the group basis.

    ``matrix`` row g is the coefficient vector of phi(g); the map is
    verified to be multiplicative, unital, bijective and augmentation
    preserving at construction.
    """

    source: GroupAlgebra
    target: GroupAlgebra
    matrix: np.ndarray
    generator_images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        self.matrix.setflags(write=False)
        A, B, M = self.source, self.target, self.matrix
        if M.shape != (A.dim, B.dim) or A.dim != B.dim:
            raise ValueError("isomorphism matrix has the wrong shape")
        if fl.rref(M, A.p).dim != A.dim:
            raise ValueError("isomorphism matrix is not bijective")
        if (M.sum(axis=1) % A.p != 1).any():
            raise ValueError("isomorphism does not preserve the augmentation")
        if not np.array_equal(M[0], np.eye(A.dim, dtype=np.int64)[0]):
            raise ValueError("isomorphism is not unital")
        # entry (g, h): phi(g) phi(h) against phi(gh), in one block product
        if not np.array_equal(B.multiply_vec(M[:, None], M[None]), M[A.group.mul]):
            raise ValueError("isomorphism is not multiplicative")

    def apply_subspace(self, space: Subspace) -> Subspace:
        return fl.rref((space.basis @ self.matrix) % self.source.p, self.source.p)


def _unit_candidates(B: GroupAlgebra) -> np.ndarray:
    """All of 1 + I(B), one row each, ordered by the little-endian integer
    encoding of the coefficient vector.

    Row k holds k's base-p digits in coefficients 1..n-1, and coefficient 0
    is the one that makes the augmentation 1, so the row encodes u_0 + p k:
    the rows come out in encoding order.
    """
    p, n = B.p, B.dim
    count = p ** (n - 1)
    units = np.empty((count, n), dtype=np.int8)
    k = np.arange(count)
    for i in range(1, n):
        units[:, i] = k % p
        k //= p
    units[:, 0] = (1 - units[:, 1:].sum(axis=1)) % p
    return units


def _frattini_classes(B: GroupAlgebra) -> np.ndarray:
    """Row h is the class of e_h - e_1 in J/J^2, J = I(B), as the
    coordinates of h Phi(H) in H/Phi(H) (Jennings: J/J^2 = H/Phi(H) (x) F_p
    with h - 1 |-> h Phi(H)).  The class of a unit u of augmentation 1 is
    then ``u @ classes``, since u - 1 = sum over h of u_h (e_h - e_1)."""
    H = B.group
    quotient = ElementaryQuotient(H, gc.frattini(H))
    return np.array([quotient.coords(h) for h in range(B.dim)])


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row as one opaque byte string, so that two rows of the same
    dtype compare in one comparison: a block gives one entry per row, a
    single row a 0-d array."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[-1] * rows.itemsize)))[..., 0]


def iso_search_iter(A: GroupAlgebra, B: GroupAlgebra):
    """All augmentation-preserving isomorphisms kG -> kH, lazily.

    Enumerates tuples of units in 1 + I(B) as images of the generators of
    ``G.presentation``, keeps the tuples satisfying the presentation relations
    (any unital algebra map out of kG is determined by such images, since
    kG is the free algebra modulo the relation ideal), and yields each
    tuple whose induced basis map is bijective.  Deterministic: candidates
    are ordered by their little-endian integer encoding, so the tuples come
    in lexicographic order of their images' encodings.

    Bijectivity is decided in J/J^2, J = I(B).  A tuple satisfying the
    relations induces a unital map kG -> kH with image k + T, T the
    non-unital algebra generated by the u_i - 1.  J is nilpotent, so
    T + J^2 = J forces T = J: the map is onto, hence bijective, exactly
    when the classes of the u_i - 1 span J/J^2, of dimension d(H).  A
    prefix of k images whose classes have rank r is extended only while
    r + (d - k) >= d(H), so every tuple that reaches the end is an
    isomorphism and only subtrees holding none are cut.
    """
    yield from _iso_walk(A, B, np.arange(B.dim)[None])


def iso_search(A: GroupAlgebra, B: GroupAlgebra) -> Optional[AlgebraIso]:
    """The first isomorphism ``iso_search_iter`` yields, or None when there
    is none, from a walk that tries one image per orbit of the inner
    automorphisms x |-> h x h^-1 of H: one row per distinct map (h and hz,
    z central, share one), so an abelian H has the identity's row alone."""
    H = B.group
    moves = H.mul[H.mul, H.inv[:, None]]  # row h: x -> h x h^-1
    inner = np.array(list(dict.fromkeys(map(tuple, moves.tolist()))))
    return next(_iso_walk(A, B, inner), None)


def _iso_walk(A: GroupAlgebra, B: GroupAlgebra, automorphisms: np.ndarray):
    """The depth-first walk of ``iso_search_iter``, trying one image per
    orbit of the prefix's stabilizer in a table of automorphisms of H.

    Row a of ``automorphisms`` is a permutation of H's basis induced by an
    automorphism of H, the identity's row first: it moves the coefficient
    of x to a(x), an augmentation-preserving automorphism of kH.  It maps
    J to J and J^2 to J^2, so it sends a tuple satisfying the relations to
    another one and a tuple spanning J/J^2 to another one: it maps
    isomorphisms to isomorphisms.  The first isomorphism W = (w_1, ...,
    w_d) is the lexicographically least, so each w_k is least in encoding
    order among its images a(w_k) by the rows a that fix w_1, ...,
    w_{k-1}: otherwise a(W) would be a smaller isomorphism.  The walk keeps
    only candidates with that property.  It visits some of the tuples the
    identity's row alone visits, in the same order, W among them whenever
    an isomorphism exists: the verdict and the first witness are the same.
    """
    presentation = A.group.presentation
    if presentation is None:
        raise gc.PresentationError(
            f"iso search needs a power-commutator presentation for {A.group.name}, not a multiplication table"
        )
    if A.dim != B.dim:
        return
    if A.dim > ISO_SEARCH_DIM_CAP:
        raise CapExceededError(f"iso search capped at dimension {ISO_SEARCH_DIM_CAP}")
    d = len(presentation.rel_orders)
    if d > ISO_SEARCH_GEN_CAP:
        raise CapExceededError(f"iso search capped at {ISO_SEARCH_GEN_CAP} generators")
    frattini_classes = _frattini_classes(B)
    d_h = frattini_classes.shape[1]
    if d < d_h:
        return  # d images span at most d dimensions of J/J^2

    # Every relation is an equation between positive words: g_i^{m_i} = w,
    # and [g_j, g_i] = w as g_j g_i = g_i g_j w.  Each is filed under the
    # last generator it involves and checked when that generator's image is
    # chosen: for a fixed prefix of images it is a row-wise equation in the
    # new image, checked once over the whole pool of candidates.
    radices = presentation.rel_orders
    relations = [(((i, radices[i]),), presentation.power_word(i)) for i in range(d)]
    relations += [
        (((j, 1), (i, 1)), ((i, 1), (j, 1)) + presentation.comm_word(j, i))
        for j in range(d)
        for i in range(j)
    ]
    checks: list[list] = [[] for _ in range(d)]
    for lhs, rhs in relations:
        checks[max(g for g, _ in lhs + rhs)].append((lhs, rhs))

    # Candidates are row indices into one unit table.  Row u of the table
    # for exponent e is u^e: one block power over every unit for each
    # exponent the relations use, kept in the unit table's narrow dtype.
    units = _unit_candidates(B)
    one = units[0]  # the unit of encoding 1
    # row u of ``classes`` is the class of unit u in J/J^2
    classes = units @ frattini_classes % B.p
    powers = {1: units}
    for e in sorted({e for lhs, rhs in relations for _, e in lhs + rhs} - {1}):
        powers[e] = B.power_vec(units, e)

    def value(word, trial: list) -> np.ndarray:
        # the word's value as row bytes; trial[g] picks the image of g_g: a
        # unit index gives one row, the pool being checked one row per unit.
        # Bytes, not encodings acc @ weights: a view costs no arithmetic, and
        # that product was half of Q16 -> D16's exhaustion time (cProfile).
        acc = one
        for g, e in word:
            factor = np.take(powers[e], trial[g], axis=0)
            acc = factor if acc is one else B.multiply_vec(acc, factor)
        return _row_bytes(acc)

    # One walk of G's table from the identity reaches each element y once,
    # as y = x g_i with x reached before it: row y of a candidate's matrix
    # is row x times the image of g_i.
    mul = A.group.mul
    gens = gc._pcp_generator_indices(presentation)
    reached, steps = [0], []
    for x in reached:  # grows as the walk reaches new elements
        for i, g in enumerate(gens):
            y = int(mul[x, g])
            if y not in reached:
                reached.append(y)
                steps.append((y, x, i))

    def build_iso(images: list[np.ndarray]) -> AlgebraIso:
        matrix = np.zeros((A.dim, B.dim), dtype=np.int64)
        matrix[0] = one
        for y, x, i in steps:
            matrix[y] = B.multiply_vec(matrix[x], images[i])
        try:
            return AlgebraIso(A, B, matrix, tuple(tuple(u.tolist()) for u in images))
        except ValueError as exc:
            raise InternalCheckError(
                f"iso search {A.group.name} -> {B.group.name}: images spanning J/J^2 "
                f"gave no isomorphism ({exc})"
            ) from exc

    # codes[u, a] is the encoding of a(u), u @ weights[a], in the narrowest
    # unsigned type that holds an encoding: a fixes u iff codes[u, a] == codes[u, 0].
    weights = B.p ** np.arange(B.dim, dtype=np.min_scalar_type(B.p**B.dim - 1))
    codes = units.view(np.uint8) @ weights[automorphisms].T

    def least(pool: np.ndarray, images: list[int]) -> np.ndarray:
        # the candidates least in encoding order among their images by the
        # rows other than the identity's that fix every chosen image
        for a in np.flatnonzero((codes[images] == codes[images, :1]).all(axis=0))[1:]:
            pool = pool[codes[pool, 0] <= codes[pool, a]]
        return pool

    # The units that may follow a prefix depend only on its class rows.
    spanning: dict[bytes, np.ndarray] = {}

    def spanning_pool(prefix: np.ndarray) -> np.ndarray:
        key = prefix.tobytes()
        if key not in spanning:
            pool = np.arange(len(units))
            span = fl.rref(prefix, B.p, d_h)
            if span.dim + d - len(prefix) == d_h:  # no slack: u must leave the span
                pool = np.flatnonzero(span.reduce_rows(classes).any(axis=1))
            spanning[key] = pool
        return spanning[key]

    def extend(images: list[int]):
        # depth-first over generator positions, candidates in encoding order
        if len(images) == d:
            yield build_iso([units[u].astype(np.int64) for u in images])
            return
        level = len(images)
        pool = least(spanning_pool(classes[images]), images)
        for lhs, rhs in checks[level]:
            if not pool.size:
                return
            trial = images + [pool]
            pool = pool[value(lhs, trial) == value(rhs, trial)]
        for u in pool.tolist():
            yield from extend(images + [u])

    yield from extend([])


def extend_by_abelian(
    iso: AlgebraIso, abelian: FiniteGroup
) -> tuple[AlgebraIso, FiniteGroup, FiniteGroup]:
    """Tensor an isomorphism kG -> kH with the identity of kC, C abelian.

    Returns the extended isomorphism k(GxC) -> k(HxC) plus the two product
    groups (built with the canonical row-major index pairing).
    """
    g_prod = gc.direct_product(iso.source.group, abelian)
    h_prod = gc.direct_product(iso.target.group, abelian)
    m = abelian.order
    matrix = np.kron(iso.matrix, np.eye(m, dtype=np.int64))
    gen_images = tuple()
    extended = AlgebraIso(GroupAlgebra(g_prod), GroupAlgebra(h_prod), matrix, gen_images)
    return extended, g_prod, h_prod


# ---------------------------------------------------------------------------
# direct-sum complement criterion for ideals


def check_ideal_complement(
    A: GroupAlgebra, j_space: Subspace, n_sub: Subgroup, l_sub: Subgroup
) -> dict[str, bool]:
    """For G = N x L and an ideal J: codim J = |L| together with
    J + I^2 = I(N)G + I^2 forces kG = J (+) kL.  Returns the individual
    verdicts so tests can assert hypotheses and conclusion separately.
    """
    G = A.group
    report = {}
    inter = gc.intersect_subgroups(n_sub, l_sub)
    prod_ok = (
        n_sub.is_normal()
        and l_sub.is_normal()
        and inter.is_trivial()
        and n_sub.order * l_sub.order == G.order
    )
    report["is_direct_product"] = prod_ok
    report["j_is_ideal"] = AlgIdeal(A, j_space).verify_two_sided()
    report["codim_matches"] = A.dim - j_space.dim == l_sub.order
    report["degree_one_matches"] = j_space.sum(_ideal_chain(A, 2)) == _filtration(A, 2, n_sub)
    kl_rows = np.eye(A.dim, dtype=np.int64)[list(l_sub.elements)]
    kl = fl.rref(kl_rows, A.p, A.dim)
    report["conclusion_direct_sum"] = (
        j_space.intersect(kl).dim == 0 and j_space.sum(kl).dim == A.dim
    )
    return report
