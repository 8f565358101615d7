"""The group algebra F_pG as an explicit n-dimensional algebra.

Elements are coefficient row vectors indexed by group elements; the
structure constants are the multiplication table.  The module provides
augmentation and relative augmentation ideals, ideal powers, the
commutator subspace and algebra center, the Jennings series via ideal
membership, power maps between graded quotients, and a bounded
exhaustive search for explicit algebra isomorphisms of tiny algebras.
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

    def __repr__(self) -> str:
        return f"GroupAlgebra(F_{self.p}[{self.group.name}], dim={self.dim})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupAlgebra) and self.group is other.group

    def __hash__(self) -> int:
        return hash(id(self.group))

    # -- elements ------------------------------------------------------------

    def zero(self) -> "AlgElement":
        return AlgElement(self, np.zeros(self.dim, dtype=np.int64))

    def one(self) -> "AlgElement":
        return self.basis_element(0)

    def basis_element(self, g: int) -> "AlgElement":
        v = np.zeros(self.dim, dtype=np.int64)
        v[g] = 1
        return AlgElement(self, v)

    def element(self, coeffs) -> "AlgElement":
        return AlgElement(self, fl.as_vector(coeffs, self.p, self.dim))

    # -- raw vector arithmetic -------------------------------------------------

    def _left_perm(self, g: int) -> np.ndarray:
        # (g . y) = y[mul[g^-1, :]]
        return self.group.mul[self.group.inv[g], :]

    def _right_perm(self, g: int) -> np.ndarray:
        # (x . g) = x[mul[:, g^-1]]
        return self.group.mul[:, self.group.inv[g]]

    def multiply_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = np.zeros(self.dim, dtype=np.int64)
        for g in np.nonzero(x)[0]:
            z += x[g] * y[self._left_perm(int(g))]
        return z % self.p

    def power_vec(self, x: np.ndarray, k: int) -> np.ndarray:
        result = np.zeros(self.dim, dtype=np.int64)
        result[0] = 1
        base = x % self.p
        while k:
            if k & 1:
                result = self.multiply_vec(result, base)
            base = self.multiply_vec(base, base)
            k >>= 1
        return result

    def augmentation_vec(self, x: np.ndarray) -> int:
        return int(x.sum() % self.p)

    def translate_right(self, rows: np.ndarray, g: int) -> np.ndarray:
        """rows . g for a whole block of coefficient rows."""
        return rows[:, self._right_perm(g)]

    def translate_left(self, rows: np.ndarray, g: int) -> np.ndarray:
        return rows[:, self._left_perm(g)]


@dataclass(frozen=True)
class AlgElement:
    """An element of a group algebra: a coefficient vector mod p."""

    algebra: GroupAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def _check(self, other: "AlgElement") -> None:
        if self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(self.algebra, (self.coeffs + other.coeffs) % self.algebra.p)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(self.algebra, (self.coeffs - other.coeffs) % self.algebra.p)

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        return AlgElement(
            self.algebra, self.algebra.multiply_vec(self.coeffs, other.coeffs)
        )

    def __pow__(self, k: int) -> "AlgElement":
        return AlgElement(self.algebra, self.algebra.power_vec(self.coeffs, k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.algebra == other.algebra and np.array_equal(self.coeffs, other.coeffs)

    def augmentation(self) -> int:
        return self.algebra.augmentation_vec(self.coeffs)


def augmentation(x: AlgElement) -> int:
    return x.augmentation()


@dataclass(frozen=True)
class AlgIdeal:
    """A two-sided ideal held as a subspace of the algebra."""

    algebra: GroupAlgebra
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def verify_two_sided(self) -> bool:
        """Exhaustive closure check under left/right basis translations."""
        A = self.algebra
        rows = self.space.basis
        for g in range(A.dim):
            if not self.space.contains_all(A.translate_right(rows, g)):
                return False
            if not self.space.contains_all(A.translate_left(rows, g)):
                return False
        return True


# ---------------------------------------------------------------------------
# augmentation ideals and powers


def augmentation_ideal(A: GroupAlgebra) -> AlgIdeal:
    """I(G) = I(G)G, with the echelon basis e_i - e_{n-1}."""
    return relative_augmentation_ideal(A, A.group.full_subgroup())


def relative_augmentation_ideal(A: GroupAlgebra, n_sub: Subgroup) -> AlgIdeal:
    """I(N)G = span{(m-1)g}: the kernel of the projection onto F_p[G/N].

    Over any field, span{e_mg - e_g} for m in the generators of N is the
    set of vectors summing to zero on every orbit C of <gens> acting on G
    by left multiplication.  Its reduced echelon basis is therefore
    {e_g - e_last(C)} over g != last(C), with last(C) the highest index in
    C.  The orbits are derived from the generators, so the check that they
    are the |G:N| cosets of N re-derives dim I(N)G = n - n/|N|.
    """
    if n_sub.parent is not A.group:
        raise ValueError("subgroup of a different group")
    if not n_sub.is_normal():
        raise NotNormalError("relative augmentation ideal needs a normal subgroup")
    return _orbit_ideal(A, n_sub)


@gc._memo
def _orbit_ideal(A: GroupAlgebra, n_sub: Subgroup) -> AlgIdeal:
    n = A.dim
    gens = n_sub.generators or tuple(g for g in n_sub.elements if g)
    # min-label propagation: every g ends labelled by its orbit's least index
    idx = np.arange(n)
    label = idx
    while True:
        prev = label
        for m in gens:
            label = np.minimum(label, label[A.group.mul[m, :]])
        if np.array_equal(label, prev):
            break
    roots = np.nonzero(label == idx)[0]
    sizes = np.bincount(label)[roots]
    if roots.size != n // n_sub.order or (sizes != n_sub.order).any():
        raise InternalCheckError(
            f"generators of a normal subgroup of order {n_sub.order} have "
            f"{roots.size} orbits of sizes {sorted(set(sizes.tolist()))} "
            f"on {A.group.name}, expected {n // n_sub.order} of size {n_sub.order}"
        )
    last = np.zeros(n, dtype=np.int64)
    np.maximum.at(last, label, idx)
    last = last[label]
    rows = np.nonzero(last != idx)[0]
    basis = np.zeros((rows.size, n), dtype=np.int64)
    basis[np.arange(rows.size), rows] = 1
    basis[np.arange(rows.size), last[rows]] = A.p - 1
    return AlgIdeal(A, Subspace(A.p, n, basis, tuple(rows.tolist())))


def augmentation_span(A: GroupAlgebra, sub: Subgroup) -> Subspace:
    """span{ s - 1 : s in S } inside kG: the augmentation ideal of the
    embedded subalgebra kS (not the two-sided ideal I(S)G)."""
    rows = []
    eye = np.eye(A.dim, dtype=np.int64)
    for s in sub.elements:
        if s:
            rows.append((eye[s] - eye[0]) % A.p)
    if not rows:
        return fl.zero_subspace(A.p, A.dim)
    return fl.rref(np.array(rows), A.p, A.dim)


def left_multiplier_span(A: GroupAlgebra, n_sub: Subgroup, space: Subspace) -> Subspace:
    """span{ (m - 1) v } over m in N and v in a left-ideal subspace.

    Generators of N suffice: (m1 m2 - 1)v = (m1 - 1)(m2 v) + (m2 - 1)v and
    m2 v stays inside the space because it is a left ideal.
    """
    if space.dim == 0 or n_sub.order == 1:
        return fl.zero_subspace(A.p, A.dim)
    builder = fl.SubspaceBuilder(A.p, A.dim)
    gens = n_sub.generators or tuple(g for g in n_sub.elements if g)
    for m in gens:
        shifted = space.basis[:, A._left_perm(m)]
        builder.absorb((shifted - space.basis) % A.p)
    return builder.subspace()


def _ideal_chain(A: GroupAlgebra, n: int) -> Subspace:
    """The subspace I(G)^n, computed incrementally and cached.

    Each step uses I^{k+1} = sum of I^k (g_j - 1) over a generating set,
    which equals I^k I(G) because I^k is a right ideal.
    """
    chain: list[Subspace] = A._cache.setdefault("ideal_chain", [])
    if not chain:
        chain.append(fl.full_subspace(A.p, A.dim))
        chain.append(augmentation_ideal(A).space)
    gens = gc.burnside_basis(A.group)
    while len(chain) <= n:
        prev = chain[-1]
        if prev.dim == 0:
            chain.append(prev)
            continue
        builder = fl.SubspaceBuilder(A.p, A.dim)
        for g in gens:
            builder.absorb((A.translate_right(prev.basis, g) - prev.basis) % A.p)
        chain.append(builder.subspace())
    return chain[n]


def ideal_power(ideal: AlgIdeal, n: int) -> AlgIdeal:
    """I^n by iterated products; the augmentation ideal uses a cached chain."""
    A = ideal.algebra
    if n < 0:
        raise ValueError("n must be >= 0")
    if ideal == augmentation_ideal(A):
        return AlgIdeal(A, _ideal_chain(A, n))
    if n == 0:
        return AlgIdeal(A, fl.full_subspace(A.p, A.dim))
    result = ideal
    for _ in range(n - 1):
        result = ideal_product(result, ideal)
    return result


def subspace_product(A: GroupAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors of u and v."""
    if u.dim == 0 or v.dim == 0:
        return fl.zero_subspace(A.p, A.dim)
    builder = fl.SubspaceBuilder(A.p, A.dim)
    vb = v.basis
    for x in u.basis:
        # x . (every basis row of v) at once
        acc = np.zeros_like(vb)
        for g in np.nonzero(x)[0]:
            acc += x[g] * vb[:, A._left_perm(int(g))]
        builder.absorb(acc % A.p)
    return builder.subspace()


def ideal_product(i: AlgIdeal, j: AlgIdeal) -> AlgIdeal:
    if i.algebra != j.algebra:
        raise ValueError("ideals of different algebras")
    return AlgIdeal(i.algebra, subspace_product(i.algebra, i.space, j.space))


@gc._memo
def nilpotency_index(A: GroupAlgebra) -> int:
    """Least n with I(G)^n = 0."""
    n = 1
    while _ideal_chain(A, n).dim:
        n += 1
    return n


# ---------------------------------------------------------------------------
# Jennings series through the algebra


def _one_minus_rows(A: GroupAlgebra) -> np.ndarray:
    eye = np.eye(A.dim, dtype=np.int64)
    rows = eye.copy()
    rows[:, 0] -= 1
    return rows % A.p


@gc._memo
def jennings_by_ideal(A: GroupAlgebra) -> list[Subgroup]:
    """Dimension subgroups D_n = { g : g - 1 in I^n }.

    The result is checked, term by term, against the product-formula
    computation on the group side; disagreement raises loudly.
    """
    G = A.group
    rows = _one_minus_rows(A)
    series: list[Subgroup] = []
    n = 1
    while True:
        space = _ideal_chain(A, n)
        residual = space.reduce_rows(rows)
        members = [g for g in range(A.dim) if not residual[g].any()]
        sub = G.subgroup(gc._reduce_generators(G, members))
        if set(sub.elements) != set(members):
            raise InternalCheckError("ideal-membership set is not a subgroup")
        series.append(sub)
        if sub.is_trivial():
            break
        n += 1
    formula = gc.jennings_series_product_formula(G)
    if [s.elements for s in series] != [s.elements for s in formula]:
        raise InternalCheckError(
            "ideal-membership Jennings series disagrees with the product formula"
        )
    return series


def loewy_layer_dims(A: GroupAlgebra) -> list[int]:
    """Dimensions of I^n / I^{n+1} down to zero."""
    dims = []
    n = 0
    while True:
        d = _ideal_chain(A, n).dim - _ideal_chain(A, n + 1).dim
        dims.append(d)
        if _ideal_chain(A, n + 1).dim == 0:
            break
        n += 1
    return dims


def jennings_poincare_layer_dims(G: FiniteGroup) -> list[int]:
    """Coefficients of prod_n (1 + x^n + ... + x^{(p-1)n})^{rank D_n/D_{n+1}}."""
    p = G.p
    series = gc.jennings_series_product_formula(G)
    poly = [1]
    for i in range(len(series) - 1):
        n = i + 1
        rank = gc.log_p(series[i].order // series[i + 1].order, p)
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
    """[kG, kG]: spanned by the in-class differences x - rep(class of x)."""
    n = A.dim
    rows = []
    for cls in A.group.conjugacy_classes():
        rep = cls[0]
        for x in cls[1:]:
            row = np.zeros(n, dtype=np.int64)
            row[x] += 1
            row[rep] -= 1
            rows.append(row % A.p)
    return fl.rref(rows, A.p, n)


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
    if space.dim != len(A.group.conjugacy_classes()):
        raise InternalCheckError("center dimension != number of conjugacy classes")
    return space


def center_decomposition(A: GroupAlgebra) -> tuple[Subspace, Subspace, Subspace]:
    """The decomposition Z(kG) n I(G) = I(Z(G)) (+) ([kG,kG] n Z(kG)).

    Returns (lhs, group_center_part, commutator_part) after verifying that
    the sum is direct and exhausts the left side.
    """
    zc = algebra_center(A)
    aug = augmentation_ideal(A).space
    lhs = zc.intersect(aug)
    z_sub = gc.center(A.group)
    rows = []
    for z in z_sub.elements:
        if z:
            row = np.zeros(A.dim, dtype=np.int64)
            row[z] += 1
            row[0] -= 1
            rows.append(row % A.p)
    part1 = fl.rref(rows, A.p, A.dim) if rows else fl.zero_subspace(A.p, A.dim)
    part2 = commutator_subspace(A).intersect(zc)
    if part1.intersect(part2).dim != 0:
        raise InternalCheckError("center decomposition is not direct")
    if part1.sum(part2) != lhs:
        raise InternalCheckError("center decomposition does not exhaust Z(kG) n I(G)")
    return lhs, part1, part2


@dataclass(frozen=True)
class AlgebraProjection:
    """The algebra map extending a group quotient projection."""

    source: GroupAlgebra
    target: GroupAlgebra
    matrix: np.ndarray
    hom: gc.GroupHom

    def apply_vec(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.matrix) % self.source.p


def natural_projection(A: GroupAlgebra, n_sub: Subgroup) -> AlgebraProjection:
    """kG -> k(G/N), linear extension of g -> gN; kernel is I(N)G."""
    Q, hom = gc.quotient(A.group, n_sub)
    B = GroupAlgebra(Q)
    mat = np.zeros((A.dim, B.dim), dtype=np.int64)
    mat[np.arange(A.dim), hom.images] = 1
    ker = fl.kernel(mat, A.p)
    if ker != relative_augmentation_ideal(A, n_sub).space:
        raise InternalCheckError("projection kernel != relative augmentation ideal")
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
    expected_ker = relative_augmentation_ideal(A, gc.omega(G, t)).space
    if ker != expected_ker:
        raise InternalCheckError("power map kernel != ideal of the torsion subgroup")
    hull = fl.image(mat, A.p)
    mho = gc.agemo(G, t)
    expected_rows = np.eye(A.dim, dtype=np.int64)[list(mho.elements)]
    if hull != fl.rref(expected_rows, A.p, A.dim):
        raise InternalCheckError("power map image hull != span of the power subgroup")
    return CommutativePowerMap(A, t, mat, ker, hull)


# ---------------------------------------------------------------------------
# elementary abelian group quotients and the graded power maps


class ElementaryQuotient:
    """M/K for K normal in M with elementary abelian quotient.

    Fixes a deterministic basis of coset representatives (smallest parent
    index first, drawn from ``rep_pool`` when given) and supports exact
    coordinate lookups for every element of M.
    """

    def __init__(self, m_sub: Subgroup, k_sub: Subgroup, rep_pool: Optional[Sequence[int]] = None):
        if m_sub.parent is not k_sub.parent:
            raise ValueError("subgroups of different parents")
        if not m_sub.contains_subgroup(k_sub):
            raise ValueError("K must be contained in M")
        G = m_sub.parent
        p = G.p
        for k in k_sub.generators or k_sub.elements:
            for m in m_sub.generators or m_sub.elements:
                if G.conjugate(k, m) not in k_sub:
                    raise NotNormalError("K is not normal in M")
        for a in m_sub.generators or m_sub.elements:
            if G.power(a, p) not in k_sub:
                raise ValueError("M/K is not of exponent p")
            for b in m_sub.generators or m_sub.elements:
                if G.commutator(a, b) not in k_sub:
                    raise ValueError("M/K is not abelian")
        self.group = G
        self.m_sub = m_sub
        self.k_sub = k_sub
        self.p = p
        rank = gc.log_p(m_sub.order // k_sub.order, p)
        self.rank = rank
        pool = list(rep_pool) if rep_pool is not None else list(m_sub.elements)
        basis: list[int] = []
        current = k_sub
        for x in pool:
            if len(basis) == rank:
                break
            if x in m_sub and x not in current:
                basis.append(x)
                current = gc.join(current, G.subgroup((x,)))
        if len(basis) != rank:
            raise ValueError("representative pool does not generate the quotient")
        self.basis = basis
        coords: dict[int, tuple[int, ...]] = {}
        for tup in itertools.product(range(p), repeat=rank):
            rep = 0
            for b, e in zip(basis, tup):
                rep = G.mul_elems(rep, G.power(b, e))
            for k in k_sub.elements:
                elem = G.mul_elems(rep, k)
                if elem in coords:
                    raise InternalCheckError("coset enumeration produced a collision")
                coords[elem] = tup
        if len(coords) != m_sub.order:
            raise InternalCheckError("coset enumeration did not cover M")
        self._coords = coords

    def coords(self, x: int) -> np.ndarray:
        return np.array(self._coords[x], dtype=np.int64)

    def rep(self, coords) -> int:
        c = fl.as_vector(coords, self.p, self.rank)
        rep = 0
        for b, e in zip(self.basis, c):
            rep = self.group.mul_elems(rep, self.group.power(b, int(e)))
        return rep

    def coset_min_rep(self, x: int, within: Optional[frozenset] = None) -> int:
        """Smallest element of xK, optionally restricted to a subset."""
        members = [self.group.mul_elems(x, k) for k in self.k_sub.elements]
        if within is not None:
            members = [m for m in members if m in within]
        return min(members)


@dataclass(frozen=True)
class GradedPowerMap:
    """A linear map between elementary abelian quotients given by x -> x^q."""

    domain: ElementaryQuotient
    codomain: ElementaryQuotient
    q: int
    matrix: np.ndarray

    def kernel(self) -> Subspace:
        return fl.kernel(self.matrix, self.domain.p)

    def rank(self) -> int:
        return self.domain.rank - self.kernel().dim


@gc._memo
def power_quotient_map(G: FiniteGroup, t: int) -> GradedPowerMap:
    """The p^{t-1} power map from the central p^t-torsion modulo Frattini
    into the graded piece of p^{t-1}-th powers modulo p^t-th powers.

    Domain: Omega_t(Z(G)) Phi(G) / Phi(G), with representatives drawn from
    Omega_t(Z(G)).  Codomain: Mho_{t-1}(G)G' / Mho_t(G)G'.  Well-definedness
    is rechecked from a second representative of every basis coset.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    p = G.p
    z = gc.center(G)
    otz = gc.omega(z, t)
    phi = gc.frattini(G)
    derived = gc.commutator_subgroup(G)
    dom = ElementaryQuotient(gc.join(otz, phi), phi, rep_pool=otz.elements)
    top = gc.join(gc.agemo(G, t - 1), derived)
    bottom = gc.join(gc.agemo(G, t), derived)
    cod = ElementaryQuotient(top, bottom)
    q = p ** (t - 1)
    rows = []
    for b in dom.basis:
        rows.append(cod.coords(G.power(b, q)))
        if dom.k_sub.order > 1:
            k = dom.k_sub.elements[1]
            second = G.mul_elems(b, k)
            if not np.array_equal(cod.coords(G.power(second, q)), rows[-1]):
                raise InternalCheckError("graded power map is not well defined")
    matrix = (
        np.array(rows, dtype=np.int64)
        if rows
        else np.zeros((0, cod.rank), dtype=np.int64)
    )
    return GradedPowerMap(dom, cod, q, matrix)


# ---------------------------------------------------------------------------
# graded maps on the algebra side


@dataclass(frozen=True)
class LayerEmbedding:
    """x D_{n+1}N |-> (x - 1) from a Jennings layer into a graded quotient."""

    algebra: GroupAlgebra
    n: int
    normal: Subgroup
    domain: ElementaryQuotient
    codomain: Subquotient
    matrix: np.ndarray

    def is_bijective(self) -> bool:
        return (
            self.domain.rank == self.codomain.rank
            and fl.image(self.matrix, self.algebra.p).dim == self.domain.rank
        )


def jennings_layer_embedding(A: GroupAlgebra, n: int, n_sub: Optional[Subgroup] = None) -> LayerEmbedding:
    """The injective map D_n(G)N/D_{n+1}(G)N -> (I^n + I(N)G)/(I^{n+1} + I(N)G)."""
    G = A.group
    if n_sub is None:
        n_sub = G.trivial_subgroup()
    if not n_sub.is_normal():
        raise NotNormalError("layer embedding needs a normal subgroup")
    series = gc.jennings_series_product_formula(G)
    d_n = series[n - 1] if n - 1 < len(series) else G.trivial_subgroup()
    d_n1 = series[n] if n < len(series) else G.trivial_subgroup()
    dom = ElementaryQuotient(gc.join(d_n, n_sub), gc.join(d_n1, n_sub))
    rel = relative_augmentation_ideal(A, n_sub).space
    top = _ideal_chain(A, n).sum(rel)
    bottom = _ideal_chain(A, n + 1).sum(rel)
    cod = Subquotient(top, bottom)
    rows = []
    for b in dom.basis:
        vec = np.zeros(A.dim, dtype=np.int64)
        vec[b] += 1
        vec[0] -= 1
        rows.append(cod.coords(vec % A.p))
    matrix = np.array(rows, dtype=np.int64) if rows else np.zeros((0, cod.rank), dtype=np.int64)
    emb = LayerEmbedding(A, n, n_sub, dom, cod, matrix)
    if fl.image(matrix, A.p).dim != dom.rank:
        raise InternalCheckError("Jennings layer embedding is not injective")
    return emb


@dataclass(frozen=True)
class IdealPowerMap:
    """x + I^2 |-> x^q + (I^{q+1} + I(N)G), q = p^{t-1}, N = Mho_t(G)G'."""

    algebra: GroupAlgebra
    t: int
    domain: Subquotient
    codomain: Subquotient
    matrix: np.ndarray

    def kernel(self) -> Subspace:
        return fl.kernel(self.matrix, self.algebra.p)


def ideal_power_quotient_map(A: GroupAlgebra, t: int) -> IdealPowerMap:
    """The q-th power map I/I^2 -> (I^q + I(N)G)/(I^{q+1} + I(N)G).

    Additivity holds because the codomain absorbs I(N)G with G' <= N, and
    well-definedness is rechecked from shifted representatives.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    G = A.group
    p = A.p
    q = p ** (t - 1)
    n_sub = gc.join(gc.agemo(G, t), gc.commutator_subgroup(G))
    rel = relative_augmentation_ideal(A, n_sub).space
    dom = Subquotient(_ideal_chain(A, 1), _ideal_chain(A, 2))
    cod = Subquotient(_ideal_chain(A, q).sum(rel), _ideal_chain(A, q + 1).sum(rel))
    rows = []
    shift = _ideal_chain(A, 2)
    for v in dom.basis_rows:
        img = A.power_vec(v, q)
        rows.append(cod.coords(img))
        if shift.dim:
            v2 = (v + shift.basis[0]) % p
            if not np.array_equal(cod.coords(A.power_vec(v2, q)), rows[-1]):
                raise InternalCheckError("ideal power map is not well defined")
    matrix = np.array(rows, dtype=np.int64) if rows else np.zeros((0, cod.rank), dtype=np.int64)
    return IdealPowerMap(A, t, dom, cod, matrix)


def power_diagram_commutes(A: GroupAlgebra, t: int) -> bool:
    """Elementwise commutativity of the square linking the group-side and
    algebra-side q-th power maps through the layer embeddings.

    For every x in Omega_t(Z(G))Phi(G) the cosets of x^q - 1 and (x-1)^q
    agree modulo I^{q+1} + I(Mho_t(G)G')G.
    """
    G = A.group
    p = A.p
    q = p ** (t - 1)
    lam = power_quotient_map(G, t)
    n_sub = gc.join(gc.agemo(G, t), gc.commutator_subgroup(G))
    psi = jennings_layer_embedding(A, q, n_sub)
    cod = psi.codomain
    for x in lam.domain.m_sub.elements:
        left = np.zeros(A.dim, dtype=np.int64)
        left[G.power(x, q)] += 1
        left[0] -= 1
        one_minus = np.zeros(A.dim, dtype=np.int64)
        one_minus[x] += 1
        one_minus[0] -= 1
        right = A.power_vec(one_minus % p, q)
        if not np.array_equal(cod.coords(left % p), cod.coords(right)):
            return False
    return True


def group_jennings_with_normal(A: GroupAlgebra, n_sub: Subgroup, n: int) -> Subgroup:
    """(1 + I(N)G + I(G)^n) intersected with G; checked to equal D_n(G)N."""
    G = A.group
    if not n_sub.is_normal():
        raise NotNormalError("needs a normal subgroup")
    rel = relative_augmentation_ideal(A, n_sub).space
    space = _ideal_chain(A, n).sum(rel)
    residual = space.reduce_rows(_one_minus_rows(A))
    members = [g for g in range(A.dim) if not residual[g].any()]
    series = gc.jennings_series_product_formula(G)
    d_n = series[n - 1] if n - 1 < len(series) else G.trivial_subgroup()
    expected = gc.join(d_n, n_sub)
    if set(members) != set(expected.elements):
        raise InternalCheckError("(1 + I(N)G + I^n) n G != D_n(G)N")
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
        for g in range(A.dim):
            for h in range(A.dim):
                lhs = B.multiply_vec(M[g], M[h])
                if not np.array_equal(lhs, M[A.group.mul[g, h]]):
                    raise ValueError("isomorphism is not multiplicative")

    def apply_subspace(self, space: Subspace) -> Subspace:
        if space.dim == 0:
            return fl.zero_subspace(self.target.p, self.target.dim)
        return fl.rref((space.basis @ self.matrix) % self.source.p, self.source.p)


def _int_to_vec(k: int, p: int, n: int) -> np.ndarray:
    digits = np.zeros(n, dtype=np.int64)
    for i in range(n):
        digits[i] = k % p
        k //= p
    return digits


def _unit_candidates(B: GroupAlgebra) -> list[np.ndarray]:
    """All of 1 + I(B), ordered by the little-endian integer encoding."""
    out = []
    for k in range(B.p**B.dim):
        v = _int_to_vec(k, B.p, B.dim)
        if B.augmentation_vec(v) == 1:
            out.append(v)
    return out


def _vec_inverse(B: GroupAlgebra, u: np.ndarray) -> np.ndarray:
    # units of augmentation 1 have p-power order since I(B) is nilpotent
    nil = nilpotency_index(B)
    k = 1
    while B.p**k < nil:
        k += 1
    return B.power_vec(u, B.p**k - 1)


def iso_search_iter(
    A: GroupAlgebra,
    B: GroupAlgebra,
    presentation: Optional[gc.PcPresentation] = None,
):
    """All augmentation-preserving isomorphisms kG -> kH, lazily.

    Enumerates tuples of units in 1 + I(B) as images of the presentation
    generators of G, keeps the tuples satisfying the presentation relations
    (any unital algebra map out of kG is determined by such images, since
    kG is the free algebra modulo the relation ideal), and yields each
    tuple whose induced basis map is bijective.  Deterministic: candidates
    are ordered by their little-endian integer encoding.
    """
    if A.dim != B.dim:
        return
    if A.dim > ISO_SEARCH_DIM_CAP:
        raise CapExceededError(f"iso search capped at dimension {ISO_SEARCH_DIM_CAP}")
    if presentation is None:
        text = A.group.provenance.get("pcp")
        if text is None:
            raise ValueError("iso search needs a power-commutator presentation")
        presentation = gc.PcPresentation.parse(text)
    d = len(presentation.rel_orders)
    if d > ISO_SEARCH_GEN_CAP:
        raise CapExceededError(f"iso search capped at {ISO_SEARCH_GEN_CAP} generators")
    gen_indices = A.group.provenance.get("gen_indices") or gc._pcp_generator_indices(presentation)

    units = _unit_candidates(B)

    def eval_word(word, images) -> np.ndarray:
        acc = np.zeros(B.dim, dtype=np.int64)
        acc[0] = 1
        for g, e in word:
            acc = B.multiply_vec(acc, B.power_vec(images[g], e))
        return acc

    def relations_hold(images: list[Optional[np.ndarray]]) -> bool:
        for i in range(d):
            u = images[i]
            if u is None:
                continue
            word = presentation.power_word(i)
            if any(images[g] is None for g, _ in word):
                continue
            if not np.array_equal(B.power_vec(u, presentation.rel_orders[i]), eval_word(word, images)):
                return False
        for (j, i), word in presentation.commutators.items():
            if images[i] is None or images[j] is None:
                continue
            if any(images[g] is None for g, _ in word):
                continue
            ui, uj = images[i], images[j]
            lhs = B.multiply_vec(
                B.multiply_vec(_vec_inverse(B, uj), _vec_inverse(B, ui)),
                B.multiply_vec(uj, ui),
            )
            if not np.array_equal(lhs, eval_word(word, images)):
                return False
        # default trivial commutators must also hold
        for j in range(d):
            for i in range(j):
                if (j, i) in presentation.commutators:
                    continue
                if images[i] is None or images[j] is None:
                    continue
                lhs = B.multiply_vec(images[j], images[i])
                rhs = B.multiply_vec(images[i], images[j])
                if not np.array_equal(lhs, rhs):
                    return False
        return True

    def prefiltered(i: int) -> list[np.ndarray]:
        word = presentation.power_word(i)
        if word:
            return units
        out = []
        one = np.zeros(B.dim, dtype=np.int64)
        one[0] = 1
        for u in units:
            if np.array_equal(B.power_vec(u, presentation.rel_orders[i]), one):
                out.append(u)
        return out

    radices = presentation.rel_orders
    tuples = list(itertools.product(*[range(m) for m in radices]))

    def build_iso(images: list[np.ndarray]) -> Optional[AlgebraIso]:
        vecs: dict[tuple, np.ndarray] = {}
        for tup in tuples:
            if not any(tup):
                v = np.zeros(B.dim, dtype=np.int64)
                v[0] = 1
            else:
                i = max(k for k in range(d) if tup[k])
                prev = list(tup)
                prev[i] -= 1
                v = B.multiply_vec(vecs[tuple(prev)], images[i])
            vecs[tup] = v
        matrix = np.zeros((A.dim, B.dim), dtype=np.int64)
        for pos, tup in enumerate(tuples):
            idx = 0
            for a, m in zip(tup, radices):
                idx = idx * m + a
            matrix[idx] = vecs[tup]
        if fl.rref(matrix, A.p).dim != A.dim:
            return None
        try:
            return AlgebraIso(A, B, matrix, tuple(tuple(int(c) for c in u) for u in images))
        except ValueError:
            return None

    cands = [prefiltered(i) for i in range(d)]

    def extend(images: list[np.ndarray]):
        # depth-first over generator positions, candidates in encoding order
        if len(images) == d:
            iso = build_iso(images)
            if iso is not None:
                yield iso
            return
        for u in cands[len(images)]:
            trial = images + [u]
            if relations_hold(trial + [None] * (d - len(trial))):
                yield from extend(trial)

    yield from extend([])


def iso_search(
    A: GroupAlgebra,
    B: GroupAlgebra,
    presentation: Optional[gc.PcPresentation] = None,
) -> Optional[AlgebraIso]:
    """First isomorphism in the deterministic enumeration, or None on
    exhaustion of the whole candidate space."""
    return next(iso_search_iter(A, B, presentation), None)


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
    i2 = _ideal_chain(A, 2)
    rel_n = relative_augmentation_ideal(A, n_sub).space
    report["degree_one_matches"] = j_space.sum(i2) == rel_n.sum(i2)
    kl_rows = np.eye(A.dim, dtype=np.int64)[list(l_sub.elements)]
    kl = fl.rref(kl_rows, A.p, A.dim)
    report["conclusion_direct_sum"] = (
        j_space.intersect(kl).dim == 0 and j_space.sum(kl).dim == A.dim
    )
    return report
