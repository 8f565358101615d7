"""The library's one-at-a-time greedy bases as they stood before each became
a single pass, kept verbatim (as functions) as the oracles for the
differential tests.

Vectors: the subquotient basis takes top's echelon rows one absorb at a
time and inverts [T | I] for its coordinate map.  ``lex_complement``, the
lexicographically least complement of a subspace, found by enumerating
GF(p)^dim in lexicographic order and absorbing one vector at a time, is no
copy of library code: the library reads a split's lifts off the power
map's domain basis, and ``split_oracle`` searches for them through this
complement as the split once did.  Groups:
``ElementaryQuotient`` and ``burnside_basis_extend`` join one cyclic
subgroup per pick, and ``elementary_quotient_coords`` is the coordinate
enumeration ``ElementaryQuotient`` ran before it read the coset labels.
"""

import itertools

import numpy as np

from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit.fp_linalg import SubspaceBuilder, _mm, _rref


def lex_vectors(p: int, length: int):
    """All coordinate vectors of GF(p)^length in lexicographic order."""
    for tup in itertools.product(range(p), repeat=length):
        yield np.array(tup, dtype=np.int64)


def lex_complement(inside, p: int, dim: int) -> np.ndarray:
    """Lexicographically least basis of a complement of ``inside`` in GF(p)^dim."""
    builder = SubspaceBuilder.from_subspace(inside)
    picked = []
    target = dim - inside.dim
    for vec in lex_vectors(p, dim):
        if len(picked) == target:
            break
        if not vec.any():
            continue
        if builder.absorb(vec.reshape(1, -1)):
            picked.append(vec)
    if picked:
        return np.array(picked, dtype=np.int64)
    return np.zeros((0, dim), dtype=np.int64)


def complement_rows_in(self, ambient_rows: np.ndarray) -> np.ndarray:
    """Greedy subset of ``ambient_rows`` independent modulo self, in order."""
    builder = SubspaceBuilder.from_subspace(self)
    picked = []
    for row in ambient_rows:
        if builder.absorb(row.reshape(1, -1)):
            picked.append(row % self.p)
    if picked:
        return np.array(picked, dtype=np.int64)
    return np.zeros((0, self.ambient_dim), dtype=np.int64)


def subquotient(top, bottom) -> tuple[np.ndarray, np.ndarray]:
    """(basis_rows, coordinate map) of top/bottom: the rows of top's echelon
    basis independent modulo bottom, and the map v[top.pivots] -> coords
    read off ``_rref([T | I])``."""
    basis_rows = complement_rows_in(bottom, top.basis)
    rank = basis_rows.shape[0]
    if rank + bottom.dim != top.dim:
        raise RuntimeError("subquotient basis construction failed")
    d = top.dim
    square = np.concatenate([basis_rows, bottom.basis], axis=0)[:, list(top.pivots)]
    red, _ = _rref(np.concatenate([square, np.eye(d, dtype=np.int64)], axis=1), top.p)
    return basis_rows, red[:, d : d + rank]


def subquotient_coords(top, coord_map, v) -> np.ndarray:
    return _mm(fl.as_vector(v, top.p, top.ambient_dim)[list(top.pivots)], coord_map, top.p)


def elementary_quotient_basis(m_sub, k_sub, rep_pool=None) -> list[int]:
    """Coset representatives of M/K: the greedy loop of ``ElementaryQuotient``."""
    G = m_sub.parent
    p = G.p
    rank = gc.log_p(m_sub.order // k_sub.order, p)
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
    return basis


def elementary_quotient_coords(m_sub, k_sub, basis) -> dict[int, tuple[int, ...]]:
    """Coordinates of every element of M in M/K: each of the p^rank x |K|
    products b_1^{a_1} ... b_r^{a_r} k, the loop of ``ElementaryQuotient``."""
    G = m_sub.parent
    p = G.p
    rank = len(basis)
    coords: dict[int, tuple[int, ...]] = {}
    for tup in itertools.product(range(p), repeat=rank):
        rep = 0
        for b, e in zip(basis, tup):
            rep = G.mul_elems(rep, G.power(b, e))
        for k in k_sub.elements:
            elem = G.mul_elems(rep, k)
            if elem in coords:
                raise gc.InternalCheckError(
                    f"coset enumeration on {G.name} collided: |M| = {m_sub.order}, |K| = {k_sub.order}"
                )
            coords[elem] = tup
    return coords


def burnside_basis_extend(s, seed) -> list[int]:
    """Extend independent-mod-Frattini seed elements to a full Burnside basis."""
    G = s.parent
    phi = gc.frattini(s)
    basis = list(seed)
    current = gc.join(phi, G.subgroup(tuple(basis)))
    expected = phi.order * G.p ** len(basis)
    if current.order != expected:
        raise ValueError("seed elements are not independent modulo Frattini")
    for x in s.elements:
        if current.order == s.order:
            break
        if x not in current:
            basis.append(x)
            current = gc.join(current, G.subgroup((x,)))
    generated = gc._grow(G, basis)[0]
    if generated != s._set:
        raise gc.InternalCheckError(
            f"extended basis generates a subgroup of order {len(generated)} of {G.name},"
            f" not the given subgroup of order {s.order}"
        )
    return basis
