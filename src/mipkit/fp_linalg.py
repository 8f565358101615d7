"""Exact linear algebra over the prime fields GF(p), p in {2, 3, 5, 7}.

Vectors are residue sequences, subspaces are reduced row-echelon bases.
Every object is canonical and immutable: two subspaces of the same ambient
space are equal as sets exactly when their echelon bases are identical,
so equality and hashing are literal.

Linear maps follow the row convention throughout the package: a map
GF(p)^m -> GF(p)^n is an m x n matrix A acting on row vectors by
``x |-> x @ A``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)


class AmbientMismatchError(ValueError):
    """Operands live over different primes or ambient dimensions."""


class NotSubspaceError(ValueError):
    """A required containment U <= V does not hold."""


def _check_prime(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")


def as_vector(v, p: int, n: Optional[int] = None) -> np.ndarray:
    """Normalize ``v`` (FpVector, sequence or array) to a 1-d residue array."""
    if isinstance(v, FpVector):
        if v.p != p:
            raise AmbientMismatchError(f"vector over GF({v.p}), expected GF({p})")
        arr = v.array
    else:
        arr = np.asarray(v, dtype=np.int64) % p
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if n is not None and arr.shape[0] != n:
        raise AmbientMismatchError(f"vector length {arr.shape[0]}, expected {n}")
    return arr


def _as_matrix(rows, p: int, ambient_dim: Optional[int] = None) -> np.ndarray:
    if isinstance(rows, np.ndarray):
        mat = rows.astype(np.int64) % p
        if mat.ndim != 2:
            raise ValueError("expected a 2-d matrix")
    else:
        rows = list(rows)
        if not rows:
            if ambient_dim is None:
                raise ValueError("cannot infer ambient dimension from empty input")
            return np.zeros((0, ambient_dim), dtype=np.int64)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"inconsistent row lengths {sorted(widths)}")
        mat = np.array(rows, dtype=np.int64) % p
    if ambient_dim is not None and mat.shape[1] != ambient_dim:
        raise AmbientMismatchError(
            f"rows of length {mat.shape[1]}, expected {ambient_dim}"
        )
    return mat


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    a = mat.copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        nzc = np.nonzero(col)[0]
        if nzc.size:
            a[nzc] = (a[nzc] - np.outer(col[nzc], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


@dataclass(frozen=True)
class FpVector:
    """A vector over GF(p) with all coordinates reduced to [0, p)."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        _check_prime(self.p)
        if any(c < 0 or c >= self.p for c in self.coords):
            raise ValueError("coordinates must be reduced mod p")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.coords)


class Subspace:
    """A subspace of GF(p)^n held as a canonical reduced row-echelon basis."""

    __slots__ = ("p", "ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, p: int, ambient_dim: int, basis: np.ndarray, pivots: tuple[int, ...]):
        # Internal constructor: ``basis`` must already be in RREF.
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.basis.setflags(write=False)
        self.pivots = pivots
        self._hash = hash((p, ambient_dim, pivots, basis.tobytes()))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatchError(
                f"({self.p}, {self.ambient_dim}) vs ({other.p}, {other.ambient_dim})"
            )

    def reduce(self, v) -> np.ndarray:
        """Residual of ``v`` after reduction against the echelon basis."""
        w = as_vector(v, self.p, self.ambient_dim).copy()
        for i, c in enumerate(self.pivots):
            if w[c]:
                w = (w - w[c] * self.basis[i]) % self.p
        return w

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def contains_all(self, rows) -> bool:
        mat = _as_matrix(rows, self.p, self.ambient_dim)
        return not self.reduce_rows(mat).any()

    def reduce_rows(self, mat: np.ndarray) -> np.ndarray:
        """Vectorized reduction of many rows at once."""
        w = mat.copy()
        if self.dim:
            coeffs = w[:, list(self.pivots)]
            w = (w - coeffs @ self.basis) % self.p
        return w

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains_all(other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        """Span of the union, canonical.

        The larger echelon basis seeds a builder as it stands; only the
        smaller basis is reduced against it and eliminated.
        """
        self._check_compatible(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        builder = SubspaceBuilder.from_subspace(big)
        if not builder.absorb(small.basis):
            return big
        return builder.subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked-basis map.

        Row vectors (x, y) with x @ B_self + y @ B_other = 0 parameterize the
        intersection as x @ B_self.  The product is already reduced echelon:
        every kernel pivot lies in an x column (x = 0 forces y = 0), so the
        x parts are in RREF, and B_self is in RREF with pivots self.pivots.
        """
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return zero_subspace(self.p, self.ambient_dim)
        stacked = np.concatenate([self.basis, other.basis], axis=0)
        ker = kernel(stacked, self.p)
        if ker.dim == 0:
            return zero_subspace(self.p, self.ambient_dim)
        vecs = (ker.basis[:, : self.dim] @ self.basis) % self.p
        return Subspace(self.p, self.ambient_dim, vecs, tuple(self.pivots[c] for c in ker.pivots))

    def reduction_matrix(self) -> np.ndarray:
        """Matrix R with v @ R = reduce(v); the projection along self."""
        n = self.ambient_dim
        r = np.eye(n, dtype=np.int64)
        for i, c in enumerate(self.pivots):
            row = (-self.basis[i]) % self.p
            row[c] = 0
            r[c] = row
        return r

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


def zero_subspace(p: int, ambient_dim: int) -> Subspace:
    return Subspace(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())


def full_subspace(p: int, ambient_dim: int) -> Subspace:
    return Subspace(
        p, ambient_dim, np.eye(ambient_dim, dtype=np.int64), tuple(range(ambient_dim))
    )


def rref(rows, p: int, ambient_dim: Optional[int] = None) -> Subspace:
    """Canonical reduced row-echelon span of the given rows."""
    _check_prime(p)
    mat = _as_matrix(rows, p, ambient_dim)
    basis, pivots = _rref(mat, p)
    return Subspace(p, mat.shape[1], basis, pivots)


def kernel(matrix, p: int) -> Subspace:
    """Kernel { x : x @ A = 0 } of the row-convention map given by ``A``."""
    _check_prime(p)
    a = _as_matrix(matrix, p)
    m = a.shape[0]
    # A^T is eliminated with its columns reversed.  In reversed coordinates
    # each kernel vector e_f - sum_i red[i, f] e_{pivot_i} ends in its free
    # column f and is zero on every other free column, so read back in the
    # original order the vectors are already the kernel's reduced echelon
    # basis, with the free columns as pivots.
    red, pivots = _rref(a.T[:, ::-1], p)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    if not free:
        return zero_subspace(p, m)
    vecs = np.zeros((len(free), m), dtype=np.int64)
    vecs[range(len(free)), free] = 1
    vecs[:, list(pivots)] = (-red[:, free].T) % p
    basis = vecs[::-1, ::-1].copy()
    return Subspace(p, m, basis, tuple(m - 1 - f for f in reversed(free)))


def image(matrix, p: int) -> Subspace:
    """Row space of ``A``: the image of x |-> x @ A."""
    return rref(_as_matrix(matrix, p), p)


def preimage(matrix, w: Subspace, p: int) -> Subspace:
    """Full preimage { x : x @ A in W } of the subspace W."""
    a = _as_matrix(matrix, p)
    if a.shape[1] != w.ambient_dim or w.p != p:
        raise AmbientMismatchError("matrix codomain does not match subspace ambient")
    reduced_map = (a @ w.reduction_matrix()) % p
    return kernel(reduced_map, p)


def quotient_dim(inner: Subspace, outer: Subspace) -> int:
    """dim(outer) - dim(inner), requiring inner <= outer."""
    inner._check_compatible(outer)
    if not outer.contains_space(inner):
        raise NotSubspaceError("inner subspace is not contained in outer")
    return outer.dim - inner.dim


def solve_row(matrix: np.ndarray, v, p: int) -> Optional[np.ndarray]:
    """One solution x of x @ A = v, or None if the system is inconsistent."""
    a = _as_matrix(matrix, p)
    b = as_vector(v, p, a.shape[1])
    aug = np.concatenate([a.T % p, b.reshape(-1, 1)], axis=1)
    red, pivots = _rref(aug, p)
    if a.shape[0] in pivots:
        return None
    x = np.zeros(a.shape[0], dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, -1]
    return x


class SubspaceBuilder:
    """Incremental echelon accumulator for large spanning sets.

    Rows are absorbed in blocks and reduced against the running basis; the
    final ``subspace()`` is identical to a one-shot rref of all rows.
    """

    def __init__(self, p: int, ambient_dim: int):
        _check_prime(p)
        self.p = p
        self.ambient_dim = ambient_dim
        self._mat = np.zeros((ambient_dim, ambient_dim), dtype=np.int64)
        self._count = 0
        self._pivots: list[int] = []

    @classmethod
    def from_subspace(cls, space: Subspace) -> "SubspaceBuilder":
        """A builder whose running basis starts as ``space``'s echelon basis."""
        builder = cls(space.p, space.ambient_dim)
        builder._mat[: space.dim] = space.basis
        builder._count = space.dim
        builder._pivots = list(space.pivots)
        return builder

    @property
    def dim(self) -> int:
        return self._count

    def absorb(self, rows) -> int:
        """Add rows to the span; returns the number of new pivots."""
        block = _as_matrix(rows, self.p, self.ambient_dim).copy()
        if block.shape[0] == 0:
            return 0
        if self._count:
            block = (
                block - block[:, self._pivots] @ self._mat[: self._count]
            ) % self.p
        added = 0
        while True:
            nonzero = np.nonzero(block.any(axis=1))[0]
            if nonzero.size == 0:
                break
            block = block[nonzero]
            row = block[0].copy()
            c = int(np.nonzero(row)[0][0])
            inv = pow(int(row[c]), -1, self.p)
            if inv != 1:
                row = (row * inv) % self.p
            # keep stored rows mutually reduced
            col = self._mat[: self._count, c]
            nz = np.nonzero(col)[0]
            if nz.size:
                self._mat[nz] = (self._mat[nz] - np.outer(col[nz], row)) % self.p
            self._mat[self._count] = row
            self._count += 1
            self._pivots.append(c)
            added += 1
            block = block[1:]
            # a single rank-one update clears the new pivot column
            coeff = block[:, c]
            nz = np.nonzero(coeff)[0]
            if nz.size:
                block[nz] = (block[nz] - np.outer(coeff[nz], row)) % self.p
        return added

    def contains(self, v) -> bool:
        w = as_vector(v, self.p, self.ambient_dim).copy()
        if self._count:
            w = (w - w[self._pivots] @ self._mat[: self._count]) % self.p
        return not w.any()

    def subspace(self) -> Subspace:
        if not self._count:
            return zero_subspace(self.p, self.ambient_dim)
        order = np.argsort(self._pivots, kind="stable")
        basis = self._mat[: self._count][order].copy()
        pivots = tuple(self._pivots[i] for i in order)
        return Subspace(self.p, self.ambient_dim, basis, pivots)


class Subquotient:
    """A quotient V/W of nested subspaces with a fixed representative basis.

    The basis consists of the rows of V's echelon basis that are independent
    modulo W, taken greedily in order, so the choice is canonical.
    """

    def __init__(self, top: Subspace, bottom: Subspace):
        top._check_compatible(bottom)
        if not top.contains_space(bottom):
            raise NotSubspaceError("quotient bottom is not contained in top")
        self.top = top
        self.bottom = bottom
        self.p = top.p
        self.basis_rows = bottom.complement_rows_in(top.basis)
        self.rank = self.basis_rows.shape[0]
        if self.rank + bottom.dim != top.dim:
            raise RuntimeError("subquotient basis construction failed")
        self._solve_matrix = np.concatenate([self.basis_rows, bottom.basis], axis=0)

    def coords(self, v) -> np.ndarray:
        """Coordinates of ``v + bottom`` in the representative basis."""
        vec = as_vector(v, self.p, self.top.ambient_dim)
        x = solve_row(self._solve_matrix, vec, self.p)
        if x is None:
            raise NotSubspaceError("vector does not lie in the quotient top space")
        return x[: self.rank]

    def rep(self, coords) -> np.ndarray:
        c = as_vector(coords, self.p, self.rank)
        if self.rank == 0:
            return np.zeros(self.top.ambient_dim, dtype=np.int64)
        return (c @ self.basis_rows) % self.p


def lex_vectors(p: int, length: int):
    """All coordinate vectors of GF(p)^length in lexicographic order."""
    for tup in itertools.product(range(p), repeat=length):
        yield np.array(tup, dtype=np.int64)


def lex_complement(inside: Subspace, p: int, dim: int) -> np.ndarray:
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
