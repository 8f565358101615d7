"""Exact linear algebra over the prime fields GF(p), p in {2, 3, 5, 7}.

Vectors are residue sequences, subspaces are reduced row-echelon bases.
Every object is canonical and immutable: two subspaces of the same ambient
space are equal as sets exactly when their echelon bases are identical,
so equality and hashing are literal.

Linear maps follow the row convention throughout the package: a map
GF(p)^m -> GF(p)^n is an m x n matrix A acting on row vectors by
``x |-> x @ A``.

``_rref`` is the one elimination: ``rref``, ``kernel``, ``solve_row``, the
builder and the subquotient all call it, except on the label paths below.
``preimage`` is the kernel of the residual rows against W, and
``intersect`` the image of a preimage.
Every matrix product goes through ``_mm``, which multiplies in float64
and reduces mod p; that is exact while inner dimension * (p - 1)^2 <
2^53, and ``_mm`` raises where it is not.

The subquotient's greedy basis, "take the next row of the top basis
outside the span so far", is read off echelon pivots in one pass instead
of one absorb per candidate.  ``Subquotient`` eliminates the bottom space
once, with its columns reversed as in ``kernel``: the pivots are the rows
of the top basis the greedy skips, and the same reduced rows give the
coordinate map, so each coordinate lookup is one product.

Partition spaces, {x : x sums to 0 on every block} for a partition of the
coordinates, are held as least-index block labels and need no
elimination.  Membership of scaled differences c(e_a - e_b) is a label
comparison, two partition spaces are equal when their labels are, and
the sum of two partition spaces is the space of the join of their
partitions; the echelon basis is written in closed form only when it is
first read.  The kernel of a *function matrix*, every row one entry 1,
as for kG -> k(G/N), is the partition space of its fibres, and so is its
preimage of a partition space (see ``kernel`` and ``preimage``).  A
``SubspaceBuilder`` stays labelled while every row it absorbs is a
scaled difference, joining blocks along those edges, and eliminates only
from its first other row on.  These are the label paths the identity
checks take thousands of times a pass, chosen from the input alone;
containment and ``intersect`` read the basis, as for any other space.
"""

from __future__ import annotations

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
    """Normalize ``v`` (sequence or array) to a 1-d residue array, from
    integer or boolean entries only, as ``_as_matrix`` reads a matrix."""
    arr = _integral(np.asarray(v), p)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if n is not None and arr.shape[0] != n:
        raise AmbientMismatchError(f"vector length {arr.shape[0]}, expected {n}")
    return arr % p


def _integral(arr: np.ndarray, p: int) -> np.ndarray:
    """``arr`` as int64, from integer or boolean entries only: a float is
    rejected, not truncated.  uint64 is the one integer type int64 cannot
    hold, so it is reduced mod p first; an int64 array is not copied."""
    if arr.dtype.kind not in "biu":
        raise ValueError(f"entries must be integers, not {arr.dtype}")
    return (arr % p if arr.dtype == np.uint64 else arr).astype(np.int64, copy=False)


def _as_matrix(rows, p: int, ambient_dim: Optional[int] = None) -> np.ndarray:
    """``rows`` as a 2-d int64 residue matrix, through ``_integral``.  An
    int64 array of residues is returned as it is, not copied: no caller
    writes to it."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
        if not rows:
            if ambient_dim is None:
                raise ValueError("cannot infer ambient dimension from empty input")
            return np.zeros((0, ambient_dim), dtype=np.int64)
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"inconsistent row lengths {sorted(widths)}")
        rows = np.array(rows)
    mat = _integral(rows, p)
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if ambient_dim is not None and mat.shape[1] != ambient_dim:
        raise AmbientMismatchError(
            f"rows of length {mat.shape[1]}, expected {ambient_dim}"
        )
    # the remainder is the costly part: only when some entry is no residue.
    # Read as unsigned, a negative entry is at least 2^63, so one maximum
    # finds entries out of range at either end.
    if mat.size and mat.view(np.uint64).max() >= p:
        mat = mat % p
    return mat


def _mm(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``(a @ b) % p`` for residue operands, computed exactly in float64.

    Every product term is at most (p - 1)^2, so the float sums are exact
    integers while inner dimension * (p - 1)^2 < 2^53: inner dimension 243
    at p = 7 reaches 243 * 36.  Beyond that bound the product raises.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= 2**53:
        raise OverflowError(f"inner dimension {inner} is not exact in float64 over GF({p})")
    prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    # x - p * (x // p) is x % p without the slower remainder ufunc
    prod -= p * (prod // p)
    return prod


def _residual(rows: np.ndarray, pivots, basis: np.ndarray, p: int) -> np.ndarray:
    """``rows`` reduced against the reduced echelon ``basis`` with ``pivots``."""
    res = rows - _mm(rows[:, pivots], basis, p)
    res += p * (res < 0)
    return res


def _rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The package's one elimination.  Zero rows are dropped up front, and
    only columns nonzero somewhere in ``mat`` are visited: row operations
    keep a zero column zero, so no pivot is skipped.
    """
    a = mat[mat.any(axis=1)]
    nrows = a.shape[0]
    pivots = []
    r = 0
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
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
        nzc = col.nonzero()[0]
        if nzc.size:
            a[nzc] = (a[nzc] - col[nzc, None] * a[r]) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


class Subspace:
    """A subspace of GF(p)^n held as a canonical reduced row-echelon basis.

    ``labels`` is set on partition spaces only (see ``partition_subspace``),
    and None on every other space.  A partition space answers membership
    of difference rows and sums with another partition space from its
    labels, and writes ``basis`` and ``pivots`` when they are first read.
    Hashing reads the basis, and so does equality unless both sides are
    partition spaces, so a partition space equals and hashes like its
    ``rref`` copy.
    """

    __slots__ = ("p", "ambient_dim", "dim", "basis", "pivots", "labels")

    def __init__(self, p: int, ambient_dim: int, basis: np.ndarray, pivots: tuple[int, ...]):
        # Internal constructor: ``basis`` must already be in RREF.
        self.p = p
        self.ambient_dim = ambient_dim
        self.dim = basis.shape[0]
        self.basis = basis
        self.basis.setflags(write=False)
        self.pivots = pivots
        self.labels = None

    def __getattr__(self, name):
        """The echelon basis and pivots of a partition space, written on
        first read.  Python calls this only for an unset slot, and only
        ``_partition`` leaves slots unset, so spaces built with a basis
        keep plain slot reads.

        The space is spanned by the differences e_g - e_h within blocks,
        and its reduced echelon basis is {e_g - e_last(C)} over
        g != last(C), with last(C) the highest index of the block C: each
        row has its pivot at g and its one other entry at a column that is
        no pivot.
        """
        if name not in ("basis", "pivots"):
            raise AttributeError(name)
        labels, n = self.labels, self.ambient_dim
        idx = np.arange(n)
        last = np.zeros(n, dtype=np.int64)
        np.maximum.at(last, labels, idx)
        last = last[labels]
        rows = np.flatnonzero(last != idx)
        basis = np.zeros((rows.size, n), dtype=np.int64)
        basis[np.arange(rows.size), rows] = 1
        basis[np.arange(rows.size), last[rows]] = self.p - 1
        basis.setflags(write=False)
        self.basis, self.pivots = basis, tuple(rows.tolist())
        return getattr(self, name)

    def __eq__(self, other) -> bool:
        """Equal as sets.  Least-index labels are canonical, so two
        partition spaces compare their labels and read no basis; any other
        pair compares echelon bases."""
        if not isinstance(other, Subspace):
            return NotImplemented
        if (self.p, self.ambient_dim, self.dim) != (other.p, other.ambient_dim, other.dim):
            return False
        if self.labels is not None and other.labels is not None:
            return np.array_equal(self.labels, other.labels)
        return self.pivots == other.pivots and np.array_equal(self.basis, other.basis)

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self.pivots, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise AmbientMismatchError(
                f"({self.p}, {self.ambient_dim}) vs ({other.p}, {other.ambient_dim})"
            )

    def reduce(self, v) -> np.ndarray:
        """Residual of ``v`` after reduction against the echelon basis."""
        return self.reduce_rows(as_vector(v, self.p, self.ambient_dim).reshape(1, -1))[0]

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def contains_all(self, rows) -> bool:
        """Whether every row lies in the space.  On a partition space,
        scaled differences c(e_a - e_b) lie in it exactly when a and b
        share a block; any other rows are reduced."""
        mat = _as_matrix(rows, self.p, self.ambient_dim)
        if self.labels is not None:
            edges = _difference_edges(mat, self.p)
            if edges is not None:
                a, b = edges
                return np.array_equal(self.labels[a], self.labels[b])
        return not self.reduce_rows(mat).any()

    def reduce_rows(self, mat: np.ndarray) -> np.ndarray:
        """Residuals of many rows (entries in [0, p)) at once."""
        return _residual(mat, list(self.pivots), self.basis, self.p)

    def contains_space(self, other: "Subspace") -> bool:
        """Whether ``other`` <= self."""
        self._check_compatible(other)
        return self.contains_all(other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        """Span of the union, canonical.

        A sum with the zero space is the other space itself.  Two
        partition spaces sum to the partition space of the join of their
        partitions: the larger's labels joined along the edges
        g -- labels[g] of the smaller, with no basis read.  Otherwise the
        larger space seeds a builder as it stands and the smaller basis is
        absorbed into it.
        """
        self._check_compatible(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        if small.dim == 0:
            return big
        if big.labels is not None and small.labels is not None:
            idx = np.flatnonzero(small.labels != np.arange(self.ambient_dim))
            labels = _join_edges(big.labels, idx, small.labels[idx])
            return big if np.array_equal(labels, big.labels) else _partition(self.p, labels)
        builder = SubspaceBuilder.from_subspace(big)
        if not builder.absorb(small.basis):
            return big
        return builder.subspace()

    def intersect(self, other: "Subspace") -> "Subspace":
        """The image of ``preimage(B_self, other)`` under x |-> x @ B_self.

        The product is already reduced echelon: on column self.pivots[c]
        the row x @ B_self reads x[c], because B_self is e_c there, so the
        preimage's reduced echelon rows map to reduced echelon rows with
        pivots self.pivots[c] for c in the preimage's pivots.
        """
        self._check_compatible(other)
        ker = preimage(self.basis, other, self.p)
        vecs = _mm(ker.basis, self.basis, self.p)
        return Subspace(self.p, self.ambient_dim, vecs, tuple(self.pivots[c] for c in ker.pivots))


def zero_subspace(p: int, ambient_dim: int) -> Subspace:
    return Subspace(p, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64), ())


def full_subspace(p: int, ambient_dim: int) -> Subspace:
    return Subspace(
        p, ambient_dim, np.eye(ambient_dim, dtype=np.int64), tuple(range(ambient_dim))
    )


def partition_subspace(p: int, labels) -> Subspace:
    """{x : x sums to 0 on every block}, for the partition given by ``labels``.

    ``labels[g]`` must be the least index of g's block; other labels raise
    ValueError.  The space keeps a copy of the labels and writes its
    echelon basis only when it is first read (see ``Subspace``).
    """
    _check_prime(p)
    labels = np.array(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d array")
    idx = np.arange(labels.shape[0])
    if (labels < 0).any() or (labels > idx).any() or (labels[labels] != labels).any():
        raise ValueError("labels must give each index the least index of its block")
    return _partition(p, labels)


def _partition(p: int, labels: np.ndarray) -> Subspace:
    """The partition space of ``labels``, trusted to be least-index block
    labels and made read-only.  Its dimension is n minus the number of
    blocks; ``basis`` and ``pivots`` stay unset until first read."""
    space = Subspace.__new__(Subspace)
    n = labels.shape[0]
    space.p = p
    space.ambient_dim = n
    space.dim = n - int(np.count_nonzero(labels == np.arange(n)))
    labels.setflags(write=False)
    space.labels = labels
    return space


def _difference_edges(block: np.ndarray, p: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Endpoints (a, b) of the nonzero rows of ``block`` when each one is a
    scaled difference c(e_a - e_b), that is, has exactly two nonzero
    entries and sums to 0 mod p; otherwise None.

    One scan finds the nonzero entries in row-major order; the rows pass
    when those entries pair up, two to a row: the row index steps by 0
    within each pair and by more than 0 from one pair to the next.
    """
    flat = (block != 0).ravel().nonzero()[0]
    rows, cols = np.divmod(flat, block.shape[1])
    steps = rows[1:] - rows[:-1]
    if rows.size % 2 or steps[0::2].any() or not steps[1::2].all():
        return None
    vals = block.ravel()[flat]
    if ((vals[0::2] + vals[1::2]) % p).any():
        return None
    return cols[0::2], cols[1::2]


def _join_edges(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-index labels of the partition ``labels`` with the blocks at
    the two ends of every edge a[i] -- b[i] merged.

    Hooking and shortcutting (Shiloach and Vishkin, J. Algorithms 3,
    1982): across each edge the higher root takes the least root on the
    other side, then every label follows root[root] until it names a
    root, and this repeats until every edge lies inside one block.  A root
    only ever points to a lower root, so each merged block ends labelled
    by its least index.
    """
    root = labels.copy()
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            return root
        ra, rb = ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def rref(rows, p: int, ambient_dim: Optional[int] = None) -> Subspace:
    """Canonical reduced row-echelon span of the given rows."""
    _check_prime(p)
    mat = _as_matrix(rows, p, ambient_dim)
    basis, pivots = _rref(mat, p)
    return Subspace(p, mat.shape[1], basis, pivots)


def _function_columns(a: np.ndarray) -> Optional[np.ndarray]:
    """The column of each row's one entry when the residue matrix ``a`` is
    a function matrix, one entry 1 and zeros elsewhere in every row: the
    matrix of a map that sends each basis element to one basis element.
    Entries are nonnegative, so a row sum of 1 says exactly that.  None
    for any other matrix, an empty one included."""
    if not a.size or not (a.sum(axis=1) == 1).all():
        return None
    return a.argmax(axis=1)


def _fibre_labels(keys: np.ndarray, bound: int) -> np.ndarray:
    """Least-index block labels of the partition of range(len(keys)) into
    the fibres of ``keys``, whose values lie in range(bound)."""
    first = np.full(bound, keys.size)
    np.minimum.at(first, keys, np.arange(keys.size))
    return first[keys]


def kernel(matrix, p: int) -> Subspace:
    """Kernel { x : x @ A = 0 } of the row-convention map given by ``A``.

    When A is a function matrix sending e_g to e_pi(g), x @ A sums x over
    each fibre of pi, so the kernel is the partition space of the fibres,
    read off pi with no elimination.  Any other matrix is eliminated.
    """
    _check_prime(p)
    a = _as_matrix(matrix, p)
    cols = _function_columns(a)
    if cols is not None:
        return _partition(p, _fibre_labels(cols, a.shape[1]))
    m = a.shape[0]
    # A^T is eliminated with its columns reversed.  In reversed coordinates
    # each kernel vector e_f - sum_i red[i, f] e_{pivot_i} ends in its free
    # column f and is zero on every other free column, so read back in the
    # original order the vectors are already the kernel's reduced echelon
    # basis, with the free columns as pivots.
    red, pivots = _rref(a.T[:, ::-1], p)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    vecs = np.zeros((len(free), m), dtype=np.int64)
    vecs[range(len(free)), free] = 1
    vecs[:, list(pivots)] = (-red[:, free].T) % p
    basis = vecs[::-1, ::-1].copy()
    return Subspace(p, m, basis, tuple(m - 1 - f for f in reversed(free)))


def preimage(matrix, w: Subspace, p: int) -> Subspace:
    """Full preimage { x : x @ A in W } of the subspace W.

    When A is a function matrix sending e_g to e_pi(g) and W is a
    partition space, x @ A sums to 0 on a block of W exactly when x sums
    to 0 over the g with pi(g) in that block: the preimage is the
    partition space of the key g |-> W.labels[pi(g)], read off labels.

    Otherwise x @ A lies in W exactly when its residual against W is
    zero, and the residual is linear: it is x @ R for R the residual rows
    of A.  So the preimage is the kernel of R.
    """
    a = _as_matrix(matrix, p)
    if a.shape[1] != w.ambient_dim or w.p != p:
        raise AmbientMismatchError("matrix codomain does not match subspace ambient")
    if w.labels is not None:
        cols = _function_columns(a)
        if cols is not None:
            return _partition(p, _fibre_labels(w.labels[cols], w.ambient_dim))
    return kernel(w.reduce_rows(a), p)


def solve_row(matrix: np.ndarray, v, p: int) -> Optional[np.ndarray]:
    """One solution x of x @ A = v, or None if the system is inconsistent."""
    a = _as_matrix(matrix, p)
    b = as_vector(v, p, a.shape[1])
    aug = np.concatenate([a.T % p, b.reshape(-1, 1)], axis=1)
    red, pivots = _rref(aug, p)
    if a.shape[0] in pivots:
        return None
    x = np.zeros(a.shape[0], dtype=np.int64)
    x[list(pivots)] = red[:, -1]
    return x


class SubspaceBuilder:
    """Incremental echelon accumulator for large spanning sets.

    The builder starts labelled: the empty builder holds the discrete
    partition, and ``from_subspace`` of a partition space holds that
    space's labels.  It stays labelled while every absorbed block is made
    of scaled differences c(e_a - e_b); such a block merges the blocks at
    the ends of its edges, and the span is the partition space of the
    merged labels.  The first other block stores the partition basis and
    the builder eliminates from then on: each block is reduced against
    the running basis with one ``_mm``, its residual is eliminated by
    ``_rref``, and the new rows are back-substituted into the stored ones
    with one more ``_mm``.  Either way ``subspace()`` is identical to a
    one-shot rref of all rows.
    """

    def __init__(self, p: int, ambient_dim: int):
        _check_prime(p)
        self.p = p
        self.ambient_dim = ambient_dim
        # least-index block labels while the span is a partition space
        self._labels: Optional[np.ndarray] = np.arange(ambient_dim)
        self._mat = np.zeros((0, ambient_dim), dtype=np.int64)
        self._count = 0
        self._pivots: list[int] = []

    @classmethod
    def from_subspace(cls, space: Subspace) -> "SubspaceBuilder":
        """A builder whose running span starts as ``space``: its labels if
        it has them, else its echelon basis."""
        builder = cls(space.p, space.ambient_dim)
        if space.labels is not None:
            builder._labels = space.labels
            builder._count = space.dim
        elif space.dim:
            builder._store(space)
        return builder

    def _store(self, space: Subspace) -> None:
        """Leave the labelled state with ``space``'s basis as the running one."""
        self._labels = None
        self._mat = np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.int64)
        self._mat[: space.dim] = space.basis
        self._count = space.dim
        self._pivots = list(space.pivots)

    @property
    def dim(self) -> int:
        return self._count

    def absorb(self, rows) -> int:
        """Add rows to the span; returns the number of new pivots."""
        p = self.p
        block = _as_matrix(rows, p, self.ambient_dim)
        if self._labels is not None:
            edges = _difference_edges(block, p)
            if edges is not None:
                self._labels = _join_edges(self._labels, *edges)
                before = self._count
                self._count = self.ambient_dim - int(
                    np.count_nonzero(self._labels == np.arange(self.ambient_dim))
                )
                return self._count - before
            self._store(self.subspace())
        stored = self._mat[: self._count]
        block = _residual(block, self._pivots, stored, p)
        new, pivots = _rref(block, p)
        if not pivots:
            return 0
        # the residual is zero on the stored pivots; clear the new ones
        stored[:] = _residual(stored, list(pivots), new, p)
        self._mat[self._count : self._count + len(pivots)] = new
        self._count += len(pivots)
        self._pivots.extend(pivots)
        return len(pivots)

    def subspace(self) -> Subspace:
        if self._labels is not None:
            return _partition(self.p, self._labels)
        order = np.argsort(self._pivots, kind="stable")
        basis = self._mat[: self._count][order].copy()
        pivots = tuple(sorted(self._pivots))
        return Subspace(self.p, self.ambient_dim, basis, pivots)


class Subquotient:
    """A quotient V/W of nested subspaces with a fixed representative basis.

    The basis consists of the rows of V's echelon basis that are independent
    modulo W, taken greedily in order, so the choice is canonical.

    One elimination gives both the basis and the coordinates.  A vector of
    V is fixed by its entries on V's pivot columns, and there row i of V's
    basis is e_i.  The greedy skips row i exactly when it lies in W plus
    the rows before it, that is, when some vector of W (in these
    coordinates) has its last nonzero entry at i.  Eliminating W's rows
    with the columns reversed, as ``kernel`` does, makes those last
    positions the pivots; every other row is a representative.  In the
    original order the reduced rows are 1 at their own last position and 0
    at the others', so x |-> (x - x[last] . red)[keep] sends x + W to its
    coordinates; ``coords`` is a membership check and one product.
    """

    def __init__(self, top: Subspace, bottom: Subspace):
        top._check_compatible(bottom)
        if not top.contains_space(bottom):
            raise NotSubspaceError("quotient bottom is not contained in top")
        self.top = top
        self.bottom = bottom
        self.p = top.p
        d = top.dim
        red, rev_pivots = _rref(bottom.basis[:, list(top.pivots)][:, ::-1], self.p)
        last = [d - 1 - c for c in rev_pivots]
        keep = sorted(set(range(d)) - set(last))
        self.basis_rows = top.basis[keep]
        self.rank = len(keep)
        if self.rank + bottom.dim != top.dim:
            raise RuntimeError("subquotient basis construction failed")
        coord_map = np.zeros((d, self.rank), dtype=np.int64)
        coord_map[keep, range(self.rank)] = 1
        coord_map[last] = (-red[:, ::-1][:, keep]) % self.p
        self._coord_map = coord_map

    def coords(self, v) -> np.ndarray:
        """Coordinates of ``v + bottom`` in the representative basis."""
        vec = as_vector(v, self.p, self.top.ambient_dim)
        if not self.top.contains(vec):
            raise NotSubspaceError("vector does not lie in the quotient top space")
        return _mm(vec[list(self.top.pivots)], self._coord_map, self.p)
