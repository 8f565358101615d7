"""The library's elimination as it stood before it skipped zero rows and
zero columns, and its intersection and preimage as they stood before they
shared one kernel, kept as oracles for the differential tests, with a
kernel built by elimination twice over.  Every oracle eliminates and none
reads partition labels, so the library's label paths are checked against
elimination."""

import numpy as np

from mipkit import fp_linalg as fl


def oracle_rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
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


def oracle_kernel(a: np.ndarray, p: int) -> fl.Subspace:
    """The kernel built from the free columns of rref(A^T), then eliminated again."""
    m = a.shape[0]
    red, pivots = oracle_rref(a.T.copy(), p)
    free = [c for c in range(m) if c not in pivots]
    vecs = np.zeros((len(free), m), dtype=np.int64)
    for k, f in enumerate(free):
        vecs[k, f] = 1
        for i, c in enumerate(pivots):
            vecs[k, c] = (-red[i, f]) % p
    basis, ker_pivots = oracle_rref(vecs, p)
    return fl.Subspace(p, m, basis, ker_pivots)


# ``Subspace.intersect`` and ``preimage`` as they stood before both became
# the kernel of residual rows: the stacked-basis kernel, and the kernel of
# the map composed with the reduction matrix.


def oracle_intersect(self: fl.Subspace, other: fl.Subspace) -> fl.Subspace:
    """Intersection via the kernel of the stacked-basis map.

    Row vectors (x, y) with x @ B_self + y @ B_other = 0 parameterize the
    intersection as x @ B_self.  The product is already reduced echelon:
    every kernel pivot lies in an x column (x = 0 forces y = 0), so the
    x parts are in RREF, and B_self is in RREF with pivots self.pivots.
    """
    self._check_compatible(other)
    if self.dim == 0 or other.dim == 0:
        return fl.zero_subspace(self.p, self.ambient_dim)
    stacked = np.concatenate([self.basis, other.basis], axis=0)
    ker = oracle_kernel(stacked, self.p)
    if ker.dim == 0:
        return fl.zero_subspace(self.p, self.ambient_dim)
    vecs = fl._mm(ker.basis[:, : self.dim], self.basis, self.p)
    return fl.Subspace(self.p, self.ambient_dim, vecs, tuple(self.pivots[c] for c in ker.pivots))


def oracle_reduction_matrix(self: fl.Subspace) -> np.ndarray:
    """Matrix R with v @ R = reduce(v); the projection along self."""
    r = np.eye(self.ambient_dim, dtype=np.int64)
    pivots = list(self.pivots)
    r[pivots] = (-self.basis) % self.p
    r[pivots, pivots] = 0
    return r


def oracle_preimage(matrix, w: fl.Subspace, p: int) -> fl.Subspace:
    """Full preimage { x : x @ A in W } of the subspace W."""
    a = fl._as_matrix(matrix, p)
    if a.shape[1] != w.ambient_dim or w.p != p:
        raise fl.AmbientMismatchError("matrix codomain does not match subspace ambient")
    reduced_map = fl._mm(a, oracle_reduction_matrix(w), p)
    return oracle_kernel(reduced_map, p)
