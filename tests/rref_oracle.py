"""The library's elimination as it stood before it skipped zero rows and
zero columns, kept verbatim as the oracle for the differential tests."""

import numpy as np


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
