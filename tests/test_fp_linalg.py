import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import fp_linalg as fl


def test_rref_full_space_f2():
    s = fl.rref([[1, 1], [0, 1]], 2)
    assert s.dim == 2
    assert np.array_equal(s.basis, np.eye(2, dtype=np.int64))


def test_rref_proportional_rows_f3():
    # 2*[1,2] = [2,4] = [2,1] mod 3, so the span has rank 1
    s = fl.rref([[2, 1], [1, 2]], 3)
    assert s.dim == 1
    assert s.basis.tolist() == [[1, 2]]


def test_rref_empty_is_zero_subspace():
    s = fl.rref([], 2, ambient_dim=4)
    assert s.dim == 0
    assert s == fl.zero_subspace(2, 4)


def test_rref_inconsistent_rows_rejected():
    with pytest.raises(ValueError):
        fl.rref([[1, 0], [1, 0, 1]], 2)


def _random_subspace(rng, p, n, max_rank=None):
    k = rng.integers(0, (max_rank or n) + 1)
    return fl.rref(rng.integers(0, p, size=(k, n)), p, n)


def test_rref_canonical_for_equal_spans():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            rows = rng.integers(0, p, size=(int(rng.integers(1, 5)), n))
            s1 = fl.rref(rows, p, n)
            # random row operations preserve the span
            mixed = rows.copy()
            for _ in range(6):
                i, j = rng.integers(0, mixed.shape[0], size=2)
                if i != j:
                    mixed[i] = (mixed[i] + rng.integers(1, p) * mixed[j]) % p
            extra = (rng.integers(0, p, size=(2, mixed.shape[0])) @ mixed) % p
            s2 = fl.rref(np.concatenate([mixed, extra]), p, n)
            assert s1 == s2
            assert hash(s1) == hash(s2)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    n=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_dimension_formula(p, n, data):
    rows_u = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=4)
    )
    rows_v = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=4)
    )
    u = fl.rref(rows_u, p, n)
    v = fl.rref(rows_v, p, n)
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


def test_sum_identity_and_idempotence():
    u = fl.rref([[1, 0, 1], [0, 1, 0]], 2, 3)
    zero = fl.zero_subspace(2, 3)
    assert u.sum(zero) == u
    assert u.sum(u) == u


def test_sum_of_coordinate_lines():
    u = fl.rref([[1, 0, 0]], 2, 3)
    v = fl.rref([[0, 1, 0]], 2, 3)
    assert u.sum(v).dim == 2


def test_intersect_with_full_space_and_transverse_lines():
    u = fl.rref([[1, 2, 0], [0, 0, 1]], 3, 3)
    assert u.intersect(fl.full_subspace(3, 3)) == u
    e1 = fl.rref([[1, 0]], 2, 2)
    e2 = fl.rref([[0, 1]], 2, 2)
    assert e1.intersect(e2).dim == 0


def test_ambient_mismatch_reported():
    u = fl.rref([[1, 0]], 2, 2)
    v = fl.rref([[1, 0, 0]], 2, 3)
    with pytest.raises(fl.AmbientMismatchError):
        u.sum(v)
    with pytest.raises(fl.AmbientMismatchError):
        u.intersect(fl.rref([[1, 0]], 3, 2))


def test_kernel_of_identity_is_zero():
    assert fl.kernel(np.eye(5, dtype=np.int64), 2).dim == 0


def test_preimage_of_image_is_full_domain():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        m = rng.integers(0, p, size=(4, 6))
        w = fl.image(m, p)
        assert fl.preimage(m, w, p).dim == 4


def test_image_of_preimage_lands_inside():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        for _ in range(20):
            m = rng.integers(0, p, size=(5, 5))
            w = _random_subspace(rng, p, 5)
            pre = fl.preimage(m, w, p)
            if pre.dim:
                img = fl.image((pre.basis @ m) % p, p)
                assert w.contains_space(img)


def test_kernel_of_multiplication_by_generator_minus_one_on_cyclic_8():
    # right multiplication by (a - 1) on F_2 C_8: e_i -> e_{i+1} - e_i
    m = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        m[i, (i + 1) % 8] += 1
        m[i, i] -= 1
    m %= 2
    # independent oracle: brute force over all 2^8 vectors
    members = [
        v
        for bits in itertools.product(range(2), repeat=8)
        for v in [np.array(bits, dtype=np.int64)]
        if not ((v @ m) % 2).any()
    ]
    assert len(members) == 2  # a line over F_2
    nonzero = [v for v in members if v.any()]
    assert nonzero[0].tolist() == [1] * 8  # the sum of all group elements
    ker = fl.kernel(m, 2)
    assert ker.dim == 1
    assert ker.basis.tolist() == [[1] * 8]


def test_contains_examples():
    zero = fl.zero_subspace(2, 3)
    assert zero.contains([0, 0, 0])
    diag = fl.rref([[1, 1]], 2, 2)
    assert not diag.contains([1, 0])
    assert diag.contains([1, 1])


def test_quotient_dim_and_error_kinds():
    full = fl.full_subspace(3, 4)
    zero = fl.zero_subspace(3, 4)
    assert fl.quotient_dim(zero, full) == 4
    u = fl.rref([[1, 0, 0, 0]], 3, 4)
    v = fl.rref([[0, 1, 0, 0]], 3, 4)
    with pytest.raises(fl.NotSubspaceError):
        fl.quotient_dim(u, v)
    with pytest.raises(fl.AmbientMismatchError):
        fl.quotient_dim(fl.zero_subspace(3, 3), full)


def test_solve_row():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        m = rng.integers(0, p, size=(4, 6))
        x = rng.integers(0, p, size=4)
        v = (x @ m) % p
        sol = fl.solve_row(m, v, p)
        assert sol is not None
        assert np.array_equal((sol @ m) % p, v)
    # inconsistent system
    m = np.zeros((2, 2), dtype=np.int64)
    assert fl.solve_row(m, [1, 0], 2) is None


def test_subspace_builder_matches_one_shot_rref():
    rng = np.random.default_rng(19)
    for p in (2, 3):
        rows = rng.integers(0, p, size=(30, 12))
        builder = fl.SubspaceBuilder(p, 12)
        for start in range(0, 30, 7):
            builder.absorb(rows[start : start + 7])
        assert builder.subspace() == fl.rref(rows, p, 12)


def test_subquotient_coords_roundtrip():
    p = 2
    top = fl.rref([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], p, 4)
    bottom = fl.rref([[0, 0, 1, 0]], p, 4)
    q = fl.Subquotient(top, bottom)
    assert q.rank == 2
    for coords in ([0, 0], [1, 0], [0, 1], [1, 1]):
        rep = q.rep(coords)
        assert np.array_equal(q.coords(rep), np.array(coords))
    # shifting by the bottom space does not change coordinates
    shifted = (q.rep([1, 1]) + bottom.basis[0]) % p
    assert q.coords(shifted).tolist() == [1, 1]


def test_lex_complement_is_deterministic_complement():
    ker = fl.rref([[1, 1]], 2, 2)
    comp = fl.lex_complement(ker, 2, 2)
    assert comp.tolist() == [[0, 1]]  # the lexicographically least choice
    joined = fl.rref(np.concatenate([ker.basis, comp]), 2, 2)
    assert joined.dim == 2


def test_fp_vector_validation():
    v = fl.FpVector(3, (0, 2, 1))
    assert len(v) == 3
    with pytest.raises(ValueError):
        fl.FpVector(3, (0, 3, 1))
    with pytest.raises(ValueError):
        fl.FpVector(4, (0, 1))


# -- differential checks against the elimination oracle ``_rref`` -----------


def _matrix_of_rank(p, m, n, r, seed):
    """An m x n matrix over GF(p) of rank at most r (exactly r when generic)."""
    rng = np.random.default_rng(seed)
    if r == 0:
        return np.zeros((m, n), dtype=np.int64)
    return (rng.integers(0, p, size=(m, r)) @ rng.integers(0, p, size=(r, n))) % p


_shapes = dict(
    p=st.sampled_from([2, 3, 5, 7]),
    m=st.integers(min_value=0, max_value=9),
    n=st.integers(min_value=1, max_value=9),
    r=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(**_shapes, k=st.integers(min_value=0, max_value=9))
def test_sum_matches_rref_of_stacked_bases(p, m, n, r, seed, k):
    u = fl.rref(_matrix_of_rank(p, m, n, min(r, m, n), seed), p, n)
    v = fl.rref(_matrix_of_rank(p, k, n, k, seed + 1), p, n)
    for a, b in ((u, v), (v, u), (u, u), (u, fl.full_subspace(p, n))):
        s = a.sum(b)
        oracle_basis, oracle_pivots = fl._rref(np.concatenate([a.basis, b.basis]), p)
        assert s.pivots == oracle_pivots
        assert np.array_equal(s.basis, oracle_basis)


def _two_pass_kernel(a, p):
    """The kernel built from the free columns of rref(A^T), then eliminated again."""
    m = a.shape[0]
    red, pivots = fl._rref(a.T.copy(), p)
    free = [c for c in range(m) if c not in pivots]
    vecs = np.zeros((len(free), m), dtype=np.int64)
    for k, f in enumerate(free):
        vecs[k, f] = 1
        for i, c in enumerate(pivots):
            vecs[k, c] = (-red[i, f]) % p
    return fl._rref(vecs, p)


@settings(max_examples=150, deadline=None)
@given(**_shapes)
def test_kernel_matches_two_pass_construction(p, m, n, r, seed):
    a = _matrix_of_rank(p, m, n, min(r, m, n), seed)
    ker = fl.kernel(a, p)
    basis, pivots = _two_pass_kernel(a, p)
    assert ker.pivots == pivots
    assert np.array_equal(ker.basis, basis)
    assert not ((ker.basis @ a) % p).any()
    assert ker.dim == m - len(fl._rref(a, p)[1])


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=0, max_value=5),
    k=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_intersect_matches_rref_of_enumerated_common_vectors(p, n, m, k, seed):
    u = fl.rref(_matrix_of_rank(p, m, n, min(m, n), seed), p, n)
    v = fl.rref(_matrix_of_rank(p, k, n, min(k, n), seed + 1), p, n)
    every = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    for a, b in ((u, v), (v, u), (u, u), (u, fl.full_subspace(p, n))):
        common = ~a.reduce_rows(every).any(axis=1) & ~b.reduce_rows(every).any(axis=1)
        oracle_basis, oracle_pivots = fl._rref(every[common], p)
        s = a.intersect(b)
        assert s.pivots == oracle_pivots
        assert np.array_equal(s.basis, oracle_basis)
