import ast
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipkit import fp_linalg as fl
import greedy_oracle
from rref_oracle import oracle_intersect, oracle_kernel, oracle_preimage, oracle_rref


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


def test_rref_rejects_non_integral_entries():
    # refused, not truncated: cast to integers these span (0, 1) and (1, 1)
    for rows in ([[0.5, 1]], np.array([[1.9, 1.0]])):
        with pytest.raises(ValueError, match="must be integers, not float64"):
            fl.rref(rows, 2)
    assert fl.rref(np.array([[True, True]]), 2).basis.tolist() == [[1, 1]]
    assert fl.rref(np.array([[2, 4]], dtype=np.uint8), 3).basis.tolist() == [[1, 2]]
    # 2^63 = 2 mod 3; cast to int64 first it would wrap to -2^63 = 1 mod 3
    assert fl.rref(np.array([[2**63, 1]], dtype=np.uint64), 3).basis.tolist() == [[1, 2]]


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


def test_sum_with_the_zero_space_is_the_other_operand():
    # on either side, for a labelled and an unlabelled space, with no
    # builder made; the zero space may itself be the discrete partition
    spaces = (fl.rref([[1, 0, 1], [0, 1, 0]], 2, 3), fl.partition_subspace(2, [0, 0, 2]))
    zeros = (fl.zero_subspace(2, 3), fl.partition_subspace(2, [0, 1, 2]))
    with mock.patch.object(fl.SubspaceBuilder, "from_subspace", side_effect=AssertionError):
        for v in spaces:
            for zero in zeros:
                assert v.sum(zero) is v
                assert zero.sum(v) is v


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
    assert fl.kernel(np.eye(5, dtype=np.int64), 2) == fl.zero_subspace(2, 5)


def test_preimage_of_image_is_full_domain():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        m = rng.integers(0, p, size=(4, 6))
        w = fl.rref(m, p)
        assert fl.preimage(m, w, p).dim == 4


def test_image_of_preimage_lands_inside():
    rng = np.random.default_rng(5)
    for p in (2, 3):
        for _ in range(20):
            m = rng.integers(0, p, size=(5, 5))
            w = _random_subspace(rng, p, 5)
            pre = fl.preimage(m, w, p)
            if pre.dim:
                img = fl.rref((pre.basis @ m) % p, p)
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
    # the zero space leaves rows as they are, in a fresh array
    rows = np.array([[1, 0, 1], [0, 1, 1]])
    residual = zero.reduce_rows(rows)
    assert np.array_equal(residual, rows) and not np.shares_memory(residual, rows)
    diag = fl.rref([[1, 1]], 2, 2)
    assert not diag.contains([1, 0])
    assert diag.contains([1, 1])


def test_quotient_dim_and_error_kinds():
    full = fl.full_subspace(3, 4)
    zero = fl.zero_subspace(3, 4)
    assert fl.Subquotient(full, zero).rank == 4
    u = fl.rref([[1, 0, 0, 0]], 3, 4)
    v = fl.rref([[0, 1, 0, 0]], 3, 4)
    with pytest.raises(fl.NotSubspaceError):
        fl.Subquotient(v, u)
    with pytest.raises(fl.AmbientMismatchError):
        fl.Subquotient(full, fl.zero_subspace(3, 3))


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
        rep = np.array(coords) @ q.basis_rows % p
        assert np.array_equal(q.coords(rep), np.array(coords))
    # shifting by the bottom space does not change coordinates
    shifted = (q.basis_rows.sum(axis=0) + bottom.basis[0]) % p
    assert q.coords(shifted).tolist() == [1, 1]


def test_vectors_reject_non_integral_entries():
    # refused, not truncated: cast to integers these read (0, 1) and (1, 0)
    with pytest.raises(ValueError, match="must be integers, not float64"):
        fl.as_vector([0.5, 1.7], 2)
    with pytest.raises(ValueError, match="must be integers, not float64"):
        fl.rref([[1, 0]], 2).contains([1.9, 0.2])
    with pytest.raises(ValueError, match="must be integers, not float64"):
        fl.solve_row(np.eye(2, dtype=np.int64), [1.0, 0.0], 2)
    assert fl.as_vector([True, False, True], 2).tolist() == [1, 0, 1]
    assert fl.as_vector(np.array([2, 4], dtype=np.uint8), 3).tolist() == [2, 1]
    # 2^63 = 2 mod 3; cast to int64 first it would wrap to -2^63 = 1 mod 3
    assert fl.as_vector(np.array([2**63, 1], dtype=np.uint64), 3).tolist() == [2, 1]
    assert fl.rref([[1, 1]], 2).contains(np.array([True, True]))


def test_fp_vector_validation():
    # vectors enter as sequences or arrays, reduced mod p on the way in
    assert fl.as_vector((0, 5, -2), 3).tolist() == [0, 2, 1]
    with pytest.raises(ValueError):
        fl.as_vector([[0, 1]], 3)
    with pytest.raises(fl.AmbientMismatchError):
        fl.as_vector((0, 1), 3, 3)
    with pytest.raises(ValueError):
        fl.rref([(0, 1)], 4)


# -- differential checks against the elimination oracle ``oracle_rref`` ----


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
        oracle_basis, oracle_pivots = oracle_rref(np.concatenate([a.basis, b.basis]), p)
        assert s.pivots == oracle_pivots
        assert np.array_equal(s.basis, oracle_basis)


@settings(max_examples=150, deadline=None)
@given(**_shapes)
def test_kernel_matches_two_pass_construction(p, m, n, r, seed):
    a = _matrix_of_rank(p, m, n, min(r, m, n), seed)
    ker = fl.kernel(a, p)
    _assert_same_space(ker, oracle_kernel(a, p))
    assert not ((ker.basis @ a) % p).any()
    assert ker.dim == m - len(oracle_rref(a, p)[1])


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
        oracle_basis, oracle_pivots = oracle_rref(every[common], p)
        s = a.intersect(b)
        assert s.pivots == oracle_pivots
        assert np.array_equal(s.basis, oracle_basis)


# -- the one elimination and the exact product, against the oracle ---------

# the widest ambient space each prime meets: the order cap of its groups
_ORDER_CAP = {2: 128, 3: 243, 5: 125, 7: 49}


def _exact_rank(rng, p, m, n, r):
    """A random m x n matrix over GF(p) of rank exactly r."""
    # [I; X] @ [I | Y] has rank exactly r; permuting rows and columns keeps it
    left = np.concatenate([np.eye(r, dtype=np.int64), rng.integers(0, p, size=(m - r, r))])
    right = np.concatenate([np.eye(r, dtype=np.int64), rng.integers(0, p, size=(r, n - r))], axis=1)
    return ((left @ right) % p)[rng.permutation(m)][:, rng.permutation(n)]


@st.composite
def _sparse_matrices(draw):
    """(p, A): an m x n matrix over GF(p) of exact rank r, 0 <= r <= min(m, n),
    narrow or as wide as the prime's order cap, then with some rows and
    columns zeroed."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.one_of(st.integers(min_value=1, max_value=9), st.just(_ORDER_CAP[p])))
    m = draw(st.integers(min_value=0, max_value=12))
    r = draw(st.integers(min_value=0, max_value=min(m, n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = _exact_rank(rng, p, m, n, r)
    if m:
        a[draw(st.lists(st.integers(0, m - 1), max_size=3)), :] = 0
    a[:, draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0
    return p, a


def _oracle_solve_row(a, v, p):
    """solve_row as it was, on the oracle elimination."""
    aug = np.concatenate([a.T % p, v.reshape(-1, 1)], axis=1)
    red, pivots = oracle_rref(aug, p)
    if a.shape[0] in pivots:
        return None
    x = np.zeros(a.shape[0], dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = red[i, -1]
    return x


@settings(max_examples=200, deadline=None)
@given(pa=_sparse_matrices(), data=st.data())
def test_elimination_entry_points_match_oracle(pa, data):
    p, a = pa
    m, n = a.shape
    basis, pivots = oracle_rref(a, p)
    s = fl.rref(a, p, n)
    assert s.pivots == pivots
    assert np.array_equal(s.basis, basis)

    _assert_same_space(fl.kernel(a, p), oracle_kernel(a, p))

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for v in ((rng.integers(0, p, size=m) @ a) % p, rng.integers(0, p, size=n)):
        got, want = fl.solve_row(a, v, p), _oracle_solve_row(a, v, p)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)

    # the same rows absorbed in random blocks, possibly on top of a seed space
    cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=4)))
    blocks = np.split(a, cuts)
    builder = fl.SubspaceBuilder(p, n)
    assert sum(builder.absorb(block) for block in blocks) == len(pivots)
    assert builder.subspace() == s
    assert np.array_equal(builder.subspace().basis, basis)


@settings(max_examples=200, deadline=None)
@given(pa=_sparse_matrices(), data=st.data())
def test_subquotient_coords_match_oracle(pa, data):
    p, a = pa
    n = a.shape[1]
    top = fl.rref(a, p, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(0, top.dim))
    bottom = fl.rref((rng.integers(0, p, size=(k, top.dim)) @ top.basis) % p, p, n)
    q = fl.Subquotient(top, bottom)
    solve_matrix = np.concatenate([q.basis_rows, bottom.basis])
    for _ in range(4):
        v = (rng.integers(0, p, size=top.dim) @ top.basis) % p
        want = _oracle_solve_row(solve_matrix, v, p)
        assert np.array_equal(q.coords(v), want[: q.rank])
    outside = [c for c in range(n) if c not in top.pivots]
    if outside:
        with pytest.raises(fl.NotSubspaceError):
            q.coords(np.eye(n, dtype=np.int64)[outside[0]])
    with pytest.raises(fl.AmbientMismatchError):
        q.coords(np.zeros(n + 1, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mm_exact_at_the_widest_inner_dimension(p):
    k = _ORDER_CAP[p]
    a = np.full((3, k), p - 1, dtype=np.int64)
    b = np.full((k, 4), p - 1, dtype=np.int64)
    assert np.array_equal(fl._mm(a, b, p), (a @ b) % p)
    assert fl._mm(a, b, p).dtype == np.int64


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_mm_rejects_an_inexact_inner_dimension(p):
    # zero-row and zero-column operands: nothing is allocated
    with pytest.raises(OverflowError):
        fl._mm(np.zeros((0, 2**53)), np.zeros((2**53, 0)), p)


def _is_float_dtype(node) -> bool:
    """``float``, a numpy float type, or a dtype string of kind 'f'."""
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Attribute):
        return (
            isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and (node.attr.startswith("float") or node.attr in ("double", "single", "half", "longdouble"))
        )
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return np.dtype(node.value).kind == "f"
        except TypeError:
            return False
    return False


def _float_dtype_uses(tree, skip=()):
    """Line numbers where a float dtype is named, passed as ``dtype=`` or to
    ``astype``, outside the nodes in ``skip``."""
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and _is_float_dtype(node):
            lines.append(node.lineno)
        elif isinstance(node, ast.keyword) and node.arg == "dtype" and _is_float_dtype(node.value):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and _is_float_dtype(node.args[0])
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_float_dtype_outside_the_exact_product():
    # arithmetic stays exact: only _mm, whose bound makes float64 exact,
    # may compute in floating point
    found = []
    for path in sorted(Path(fl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        if path.name == "fp_linalg.py":
            mm = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_mm")
            skip = {id(n) for n in ast.walk(mm)}
        found += [f"{path.name}:{line}" for line in _float_dtype_uses(tree, skip)]
    assert not found, found


def test_float_dtype_guard_sees_each_form():
    code = "np.float32\nx.astype(float)\nnp.zeros(3, dtype='f8')\nnp.zeros(3, dtype=np.int64)\n"
    assert _float_dtype_uses(ast.parse(code)) == [1, 2, 3]


# -- partition spaces: closed form and label join, against the oracle ------


@st.composite
def _partitions(draw, n):
    """Least-index block labels of a partition of range(n): discrete, one
    block, or a random assignment to at most ``k`` blocks."""
    kind = draw(st.sampled_from(["discrete", "one block", "random"]))
    if kind == "discrete":
        return np.arange(n)
    if kind == "one block":
        return np.zeros(n, dtype=np.int64)
    k = draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    _, first, inverse = np.unique(rng.integers(0, k, size=n), return_index=True, return_inverse=True)
    return first[inverse]


def _difference_rows(labels, p):
    """The spanning set {e_g - e_root(g)} of a partition space."""
    n = labels.shape[0]
    rows = np.flatnonzero(labels != np.arange(n))
    diff = np.zeros((rows.size, n), dtype=np.int64)
    diff[np.arange(rows.size), rows] = 1
    diff[np.arange(rows.size), labels[rows]] = p - 1
    return diff


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_partition_subspace_matches_oracle(p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    a = data.draw(_partitions(n))
    b = data.draw(_partitions(n))
    u, v = fl.partition_subspace(p, a), fl.partition_subspace(p, b)
    for labels, space in ((a, u), (b, v)):
        basis, pivots = oracle_rref(_difference_rows(labels, p), p)
        assert space.pivots == pivots
        assert np.array_equal(space.basis, basis)
        # equality and hashing ignore the labels
        same = fl.rref(basis, p, n)
        assert same.labels is None
        assert space == same and hash(space) == hash(same)

    s = u.sum(v)
    assert s.labels is not None
    basis, pivots = oracle_rref(np.concatenate([u.basis, v.basis]), p)
    assert s.pivots == pivots
    assert np.array_equal(s.basis, basis)
    # the sum of a labelled and an unlabelled space is eliminated as before
    assert fl.rref(u.basis, p, n).sum(v) == s

    # a block labelled by its greatest index, or a label naming a non-root
    non_roots = np.flatnonzero(a != np.arange(n))
    if non_roots.size:
        g = int(non_roots[0])
        block = a == a[g]
        above = a.copy()
        above[block] = np.flatnonzero(block)[-1]
        assert np.array_equal(above[above], above)
        with pytest.raises(ValueError):
            fl.partition_subspace(p, above)
        if g + 1 < n:
            chained = a.copy()
            chained[n - 1] = g
            with pytest.raises(ValueError):
                fl.partition_subspace(p, chained)


def test_partition_subspace_rejects_malformed_labels():
    for bad in ([-1, 1], [0, 2], [[0, 1]]):
        with pytest.raises(ValueError):
            fl.partition_subspace(2, bad)


def test_partition_spaces_intersect_beyond_the_meet_partition():
    # blocks {0,1},{2,3} and {0,2},{1,3}: the meet partition is discrete,
    # yet (1, -1, -1, 1) lies in both spaces
    u = fl.partition_subspace(3, [0, 0, 2, 2])
    v = fl.partition_subspace(3, [0, 1, 0, 1])
    common = u.intersect(v)
    assert common.dim == 1
    assert common.contains([1, 2, 2, 1])
    assert fl.partition_subspace(3, [0, 1, 2, 3]).dim == 0
    assert u.sum(v) == fl.partition_subspace(3, [0, 0, 0, 0])


# -- the labelled builder: label joins against the oracle -------------------


def _scaled_differences(rng, p, n, k, labels=None):
    """k rows c(e_a - e_b) with random ends and scales, both ends in one
    block of ``labels`` when given: a == b gives a zero row, and copies of
    some rows are appended as they are (a repeated edge) and negated (the
    same edge with its ends swapped)."""
    a, b = rng.integers(0, n, size=(2, k))
    if labels is not None:
        b = np.array([rng.choice(np.flatnonzero(labels == labels[x])) for x in a], dtype=np.int64)
    c = rng.integers(1, p, size=k)
    rows = np.zeros((k, n), dtype=np.int64)
    rows[np.arange(k), a] += c
    rows[np.arange(k), b] -= c
    j = int(rng.integers(0, k + 1))
    return np.concatenate([rows, rows[:j], -rows[:j]]) % p


def _check_builder(p, n, blocks, start=None):
    """Absorb ``blocks`` into a builder (seeded with ``start``) and compare
    it with the oracle's elimination of every row; returns the space."""
    if start is None:
        builder = fl.SubspaceBuilder(p, n)
        seed_rows, seed_dim = [], 0
    else:
        builder = fl.SubspaceBuilder.from_subspace(start)
        seed_rows, seed_dim = [start.basis], start.dim
    gained = [builder.absorb(block) for block in blocks]
    basis, pivots = oracle_rref(np.concatenate(seed_rows + blocks + [np.zeros((0, n), dtype=np.int64)]), p)
    space = builder.subspace()
    assert space.pivots == pivots
    assert np.array_equal(space.basis, basis)
    assert seed_dim + sum(gained) == len(pivots) == builder.dim
    assert all(g >= 0 for g in gained)
    return space


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_builder_on_difference_and_general_blocks_matches_oracle(p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = data.draw(st.lists(st.sampled_from(["differences", "general"]), max_size=5))
    blocks = [
        _scaled_differences(rng, p, n, int(rng.integers(0, 2 * n + 1)))
        if kind == "differences"
        else rng.integers(0, p, size=(int(rng.integers(0, 4)), n))
        for kind in kinds
    ]
    start = data.draw(st.one_of(st.none(), _partitions(n)))
    if start is not None:
        start = fl.partition_subspace(p, start)
    space = _check_builder(p, n, blocks, start)
    if all(kind == "differences" for kind in kinds):
        assert space.labels is not None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_builder_joins_a_path_graph_on_243_points(p, order):
    # the worst case for label propagation: one block, one edge at a time
    n = 243
    points = np.arange(n)
    if order == "decreasing":
        points = points[::-1]
    elif order == "shuffled":
        points = np.random.default_rng(5).permutation(n)
    rows = np.zeros((n - 1, n), dtype=np.int64)
    rows[np.arange(n - 1), points[:-1]] = 1
    rows[np.arange(n - 1), points[1:]] = p - 1
    space = _check_builder(p, n, [rows])
    assert space.dim == n - 1
    assert np.array_equal(space.labels, np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize(
    "row, difference_over",
    [
        ([1, -1, 1, -1, 0, 0], ()),  # e_a - e_b + e_c - e_d: two differences in one row
        ([0, 1, 0, 0, 1, 0], (2,)),  # e_a + e_b: a difference over GF(2) only
        ([1, 1, 1, 0, 0, 0], ()),  # three nonzeros summing to 0 over GF(3)
        ([0, 0, 1, 0, 0, 0], ()),
    ],
)
def test_builder_eliminates_a_row_that_is_not_a_difference(p, row, difference_over):
    row = np.array([row], dtype=np.int64) % p
    first = np.array([[0, 0, 0, 0, 1, p - 1]], dtype=np.int64)
    for start in (None, fl.partition_subspace(p, [0, 0, 2, 3, 4, 5])):
        space = _check_builder(p, 6, [first, row], start)
        assert (space.labels is not None) == (p in difference_over)


# -- partition spaces answer from their labels, against the oracle ---------


def _oracle_contains(labels, p, rows):
    """Whether every row lies in the partition space of ``labels``: the
    oracle's rank of its spanning set does not grow with the rows."""
    span = _difference_rows(labels, p)
    rank = len(oracle_rref(span, p)[1])
    return len(oracle_rref(np.concatenate([span, rows]), p)[1]) == rank


def _contains_all_spied(space, rows):
    """``space.contains_all(rows)``, and whether it answered without
    reducing the rows against a basis."""
    with mock.patch.object(
        fl.Subspace, "reduce_rows", autospec=True, side_effect=fl.Subspace.reduce_rows
    ) as spy:
        answer = space.contains_all(rows)
    return answer, not spy.called


def _basis_written(space):
    try:
        fl.Subspace.basis.__get__(space)
    except AttributeError:
        return False
    return True


@st.composite
def _coarsenings(draw, labels):
    """Least-index labels of a partition whose blocks are unions of the
    blocks of ``labels``."""
    k = draw(st.integers(min_value=1, max_value=labels.size))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    key = rng.integers(0, k, size=labels.size)[labels]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse]


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_labelled_contains_all_matches_oracle(p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    labels = data.draw(_partitions(n))
    space = fl.partition_subspace(p, labels)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = data.draw(
        st.lists(st.sampled_from(["in blocks", "differences", "zero", "general"]), min_size=1, max_size=3)
    )
    parts = []
    for kind in kinds:
        k = int(rng.integers(0, 6))
        if kind == "in blocks":
            parts.append(_scaled_differences(rng, p, n, k, labels))
        elif kind == "differences":
            parts.append(_scaled_differences(rng, p, n, k))
        elif kind == "zero":
            parts.append(np.zeros((k, n), dtype=np.int64))
        else:
            parts.append(rng.integers(0, p, size=(k, n)))
    rows = np.concatenate(parts)
    rows = rows[rng.permutation(rows.shape[0])]
    answer, from_labels = _contains_all_spied(space, rows)
    assert answer == _oracle_contains(labels, p, rows)
    if "general" not in kinds:
        assert from_labels


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("labels", [[0, 1, 1, 0], [0, 0, 2, 2], [0, 1, 0, 1], [0, 0, 0, 0], [0, 1, 2, 3]])
@pytest.mark.parametrize(
    "row",
    [
        [1, -1, 1, -1],  # e_a - e_b + e_c - e_d: in the space over blocks {0,3},{1,2}
        [1, 1, 0, 0],  # e_a + e_b: a difference over GF(2) only
    ],
)
def test_labelled_contains_all_reduces_rows_that_are_not_differences(p, labels, row):
    labels = np.array(labels, dtype=np.int64)
    row = np.array([row], dtype=np.int64) % p
    answer, from_labels = _contains_all_spied(fl.partition_subspace(p, labels), row)
    assert answer == _oracle_contains(labels, p, row)
    assert from_labels == (np.count_nonzero(row) == 2 and p == 2)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_labelled_containment_and_equality_match_oracle(p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    a = data.draw(_partitions(n))
    b = data.draw(st.one_of(_partitions(n), _coarsenings(a), st.just(a.copy())))
    u, v = fl.partition_subspace(p, a), fl.partition_subspace(p, b)
    basis_u, pivots_u = oracle_rref(_difference_rows(a, p), p)
    basis_v, pivots_v = oracle_rref(_difference_rows(b, p), p)
    # a space contains the other when the sum is no larger than it
    rank_sum = len(oracle_rref(np.concatenate([basis_u, basis_v]), p)[1])
    assert u.contains_space(v) == (rank_sum == len(pivots_u))
    assert v.contains_space(u) == (rank_sum == len(pivots_v))
    same = pivots_u == pivots_v and np.array_equal(basis_u, basis_v)
    assert (u == v) == (v == u) == same
    # an eagerly built copy compares by its basis
    copy_v = fl.rref(basis_v, p, n)
    assert (u == copy_v) == (copy_v == u) == same
    assert u.contains_space(copy_v) == u.contains_space(v)
    # a sum that joins no blocks is the larger operand itself
    if u.contains_space(v):
        assert u.sum(v) is u


@pytest.mark.parametrize("first", ["dim", "pivots", "basis", "hash"])
@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_lazy_partition_space_reads_like_its_rref_copy(first, p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    labels = data.draw(_partitions(n))
    space = fl.partition_subspace(p, labels)
    assert not _basis_written(space)
    copy = fl.rref(oracle_rref(_difference_rows(labels, p), p)[0], p, n)
    reads = {"dim": lambda s: s.dim, "pivots": lambda s: s.pivots, "basis": lambda s: s.basis, "hash": hash}
    for key in [first] + [k for k in reads if k != first]:
        if key == "basis":
            assert np.array_equal(space.basis, copy.basis)
            assert space.basis.dtype == copy.basis.dtype
            assert not space.basis.flags.writeable
        else:
            assert reads[key](space) == reads[key](copy), key
    assert _basis_written(space)


def test_labelled_operations_write_no_basis():
    # containment of a space reads the basis, labelled or not; equality
    # reads it unless both sides are labelled
    p, n = 3, 9
    u = fl.partition_subspace(p, [0, 0, 2, 2, 4, 5, 5, 7, 7])
    v = fl.partition_subspace(p, [0, 1, 1, 3, 3, 5, 6, 7, 8])
    builder = fl.SubspaceBuilder(p, n)
    builder.absorb([[0, 0, 0, 0, 0, 1, 2, 0, 0], [0, 0, 0, 0, 0, 0, 0, 2, 1]])
    built = builder.subspace()
    total = u.sum(v)
    assert total.dim == 6 and total.sum(u) is total
    assert u.contains_all([[1, 2, 0, 0, 0, 0, 0, 0, 0], [0] * 9])
    assert built.dim == 2
    assert u != v and total == v.sum(u)
    assert built == fl.partition_subspace(p, [0, 1, 2, 3, 4, 5, 5, 7, 7])
    assert built != fl.partition_subspace(p, [0, 1, 2, 3, 4, 5, 6, 5, 6])
    for space in (u, v, built, total):
        assert not _basis_written(space)
    # spaces built by elimination hold their basis from the start
    assert _basis_written(fl.rref(u.basis, p, n))


# -- intersect and preimage against the stacked-basis oracles --------------


@st.composite
def _operand_specs(draw, p, n):
    """How to build one subspace of GF(p)^n: zero, full, a partition space
    (labelled) or the span of random rows."""
    kind = draw(st.sampled_from(["zero", "full", "partition", "random"]))
    if kind == "partition":
        return kind, draw(_partitions(n))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        m = draw(st.integers(min_value=0, max_value=min(n, 9) + 2))
        return kind, _exact_rank(rng, p, m, n, draw(st.integers(min_value=0, max_value=min(m, n))))
    return kind, None


def _build_operand(p, n, spec):
    kind, data = spec
    if kind == "zero":
        return fl.zero_subspace(p, n)
    if kind == "full":
        return fl.full_subspace(p, n)
    if kind == "partition":
        return fl.partition_subspace(p, data)
    return fl.rref(data, p, n)


def _assert_same_space(got, want):
    assert got.pivots == want.pivots
    assert np.array_equal(got.basis, want.basis)
    assert got == want and want == got and hash(got) == hash(want)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_intersect_and_preimage_match_the_stacked_oracles(p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    specs = [data.draw(_operand_specs(p, n)) for _ in range(2)]
    # the library and the oracle each get their own operands, so the library
    # meets partition spaces whose basis no read has written yet
    u, v = (_build_operand(p, n, spec) for spec in specs)
    ou, ov = (_build_operand(p, n, spec) for spec in specs)
    _assert_same_space(u.intersect(v), oracle_intersect(ou, ov))
    _assert_same_space(v.intersect(u), oracle_intersect(ov, ou))
    _assert_same_space(u.intersect(u), oracle_intersect(ou, ou))
    # a map with some rows inside the target space and some drawn at random
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    inside = (rng.integers(0, p, size=(data.draw(st.integers(0, 4)), ov.dim)) @ ov.basis) % p
    anywhere = rng.integers(0, p, size=(data.draw(st.integers(0, 4)), n))
    mat = np.concatenate([inside, anywhere])[rng.permutation(inside.shape[0] + anywhere.shape[0])]
    _assert_same_space(fl.preimage(mat, v, p), oracle_preimage(mat, ov, p))
    _assert_same_space(fl.preimage(u.basis, v, p), oracle_preimage(ou.basis, ov, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m, n", [(0, 0), (0, 4), (3, 3), (2, 5)])
def test_kernel_with_no_free_column_is_the_zero_space(p, m, n):
    # a matrix of full row rank m, including one with no rows
    a = _exact_rank(np.random.default_rng(10 * m + n), p, m, n, m)
    ker = fl.kernel(a, p)
    zero = fl.zero_subspace(p, m)
    _assert_same_space(ker, zero)
    assert ker.basis.shape == (0, m) and ker.basis.dtype == np.int64


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subquotient_of_rank_zero_represents_by_the_zero_vector(p):
    n = 5
    tops = [
        fl.zero_subspace(p, n),
        fl.full_subspace(p, n),
        fl.partition_subspace(p, [0, 0, 2, 2, 4]),
        fl.rref([[1, 2, 0, 1, 1]], p, n),
    ]
    for top in tops:
        q = fl.Subquotient(top, fl.rref(top.basis, p, n))
        assert q.rank == 0
        assert q.basis_rows.shape == (0, n)  # the empty sum, zero, represents the one class
        for row in top.basis:
            assert q.coords(row).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(pa=_sparse_matrices(), data=st.data())
def test_subquotient_matches_greedy_oracle(pa, data):
    # bottom from rank 0 to all of top, representative rows and coordinates
    p, a = pa
    n = a.shape[1]
    top = fl.rref(a, p, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(min_value=0, max_value=top.dim))
    extra = data.draw(st.integers(min_value=0, max_value=2))
    mix = _exact_rank(rng, p, k + extra, top.dim, k)
    bottom = fl.rref(fl._mm(mix, top.basis, p), p, n)
    assert bottom.dim == k
    q = fl.Subquotient(top, bottom)
    basis_rows, coord_map = greedy_oracle.subquotient(top, bottom)
    assert q.rank == top.dim - k
    assert q.basis_rows.shape == basis_rows.shape
    assert np.array_equal(q.basis_rows, basis_rows)
    for _ in range(4):
        v = fl._mm(rng.integers(0, p, size=(1, top.dim)), top.basis, p)[0]
        assert np.array_equal(q.coords(v), greedy_oracle.subquotient_coords(top, coord_map, v))


def _functions_where(tree, match):
    """Names of the innermost functions of ``tree`` (``Class.name`` for a
    method) that hold a node satisfying ``match``."""
    found = set()

    def visit(node, name, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, name, child.name)
            elif isinstance(child, ast.FunctionDef):
                visit(child, f"{owner}.{child.name}" if owner else child.name, "")
            else:
                if match(child):
                    found.add(name)
                visit(child, name, owner)

    visit(tree, None, "")
    return found


def test_one_elimination_and_one_column_reversal():
    # the subquotient is the annihilator ``kernel``, with no elimination of
    # its own: the reversed-column elimination lives in ``kernel`` alone
    tree = ast.parse(Path(fl.__file__).read_text())
    calls = _functions_where(tree, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_rref")
    assert calls == {"rref", "kernel", "solve_row", "SubspaceBuilder.absorb"}
    reversed_columns = _functions_where(
        tree, lambda n: isinstance(n, ast.Subscript) and ast.unparse(n).endswith("[:, ::-1]")
    )
    assert reversed_columns == {"kernel"}


# -- function matrices: kernel and preimage read off labels ----------------


@st.composite
def _function_matrices(draw, p):
    """An m x k function matrix, row g the unit vector e_pi(g): m and k
    apart, up to the prime's order cap, pi onto range(k) or not."""
    m = draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    k = draw(st.integers(min_value=1, max_value=m + 3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pi = rng.integers(0, k, size=m)
    if k <= m and draw(st.booleans()):
        pi[rng.permutation(m)[:k]] = np.arange(k)  # onto
    a = np.zeros((m, k), dtype=np.int64)
    a[np.arange(m), pi] = 1
    return a


def _rref_spied(fn, *args):
    """``fn(*args)``, and whether it called the elimination ``_rref``."""
    with mock.patch.object(fl, "_rref", side_effect=fl._rref) as spy:
        result = fn(*args)
    return result, spy.called


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_function_matrix_kernel_and_preimage_read_off_labels(p, data):
    a = data.draw(_function_matrices(p))
    k = a.shape[1]
    labels = data.draw(_partitions(k))
    ker, eliminated = _rref_spied(fl.kernel, a, p)
    assert ker.labels is not None and not eliminated
    _assert_same_space(ker, oracle_kernel(a, p))
    pre, eliminated = _rref_spied(fl.preimage, a, fl.partition_subspace(p, labels), p)
    assert pre.labels is not None and not eliminated
    _assert_same_space(pre, oracle_preimage(a, fl.partition_subspace(p, labels), p))
    # the same target held by its basis alone is reduced against, as before
    copy = fl.rref(_difference_rows(labels, p), p, k)
    _assert_same_space(fl.preimage(a, copy, p), oracle_preimage(a, copy, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize(
    "a, function_over_gf2",
    [
        ([[1, 0, 0], [0, 2, 0], [0, 0, 1], [1, 0, 0]], False),  # an entry 2: a zero row over GF(2)
        ([[1, 1, 0], [0, 0, 1], [0, 1, 0]], False),  # two 1s in one row
        ([[1, 0], [0, 0], [0, 1], [0, 1]], False),  # a zero row
        ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], True),  # an entry -1: a 1 over GF(2)
        (np.zeros((0, 3), dtype=np.int64), False),  # no rows
        (np.zeros((3, 0), dtype=np.int64), False),  # no columns
    ],
    ids=["entry 2", "two ones", "zero row", "entry -1", "no rows", "no columns"],
)
def test_near_function_matrices_are_eliminated(p, a, function_over_gf2):
    a = np.array(a, dtype=np.int64).reshape(np.shape(a)) % p
    function = function_over_gf2 and p == 2
    ker, eliminated = _rref_spied(fl.kernel, a, p)
    assert eliminated != function and (ker.labels is not None) == function
    _assert_same_space(ker, oracle_kernel(a, p))
    labels = np.zeros(a.shape[1], dtype=np.int64)
    pre, eliminated = _rref_spied(fl.preimage, a, fl.partition_subspace(p, labels), p)
    assert eliminated != function
    _assert_same_space(pre, oracle_preimage(a, fl.partition_subspace(p, labels), p))


@st.composite
def _rearrangements(draw, labels):
    """Least-index labels of a partition with the same block sizes as
    ``labels``, so of the same dimension: its points permuted."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    _, first, inverse = np.unique(labels[rng.permutation(labels.size)], return_index=True, return_inverse=True)
    return first[inverse]


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_labelled_equality_matches_equality_of_rref_copies(p, data):
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=12), st.just(_ORDER_CAP[p])))
    a = data.draw(_partitions(n))
    b = data.draw(st.one_of(_partitions(n), _coarsenings(a), _rearrangements(a), st.just(a.copy())))
    u, v = fl.partition_subspace(p, a), fl.partition_subspace(p, b)
    copy_u, copy_v = (fl.rref(_difference_rows(x, p), p, n) for x in (a, b))
    assert (u == v) == (v == u) == (copy_u == copy_v)
    assert not _basis_written(u) and not _basis_written(v)
