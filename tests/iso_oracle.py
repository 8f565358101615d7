"""The library's isomorphism search as it stood when it checked each
commutator relation through inverses and filled the candidate matrix in
mixed-radix tuple order, kept as the oracle for the differential tests."""

import itertools
from typing import Optional

import numpy as np

from mipkit import modular_algebra as ma
from mipkit.group_core import CapExceededError


def inverse_exponent(B: ma.GroupAlgebra) -> int:
    """An e with u^e = u^-1 for every unit u of augmentation 1.

    Such units have p-power order because I(B) is nilpotent: with
    p^k >= nilpotency_index(B), (u - 1)^{p^k} = 0, so u^{p^k} = 1.
    """
    nil = ma.nilpotency_index(B)
    k = 1
    while B.p**k < nil:
        k += 1
    return B.p**k - 1


def oracle_iso_search_iter(A: ma.GroupAlgebra, B: ma.GroupAlgebra):
    """All augmentation-preserving isomorphisms kG -> kH, lazily, in the
    library's candidate order."""
    if A.dim != B.dim:
        return
    if A.dim > ma.ISO_SEARCH_DIM_CAP:
        raise CapExceededError(f"iso search capped at dimension {ma.ISO_SEARCH_DIM_CAP}")
    presentation = A.group.presentation
    if presentation is None:
        raise ValueError("iso search needs a power-commutator presentation")
    d = len(presentation.rel_orders)
    if d > ma.ISO_SEARCH_GEN_CAP:
        raise CapExceededError(f"iso search capped at {ma.ISO_SEARCH_GEN_CAP} generators")

    units = ma._unit_candidates(B)
    inverse_e = inverse_exponent(B)
    radices = presentation.rel_orders
    one = np.zeros(B.dim, dtype=np.int64)
    one[0] = 1
    power_tables: dict[int, np.ndarray] = {}

    def power(u: int, e: int) -> np.ndarray:
        if e == 1:
            return units[u].astype(np.int64)
        table = power_tables.get(e)
        if table is None:
            table = power_tables[e] = np.full(units.shape, -1, dtype=np.int8)
        if table[u, 0] < 0:
            table[u] = B.power_vec(units[u].astype(np.int64), e)
        return table[u].astype(np.int64)

    def eval_word(word, images: list[int]) -> np.ndarray:
        acc = one
        for g, e in word:
            factor = power(images[g], e)
            acc = factor if acc is one else B.multiply_vec(acc, factor)
        return acc

    def power_holds(im: list[int], i: int, word) -> bool:
        return np.array_equal(power(im[i], radices[i]), eval_word(word, im))

    def commutator_holds(im: list[int], i: int, j: int, word) -> bool:
        ui, uj = power(im[i], 1), power(im[j], 1)
        if word is None:
            # a commutator the presentation omits is trivial: the images commute
            return np.array_equal(B.multiply_vec(uj, ui), B.multiply_vec(ui, uj))
        lhs = B.multiply_vec(
            B.multiply_vec(power(im[j], inverse_e), power(im[i], inverse_e)),
            B.multiply_vec(uj, ui),
        )
        return np.array_equal(lhs, eval_word(word, im))

    checks: list[list] = [[] for _ in range(d)]
    for i in range(d):
        word = presentation.power_word(i)
        checks[max([i] + [g for g, _ in word])].append((power_holds, (i, word)))
    for j in range(d):
        for i in range(j):
            word = presentation.commutators.get((j, i))
            last = max([j] + [g for g, _ in word or ()])
            checks[last].append((commutator_holds, (i, j, word)))

    def prefiltered(i: int) -> list[int]:
        if presentation.power_word(i):
            return list(range(len(units)))
        return [u for u in range(len(units)) if np.array_equal(power(u, radices[i]), one)]

    tuples = list(itertools.product(*[range(m) for m in radices]))

    def build_iso(images: list[np.ndarray]) -> Optional[ma.AlgebraIso]:
        vecs: dict[tuple, np.ndarray] = {}
        for tup in tuples:
            if not any(tup):
                v = one.copy()
            else:
                i = max(k for k in range(d) if tup[k])
                prev = list(tup)
                prev[i] -= 1
                v = B.multiply_vec(vecs[tuple(prev)], images[i])
            vecs[tup] = v
        # the k-th tuple in product order is group element k: the invariant
        # of a FiniteGroup built with a presentation
        matrix = np.array([vecs[tup] for tup in tuples], dtype=np.int64)
        try:
            return ma.AlgebraIso(A, B, matrix, tuple(tuple(u.tolist()) for u in images))
        except ValueError:
            return None

    cands = [prefiltered(i) for i in range(d)]

    def extend(images: list[int]):
        if len(images) == d:
            iso = build_iso([power(u, 1) for u in images])
            if iso is not None:
                yield iso
            return
        level = len(images)
        for u in cands[level]:
            trial = images + [u]
            if all(holds(trial, *args) for holds, args in checks[level]):
                yield from extend(trial)

    yield from extend([])


def oracle_iso_search(A: ma.GroupAlgebra, B: ma.GroupAlgebra) -> Optional[ma.AlgebraIso]:
    return next(oracle_iso_search_iter(A, B), None)
