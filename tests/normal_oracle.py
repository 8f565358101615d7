"""The normal-subgroup enumeration as it stood before it joined class
closures by coset labels, kept verbatim (as functions, with the
``normal_closure`` it alone used) as the oracle for the differential tests
of ``group_core.normal_subgroups``."""

from typing import Iterable

import numpy as np

from mipkit.group_core import FiniteGroup, Subgroup, _distinct, _generated, join


def normal_closure(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    x = np.array(list(set(elements) - {0}), dtype=np.int64)
    # conj[g, i] = g^-1 x_i g, one gather as in _normalizes
    conj = G.mul[G.mul[G.inv[:, None], x], np.arange(G.order)[:, None]]
    return _generated(G, _distinct(conj, G.order))


def normal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All normal subgroups: normal closures of cyclic subgroups, closed
    under pairwise join.  Complete because every normal subgroup is the
    join of the closures of its elements."""
    base = {G.trivial_subgroup()}
    for g in G.elements:
        if g:
            base.add(normal_closure(G, [g]))
    found = {s._set: s for s in base}
    frontier = list(base)
    while frontier:
        new = []
        for a in frontier:
            for key in list(found):
                b = found[key]
                j = join(a, b)
                if j._set not in found:
                    found[j._set] = j
                    new.append(j)
        frontier = new
    return sorted(found.values(), key=lambda s: (s.order, s.elements))
