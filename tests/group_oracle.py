"""Element-wise helpers that only the tests call, kept verbatim (as
functions) from the ``group_core`` code they were: one conjugation by table
lookups, the type of a direct product of abelian groups, injectivity of a
homomorphism by its image count, a subgroup's own table, the whole-group
test and a homomorphism's image.

The rest are the loops that ``group_core`` replaced with reads of its one
power table, its coset labels and its subgroups, each kept as the
reference for a differential test: element orders by repeated
multiplication, the exponent as their maximum, commutativity as a
symmetric table, the power maps by a per-element power, and the quotient
table by a walk over G."""

import numpy as np

from mipkit import group_core as gc
from mipkit.group_core import AbelianType, FiniteGroup, GroupHom, Subgroup


def conjugate(G: FiniteGroup, a: int, g: int) -> int:
    """g^-1 a g."""
    return int(G.mul[G.mul[G.inv[g], a], g])


def merge(a: AbelianType, b: AbelianType) -> AbelianType:
    return AbelianType(tuple(sorted(a.orders + b.orders, reverse=True)))


def is_injective(hom: GroupHom) -> bool:
    return len(set(hom.images.tolist())) == hom.domain.order


@gc._memo
def as_group(self: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Standalone table for this subgroup plus the index map back.

    Entry i of the returned map is the parent index of the new element i;
    the identity stays at 0 because elements are sorted.
    """
    arr = np.array(self.elements)
    # the elements are sorted and the table is closed: each entry's
    # position in arr is its new index
    table = np.searchsorted(arr, self.parent.mul[np.ix_(arr, arr)])
    grp = FiniteGroup(
        self.parent.p, table, name=f"{self.parent.name}_sub{self.order}", _validated=True
    )
    return grp, tuple(self.elements)


def is_whole_group(self: Subgroup) -> bool:
    return self.order == self.parent.order


def image_subgroup(self: GroupHom) -> Subgroup:
    elems = sorted(set(int(x) for x in self.images))
    return gc.subgroup_from_elements(self.codomain, elems)


def element_order(self: FiniteGroup, a: int) -> int:
    k, x = 1, a
    while x != 0:
        x = int(self.mul[x, a])
        k += 1
    return k


def exponent(self: FiniteGroup) -> int:
    return max(element_order(self, g) for g in self.elements())


def is_abelian(self: FiniteGroup) -> bool:
    return bool(np.array_equal(self.mul, self.mul.T))


def power_p_map(self: FiniteGroup, t: int) -> np.ndarray:
    """The map g -> g^{p^t} as an index table."""
    if t == 0:
        tab = np.arange(self.order)
    else:
        prev = power_p_map(self, t - 1)
        step = np.array(
            [self.power(g, self.p) for g in self.elements()], dtype=np.int64
        )
        tab = step[prev]
    tab.setflags(write=False)
    return tab


def quotient(G: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Coset table group G/N plus the projection; cosets are labeled by
    their minimal representative, identity coset first."""
    if n.parent is not G:
        raise ValueError("subgroup of a different group")
    if not n.is_normal():
        raise gc.NotNormalError("can only quotient by a normal subgroup")
    n_arr = np.array(n.elements)
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for g in G.elements():
        if coset_of[g] >= 0:
            continue
        members = G.mul[g, n_arr]
        coset_of[members] = len(reps)
        reps.append(g)
    m = len(reps)
    reps_arr = np.array(reps)
    table = coset_of[G.mul[np.ix_(reps_arr, reps_arr)]]
    Q = FiniteGroup(G.p, table, name=f"{G.name}/N{n.order}", _validated=True)
    proj = GroupHom(G, Q, coset_of)
    return Q, proj
