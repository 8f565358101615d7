"""Element-wise helpers that only the tests call, kept verbatim (as
functions) from the ``group_core`` code they were: one conjugation by table
lookups, the type of a direct product of abelian groups, injectivity of a
homomorphism by its image count, a subgroup's own table, the whole-group
test and a homomorphism's image.

Light's generating set as the numpy BFS it first was, one mask, gather
and ``flatnonzero`` round per level, is the reference for the plain walk
that ``group_core._light_generators`` makes.

The rest are the loops that ``group_core`` replaced with reads of its one
power table, its coset labels and its subgroups, each kept as the
reference for a differential test: element orders by repeated
multiplication, the exponent as their maximum, commutativity as a
symmetric table, the power maps by a per-element power, and the quotient
table by a walk over G.

Last come the commutator gathers and the series that ``group_core`` now
builds from its one step [H, S]: G' and the lower central series each
gathering the commutator table themselves, Omega_t by its own loop over
the power map, and the Jennings series as Jennings' product formula, a
join over the grid of Mho_j(gamma_i) with i p^j >= n."""

import numpy as np

from mipkit import group_core as gc
from mipkit.group_core import AbelianType, FiniteGroup, GroupHom, Subgroup, join


def light_generators(mul: np.ndarray) -> list[int]:
    """The least index not yet reached becomes a generator, and a BFS under
    right multiplication by every generator so far, one numpy round per
    level, extends the reached set from all of it; until every index is
    reached."""
    n = mul.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.zeros(n, dtype=bool)
            step[mul[frontier][:, gens]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
    return gens


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
    grp = FiniteGroup(self.parent.p, table, name=f"{self.parent.name}_sub{self.order}")
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
    return max(element_order(self, g) for g in self.elements)


def is_abelian(self: FiniteGroup) -> bool:
    return bool(np.array_equal(self.mul, self.mul.T))


def power_p_map(self: FiniteGroup, t: int) -> np.ndarray:
    """The map g -> g^{p^t} as an index table."""
    if t == 0:
        tab = np.arange(self.order)
    else:
        prev = power_p_map(self, t - 1)
        step = np.array(
            [self.power(g, self.p) for g in self.elements], dtype=np.int64
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
    for g in G.elements:
        if coset_of[g] >= 0:
            continue
        members = G.mul[g, n_arr]
        coset_of[members] = len(reps)
        reps.append(g)
    m = len(reps)
    reps_arr = np.array(reps)
    table = coset_of[G.mul[np.ix_(reps_arr, reps_arr)]]
    Q = FiniteGroup(G.p, table, name=f"{G.name}/N{n.order}")
    proj = GroupHom(G, Q, coset_of)
    return Q, proj


def commutator_subgroup(s) -> Subgroup:
    G = s.parent
    idx = np.array(s.elements)
    return gc._generated(G, gc._distinct(G.commutator_table()[np.ix_(idx, idx)], G.order))


def lower_central_series(s) -> list[Subgroup]:
    G = s.parent
    ctab = G.commutator_table()
    s_idx = np.array(s.elements)
    series = [s]
    while True:
        prev = series[-1]
        nxt = gc._generated(G, gc._distinct(ctab[np.ix_(np.array(prev.elements), s_idx)], G.order))
        if nxt == prev:
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def omega(s, t: int) -> Subgroup:
    """Subgroup generated by the elements of order dividing p^t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    G = s.parent
    powmap = G.power_p_map(t)
    gens = [x for x in s.elements if powmap[x] == 0]
    return gc._generated(G, gens)


def jennings_series_product_formula(s) -> list[Subgroup]:
    """Jennings series D_n = prod over i*p^j >= n of agemo_j(gamma_i).

    Returns D_1 (the whole group) down to the first trivial term inclusive.
    """
    G = s.parent
    p = G.p
    lcs = lower_central_series(s)
    tmax = gc.log_p(s.exponent(), p)
    # agemo_j applied to each lower-central term
    terms: dict[tuple[int, int], Subgroup] = {}
    for i, gamma in enumerate(lcs, start=1):
        for j in range(tmax + 1):
            terms[(i, j)] = gc.agemo(gamma, j)
    series = []
    n = 1
    while True:
        d_n = G.trivial_subgroup()
        for (i, j), term in terms.items():
            if i * p**j >= n and not term.is_trivial():
                d_n = join(d_n, term)
        series.append(d_n)
        if d_n.is_trivial():
            break
        n += 1
    return series
