"""The Frattini subgroup by its definition, kept verbatim (as a function) as
the oracle for the differential tests of ``group_core.frattini``, which
computes it as Mho_1(G)G'."""

from mipkit.group_core import FiniteGroup, Subgroup, normal_subgroups, subgroup_from_elements


def frattini_by_maximals(G: FiniteGroup) -> Subgroup:
    """Oracle: intersection of all index-p subgroups (enumerated as normal
    subgroups, which all maximal subgroups of a p-group are)."""
    target = G.order // G.p
    maximals = [n for n in normal_subgroups(G) if n.order == target]
    if not maximals:
        return G
    elems = frozenset(maximals[0]._set)
    for m in maximals[1:]:
        elems &= m._set
    return subgroup_from_elements(G, elems)
