"""Element-wise helpers that only the tests call, kept verbatim (as
functions) from the ``group_core`` methods they were: one conjugation by
table lookups, the type of a direct product of abelian groups, and
injectivity of a homomorphism by its image count."""

from mipkit.group_core import AbelianType, FiniteGroup, GroupHom


def conjugate(G: FiniteGroup, a: int, g: int) -> int:
    """g^-1 a g."""
    return int(G.mul[G.mul[G.inv[g], a], g])


def merge(a: AbelianType, b: AbelianType) -> AbelianType:
    return AbelianType(tuple(sorted(a.orders + b.orders, reverse=True)))


def is_injective(hom: GroupHom) -> bool:
    return len(set(hom.images.tolist())) == hom.domain.order
