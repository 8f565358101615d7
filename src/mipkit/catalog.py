"""Built-in catalog of small p-groups with self-test facts.

Every entry carries a power-commutator presentation (a product's merges
its base with commuting cyclic generators, ``gc.merge_presentations``)
plus independently known facts used by the ``selftest`` command: order,
center order, derived subgroup order, exponent, minimal generator count,
and the abelian type where applicable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import group_core as gc
from .group_core import FiniteGroup


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    presentation: str
    expected: dict = field(default_factory=dict)

    def build(self) -> FiniteGroup:
        return gc.from_pc_presentation(self.presentation, name=self.name)


def _abelian(p: int, orders: list[int]) -> str:
    return gc.PcPresentation(p, tuple(orders)).text()


def _with_cyclics(base: str, orders: list[int]) -> str:
    """Append commuting cyclic generators to a presentation."""
    pres = gc.PcPresentation.parse(base)
    return gc.merge_presentations(pres, gc.PcPresentation(pres.p, tuple(orders))).text()


_D8 = "p 2\ngens 2\norder 1 2\norder 2 4\ncomm 2 1 = g2^2\n"
_Q8 = "p 2\ngens 2\norder 1 2\norder 2 4\npow 1 = g2^2\ncomm 2 1 = g2^2\n"
_D16 = "p 2\ngens 2\norder 1 2\norder 2 8\ncomm 2 1 = g2^6\n"
_Q16 = "p 2\ngens 2\norder 1 2\norder 2 8\npow 1 = g2^4\ncomm 2 1 = g2^6\n"
_SD16 = "p 2\ngens 2\norder 1 2\norder 2 8\ncomm 2 1 = g2^2\n"
_M16 = "p 2\ngens 2\norder 1 2\norder 2 8\ncomm 2 1 = g2^4\n"
_HEIS27 = "p 3\ngens 3\norder 1 3\norder 2 3\norder 3 3\ncomm 2 1 = g3^1\n"
_M27 = "p 3\ngens 2\norder 1 3\norder 2 9\ncomm 2 1 = g2^3\n"


def _facts(order, center, derived, exponent, d, ab=None):
    return {
        "order": order,
        "center_order": center,
        "derived_order": derived,
        "exponent": exponent,
        "min_generators": d,
        "abelian_type": ab,
    }


_ENTRIES = [
    CatalogEntry("C2", _abelian(2, [2]), _facts(2, 2, 1, 2, 1, [2])),
    CatalogEntry("C4", _abelian(2, [4]), _facts(4, 4, 1, 4, 1, [4])),
    CatalogEntry("C8", _abelian(2, [8]), _facts(8, 8, 1, 8, 1, [8])),
    CatalogEntry("C16", _abelian(2, [16]), _facts(16, 16, 1, 16, 1, [16])),
    CatalogEntry("C2xC2", _abelian(2, [2, 2]), _facts(4, 4, 1, 2, 2, [2, 2])),
    CatalogEntry("C4xC2", _abelian(2, [4, 2]), _facts(8, 8, 1, 4, 2, [4, 2])),
    CatalogEntry("C2xC2xC2", _abelian(2, [2, 2, 2]), _facts(8, 8, 1, 2, 3, [2, 2, 2])),
    CatalogEntry("D8", _D8, _facts(8, 2, 2, 4, 2)),
    CatalogEntry("Q8", _Q8, _facts(8, 2, 2, 4, 2)),
    CatalogEntry("D16", _D16, _facts(16, 2, 4, 8, 2)),
    CatalogEntry("Q16", _Q16, _facts(16, 2, 4, 8, 2)),
    CatalogEntry("SD16", _SD16, _facts(16, 2, 4, 8, 2)),
    CatalogEntry("M16", _M16, _facts(16, 4, 2, 8, 2)),
    CatalogEntry("D8xC2", _with_cyclics(_D8, [2]), _facts(16, 4, 2, 4, 3)),
    CatalogEntry("Q8xC2", _with_cyclics(_Q8, [2]), _facts(16, 4, 2, 4, 3)),
    CatalogEntry("D8xC4", _with_cyclics(_D8, [4]), _facts(32, 8, 2, 4, 3)),
    CatalogEntry("Q8xC4", _with_cyclics(_Q8, [4]), _facts(32, 8, 2, 4, 3)),
    CatalogEntry("D8xC4xC2", _with_cyclics(_D8, [4, 2]), _facts(64, 16, 2, 4, 4)),
    CatalogEntry("C3", _abelian(3, [3]), _facts(3, 3, 1, 3, 1, [3])),
    CatalogEntry("C9", _abelian(3, [9]), _facts(9, 9, 1, 9, 1, [9])),
    CatalogEntry("C27", _abelian(3, [27]), _facts(27, 27, 1, 27, 1, [27])),
    CatalogEntry("C3xC3", _abelian(3, [3, 3]), _facts(9, 9, 1, 3, 2, [3, 3])),
    CatalogEntry("C9xC3", _abelian(3, [9, 3]), _facts(27, 27, 1, 9, 2, [9, 3])),
    CatalogEntry("Heis27", _HEIS27, _facts(27, 3, 3, 3, 2)),
    CatalogEntry("M27", _M27, _facts(27, 3, 3, 9, 2)),
    CatalogEntry("Heis27xC3", _with_cyclics(_HEIS27, [3]), _facts(81, 9, 3, 3, 3)),
    CatalogEntry("Heis27xC9", _with_cyclics(_HEIS27, [9]), _facts(243, 27, 3, 9, 3)),
    CatalogEntry("M27xC3", _with_cyclics(_M27, [3]), _facts(81, 9, 3, 9, 3)),
    CatalogEntry("M27xC9", _with_cyclics(_M27, [9]), _facts(243, 27, 3, 9, 3)),
]


def builtin_catalog() -> list[CatalogEntry]:
    return list(_ENTRIES)


def lookup(name: str) -> CatalogEntry:
    """The catalog entry called ``name``; KeyError names an unknown one."""
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog group {name!r}")


def build(name: str) -> FiniteGroup:
    """Build a catalog group by name: a fresh group on every call."""
    return lookup(name).build()


def selftest_entry(entry: CatalogEntry) -> dict[str, bool]:
    """Check every expected fact of one entry against a fresh build."""
    G = entry.build()
    expected = entry.expected
    results: dict[str, bool] = {}
    results["order"] = G.order == expected["order"]
    results["center_order"] = gc.center(G).order == expected["center_order"]
    results["derived_order"] = (
        gc.commutator_subgroup(G).order == expected["derived_order"]
    )
    results["exponent"] = G.exponent() == expected["exponent"]
    results["min_generators"] = gc.min_generators(G) == expected["min_generators"]
    if expected["abelian_type"] is not None:
        results["abelian_type"] = (
            G.is_abelian
            and gc.abelian_type(G).to_list() == expected["abelian_type"]
        )
    else:
        results["abelian_type"] = not G.is_abelian
    return results
