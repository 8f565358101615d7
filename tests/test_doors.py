"""Wrong input at the library's doors: each refusal's exception type and
message, for the checks no result test reaches."""

from pathlib import Path

import numpy as np
import pytest

from mipkit import canonical_invariants as ci
from mipkit import catalog as cat
from mipkit import cli
from mipkit import fp_linalg as fl
from mipkit import group_core as gc
from mipkit import modular_algebra as ma

ROOT = Path(__file__).resolve().parent.parent


def _algebra(name):
    return ma.GroupAlgebra(cat.build(name))


def _not_normal(G):
    """The first cyclic subgroup of G that is not normal."""
    return next(s for s in (G.subgroup((g,)) for g in range(G.order)) if not s.is_normal())


def _on_not_normal(call):
    """``call(A, N)`` on the algebra of D8 and a subgroup that is not normal."""
    A = _algebra("D8")
    return call(A, _not_normal(A.group))


def _two_sided(cosets):
    """``verify_two_sided`` of the partition space of the cosets Sg or gS
    of a subgroup S of D8 that is not normal: a one-sided ideal."""
    A = _algebra("D8")
    rows = list(_not_normal(A.group).elements)
    # the least element of each coset labels it; mul[a, b] is ab
    labels = A.group.mul[rows].min(axis=0) if cosets == "Sg" else A.group.mul[:, rows].min(axis=1)
    return ma.AlgIdeal(A, fl.partition_subspace(A.p, labels)).verify_two_sided()


DOORS = {
    "as_matrix-empty": (
        lambda: fl.rref([], 2),
        ValueError, "cannot infer ambient dimension from empty input",
    ),
    "as_matrix-not-2d": (
        lambda: fl.rref(np.zeros((2, 2, 2), dtype=np.int64), 2),
        ValueError, "expected a 2-d matrix",
    ),
    "as_matrix-width": (
        lambda: fl.rref([[1, 0]], 2, 3),
        fl.AmbientMismatchError, "rows of length 2, expected 3",
    ),
    "preimage-codomain": (
        lambda: fl.preimage([[1, 0]], fl.zero_subspace(2, 3), 2),
        fl.AmbientMismatchError, "matrix codomain does not match subspace ambient",
    ),
    "power_map_commutative-t": (
        lambda: ma.power_map_commutative(_algebra("C4xC2"), 0),
        ValueError, "t must be >= 1",
    ),
    "power_quotient_map-t": (
        lambda: ma.power_quotient_map(cat.build("D8"), 0),
        ValueError, "t must be >= 1",
    ),
    "ideal_power_quotient_map-t": (
        lambda: ma.ideal_power_quotient_map(_algebra("D8"), 0),
        ValueError, "t must be >= 1",
    ),
    "layer_embedding-normal": (
        lambda: _on_not_normal(lambda A, N: ma.jennings_layer_embedding(A, 1, N)),
        gc.NotNormalError, "layer embedding needs a normal subgroup",
    ),
    "jennings_with_normal-normal": (
        lambda: _on_not_normal(lambda A, N: ma.group_jennings_with_normal(A, N, 1)),
        gc.NotNormalError, "needs a normal subgroup",
    ),
    "hom-length": (
        lambda: gc.GroupHom(cat.build("C4"), cat.build("C4"), [0, 1]),
        ValueError, "image table has the wrong length",
    ),
    "hom-identity": (
        lambda: gc.GroupHom(cat.build("C4"), cat.build("C4"), [1, 2, 3, 0]),
        ValueError, "homomorphism must fix the identity",
    ),
    "group-order": (
        lambda: gc.FiniteGroup(2, np.add.outer(np.arange(3), np.arange(3)) % 3),
        ValueError, "order 3 is not a power of p=2",
    ),
    "catalog-depth": (
        lambda: ci.generate_catalog(0),
        ValueError, "depth must be >= 1",
    ),
    "compare-primes": (
        lambda: ci.compare(cat.build("C2"), cat.build("C3")),
        ValueError, "compare needs groups over the same prime",
    ),
    "cli-suffix": (
        lambda: cli._read_spec(f"@{ROOT / 'pyproject.toml'}"),
        cli.CliParseError, "unrecognized group file suffix: .toml",
    ),
}


@pytest.mark.parametrize("door", DOORS)
def test_each_door_refuses_with_its_type_and_message(door):
    call, kind, message = DOORS[door]
    with pytest.raises(kind) as info:
        call()
    assert info.type is kind
    assert str(info.value) == message


@pytest.mark.parametrize("cosets", ["Sg", "gS"])
def test_a_one_sided_ideal_is_not_two_sided(cosets):
    assert _two_sided(cosets) is False


def test_the_augmentation_ideal_is_two_sided():
    assert ma.augmentation_ideal(_algebra("D8")).verify_two_sided() is True
