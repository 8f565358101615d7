"""mipkit: invariants of modular group algebras F_pG of small p-groups,
and constructive extraction of the maximal abelian direct factor."""

__version__ = "0.1.0"

from .fp_linalg import Subspace, rref, kernel, preimage
from .group_core import (
    AbelianType,
    FiniteGroup,
    GroupHom,
    PcPresentation,
    Subgroup,
    abelian_type,
    agemo,
    burnside_basis,
    center,
    centralizer,
    commutator_subgroup,
    direct_product,
    frattini,
    from_mul_table,
    from_pc_presentation,
    jennings_series_product_formula,
    min_generators,
    normal_subgroups,
    omega,
    omega_relative,
    quotient,
)
from .modular_algebra import (
    AlgebraIso,
    AlgIdeal,
    GroupAlgebra,
    augmentation_ideal,
    iso_search,
    jennings_by_ideal,
    relative_augmentation_ideal,
)
from .canonical_invariants import (
    CanonicalExpr,
    Fingerprint,
    compare,
    evaluate,
    fingerprint,
    generate_catalog,
)
from .decomposition import (
    HomocyclicDecomposition,
    ab_nab_split,
    complement_construction,
    extract_component,
    homocyclic_rank,
)
from .catalog import CatalogEntry, build, builtin_catalog
