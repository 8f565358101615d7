"""Canonical subgroup expressions and the invariant fingerprint of F_pG.

A canonical-subgroup expression is an AST over the closure operations
whose evaluations are respected, ideal-for-ideal, by every augmentation
preserving isomorphism of modular group algebras: the derived subgroup,
relative torsion, power subgroups times a normal part containing the
derived subgroup, central torsion times such a part, and joins.  The
fingerprint collects, per catalog expression, the group-theoretic
invariants its evaluation exposes, in a canonical byte-comparable JSON
form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from . import decomposition as dc
from . import group_core as gc
from . import modular_algebra as ma
from .group_core import FiniteGroup, InternalCheckError, Subgroup


class ContainmentError(ValueError):
    """An expression requiring G' <= N was evaluated where that fails."""


@dataclass(frozen=True)
class WholeGroup:
    pass


@dataclass(frozen=True)
class DerivedSubgroup:
    pass


@dataclass(frozen=True)
class TrivialSubgroup:
    pass


@dataclass(frozen=True)
class TorsionAbove:
    """Omega_t(G : N): elements with p^t-th power in N; requires G' <= N."""

    t: int
    above: "CanonicalExpr"


@dataclass(frozen=True)
class PowerTimes:
    """Mho_t(L) N; requires G' <= N."""

    t: int
    base: "CanonicalExpr"
    above: "CanonicalExpr"


@dataclass(frozen=True)
class CentralTorsionTimes:
    """Omega_t(Z(G)) N; requires G' <= N.  t None means the stabilized
    form Z(G) N."""

    t: Optional[int]
    above: "CanonicalExpr"


@dataclass(frozen=True)
class Product:
    """Join of the evaluations of the parts."""

    parts: tuple["CanonicalExpr", ...]


CanonicalExpr = Union[
    WholeGroup,
    DerivedSubgroup,
    TrivialSubgroup,
    TorsionAbove,
    PowerTimes,
    CentralTorsionTimes,
    Product,
]

WHOLE = WholeGroup()
DERIVED = DerivedSubgroup()
TRIVIAL = TrivialSubgroup()


def expr_key(expr: CanonicalExpr) -> str:
    if isinstance(expr, WholeGroup):
        return "G"
    if isinstance(expr, DerivedSubgroup):
        return "G'"
    if isinstance(expr, TrivialSubgroup):
        return "1"
    if isinstance(expr, TorsionAbove):
        return f"Om({expr.t};{expr_key(expr.above)})"
    if isinstance(expr, PowerTimes):
        return f"Mho({expr.t};{expr_key(expr.base)},{expr_key(expr.above)})"
    if isinstance(expr, CentralTorsionTimes):
        ts = "s" if expr.t is None else str(expr.t)
        return f"OmZ({ts};{expr_key(expr.above)})"
    if isinstance(expr, Product):
        return "Join(" + ",".join(sorted(expr_key(p) for p in expr.parts)) + ")"
    raise TypeError(f"not a canonical expression: {expr!r}")


def depth(expr: CanonicalExpr) -> int:
    if isinstance(expr, (WholeGroup, DerivedSubgroup, TrivialSubgroup)):
        return 0
    if isinstance(expr, TorsionAbove):
        return 1 + depth(expr.above)
    if isinstance(expr, PowerTimes):
        return 1 + max(depth(expr.base), depth(expr.above))
    if isinstance(expr, CentralTorsionTimes):
        return 1 + depth(expr.above)
    if isinstance(expr, Product):
        return 1 + max(depth(p) for p in expr.parts)
    raise TypeError


def contains_derived(expr: CanonicalExpr) -> bool:
    """Structurally sound test that every evaluation contains G'."""
    if isinstance(expr, (WholeGroup, DerivedSubgroup)):
        return True
    if isinstance(expr, TrivialSubgroup):
        return False
    if isinstance(expr, (TorsionAbove, CentralTorsionTimes)):
        return contains_derived(expr.above)
    if isinstance(expr, PowerTimes):
        return contains_derived(expr.above)
    if isinstance(expr, Product):
        return any(contains_derived(p) for p in expr.parts)
    raise TypeError


def _structural_superset(a: CanonicalExpr, b: CanonicalExpr) -> bool:
    """True only when eval(a) >= eval(b) holds for every group."""
    if a == b or isinstance(a, WholeGroup) or isinstance(b, TrivialSubgroup):
        return True
    if isinstance(b, DerivedSubgroup):
        return contains_derived(a)
    if isinstance(a, (TorsionAbove, CentralTorsionTimes)):
        return _structural_superset(a.above, b)
    if isinstance(a, PowerTimes):
        return _structural_superset(a.above, b)
    if isinstance(a, Product):
        return any(_structural_superset(p, b) for p in a.parts)
    return False


def normalize(expr: CanonicalExpr, tau: Optional[int] = None) -> CanonicalExpr:
    """Canonical AST form; with ``tau`` the stabilization threshold,
    torsion and power operators at t >= tau collapse to their limits."""
    if isinstance(expr, (WholeGroup, DerivedSubgroup, TrivialSubgroup)):
        return expr
    if isinstance(expr, TorsionAbove):
        inner = normalize(expr.above, tau)
        if isinstance(inner, WholeGroup):
            return WHOLE
        if tau is not None and expr.t >= tau:
            return WHOLE
        return TorsionAbove(expr.t, inner)
    if isinstance(expr, PowerTimes):
        base = normalize(expr.base, tau)
        above = normalize(expr.above, tau)
        if tau is not None and expr.t >= tau:
            return above
        if isinstance(base, TrivialSubgroup):
            return above
        if isinstance(above, WholeGroup):
            return WHOLE
        return PowerTimes(expr.t, base, above)
    if isinstance(expr, CentralTorsionTimes):
        above = normalize(expr.above, tau)
        if isinstance(above, WholeGroup):
            return WHOLE
        t = expr.t
        if tau is not None and t is not None and t >= tau:
            t = None
        return CentralTorsionTimes(t, above)
    if isinstance(expr, Product):
        parts: list[CanonicalExpr] = []
        stack = list(expr.parts)
        while stack:
            p = normalize(stack.pop(), tau)
            if isinstance(p, Product):
                stack.extend(p.parts)
            elif not isinstance(p, TrivialSubgroup):
                parts.append(p)
        # drop parts strictly subsumed by another part
        kept = [
            p
            for p in parts
            if not any(
                expr_key(q) != expr_key(p)
                and _structural_superset(q, p)
                and not _structural_superset(p, q)
                for q in parts
            )
        ]
        dedup = {expr_key(p): p for p in kept}
        items = [dedup[k] for k in sorted(dedup)]
        if not items:
            return TRIVIAL
        if len(items) == 1:
            return items[0]
        if any(isinstance(p, WholeGroup) for p in items):
            return WHOLE
        return Product(tuple(items))
    raise TypeError(f"not a canonical expression: {expr!r}")


def generate_catalog(depth_limit: int = 2, t_max: int = 2) -> list[CanonicalExpr]:
    """All normalized expressions of the given nesting depth, t in 1..t_max.

    Expression positions that the closure operations require to contain
    the derived subgroup only draw from structurally-sound candidates.
    """
    if depth_limit < 1:
        raise ValueError("depth must be >= 1")
    pool: dict[str, CanonicalExpr] = {
        expr_key(e): e for e in (WHOLE, DERIVED, TRIVIAL)
    }
    for _level in range(depth_limit):
        additions: dict[str, CanonicalExpr] = {}
        exprs = list(pool.values())
        n_pool = [e for e in exprs if contains_derived(e)]
        for t in range(1, t_max + 1):
            for n in n_pool:
                for cand in (TorsionAbove(t, n), CentralTorsionTimes(t, n)):
                    norm = normalize(cand)
                    additions.setdefault(expr_key(norm), norm)
            for l in exprs:
                for n in n_pool:
                    norm = normalize(PowerTimes(t, l, n))
                    additions.setdefault(expr_key(norm), norm)
        for a in exprs:
            for b in exprs:
                norm = normalize(Product((a, b)))
                additions.setdefault(expr_key(norm), norm)
        pool.update(additions)
    result = [e for e in pool.values() if depth(e) <= depth_limit]
    return sorted(result, key=lambda e: (depth(e), expr_key(e)))


def stabilization_threshold(G: FiniteGroup) -> int:
    """log_p of the group exponent: beyond it all series are constant."""
    return max(gc.log_p(G.exponent(), G.p), 1)


def evaluate(expr: CanonicalExpr, G: FiniteGroup, tau: Optional[int] = None) -> Subgroup:
    """Evaluate an expression to a (verified normal) subgroup of G."""
    if tau is None:
        tau = stabilization_threshold(G)
    return _evaluate(G, expr, tau)


@gc._memo
def _evaluate(G: FiniteGroup, expr: CanonicalExpr, tau: int) -> Subgroup:
    norm = normalize(expr, tau)
    if norm != expr:
        # one evaluation per normalized form, whatever form it was asked in
        return _evaluate(G, norm, tau)

    def require_derived(n_sub: Subgroup, node: CanonicalExpr) -> None:
        if not n_sub.contains_subgroup(gc.commutator_subgroup(G)):
            raise ContainmentError(
                f"{expr_key(node)} needs G' <= N but N does not contain G'"
            )

    if isinstance(norm, WholeGroup):
        result = G.full_subgroup()
    elif isinstance(norm, DerivedSubgroup):
        result = gc.commutator_subgroup(G)
    elif isinstance(norm, TrivialSubgroup):
        result = G.trivial_subgroup()
    elif isinstance(norm, TorsionAbove):
        n_sub = evaluate(norm.above, G, tau)
        require_derived(n_sub, norm)
        result = gc.omega_relative(G, n_sub, norm.t)
    elif isinstance(norm, PowerTimes):
        l_sub = evaluate(norm.base, G, tau)
        n_sub = evaluate(norm.above, G, tau)
        require_derived(n_sub, norm)
        result = gc.join(gc.agemo(l_sub, norm.t), n_sub)
    elif isinstance(norm, CentralTorsionTimes):
        n_sub = evaluate(norm.above, G, tau)
        require_derived(n_sub, norm)
        z = gc.center(G)
        part = z if norm.t is None else gc.omega(z, norm.t)
        result = gc.join(part, n_sub)
    elif isinstance(norm, Product):
        result = G.trivial_subgroup()
        for part in norm.parts:
            result = gc.join(result, evaluate(part, G, tau))
    else:
        raise TypeError(f"not a canonical expression: {norm!r}")
    if not result.is_normal():
        raise InternalCheckError(f"evaluation of {expr_key(norm)} is not normal")
    return result


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class Fingerprint:
    """All group-algebra-determined invariants collected for one group.

    Equality is byte equality of the canonical serialization with the
    display name stripped.
    """

    group: str
    p: int
    order: int
    d: int
    jennings: tuple[int, ...]
    ab_type: tuple[int, ...]
    catalog: dict
    depth: int
    t_max: int
    tau: int

    def payload(self) -> dict:
        return {
            "group": self.group,
            "p": self.p,
            "order": self.order,
            "d": self.d,
            "jennings": list(self.jennings),
            "ab_type": list(self.ab_type),
            "catalog": self.catalog,
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    def invariant_bytes(self) -> bytes:
        payload = self.payload()
        payload.pop("group")
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.invariant_bytes() == other.invariant_bytes()

    def __hash__(self) -> int:
        return hash(self.invariant_bytes())


def _jennings_orders(sub: Subgroup) -> list[int]:
    grp, _ = sub.as_group()
    return [s.order for s in gc.jennings_series_product_formula(grp)]


def _type_or_none(sub: Subgroup) -> Optional[list[int]]:
    if not sub.is_abelian():
        return None
    return gc.abelian_type(sub).to_list()


def _quotient_type(m_sub: Subgroup, n_sub: Subgroup) -> list[int]:
    q = gc.quotient_of_subgroups(m_sub, n_sub)
    return gc.abelian_type(q).to_list()


def fingerprint(
    G: FiniteGroup,
    depth_limit: int = 2,
    t_max: Optional[int] = None,
    tau: Optional[int] = None,
) -> Fingerprint:
    """Assemble the fingerprint of F_pG.

    The abelian-factor entry is computed twice - from the per-exponent
    central-torsion quotient formula and by direct peeling - and the two
    must agree.
    """
    if tau is None:
        tau = stabilization_threshold(G)
    if t_max is None:
        t_max = tau + 1
    exprs = generate_catalog(depth_limit, t_max)
    normalized: dict[str, CanonicalExpr] = {}
    for e in exprs:
        norm = normalize(e, tau)
        normalized.setdefault(expr_key(norm), norm)
    n_pool = sorted(
        key
        for key, e in normalized.items()
        if depth(e) <= 1 and contains_derived(e)
    )

    split = dc.ab_nab_split(G)
    formula_type = dc.formula_ab_type(G)
    if split.ab_type() != formula_type:
        raise InternalCheckError(
            f"abelian factor mismatch: peeled {split.ab_type()} vs formula {formula_type}"
        )

    z = gc.center(G)
    bundles: dict[tuple, dict] = {}
    pair_cache: dict[tuple, dict] = {}
    catalog: dict[str, dict] = {}
    for key in sorted(normalized):
        expr = normalized[key]
        try:
            sub = evaluate(expr, G, tau)
        except ContainmentError:
            continue
        cache_key = sub.elements
        if cache_key not in bundles:
            meet = gc.intersect_subgroups(z, sub)
            over = gc.join(z, sub)
            bundles[cache_key] = {
                "order": sub.order,
                "jennings": _jennings_orders(sub),
                "ab_type": _type_or_none(sub),
                "z_meet_type": gc.abelian_type(meet).to_list(),
                "z_quot_type": _quotient_type(over, sub),
            }
        bundle = dict(bundles[cache_key])
        pairs: dict[str, dict] = {}
        for n_key in n_pool:
            n_sub = evaluate(normalized[n_key], G, tau)
            pkey = (sub.elements, n_sub.elements)
            if pkey not in pair_cache:
                ln = gc.join(sub, n_sub)
                q_big, _ = gc.quotient(G, ln)
                pair_cache[pkey] = {
                    "quot_type": gc.abelian_type(q_big).to_list(),
                    "sub_type": _quotient_type(ln, n_sub),
                }
            pairs[n_key] = pair_cache[pkey]
        bundle["pairs"] = pairs
        catalog[key] = bundle

    series = gc.jennings_series_product_formula(G)
    return Fingerprint(
        group=G.name,
        p=G.p,
        order=G.order,
        d=gc.min_generators(G),
        jennings=tuple(s.order for s in series),
        ab_type=tuple(split.ab_type().orders),
        catalog=catalog,
        depth=depth_limit,
        t_max=t_max,
        tau=tau,
    )


def _walk_differences(a, b, path: str):
    """First difference between two JSON-like trees, in sorted key order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{path}.{key}" if path else key
                continue
            yield from _walk_differences(a[key], b[key], f"{path}.{key}" if path else key)
    else:
        if a != b:
            yield path


def compare(
    G: FiniteGroup,
    H: FiniteGroup,
    depth_limit: int = 2,
    t_max: Optional[int] = None,
) -> dict:
    """Verdict: the first differing fingerprint key, or indistinguishability.

    Comparison keys run group-level Jennings series first, then d, the
    abelian-factor type, then the catalog in sorted key order.  Both
    fingerprints use the shared stabilization threshold so that exponent
    alone can never fabricate a verdict.
    """
    if G.p != H.p:
        raise ValueError("compare needs groups over the same prime")
    tau = max(stabilization_threshold(G), stabilization_threshold(H))
    if t_max is None:
        t_max = tau + 1
    fg = fingerprint(G, depth_limit, t_max, tau)
    fh = fingerprint(H, depth_limit, t_max, tau)
    ordered = ["order", "jennings", "d", "ab_type"]
    for key in ordered:
        a, b = getattr(fg, key), getattr(fh, key)
        if a != b:
            return {
                "verdict": "distinguished-by",
                "key": key,
                "left": list(a) if isinstance(a, tuple) else a,
                "right": list(b) if isinstance(b, tuple) else b,
            }
    diff = next(_walk_differences(fg.catalog, fh.catalog, "catalog"), None)
    if diff is not None:
        return {"verdict": "distinguished-by", "key": diff}
    return {
        "verdict": "indistinguishable-at-depth",
        "depth": depth_limit,
        "t_max": t_max,
    }


def verify_canonical_images(
    iso: ma.AlgebraIso,
    exprs: list[CanonicalExpr],
    tau: Optional[int] = None,
) -> dict[str, bool]:
    """phi(I(E(G))G) = I(E(H))H for each expression, as exact subspaces."""
    G, H = iso.source.group, iso.target.group
    out: dict[str, bool] = {}
    for expr in exprs:
        try:
            lg = evaluate(expr, G, tau)
            lh = evaluate(expr, H, tau)
        except ContainmentError:
            continue
        img = iso.apply_subspace(ma.relative_augmentation_ideal(iso.source, lg).space)
        target = ma.relative_augmentation_ideal(iso.target, lh).space
        out[expr_key(normalize(expr, tau))] = img == target
    return out
