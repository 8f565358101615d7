"""Canonical subgroup expressions and the invariant fingerprint of F_pG.

A canonical-subgroup expression is an AST over the closure operations
whose evaluations are respected, ideal-for-ideal, by every augmentation
preserving isomorphism of modular group algebras: the derived subgroup,
relative torsion, power subgroups times a normal part containing the
derived subgroup, central torsion times such a part, and joins.  A
fingerprint is one dict, serialized as canonical byte-comparable JSON: the
group-level invariants named in ``_GROUP_KEYS``, then a catalog of what
each catalog expression's evaluation exposes, with one bundle per distinct
subgroup held by every key whose expression evaluates to that subgroup.

Expressions are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006).  A ``CanonicalExpr`` is one node ``(op, t,
children)``, and constructing a node that already exists returns the
existing object.  So equal expressions are one object, equality is
identity and hashing is O(1).  Each node's key string, depth and
``contains_derived`` are computed once, at construction; what each
operator means for normal forms and evaluation is one row of ``_RULES``.

Three pure functions are memoized for the life of the process, each
filled on first use, never at import: ``normalize`` per (node, tau), the
catalog per (depth_limit, t_max), and the catalog's distinct normal forms
that ``fingerprint`` walks, per (depth_limit, t_max, tau).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import decomposition as dc
from . import group_core as gc
from . import modular_algebra as ma
from .group_core import FiniteGroup, InternalCheckError, Subgroup


class ContainmentError(ValueError):
    """An expression requiring G' <= N was evaluated where that fails."""


# Operator names, each also the head of its expressions' key strings.
WHOLE_OP, DERIVED_OP, TRIVIAL_OP = "G", "G'", "1"
OM, MHO, OMZ, JOIN = "Om", "Mho", "OmZ", "Join"
# The operators that require G' <= N; N is always their last child.
_ABOVE_OPS = (OM, MHO, OMZ)

_INTERNED: dict[tuple, "CanonicalExpr"] = {}


class CanonicalExpr:
    """One interned expression node: operator, parameter t, children.

    Nodes are never mutated after construction.  Copying or unpickling a
    node returns the interned node.
    """

    __slots__ = ("op", "t", "children", "key", "depth", "contains_derived")

    def __new__(cls, op: str, t: Optional[int] = None, children: tuple = ()):
        ident = (op, t, children)
        node = _INTERNED.get(ident)
        if node is not None:
            return node
        node = super().__new__(cls)
        node.op, node.t, node.children = ident
        keys = [c.key for c in children]
        if not children:
            node.key = op
        elif op == JOIN:
            node.key = f"Join({','.join(sorted(keys))})"
        else:
            node.key = f"{op}({'s' if t is None else t};{','.join(keys)})"
        node.depth = 1 + max(c.depth for c in children) if children else 0
        # structurally sound: true only when every evaluation contains G'
        if op == JOIN:
            node.contains_derived = any(c.contains_derived for c in children)
        elif children:
            node.contains_derived = children[-1].contains_derived
        else:
            node.contains_derived = op != TRIVIAL_OP
        # one atomic insert, so two threads building one node agree on it
        return _INTERNED.setdefault(ident, node)

    def __reduce__(self):
        return CanonicalExpr, (self.op, self.t, self.children)

    def __repr__(self) -> str:
        return f"CanonicalExpr({self.key})"


WHOLE = CanonicalExpr(WHOLE_OP)
DERIVED = CanonicalExpr(DERIVED_OP)
TRIVIAL = CanonicalExpr(TRIVIAL_OP)


def TorsionAbove(t: int, above: CanonicalExpr) -> CanonicalExpr:
    """Omega_t(G : N): elements with p^t-th power in N; requires G' <= N."""
    return CanonicalExpr(OM, t, (above,))


def PowerTimes(t: int, base: CanonicalExpr, above: CanonicalExpr) -> CanonicalExpr:
    """Mho_t(L) N; requires G' <= N."""
    return CanonicalExpr(MHO, t, (base, above))


def CentralTorsionTimes(t: Optional[int], above: CanonicalExpr) -> CanonicalExpr:
    """Omega_t(Z(G)) N; requires G' <= N.  t None means the stabilized
    form Z(G) N."""
    return CanonicalExpr(OMZ, t, (above,))


def Product(parts) -> CanonicalExpr:
    """Join of the evaluations of the parts."""
    return CanonicalExpr(JOIN, None, tuple(parts))


def _structural_superset(a: CanonicalExpr, b: CanonicalExpr) -> bool:
    """True only when eval(a) >= eval(b) holds for every group."""
    if a is b or a is WHOLE or b is TRIVIAL:
        return True
    if b is DERIVED:
        return a.contains_derived
    if a.op == JOIN:
        return any(_structural_superset(p, b) for p in a.children)
    return a.op in _ABOVE_OPS and _structural_superset(a.children[-1], b)


def _normal_join(parts: tuple) -> CanonicalExpr:
    flat = set()
    for part in parts:
        flat.update(part.children if part.op == JOIN else (part,))
    flat.discard(TRIVIAL)
    # drop parts strictly subsumed by another part
    kept = sorted(
        (
            p
            for p in flat
            if not any(
                q is not p and _structural_superset(q, p) and not _structural_superset(p, q)
                for q in flat
            )
        ),
        key=lambda p: p.key,
    )
    if not kept:
        return TRIVIAL
    if len(kept) == 1:
        return kept[0]
    return CanonicalExpr(JOIN, None, tuple(kept))


class _Rule(NamedTuple):
    # (t, normalized children, whether t >= tau) -> normal form; None for
    # the leaves, which are their own normal forms
    normal: Optional[Callable[[Optional[int], tuple, bool], CanonicalExpr]]
    # (G, t, the children's evaluations) -> the evaluation
    value: Callable[[FiniteGroup, Optional[int], list], Subgroup]


_RULES = {
    WHOLE_OP: _Rule(None, lambda G, t, subs: G.full_subgroup()),
    DERIVED_OP: _Rule(None, lambda G, t, subs: gc.commutator_subgroup(G)),
    TRIVIAL_OP: _Rule(None, lambda G, t, subs: G.trivial_subgroup()),
    OM: _Rule(
        lambda t, kids, stable: WHOLE if stable or kids[0] is WHOLE else TorsionAbove(t, *kids),
        lambda G, t, subs: gc.omega_relative(G, subs[0], t),
    ),
    MHO: _Rule(
        lambda t, kids, stable: (
            kids[1] if stable or kids[0] is TRIVIAL or kids[1] is WHOLE else PowerTimes(t, *kids)
        ),
        lambda G, t, subs: gc.join(gc.agemo(subs[0], t), subs[1]),
    ),
    OMZ: _Rule(
        lambda t, kids, stable: (
            WHOLE if kids[0] is WHOLE else CentralTorsionTimes(None if stable else t, *kids)
        ),
        lambda G, t, subs: gc.join(
            gc.center(G) if t is None else gc.omega(gc.center(G), t), subs[0]
        ),
    ),
    JOIN: _Rule(
        lambda t, kids, stable: _normal_join(kids),
        lambda G, t, subs: functools.reduce(gc.join, subs, G.trivial_subgroup()),
    ),
}


@functools.cache
def normalize(expr: CanonicalExpr, tau: Optional[int] = None) -> CanonicalExpr:
    """Canonical AST form; with ``tau`` the stabilization threshold,
    torsion and power operators at t >= tau collapse to their limits."""
    if not expr.children:
        return expr
    kids = tuple(normalize(c, tau) for c in expr.children)
    stable = tau is not None and expr.t is not None and expr.t >= tau
    return _RULES[expr.op].normal(expr.t, kids, stable)


# Candidates one catalog level may build.  Depth 3 at t_max = 2 builds
# 183,517 (about 2 s); depth 3 at t_max = 3 would build 1.9M and any depth 4
# at least 20.8M, minutes each.
CATALOG_CANDIDATE_CAP = 10**6


def generate_catalog(depth_limit: int = 2, t_max: int = 2) -> list[CanonicalExpr]:
    """All normalized expressions of the given nesting depth, t in 1..t_max,
    sorted by depth, then key.

    Expression positions that the closure operations require to contain
    the derived subgroup only draw from structurally-sound candidates.
    A level whose candidate count passes ``CATALOG_CANDIDATE_CAP`` raises
    ``CapExceededError`` before it is built.
    """
    if depth_limit < 1:
        raise ValueError("depth must be >= 1")
    return list(_catalog(depth_limit, t_max))


@functools.cache
def _catalog(depth_limit: int, t_max: int) -> tuple[CanonicalExpr, ...]:
    pool = dict.fromkeys((WHOLE, DERIVED, TRIVIAL))
    for level in range(1, depth_limit + 1):
        exprs = list(pool)
        n_pool = [e for e in exprs if e.contains_derived]
        count = len(exprs) ** 2 + t_max * len(n_pool) * (len(exprs) + 2)
        if count > CATALOG_CANDIDATE_CAP:
            raise gc.CapExceededError(
                f"the depth-{depth_limit} catalog at t_max {t_max} needs {count} candidates "
                f"at level {level}, over the cap {CATALOG_CANDIDATE_CAP}"
            )
        candidates = [Product((a, b)) for a in exprs for b in exprs]
        for t in range(1, t_max + 1):
            for n in n_pool:
                candidates += [TorsionAbove(t, n), CentralTorsionTimes(t, n)]
            candidates += [PowerTimes(t, l, n) for l in exprs for n in n_pool]
        pool.update(dict.fromkeys(normalize(c) for c in candidates))
    result = [e for e in pool if e.depth <= depth_limit]
    return tuple(sorted(result, key=lambda e: (e.depth, e.key)))


@functools.cache
def _normal_catalog(
    depth_limit: int, t_max: int, tau: int
) -> tuple[tuple[CanonicalExpr, ...], tuple[CanonicalExpr, ...]]:
    """The catalog's distinct normal forms at ``tau`` in key order, and
    those of them of depth <= 1 that contain G' (each pair entry's N)."""
    normal = {normalize(e, tau) for e in generate_catalog(depth_limit, t_max)}
    exprs = tuple(sorted(normal, key=lambda e: e.key))
    return exprs, tuple(e for e in exprs if e.depth <= 1 and e.contains_derived)


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
    if norm is not expr:
        # one evaluation per normalized form, whatever form it was asked in
        return _evaluate(G, norm, tau)
    subs = [evaluate(c, G, tau) for c in norm.children]
    if norm.op in _ABOVE_OPS and not subs[-1].contains_subgroup(gc.commutator_subgroup(G)):
        raise ContainmentError(f"{norm.key} needs G' <= N but N does not contain G'")
    result = _RULES[norm.op].value(G, norm.t, subs)
    if not result.is_normal():
        raise InternalCheckError(
            f"evaluation of {norm.key} is not normal in {G.name}: "
            f"|G| = {G.order}, |subgroup| = {result.order}"
        )
    return result


# ---------------------------------------------------------------------------
# fingerprints


_CONTAINERS = (dict, list, tuple)


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with each
    distinct dict, list or tuple object encoded once per call.

    A fingerprint's catalog holds one bundle object per distinct subgroup
    under many keys, so its text costs what the distinct bundles cost: each
    container's text is kept by ``id()`` while the call holds ``obj``, and
    a dict's text is one ``"".join`` of a flat list of key and value texts.
    A dict with a non-str key goes to ``json.dumps`` whole, which sorts such
    keys by value, not by their text.
    """
    return _encode(obj, {})


def _encode(value, texts: dict[int, str]) -> str:
    """``canonical_json(value)``, reusing and filling ``texts``, the text of
    each container already encoded, by ``id()``.  A module function, not a
    closure: a closure that calls itself is a reference cycle, which would
    hold every text until the garbage collector runs."""
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value)
    text = texts.get(id(value))
    if text is not None:
        return text
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        parts = []
        for key in sorted(value):
            parts += (",", json.dumps(key), ":", _encode(value[key], texts))
        parts[0] = "{"
        parts.append("}")
        text = "".join(parts)
    elif not isinstance(value, dict) and any(isinstance(v, _CONTAINERS) for v in value):
        text = "[" + ",".join([_encode(v, texts) for v in value]) + "]"
    else:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    texts[id(value)] = text
    return text


@dataclass(frozen=True)
class Fingerprint:
    """All group-algebra-determined invariants collected for one group.

    ``payload`` is the dict that is serialized: ``group`` (the display
    name), ``p``, one entry per ``_GROUP_KEYS`` name, then ``catalog``.
    Equality is byte equality of its canonical serialization with the
    display name stripped.
    """

    payload: dict

    def to_json(self) -> str:
        return canonical_json(self.payload)

    def invariant_bytes(self) -> bytes:
        payload = dict(self.payload)
        payload.pop("group")
        return canonical_json(payload).encode()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.invariant_bytes() == other.invariant_bytes()

    def __hash__(self) -> int:
        return hash(self.invariant_bytes())


def _type_or_none(sub: Subgroup) -> Optional[list[int]]:
    if not sub.is_abelian():
        return None
    return gc.abelian_type(sub).to_list()


# The group-level keys, the only place they are named: the order
# ``compare`` compares them in, each with the function of G that computes
# the JSON value the payload stores.  Each looks its callee up when called,
# so a patched or traced callee is the one that runs.  The abelian-factor
# type is the split's, which ``ab_nab_split`` has already checked against
# the per-exponent quotient formula.
_GROUP_KEYS: tuple[tuple[str, Callable[[FiniteGroup], object]], ...] = (
    ("order", lambda G: G.order),
    ("jennings", lambda G: [s.order for s in gc.jennings_series_product_formula(G)]),
    ("d", lambda G: gc.min_generators(G)),
    ("ab_type", lambda G: dc.ab_nab_split(G).ab_type().to_list()),
)


def _catalog_entries(
    G: FiniteGroup, exprs: tuple[CanonicalExpr, ...], n_pool: tuple[CanonicalExpr, ...], tau: int
) -> dict[str, dict]:
    """The fingerprint's catalog of G over ``_normal_catalog``'s ``exprs``
    and ``n_pool``: one bundle per distinct subgroup, held by every key
    that evaluates to it."""
    z = gc.center(G)
    # each pair entry's N, evaluated once for the whole catalog, and the N
    # keys grouped by the subgroup they evaluate to
    n_keys: list[tuple[str, tuple]] = []
    n_subs: dict[tuple, Subgroup] = {}
    for n_expr in n_pool:
        n_sub = evaluate(n_expr, G, tau)
        n_keys.append((n_expr.key, n_sub.elements))
        n_subs.setdefault(n_sub.elements, n_sub)
    # one bundle per distinct subgroup, shared by every key that evaluates
    # to it, and one pair entry per distinct N, shared by its keys
    bundles: dict[tuple, dict] = {}
    catalog: dict[str, dict] = {}
    for expr in exprs:
        sub = evaluate(expr, G, tau)
        if sub.elements not in bundles:
            entries = {}
            for n_elements, n_sub in n_subs.items():
                ln = gc.join(sub, n_sub)
                entries[n_elements] = {
                    "quot_type": gc.abelian_type(G, ln).to_list(),
                    "sub_type": gc.abelian_type(ln, n_sub).to_list(),
                }
            pairs = {n_key: entries[n_elements] for n_key, n_elements in n_keys}
            bundles[sub.elements] = {
                "order": sub.order,
                "jennings": [s.order for s in gc.jennings_series_product_formula(sub)],
                "ab_type": _type_or_none(sub),
                "z_meet_type": gc.abelian_type(gc.intersect_subgroups(z, sub)).to_list(),
                "z_quot_type": gc.abelian_type(gc.join(z, sub), sub).to_list(),
                "pairs": pairs,
            }
        catalog[expr.key] = bundles[sub.elements]
    return catalog


def fingerprint(
    G: FiniteGroup,
    depth_limit: int = 2,
    t_max: Optional[int] = None,
    tau: Optional[int] = None,
) -> Fingerprint:
    """Assemble the fingerprint of F_pG: its payload holds the group's
    name and prime, the keys of ``_GROUP_KEYS``, then the catalog.  The
    catalog's expressions are generated first, so one past
    ``CATALOG_CANDIDATE_CAP`` is refused before any key is computed.
    """
    if tau is None:
        tau = stabilization_threshold(G)
    # every t >= tau normalizes to the same stable form
    t_max = tau if t_max is None else min(t_max, tau)
    exprs, n_pool = _normal_catalog(depth_limit, t_max, tau)
    return Fingerprint(
        {
            "group": G.name,
            "p": G.p,
            **{name: key(G) for name, key in _GROUP_KEYS},
            "catalog": _catalog_entries(G, exprs, n_pool, tau),
        }
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

    The catalog's expressions are generated first, so one past
    ``CATALOG_CANDIDATE_CAP`` is refused whatever the groups.  Then each key
    of ``_GROUP_KEYS`` is computed for G and H in turn, and the first that
    differs is the verdict, its two values as the payload stores them: no
    later key is computed.  Only when all agree are both catalogs
    evaluated and compared in sorted key order.  Both sides use
    the shared stabilization threshold so that exponent alone can never
    fabricate a verdict.
    """
    if G.p != H.p:
        raise ValueError("compare needs groups over the same prime")
    tau = max(stabilization_threshold(G), stabilization_threshold(H))
    if t_max is None:
        t_max = tau + 1
    exprs, n_pool = _normal_catalog(depth_limit, min(t_max, tau), tau)
    for name, key in _GROUP_KEYS:
        a, b = key(G), key(H)
        if a != b:
            return {"verdict": "distinguished-by", "key": name, "left": a, "right": b}
    catalogs = [_catalog_entries(X, exprs, n_pool, tau) for X in (G, H)]
    diff = next(_walk_differences(*catalogs, "catalog"), None)
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
        out[normalize(expr, tau).key] = img == target
    return out
