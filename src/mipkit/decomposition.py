"""Maximal abelian direct factor extraction for finite p-groups.

A homocyclic component of exponent p^t is detected through the p^{t-1}
power map between elementary abelian quotients: its rank is the
codimension of the kernel in the central-torsion quotient.  A component
is extracted by lifting a complement of that kernel, read off the power
map's domain basis (the basis elements off the kernel's pivots), and
building a direct complement through a recursive Burnside-basis
adjustment; peeling ascending exponents leaves the (unique up to
isomorphism) non-abelian remainder.  The certificate is the point, not a
byproduct: each function checks its caller's input once, on entry, and its
result once, on exit, and the steps in between carry no checks; a failure
inside them is an ``InternalCheckError``.

The peel happens inside G's own table: each step takes its ambient group as
a ``Subgroup`` of G, and the residual is G itself (the subgroup of all its
elements) and then each complement in turn.  No residual table is built.

The abelian-factor type is derived twice, by the peel and by the
per-exponent quotient formula (``formula_ab_type``), and the two are
compared in one place, ``ab_nab_split``; every caller that needs the type,
the fingerprint's ``ab_type`` key included, reads the checked split.  Both
types are assembled by ``AbelianType.from_ranks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fp_linalg as fl
from . import group_core as gc
from . import modular_algebra as ma
from .group_core import AbelianType, FiniteGroup, InternalCheckError, Subgroup


def homocyclic_rank(A: Subgroup, t: int) -> int:
    """Rank of the homocyclic direct factor of exponent p^t."""
    return ma.power_quotient_map(A, t).rank()


def extract_component(A: Subgroup, t: int) -> tuple[Subgroup, Subgroup]:
    """A homocyclic direct factor T of exponent p^t with complement S.

    T is generated by the lifts of the lexicographically least complement
    of the power map's kernel: the unit vectors e_k off the kernel's
    pivots, each lifted to the least element of Omega_t(Z(A)) with
    coordinates e_k.  That least element is the domain's basis element
    b_k.  The basis is greedy over Omega_t(Z(A)) in increasing order, so
    b_k is the least element of Omega_t(Z(A)) outside Phi(A)<b_1..b_{k-1}>;
    every smaller x lies in that subgroup and has zero digits k..r, and
    b_k itself has coordinates e_k, whatever the kernel is.  The lifts are
    independent modulo Phi(A).  Returns (trivial, ambient) at rank zero.
    The lift's type, (p^t,) * rank, is checked before the complement, and
    a lift the complement's preconditions refuse is an internal fault.
    """
    P = A.parent
    p = P.p
    lam = ma.power_quotient_map(A, t)
    ker = lam.kernel()
    rank = lam.domain.rank - ker.dim
    if rank == 0:
        return P.trivial_subgroup(), A
    T = P.subgroup(b for k, b in enumerate(lam.domain.basis) if k not in ker.pivots)
    ttype = gc.abelian_type(T)
    if ttype.orders != (p**t,) * rank:
        raise InternalCheckError(f"{P.name}: lift of order {T.order} is not homocyclic of rank {rank}: {ttype}")
    try:
        return T, complement_construction(A, T)
    except ValueError as exc:
        raise InternalCheckError(f"{P.name}: lift of order {T.order}: {exc}") from exc


def _verify_internal_product(A: Subgroup, factors: list[Subgroup]) -> None:
    """The ambient group A is the internal direct product of the factors:
    they commute elementwise (generator pairs, one commutator-table gather),
    generate A and have orders multiplying to |A|, so the product map onto A
    from their direct product is a bijective homomorphism."""
    P = A.parent
    orders = [f.order for f in factors]
    if math.prod(orders) != A.order:
        raise InternalCheckError(f"{P.name}: factor orders {orders} do not multiply to {A.order}")
    gens = [g for f in factors for g in f.generators]
    whole = P.subgroup(gens)
    if whole != A:
        raise InternalCheckError(
            f"{P.name}: factors of orders {orders} generate a subgroup of order {whole.order},"
            f" not the ambient group of order {A.order}"
        )
    owner = np.repeat(np.arange(len(factors)), [len(f.generators) for f in factors])
    comms = P.commutator_table()[np.ix_(gens, gens)]
    if comms[owner[:, None] != owner[None, :]].any():
        raise InternalCheckError(f"{P.name}: factors of orders {orders} do not commute elementwise")


def _claim_adjust(ambient: Subgroup, xs: list[int], y: int, t: int) -> list[int]:
    """Adjust xs so that ambient = <adjusted xs> (+) <y>.

    Requires {xs..., y} to be a Burnside basis of ambient, y central of
    order p^t with <y> meeting the powers-and-commutators subgroup N
    trivially; the caller checks that and the result.  Recursively
    maintains S_j N meet <y> = 1, replacing x by x^w y^{p^{e-s}} when the
    invariant would break; the scan takes the first (w, s) with p not
    dividing w, s <= e and x^{w p^s} y^{p^e} in S_j N, so that the new x
    has its p^s-th power in S_j N.  Raises only when no such (w, s) exists.
    """
    G = ambient.parent
    p = G.p
    n_sub = gc.power_commutator(ambient, t)
    y_cyc = G.subgroup((y,))
    s_j = G.trivial_subgroup()
    adjusted: list[int] = []
    for x in xs:
        inter = gc.intersect_subgroups(gc.join(gc.join(s_j, G.subgroup((x,))), n_sub), y_cyc)
        if not inter.is_trivial():
            e = t - gc.log_p(inter.order, p)
            sj_n = gc.join(s_j, n_sub)
            y_pe = G.power(y, p**e)
            hits = (
                (w, s) for s in range(e + 1) for w in range(1, p**t)
                if w % p and G.mul_elems(G.power(x, w * p**s), y_pe) in sj_n
            )
            found = next(hits, None)
            if found is None:
                raise InternalCheckError(f"{G.name}: no adjustment of x = {x} by y = {y} of order {p**t}")
            w, s = found
            x = G.mul_elems(G.power(x, w), G.power(y, p ** (e - s)))
        adjusted.append(x)
        s_j = gc.join(s_j, G.subgroup((x,)))
    return adjusted


def complement_construction(A: Subgroup, T: Subgroup) -> Subgroup:
    """A direct complement S with A = S (+) T in the ambient group A.

    Preconditions, checked once on entry (``ValueError``): T is a
    homocyclic subgroup of exponent p^t inside the p^t-torsion of the
    center meeting Mho_t(A)A' trivially, hence of full rank mod Frattini.
    The construction peels one Burnside generator of T at a time through
    the adjustment claim; a failure inside the peel, or a result that is
    not a direct complement, is an ``InternalCheckError``.
    """
    P = A.parent
    p = P.p
    t = gc.log_p(T.exponent(), p)
    ttype = gc.abelian_type(T)
    rank = len(ttype.orders)
    if ttype.orders != (p**t,) * rank:
        raise ValueError(f"T is not homocyclic: {ttype}")
    if not gc.omega(gc.center(A), t).contains_subgroup(T):
        raise ValueError("T is not inside the central p^t-torsion")
    if not gc.intersect_subgroups(T, gc.power_commutator(A, t)).is_trivial():
        raise ValueError("T meets Mho_t(G)G'")
    ambient = A
    t_gens = gc.burnside_basis(T)
    try:
        while t_gens:
            y = t_gens[-1]
            others = t_gens[:-1]
            ext = gc.burnside_basis_extend(ambient, others + [y])
            rest = ext[len(others) + 1 :]
            adjusted = _claim_adjust(ambient, rest + others, y, t)
            t_gens = adjusted[len(rest) :]
            ambient = P.subgroup(adjusted)
    except ValueError as exc:
        raise InternalCheckError(f"{P.name}: complement of T of order {T.order}: {exc}") from exc
    _verify_internal_product(A, [ambient, T])
    return ambient


@dataclass(frozen=True)
class HomocyclicComponent:
    t: int
    rank: int
    subgroup: Subgroup
    complement: Subgroup


@dataclass(frozen=True)
class HomocyclicDecomposition:
    """G = NAb (+) H_1 (+) H_2 (+) ... with a verified certificate."""

    group: FiniteGroup
    components: tuple[HomocyclicComponent, ...]
    nab: Subgroup
    certificate: dict

    def ab_type(self) -> AbelianType:
        return AbelianType.from_ranks(self.group.p, {c.t: c.rank for c in self.components})


def _formula_component_rank(G: FiniteGroup, t: int) -> int:
    """Rank of the exponent-p^t homocyclic component of the abelian group
    Omega_t(Z(G)) Mho_t(G)G' / Mho_t(G)G', by invariant-factor arithmetic."""
    n_sub = gc.power_commutator(G, t)
    m_sub = gc.join(gc.omega(gc.center(G), t), n_sub)
    return gc.abelian_type(m_sub, n_sub).rank_of_exponent(G.p**t)


def formula_ab_type(G: FiniteGroup) -> AbelianType:
    """Abelian-factor type assembled from the per-exponent quotient ranks."""
    tau = gc.log_p(G.exponent(), G.p)
    return AbelianType.from_ranks(G.p, {t: _formula_component_rank(G, t) for t in range(1, tau + 1)})


def ab_nab_split(G: FiniteGroup) -> HomocyclicDecomposition:
    """Peel homocyclic components of ascending exponent off G.

    Each extraction happens in the residual, a subgroup of G: the whole
    group, then each complement.  The final residual has no abelian direct
    factor: re-extraction of every exponent returns rank zero, checked
    once after the loop (by Krull-Remak-Schmidt each residual is the final
    one times factors of higher exponent).  The peeled type is compared
    once with ``formula_ab_type``, which covers every exponent up to
    exp(G); the certificate's ``ab_type`` is that checked type.  The
    certificate prints each subgroup's witness, the greedy walk over its
    sorted elements (``gc.subgroup_from_elements``).
    """
    p = G.p
    components: list[HomocyclicComponent] = []
    residual = G
    trace: list[dict] = []
    t = 1
    while residual.order > 1 and p**t <= residual.exponent():
        T, S = extract_component(residual, t)
        rank = 0
        if not T.is_trivial():
            rank = len(gc.burnside_basis(T))
            components.append(HomocyclicComponent(t, rank, T, S))
            residual = S
        trace.append({"t": t, "rank": rank, "residual_order": residual.order})
        t += 1
    nab = residual
    _verify_internal_product(G, [c.subgroup for c in components] + [nab])
    for s in range(1, t):
        if residual.order > 1 and p**s <= residual.exponent() and homocyclic_rank(residual, s):
            raise InternalCheckError(f"{G.name}: final residual of order {residual.order} has a C{p**s} factor")
    peeled = AbelianType.from_ranks(p, {c.t: c.rank for c in components})
    formula = formula_ab_type(G)
    if peeled != formula:
        raise InternalCheckError(f"abelian factor mismatch: peeled {peeled} vs formula {formula}")
    certificate = {
        "group": G.name,
        "order": G.order,
        "p": p,
        "components": [
            {
                "t": c.t,
                "rank": c.rank,
                "generators": list(c.subgroup.generators),
                "order": c.subgroup.order,
                "complement_generators": list(c.complement.generators),
            }
            for c in components
        ],
        "nab": {
            "order": nab.order,
            "generators": list(nab.generators),
            "abelianization": gc.abelian_type(nab, gc.commutator_subgroup(nab)).to_list(),
        },
        "ab_type": peeled.to_list(),
        "peel_trace": trace,
        "verified": True,
    }
    return HomocyclicDecomposition(G, tuple(components), nab, certificate)


def component_checks(G: FiniteGroup, decomp: HomocyclicDecomposition) -> dict:
    """Per-component structural properties of a verified decomposition.

    For each extracted H_t with complement S: H_t is central p^t-torsion;
    its rank survives modulo Frattini; Mho_t(G)G' = Mho_t(S)S'; H_t meets
    Mho_t(G)G' trivially; the detector power map is injective on the
    image of H_t modulo Frattini.
    """
    report: dict = {}
    p = G.p
    for comp in decomp.components:
        h, s = comp.subgroup, comp.complement
        t = comp.t
        otz = gc.omega(gc.center(G), t)
        phi = gc.frattini(G)
        n_sub = gc.power_commutator(G, t)
        n_of_s = gc.power_commutator(s, t)
        lam = ma.power_quotient_map(G, t)
        coords = [lam.domain.coords(x) for x in h.elements]
        h_mod_phi = fl.rref(coords, p, lam.domain.rank)
        checks = {
            "central_torsion": all(x in otz for x in h.elements),
            "rank_mod_frattini": gc.join(phi, h).order
            == phi.order * p ** len(gc.burnside_basis(h)),
            "power_derived_match": n_sub == n_of_s,
            "trivial_meet": gc.intersect_subgroups(h, n_sub).is_trivial(),
            "detector_injective": h_mod_phi.dim == len(gc.burnside_basis(h))
            and h_mod_phi.intersect(lam.kernel()).dim == 0,
        }
        report[(comp.t, comp.rank)] = checks
    report["all_pass"] = all(
        v for key, sub in report.items() if key != "all_pass" for v in sub.values()
    )
    return report
