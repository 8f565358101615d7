"""Maximal abelian direct factor extraction for finite p-groups.

A homocyclic component of exponent p^t is detected through the p^{t-1}
power map between elementary abelian quotients: its rank is the
codimension of the kernel in the central-torsion quotient.  A component
is extracted by lifting a complement of that kernel and building a
direct complement through a recursive Burnside-basis adjustment; peeling
ascending exponents leaves the (unique up to isomorphism) non-abelian
remainder.  Every step is verified exhaustively; the certificate is the
point, not a byproduct.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fp_linalg as fl
from . import group_core as gc
from . import modular_algebra as ma
from .group_core import (
    AbelianType,
    FiniteGroup,
    InternalCheckError,
    Subgroup,
    subgroup_from_elements,
)


def homocyclic_rank(G: FiniteGroup, t: int) -> int:
    """Rank of the homocyclic direct factor of exponent p^t."""
    lam = ma.power_quotient_map(G, t)
    return lam.domain.rank - lam.kernel().dim


def extract_component(G: FiniteGroup, t: int) -> tuple[Subgroup, Subgroup]:
    """A homocyclic direct factor T of exponent p^t with complement S.

    T is generated by lifts of the lexicographically least complement of
    the power-map kernel; lifts are the smallest coset representatives
    inside the central p^t-torsion.  Returns (trivial, G) at rank zero.
    """
    lam = ma.power_quotient_map(G, t)
    p = G.p
    ker = lam.kernel()
    rank = lam.domain.rank - ker.dim
    if rank == 0:
        return G.trivial_subgroup(), G.full_subgroup()
    otz = gc.omega(gc.center(G), t)
    within = frozenset(otz.elements)
    comp_rows = fl.lex_complement(ker, p, lam.domain.rank)
    lifts = []
    for row in comp_rows:
        rep = lam.domain.rep(row)
        lifts.append(lam.domain.coset_min_rep(rep, within=within))
    T = G.subgroup(tuple(lifts))
    if not all(x in otz for x in T.elements):
        raise InternalCheckError("lifted component is not central p^t-torsion")
    if len(gc.burnside_basis(T)) != rank:
        raise InternalCheckError("lifted component has the wrong rank")
    S = complement_construction(G, T)
    _verify_internal_product(G, [S, T])
    ttype = gc.abelian_type(T)
    if ttype.orders != (p**t,) * rank:
        raise InternalCheckError(f"extracted factor is not homocyclic: {ttype}")
    return T, S


def _verify_internal_product(G: FiniteGroup, factors: list[Subgroup]) -> None:
    """G is the internal direct product of the given subgroups."""
    total = 1
    for f in factors:
        total *= f.order
    if total != G.order:
        raise InternalCheckError("factor orders do not multiply to |G|")
    whole = G.trivial_subgroup()
    for f in factors:
        whole = gc.join(whole, f)
    if whole.order != G.order:
        raise InternalCheckError("factors do not generate the group")
    for i, f in enumerate(factors):
        others = G.trivial_subgroup()
        for j, other in enumerate(factors):
            if i != j:
                others = gc.join(others, other)
        if not gc.intersect_subgroups(f, others).is_trivial():
            raise InternalCheckError("factor meets the product of the others")
        for a in f.generators or f.elements:
            for b in others.generators or others.elements:
                if G.commutator(a, b) != 0:
                    raise InternalCheckError("factors do not commute elementwise")


def _claim_adjust(
    ambient: Subgroup, xs: list[int], y: int, t: int
) -> list[int]:
    """Adjust xs so that ambient = <adjusted xs> (+) <y>.

    Requires {xs..., y} to be a Burnside basis of ambient, y central of
    order p^t with <y> meeting the powers-and-commutators subgroup
    trivially.  Recursively maintains S_j N meet <y> = 1, replacing
    x by x^w y^{p^{e-s}} when the invariant would break; the scan takes
    the first (w, s) with p not dividing w, s <= e.
    """
    G = ambient.parent
    p = G.p
    n_sub = gc.join(gc.agemo(ambient, t), gc.commutator_subgroup(ambient))
    y_cyc = G.subgroup((y,))
    if not gc.intersect_subgroups(y_cyc, n_sub).is_trivial():
        raise ValueError("<y> meets the powers-and-commutators subgroup")
    if G.element_order(y) != p**t:
        raise ValueError("y does not have order p^t")
    s_j = G.trivial_subgroup()
    adjusted: list[int] = []
    for x in xs:
        candidate_group = gc.join(gc.join(s_j, G.subgroup((x,))), n_sub)
        inter = gc.intersect_subgroups(candidate_group, y_cyc)
        if inter.is_trivial():
            x_new = x
        else:
            e = t - gc.log_p(inter.order, p)
            sj_n = gc.join(s_j, n_sub)
            y_neg = G.power(y, -(p**e))
            found = None
            for s in range(e + 1):
                for w in range(1, p**t):
                    if w % p == 0:
                        continue
                    if G.mul_elems(G.power(x, w * p**s), y_neg) in sj_n:
                        found = (w, s)
                        break
                if found:
                    break
            if found is None:
                raise InternalCheckError("no adjustment exponents found")
            w, s = found
            x_new = G.mul_elems(G.power(x, w), G.power(y, p ** (e - s)))
        adjusted.append(x_new)
        s_j = gc.join(s_j, G.subgroup((x_new,)))
        if not gc.intersect_subgroups(gc.join(s_j, n_sub), y_cyc).is_trivial():
            raise InternalCheckError("adjustment loop invariant failed")
    if not gc.intersect_subgroups(s_j, y_cyc).is_trivial():
        raise InternalCheckError("adjusted generators still meet <y>")
    if gc.join(s_j, y_cyc) != ambient:
        raise InternalCheckError("adjusted generators and y do not span the group")
    return adjusted


def complement_construction(G: FiniteGroup, T: Subgroup) -> Subgroup:
    """A direct complement S with G = S (+) T.

    Preconditions (each checked): T is a central homocyclic subgroup of
    exponent p^t inside the p^t-torsion of the center, of full rank
    modulo Frattini, meeting Mho_t(G)G' trivially.  The construction
    peels one Burnside generator of T at a time through the adjustment
    claim, re-checking the preconditions inside each intermediate group.
    """
    if T.is_trivial():
        return G.full_subgroup()
    p = G.p
    t = gc.log_p(T.exponent(), p)
    ttype = gc.abelian_type(T)
    rank = len(ttype.orders)
    if ttype.orders != (p**t,) * rank:
        raise ValueError(f"T is not homocyclic: {ttype}")
    ambient = G.full_subgroup()
    t_gens = gc.burnside_basis(T)
    while t_gens:
        otz = gc.omega(gc.center(ambient), t)
        if not all(g in otz for g in t_gens):
            raise ValueError("T is not inside the central p^t-torsion")
        n_sub = gc.join(gc.agemo(ambient, t), gc.commutator_subgroup(ambient))
        t_cur = ambient.parent.subgroup(tuple(t_gens))
        if not gc.intersect_subgroups(t_cur, n_sub).is_trivial():
            raise ValueError("T meets Mho_t(G)G'")
        phi = gc.frattini(ambient)
        if gc.join(phi, t_cur).order != phi.order * p ** len(t_gens):
            raise ValueError("d(T) != d(T Phi / Phi)")
        y = t_gens[-1]
        others = t_gens[:-1]
        ext = gc.burnside_basis_extend(ambient, list(others) + [y])
        rest = ext[len(others) + 1 :]
        x_list = list(rest) + list(others)
        adjusted = _claim_adjust(ambient, x_list, y, t)
        t_gens = adjusted[len(rest) :]
        ambient = G.subgroup(tuple(adjusted)) if adjusted else G.trivial_subgroup()
    s_sub = ambient
    _verify_internal_product(G, [s_sub, T])
    return s_sub


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
        orders: list[int] = []
        for comp in self.components:
            orders.extend([self.group.p**comp.t] * comp.rank)
        return AbelianType(tuple(sorted(orders, reverse=True)))

    def component_rank(self, t: int) -> int:
        for comp in self.components:
            if comp.t == t:
                return comp.rank
        return 0


def _formula_component_rank(G: FiniteGroup, t: int) -> int:
    """Rank of the exponent-p^t homocyclic component of the abelian group
    Omega_t(Z(G)) Mho_t(G)G' / Mho_t(G)G', by invariant-factor arithmetic."""
    n_sub = gc.join(gc.agemo(G, t), gc.commutator_subgroup(G))
    m_sub = gc.join(gc.omega(gc.center(G), t), n_sub)
    q = gc.quotient_of_subgroups(m_sub, n_sub)
    return gc.abelian_type(q).rank_of_exponent(G.p**t)


def formula_ab_type(G: FiniteGroup) -> AbelianType:
    """Abelian-factor type assembled from the per-exponent quotient ranks."""
    p = G.p
    tau = gc.log_p(G.exponent(), p)
    orders: list[int] = []
    for t in range(1, tau + 1):
        orders.extend([p**t] * _formula_component_rank(G, t))
    return AbelianType(tuple(sorted(orders, reverse=True)))


def ab_nab_split(G: FiniteGroup) -> HomocyclicDecomposition:
    """Peel homocyclic components of ascending exponent off G.

    Each extraction happens in the current residual; component and
    complement are mapped back to subgroups of G.  The final residual has
    no abelian direct factor (re-extraction of every exponent returns
    rank zero), and each extracted rank is cross-checked against the
    independent abelian-quotient computation.
    """
    p = G.p
    components: list[HomocyclicComponent] = []
    residual = G
    residual_map = list(range(G.order))
    trace: list[dict] = []
    t = 1
    while residual.order > 1 and p**t <= residual.exponent():
        T_r, S_r = extract_component(residual, t)
        rank = 0
        if not T_r.is_trivial():
            rank = len(gc.burnside_basis(T_r))
            t_in_g = subgroup_from_elements(G, [residual_map[e] for e in T_r.elements])
            s_in_g = subgroup_from_elements(G, [residual_map[e] for e in S_r.elements])
            components.append(HomocyclicComponent(t, rank, t_in_g, s_in_g))
            new_grp, sub_map = S_r.as_group()
            residual_map = [residual_map[g] for g in sub_map]
            residual = new_grp
            if homocyclic_rank(residual, t) != 0:
                raise InternalCheckError("residual still has a component at this exponent")
        if _formula_component_rank(G, t) != rank:
            raise InternalCheckError(
                "extracted rank disagrees with the abelian-quotient formula"
            )
        trace.append(
            {"t": t, "rank": rank, "residual_order": residual.order}
        )
        t += 1
    nab = subgroup_from_elements(G, list(residual_map))
    factors = [c.subgroup for c in components] + [nab]
    _verify_internal_product(G, factors)
    for s in range(1, max(2, t)):
        if residual.order > 1 and p**s <= residual.exponent():
            if homocyclic_rank(residual, s) != 0:
                raise InternalCheckError("non-abelian residual has an abelian factor")
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
            "abelianization": _abelianization_type(nab).to_list(),
        },
        "ab_type": [],
        "peel_trace": trace,
        "verified": True,
    }
    decomp = HomocyclicDecomposition(G, tuple(components), nab, certificate)
    certificate["ab_type"] = decomp.ab_type().to_list()
    return decomp


def _abelianization_type(sub: Subgroup) -> AbelianType:
    grp, _ = sub.as_group()
    q, _ = gc.quotient(grp, gc.commutator_subgroup(grp))
    return gc.abelian_type(q)


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
        n_sub = gc.join(gc.agemo(G, t), gc.commutator_subgroup(G))
        n_of_s = gc.join(gc.agemo(s, t), gc.commutator_subgroup(s))
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
