"""Two-route verification of the ideal-property theorems.

Every claim is computed along two independent routes (direct linear algebra
against a group-theoretic criterion) and the report records both verdicts;
an agreement flag that is False is a bug in this package or a genuinely
falsified statement, never an acceptable report state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import GroupAlgebra, group_algebra
from .errors import CensusMismatchError, HypothesisViolationError, NotNilpotentError
from .groups import (
    FiniteGroup,
    Subgroup,
    are_isoclinic,
    center,
    centralizer,
    derived_subgroup,
    generate_subgroup,
    is_central_product,
    is_metabelian,
    is_p_group,
    nilpotency_class,
    p_core,
    p_residual,
    pprime_core,
    pprime_sections,
    quotient,
    sylow_subgroup,
    two_element_class_subgroup,
)


@dataclass(frozen=True)
class ClaimResult:
    """One verified claim with the verdicts of both routes."""

    claim_id: str
    route_1: object
    route_2: object
    agree: bool
    applicable: bool = True
    dimensions: dict = field(default_factory=dict)
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "applicable": self.applicable,
            "route_1": self.route_1,
            "route_2": self.route_2,
            "agree": self.agree,
            "dimensions": dict(sorted(self.dimensions.items())),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class VerdictReport:
    """All claims checked for one group at one prime."""

    group_name: str
    group_order: int
    prime: int
    claims: tuple[ClaimResult, ...]

    @property
    def all_agree(self) -> bool:
        return all(c.agree for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "group": {"name": self.group_name, "order": self.group_order},
            "prime": self.prime,
            "claims": [c.to_dict() for c in self.claims],
            "all_agree": self.all_agree,
        }


@dataclass(frozen=True)
class CensusSummary:
    """Aggregated predicate counts over a catalog of groups."""

    catalog_id: str
    prime: int
    group_count: int
    counts: dict
    per_group: tuple[dict, ...]
    complete_assertion_checked: bool

    @property
    def all_agree(self) -> bool:
        return all(rec["routes_agree"] for rec in self.per_group)

    def to_dict(self) -> dict:
        return {
            "catalog": self.catalog_id,
            "prime": self.prime,
            "group_count": self.group_count,
            "counts": dict(sorted(self.counts.items())),
            "complete_assertion_checked": self.complete_assertion_checked,
            "all_agree": self.all_agree,
            "groups": list(self.per_group),
        }


def _claim(claim_id: str, route_1, route_2, *, applicable: bool = True,
           dimensions: dict | None = None, witness: dict | None = None) -> ClaimResult:
    agree = (route_1 == route_2) if applicable else True
    return ClaimResult(claim_id=claim_id, route_1=route_1, route_2=route_2,
                       agree=agree, applicable=applicable,
                       dimensions=dimensions or {}, witness=witness)


def _not_applicable(claim_id: str, reason: str) -> ClaimResult:
    return ClaimResult(claim_id=claim_id, route_1=None, route_2=None, agree=True,
                       applicable=False, witness={"reason": reason})


def _report(group: FiniteGroup, p: int, claims: Sequence[ClaimResult]) -> VerdictReport:
    return VerdictReport(group_name=group.name, group_order=group.order, prime=p,
                         claims=tuple(claims))


def nilpotency_class_or_none(group: FiniteGroup) -> Optional[int]:
    """The nilpotency class of `group`, or None when it is not nilpotent."""
    try:
        return nilpotency_class(group)
    except NotNilpotentError:
        return None


def _subgroup_verdict(alg: GroupAlgebra, sub: Subgroup) -> bool:
    """Whether the socle of the center is an ideal for `sub` as a group: the
    parent's verdict when `sub` is the whole group, true when it is trivial
    (its algebra is the field F_p), else a fresh algebra's."""
    if sub.order == alg.group.order:
        return alg.soc_is_ideal
    if sub.order == 1:
        return True
    return group_algebra(sub.as_group()[0], alg.p).soc_is_ideal


def y_criterion(group: FiniteGroup) -> bool:
    """G' contained in the product of the length-two-class subgroup and the center."""
    yz = generate_subgroup(group, two_element_class_subgroup(group).members
                           | center(group).members)
    return derived_subgroup(group).members <= yz.members


def verify_reynolds_criterion(group: FiniteGroup, p: int) -> VerdictReport:
    """The Reynolds ideal is an ideal of F_pG iff G' lies in the p-core.

    When it is, the Reynolds ideal must equal the coset-sum space of the
    p-core and G must split over a normal Sylow p-subgroup with abelian
    complement.
    """
    return _report(group, p, _reynolds_claims(group_algebra(group, p)))


def _reynolds_claims(alg: GroupAlgebra) -> list[ClaimResult]:
    group, p = alg.group, alg.p
    reynolds = alg.reynolds_center
    direct = alg.reynolds_is_ideal
    core = p_core(group, p)
    criterion = derived_subgroup(group).members <= core.members
    claims = [_claim(
        "reynolds_ideal_iff_derived_in_p_core", direct, criterion,
        dimensions={"reynolds": reynolds.dim, "p_core_order": core.order})]
    if direct and criterion:
        claims.append(_claim(
            "reynolds_equals_p_core_coset_space", alg.equals_coset_sum_ideal(reynolds, core),
            True, dimensions={"coset_space": group.order // core.order}))
        claims.append(_claim(
            "splits_over_normal_sylow_with_abelian_complement",
            alg.ph_shape is not None, True))
        coset_rep = sylow_subgroup(group, p).coset_minima
        cosets = {frozenset(np.nonzero(coset_rep == rep)[0].tolist())
                  for rep in np.unique(coset_rep)}
        sections = {frozenset(s) for s in pprime_sections(group, p)}
        claims.append(_claim(
            "pprime_sections_are_sylow_cosets", sections == cosets, True,
            dimensions={"section_count": len(sections)}))
    return claims


def verify_pgroup_classification(group: FiniteGroup, p: int) -> VerdictReport:
    """For p-groups: the socle of the center is an ideal iff the class is at
    most two, or p = 2 and G' lies in the length-two-class subgroup times the
    center. A witness element certifies failure for odd p in class three.
    """
    if not is_p_group(group.order, p):
        raise HypothesisViolationError(f"{group.name} is not a {p}-group")
    return _report(group, p, _pgroup_claims(group_algebra(group, p)))


def _pgroup_claims(alg: GroupAlgebra) -> list[ClaimResult]:
    group, p = alg.group, alg.p
    cls = nilpotency_class(group)
    criterion = cls <= 2 or (p == 2 and y_criterion(group))
    claims = [_claim(
        "socle_ideal_iff_classification_criterion", alg.soc_is_ideal, criterion,
        dimensions={"socle": alg.socle_center.dim, "jacobson": alg.jacobson_center.dim,
                    "center": alg.center_dim, "nilpotency_class": cls})]
    if alg.soc_is_ideal:
        claims.append(_claim("metabelian_when_socle_ideal", is_metabelian(group), True))
    if p != 2 and cls == 3:
        claims.append(_witness_claim(alg))
    return claims


def _witness_claim(alg: GroupAlgebra) -> ClaimResult:
    """Certify a non-ideal socle via the annihilating witness on G/Z(G).

    The witness lives in the class-two quotient, kills every surviving
    radical image there, and avoids the derived coset-sum space, so the
    annihilator escapes that space; this forces route one to be False.
    """
    group = alg.group
    selection = alg.class_selection(center(group))
    qalg = selection.quotient_algebra
    y = qalg.derived_annihilating_witness()
    y_central = y[list(qalg.classes.representatives)]
    kills_all = not any(qalg._central_product(y_central, vec).any()
                        for vec in selection.image_elements.values())
    escapes = not qalg.in_coset_sum_ideal(y, derived_subgroup(qalg.group))
    certified_nonideal = kills_all and escapes
    return _claim("witness_certifies_socle_not_ideal",
                  certified_nonideal, not alg.soc_is_ideal,
                  witness={"support": int(np.count_nonzero(y))})


def verify_sufficient_conditions(group: FiniteGroup, p: int) -> VerdictReport:
    """If G' is central in the p-core, or p = 2 and the length-two-class
    criterion holds inside the 2-core, the socle of the center is an ideal.
    Groups outside both hypotheses get a not-applicable verdict.
    """
    der = derived_subgroup(group)
    core = p_core(group, p)
    z_core = centralizer(group, core.sorted_members, within=core)
    hyp_central = der.members <= z_core.members
    hyp_two = False
    if p == 2:
        if core.order == group.order:
            y_core = two_element_class_subgroup(group).members
        else:
            core_group, core_members = core.as_group()
            y_core = {core_members[m] for m in two_element_class_subgroup(core_group).members}
        image = y_core | z_core.members
        hyp_two = der.members <= generate_subgroup(group, image).members
    if not hyp_central and not hyp_two:
        claims = [_not_applicable("sufficient_condition_implies_socle_ideal",
                                  "neither hypothesis holds")]
        return _report(group, p, claims)
    alg = group_algebra(group, p)
    claims = [_claim(
        "sufficient_condition_implies_socle_ideal", alg.soc_is_ideal, True,
        dimensions={"socle": alg.socle_center.dim},
        witness={"central_hypothesis": hyp_central, "two_class_hypothesis": hyp_two})]
    return _report(group, p, claims)


def verify_central_decomposition(group: FiniteGroup, p: int) -> VerdictReport:
    """When the socle of the center is an ideal: G is the central product of
    C_P(H) and the p-residual subgroup, the socle equals the coset-sum space
    of Z(P)G', its dimension is |G : G'Z(G)|, and the property passes to both
    factors and to P.
    """
    alg = group_algebra(group, p)
    if not alg.soc_is_ideal:
        return _report(group, p, [_not_applicable(
            "central_product_decomposition", "socle is not an ideal")])
    shape = alg.require_ph_shape()
    sylow, complement = shape.sylow, shape.complement
    cph = centralizer(group, complement.sorted_members, within=sylow)
    residual = p_residual(group, p)
    claims = [_claim(
        "central_product_decomposition",
        is_central_product(group, cph, residual), True,
        dimensions={"centralizer_order": cph.order, "residual_order": residual.order})]
    z_sylow = centralizer(group, sylow.sorted_members, within=sylow)
    zp_derived = generate_subgroup(group, z_sylow.members | derived_subgroup(group).members)
    index = group.order // zp_derived.order
    claims.append(_claim(
        "socle_equals_central_derived_coset_space",
        alg.equals_coset_sum_ideal(alg.socle_center, zp_derived), True,
        dimensions={"socle": alg.socle_center.dim, "coset_space": index}))
    claims.append(_claim(
        "socle_dimension_is_index_of_central_derived_subgroup",
        alg.socle_center.dim, index))
    # |G : G'Z(G)| only equals that index once the p'-core is trivial (the
    # p'-core is central but not a p-group, so it never enters Z(P)G').
    if pprime_core(group, p).order == 1:
        der_z = generate_subgroup(group, derived_subgroup(group).members | center(group).members)
        claims.append(_claim(
            "socle_dimension_is_index_of_derived_times_center",
            alg.socle_center.dim, group.order // der_z.order))
    else:
        claims.append(_not_applicable(
            "socle_dimension_is_index_of_derived_times_center",
            "nontrivial p'-core inflates the center"))
    for label, sub in (("centralizer_factor", cph), ("residual_factor", residual),
                       ("sylow_subgroup", sylow)):
        claims.append(_claim(f"socle_ideal_in_{label}",
                             _subgroup_verdict(alg, sub), True,
                             dimensions={"order": sub.order}))
    return _report(group, p, claims)


def verify_quotient_and_product_closure(group: FiniteGroup, p: int,
                                        n_sub: Subgroup | None = None,
                                        factors: tuple[Subgroup, Subgroup] | None = None
                                        ) -> VerdictReport:
    """Closure properties: the ideal property passes to quotients; for a
    central product it holds iff it holds in both factors; and it holds iff
    the Reynolds ideal is an ideal and the property holds mod the p'-core.
    """
    alg = group_algebra(group, p)
    base = alg.soc_is_ideal
    claims = []
    if n_sub is not None:
        q, _ = quotient(group, n_sub)
        q_verdict = group_algebra(q, p).soc_is_ideal
        claims.append(_claim(
            "socle_ideal_passes_to_quotient", (not base) or q_verdict, True,
            dimensions={"quotient_order": q.order},
            witness={"normal_order": n_sub.order}))
    core = pprime_core(group, p)
    if core.order == 1:
        bar_verdict = base
    else:
        bar, _ = quotient(group, core)
        bar_verdict = group_algebra(bar, p).soc_is_ideal
    claims.append(_claim(
        "socle_ideal_iff_reynolds_ideal_and_mod_pprime_core",
        base, alg.reynolds_is_ideal and bar_verdict,
        dimensions={"pprime_core_order": core.order}))
    if factors is not None:
        a, b = factors
        if not is_central_product(group, a, b):
            raise HypothesisViolationError("the given subgroups do not form a central product")
        claims.append(_claim(
            "central_product_ideal_iff_both_factors", base,
            _subgroup_verdict(alg, a) and _subgroup_verdict(alg, b),
            witness={"factor_orders": [a.order, b.order]}))
    return _report(group, p, claims)


def verify_isoclinism_pair(g1: FiniteGroup, g2: FiniteGroup, p: int) -> VerdictReport:
    """Isoclinic p-groups agree on whether the socle of the center is an
    ideal; each side is also checked against the annihilator criterion over
    its central quotient.
    """
    witness = are_isoclinic(g1, g2)
    if witness is None:
        raise HypothesisViolationError(f"{g1.name} and {g2.name} are not isoclinic")
    verdicts = []
    claims = []
    for g in (g1, g2):
        alg = group_algebra(g, p)
        verdicts.append(alg.soc_is_ideal)
        if is_p_group(g.order, p):
            selection = alg.class_selection(center(g))
            qalg = selection.quotient_algebra
            ann = qalg.annihilator(selection.image_elements.values())
            contained = qalg.in_coset_sum_ideal(qalg.expand_central(ann.basis),
                                                derived_subgroup(qalg.group))
            claims.append(_claim(
                f"annihilator_criterion_matches_verdict_{g.name}",
                alg.soc_is_ideal, contained,
                dimensions={"annihilator": ann.dim}))
    claims.insert(0, _claim("isoclinic_groups_share_verdict", verdicts[0], verdicts[1]))
    return VerdictReport(group_name=f"{g1.name}~{g2.name}", group_order=g1.order,
                         prime=p, claims=tuple(claims))


# -- census ------------------------------------------------------------------

ORDER32_EXPECTED = {"group_count": 51, "abelian": 7, "class_exactly_two": 26,
                    "y_criterion_additional": 13}


def census_record(name: str, group: FiniteGroup, p: int) -> dict:
    """Predicate row for one group; census counts are sums of these.

    One algebra serves the socle verdict and the claims of
    :func:`verify_reynolds_criterion` and, for a p-group,
    :func:`verify_pgroup_classification`.
    """
    alg = group_algebra(group, p)
    reynolds_claims = _reynolds_claims(alg)
    p_group = is_p_group(group.order, p)
    return {
        "name": name,
        "order": group.order,
        "abelian": group.is_abelian,
        "is_p_group": p_group,
        "nilpotency_class": nilpotency_class_or_none(group),
        "socle_ideal": alg.soc_is_ideal,
        "socle_dim": alg.socle_center.dim,
        "reynolds_ideal": alg.reynolds_is_ideal,
        "y_criterion": y_criterion(group) if p == 2 else None,
        "routes_agree": all(c.agree for c in reynolds_claims) and (
            not p_group or all(c.agree for c in _pgroup_claims(alg))),
    }


def run_census(entries: Iterable[tuple[str, FiniteGroup]], p: int,
               catalog_id: str = "builtin", tags: Sequence[str] = ()) -> CensusSummary:
    """Census of the soc/Reynolds predicates over a catalog.

    A catalog tagged ``order32-complete`` must reproduce the known split of
    the 51 groups of order 32 (7 abelian, 26 of class exactly two, 13 more
    satisfying the length-two-class criterion); a mismatch raises
    :class:`CensusMismatchError`.
    """
    records = [census_record(name, group, p)
               for name, group in sorted(entries, key=lambda e: (e[1].order, e[0]))]
    counts = {
        "abelian": sum(r["abelian"] for r in records),
        "class_exactly_two": sum(r["nilpotency_class"] == 2 for r in records),
        "class_at_most_two": sum(
            r["nilpotency_class"] is not None and r["nilpotency_class"] <= 2
            for r in records),
        "y_criterion": sum(bool(r["y_criterion"]) for r in records),
        "y_criterion_additional": sum(
            bool(r["y_criterion"]) and not r["abelian"]
            and (r["nilpotency_class"] is None or r["nilpotency_class"] > 2)
            for r in records),
        "socle_ideal": sum(r["socle_ideal"] for r in records),
        "reynolds_ideal": sum(r["reynolds_ideal"] for r in records),
    }
    checked = False
    if "order32-complete" in tags:
        checked = True
        observed = {"group_count": len(records),
                    "abelian": counts["abelian"],
                    "class_exactly_two": counts["class_exactly_two"],
                    "y_criterion_additional": counts["y_criterion_additional"]}
        expected = dict(ORDER32_EXPECTED)
        if p != 2:
            # The length-two-class criterion is a p = 2 statement, so
            # census_record leaves it unset at any other prime.
            del observed["y_criterion_additional"], expected["y_criterion_additional"]
        if observed != expected:
            raise CensusMismatchError(
                f"catalog {catalog_id!r} tagged order32-complete but counts are "
                f"{observed}, expected {expected}")
        if not all(r["routes_agree"] for r in records):
            raise CensusMismatchError("route disagreement inside order-32 census")
    return CensusSummary(
        catalog_id=catalog_id,
        prime=p,
        group_count=len(records),
        counts=counts,
        per_group=tuple(records),
        complete_assertion_checked=checked,
    )
