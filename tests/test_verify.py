"""Two-route theorem verification and the census machinery."""

import gc
import itertools
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from modsocle import verify
from modsocle.algebra import GroupAlgebra, group_algebra
from modsocle.catalog import (
    builtin_catalog,
    builtin_two_groups,
    central_product_d8_d8,
    load_catalog_dir,
    symmetric4,
    wreath_3_3,
)
from modsocle.cli import analysis_document
from modsocle.constructors import (
    abelian,
    cyclic,
    dihedral_group,
    direct_product,
    family,
    holomorph_cyclic,
    smallgroup_216_86,
)
from modsocle.errors import CensusMismatchError, HypothesisViolationError
from modsocle.fplin import FpSubspace
from modsocle.groups import (
    Subgroup,
    all_subgroups,
    center,
    derived_subgroup,
    generate_subgroup,
    is_central_product,
    is_p_group,
    normal_subgroups,
    quotient,
    two_element_class_subgroup,
)
from modsocle.verify import (
    census_record,
    run_census,
    verify_central_decomposition,
    verify_isoclinism_pair,
    verify_pgroup_classification,
    verify_quotient_and_product_closure,
    verify_reynolds_criterion,
    verify_sufficient_conditions,
)

from .oracles import embed_central, translation_closed


def claim_map(report):
    return {c.claim_id: c for c in report.claims}


def s3():
    return dihedral_group(6, name="S3")


# -- Reynolds criterion ----------------------------------------------------------

def test_reynolds_criterion_s3():
    at3 = verify_reynolds_criterion(s3(), 3)
    main = claim_map(at3)["reynolds_ideal_iff_derived_in_p_core"]
    assert main.route_1 is True and main.route_2 is True and at3.all_agree
    at2 = verify_reynolds_criterion(s3(), 2)
    main = claim_map(at2)["reynolds_ideal_iff_derived_in_p_core"]
    assert main.route_1 is False and main.route_2 is False and at2.all_agree


def test_reynolds_criterion_p_group_trivially_true():
    report = verify_reynolds_criterion(dihedral_group(16), 2)
    cm = claim_map(report)
    assert cm["reynolds_ideal_iff_derived_in_p_core"].route_1 is True
    assert cm["reynolds_equals_p_core_coset_space"].route_1 is True
    assert cm["pprime_sections_are_sylow_cosets"].route_1 is True
    assert report.all_agree


def test_reynolds_criterion_zero_disagreements_catalog():
    for p in (2, 3, 5):
        for _, g in builtin_catalog():
            if g.order > 64:
                continue
            assert verify_reynolds_criterion(g, p).all_agree


# -- p-group classification -------------------------------------------------------

def test_pgroup_classification_rejects_non_p_groups():
    with pytest.raises(HypothesisViolationError):
        verify_pgroup_classification(s3(), 3)


def test_pgroup_classification_wreath_81():
    report = verify_pgroup_classification(wreath_3_3(), 3)
    cm = claim_map(report)
    main = cm["socle_ideal_iff_classification_criterion"]
    assert main.route_1 is False and main.route_2 is False
    witness = cm["witness_certifies_socle_not_ideal"]
    assert witness.route_1 is True and witness.route_2 is True
    assert report.all_agree


def test_pgroup_classification_d16():
    report = verify_pgroup_classification(dihedral_group(16), 2)
    main = claim_map(report)["socle_ideal_iff_classification_criterion"]
    assert main.route_1 is True and main.route_2 is True
    assert claim_map(report)["metabelian_when_socle_ideal"].route_1 is True


def test_pgroup_classification_small_two_groups_all_ideal():
    for _, g in builtin_two_groups(16):
        if g.order == 1:
            continue
        report = verify_pgroup_classification(g, 2)
        assert claim_map(report)["socle_ideal_iff_classification_criterion"].route_1 is True
        assert report.all_agree


# -- sufficient conditions ----------------------------------------------------------

def test_sufficient_conditions_abelian():
    report = verify_sufficient_conditions(abelian([6]), 2)
    claim = report.claims[0]
    assert claim.applicable and claim.route_1 is True


def test_sufficient_conditions_d8_times_c2_uses_two_class_route():
    report = verify_sufficient_conditions(direct_product(dihedral_group(8), cyclic(2)), 2)
    claim = report.claims[0]
    assert claim.applicable and claim.route_1 is True
    assert claim.witness["two_class_hypothesis"] is True


def test_sufficient_conditions_not_necessary():
    # socle is an ideal here although neither hypothesis applies
    report = verify_sufficient_conditions(smallgroup_216_86(), 3)
    claim = report.claims[0]
    assert not claim.applicable
    assert GroupAlgebra(smallgroup_216_86(), 3).soc_is_ideal


def test_sufficient_conditions_zero_disagreements_catalog():
    for p in (2, 3):
        for _, g in builtin_catalog():
            if g.order > 64:
                continue
            assert verify_sufficient_conditions(g, p).all_agree


def test_sufficient_conditions_copy_the_2_core_only_when_it_is_proper(monkeypatch):
    # a 2-group is its own 2-core, and reindexing it changes no index
    two_groups = [g for _, g in builtin_two_groups(64)]
    for g in two_groups:
        copy, members = g.full_subgroup.as_group()
        assert members == tuple(range(g.order))
        assert (two_element_class_subgroup(copy).members
                == two_element_class_subgroup(g).members), g.name
    copied = []
    as_group = Subgroup.as_group

    def counted(self):
        copied.append(self.order)
        return as_group(self)

    monkeypatch.setattr(Subgroup, "as_group", counted)
    for g in two_groups:
        verify_sufficient_conditions(g, 2)
    assert copied == []
    # S4 at p=2: the 2-core is the Klein four-group, a proper subgroup
    verify_sufficient_conditions(symmetric4(), 2)
    assert copied == [4]


# -- central decomposition -----------------------------------------------------------

def test_decomposition_p_group_degenerate():
    report = verify_central_decomposition(dihedral_group(16), 2)
    cm = claim_map(report)
    assert cm["central_product_decomposition"].route_1 is True
    assert cm["socle_equals_central_derived_coset_space"].route_1 is True
    assert cm["socle_dimension_is_index_of_derived_times_center"].agree
    assert report.all_agree


def test_decomposition_smallgroup_216_86():
    report = verify_central_decomposition(smallgroup_216_86(), 3)
    cm = claim_map(report)
    dim_claim = cm["socle_dimension_is_index_of_derived_times_center"]
    assert dim_claim.route_1 == 8 and dim_claim.route_2 == 8
    assert cm["socle_ideal_in_sylow_subgroup"].route_1 is True
    assert report.all_agree


def test_decomposition_d8_times_c3():
    report = verify_central_decomposition(direct_product(dihedral_group(8), cyclic(3)), 2)
    cm = claim_map(report)
    claim = cm["central_product_decomposition"]
    assert claim.route_1 is True
    assert claim.dimensions == {"centralizer_order": 8, "residual_order": 3}
    assert report.all_agree


def test_decomposition_not_applicable_when_socle_not_ideal():
    report = verify_central_decomposition(holomorph_cyclic(8), 2)
    assert not report.claims[0].applicable


def test_whole_and_trivial_factors_reuse_known_verdicts(monkeypatch):
    # the trivial group's algebra is the field F_p, whose socle is an ideal
    assert GroupAlgebra(cyclic(1), 2).soc_is_ideal
    assert GroupAlgebra(cyclic(1), 3).soc_is_ideal
    made = []
    init = GroupAlgebra.__init__

    def counted(self, group, p):
        made.append(group.order)
        init(self, group, p)

    monkeypatch.setattr(GroupAlgebra, "__init__", counted)
    # D16 at p=2: the Sylow subgroup and C_P(H) are all of G, O^p(G) and
    # the p'-core are trivial, so no algebra beyond the parent's is needed
    g = dihedral_group(16)
    assert verify_central_decomposition(g, 2).all_agree
    assert verify_quotient_and_product_closure(g, 2).all_agree
    assert made == [16]


# -- quotient and central product closure ----------------------------------------------

def test_closure_d16_all_normal_subgroups():
    g = dihedral_group(16)
    for n_sub in normal_subgroups(g):
        if 1 < n_sub.order < g.order:
            assert verify_quotient_and_product_closure(g, 2, n_sub=n_sub).all_agree


def test_closure_central_product_d8_d8():
    from modsocle.constructors import central_product

    d8 = dihedral_group(8)
    z = sorted(m for m in center(d8).members if m != d8.identity)[0]
    g, e1, e2 = central_product(d8, d8, {d8.identity: d8.identity, z: z}, name="D8*D8")
    a = generate_subgroup(g, [int(v) for v in e1])
    b = generate_subgroup(g, [int(v) for v in e2])
    report = verify_quotient_and_product_closure(g, 2, factors=(a, b))
    cm = claim_map(report)
    assert cm["central_product_ideal_iff_both_factors"].route_1 is True
    assert report.all_agree


def test_closure_rejects_non_central_product_factors():
    g = dihedral_group(8)
    rot = generate_subgroup(g, [next(x for x in range(8) if g.element_order(x) == 4)])
    with pytest.raises(HypothesisViolationError):
        verify_quotient_and_product_closure(g, 2, factors=(rot, rot))


def test_holomorph_has_no_fully_ideal_central_decomposition():
    """Bounded exhaustive search: every central decomposition of the holomorph
    has a factor whose socle is not an ideal (consistent with the product rule)."""
    g = holomorph_cyclic(8)
    subs = all_subgroups(g)
    found = 0
    for a, b in itertools.combinations_with_replacement(subs, 2):
        if a.order * b.order < g.order or not is_central_product(g, a, b):
            continue
        found += 1
        va = GroupAlgebra(a.as_group()[0], 2).soc_is_ideal
        vb = GroupAlgebra(b.as_group()[0], 2).soc_is_ideal
        assert not (va and vb)
    assert found >= 1


# -- isoclinism -------------------------------------------------------------------------

@pytest.mark.parametrize("pair", [("dihedral", "quaternion"), ("dihedral", "semidihedral"),
                                  ("semidihedral", "quaternion")])
def test_isoclinism_pairs_order_16(pair):
    g1 = family(pair[0], 16)
    g2 = family(pair[1], 16)
    report = verify_isoclinism_pair(g1, g2, 2)
    cm = claim_map(report)
    assert cm["isoclinic_groups_share_verdict"].route_1 is True
    assert report.all_agree


def test_isoclinism_self_pair():
    g = dihedral_group(16)
    assert verify_isoclinism_pair(g, g, 2).all_agree


def test_isoclinism_rejects_non_isoclinic():
    with pytest.raises(HypothesisViolationError):
        verify_isoclinism_pair(cyclic(4), dihedral_group(8), 2)


# -- census -----------------------------------------------------------------------------

def test_census_builtin_two_groups_le_16_all_ideal():
    entries = builtin_two_groups(16)
    summary = run_census(entries, 2, catalog_id="2-groups-le-16")
    assert summary.group_count == len(entries)
    assert summary.counts["socle_ideal"] == summary.group_count
    assert summary.all_agree


def test_census_empty_catalog():
    summary = run_census([], 2, catalog_id="empty")
    assert summary.group_count == 0
    assert summary.counts["socle_ideal"] == 0


def test_census_known_order_32_subfamily():
    """Census of the built-in order-32 groups: counts derived from the two
    verified classification routes."""
    entries = [(n, g) for n, g in builtin_catalog() if g.order == 32]
    summary = run_census(entries, 2, catalog_id="order32-partial")
    assert summary.group_count == 12
    assert summary.counts["abelian"] == 7
    assert summary.counts["class_exactly_two"] == 1  # the central product D8*D8
    assert summary.counts["y_criterion_additional"] == 3  # D32, SD32, Q32
    assert summary.counts["socle_ideal"] == 11  # all but the holomorph
    assert summary.all_agree


def test_census_complete_tag_mismatch_raises():
    entries = [(n, g) for n, g in builtin_catalog() if g.order == 32]
    with pytest.raises(CensusMismatchError):
        run_census(entries, 2, catalog_id="fake", tags=("order32-complete",))


@pytest.mark.parametrize("prime", [2, 3])
def test_census_complete_tag_compares_the_y_count_only_at_two(monkeypatch, prime):
    """A catalog tagged complete passes at every prime when its counts match:
    the length-two-class count is recorded, and so compared, only at p = 2."""
    monkeypatch.setattr(verify, "ORDER32_EXPECTED", {
        "group_count": 36, "abelian": 19, "class_exactly_two": 7,
        "y_criterion_additional": 9})
    summary = run_census(builtin_two_groups(), prime, catalog_id="two-groups",
                         tags=("order32-complete",))
    assert summary.complete_assertion_checked
    monkeypatch.setitem(verify.ORDER32_EXPECTED, "abelian", 18)
    with pytest.raises(CensusMismatchError):
        run_census(builtin_two_groups(), prime, catalog_id="two-groups",
                   tags=("order32-complete",))


def test_report_serialization_round_trip():
    report = verify_reynolds_criterion(s3(), 3)
    doc = report.to_dict()
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc


def test_socle_ideal_implies_reynolds_ideal_over_catalog():
    for p in (2, 3, 5):
        for name, g in builtin_catalog():
            if g.order > 64:
                continue
            alg = GroupAlgebra(g, p)
            if alg.soc_is_ideal:
                assert translation_closed(alg, embed_central(alg, alg.reynolds_center)), (name, p)


def test_census_two_group_counts_match_classification():
    """For 2-group catalogs the ideal-socle count equals the count of groups
    that are abelian, of class at most two, or satisfy the two-class criterion."""
    entries = builtin_two_groups()
    summary = run_census(entries, 2, catalog_id="all-2-groups")
    expected = sum(
        1 for rec in summary.per_group
        if rec["abelian"] or (rec["nilpotency_class"] is not None
                              and rec["nilpotency_class"] <= 2) or rec["y_criterion"])
    assert summary.counts["socle_ideal"] == expected


def _record_algebras(monkeypatch) -> list:
    """Patch GroupAlgebra to log (group, weak reference) for each algebra built."""
    made = []
    init = GroupAlgebra.__init__

    def recording_init(self, group, p):
        init(self, group, p)
        made.append((group, weakref.ref(self)))

    monkeypatch.setattr(GroupAlgebra, "__init__", recording_init)
    return made


def test_census_record_builds_one_algebra_for_its_group(monkeypatch):
    made = _record_algebras(monkeypatch)
    for name, g, p in (("D16", dihedral_group(16), 2), ("D12", dihedral_group(12), 3),
                       ("W33", wreath_3_3(), 3)):
        census_record(name, g, p)
        assert sum(group is g for group, _ in made) == 1, name


def test_census_record_computes_the_lower_central_series_once(monkeypatch):
    # the row's class and its p-group claims share one memoized nilpotency class
    from modsocle import groups

    runs = []
    series = groups.lower_central_series

    def counted(group):
        runs.append(group)
        return series(group)

    monkeypatch.setattr(groups, "lower_central_series", counted)
    g = dihedral_group(16)
    census_record("D16", g, 2)
    assert runs == [g]


def test_one_algebra_per_group_and_prime_lives_as_long_as_its_group(monkeypatch):
    # Suites A to D, the census row and the analysis of one (group, p) share
    # one algebra. It is kept on the group, so what it keeps has k rows and
    # columns, except the |G| x k class index.
    made = _record_algebras(monkeypatch)
    g = wreath_3_3()
    for suite in (verify_reynolds_criterion, verify_pgroup_classification,
                  verify_sufficient_conditions, verify_central_decomposition):
        assert suite(g, 3).all_agree
    census_record("W33", g, 3)
    analysis_document(g, 3)
    refs = [ref for group, ref in made if group is g]
    assert len(refs) == 1 and refs[0]() is group_algebra(g, 3)
    alg, k = refs[0](), refs[0]().center_dim
    assert alg.soc_is_ideal is False and alg.socle_center.dim > 0
    for name, value in vars(alg).items():
        if isinstance(value, FpSubspace):
            assert value.ambient == k, name
            value = value.basis
        arrays = list(value.values()) if isinstance(value, dict) else [value]
        for arr in arrays:
            if isinstance(arr, np.ndarray) and name != "_class_index":
                assert max(arr.shape) <= k, name
    assert alg._class_index.shape == (g.order, k)
    made.clear()
    del alg
    gc.collect()
    assert refs[0]() is not None
    del g
    gc.collect()
    assert refs[0]() is None


HARD_GROUPS = Path(__file__).parent / "data" / "hard_groups"


@pytest.fixture(scope="module")
def hard_groups():
    return load_catalog_dir(HARD_GROUPS).entries


@pytest.mark.parametrize("p", (2, 3, 5))
def test_every_suite_agrees_on_the_hard_groups(hard_groups, p):
    """The non-soluble PSL(2,7), A6, PSL(2,11) and S6, and the soluble
    Dih(C3^3), Dih(C3^4) and C2^4 x S3 with large elementary abelian
    sections, read as permutations from a catalog directory. None is a
    p-group, so suite B does not apply; the closure suite takes the quotient
    by G' where that is proper and nontrivial."""
    assert [g.order for _, g in hard_groups] == [54, 96, 162, 168, 360, 660, 720]
    equalities = 0
    for name, g in hard_groups:
        assert not is_p_group(g.order, p)
        der = derived_subgroup(g)
        reports = [verify_reynolds_criterion(g, p), verify_sufficient_conditions(g, p),
                   verify_central_decomposition(g, p),
                   verify_quotient_and_product_closure(
                       g, p, n_sub=der if 1 < der.order < g.order else None)]
        for report in reports:
            assert report.all_agree, (name, p, report.to_dict())
            equalities += sum(c.applicable and c.claim_id in (
                "reynolds_equals_p_core_coset_space",
                "socle_equals_central_derived_coset_space") for c in report.claims)
    # at p = 3 both equality claims apply to Dih(C3^3), Dih(C3^4) and C2^4 x S3
    assert equalities == (6 if p == 3 else 0)
