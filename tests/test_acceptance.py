"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s); the
order-32 census criterion is SKIPPED unless a complete catalog directory is
supplied via MODSOCLE_ORDER32_CATALOG or tests/data/order32.
"""

import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from modsocle.algebra import GroupAlgebra
from modsocle.catalog import builtin_catalog, builtin_two_groups, load_catalog_dir
from modsocle.constructors import central_product, dihedral_group, direct_product, cyclic, family
from modsocle.fplin import FpSubspace
from modsocle.groups import (
    center,
    centralizer,
    derived_subgroup,
    generate_subgroup,
    hall_complement,
    is_central_product,
    is_p_group,
    nilpotency_class,
    normal_subgroups,
    quotient,
    two_element_class_subgroup,
)
from modsocle.verify import (
    ORDER32_EXPECTED,
    run_census,
    verify_isoclinism_pair,
    verify_pgroup_classification,
    verify_quotient_and_product_closure,
    verify_reynolds_criterion,
)

from .oracles import (
    center_space_fg,
    central_multiply,
    derived_sum_space,
    embed_central,
    meet,
    subgroup_sum_ideal,
    witness_failures,
)

PRIMES = (2, 3, 5)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def _holomorph_c8():
    from modsocle.constructors import holomorph_cyclic

    return holomorph_cyclic(8)


def test_criterion_1_holomorph_exact_values():
    with criterion(1, "holomorph of C8 at p=2: all dimensions and verdicts exact"):
        started = time.perf_counter()
        g = _holomorph_c8()
        assert g.conjugacy_classes.count == 11
        alg = GroupAlgebra(g, 2)
        assert alg.center_dim == 11
        assert alg.jacobson_center.dim == 10
        jac = alg.jacobson_center
        for a in jac.basis:
            for b in jac.basis:
                assert not central_multiply(alg, a, b).any()
        assert alg.socle_center == jac
        assert alg.socle_center.dim == 10
        assert derived_sum_space(alg).dim == 8
        assert alg.soc_is_ideal is False
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_smallgroup_216_86():
    with criterion(2, "SmallGroup(216,86) reconstruction at p=3: socle ideal with "
                      "basis the derived-subgroup coset sums, dimension 8"):
        started = time.perf_counter()
        from modsocle.constructors import smallgroup_216_86

        g = smallgroup_216_86()
        assert g.order == 216
        der = derived_subgroup(g)
        assert der.order == 27
        dgroup, _ = der.as_group()
        assert center(dgroup).order == 3
        assert center(dgroup).members == derived_subgroup(dgroup).members
        assert all(dgroup.element_order(x) in (1, 3) for x in range(27))
        alg = GroupAlgebra(g, 3)
        assert alg.soc_is_ideal is True
        comp = hall_complement(g, 3)
        rows = []
        for h in comp.sorted_members:
            row = np.zeros(g.order, dtype=np.int64)
            row[[g.mul(h, d) for d in der.sorted_members]] = 1
            rows.append(row)
        coset_span = FpSubspace.span(np.array(rows), 3, g.order)
        assert embed_central(alg, alg.socle_center) == coset_span
        der_z = generate_subgroup(g, der.members | center(g).members)
        assert alg.socle_center.dim == 8 == g.order // der_z.order
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_3_dihedral_family_and_isoclinism():
    with criterion(3, "dihedral 2-power family: socle ideal, derived subgroup "
                      "equals the two-class criterion subgroup; maximal-class "
                      "triple agrees"):
        started = time.perf_counter()
        for n in (3, 4, 5, 6):
            g = dihedral_group(2 ** n)
            assert GroupAlgebra(g, 2).soc_is_ideal is True
            y = two_element_class_subgroup(g)
            z = center(g)
            yz = generate_subgroup(g, y.members | z.members)
            assert yz.members == derived_subgroup(g).members
        trio = [family("dihedral", 16), family("semidihedral", 16),
                family("quaternion", 16)]
        for a, b in itertools.combinations(trio, 2):
            report = verify_isoclinism_pair(a, b, 2)
            assert report.all_agree
            assert report.claims[0].route_1 is True
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_4_two_groups_up_to_16():
    with criterion(4, "every built-in 2-group of order at most 16 has an ideal socle"):
        entries = builtin_two_groups(16)
        assert len(entries) >= 20
        for name, g in entries:
            assert GroupAlgebra(g, 2).soc_is_ideal, name


def _order32_catalog_dir():
    env = os.environ.get("MODSOCLE_ORDER32_CATALOG")
    if env:
        return Path(env)
    local = Path(__file__).parent / "data" / "order32"
    return local if local.is_dir() else None


def test_criterion_5_order32_census():
    catalog_dir = _order32_catalog_dir()
    if catalog_dir is None or not catalog_dir.is_dir():
        print("criterion 5: SKIPPED - no complete order-32 catalog supplied "
              "(set MODSOCLE_ORDER32_CATALOG)")
        pytest.skip("order-32 census needs an ingested catalog of all 51 types")
    data = load_catalog_dir(catalog_dir)
    if "order32-complete" not in data.tags:
        print("criterion 5: SKIPPED - catalog not tagged order32-complete")
        pytest.skip("catalog present but not tagged complete")
    with criterion(5, "order-32 census reproduces the 7/26/13 split with dual-route "
                      "agreement on all 51 groups"):
        started = time.perf_counter()
        summary = run_census(data.entries, 2, catalog_id=data.catalog_id, tags=data.tags)
        assert summary.group_count == ORDER32_EXPECTED["group_count"]
        assert summary.counts["abelian"] == ORDER32_EXPECTED["abelian"]
        assert summary.counts["class_exactly_two"] == ORDER32_EXPECTED["class_exactly_two"]
        assert summary.counts["y_criterion_additional"] == \
            ORDER32_EXPECTED["y_criterion_additional"]
        assert summary.all_agree
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_6_reynolds_suite():
    with criterion(6, "Reynolds criterion two-route suite over the catalog at "
                      "p in {2,3,5}: zero disagreements"):
        for p in PRIMES:
            for name, g in builtin_catalog():
                report = verify_reynolds_criterion(g, p)
                assert report.all_agree, (name, p)


def test_criterion_7_pgroup_classification_suite():
    with criterion(7, "p-group classification two-route suite with validated "
                      "witnesses: zero disagreements"):
        witnessed = 0
        for p in PRIMES:
            for name, g in builtin_catalog():
                if not is_p_group(g.order, p) or g.order == 1:
                    continue
                report = verify_pgroup_classification(g, p)
                assert report.all_agree, (name, p)
                claims = {c.claim_id for c in report.claims}
                if p != 2 and nilpotency_class(g) == 3:
                    assert "witness_certifies_socle_not_ideal" in claims
                    witnessed += 1
                    # re-verify the witness facts directly on the class-two quotient
                    q, _ = quotient(g, center(g))
                    qalg = GroupAlgebra(q, p)
                    y = qalg.derived_annihilating_witness()
                    assert witness_failures(qalg, y) == [], (name, p)
        assert witnessed >= 1


def test_criterion_8_radical_basis_oracle_equivalence():
    with criterion(8, "iterated-power kernel equals the class-sum radical basis "
                      "span on every semidirect-shaped catalog group"):
        shaped = 0
        for p in PRIMES:
            for name, g in builtin_catalog():
                alg = GroupAlgebra(g, p)
                if alg.ph_shape is None:
                    continue
                shaped += 1
                basis = alg.jacobson_center_basis
                rows = (np.array(list(basis.values()), dtype=np.int64)
                        if basis else np.zeros((0, alg.center_dim), dtype=np.int64))
                span = FpSubspace.span(rows, p, alg.center_dim)
                assert span == alg.jacobson_center, (name, p)
        assert shaped >= 60


def test_criterion_9_sandwich_grading_and_two_class_bound():
    with criterion(9, "sandwich containments, coset grading of the socle, and the "
                      "two-class-subgroup bound: zero violations"):
        shaped = 0
        for p in PRIMES:
            for name, g in builtin_catalog():
                if g.order % p:
                    continue
                alg = GroupAlgebra(g, p)
                shape = alg.ph_shape
                if shape is None:
                    continue
                shaped += 1
                soc_fg = embed_central(alg, alg.socle_center)
                sylow = shape.sylow
                z_sylow = centralizer(g, sylow.sorted_members, within=sylow)
                zp_der = generate_subgroup(g, z_sylow.members | derived_subgroup(g).members)
                lower = meet(subgroup_sum_ideal(alg, zp_der), center_space_fg(alg))
                assert soc_fg.contains(lower.basis), (name, p, "lower sandwich")
                z_p_part = {z for z in center(g).members
                            if is_p_group(g.element_order(z), p)}
                upper = subgroup_sum_ideal(alg, generate_subgroup(g, z_p_part))
                assert upper.contains(soc_fg.basis), (name, p, "upper sandwich")
                # socle decomposes along the cosets of the Sylow subgroup
                arr = np.array(sylow.sorted_members, dtype=np.int64)
                coset_rep = g.table[arr, :].min(axis=0)
                for row in soc_fg.basis:
                    for rep in np.unique(coset_rep):
                        block = np.where(coset_rep == rep, row, 0)
                        assert soc_fg.contains(block), (name, p, "grading")
        assert shaped >= 40
        for name, g in builtin_two_groups():
            if g.order == 1:
                continue
            alg = GroupAlgebra(g, 2)
            soc_fg = embed_central(alg, alg.socle_center)
            bound = subgroup_sum_ideal(alg, two_element_class_subgroup(g))
            assert bound.contains(soc_fg.basis), name


def test_criterion_10_quotient_and_product_closure():
    with criterion(10, "quotient and central-product closure over the generated "
                       "family: zero violations"):
        g = dihedral_group(32)
        while g.order > 4:
            z = center(g)
            assert verify_quotient_and_product_closure(g, 2, n_sub=z).all_agree
            g, _ = quotient(g, z)
        d16 = dihedral_group(16)
        for n_sub in normal_subgroups(d16):
            if 1 < n_sub.order < d16.order:
                assert verify_quotient_and_product_closure(d16, 2, n_sub=n_sub).all_agree
        d8 = dihedral_group(8)
        z = sorted(m for m in center(d8).members if m != d8.identity)[0]
        prod, e1, e2 = central_product(d8, d8, {d8.identity: d8.identity, z: z},
                                       name="D8*D8")
        a = generate_subgroup(prod, [int(v) for v in e1])
        b = generate_subgroup(prod, [int(v) for v in e2])
        assert is_central_product(prod, a, b)
        assert verify_quotient_and_product_closure(prod, 2, factors=(a, b)).all_agree
        direct = direct_product(dihedral_group(8), cyclic(2))
        fa = generate_subgroup(direct, range(0, direct.order, 2))
        fb = generate_subgroup(direct, [1])
        assert is_central_product(direct, fa, fb)
        assert verify_quotient_and_product_closure(direct, 2, factors=(fa, fb)).all_agree
