"""Concrete group constructors and file ingestion."""

import json

import numpy as np
import pytest

from modsocle.catalog import (
    builtin_catalog,
    central_product_d8_c4,
    central_product_d8_d8,
    load_catalog_dir,
    wreath_3_3,
)
from modsocle.constructors import (
    abelian,
    central_product,
    cyclic,
    cyclic_action,
    dihedral_group,
    extraspecial_27_exp3,
    family,
    from_permutations,
    heisenberg,
    holomorph_cyclic,
    parse_group,
    quaternion8,
    semidirect,
    smallgroup_216_86,
    trivial_action,
    validate_action,
)
from modsocle.errors import (
    InvalidActionError,
    NotAGroupError,
    NotCentralError,
    OrderTooSmallError,
    ParseError,
)
from modsocle.groups import (
    center,
    derived_subgroup,
    find_isomorphism,
    frattini_subgroup,
    hall_complement,
    make_group,
    nilpotency_class,
    sylow_subgroup,
)

from .oracles import group_to_document, naive_closure


def test_abelian_cases():
    assert abelian([1]).order == 1
    klein = abelian([2, 2])
    assert klein.conjugacy_classes.count == 4
    c8 = abelian([8])
    assert all(c8.power(g, 8) == c8.identity for g in range(8))


def test_family_presentations():
    d8 = family("dihedral", 8)
    assert center(d8).order == 2
    assert derived_subgroup(d8).order == 2
    assert nilpotency_class(family("dihedral", 16)) == 3
    q16 = family("quaternion", 16)
    assert sum(1 for x in range(16) if q16.element_order(x) == 2) == 1
    sd16 = family("semidihedral", 16)
    assert sorted(np.unique(sd16.element_orders).tolist()) == [1, 2, 4, 8]


def test_family_order_errors():
    with pytest.raises(OrderTooSmallError):
        family("dihedral", 4)
    with pytest.raises(OrderTooSmallError):
        family("semidihedral", 8)
    with pytest.raises(OrderTooSmallError):
        family("quaternion", 8)
    with pytest.raises(OrderTooSmallError):
        family("dihedral", 12)


def test_extraspecial_27():
    g = extraspecial_27_exp3()
    assert g.order == 27
    assert all(g.element_order(x) == 3 for x in range(27) if x != g.identity)
    z = center(g)
    assert z.order == 3 and z.members == derived_subgroup(g).members
    assert g.conjugacy_classes.count == 11
    assert sorted(g.conjugacy_classes.sizes()) == [1, 1, 1] + [3] * 8


def test_heisenberg_5():
    g = heisenberg(5)
    assert g.order == 125 and nilpotency_class(g) == 2
    assert center(g).order == 5


def test_semidirect_trivial_action_is_direct_product():
    n, h = cyclic(4), cyclic(3)
    g = semidirect(n, h, trivial_action(n, h))
    assert find_isomorphism(g, abelian([12])) is not None


def test_semidirect_s3():
    c3, c2 = cyclic(3), cyclic(2)
    s3 = semidirect(c3, c2, cyclic_action(c3, c2, [0, 2, 1]), name="S3")
    assert s3.conjugacy_classes.count == 3
    assert find_isomorphism(s3, dihedral_group(6)) is not None


def test_semidirect_wreath_class_3():
    g = wreath_3_3()
    assert g.order == 81
    assert nilpotency_class(g) == 3
    assert derived_subgroup(g).order == 9
    assert center(g).order == 3


def test_invalid_action_rejected():
    n, h = cyclic(4), cyclic(2)
    bad = np.array([[0, 1, 2, 3], [1, 0, 2, 3]])  # swap 0,1 is not an automorphism
    with pytest.raises(InvalidActionError):
        validate_action(n, h, bad)
    not_perm = np.array([[0, 1, 2, 3], [0, 0, 2, 3]])
    with pytest.raises(InvalidActionError):
        validate_action(n, h, not_perm)
    not_hom = np.array([[0, 1, 2, 3], [0, 3, 2, 1]])  # inversion twice = id, but mark on C3
    g3 = cyclic(3)
    with pytest.raises(InvalidActionError):
        validate_action(g3, cyclic(4), np.array([[0, 1, 2], [0, 2, 1], [0, 2, 1], [0, 1, 2]]))


def test_central_product_trivial_identification_is_direct_product():
    a, b = cyclic(2), cyclic(3)
    g, e1, e2 = central_product(a, b, {a.identity: b.identity})
    assert g.order == 6
    assert find_isomorphism(g, cyclic(6)) is not None
    assert sorted(set(e1.tolist()) | set(e2.tolist())) != []


def test_central_product_d8_c4():
    g = central_product_d8_c4()
    assert g.order == 16
    assert nilpotency_class(g) == 2


def test_central_product_d8_d8_is_extraspecial():
    g = central_product_d8_d8()
    assert g.order == 32
    z = center(g)
    der = derived_subgroup(g)
    fr = frattini_subgroup(g)
    assert z.order == 2 and der.members == z.members and fr.members == z.members


def test_central_product_rejects_noncentral():
    d8 = dihedral_group(8)
    refl = next(x for x in range(8) if d8.element_order(x) == 2 and x not in center(d8).members)
    with pytest.raises(NotCentralError):
        central_product(d8, d8, {d8.identity: d8.identity, refl: refl})


def test_central_product_embeddings_commute_and_generate():
    from modsocle.groups import generate_subgroup, is_central_product

    d8 = dihedral_group(8)
    z = sorted(m for m in center(d8).members if m != d8.identity)[0]
    g, e1, e2 = central_product(d8, d8, {d8.identity: d8.identity, z: z})
    a = generate_subgroup(g, [int(v) for v in e1])
    b = generate_subgroup(g, [int(v) for v in e2])
    assert a.order == 8 and b.order == 8
    assert is_central_product(g, a, b)


def test_holomorph_small_cases():
    s3 = holomorph_cyclic(3)
    assert s3.order == 6 and s3.conjugacy_classes.count == 3
    d8 = holomorph_cyclic(4)
    assert find_isomorphism(d8, dihedral_group(8)) is not None
    h8 = holomorph_cyclic(8)
    assert h8.order == 32
    assert h8.conjugacy_classes.count == 11
    assert center(h8).order == 2


def test_smallgroup_216_86_structure():
    g = smallgroup_216_86()
    assert g.order == 216
    der = derived_subgroup(g)
    assert der.order == 27
    dgroup, dmembers = der.as_group()
    assert center(dgroup).members == derived_subgroup(dgroup).members
    assert center(dgroup).order == 3
    assert all(dgroup.element_order(x) in (1, 3) for x in range(27))
    syl = sylow_subgroup(g, 3)
    assert syl.members == der.members
    comp = hall_complement(g, 3)
    cg, _ = comp.as_group()
    assert comp.order == 8 and find_isomorphism(cg, cyclic(8)) is not None
    # the complement inverts the center of the derived subgroup
    zd = {dmembers[m] for m in center(dgroup).members}
    h_gen = next(m for m in comp.sorted_members if g.element_order(m) == 8)
    for z in zd:
        assert g.conj(z, h_gen) == g.inv(z)
    # classes inside the derived subgroup: identity, center minus identity, rest
    cls = g.conjugacy_classes
    inside = {}
    for m in dmembers:
        inside.setdefault(int(cls.class_of[m]), set()).add(m)
    shapes = sorted(len(v) for v in inside.values())
    assert shapes == [1, 2, 24]


def test_from_permutations_c4():
    g = from_permutations([[1, 2, 3, 0]], name="C4")
    assert g.order == 4
    table = g.table.tolist()
    assert naive_closure(table, list(range(4)), g.identity) == frozenset(range(4))
    assert find_isomorphism(g, cyclic(4)) is not None


def test_parse_group_cayley_and_perm():
    c2 = parse_group({"format": "cayley", "order": 2, "table": [[0, 1], [1, 0]], "name": "C2"})
    assert c2.order == 2
    c4 = parse_group(json.dumps({"format": "perm", "degree": 4,
                                 "generators": [[1, 2, 3, 0]], "name": "C4"}))
    assert c4.order == 4


def test_parse_group_rejects_bad_documents():
    with pytest.raises(NotAGroupError):
        parse_group({"format": "cayley", "order": 2, "table": [[0, 0], [1, 1]]})
    with pytest.raises(ParseError):
        parse_group({"format": "nope"})
    with pytest.raises(ParseError):
        parse_group("{not json")
    with pytest.raises(ParseError):
        parse_group({"format": "perm", "degree": 3, "generators": [[0, 0, 1]]})


def test_group_document_round_trip():
    g = dihedral_group(8)
    doc = group_to_document(g)
    back = parse_group(doc)
    assert np.array_equal(back.table, g.table)
    assert back.name == g.name


def test_catalog_dir_ingestion(tmp_path):
    for g in (cyclic(3), dihedral_group(8)):
        (tmp_path / f"{g.name}.json").write_text(json.dumps(group_to_document(g)))
    (tmp_path / "catalog.json").write_text(json.dumps({"id": "mini", "tags": ["demo"]}))
    data = load_catalog_dir(tmp_path)
    assert data.catalog_id == "mini" and data.tags == ("demo",)
    assert [name for name, _ in data.entries] == ["C3", "D8"]
    with pytest.raises(ParseError):
        load_catalog_dir(tmp_path / "missing")


def test_every_catalog_group_passes_full_validation():
    for name, g in builtin_catalog():
        make_group(g.table, name)  # full axiom re-check, all orders
