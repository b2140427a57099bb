"""Concrete group constructors and file ingestion."""

import itertools
import json
from math import gcd

import numpy as np
import pytest

from modsocle.catalog import (
    _ABELIAN_INVARIANTS,
    alternating4,
    builtin_catalog,
    central_product_d8_c4,
    central_product_d8_d8,
    dicyclic12,
    load_catalog_dir,
    modular16,
    wreath_3_3,
)
from modsocle.constructors import (
    abelian,
    central_product,
    cyclic,
    cyclic_action,
    dihedral_group,
    direct_product,
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

from .oracles import (
    group_to_document,
    naive_closure,
    searched_216_86_automorphism,
    table_from_mul,
)


def test_abelian_cases():
    assert abelian([1]).order == 1
    assert abelian([1, 3]).name == "C3"
    for bad in ([0], [2, 0]):
        with pytest.raises(ValueError):
            abelian(bad)
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
    with pytest.raises(InvalidActionError, match=r"automorphism at \(0, 0\)$"):
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


def test_smallgroup_216_86_automorphism_is_the_searched_one():
    """The C8 generator acts on E27 by the automorphism the former generator-
    image search returned, so the table is unchanged; its digest is pinned."""
    g = smallgroup_216_86()
    # (n, h) is indexed n * 8 + h, and (0, 1) (n, 0) (0, 1)^-1 = (alpha(n), 0)
    conjugates = np.array([g.conj(8 * n, 1) for n in range(27)])
    assert (conjugates % 8 == 0).all()
    assert np.array_equal(conjugates // 8, searched_216_86_automorphism())
    assert g.hash_digest() == (
        "b3363353a699c7ab441b7ef4081be8cd1380fc40864bf1bf654f27b12943306a")


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


@pytest.mark.parametrize("document", [
    {"format": "perm", "generators": [[]]},
    {"format": "perm", "degree": 0, "generators": [[]]},
    {"format": "perm", "degree": 4.0, "generators": [[1, 2, 3, 0]]},
    {"format": "perm", "degree": True, "generators": [[0]]},
    {"format": "cayley", "order": 2.0, "table": [[0, 1], [1, 0]]},
    {"format": "cayley", "order": True, "table": [[0]]}])
def test_parse_group_rejects_degree_zero_and_coerced_sizes(document):
    """Degree 0 is refused, and `order` and `degree` must be JSON integers:
    a float or bool of the right value is not coerced."""
    with pytest.raises(ParseError):
        parse_group(document)


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


# -- reference tables, one product per cell -------------------------------------

def _coordinates(*radices):
    return list(itertools.product(*(range(m) for m in radices)))


def _two_generator_reference(m, twist, square):
    def mul(a, b):
        (i, e), (j, f) = a, b
        jj = j if e == 0 else (twist * j) % m
        if e and f:
            return ((i + jj + square) % m, 0)
        return ((i + jj) % m, (e + f) % 2)

    return table_from_mul(_coordinates(m, 2), mul)


def _heisenberg_reference(p):
    def mul(x, y):
        (a, b, c), (d, e, f) = x, y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    return table_from_mul(_coordinates(p, p, p), mul)


def _holomorph_reference(n):
    units = [u for u in range(1, n) if gcd(u, n) == 1]

    def mul(x, y):
        (a, u), (b, v) = x, y
        return ((a + u * b) % n, (u * v) % n)

    return table_from_mul([(a, u) for a in range(n) for u in units], mul)


def _semidirect_reference(n_group, h_group, act):
    def mul(x, y):
        (n1, h1), (n2, h2) = x, y
        return (n_group.mul(n1, int(act[h1][n2])), h_group.mul(h1, h2))

    return table_from_mul(_coordinates(n_group.order, h_group.order), mul)


def _permutation_reference(gens):
    identity = tuple(range(len(gens[0])))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [p for p in {tuple(s[t] for t in g) for s in frontier for g in gens}
                    if p not in seen]
        seen.update(frontier)
    return table_from_mul(sorted(seen), lambda a, b: tuple(a[x] for x in b))


def test_product_tables_match_the_per_cell_reference():
    for inv in _ABELIAN_INVARIANTS:
        ref = table_from_mul(_coordinates(*inv),
                             lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, inv)))
        assert np.array_equal(abelian(inv).table, ref), inv
    for order in range(2, 65, 2):
        m = order // 2
        ref = _two_generator_reference(m, -1 % m if m > 1 else 0, 0)
        assert np.array_equal(dihedral_group(order).table, ref), order
    for order in (16, 32, 64, 128):
        m = order // 2
        assert np.array_equal(family("semidihedral", order).table,
                              _two_generator_reference(m, m // 2 - 1, 0)), order
        assert np.array_equal(family("quaternion", order).table,
                              _two_generator_reference(m, -1 % m, m // 2)), order
    assert np.array_equal(quaternion8().table, _two_generator_reference(4, 3, 2))
    for p in (2, 3, 5):
        assert np.array_equal(heisenberg(p).table, _heisenberg_reference(p)), p
    for n in range(2, 21):
        assert np.array_equal(holomorph_cyclic(n).table, _holomorph_reference(n)), n


def test_semidirect_tables_match_the_per_cell_reference():
    """Each semidirect product of the catalog, with its action read back from
    the group: (1, h)(n, 1)(1, h)^-1 = (h(n), 1)."""
    d8, q8 = dihedral_group(8), quaternion8()
    cases = [(alternating4(), abelian([2, 2]), cyclic(3)),
             (dicyclic12(), cyclic(3), cyclic(4)),
             (modular16(), cyclic(8), cyclic(2)),
             (wreath_3_3(), abelian([3, 3, 3]), cyclic(3)),
             (smallgroup_216_86(), extraspecial_27_exp3(), cyclic(8))]
    cases += [(direct_product(a, b), a, b)
              for a, b in ((d8, cyclic(2)), (q8, cyclic(2)), (d8, cyclic(3)),
                           (d8, cyclic(4)), (d8, d8))]
    for g, n_group, h_group in cases:
        nh = h_group.order
        act = [[g.conj(n * nh + h_group.identity, n_group.identity * nh + h) // nh
                for n in range(n_group.order)] for h in range(nh)]
        assert np.array_equal(g.table, _semidirect_reference(n_group, h_group, act)), g.name


def test_permutation_tables_match_the_per_cell_reference():
    rng = np.random.default_rng(0)
    cases = [[[1, 0, 2, 3], [1, 2, 3, 0]]]
    while len(cases) < 51:
        degree = int(rng.integers(2, 10))
        gens = [rng.permutation(degree).tolist() for _ in range(int(rng.integers(1, 3)))]
        try:
            from_permutations(gens, max_order=200)
        except ParseError:
            continue
        cases.append(gens)
    for gens in cases:
        assert np.array_equal(from_permutations(gens).table, _permutation_reference(gens)), gens


def test_every_catalog_group_passes_full_validation():
    for name, g in builtin_catalog():
        make_group(g.table, name)  # full axiom re-check, all orders
