"""Cayley-table groups: validation, subgroups, quotients, decompositions."""

import itertools
from math import gcd

import numpy as np
import pytest

from modsocle.catalog import builtin_catalog, builtin_two_groups, wreath_3_3
from modsocle.constructors import (
    abelian,
    cyclic,
    dihedral_group,
    direct_product,
    extraspecial_27_exp3,
    family,
    heisenberg,
    holomorph_cyclic,
    quaternion8,
    smallgroup_216_86,
)
from modsocle.errors import (
    HypothesisViolationError,
    NoComplementError,
    NotAGroupError,
    NotNilpotentError,
    NotNormalError,
)
from modsocle.groups import (
    _closure,
    all_subgroups,
    are_isoclinic,
    center,
    centralizer,
    commutator_subgroup,
    derived_subgroup,
    find_isomorphism,
    frattini_subgroup,
    generate_subgroup,
    hall_complement,
    is_central_product,
    is_metabelian,
    make_group,
    maximal_subgroups,
    nilpotency_class,
    normal_subgroups,
    normalizer,
    p_core,
    p_decomposition,
    p_residual,
    pprime_core,
    pprime_sections,
    quotient,
    sylow_subgroup,
    two_element_class_subgroup,
)

from .oracles import (
    commutators_with,
    naive_closure,
    naive_conjugacy_classes,
    naive_element_order,
    naive_lower_central_series,
    naive_pprime_part,
    reduced_commutator_subgroup,
)


# -- validation ---------------------------------------------------------------

def test_make_group_trivial_and_c2():
    g1 = make_group([[0]], "1")
    assert g1.order == 1 and g1.identity == 0
    c2 = make_group([[0, 1], [1, 0]], "C2")
    assert sorted(c2.element_orders.tolist()) == [1, 2]


def test_make_group_rejects_non_latin():
    with pytest.raises(NotAGroupError) as err:
        make_group([[0, 0], [1, 1]])
    assert "latin" in str(err.value)


def test_make_group_rejects_identityless_latin():
    with pytest.raises(NotAGroupError) as err:
        make_group([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    assert err.value.axiom == "identity"


def _search_nonassociative_loop(n=5):
    """First Latin square of order n with identity 0 that is not a group."""
    rows = [list(range(n))]

    def extend(rows):
        if len(rows) == n:
            return rows
        i = len(rows)
        for perm in itertools.permutations(range(n)):
            if perm[0] != i:
                continue
            if any(perm[c] == prev[c] for prev in rows for c in range(n)):
                continue
            got = extend(rows + [list(perm)])
            if got is not None:
                return got
        return None

    table = extend(rows)
    assert table is not None
    # reject the associative solutions (cyclic-group relabelings)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return table
    raise AssertionError("first loop found was associative; extend the search")


def _assert_associativity_witness(table):
    with pytest.raises(NotAGroupError) as err:
        make_group(table)
    assert err.value.axiom == "associativity"
    t = np.array(table)
    x, s, y = err.value.witness
    assert t[t[x, s], y] != t[x, t[s, y]]
    return err.value.witness


def test_make_group_rejects_nonassociative_loop():
    _assert_associativity_witness(_search_nonassociative_loop())


def test_make_group_rejects_nonassociative_latin_square_of_order_1024():
    """C2^10 with one intercalate swapped: a Latin square with identity 0
    that differs from a group in four cells, which random triples rarely hit."""
    x = np.arange(1024)
    table = x[:, None] ^ x[None, :]
    a, b, c = 3, 5, 9
    d = a ^ b ^ c
    table[[a, a, b, b], [c, d, c, d]] = table[[a, a, b, b], [d, c, d, c]]
    _assert_associativity_witness(table)


def test_make_group_applies_lights_test_to_every_generator():
    """A loop of order 6 with generators (1, 2) in which 1 passes the test."""
    table = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
             [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
    assert _assert_associativity_witness(table)[1] == 2


def _naive_greedy_generators(g):
    table = g.table.tolist()
    gens, reached = [], frozenset({g.identity})
    while len(reached) < g.order:
        gens.append(min(set(range(g.order)) - reached))
        reached = naive_closure(table, reached | {gens[-1]}, g.identity)
    return tuple(gens)


def test_generators_are_greedy_and_reach_the_group_by_right_multiplication():
    """Light's test in make_group is exact because every element is a
    left-normed product of the generators; the sequence itself is the
    greedy one, which is_ideal and the closures iterate over."""
    extra = (dihedral_group(512), family("quaternion", 512), holomorph_cyclic(15),
             dihedral_group(96), smallgroup_216_86())
    for g in [g for _, g in builtin_catalog()] + list(extra):
        assert g.generators == _naive_greedy_generators(g), g.name
        reached, frontier = {g.identity}, [g.identity]
        while frontier:
            frontier = {g.mul(x, s) for x in frontier for s in g.generators} - reached
            reached |= frontier
        assert len(reached) == g.order, g.name


# -- conjugacy classes --------------------------------------------------------

def test_conjugacy_classes_abelian():
    g = abelian([4, 2])
    assert g.conjugacy_classes.count == 8
    assert all(len(c) == 1 for c in g.conjugacy_classes.classes)


def test_conjugacy_classes_d8_oracle():
    g = dihedral_group(8)
    cls = g.conjugacy_classes
    assert sorted(cls.sizes()) == [1, 1, 2, 2, 2]
    expected = {frozenset(c) for c in naive_conjugacy_classes(g.table.tolist())}
    assert {frozenset(c) for c in cls.classes} == expected


def test_conjugacy_classes_holomorph():
    assert holomorph_cyclic(8).conjugacy_classes.count == 11


def test_class_equation_over_catalog():
    for _, g in builtin_catalog():
        sizes = g.conjugacy_classes.sizes()
        assert sum(sizes) == g.order
        assert all(g.order % s == 0 for s in sizes)


# -- subgroup generation ------------------------------------------------------

def _rotation(g, order):
    return next(x for x in range(g.order) if g.element_order(x) == order)


def test_generate_subgroup_cases():
    g = dihedral_group(8)
    assert generate_subgroup(g, []).order == 1
    r = _rotation(g, 4)
    sub = generate_subgroup(g, [r])
    assert sub.order == 4
    assert sub.members == naive_closure(g.table.tolist(), [r], g.identity)
    assert generate_subgroup(g, range(g.order)).order == 8


def test_subgroup_validation_rejects_nonclosed():
    g = cyclic(6)
    with pytest.raises(NotAGroupError):
        g.subgroup({0, 1})


# -- characteristic subgroups -------------------------------------------------

def test_center_derived_abelian():
    g = abelian([9])
    assert center(g).order == 9
    assert derived_subgroup(g).order == 1


@pytest.mark.parametrize("order", [8, 16, 32, 64])
def test_dihedral_derived_is_squares_and_y_criterion(order):
    g = dihedral_group(order)
    der = derived_subgroup(g)
    r = _rotation(g, order // 2)
    r2 = g.mul(r, r)
    assert der.members == generate_subgroup(g, [r2]).members
    y = two_element_class_subgroup(g)
    z = center(g)
    assert generate_subgroup(g, y.members | z.members).members == der.members


def test_derived_of_holomorph_has_order_4():
    assert derived_subgroup(holomorph_cyclic(8)).order == 4


def test_p_residual_of_c6():
    g = cyclic(6)
    res = p_residual(g, 2)
    odd = {x for x in range(6) if gcd(naive_element_order(g.table.tolist(), 0, x), 2) == 1}
    assert res.members == naive_closure(g.table.tolist(), odd, 0)
    assert res.order == 3


def test_frattini_pgroup_equals_maximal_intersection():
    for g in (dihedral_group(8), quaternion8(), cyclic(8), dihedral_group(16)):
        fr = frattini_subgroup(g)
        inter = set(range(g.order))
        for m in maximal_subgroups(g):
            inter &= m.members
        assert fr.members == inter


def test_frattini_general_group():
    g = direct_product(dihedral_group(6), cyclic(2))
    inter = set(range(g.order))
    for m in maximal_subgroups(g):
        inter &= m.members
    assert frattini_subgroup(g).members == inter


# -- relative subgroups -------------------------------------------------------

def test_centralizer_of_center_is_group():
    g = dihedral_group(16)
    assert centralizer(g, center(g).sorted_members).order == g.order


def test_commutator_subgroup_matches_definition():
    for g in (dihedral_group(8), quaternion8()):
        full = g.full_subgroup
        comms = {g.commutator(a, b) for a in range(g.order) for b in range(g.order)}
        expected = naive_closure(g.table.tolist(), comms, g.identity)
        assert commutator_subgroup(g, full, full).members == expected
        assert derived_subgroup(g).members == expected


def test_reduced_commutator_subgroup_extraspecial():
    g = extraspecial_27_exp3()
    m = reduced_commutator_subgroup(g, g.full_subgroup, 3)
    der = derived_subgroup(g)
    # [G, G] has order 3 and is central, so every cube condition is vacuous
    assert m.members == der.members
    assert m.order == 3


def test_reduced_commutator_subgroup_requires_p_subgroup():
    g = dihedral_group(6)
    with pytest.raises(HypothesisViolationError):
        reduced_commutator_subgroup(g, g.full_subgroup, 2)


def test_commutators_with_in_d8():
    g = dihedral_group(8)
    r = _rotation(g, 4)
    u = commutators_with(g, r, 2)
    assert u.members == {g.identity, g.mul(r, r)}
    assert u.is_normal


def test_commutators_with_hypothesis_violation():
    with pytest.raises(HypothesisViolationError):
        commutators_with(dihedral_group(16), 1, 2)


# -- Sylow / Hall -------------------------------------------------------------

def test_sylow_trivial_when_p_does_not_divide():
    assert sylow_subgroup(cyclic(5), 3).order == 1


def test_sylow_2_of_d12_order_4_oracle():
    g = dihedral_group(12)
    syl = sylow_subgroup(g, 2)
    assert syl.order == 4
    # exhaustive: no subgroup of order 8 exists, at least one of order 4 does
    orders = {s.order for s in all_subgroups(g)}
    assert 4 in orders and 8 not in orders


def test_hall_complement_cases():
    g = dihedral_group(8)
    assert hall_complement(g, 2).order == 1
    c6 = cyclic(6)
    h = hall_complement(c6, 3)
    assert h.order == 2 and h.members == {0, 3}
    with pytest.raises(NoComplementError):
        hall_complement(dihedral_group(6), 2)  # Sylow 2 not normal


# -- quotients ----------------------------------------------------------------

def test_quotient_by_trivial_is_isomorphic_copy():
    g = dihedral_group(8)
    q, proj = quotient(g, g.trivial_subgroup)
    assert q.order == 8
    assert find_isomorphism(g, q) is not None
    assert sorted(proj.tolist()) == list(range(8))


def test_quotient_by_group_is_trivial():
    g = quaternion8()
    q, _ = quotient(g, g.full_subgroup)
    assert q.order == 1


def test_quotient_requires_normal():
    g = dihedral_group(6)
    refl = next(x for x in range(g.order) if g.element_order(x) == 2)
    with pytest.raises(NotNormalError):
        quotient(g, generate_subgroup(g, [refl]))


def test_holomorph_central_quotient():
    g = holomorph_cyclic(8)
    q, _ = quotient(g, center(g))
    assert q.order == 16
    assert q.conjugacy_classes.count == 10
    d8c2 = direct_product(dihedral_group(8), cyclic(2))
    assert find_isomorphism(q, d8c2) is not None


# -- p-parts ------------------------------------------------------------------

def test_p_decomposition_small_cases():
    c6 = cyclic(6)
    g = 1  # generator of C6, order 6
    dec = p_decomposition(c6, g, 2)
    assert dec.p_part == c6.power(g, 3)
    assert dec.pprime_part == c6.power(g, 4)
    assert p_decomposition(c6, 3, 2) == type(dec)(3, 3, 0)
    assert p_decomposition(c6, 2, 2) == type(dec)(2, 0, 2)


def test_p_decomposition_properties_catalog_sample():
    for name, g in builtin_catalog():
        if g.order > 32:
            continue
        table = g.table.tolist()
        for p in (2, 3):
            for x in range(g.order):
                dec = p_decomposition(g, x, p)
                assert g.mul(dec.p_part, dec.pprime_part) == x
                assert g.mul(dec.pprime_part, dec.p_part) == x
                o = g.element_order(dec.p_part)
                while o % p == 0:
                    o //= p
                assert o == 1
                assert gcd(g.element_order(dec.pprime_part), p) == 1
                assert dec.pprime_part == naive_pprime_part(table, g.identity, x, p)


def test_pprime_sections():
    assert len(pprime_sections(dihedral_group(16), 2)) == 1
    c5 = cyclic(5)
    assert len(pprime_sections(c5, 2)) == c5.conjugacy_classes.count
    sizes = sorted(len(s) for s in pprime_sections(dihedral_group(12), 2))
    assert sizes == [4, 8]


# -- nilpotency / metabelian / central products --------------------------------

def test_nilpotency_class_values():
    assert nilpotency_class(abelian([4, 4])) == 1
    assert nilpotency_class(extraspecial_27_exp3()) == 2
    assert nilpotency_class(dihedral_group(16)) == 3
    with pytest.raises(NotNilpotentError):
        nilpotency_class(dihedral_group(6))


def test_nilpotency_matches_naive_series():
    for g in (dihedral_group(16), extraspecial_27_exp3(), wreath_3_3()):
        series = naive_lower_central_series(g.table.tolist())
        assert series[-1] == frozenset({g.identity})
        assert nilpotency_class(g) == len(series) - 1


def test_is_metabelian():
    from modsocle.catalog import symmetric4

    assert is_metabelian(dihedral_group(32))
    assert is_metabelian(abelian([8]))
    assert not is_metabelian(symmetric4())


def test_is_central_product():
    g = dihedral_group(8)
    assert is_central_product(g, g.full_subgroup, center(g))
    prod = direct_product(cyclic(2), cyclic(3))
    c2_factor = generate_subgroup(prod, [3])  # (1, 0) encoded as 1 * 3 + 0
    c3_factor = generate_subgroup(prod, [1])
    assert is_central_product(prod, c2_factor, c3_factor)
    rot = generate_subgroup(g, [_rotation(g, 4)])
    assert not is_central_product(g, rot, rot)


# -- isoclinism ---------------------------------------------------------------

def test_isoclinic_to_self():
    g = dihedral_group(8)
    w = are_isoclinic(g, g)
    assert w is not None


def test_maximal_class_16_triple_pairwise_isoclinic():
    trio = [family("dihedral", 16), family("semidihedral", 16), family("quaternion", 16)]
    for a, b in itertools.combinations(trio, 2):
        w = are_isoclinic(a, b)
        assert w is not None
        phi = w.derived_iso
        da, db = derived_subgroup(a), derived_subgroup(b)
        assert set(phi) == da.members and set(phi.values()) == db.members


def test_not_isoclinic_fast_fail():
    assert are_isoclinic(cyclic(4), dihedral_group(8)) is None


# -- stated invariants over the catalog ----------------------------------------

def test_two_length_class_generators_are_normal():
    for _, g in builtin_two_groups():
        for cls in g.conjugacy_classes.classes:
            if len(cls) == 2:
                f, x = cls
                c = g.mul(x, g.inv(f))
                assert generate_subgroup(g, [c]).is_normal


def test_two_element_class_subgroup_in_center_of_frattini():
    for _, g in builtin_two_groups():
        y = two_element_class_subgroup(g)
        fr = frattini_subgroup(g)
        zfr = centralizer(g, fr.sorted_members, within=fr)
        assert y.members <= zfr.members
        ygroup, _ = y.as_group()
        assert ygroup.is_abelian


def test_odd_abelian_product_of_all_elements_is_identity():
    for invs in ([3], [9], [3, 3], [27], [5], [9, 3]):
        g = abelian(invs)
        acc = g.identity
        for x in range(g.order):
            acc = g.mul(acc, x)
        assert acc == g.identity


def test_semidirect_shape_structure_over_catalog():
    """On P x| H catalog groups: C_G(P) = O_p'(G) x Z(P), O^p = <H, [G,H]>,
    and (O^p)' = [G, H]."""
    checked = 0
    for p in (2, 3):
        for _, g in builtin_catalog():
            if g.order % p or g.order > 100:
                continue
            syl = sylow_subgroup(g, p)
            if not syl.is_normal:
                continue
            try:
                h = hall_complement(g, p)
            except NoComplementError:
                continue
            arr = np.array(h.sorted_members)
            if not np.array_equal(g.table[np.ix_(arr, arr)], g.table[np.ix_(arr, arr)].T):
                continue
            cg = centralizer(g, syl.sorted_members)
            core = pprime_core(g, p)
            zp = centralizer(g, syl.sorted_members, within=syl)
            prod = {g.mul(a, b) for a in core.members for b in zp.members}
            assert cg.members == prod
            assert len(prod) == core.order * zp.order
            gh = commutator_subgroup(g, g.full_subgroup, h)
            res = p_residual(g, p)
            assert res.members == generate_subgroup(g, h.members | gh.members).members
            res_group, res_members = res.as_group()
            der_local = derived_subgroup(res_group)
            assert {res_members[m] for m in der_local.members} == gh.members
            checked += 1
    assert checked >= 8


def test_normal_subgroups_of_d16():
    subs = normal_subgroups(dihedral_group(16))
    assert {s.order for s in subs} == {1, 2, 4, 8, 16}


def test_all_subgroups_equal_closures_of_small_subsets():
    """Every subgroup of a group of order n has at most floor(log2 n)
    generators, so the lattice is the set of closures of all subsets of at
    most that many elements. Closures of (r+1)-subsets are those of an
    r-subset's closure plus one element, which keeps the oracle cheap."""
    for name, g in builtin_catalog():
        if g.order > 24:
            continue
        table = g.table.tolist()
        level = {frozenset({g.identity})}
        expected = set(level)
        for _ in range(g.order.bit_length() - 1):
            level = {naive_closure(table, c | {x}, g.identity)
                     for c in level for x in range(g.order)}
            expected |= level
        subs = all_subgroups(g)
        assert {s.members for s in subs} == expected, name
        assert len(subs) == len(expected)
        assert [(s.order, s.sorted_members) for s in subs] == sorted(
            (len(m), tuple(sorted(m))) for m in expected)


def test_smallgroup_216_86_lattice():
    g = smallgroup_216_86()
    subs = all_subgroups(g)
    assert len(subs) == 118
    assert sum(s.is_normal for s in subs) == 6
    assert frattini_subgroup(g).order == 3


def test_closure_extends_a_subgroup_like_naive_closure():
    rng = np.random.default_rng(7)
    for g in (dihedral_group(12), holomorph_cyclic(8), direct_product(dihedral_group(6), cyclic(4))):
        table = g.table.tolist()
        for h in all_subgroups(g):
            gens = {int(x) for x in rng.integers(0, g.order, size=rng.integers(0, 3, endpoint=True))}
            assert _closure(g.table, h.members, gens) == naive_closure(
                table, h.members | gens, g.identity)


def test_normalizer_grows_p_subgroups():
    g = dihedral_group(12)
    syl = sylow_subgroup(g, 2)
    assert normalizer(g, syl).order >= syl.order


def test_cores_and_residual_of_a_two_group_are_trivial():
    g = dihedral_group(16)
    assert pprime_core(g, 2).order == 1
    assert p_residual(g, 2).order == 1


def test_centralizer_normalizer_and_reduced_commutator_in_d8():
    g = dihedral_group(8)
    z = center(g)
    assert centralizer(g, z.sorted_members).order == 8
    assert normalizer(g, z.sorted_members).order == 8
    assert reduced_commutator_subgroup(g, g.full_subgroup, 2).is_normal


def test_characteristic_subgroups_are_computed_once_per_group_and_prime():
    g = dihedral_group(12)
    assert sylow_subgroup(g, 2) is sylow_subgroup(g, 2)
    assert sylow_subgroup(g, 2) != sylow_subgroup(g, 3)
    assert derived_subgroup(g) is derived_subgroup(g)
    for fact in (center, two_element_class_subgroup):
        assert fact(g) is fact(g)
    for fact in (p_core, pprime_core, p_residual, hall_complement):
        assert fact(g, 3) is fact(g, 3)
    assert pprime_core(g, 2) != pprime_core(g, 3)
    twin = dihedral_group(12)
    assert derived_subgroup(twin) is not derived_subgroup(g)
    assert derived_subgroup(twin).members == derived_subgroup(g).members
