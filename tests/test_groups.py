"""Cayley-table groups: validation, subgroups, quotients, decompositions."""

import itertools
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from modsocle import groups
from modsocle.algebra import GroupAlgebra
from modsocle.catalog import (
    alternating4,
    builtin_catalog,
    builtin_two_groups,
    dicyclic12,
    load_catalog_dir,
    symmetric4,
    wreath_3_3,
)
from modsocle.constructors import (
    abelian,
    cyclic,
    dihedral_group,
    direct_product,
    extraspecial_27_exp3,
    family,
    from_permutations,
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
    ParseError,
)
from modsocle.groups import (
    _closure,
    _latin_check,
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
    is_p_group,
    is_solvable,
    lower_central_series,
    make_group,
    nilpotency_class,
    normal_subgroups,
    normalizer,
    p_core,
    p_residual,
    pprime_core,
    pprime_sections,
    quotient,
    sylow_subgroup,
    two_element_class_subgroup,
)

from .oracles import (
    all_conjugates_p_core,
    backtracking_hall_complement,
    closure_isoclinism,
    commutators_with,
    double_coset_lattice,
    fixed_point_pprime_core,
    loop_pprime_sections,
    maximal_subgroups,
    naive_closure,
    naive_conjugacy_classes,
    naive_element_order,
    naive_lower_central_series,
    naive_pprime_part,
    normalizer_ascent_sylow,
    p_decomposition,
    pairwise_commutator_subgroup,
    reduced_commutator_subgroup,
    row_loop_latin_check,
)


@pytest.fixture(scope="module")
def hard():
    """The perm catalog `tests/data/hard_groups` by name: non-soluble groups
    and soluble groups with large elementary abelian sections."""
    return dict(load_catalog_dir(Path(__file__).parent / "data" / "hard_groups").entries)


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


def _latin_error(check, table):
    try:
        check(table)
    except NotAGroupError as exc:
        return exc.axiom, exc.witness
    return None


def _with_defects(table, rows, cols, rng):
    """`table` with bad rows exactly `rows` and bad columns exactly `cols`
    (each a pair or empty): swapping two cells of one column breaks their two
    rows only, and swapping two cells of one row breaks their two columns
    only. The column used lies outside `cols` and the row outside `rows`."""
    n = table.shape[0]
    t = table.copy()
    if rows:
        j = int(rng.choice([x for x in range(n) if x not in cols]))
        t[list(rows), j] = t[list(rows)[::-1], j]
    if cols:
        i = int(rng.choice([x for x in range(n) if x not in rows]))
        t[i, list(cols)] = t[i, list(cols)[::-1]]
    return t


def _latin_corruptions(table, rng):
    """Row-only and column-only defects, then a column defect at an index
    below every row defect, the reverse, and an index bad both ways. A table
    of order 1 has no two cells to swap."""
    n = table.shape[0]
    for _ in range(3 if n >= 2 else 0):
        pair = tuple(int(x) for x in rng.choice(n, 2, replace=False))
        yield _with_defects(table, pair, (), rng)
        yield _with_defects(table, (), pair, rng)
        if n >= 3:
            low, a, b = (int(x) for x in sorted(rng.choice(n, 3, replace=False)))
            yield _with_defects(table, (a, b), (low, a), rng)
            yield _with_defects(table, (low, a), (a, b), rng)
            yield _with_defects(table, (low, a), (low, b), rng)


def test_latin_check_matches_the_row_loop():
    """The whole-array check accepts every builtin table and raises the row
    loop's (axiom, witness) on seeded corruptions of them and of D512."""
    rng = np.random.default_rng(19)
    tables = [g.table for _, g in builtin_catalog()] + [dihedral_group(512).table]
    axioms = set()
    for table in tables:
        assert _latin_error(_latin_check, table) is None
        assert _latin_error(row_loop_latin_check, table) is None
        for bad in _latin_corruptions(table, rng):
            expected = _latin_error(row_loop_latin_check, bad)
            assert expected is not None
            assert _latin_error(_latin_check, bad) == expected
            axioms.add(expected[0])
    assert axioms == {"latin-row", "latin-column"}


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
    """A subset is accepted iff it is one of the subgroups the lattice
    search finds; the empty set and indices outside the group are rejected."""
    for g in (cyclic(6), dihedral_group(6), dihedral_group(8), quaternion8()):
        lattice = {h.members for h in all_subgroups(g)}
        for size in range(g.order + 1):
            for subset in itertools.combinations(range(g.order), size):
                if frozenset(subset) in lattice:
                    assert g.subgroup(subset).members == frozenset(subset)
                    continue
                with pytest.raises(NotAGroupError) as err:
                    g.subgroup(subset)
                witness = err.value.witness
                assert witness is None or all(type(w) is int for w in witness)
    c6 = cyclic(6)
    for subset in ({0, 7}, {0, -6}):
        with pytest.raises(NotAGroupError) as err:
            c6.subgroup(subset)
        assert err.value.axiom == "index-range"
        assert all(type(w) is int for w in err.value.witness)


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


def test_frattini_of_a_nilpotent_group_reads_no_lattice(monkeypatch):
    cases = [cyclic(6), direct_product(dihedral_group(8), cyclic(3)),
             abelian([2, 2, 2, 2, 3]), abelian([4, 6, 10])]
    expected = []
    for g in cases:
        inter = set(range(g.order))
        for m in maximal_subgroups(g):
            inter &= m.members
        expected.append(inter)

    def no_lattice(group):
        raise AssertionError(f"all_subgroups called on {group.name}")

    monkeypatch.setattr(groups, "all_subgroups", no_lattice)
    for g, inter in zip(cases, expected):
        assert frattini_subgroup(g).members == inter
    with pytest.raises(AssertionError):
        frattini_subgroup(symmetric4())


def test_frattini_walk_matches_the_pairwise_maximal_intersection(hard):
    """The one-pass walk down the lattice against the pairwise containment
    test, on every non-nilpotent builtin group and eleven more. Phi(D_2n) is
    the rotations of order n / rad(n), Phi(Hol(C9)) is the subgroup of order
    3 of C9, Phi(C4 x S3) is the square of C4, and Hol(C15), A5, S5 and the
    hard inputs have Phi = 1 (simple, almost simple, or every minimal normal
    subgroup elementary abelian and complemented)."""
    cases = [(name, g) for name, g in builtin_catalog()
             if lower_central_series(g)[-1].order > 1]
    expected = {"D24": 2, "D36": 3, "D96": 8, "Hol(C9)": 3, "Hol(C15)": 1, "C4xS3": 2,
                "A5": 1, "S5": 1, "Dih(C3^3)": 1, "PSL(2,7)": 1, "A6": 1, "PSL(2,11)": 1}
    cases += [("D24", dihedral_group(24)), ("D36", dihedral_group(36)),
              ("D96", dihedral_group(96)), ("Hol(C9)", holomorph_cyclic(9)),
              ("Hol(C15)", holomorph_cyclic(15)),
              ("C4xS3", direct_product(cyclic(4), dihedral_group(6))),
              ("A5", from_permutations([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])),
              ("S5", from_permutations([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]))]
    cases += [(name, hard[name]) for name in ("Dih(C3^3)", "PSL(2,7)", "A6", "PSL(2,11)")]
    for name, g in cases:
        inter = set(range(g.order))
        for m in maximal_subgroups(g):
            inter &= m.members
        fr = frattini_subgroup(g)
        assert fr.members == inter, name
        assert fr.order == expected.get(name, fr.order), name


# -- relative subgroups -------------------------------------------------------

def test_centralizer_of_center_is_group():
    g = dihedral_group(16)
    assert centralizer(g, center(g).sorted_members).order == g.order


def test_commutator_subgroup_matches_definition():
    for g in (dihedral_group(8), quaternion8()):
        full = g.full_subgroup
        comms = {g.commutator(a, b) for a in range(g.order) for b in range(g.order)}
        expected = naive_closure(g.table.tolist(), comms, g.identity)
        assert pairwise_commutator_subgroup(g, full, full).members == expected
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


def _random_permutation_groups(count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        degree = int(rng.integers(4, 8))
        gens = [rng.permutation(degree).tolist() for _ in range(2)]
        try:
            out.append(from_permutations(gens, name=f"R{len(out)}", max_order=200))
        except ParseError:
            continue
    return out


def test_one_pass_hall_complement_and_pprime_core_match_the_old_searches():
    # The one-pass versions rest on Schur-Zassenhaus and on O_p' absorbing
    # every class it holds; the oracles backtrack and iterate to a fixed point.
    cases = [g for _, g in builtin_catalog()] + [
        dihedral_group(96), dihedral_group(200), cyclic(360),
        *(holomorph_cyclic(n) for n in (9, 15, 20, 21)),
        *_random_permutation_groups(12, seed=2024)]
    complements = 0
    for g in cases:
        for p in (2, 3, 5, 7):
            assert pprime_core(g, p).members == fixed_point_pprime_core(g, p), (g, p)
            if not sylow_subgroup(g, p).is_normal:
                continue
            expected = backtracking_hall_complement(g, p)
            assert expected is not None
            assert hall_complement(g, p).members == expected, (g, p)
            complements += 1
    assert complements > 200


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


def test_pprime_sections_match_the_per_element_loop():
    extra = (dihedral_group(512), family("quaternion", 512), dihedral_group(96),
             holomorph_cyclic(15), smallgroup_216_86())
    cases = 0
    for g in [g for _, g in builtin_catalog()] + list(extra):
        for p in (2, 3, 5):
            assert pprime_sections(g, p) == loop_pprime_sections(g, p), (g.name, p)
            cases += 1
    assert cases == 171


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


def test_subgroup_is_abelian_matches_the_standalone_group():
    for _, g in builtin_catalog():
        if g.order > 24:
            continue
        for h in all_subgroups(g):
            assert h.is_abelian == h.as_group()[0].is_abelian, (g.name, h.sorted_members)


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


def test_isoclinism_matches_the_product_closure():
    cat = [g for _, g in builtin_catalog() if g.order <= 64]
    witnesses = 0
    for a, b in itertools.combinations_with_replacement(cat, 2):
        if a.order != b.order:
            continue
        w = are_isoclinic(a, b)
        ref = closure_isoclinism(a, b)
        assert (w is None) == (ref is None), (a, b)
        if w is not None:
            assert np.array_equal(w.central_quotient_iso, ref[0]) and w.derived_iso == ref[1]
            witnesses += 1
    assert witnesses > 50


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
            gh = pairwise_commutator_subgroup(g, g.full_subgroup, h)
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


def test_all_subgroups_match_the_double_coset_oracle(hard):
    """The search by conjugacy classes finds exactly the subgroups that
    extending every subgroup by one element per double coset finds, in the
    same order, on every builtin group and eight larger ones, A5, S5,
    PSL(2,7) and A6 not soluble. The counts are independent: A5 has 59
    subgroups, S5 156, D96 tau(48) + sigma(48) = 10 + 124, SmallGroup(216, 86)
    118, and Dih(C3^3) the 28 subgroups B of C3^3 plus the 184 = sum |C3^3 : B|
    of the form B<ta>. PSL(2,7), A6, PSL(2,11) and S6 have 179, 501, 620 and
    1455 subgroups (tables of marks); the oracle is too slow for the last two."""
    cases = [*builtin_catalog(),
             ("Hol(C15)", holomorph_cyclic(15)),
             ("D96", dihedral_group(96)),
             ("216-86", smallgroup_216_86()),
             ("A5", from_permutations([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])),
             ("S5", from_permutations([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]))]
    cases += [(name, hard[name]) for name in ("PSL(2,7)", "Dih(C3^3)", "A6")]
    counts = {}
    for name, g in cases:
        got = [(s.order, s.sorted_members) for s in all_subgroups(g)]
        assert got == double_coset_lattice(g), name
        counts[name] = len(got)
    for name in ("PSL(2,11)", "S6"):
        counts[name] = len(all_subgroups(hard[name]))
    assert counts["A5"] == 59
    assert counts["S5"] == 156
    assert counts["D96"] == 134
    assert counts["216-86"] == 118
    assert counts["Dih(C3^3)"] == 212
    assert counts["PSL(2,7)"] == 179
    assert counts["A6"] == 501
    assert counts["PSL(2,11)"] == 620
    assert counts["S6"] == 1455


def test_all_subgroups_extends_one_subgroup_per_class(monkeypatch):
    """D96 has 134 subgroups in 28 classes. Extending one subgroup per class
    by the q-elements g in its normalizer with g^q in it takes 47 closures,
    and the derived series 2 more; the double-coset oracle, which extends
    every subgroup by every double coset, takes 1,941."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _closure(*args)

    monkeypatch.setattr(groups, "_closure", counted)
    assert len(all_subgroups(dihedral_group(96))) == 134
    assert len(calls) <= 60


def test_is_solvable(hard):
    """True on every builtin group and on the soluble hard inputs; false on
    A5, S5 and the non-soluble hard inputs, which have a non-abelian simple
    section."""
    soluble = [*builtin_catalog(),
               ("D96", dihedral_group(96)),
               ("Hol(C15)", holomorph_cyclic(15)),
               ("216-86", smallgroup_216_86()),
               *((name, hard[name]) for name in ("C2^4xS3", "Dih(C3^4)"))]
    insoluble = [("A5", from_permutations([[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])),
                 ("S5", from_permutations([[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])),
                 *((name, hard[name]) for name in ("PSL(2,7)", "A6", "PSL(2,11)", "S6"))]
    for name, g in soluble:
        assert is_solvable(g), name
    for name, g in insoluble:
        assert not is_solvable(g), name


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


def _naive_conjugates(g):
    """conj(x, members): the set x members x^-1, from the raw table."""
    t = g.table.tolist()
    inv = [row.index(g.identity) for row in t]
    return lambda x, members: frozenset(t[t[x][m]][inv[x]] for m in members)


def test_p_core_is_the_intersection_of_the_sylow_conjugates():
    for p in (2, 3):
        for name, g in builtin_catalog():
            conj = _naive_conjugates(g)
            syl = sylow_subgroup(g, p).members
            core = frozenset.intersection(*(conj(x, syl) for x in range(g.order)))
            assert p_core(g, p).members == core, (name, p)


def test_characteristic_subgroups_from_the_generators_match_the_old_forms():
    """[A, G] (for the lower central terms and for Sylow subgroups), Z(G)
    and O_p(G) read from the generators equal the all-pairs commutators, the
    table's symmetric rows and the all-conjugates core, and a p-group's
    Sylow subgroup is the one the normalizer ascent grows."""
    randoms = _random_permutation_groups(20, seed=20)
    extra = (dihedral_group(512), family("quaternion", 512), dihedral_group(96),
             holomorph_cyclic(15), smallgroup_216_86())
    for g in [g for _, g in builtin_catalog()] + list(extra) + randoms:
        full = g.full_subgroup
        series = [full]
        while True:
            nxt = pairwise_commutator_subgroup(g, series[-1], full)
            if nxt == series[-1]:
                break
            series.append(nxt)
        assert groups.lower_central_series(g) == tuple(series), g.name
        assert derived_subgroup(g) == series[min(1, len(series) - 1)], g.name
        central = np.flatnonzero((g.table == g.table.T).all(axis=1))
        assert center(g).sorted_members == tuple(central.tolist()), g.name
        for p in (2, 3, 5):
            syl = sylow_subgroup(g, p)  # not normal in general: [P, G] needs the normal closure
            assert commutator_subgroup(g, syl) == pairwise_commutator_subgroup(g, syl, full), \
                (g.name, p)
            assert p_core(g, p) == all_conjugates_p_core(g, p), (g.name, p)
            if is_p_group(g.order, p):
                assert sylow_subgroup(g, p) == normalizer_ascent_sylow(g, p), (g.name, p)
    for g in randoms:
        for p in (2, 3):
            GroupAlgebra(g, p).soc_is_ideal  # raises if the two routes disagree


def test_characteristic_subgroups_conjugate_by_the_generators_only(monkeypatch):
    """No |G| conjugators, no normalizer and no all-pairs commutator closure
    for the lower central series, centre, p-core and Sylow subgroup of a
    2-group."""
    g = dihedral_group(512)
    widths = []
    conjugates = groups._conjugates

    def counted(group, members, by):
        widths.append(len(by))
        return conjugates(group, members, by)

    def forbidden(*args, **kwargs):
        raise AssertionError("a |G|-wide search was called")

    monkeypatch.setattr(groups, "_conjugates", counted)
    monkeypatch.setattr(groups, "normalizer", forbidden)
    monkeypatch.setattr(groups, "generate_subgroup", forbidden)
    assert len(groups.lower_central_series(g)) == 9
    assert center(g).order == 2
    assert p_core(g, 2).order == sylow_subgroup(g, 2).order == 512
    assert widths and max(widths) <= len(g.generators)


def test_normalizer_and_is_normal_match_their_definitions():
    for g in (dihedral_group(8), quaternion8(), alternating4(), symmetric4(), dicyclic12()):
        conj = _naive_conjugates(g)
        subs = all_subgroups(g)
        for h in subs:
            norm = frozenset(x for x in range(g.order) if conj(x, h.members) == h.members)
            assert normalizer(g, h).members == norm, (g.name, h.sorted_members)
            assert h.is_normal == (len(norm) == g.order)
            assert list(h.coset_minima) == [
                min(g.mul(x, y) for x in h.members) for y in range(g.order)]
            for k in subs:
                assert normalizer(g, h, within=k).members == norm & k.members


def test_cores_and_residual_of_a_two_group_are_trivial():
    g = dihedral_group(16)
    assert pprime_core(g, 2).order == 1
    assert p_residual(g, 2).order == 1


def test_centralizer_normalizer_and_reduced_commutator_in_d8():
    g = dihedral_group(8)
    z = center(g)
    assert centralizer(g, z.sorted_members).order == 8
    assert normalizer(g, z).order == 8
    assert reduced_commutator_subgroup(g, g.full_subgroup, 2).is_normal


def test_characteristic_subgroups_are_computed_once_per_group_and_prime():
    g = dihedral_group(12)
    assert sylow_subgroup(g, 2) is sylow_subgroup(g, 2)
    assert sylow_subgroup(g, 2) != sylow_subgroup(g, 3)
    assert derived_subgroup(g) is derived_subgroup(g)
    for fact in (center, two_element_class_subgroup, groups.lower_central_series):
        assert fact(g) is fact(g)
    assert quotient(g, center(g)) is quotient(g, center(g))
    for fact in (p_core, pprime_core, p_residual, hall_complement):
        assert fact(g, 3) is fact(g, 3)
    assert pprime_core(g, 2) != pprime_core(g, 3)
    twin = dihedral_group(12)
    assert derived_subgroup(twin) is not derived_subgroup(g)
    assert derived_subgroup(twin).members == derived_subgroup(g).members
