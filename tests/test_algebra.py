"""Group algebra operations: center, radical, socle, Reynolds ideal, quotients."""

import tracemalloc
from functools import cached_property
from math import isqrt

import numpy as np
import pytest

from modsocle import fplin
from modsocle.algebra import GroupAlgebra
from modsocle.catalog import (
    alternating4,
    builtin_catalog,
    builtin_two_groups,
    dicyclic12,
    symmetric4,
    wreath_3_3,
)
from modsocle.cli import group_from_spec
from modsocle.constructors import (
    abelian,
    cyclic,
    dihedral_group,
    extraspecial_27_exp3,
    family,
    heisenberg,
    holomorph_cyclic,
    quaternion8,
    smallgroup_216_86,
)
from modsocle.errors import (
    DimensionMismatchError,
    DualRouteDisagreementError,
    HypothesisViolationError,
    ModulusTooLargeError,
    NotNormalError,
)
from modsocle.fplin import FpSubspace, nullspace
from modsocle.groups import (
    all_subgroups,
    center,
    centralizer,
    derived_subgroup,
    generate_subgroup,
    is_p_group,
    normal_subgroups,
    p_core,
    pprime_core,
    pprime_sections,
    sylow_subgroup,
)

from .oracles import (
    central_mult_matrix,
    central_multiply,
    commutator_space,
    convolve,
    derived_sum_space,
    embed_central,
    fg_verdicts,
    identity_coefficient,
    inflate_from_quotient,
    left_ideal_closure,
    naive_center_annihilator,
    naive_class_structure_constants,
    naive_commutator_rows,
    naive_frobenius_power,
    push_to_quotient,
    quotient_annihilator,
    relative_augmentation_ideal,
    stacked_nullspace,
    subgroup_sum_ideal,
    translation_closed,
    witness_failures,
)


def s3():
    return dihedral_group(6, name="S3")


def test_center_basis_counts():
    assert GroupAlgebra(abelian([2, 3]), 2).center_dim == 6
    assert GroupAlgebra(dihedral_group(8), 2).center_dim == 5
    assert GroupAlgebra(holomorph_cyclic(8), 2).center_dim == 11


@pytest.mark.parametrize("p", (2, 3, 100003))
@pytest.mark.parametrize("make", (lambda: dihedral_group(16), symmetric4,
                                  lambda: holomorph_cyclic(15)))
def test_central_mult_matrix_matches_the_full_contraction(make, p):
    alg = GroupAlgebra(make(), p)
    k = alg.center_dim
    a = naive_class_structure_constants(alg)
    two = np.zeros(k, dtype=np.int64)
    two[[0, k - 1]] = (1, p - 1)
    dense = np.random.default_rng(p).integers(0, p, size=k)
    for v in (np.zeros(k, dtype=np.int64), *np.eye(k, dtype=np.int64), two, dense):
        full = np.einsum("i,ijl->lj", v, a) % p
        assert np.array_equal(central_mult_matrix(alg, v), full)


def test_class_sum_maps_match_the_pairwise_count():
    cases = [(g, p) for _, g in builtin_catalog() for p in (2, 3)]
    for g, p in cases + [(dihedral_group(512), 2)]:
        alg = GroupAlgebra(g, p)
        a = naive_class_structure_constants(alg)
        for i, e in enumerate(np.eye(alg.center_dim, dtype=np.int64)):
            assert np.array_equal(central_mult_matrix(alg, e), a[i].T), (g.name, p, i)


def test_central_products_are_exact_at_the_int64_bound():
    # the largest prime with (p-1)^2 * 24 < 2^63: a product of two dense
    # central elements of F_p[S4] sums 24 products of residues near the bound
    primes = (q for q in range(isqrt((2 ** 63 - 1) // 24) + 1, 2, -1) if fplin.is_prime(q))
    p = next(q for q in primes if (q - 1) ** 2 * 24 < 2 ** 63)
    with pytest.raises(ModulusTooLargeError):
        GroupAlgebra(symmetric4(), next(q for q in range(p + 1, 2 * p) if fplin.is_prime(q)))
    alg = GroupAlgebra(symmetric4(), p)
    k = alg.center_dim
    dense = np.full(k, p - 1, dtype=np.int64)
    full = np.einsum("i,ijl->lj", dense, naive_class_structure_constants(alg)) % p
    assert np.array_equal(central_mult_matrix(alg, dense), full)
    assert np.array_equal(alg._central_product(dense, dense), full @ dense % p)
    assert alg.jacobson_center.dim == 0


def test_central_products_match_the_single_product_column_by_column():
    rng = np.random.default_rng(11)
    cases = [(g, p) for _, g in builtin_catalog() for p in (2, 3)]
    for g, p in cases + [(dihedral_group(512), p) for p in (2, 3)]:
        alg = GroupAlgebra(g, p)
        k = alg.center_dim
        dense = rng.integers(1, p, size=k)
        # the identity makes d = k, so a dense support is gathered in slices
        for w in (rng.integers(0, p, size=(k, 3)), np.eye(k, dtype=np.int64)):
            for u in (np.zeros(k, dtype=np.int64), dense):
                got = alg._central_products(u, w)
                want = np.stack([alg._central_product(u, c) for c in w.T], axis=1)
                assert np.array_equal(got, want), (g.name, p)


def test_socle_of_d1024_gathers_its_products_in_slices():
    # k = 259; a radical basis vector with 256 elements in its support,
    # gathered unsliced on a kernel of dimension about 130, makes a
    # 256 x 259 x 130 int64 block: a peak of about 68 MiB
    alg = GroupAlgebra(dihedral_group(1024), 2)
    alg.jacobson_center
    tracemalloc.start()
    try:
        alg.socle_center
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert alg.socle_center.dim == 4


def test_radical_and_socle_allocate_no_cube_of_the_class_count():
    # C2^8 has k = 256 classes: a k x k x k int64 array would take 128 MiB
    alg = GroupAlgebra(abelian([2] * 8), 2)
    tracemalloc.start()
    try:
        alg.jacobson_center
        alg.socle_center
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


# -- relative augmentation ideal ----------------------------------------------

def test_relative_augmentation_ideal_cases():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    assert relative_augmentation_ideal(alg, g.trivial_subgroup).dim == 0
    c2 = GroupAlgebra(cyclic(2), 2)
    span = relative_augmentation_ideal(c2, c2.group.full_subgroup)
    assert span.dim == 1 and span.contains([1, 1])
    der = derived_subgroup(g)
    assert relative_augmentation_ideal(alg, der).dim == 8 - 4
    refl = next(x for x in range(8) if g.element_order(x) == 2
                and x not in center(g).members)
    with pytest.raises(NotNormalError):
        relative_augmentation_ideal(alg, generate_subgroup(g, [refl]))


# -- commutator space ----------------------------------------------------------

def test_commutator_space_matches_naive_span():
    for group, p in ((dihedral_group(8), 2), (s3(), 3), (quaternion8(), 2)):
        alg = GroupAlgebra(group, p)
        direct = FpSubspace.span(naive_commutator_rows(group), p, group.order)
        assert commutator_space(alg) == direct


def test_commutator_space_abelian_is_zero():
    assert commutator_space(GroupAlgebra(abelian([4, 2]), 2)).dim == 0


def test_left_closure_of_commutator_space_is_derived_augmentation():
    # F_pG . K(F_pG) coincides with the kernel of the map onto F_p[G/G']
    cases = [(s3(), 3, 4), (dihedral_group(8), 2, 4), (quaternion8(), 2, 4),
             (dihedral_group(16), 2, 12), (extraspecial_27_exp3(), 3, 18)]
    for group, p, expected_dim in cases:
        alg = GroupAlgebra(group, p)
        closed = left_ideal_closure(alg, commutator_space(alg))
        omega = relative_augmentation_ideal(alg, derived_subgroup(group))
        assert closed == omega
        assert closed.dim == expected_dim


# -- quotient maps -------------------------------------------------------------

def test_push_and_inflate_basic():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    der = derived_subgroup(g)
    qalg, _ = alg.quotient_algebra(der)
    one, q_one = (np.eye(a.dim, dtype=np.int64)[a.group.identity] for a in (alg, qalg))
    assert np.array_equal(push_to_quotient(alg, one, der), q_one)
    der_sum = der.mask.astype(np.int64)
    pushed = push_to_quotient(alg, der_sum, der)
    assert pushed.tolist() == [len(der.members) % 2, 0, 0, 0]
    assert np.array_equal(inflate_from_quotient(alg, q_one, der), der_sum)


def test_push_inflate_adjoint_under_lambda_form():
    g = dihedral_group(16)
    alg = GroupAlgebra(g, 2)
    n = center(g)
    qalg, _ = alg.quotient_algebra(n)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.integers(0, 2, size=qalg.dim)
        y = rng.integers(0, 2, size=alg.dim)
        lhs = identity_coefficient(alg, convolve(alg, inflate_from_quotient(alg, x, n), y))
        rhs = identity_coefficient(qalg, convolve(qalg, x, push_to_quotient(alg, y, n)))
        assert lhs == rhs


def test_inflate_image_is_coset_sum_space():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    n = center(g)
    qalg, _ = alg.quotient_algebra(n)
    rows = [inflate_from_quotient(alg, e, n) for e in np.eye(qalg.dim, dtype=np.int64)]
    image = FpSubspace.span(np.array(rows), 2, alg.dim)
    assert image == subgroup_sum_ideal(alg, n)


def test_inflation_detects_derived_coset_membership():
    # an element downstairs lies in the derived coset-sum space there exactly
    # when its inflation does upstairs
    g = dihedral_group(16)
    alg = GroupAlgebra(g, 2)
    n = center(g)
    qalg, _ = alg.quotient_algebra(n)
    up_target = subgroup_sum_ideal(alg, derived_subgroup(g))
    down_target = subgroup_sum_ideal(qalg, derived_subgroup(qalg.group))
    rng = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    for _ in range(40):
        x = rng.integers(0, 2, size=qalg.dim)
        down = down_target.contains(x)
        up = up_target.contains(inflate_from_quotient(alg, x, n))
        assert down == up
        seen[down] += 1
    assert seen[True] and seen[False]


# -- Jacobson radical of the center ---------------------------------------------

def test_jacobson_center_semisimple_is_zero():
    assert GroupAlgebra(cyclic(5), 2).jacobson_center.dim == 0
    assert GroupAlgebra(s3(), 5).jacobson_center.dim == 0


def test_jacobson_center_matches_naive_frobenius_power():
    # the bits of 2, 3, 5, 7, 11, 13 after the leading one: 0, 1, 01, 11, 011, 101
    for _, g in builtin_catalog():
        for p in (2, 3, 5, 7, 11, 13):
            alg = GroupAlgebra(g, p)
            power = naive_frobenius_power(alg)
            assert np.array_equal(alg._frobenius_power_matrix(), power), (g.name, p)
            naive = nullspace(power, p, cols=alg.center_dim)
            assert alg.jacobson_center == naive, (g.name, p)


def test_frobenius_power_squares_its_way_to_m(monkeypatch):
    # D512 has 131 classes, so m = 8 (2^8 >= 131 > 2^7): three squarings
    calls = []
    matmul = fplin.matmul

    def counted(a, b, p):
        calls.append((a.shape, b.shape))
        return matmul(a, b, p)

    alg = GroupAlgebra(dihedral_group(512), 2)
    monkeypatch.setattr(fplin, "matmul", counted)
    power = alg._frobenius_power_matrix()
    assert calls == [((131, 131), (131, 131))] * 3
    monkeypatch.undo()
    assert np.array_equal(power, naive_frobenius_power(alg))
    # one class, so m = 0 and the power is the identity
    for p in (2, 5):
        trivial = GroupAlgebra(cyclic(1), p)
        assert trivial._frobenius_power_matrix().tolist() == [[1]]
        assert np.array_equal(trivial._frobenius_power_matrix(), naive_frobenius_power(trivial))


def test_group_algebra_enforces_the_int64_bound():
    # (p-1)^2 * 512 < 2^63 exactly when p - 1 < 2^27
    d512 = dihedral_group(512)
    assert GroupAlgebra(d512, 134217689).p == 134217689
    with pytest.raises(ModulusTooLargeError):
        GroupAlgebra(d512, 134217757)


def test_jacobson_center_c2():
    jac = GroupAlgebra(cyclic(2), 2).jacobson_center
    assert jac.dim == 1 and jac.contains([1, 1])


def test_jacobson_center_holomorph_square_zero():
    alg = GroupAlgebra(holomorph_cyclic(8), 2)
    jac = alg.jacobson_center
    assert jac.dim == 10
    for a in jac.basis:
        for b in jac.basis:
            assert not central_multiply(alg, a, b).any()


def test_jacobson_basis_pgroup_count():
    g = dihedral_group(16)
    alg = GroupAlgebra(g, 2)
    basis = alg.jacobson_center_basis
    assert len(basis) == g.conjugacy_classes.count - 1


def test_jacobson_basis_s3_frozen_values():
    alg = GroupAlgebra(s3(), 3)
    cls = alg.classes
    sizes = dict(zip(range(cls.count), cls.sizes()))
    basis = alg.jacobson_center_basis
    assert len(basis) == 2
    identity_class = int(cls.class_of[alg.group.identity])
    for i, vec in basis.items():
        if sizes[i] == 2:  # rotations: class sum minus 2 * identity
            expected = np.zeros(3, dtype=np.int64)
            expected[i] = 1
            expected[identity_class] = (-2) % 3
            assert vec.tolist() == expected.tolist()
        else:  # reflections: plain class sum
            assert sizes[i] == 3
            expected = np.zeros(3, dtype=np.int64)
            expected[i] = 1
            assert vec.tolist() == expected.tolist()


def test_jacobson_basis_requires_shape():
    with pytest.raises(HypothesisViolationError):
        GroupAlgebra(s3(), 2).jacobson_center_basis


def test_jacobson_basis_spans_radical_sample():
    for group, p in ((dihedral_group(8), 2), (s3(), 3), (smallgroup_216_86(), 3)):
        alg = GroupAlgebra(group, p)
        span = FpSubspace.span(np.array(list(alg.jacobson_center_basis.values())),
                               p, alg.center_dim)
        assert span == alg.jacobson_center


# -- socle ----------------------------------------------------------------------

def test_socle_semisimple_is_whole_center():
    alg = GroupAlgebra(s3(), 5)
    assert alg.socle_center.dim == alg.center_dim


def test_socle_abelian_p_group_is_group_sum():
    for invs in ([4], [2, 2], [8], [3, 3]):
        g = abelian(invs)
        p = 2 if g.order % 2 == 0 else 3
        alg = GroupAlgebra(g, p)
        soc = alg.socle_center
        assert soc.dim == 1
        assert soc.contains(np.ones(alg.center_dim, dtype=np.int64))


def test_socle_matches_naive_annihilator():
    for group, p in ((cyclic(4), 2), (dihedral_group(8), 2), (s3(), 3), (s3(), 2)):
        alg = GroupAlgebra(group, p)
        jac_fg = [alg.expand_central(v) for v in alg.jacobson_center.basis]
        expected = naive_center_annihilator(alg, jac_fg)
        soc = alg.socle_center
        assert {tuple(v) for v in expected} == {
            tuple(v) for v in __import__("tests.oracles", fromlist=["enumerate_span"])
            .enumerate_span(soc.basis, p, alg.center_dim)}


def _stacked_oracle_cases():
    for name, g in builtin_catalog():
        for p in (2, 3, 5, 7):
            if g.order % p == 0:
                yield name, g, p
    for kind in ("dihedral", "semidihedral", "quaternion"):
        yield f"{kind}:128", family(kind, 128), 2


def test_socle_matches_the_stacked_oracle():
    cases = 0
    for name, g, p in _stacked_oracle_cases():
        alg = GroupAlgebra(g, p)
        maps = [central_mult_matrix(alg, r) for r in alg.jacobson_center.basis]
        assert alg.socle_center == stacked_nullspace(maps, p, alg.center_dim), (name, p)
        cases += 1
    assert cases == 62


def test_socle_eliminations_stay_within_the_center(monkeypatch):
    alg = GroupAlgebra(dihedral_group(128), 2)
    alg.jacobson_center  # computed first: only the socle's eliminations are recorded
    shapes = []
    rref = fplin.rref

    def recorded(m, p):
        shapes.append(np.shape(m))
        return rref(m, p)

    monkeypatch.setattr(fplin, "rref", recorded)
    alg.socle_center
    assert shapes
    assert max(rows for rows, _ in shapes) <= alg.center_dim


def test_socle_holomorph_equals_radical():
    alg = GroupAlgebra(holomorph_cyclic(8), 2)
    assert alg.socle_center == alg.jacobson_center
    assert alg.socle_center.dim == 10


def test_socle_annihilation_and_maximality_sample():
    alg = GroupAlgebra(dihedral_group(16), 2)
    soc = alg.socle_center
    jac = alg.jacobson_center
    for v in soc.basis:
        for b in jac.basis:
            assert not central_multiply(alg, v, b).any()
    rng = np.random.default_rng(17)
    tried = 0
    while tried < 10:
        v = rng.integers(0, 2, size=alg.center_dim)
        if soc.contains(v):
            continue
        tried += 1
        assert any(central_multiply(alg, v, b).any() for b in jac.basis)


# -- Reynolds ideal --------------------------------------------------------------

def test_reynolds_semisimple_and_p_group():
    alg = GroupAlgebra(cyclic(5), 2)
    assert alg.reynolds_center.dim == alg.center_dim
    g = dihedral_group(16)
    alg2 = GroupAlgebra(g, 2)
    rey = alg2.reynolds_center
    assert rey.dim == 1
    assert rey.contains(np.ones(alg2.center_dim, dtype=np.int64))


def test_reynolds_s3_at_2():
    alg = GroupAlgebra(s3(), 2)
    assert alg.reynolds_center.dim == 2
    # G' = C3 is not inside O_2(S3) = 1, while D16 is its own 2-core
    assert not alg.reynolds_is_ideal
    assert GroupAlgebra(dihedral_group(16), 2).reynolds_is_ideal


def test_reynolds_inside_socle_and_annihilates_radical():
    for p in (2, 3, 5):
        for _, g in builtin_catalog():
            if g.order > 32:
                continue
            alg = GroupAlgebra(g, p)
            rey = alg.reynolds_center
            assert alg.socle_center.contains(rey.basis)
            for r in rey.basis:
                for b in alg.jacobson_center.basis:
                    assert not central_multiply(alg, r, b).any()


@pytest.mark.parametrize("p", (2, 3))
def test_bases_built_in_rref_equal_the_span_of_their_rows(p):
    # reynolds_center and the embed_central oracle write their RREF bases down directly
    for name, g in builtin_catalog():
        alg = GroupAlgebra(g, p)
        k, class_of = alg.center_dim, alg.classes.class_of
        sections = pprime_sections(g, p)
        rows = np.zeros((len(sections), k), dtype=np.int64)
        for r, section in enumerate(sections):
            rows[r, class_of[list(section)]] = 1
        assert alg.reynolds_center == FpSubspace.span(rows, p, k), (name, p)
        for space in (alg.reynolds_center, alg.socle_center, alg.jacobson_center,
                      FpSubspace.span(np.zeros((0, k), dtype=np.int64), p, k)):
            expanded = np.array([alg.expand_central(v) for v in space.basis],
                                dtype=np.int64).reshape(-1, alg.dim)
            assert embed_central(alg, space) == FpSubspace.span(expanded, p, alg.dim), (name, p)


# -- ideal tests ------------------------------------------------------------------

def test_is_ideal_basic_cases():
    # class coordinates; each coset of D8' = Z(D8) is a union of classes
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    k = alg.center_dim
    assert alg.is_ideal(FpSubspace.span(np.zeros((0, k), dtype=np.int64), 2, k))
    assert alg.is_ideal(FpSubspace.span(np.ones((1, k), dtype=np.int64), 2, k))
    # the center and the identity's span hold 1, which generates all of F_pG
    assert not alg.is_ideal(FpSubspace.span(np.eye(k, dtype=np.int64), 2, k))
    assert not alg.is_ideal(FpSubspace.span(np.eye(k, dtype=np.int64)[:1], 2, k))
    cosets = derived_sum_space(alg)
    reps = list(alg.classes.representatives)
    central = FpSubspace.span(cosets.basis[:, reps], 2, k)
    assert embed_central(alg, central) == cosets
    assert alg.is_ideal(central) and translation_closed(alg, cosets)
    with pytest.raises(DimensionMismatchError):
        alg.is_ideal(cosets)


def test_derived_coset_space_is_ideal_catalog_sample():
    for _, g in builtin_catalog():
        if g.order > 32:
            continue
        alg = GroupAlgebra(g, 2)
        space = derived_sum_space(alg)
        assert translation_closed(alg, space)
        der = derived_subgroup(g)
        assert alg.in_coset_sum_ideal(space.basis, der)
        assert alg.in_coset_sum_ideal(np.ones(alg.dim, dtype=np.int64), der)
        if der.order > 1:
            assert not alg.in_coset_sum_ideal(np.eye(alg.dim, dtype=np.int64)[g.identity], der)


def test_soc_is_ideal_cases():
    assert GroupAlgebra(abelian([4, 2]), 2).soc_is_ideal
    hol = GroupAlgebra(holomorph_cyclic(8), 2)
    assert not hol.soc_is_ideal
    assert hol.socle_center.dim == 10 and derived_sum_space(hol).dim == 8
    for order in (8, 16, 32, 64):
        assert GroupAlgebra(dihedral_group(order), 2).soc_is_ideal


ORACLE_ROWS = (("dihedral:512", 2), ("quaternion:512", 2), ("holomorph:15", 2),
               ("dihedral:96", 3), ("smallgroup:216-86", 3), ("cyclic:1000", 5),
               ("abelian:2x2x2x2x2x2x2x2x3", 3))


def assert_verdicts_match_the_fg_oracles(alg) -> list[bool]:
    """Both verdicts against the F_pG oracles, and `equals_coset_sum_ideal`
    against the equality of F_pG subspaces, for the socle and the Reynolds
    ideal and the subgroups the equality claims name. Returns the equality
    verdicts."""
    want = fg_verdicts(alg)
    assert want["socle_closed"] == want["socle_in_derived_sum"] == alg.soc_is_ideal
    assert want["reynolds_closed"] == alg.reynolds_is_ideal
    g, der = alg.group, derived_subgroup(alg.group)
    subs = [der, p_core(g, alg.p), generate_subgroup(g, center(g).members | der.members)]
    if alg.ph_shape is not None:
        sylow = alg.ph_shape.sylow
        z_sylow = centralizer(g, sylow.sorted_members, within=sylow)
        subs.append(generate_subgroup(g, z_sylow.members | der.members))
    verdicts = []
    for space in (alg.socle_center, alg.reynolds_center):
        fg = embed_central(alg, space)
        for sub in subs:
            got = alg.equals_coset_sum_ideal(space, sub)
            assert got == (fg == subgroup_sum_ideal(alg, sub)), (g.name, alg.p, sub.order)
            verdicts.append(got)
    return verdicts


@pytest.mark.parametrize("p", (2, 3, 5))
def test_class_coordinate_routes_match_the_fg_oracles_on_the_catalog(p):
    rng = np.random.default_rng(p)
    verdicts = []
    for _, g in builtin_catalog():
        alg = GroupAlgebra(g, p)
        verdicts += assert_verdicts_match_the_fg_oracles(alg)
        cosets = derived_sum_space(alg)
        inside = rng.integers(0, p, size=(3, cosets.dim)) @ cosets.basis
        loose = rng.integers(0, p, size=(3, alg.dim))
        for y in (*inside, *loose):
            assert alg.in_coset_sum_ideal(y, derived_subgroup(g)) == cosets.contains(y), g.name
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("spec, p", ORACLE_ROWS)
def test_class_coordinate_routes_match_the_fg_oracles_at_scale(spec, p):
    assert_verdicts_match_the_fg_oracles(GroupAlgebra(group_from_spec(spec), p))


@pytest.mark.parametrize("p", (2, 3))
def test_coset_sum_membership_reads_right_cosets_for_every_subgroup(p):
    # S+ . x lies in S+ . F_pG by definition, and x . S+ lies in F_pG . S+,
    # constant on the left cosets gS; for a subgroup that is not normal the
    # two ideals differ, so a labelling by left cosets fails both ways
    rng = np.random.default_rng(31 + p)
    groups = (symmetric4(), dihedral_group(8), alternating4(), holomorph_cyclic(8), dicyclic12())
    non_normal = 0
    for g in groups:
        alg = GroupAlgebra(g, p)
        for sub in all_subgroups(g):
            oracle = subgroup_sum_ideal(alg, sub)
            s_sum = sub.mask.astype(np.int64)
            products = [convolve(alg, s_sum, x) for x in rng.integers(0, p, size=(2, g.order))]
            combos = rng.integers(0, p, size=(2, oracle.dim)) @ oracle.basis
            loose = [*rng.integers(0, p, size=(2, g.order)),
                     *(convolve(alg, x, s_sum) for x in rng.integers(0, p, size=(2, g.order)))]
            for y in (*products, *combos):
                assert alg.in_coset_sum_ideal(y, sub), (g.name, sub.order)
                assert oracle.contains(y)
            for y in loose:
                assert alg.in_coset_sum_ideal(y, sub) == oracle.contains(y), (g.name, sub.order)
            non_normal += not sub.is_normal
    assert non_normal == 78


def test_a_route_disagreement_is_a_hard_failure(monkeypatch):
    alg = GroupAlgebra(dihedral_group(8), 2)
    route2 = GroupAlgebra.in_coset_sum_ideal
    monkeypatch.setattr(GroupAlgebra, "in_coset_sum_ideal",
                        lambda self, coeffs, sub: not route2(self, coeffs, sub))
    with pytest.raises(DualRouteDisagreementError):
        alg.soc_is_ideal


def test_radical_socle_and_verdict_are_computed_once_per_algebra(monkeypatch):
    runs = []
    radical = GroupAlgebra.jacobson_center.func

    def counted(self):
        runs.append(self)
        return radical(self)

    prop = cached_property(counted)
    prop.__set_name__(GroupAlgebra, "jacobson_center")
    monkeypatch.setattr(GroupAlgebra, "jacobson_center", prop)
    closures = []
    closure = GroupAlgebra.is_ideal

    def counted_closure(self, space):
        closures.append(space)
        return closure(self, space)

    monkeypatch.setattr(GroupAlgebra, "is_ideal", counted_closure)
    alg = GroupAlgebra(dihedral_group(16), 2)
    assert alg.soc_is_ideal is True
    assert alg.soc_is_ideal is True
    assert closures == [alg.socle_center]
    assert alg.socle_center is alg.socle_center
    assert alg.jacobson_center is alg.jacobson_center
    assert runs == [alg]


# -- class selection and quotient annihilators -------------------------------------

def test_class_selection_n_trivial_selects_all():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    sel = alg.class_selection(g.trivial_subgroup)
    assert set(sel.selected) == set(alg.jacobson_center_basis)
    assert all(k == 1 for k in sel.multipliers.values())


def test_class_selection_n_full_is_empty():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    sel = alg.class_selection(g.full_subgroup)
    assert sel.selected == ()


def test_class_selection_pprime_classes_match_centralizer_rule():
    """For a normal p-subgroup N, a class of p'-elements outside C_G(P) is
    selected exactly when it centralizes N."""
    checked = 0
    for group, p in ((smallgroup_216_86(), 3), (dihedral_group(6, name="S3"), 3),
                     (holomorph_cyclic(8), 2)):
        alg = GroupAlgebra(group, p)
        if alg.ph_shape is None:
            continue
        syl = alg.ph_shape.sylow
        cgp = centralizer(group, syl.sorted_members)
        for n_sub in normal_subgroups(group):
            if not is_p_group(n_sub.order, p) or n_sub.order == 1:
                continue
            sel = alg.class_selection(n_sub)
            cgn = centralizer(group, n_sub.sorted_members)
            for i, members in enumerate(group.conjugacy_classes.classes):
                if any(group.element_order(m) % p == 0 for m in members):
                    continue
                if set(members) <= cgp.members:
                    continue
                if set(members) <= pprime_core(group, p).members:
                    continue
                assert (i in sel.selected) == (set(members) <= cgn.members)
                checked += 1
    assert checked


def test_quotient_annihilator_full_quotient():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    result = quotient_annihilator(alg, g.full_subgroup)
    assert result.space.dim == 1  # all of the center of the trivial algebra


def test_quotient_annihilator_center_quotient_pgroup():
    g = dihedral_group(16)
    alg = GroupAlgebra(g, 2)
    result = quotient_annihilator(alg, center(g))
    assert result.contained_in_derived_sum is True


def test_quotient_annihilator_d8_trivial_containment():
    g = dihedral_group(8)
    alg = GroupAlgebra(g, 2)
    result = quotient_annihilator(alg, center(g))
    # the central quotient is abelian, so the containment is into everything
    qalg = result.quotient_algebra
    assert qalg.group.is_abelian
    assert result.contained_in_derived_sum is True


# -- the odd-characteristic witness --------------------------------------------

def test_witness_extraspecial_27():
    alg = GroupAlgebra(extraspecial_27_exp3(), 3)
    y = alg.derived_annihilating_witness()
    der = derived_subgroup(alg.group)
    assert set(np.nonzero(y)[0]) <= der.members
    assert witness_failures(alg, y) == []


def test_witness_heisenberg_125():
    """Heisenberg groups at p = 5 and, one prime up, at p = 7: the witness
    is nonzero on |G'|(p-1)/p elements of G', of order p."""
    for p in (5, 7):
        alg = GroupAlgebra(heisenberg(p), p)
        y = alg.derived_annihilating_witness()
        assert witness_failures(alg, y) == []
        assert np.count_nonzero(y) == p - 1


def test_witness_hypothesis_violations():
    with pytest.raises(HypothesisViolationError):
        GroupAlgebra(abelian([9]), 3).derived_annihilating_witness()
    with pytest.raises(HypothesisViolationError):
        GroupAlgebra(dihedral_group(8), 2).derived_annihilating_witness()
    with pytest.raises(HypothesisViolationError):
        GroupAlgebra(wreath_3_3(), 3).derived_annihilating_witness()
    with pytest.raises(HypothesisViolationError):
        GroupAlgebra(dihedral_group(6), 3).derived_annihilating_witness()


# -- structural invariants -------------------------------------------------------

def test_pgroup_socle_ideal_iff_central_derived_space():
    """For p-groups: the socle is an ideal iff it equals (Z(G)G')+. F_pG."""
    for p in (2, 3):
        for _, g in builtin_catalog():
            if not is_p_group(g.order, p) or g.order == 1 or g.order > 128:
                continue
            alg = GroupAlgebra(g, p)
            zg_der = generate_subgroup(g, center(g).members | derived_subgroup(g).members)
            equality = embed_central(alg, alg.socle_center) == subgroup_sum_ideal(alg, zg_der)
            assert alg.soc_is_ideal == equality


def test_socle_inside_central_quotient_image():
    """soc(ZF_pG) always lies in the coset-sum space of the p-part of the
    center (checked for p-groups where that is Z(G) itself)."""
    for _, g in builtin_two_groups(32):
        if g.order == 1:
            continue
        alg = GroupAlgebra(g, 2)
        soc = embed_central(alg, alg.socle_center)
        assert subgroup_sum_ideal(alg, center(g)).contains(soc.basis)


def test_centralizer_product_condition_implies_socle_in_sylow_center_space():
    """If G = C_G(H) Z(P), the socle lands in the coset-sum space of Z(P)."""
    checked = 0
    for p in (2, 3):
        for _, g in builtin_catalog():
            if g.order > 128 or g.order % p:
                continue
            alg = GroupAlgebra(g, p)
            shape = alg.ph_shape
            if shape is None:
                continue
            zp = centralizer(g, shape.sylow.sorted_members, within=shape.sylow)
            cgh = centralizer(g, shape.complement.sorted_members)
            product = {g.mul(a, b) for a in cgh.members for b in zp.members}
            if len(product) != g.order:
                continue
            soc = embed_central(alg, alg.socle_center)
            assert subgroup_sum_ideal(alg, zp).contains(soc.basis)
            checked += 1
    assert checked >= 5


def test_derived_coset_membership_transfers_through_inflation():
    """Inflation carries the derived-coset criterion across a quotient."""
    g = smallgroup_216_86()
    alg = GroupAlgebra(g, 3)
    n = derived_subgroup(g)
    qalg, _ = alg.quotient_algebra(n)
    rng = np.random.default_rng(23)
    up = subgroup_sum_ideal(alg, n)
    down = subgroup_sum_ideal(qalg, derived_subgroup(qalg.group))
    for _ in range(10):
        x = rng.integers(0, 3, size=qalg.dim)
        assert down.contains(x) == up.contains(inflate_from_quotient(alg, x, n))
