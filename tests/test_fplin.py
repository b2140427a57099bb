"""Exact F_p linear algebra against enumeration oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modsocle import fplin
from modsocle.errors import DimensionMismatchError, ModulusTooLargeError
from modsocle.fplin import FpSubspace, common_nullspace, nullspace, rank, rref

from .oracles import (
    brute_nullspace_vectors,
    brute_rank,
    enumerate_span,
    exact_rank,
)


def test_validate_prime():
    for p in (2, 3, 5, 7, 65521):
        assert fplin.validate_prime(p) == p
    for bad in (-1, 0, 1, 4, 9, 91):
        with pytest.raises(ValueError):
            fplin.validate_prime(bad)
    # the largest prime with (p-1)^2 < 2^63, and the next prime
    assert fplin.validate_prime(3037000493) == 3037000493
    for big in (3037000507, 2 ** 61 - 1):
        with pytest.raises(ModulusTooLargeError):
            fplin.validate_prime(big)


def _five_dim_span_and_members(p, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, p, size=(5, 200))
    members = [[sum(int(c) * int(x) for c, x in zip(coeffs, col)) % p for col in rows.T]
               for coeffs in rng.integers(0, p, size=(20, 5))]
    return rows, members


def test_contains_above_the_int64_bound_raises():
    # at the parent these spans said False for true members (int64 wrap)
    for p in (2 ** 31 - 1, 4294967311):
        rows, members = _five_dim_span_and_members(p, 0)
        with pytest.raises(ModulusTooLargeError):
            FpSubspace.span(rows, p, 200).contains(members[0])


def test_contains_is_exact_at_the_largest_accepted_prime():
    p = 214748357  # the largest prime with (p-1)^2 * 200 < 2^63
    rows, members = _five_dim_span_and_members(p, 1)
    space = FpSubspace.span(rows, p, 200)
    assert space.dim == exact_rank(rows, p) == 5
    assert all(space.contains(v) for v in members)
    outside = np.array(members[0])
    outside[space.pivots[0]] += 1
    assert not space.contains(outside)


def test_rref_identity_and_zero():
    m, piv = rref(np.eye(3, dtype=np.int64), 2)
    assert np.array_equal(m, np.eye(3)) and piv == (0, 1, 2)
    m, piv = rref(np.zeros((2, 4), dtype=np.int64), 3)
    assert m.shape == (0, 4) and piv == ()


def test_rref_hand_case():
    # hand row-reduction: both rows equal over F_2
    m, piv = rref([[1, 1], [1, 1]], 2)
    assert np.array_equal(m, [[1, 1]]) and piv == (0,)


def test_rref_normalizes_pivots():
    m, piv = rref([[2, 1, 0], [0, 0, 4]], 5)
    assert piv == (0, 2)
    assert m[0, 0] == 1 and m[1, 2] == 1


def test_nullspace_trivial_cases():
    assert nullspace(np.eye(4, dtype=np.int64), 3).dim == 0
    full = nullspace(np.zeros((2, 3), dtype=np.int64), 5)
    assert full.dim == 3


def test_nullspace_enumeration_oracle():
    space = nullspace([[1, 2]], 3)
    expected = brute_nullspace_vectors([[1, 2]], 3)
    got = enumerate_span(space.basis, 3, 2)
    assert got == expected
    assert space.dim == 1 and space.contains([1, 1])


def test_rank_nullity_hand():
    m = [[1, 2, 0], [2, 4, 0]]
    assert rank(m, 5) == 1
    assert nullspace(m, 5).dim == 2


def test_dimension_mismatch_errors():
    a = FpSubspace.span([[1, 0]], 2, 2)
    b = FpSubspace.span([[1, 0, 0]], 2, 3)
    with pytest.raises(DimensionMismatchError):
        a.is_subspace_of(b)
    with pytest.raises(DimensionMismatchError):
        b.is_subspace_of(a)


def test_common_nullspace():
    assert common_nullspace([], 2, 4).dim == 4
    assert common_nullspace([np.eye(3, dtype=np.int64)], 2, 3).dim == 0
    maps = [[[1, 0, 0]], [[0, 1, 0]]]
    space = common_nullspace(maps, 2, 3)
    assert space.dim == 1
    expected = brute_nullspace_vectors([[1, 0, 0], [0, 1, 0]], 2)
    assert enumerate_span(space.basis, 2, 3) == expected


small_matrices = st.integers(2, 3).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=4, max_size=4),
            min_size=1, max_size=5,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity_property(case):
    p, rows = case
    m = np.array(rows, dtype=np.int64)
    assert rank(m, p) + nullspace(m, p).dim == m.shape[1]
    # nullspace really is the kernel, by enumeration
    assert enumerate_span(nullspace(m, p).basis, p, 4) == brute_nullspace_vectors(rows, p)


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_rref_preserves_row_space(case):
    p, rows = case
    m = np.array(rows, dtype=np.int64)
    reduced, piv = rref(m, p)
    assert enumerate_span(reduced, p, 4) == enumerate_span(m % p, p, 4)
    assert brute_rank(reduced, p, 4) == len(piv)


# 1518500213 is the largest prime with (p-1)^2 * 4 < 2^63
large_prime_matrices = st.tuples(
    st.just(1518500213),
    st.lists(st.lists(st.integers(0, 1518500212), min_size=4, max_size=4),
             min_size=1, max_size=3),
    st.lists(st.integers(0, 1518500212), min_size=3, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(large_prime_matrices)
def test_rank_and_contains_exact_at_the_largest_accepted_prime(case):
    p, rows, coeffs = case
    combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(4)]
    m = np.array(rows + [combo], dtype=np.int64)
    assert rank(m, p) == exact_rank(rows, p)
    assert rank(m, p) + nullspace(m, p).dim == 4
    assert FpSubspace.span(np.array(rows, dtype=np.int64), p, 4).contains(combo)
