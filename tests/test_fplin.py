"""Exact F_p linear algebra against enumeration oracles."""

import math

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
    reduced_per_pivot_rref,
    stacked_nullspace,
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


def _largest_prime_for(cols):
    """The largest prime p with (p-1)^2 * cols < 2^63, the top of `rref`'s range."""
    p = math.isqrt(((1 << 63) - 1) // cols) + 1
    while (p - 1) ** 2 * cols >= 1 << 63 or not fplin.is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("rows, cols, inner", [
    (8, 40, 5), (8, 40, 8),        # wide
    (60, 6, 4), (60, 6, 6),        # tall
    (30, 30, 17), (30, 30, 30),    # square
    (300, 4, 3), (300, 4, 4),      # rows >> cols
])
def test_rref_matches_the_per_pivot_oracle(rows, cols, inner):
    rng = np.random.default_rng(rows * cols + inner)
    for p in (2, 3, 5, 7, 100003, _largest_prime_for(cols)):
        # A @ B mod p has rank at most `inner`; Python integers keep it exact
        a = rng.integers(0, p, size=(rows, inner)).astype(object)
        b = rng.integers(0, p, size=(inner, cols)).astype(object)
        top = np.full((rows, cols), p - 1, dtype=np.int64)
        # p - 1 everywhere and p - 2 on the diagonal has full rank, and drives
        # entries to about a third of cols * (p-1)^2 before the final reduction
        near_top = top.copy()
        np.fill_diagonal(near_top, p - 2)
        for m in ((a @ b % p).astype(np.int64), top, near_top):
            got, piv = rref(m, p)
            want, want_piv = reduced_per_pivot_rref(m, p)
            assert piv == want_piv, (p, m.tolist())
            assert got.dtype == np.int64 and np.array_equal(got, want), p
            assert len(piv) == exact_rank(m, p)


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


def test_nullspace_eliminates_once(monkeypatch):
    rng = np.random.default_rng(7)
    cases = [(rng.integers(0, p, size=(r, n)), p)
             for p, r, n in ((2, 3, 7), (3, 4, 6), (5, 2, 8), (7, 5, 5), (5, 0, 4))]
    calls = []
    rref_ = fplin.rref

    def counted(m, q):
        calls.append(m)
        return rref_(m, q)

    monkeypatch.setattr(fplin, "rref", counted)
    for m, p in cases:
        calls.clear()
        space = nullspace(m, p, cols=m.shape[1])
        assert len(calls) == 1
        # the basis written down is already the canonical RREF of the kernel
        assert space == FpSubspace.span(space.basis, p, m.shape[1])
        assert not (m @ space.basis.T % p).any()
        assert space.dim == m.shape[1] - rank(m, p)


def test_rank_nullity_hand():
    m = [[1, 2, 0], [2, 4, 0]]
    assert rank(m, 5) == 1
    assert nullspace(m, 5).dim == 2


def test_dimension_mismatch_errors():
    a = FpSubspace.span([[1, 0]], 2, 2)
    b = FpSubspace.span([[1, 0, 0]], 2, 3)
    with pytest.raises(DimensionMismatchError):
        a.contains(b.basis)
    with pytest.raises(DimensionMismatchError):
        b.contains(a.basis)


def applied(m, p):
    """The map x -> m x mod p, in the form `common_nullspace` reads."""
    m = np.asarray(m, dtype=np.int64)
    return lambda cols: m @ cols % p


def test_common_nullspace():
    assert common_nullspace([], 2, 4).dim == 4
    assert common_nullspace([applied(np.eye(3, dtype=np.int64), 2)], 2, 3).dim == 0
    maps = [[[1, 0, 0]], [[0, 1, 0]]]
    space = common_nullspace([applied(m, 2) for m in maps], 2, 3)
    assert space.dim == 1
    expected = brute_nullspace_vectors([[1, 0, 0], [0, 1, 0]], 2)
    assert enumerate_span(space.basis, 2, 3) == expected


def _matrices(p, n):
    """Lists of 0 to 5 matrices with n columns and 1 to n + 1 rows over F_p."""
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return st.lists(st.lists(row, min_size=1, max_size=n + 1), max_size=5)


nullspace_cases = st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(p), st.just(n), _matrices(p, n), st.integers(0, 6))))


@settings(max_examples=100, deadline=None)
@given(nullspace_cases, st.booleans())
def test_common_nullspace_matches_the_stacked_oracle(case, full_rank_early):
    p, n, maps, zero_at = case
    if zero_at <= len(maps):
        maps.insert(zero_at, [[0] * n])
    tail = []
    if full_rank_early:
        # the identity reaches rank n, so no map after it may be read
        maps.append(np.eye(n, dtype=np.int64))
        tail = [[[1] * n]]

    def lazily():
        yield from (applied(m, p) for m in maps)
        if full_rank_early:
            raise AssertionError("read a map after the rank reached the ambient dimension")

    expected = stacked_nullspace(maps + tail, p, n)
    assert common_nullspace([applied(m, p) for m in maps + tail], p, n) == expected
    assert common_nullspace(lazily(), p, n) == expected


def test_common_nullspace_eliminates_once_per_map_that_shrinks_the_kernel(monkeypatch):
    p, n = 5, 8
    rng = np.random.default_rng(3)
    shrinking = [rng.integers(0, p, size=(2, n)) for _ in range(3)]
    # the zero map and a map already applied leave the kernel as it is
    maps = [np.zeros((2, n), dtype=np.int64), shrinking[0], shrinking[1],
            shrinking[0], shrinking[2]]
    expected = stacked_nullspace(maps, p, n)
    calls = []
    rref_ = fplin.rref

    def counted(m, q):
        calls.append(m)
        return rref_(m, q)

    monkeypatch.setattr(fplin, "rref", counted)
    assert common_nullspace([applied(m, p) for m in maps], p, n) == expected
    assert expected.dim == 2
    assert len(calls) == len(shrinking)


def test_common_nullspace_is_exact_at_the_int64_bound():
    n = 8
    p = _largest_prime_for(n)
    rng = np.random.default_rng(5)
    # three rank-2 maps: the kernel shrinks 8 -> 6 -> 4 -> 2
    maps = [rng.integers(p - 1000, p, size=(2, n)) for _ in range(3)]
    space = common_nullspace([applied(m, p) for m in maps], p, n)
    assert space == stacked_nullspace(maps, p, n)
    assert space.dim == 2
    for m in maps:
        for v in space.basis:
            assert all(sum(int(x) * int(y) for x, y in zip(row, v)) % p == 0 for row in m)


def test_matmul_is_exact_at_the_float64_bound():
    inner = 64
    # the largest prime with inner * (p-1)^2 < 2^53 takes float64; the next
    # prime takes int64, and one whose products pass 2^63 is refused
    p = math.isqrt(((1 << 53) - 1) // inner) + 1
    while inner * (p - 1) ** 2 >= 1 << 53 or not fplin.is_prime(p):
        p -= 1
    above = next(q for q in range(p + 1, 2 * p) if fplin.is_prime(q))
    for q in (p, above):
        full = np.full((inner, inner), q - 1, dtype=np.int64)
        # row r of `odd` starts with 2r + 1 entries q - 2, so each entry of
        # odd @ full[:, :5] - 1 sums an odd number of odd products: at
        # `above` an odd integer past 2^53, which float64 cannot hold
        odd = np.full((3, inner), q - 1, dtype=np.int64)
        for r in range(3):
            odd[r, :2 * r + 1] = q - 2
        for a, b in ((full[:3], full[:, :5]), (odd, full[:, :5] - 1)):
            exact = [[sum(int(x) * int(y) for x, y in zip(row, col)) % q for col in b.T]
                     for row in a]
            got = fplin.matmul(a, b, q)
            assert got.dtype == np.int64 and got.tolist() == exact, q
    in_float = odd.astype(np.float64) @ (full[:, :5] - 1).astype(np.float64)
    assert not np.array_equal(in_float.astype(np.int64), odd @ (full[:, :5] - 1))
    with pytest.raises(ModulusTooLargeError):
        fplin.matmul(np.ones((1, 8), dtype=np.int64), np.ones((8, 1), dtype=np.int64),
                     3037000493)


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
