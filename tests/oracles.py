"""Brute-force oracles kept independent of the library code paths they check.

Everything here works by exhaustive enumeration on raw tables or raw
coefficient tuples, so it is only usable at tiny sizes; that is the point.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np


def all_vectors(p: int, dim: int):
    return itertools.product(range(p), repeat=dim)


def enumerate_span(rows, p: int, dim: int) -> frozenset:
    """Every F_p-combination of the given rows, as tuples."""
    rows = [tuple(int(x) % p for x in r) for r in rows]
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = [0] * dim
        for c, row in zip(coeffs, rows):
            for i, x in enumerate(row):
                vec[i] = (vec[i] + c * x) % p
        out.add(tuple(vec))
    return frozenset(out)


def enumerate_closure(vectors, p: int, dim: int) -> frozenset:
    """Additive/scalar closure of a set of vectors (the span, by saturation)."""
    current = {tuple([0] * dim)}
    current |= {tuple(int(x) % p for x in v) for v in vectors}
    while True:
        new = {tuple((a + b) % p for a, b in zip(u, v))
               for u in current for v in current}
        if new <= current:
            return frozenset(current)
        current |= new


def brute_nullspace_vectors(matrix, p: int) -> frozenset:
    m = [list(row) for row in matrix]
    cols = len(m[0]) if m else 0
    out = set()
    for v in all_vectors(p, cols):
        if all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in m):
            out.add(v)
    return frozenset(out)


def brute_rank(rows, p: int, dim: int) -> int:
    span = enumerate_span(rows, p, dim)
    size = len(span)
    r = 0
    while p ** r < size:
        r += 1
    assert p ** r == size
    return r


def exact_rank(rows, p: int) -> int:
    """Rank mod p by Gaussian elimination on Python integers, which never wrap."""
    m = [[int(x) % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_conjugacy_classes(table) -> list[frozenset]:
    table = [list(r) for r in table]
    n = len(table)
    inv = [None] * n
    identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    for g in range(n):
        inv[g] = next(h for h in range(n) if table[g][h] == identity)
    classes = []
    seen = set()
    for x in range(n):
        if x in seen:
            continue
        orbit = {table[table[g][x]][inv[g]] for g in range(n)}
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def naive_closure(table, seed, identity) -> frozenset:
    members = set(seed) | {identity}
    while True:
        new = {table[a][b] for a in members for b in members}
        if new <= members:
            return frozenset(members)
        members |= new


def naive_element_order(table, identity, g) -> int:
    k, x = 1, g
    while x != identity:
        x = table[x][g]
        k += 1
    return k


def naive_lower_central_series(table) -> list[frozenset]:
    table = [list(r) for r in table]
    n = len(table)
    identity = next(e for e in range(n) if all(table[e][x] == x for x in range(n)))
    inv = {g: next(h for h in range(n) if table[g][h] == identity) for g in range(n)}

    def comm(a, b):
        return table[table[table[a][b]][inv[a]]][inv[b]]

    series = [frozenset(range(n))]
    while True:
        gens = {comm(a, b) for a in series[-1] for b in range(n)}
        nxt = naive_closure(table, gens, identity)
        if nxt == series[-1]:
            return series
        series.append(nxt)


def naive_pprime_part(table, identity, g, p) -> int:
    """The unique power of g with order coprime to p whose cofactor is a p-element."""
    order = naive_element_order(table, identity, g)
    for k in range(order):
        h = identity
        for _ in range(k):
            h = table[h][g]
        if gcd(naive_element_order(table, identity, h), p) != 1:
            continue
        # cofactor g * h^-1 must have p-power order
        hinv = next(x for x in range(len(table)) if table[h][x] == identity)
        cof = table[g][hinv]
        o = naive_element_order(table, identity, cof)
        while o % p == 0:
            o //= p
        if o == 1 and table[h][cof] == g and table[cof][h] == g:
            return h
    raise AssertionError("no p'-part found")


def naive_commutator_rows(group) -> np.ndarray:
    """All products ab - ba for group basis elements, as coefficient rows."""
    n = group.order
    rows = []
    for a in range(n):
        for b in range(n):
            vec = np.zeros(n, dtype=np.int64)
            vec[group.mul(a, b)] += 1
            vec[group.mul(b, a)] -= 1
            if vec.any():
                rows.append(vec)
    return np.array(rows, dtype=np.int64) if rows else np.zeros((0, n), dtype=np.int64)


def naive_center_annihilator(alg, vectors_fg) -> list[np.ndarray]:
    """Central elements of F_pG killing all given elements, via raw convolution.

    Enumerates class-coordinate vectors, so only usable when p^classes is small.
    """
    group = alg.group
    p = alg.p
    cls = group.conjugacy_classes
    out = []
    for v in all_vectors(p, cls.count):
        elem = alg.element(np.array(v, dtype=np.int64)[cls.class_of])
        if all((elem * alg.element(w)).is_zero() for w in vectors_fg):
            out.append(np.array(v, dtype=np.int64))
    return out


def naive_frobenius_power(alg) -> np.ndarray:
    """Matrix of x -> x^(p^m) on the center, p^m >= its dimension, with each
    column e_i^p built by p - 1 multiplications by the class sum e_i; its
    kernel is the radical of the center."""
    k, p = alg.center_dim, alg.p
    a = alg.class_structure_constants
    frob = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        v = np.zeros(k, dtype=np.int64)
        v[i] = 1
        for _ in range(p - 1):
            v = a[i].T @ v % p
        frob[:, i] = v
    power = np.eye(k, dtype=np.int64)
    q = 1
    while q < k:
        q *= p
        power = power @ frob % p
    return power
