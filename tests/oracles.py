"""Brute-force oracles kept independent of the library code paths they check,
and the reference constructions that only tests use.

The oracles work by exhaustive enumeration on raw tables or raw coefficient
tuples, so they are only usable at tiny sizes; that is the point.
"""

from __future__ import annotations

import itertools
from math import gcd
from types import SimpleNamespace

import numpy as np

from modsocle.errors import (
    DimensionMismatchError,
    DualRouteDisagreementError,
    HypothesisViolationError,
    NotAGroupError,
    NotNormalError,
)
from modsocle.fplin import FpSubspace, common_nullspace, nullspace
from modsocle.groups import (
    centralizer,
    commutator_subgroup,
    derived_subgroup,
    is_p_group,
    sylow_subgroup,
)


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


# -- reference implementations the library does not carry ----------------------
# Each is the direct construction of a space or subgroup that a test compares
# with a statement of the paper; the CLI and the reports never need them.

def central_multiply(alg, u, v) -> np.ndarray:
    """Product of two central elements given in class coordinates, as F_pG
    coefficients: a convolution over the Cayley table, not a use of the class
    structure constants."""
    x, y = (alg.element(alg.expand_central(w)) for w in (u, v))
    return (x * y).coeffs


def identity_coefficient(elem) -> int:
    """The symmetrizing linear form of F_pG: the coefficient of the identity."""
    return int(elem.coeffs[elem.algebra.group.identity])


def center_space_fg(alg):
    """ZF_pG in F_pG coordinates."""
    return alg.embed_central(FpSubspace.full(alg.p, alg.center_dim))


def meet(a, b):
    """Intersection of two subspaces of one F_p^n: the common kernel of their
    constraint matrices (a subspace is the kernel of its orthogonal complement)."""
    def constraints(s):
        rows = s.basis if s.dim else np.zeros((0, s.ambient), dtype=np.int64)
        return nullspace(rows, s.p, cols=s.ambient).basis

    return nullspace(np.vstack([constraints(a), constraints(b)]), a.p, cols=a.ambient)


def commutator_space(alg):
    """Span of the products ab - ba over F_pG.

    Differences within one conjugacy class span the same space, which gives a
    basis of size |G| - (number of classes) directly.
    """
    rows = []
    for members in alg.classes.classes:
        for x in members[1:]:
            row = np.zeros(alg.dim, dtype=np.int64)
            row[x] = 1
            row[members[0]] -= 1
            rows.append(row)
    if not rows:
        return FpSubspace.zero(alg.p, alg.dim)
    return FpSubspace.span(np.array(rows, dtype=np.int64), alg.p, alg.dim)


def left_ideal_closure(alg, space):
    """Smallest left ideal of F_pG containing `space`: joined with its left
    translates by each generator until it stops growing."""
    g = alg.group
    closed = space
    while True:
        # g . x has coefficient x[g^-1 k] at k
        translates = [closed.basis[:, g.table[g.inv(s), :]] for s in g.generators]
        grown = FpSubspace.span(np.vstack([closed.basis, *translates]), alg.p, alg.dim)
        if grown.dim == closed.dim:
            return closed
        closed = grown


def relative_augmentation_ideal(alg, n_sub):
    """Kernel of the projection onto F_p[G/N]; equals w(FN) . F_pG."""
    if not n_sub.is_normal:
        raise NotNormalError(f"{n_sub!r} is not normal")
    arr = np.array(n_sub.sorted_members, dtype=np.int64)
    coset_rep = alg.group.table[arr, :].min(axis=0)
    reps = np.unique(coset_rep)
    constraints = np.zeros((reps.size, alg.dim), dtype=np.int64)
    for r, rep in enumerate(reps):
        constraints[r, coset_rep == rep] = 1
    return nullspace(constraints, alg.p, cols=alg.dim)


def push_to_quotient(alg, a, n_sub):
    """Sum coefficients over the cosets of a normal subgroup."""
    qalg, proj = alg.quotient_algebra(n_sub)
    out = np.zeros(qalg.dim, dtype=np.int64)
    np.add.at(out, proj, a.coeffs)
    return qalg.element(out)


def inflate_from_quotient(alg, a, n_sub):
    """Adjoint of the projection: constant-on-coset inflation; its image is
    N+ . F_pG."""
    qalg, proj = alg.quotient_algebra(n_sub)
    if a.algebra.group is not qalg.group:
        raise DimensionMismatchError("element does not live in the quotient algebra")
    return alg.element(a.coeffs[proj])


def quotient_annihilator(alg, n_sub) -> SimpleNamespace:
    """Common annihilator downstairs of the projected radical.

    Computed twice: from the surviving basis elements downstairs, and from the
    raw projections of every radical basis element. When the socle upstairs
    is an ideal, the annihilator must land inside the coset-sum space of the
    derived subgroup downstairs.
    """
    p = alg.p
    selection = alg.class_selection(n_sub)
    qalg = selection.quotient_algebra
    maps = [qalg.central_mult_matrix(v) for v in selection.image_elements.values()]
    route1 = common_nullspace(maps, p, qalg.center_dim)
    reps = np.array(qalg.classes.representatives, dtype=np.int64)
    raw_maps = []
    for _, vec in sorted(alg.jacobson_center_basis.items()):
        pushed = np.zeros(qalg.dim, dtype=np.int64)
        np.add.at(pushed, selection.projection, alg.expand_central(vec))
        pushed %= p
        if pushed.any():
            if not np.array_equal(pushed, pushed[reps[qalg.classes.class_of]]):
                raise DimensionMismatchError("a projected radical element is not central")
            raw_maps.append(qalg.central_mult_matrix(pushed[reps]))
    route2 = common_nullspace(raw_maps, p, qalg.center_dim)
    if route1 != route2:
        raise DualRouteDisagreementError(
            f"quotient annihilator routes disagree for {alg.group.name}")
    contained = None
    if alg.soc_is_ideal.is_ideal:
        target = qalg.subgroup_sum_ideal(derived_subgroup(qalg.group))
        contained = qalg.embed_central(route1).is_subspace_of(target)
        if not contained:
            raise DualRouteDisagreementError(
                f"quotient annihilator of {alg.group.name} escapes the "
                "derived coset-sum space although the socle is an ideal")
    return SimpleNamespace(space=route1, quotient_algebra=qalg,
                           contained_in_derived_sum=contained)


def reduced_commutator_subgroup(group, n_sub, p: int):
    """{x in [N, G] : x^p in [N, [N, G]]} for a normal p-subgroup N.

    The element sum of this subgroup annihilates every class sum of a class
    not contained in the centralizer of N.
    """
    if not n_sub.is_normal or not is_p_group(n_sub.order, p):
        raise HypothesisViolationError("N must be a normal p-subgroup")
    ng = commutator_subgroup(group, n_sub, group.full_subgroup)
    nng = commutator_subgroup(group, n_sub, ng)
    members = {x for x in ng.members if group.power(x, p) in nng.members}
    try:
        result = group.subgroup(members)
    except NotAGroupError as exc:
        raise HypothesisViolationError(f"reduced commutator set is not a subgroup: {exc}") from exc
    if not result.is_normal:
        raise HypothesisViolationError("reduced commutator subgroup failed to be normal")
    return result


def commutators_with(group, h: int, p: int):
    """{[a, h] : a in G}, valid when [P, G] lies in the center of P.

    The hypothesis makes the commutator map multiplicative in a, so the image
    set is already a subgroup, and it is normal.
    """
    syl = sylow_subgroup(group, p)
    pg = commutator_subgroup(group, syl, group.full_subgroup)
    zp = centralizer(group, syl.sorted_members, within=syl)
    if not pg.members <= zp.members:
        raise HypothesisViolationError("[P, G] is not contained in Z(P)")
    members = {group.commutator(a, h) for a in range(group.order)}
    try:
        result = group.subgroup(members)
    except NotAGroupError as exc:
        raise HypothesisViolationError(f"commutator image is not a subgroup: {exc}") from exc
    if not result.is_normal:
        raise HypothesisViolationError("commutator image failed to be normal")
    return result


def group_to_document(group) -> dict:
    """A group in the Cayley file schema, as `parse_group` reads it."""
    return {"format": "cayley", "name": group.name, "order": group.order,
            "table": group.table.tolist()}
