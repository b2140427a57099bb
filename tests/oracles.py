"""Brute-force oracles kept independent of the library code paths they check,
and the reference constructions that only tests use.

The oracles work by exhaustive enumeration on raw tables or raw coefficient
tuples, so they are only usable at tiny sizes; that is the point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from types import SimpleNamespace

import numpy as np

from modsocle.constructors import extraspecial_27_exp3
from modsocle.errors import (
    DimensionMismatchError,
    DualRouteDisagreementError,
    HypothesisViolationError,
    NotAGroupError,
    NotNormalError,
    SearchFailedError,
)
from modsocle.fplin import FpSubspace, as_matrix, nullspace
from modsocle.groups import (
    _closure,
    _conjugates,
    _extend_generator_images,
    _is_homomorphism,
    _iter_isomorphisms,
    _normal_closure,
    _p_part,
    _pprime_exponent,
    all_subgroups,
    center,
    centralizer,
    commutator_subgroup,
    derived_subgroup,
    element_order_multiset,
    generate_subgroup,
    is_p_group,
    normalizer,
    quotient,
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


def reduced_per_pivot_rref(m, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form that reduces the whole matrix mod p after
    every pivot, so every entry it holds is a residue."""
    a = as_matrix(m, p)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        stripe = np.nonzero(a[r:, c])[0]
        if stripe.size == 0:
            continue
        piv = r + int(stripe[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


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


def table_from_mul(elements, mul) -> np.ndarray:
    """Cayley table of `elements` under `mul`, one `mul` call per cell."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[mul(a, b)]
    return table


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
        elem = np.array(v, dtype=np.int64)[cls.class_of]
        if not any(convolve(alg, elem, w).any() for w in vectors_fg):
            out.append(np.array(v, dtype=np.int64))
    return out


def naive_frobenius_power(alg) -> np.ndarray:
    """Matrix of x -> x^(p^m) on the center, p^m >= its dimension, with each
    column e_i^p built by p - 1 multiplications by the class sum e_i; its
    kernel is the radical of the center."""
    k, p = alg.center_dim, alg.p
    a = naive_class_structure_constants(alg)
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


def naive_class_structure_constants(alg) -> np.ndarray:
    """a[i, j, l] mod p, class pair by class pair: the products of class i
    with class j, counted by the class they land in, per member of it."""
    cls = alg.classes
    k = cls.count
    sizes = np.array(cls.sizes(), dtype=np.int64)
    table = alg.group.table
    a = np.zeros((k, k, k), dtype=np.int64)
    for i, members in enumerate(cls.classes):
        prod_class = cls.class_of[table[np.array(members, dtype=np.int64)]]
        for j, others in enumerate(cls.classes):
            counts = np.bincount(prod_class[:, list(others)].ravel(), minlength=k)
            a[i, j] = counts // sizes
    return a % alg.p


def stacked_nullspace(maps, p: int, ambient: int) -> FpSubspace:
    """Vectors annihilated by every matrix in `maps`: one elimination of all
    the matrices stacked, the full space for no maps."""
    mats = [as_matrix(m, p, cols=ambient) for m in maps]
    if not mats:
        return FpSubspace.span(np.eye(ambient, dtype=np.int64), p, ambient)
    return nullspace(np.vstack(mats), p, cols=ambient)


def central_mult_matrix(alg, vec) -> np.ndarray:
    """Dense k x k matrix of multiplication by the central element with class
    coordinates `vec`: entry (l, j) sums vec(x) over the x in supp vec (F_pG
    coordinates) with x^-1 r_l in class j, one scatter of |supp vec| * k cells."""
    coeffs, rows = alg._support_rows(vec)
    k = alg.center_dim
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (np.arange(k), rows), coeffs[:, None])
    return out % alg.p


def double_coset_lattice(group) -> list[tuple[int, tuple[int, ...]]]:
    """Every subgroup as (order, sorted members), sorted, by a breadth-first
    search that extends each subgroup H found to <H, g> for one g per double
    coset HgH outside H, since <H, g> = <H, hgh'> for h, h' in H. It works up
    to equality, not up to conjugacy, so it closes about ten times as many
    subgroups as the library's search by classes."""
    t = group.table
    trivial = frozenset({group.identity})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for members in frontier:
            sub = np.fromiter(members, dtype=np.int64, count=len(members))
            covered = np.zeros(group.order, dtype=bool)
            covered[sub] = True
            for g in range(group.order):
                if covered[g]:
                    continue
                covered[t[t[sub, g][:, None], sub]] = True
                bigger = _closure(t, members, (g,))
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted((len(m), tuple(sorted(m))) for m in seen)


def maximal_subgroups(group):
    """The maximal subgroups, by testing every pair of proper subgroups for
    containment."""
    subs = [s for s in all_subgroups(group) if s.order < group.order]
    out = []
    for s in subs:
        if not any(s.members < t.members for t in subs):
            out.append(s)
    return out


def backtracking_hall_complement(group, p: int):
    """Members of the first p'-complement to the normal Sylow p-subgroup
    found by a depth-first search over p'-elements in index order, keeping
    the running closure of order dividing the index; None if none is found.
    The search backtracks, so it does not rely on Schur-Zassenhaus."""
    m = group.order // sylow_subgroup(group, p).order
    pprime = [x for x in range(group.order)
              if gcd(group.element_order(x), p) == 1 and m % group.element_order(x) == 0]
    seen = set()

    def extend(members, floor):
        if len(members) == m:
            return members
        for x in pprime:
            if x <= floor or x in members:
                continue
            bigger = _closure(group.table, members, (x,))
            if m % len(bigger) or bigger in seen:
                continue
            seen.add(bigger)
            found = extend(bigger, x)
            if found is not None:
                return found
        return None

    return extend(frozenset({group.identity}), -1)


def fixed_point_pprime_core(group, p: int) -> frozenset:
    """O_p'(G) by sweeping the class representatives until no class of
    p'-elements can be absorbed into a normal p'-subgroup any more."""
    current = frozenset({group.identity})
    changed = True
    while changed:
        changed = False
        for x in group.conjugacy_classes.representatives:
            if x in current or group.element_order(x) % p == 0:
                continue
            attempt = _normal_closure(group, current, (x,))
            if len(attempt) % p != 0:
                current = attempt
                changed = True
    return current


def pairwise_commutator_subgroup(group, a, b):
    """Subgroup generated by the commutators [x, y] with x in a, y in b,
    from all |a| x |b| of them."""
    t, inv = group.table, group.inverse
    arr_a = np.array(a.sorted_members, dtype=np.int64)
    arr_b = np.array(b.sorted_members, dtype=np.int64)
    ab = t[np.ix_(arr_a, arr_b)]
    x = t[ab, inv[arr_a][:, None]]
    comms = np.unique(t[x, inv[arr_b][None, :]])
    return generate_subgroup(group, (int(c) for c in comms))


def all_conjugates_p_core(group, p: int):
    """O_p(G) as the members of the Sylow p-subgroup that lie in its
    conjugates by all |G| elements."""
    syl = sylow_subgroup(group, p)
    conj = _conjugates(group, syl.sorted_members, np.arange(group.order))
    # Row x is the conjugate by x, so the core's members occur in every row.
    counts = np.bincount(conj.ravel(), minlength=group.order)
    return group.subgroup(np.flatnonzero(counts == group.order))


def normalizer_ascent_sylow(group, p: int):
    """A Sylow p-subgroup grown from the trivial subgroup by adjoining the
    smallest p-element of the normalizer not already present, for every
    group, p-groups included."""
    target = _p_part(group.order, p)
    current = group.trivial_subgroup
    while current.order < target:
        nz = normalizer(group, current)
        candidate = min(
            x for x in nz.sorted_members
            if x not in current.members and is_p_group(group.element_order(x), p)
        )
        current = generate_subgroup(group, set(current.members) | {candidate})
    return current


@dataclass(frozen=True)
class PDecomposition:
    """Commuting factorization g = g_p * g_p' into p-part and p'-part."""

    element: int
    p_part: int
    pprime_part: int


def p_decomposition(group, g: int, p: int) -> PDecomposition:
    """Split g into commuting p-part and p'-part (both powers of g)."""
    o = group.element_order(g)
    pa = _p_part(o, p)
    m = o // pa
    e_p = m * pow(m, -1, pa) if pa > 1 else 0
    gp = group.power(g, e_p) if pa > 1 else group.identity
    gpp = group.power(g, _pprime_exponent(o, p))
    return PDecomposition(element=g, p_part=gp, pprime_part=gpp)


def loop_pprime_sections(group, p: int):
    """The p'-sections of G, sorted by least member, from one
    `p_decomposition` per element."""
    cls = group.conjugacy_classes
    buckets: dict[int, list[int]] = {}
    for g in range(group.order):
        key = int(cls.class_of[p_decomposition(group, g, p).pprime_part])
        buckets.setdefault(key, []).append(g)
    return tuple(tuple(b) for _, b in sorted(buckets.items(), key=lambda kv: min(kv[1])))


def closure_isoclinism(g1, g2):
    """(beta, phi) for the first isomorphism beta of the central quotients,
    in the library's search order, whose forced map phi on commutators
    closes under products to an isomorphism G1' -> G2'; None if there is
    none. The closure multiplies every pair of known values until nothing
    new appears, then checks every product."""
    z1, z2 = center(g1), center(g2)
    d1, d2 = derived_subgroup(g1), derived_subgroup(g2)
    if d1.order != d2.order or g1.order * z2.order != g2.order * z1.order:
        return None
    orders1 = g1.element_orders[list(d1.sorted_members)]
    orders2 = g2.element_orders[list(d2.sorted_members)]
    if element_order_multiset(orders1) != element_order_multiset(orders2):
        return None
    reps1 = np.unique(z1.coset_minima)
    reps2 = np.unique(z2.coset_minima)
    for beta in _iter_isomorphisms(quotient(g1, z1)[0], quotient(g2, z2)[0]):
        phi = {g1.identity: g2.identity}
        ok = True
        for i, j in itertools.product(range(reps1.size), repeat=2):
            s = g1.commutator(int(reps1[i]), int(reps1[j]))
            t = g2.commutator(int(reps2[beta[i]]), int(reps2[beta[j]]))
            ok = ok and phi.setdefault(s, t) == t
        while ok:
            items = list(phi.items())
            for (x, fx), (y, fy) in itertools.product(items, repeat=2):
                ok = ok and phi.setdefault(g1.mul(x, y), g2.mul(fx, fy)) == g2.mul(fx, fy)
            if len(phi) == len(items):
                break
        ok = ok and set(phi) == d1.members and set(phi.values()) == d2.members
        ok = ok and all(phi[g1.mul(x, y)] == g2.mul(phi[x], phi[y]) for x in phi for y in phi)
        if ok:
            return beta, phi
    return None


# -- reference implementations the library does not carry ----------------------
# Each is the direct construction of a space or subgroup that a test compares
# with a statement of the paper; the CLI and the reports never need them.

def convolve(alg, a, b) -> np.ndarray:
    """Product of two F_pG coefficient vectors by a plain loop over the
    Cayley table: out[g h] += a(g) b(h). Zero coefficients are skipped."""
    table = alg.group.table.tolist()
    a, b = np.asarray(a, dtype=np.int64) % alg.p, np.asarray(b, dtype=np.int64) % alg.p
    out = [0] * alg.dim
    for g in np.flatnonzero(a).tolist():
        for h in np.flatnonzero(b).tolist():
            out[table[g][h]] += int(a[g]) * int(b[h])
    return np.array(out, dtype=np.int64) % alg.p


def central_multiply(alg, u, v) -> np.ndarray:
    """Product of two central elements given in class coordinates, as F_pG
    coefficients: a convolution over the Cayley table, not a use of the class
    structure constants."""
    return convolve(alg, alg.expand_central(u), alg.expand_central(v))


def identity_coefficient(alg, vec) -> int:
    """The symmetrizing linear form of F_pG: the coefficient of the identity."""
    return int(vec[alg.group.identity]) % alg.p


def witness_failures(alg, y) -> list[str]:
    """The properties that the annihilating witness y (F_pG coefficients)
    promises and does not have: central, nonzero, outside (G')+ . F_pG, and,
    by the convolution oracle, y . S+ = 0 for every nontrivial S <= G'."""
    cls = alg.classes
    reps = np.array(cls.representatives)
    der = derived_subgroup(alg.group)
    dgroup, dmembers = der.as_group()
    failures = []
    if not np.array_equal(y, y[reps[cls.class_of]]):
        failures.append("not central")
    if not np.any(y % alg.p):
        failures.append("zero")
    if derived_sum_space(alg).contains(y):
        failures.append("inside the derived coset-sum space")
    for sub in all_subgroups(dgroup):
        if sub.order > 1:
            s_sum = np.zeros(alg.dim, dtype=np.int64)
            s_sum[[dmembers[m] for m in sub.members]] = 1
            if convolve(alg, y, s_sum).any():
                failures.append(f"does not kill the sum of a subgroup of order {sub.order}")
    return failures


def translation_closed(alg, space) -> bool:
    """The ideal test in F_pG coordinates: is `space` closed under left and
    right translation by each generator?"""
    if space.ambient != alg.dim:
        raise DimensionMismatchError("ideal test needs F_pG coordinates")
    g = alg.group
    for s in g.generators:
        left = space.basis[:, g.table[g.inv(s), :]]
        right = space.basis[:, g.table[:, g.inv(s)]]
        if not (space.contains(left) and space.contains(right)):
            return False
    return True


def embed_central(alg, space):
    """A class-coordinate subspace of the center as a subspace of F_pG."""
    if space.ambient != alg.center_dim:
        raise DimensionMismatchError("not a class-coordinate subspace")
    # Classes are ordered by least member, so an RREF row expands to an
    # RREF row that leads at the representative of its pivot class.
    reps = alg.classes.representatives
    return FpSubspace.from_rref(space.basis[:, alg.classes.class_of],
                                [reps[c] for c in space.pivots], alg.p, alg.dim)


def subgroup_sum_ideal(alg, sub):
    """S+ . F_pG: the span of the right-coset indicator vectors of S.

    Entry g of `coset_rep` is the least element of Sg, read from the table
    here rather than from `Subgroup.coset_minima`, which it checks."""
    arr = np.array(sub.sorted_members, dtype=np.int64)
    coset_rep = alg.group.table[arr, :].min(axis=0)
    reps = np.unique(coset_rep)
    rows = np.zeros((reps.size, alg.dim), dtype=np.int64)
    for r, rep in enumerate(reps):
        rows[r, coset_rep == rep] = 1
    return FpSubspace.from_rref(rows, [int(r) for r in reps], alg.p, alg.dim)


def derived_sum_space(alg):
    """(G')+ . F_pG, spanned by the indicator rows of the cosets of G'."""
    return subgroup_sum_ideal(alg, derived_subgroup(alg.group))


def fg_verdicts(alg) -> dict:
    """Both socle routes and the Reynolds route 1, in F_pG coordinates."""
    socle = embed_central(alg, alg.socle_center)
    return {"socle_closed": translation_closed(alg, socle),
            "socle_in_derived_sum": derived_sum_space(alg).contains(socle.basis),
            "reynolds_closed": translation_closed(alg, embed_central(alg, alg.reynolds_center))}


def center_space_fg(alg):
    """ZF_pG in F_pG coordinates."""
    k = alg.center_dim
    return embed_central(alg, FpSubspace.span(np.eye(k, dtype=np.int64), alg.p, k))


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
    return FpSubspace.span(np.array(rows, dtype=np.int64).reshape(-1, alg.dim),
                           alg.p, alg.dim)


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
    np.add.at(out, proj, a)
    return out % alg.p


def inflate_from_quotient(alg, a, n_sub):
    """Adjoint of the projection: constant-on-coset inflation; its image is
    N+ . F_pG."""
    qalg, proj = alg.quotient_algebra(n_sub)
    if np.shape(a) != (qalg.dim,):
        raise DimensionMismatchError("element does not live in the quotient algebra")
    return np.asarray(a, dtype=np.int64)[proj] % alg.p


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
    maps = [central_mult_matrix(qalg, v) for v in selection.image_elements.values()]
    route1 = stacked_nullspace(maps, p, qalg.center_dim)
    reps = np.array(qalg.classes.representatives, dtype=np.int64)
    raw_maps = []
    for _, vec in sorted(alg.jacobson_center_basis.items()):
        pushed = np.zeros(qalg.dim, dtype=np.int64)
        np.add.at(pushed, selection.projection, alg.expand_central(vec))
        pushed %= p
        if pushed.any():
            if not np.array_equal(pushed, pushed[reps[qalg.classes.class_of]]):
                raise DimensionMismatchError("a projected radical element is not central")
            raw_maps.append(central_mult_matrix(qalg, pushed[reps]))
    route2 = stacked_nullspace(raw_maps, p, qalg.center_dim)
    if route1 != route2:
        raise DualRouteDisagreementError(
            f"quotient annihilator routes disagree for {alg.group.name}")
    contained = None
    if alg.soc_is_ideal:
        contained = derived_sum_space(qalg).contains(embed_central(qalg, route1).basis)
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
    ng = commutator_subgroup(group, n_sub)
    nng = pairwise_commutator_subgroup(group, n_sub, ng)
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
    pg = commutator_subgroup(group, syl)
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


def row_loop_latin_check(table: np.ndarray) -> None:
    """The Latin-square check one index at a time: row i, then column i."""
    n = table.shape[0]
    ref = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), ref):
            raise NotAGroupError("latin-row", witness=i)
        if not np.array_equal(np.sort(table[:, i]), ref):
            raise NotAGroupError("latin-column", witness=i)


def _two_generator_pair(group) -> tuple[int, int]:
    """Lexicographically first pair of elements generating the whole group."""
    for x in range(group.order):
        for y in range(x + 1, group.order):
            if generate_subgroup(group, (x, y)).order == group.order:
                return x, y
    raise SearchFailedError(f"{group.name} is not 2-generated")


def _perm_order(perm: np.ndarray) -> int:
    n = perm.size
    acc = perm.copy()
    k = 1
    ref = np.arange(n)
    while not np.array_equal(acc, ref):
        acc = perm[acc]
        k += 1
    return k


def searched_216_86_automorphism() -> np.ndarray:
    """The first automorphism of E27, over images of its first generating
    pair in index order, that inverts the center, has order 8 and is
    transitive on the eight nontrivial cosets of the center."""
    e27 = extraspecial_27_exp3()
    zc = center(e27)
    z_members = zc.sorted_members
    x0, y0 = _two_generator_pair(e27)
    _, projz = quotient(e27, zc)
    alpha = None
    for x1 in range(e27.order):
        if x1 in zc.members:
            continue
        for y1 in range(e27.order):
            mapping = _extend_generator_images(e27, e27, (x0, y0), (x1, y1))
            if mapping is None or not _is_homomorphism(e27, e27, mapping):
                continue
            if any(mapping[z] != e27.inv(z) for z in z_members if z != e27.identity):
                continue
            if _perm_order(mapping) != 8:
                continue
            induced = projz[mapping[np.unique(zc.coset_minima)]]
            orbit = {int(projz[x0])}
            cur = int(projz[x0])
            for _ in range(8):
                cur = int(induced[cur])
                orbit.add(cur)
            if len(orbit) != 8:
                continue
            alpha = mapping
            break
        if alpha is not None:
            break
    if alpha is None:
        raise SearchFailedError("no order-8 automorphism with the required action exists")
    return alpha
