"""Finite groups as Cayley tables, with subgroup and quotient machinery.

Elements are indices 0..n-1; the table is a dense numpy array so that one
multiplication is one lookup. Groups and subgroups are immutable after
construction and safe to share between workers; a group only fills in its
memo of the subgroups computed from it. Every operation here is a pure
function of its inputs with deterministic (smallest-index) tie-breaking.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, wraps
from math import gcd
from typing import Iterable, Optional

import numpy as np

from .errors import (
    NoComplementError,
    NotAGroupError,
    NotNilpotentError,
    NotNormalError,
)


@dataclass(frozen=True, eq=False)
class ConjClassPartition:
    """Conjugacy classes of a group, ordered by their minimal member."""

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    representatives: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True)
class PDecomposition:
    """Commuting factorization g = g_p * g_p' into p-part and p'-part."""

    element: int
    p_part: int
    pprime_part: int


@dataclass(frozen=True, eq=False)
class GroupIso:
    """Isomorphism between two groups, stored as an image table."""

    source: "FiniteGroup"
    target: "FiniteGroup"
    mapping: np.ndarray

    def __call__(self, g: int) -> int:
        return int(self.mapping[g])


@dataclass(frozen=True, eq=False)
class IsoclinismWitness:
    """Witnessing pair of maps for an isoclinism of two groups."""

    central_quotient_iso: GroupIso
    derived_iso: dict[int, int]


class FiniteGroup:
    """Group given by its full multiplication table.

    Do not call directly; use :func:`make_group` or a constructor, which
    validate the axioms.
    """

    def __init__(self, table: np.ndarray, name: str, identity: int,
                 inverse: np.ndarray, element_orders: np.ndarray,
                 generators: tuple[int, ...]):
        self.table = table
        self.name = name
        self.identity = identity
        self.inverse = inverse
        self.element_orders = element_orders
        self.generators = generators
        self._facts: dict[tuple, object] = {}
        for arr in (self.table, self.inverse, self.element_orders):
            arr.flags.writeable = False

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def __len__(self) -> int:
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return int(self.table[self.table[g, a], self.inverse[g]])

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        t = self.table
        return int(t[t[t[a, b], self.inverse[a]], self.inverse[b]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        acc = self.identity
        base = a
        while k:
            if k & 1:
                acc = int(self.table[acc, base])
            base = int(self.table[base, base])
            k >>= 1
        return acc

    def element_order(self, a: int) -> int:
        return int(self.element_orders[a])

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    @cached_property
    def conjugacy_classes(self) -> ConjClassPartition:
        n = self.order
        t = self.table
        inv = self.inverse
        class_of = np.full(n, -1, dtype=np.int64)
        classes: list[tuple[int, ...]] = []
        all_g = np.arange(n)
        for x in range(n):
            if class_of[x] >= 0:
                continue
            orbit = np.unique(t[t[all_g, x], inv[all_g]])
            idx = len(classes)
            class_of[orbit] = idx
            classes.append(tuple(int(v) for v in orbit))
        return ConjClassPartition(
            classes=tuple(classes),
            class_of=class_of,
            representatives=tuple(c[0] for c in classes),
        )

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        return Subgroup(self, members)

    @cached_property
    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup({self.identity})

    @cached_property
    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.order))

    def hash_digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.table.astype(np.int64).tobytes())
        return h.hexdigest()


class Subgroup:
    """Subset of a parent group's indices, validated to be a subgroup."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self.parent = parent
        self.members = frozenset(int(m) for m in members)
        self._validate()

    def _validate(self) -> None:
        g = self.parent
        if g.identity not in self.members:
            raise NotAGroupError("identity", witness=sorted(self.members)[:4])
        mem = self.sorted_members
        arr = np.array(mem, dtype=np.int64)
        prods = g.table[np.ix_(arr, arr)]
        if not np.isin(prods, arr).all():
            bad = np.argwhere(~np.isin(prods, arr))[0]
            raise NotAGroupError("closure", witness=(mem[bad[0]], mem[bad[1]]))
        if not np.isin(g.inverse[arr], arr).all():
            raise NotAGroupError("inverse", witness=None)
        if g.order % len(mem):
            raise NotAGroupError("lagrange", witness=len(mem))

    @cached_property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        return int(x) in self.members

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.members == other.members

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name!r})"

    @cached_property
    def is_normal(self) -> bool:
        g = self.parent
        arr = np.array(self.sorted_members, dtype=np.int64)
        target = set(self.members)
        for x in range(g.order):
            conj = g.table[g.table[x, arr], g.inverse[x]]
            if set(int(v) for v in conj) != target:
                return False
        return True

    def as_group(self, name: str | None = None) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Reindex the subgroup as a standalone group.

        Returns the group together with the tuple mapping new indices back
        to parent indices.
        """
        mem = self.sorted_members
        pos = {m: i for i, m in enumerate(mem)}
        arr = np.array(mem, dtype=np.int64)
        sub = self.parent.table[np.ix_(arr, arr)]
        table = np.array([[pos[int(v)] for v in row] for row in sub], dtype=np.int64)
        label = name or f"{self.parent.name}|{self.order}"
        return make_group(table, label), mem


def _latin_check(table: np.ndarray) -> None:
    n = table.shape[0]
    ref = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), ref):
            raise NotAGroupError("latin-row", witness=i)
        if not np.array_equal(np.sort(table[:, i]), ref):
            raise NotAGroupError("latin-column", witness=i)


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    ref = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], ref) and np.array_equal(table[:, e], ref):
            return e
    raise NotAGroupError("identity")


def _element_orders(table: np.ndarray, identity: int) -> np.ndarray:
    n = table.shape[0]
    orders = np.ones(n, dtype=np.int64)
    for g in range(n):
        x = g
        k = 1
        while x != identity:
            x = int(table[x, g])
            k += 1
        orders[g] = k
    return orders


def _closure(table: np.ndarray, base: frozenset[int], gens: Iterable[int]) -> frozenset[int]:
    """Least subgroup containing the subgroup `base` and the elements `gens`.

    Dimino-style incremental closure, one new generator g at a time: while
    H is extended by g, the result stays a union of left cosets xH, so it is
    closed under right multiplication by H and only needs closing under g.
    H is first multiplied by g, g^2, ..., g^(m-1), where g^m is the first
    power in H; these fewer than |H<g>| products reach the cyclic part at once.
    After that each new element is multiplied once by g, and a product
    outside the result brings in its whole coset, so the cost is
    O(|result| x |new generators|). A set closed under right multiplication
    by generators is the subgroup they generate only for an associative
    table; `make_group` checks that exactly, by Light's test.
    """
    inside = np.zeros(table.shape[0], dtype=bool)
    sub = np.fromiter(base, dtype=np.int64, count=len(base))
    inside[sub] = True
    for g in gens:
        if inside[g]:
            continue
        powers = [g]
        while not inside[table[powers[-1], g]]:
            powers.append(table[powers[-1], g])
        prods = table[sub[:, None], powers].ravel()
        while prods.size:
            fresh = np.unique(prods[~inside[prods]])
            cosets = table[fresh[:, None], sub]
            if fresh.size > 1 and sub.size > 1:
                # Keep one row per left coset; rows of one coset share a minimum.
                cosets = cosets[np.unique(cosets.min(axis=1), return_index=True)[1]]
            frontier = cosets.ravel()
            inside[frontier] = True
            prods = table[frontier, g]
        sub = np.flatnonzero(inside)
    return base if sub.size == len(base) else frozenset(sub.tolist())


def _greedy_generators(table: np.ndarray, identity: int) -> tuple[int, ...]:
    """Greedy smallest-index generators, found without assuming associativity.

    A breadth-first search by right multiplication from the identity, so every
    element is a left-normed product (..(s1 s2)..)sk of generators.
    """
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        prods = table[np.flatnonzero(reached), g]
        while prods.size:
            fresh = np.unique(prods[~reached[prods]])
            reached[fresh] = True
            prods = table[fresh[:, None], gens].ravel()
    return tuple(gens)


def make_group(table, name: str = "G") -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Checks the Latin square property, a two-sided identity, associativity
    (exactly, by Light's test over the greedy generators, at every order)
    and two-sided inverses. Raises :class:`NotAGroupError` naming the
    violated axiom with a witness.
    """
    t = np.array(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotAGroupError("square-table", witness=t.shape)
    n = t.shape[0]
    if n == 0:
        raise NotAGroupError("empty-table")
    if t.min() < 0 or t.max() >= n:
        raise NotAGroupError("index-range", witness=(int(t.min()), int(t.max())))
    _latin_check(t)
    identity = _find_identity(t)
    gens = _greedy_generators(t, identity)
    # Light's test: the s with (x s) y = x (s y) for all x, y are closed under
    # products (Clifford & Preston, The Algebraic Theory of Semigroups I, 1.2)
    # and every element is a product of generators, so checking them is exact.
    for s in gens:
        left, right = t[t[:, s], :], t[:, t[s, :]]
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            raise NotAGroupError("associativity", witness=(int(x), s, int(y)))
    inverse = np.argmax(t == identity, axis=1)
    left_ok = t[inverse, np.arange(n)] == identity
    if not left_ok.all():
        raise NotAGroupError("inverse", witness=int(np.argmin(left_ok)))
    orders = _element_orders(t, identity)
    return FiniteGroup(t, name, identity, inverse, orders, gens)


def generate_subgroup(group: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Least subgroup containing `seed`, by incremental closure."""
    members = _closure(group.table, frozenset({group.identity}), (int(s) for s in seed))
    return group.subgroup(members)


def _normal_closure(group: FiniteGroup, base: frozenset[int],
                    seed: Iterable[int]) -> frozenset[int]:
    """Least normal subgroup containing the normal subgroup `base` and `seed`.

    The result N is generated by `base` and a list of generators. Each
    generator is conjugated by each generator of the group and N is extended
    by the conjugates outside it, which join the list. Once the list is
    exhausted, N^s lies in N for every group generator s, so N is normal.
    """
    t, inv = group.table, group.inverse
    outer = np.array(group.generators, dtype=np.int64)
    gens = [int(x) for x in seed]
    members = _closure(t, base, gens)
    for x in gens:
        conj = t[t[outer, x], inv[outer]]
        fresh = [int(c) for c in conj if int(c) not in members]
        if fresh:
            members = _closure(t, members, fresh)
            gens.extend(fresh)
    return members


def centralizer(group: FiniteGroup, subset: Iterable[int],
                within: Optional[Subgroup] = None) -> Subgroup:
    """Elements (of `within`, default the whole group) commuting with `subset`."""
    t = group.table
    sub = np.fromiter(sorted(set(int(s) for s in subset)), dtype=np.int64)
    domain = np.arange(group.order) if within is None else np.array(within.sorted_members)
    mask = np.ones(domain.size, dtype=bool)
    for s in sub:
        mask &= t[domain, s] == t[s, domain]
    return group.subgroup(domain[mask])


def normalizer(group: FiniteGroup, sub: Subgroup | Iterable[int],
               within: Optional[Subgroup] = None) -> Subgroup:
    members = sub.members if isinstance(sub, Subgroup) else frozenset(int(s) for s in sub)
    arr = np.fromiter(sorted(members), dtype=np.int64)
    t, inv = group.table, group.inverse
    domain = range(group.order) if within is None else within.sorted_members
    keep = []
    for x in domain:
        conj = t[t[x, arr], inv[x]]
        if frozenset(int(v) for v in conj) == members:
            keep.append(x)
    return group.subgroup(keep)


def commutator_subgroup(group: FiniteGroup, a: Subgroup | Iterable[int],
                        b: Subgroup | Iterable[int]) -> Subgroup:
    """Subgroup generated by the commutators [x, y] with x in a, y in b."""
    t, inv = group.table, group.inverse
    arr_a = np.fromiter(sorted(a.members if isinstance(a, Subgroup) else set(map(int, a))),
                        dtype=np.int64)
    arr_b = np.fromiter(sorted(b.members if isinstance(b, Subgroup) else set(map(int, b))),
                        dtype=np.int64)
    ab = t[np.ix_(arr_a, arr_b)]
    x = t[ab, inv[arr_a][:, None]]
    comms = np.unique(t[x, inv[arr_b][None, :]])
    return generate_subgroup(group, (int(c) for c in comms))


def _memoized(fn):
    """Keep `fn(group, *args)` on the group, computed once per argument tuple.

    Used for the facts that are deterministic functions of a group and
    a prime (the characteristic subgroups, a Sylow subgroup, a Hall
    complement, the nilpotency class), so every caller shares one result.
    A call that raises stores nothing.
    """
    @wraps(fn)
    def memoized(group: FiniteGroup, *args):
        key = (fn.__name__, *args)
        if key not in group._facts:
            group._facts[key] = fn(group, *args)
        return group._facts[key]

    return memoized


@_memoized
def derived_subgroup(group: FiniteGroup) -> Subgroup:
    """G' = [G, G], computed once per group."""
    return commutator_subgroup(group, group.full_subgroup, group.full_subgroup)


@_memoized
def center(group: FiniteGroup) -> Subgroup:
    """Z(G), computed once per group."""
    return centralizer(group, range(group.order))


def _power_map(group: FiniteGroup, k: int) -> np.ndarray:
    return np.array([group.power(g, k) for g in range(group.order)], dtype=np.int64)


def frattini_subgroup(group: FiniteGroup) -> Subgroup:
    """Intersection of the maximal subgroups.

    For p-groups this is the closure of commutators and p-th powers. Any
    other group intersects the maximal subgroups of the full lattice from
    :func:`all_subgroups`, well under a second at order 216.
    """
    n = group.order
    p = _prime_power_base(n)
    if p is not None:
        derived = derived_subgroup(group)
        powers = _power_map(group, p)
        return generate_subgroup(group, set(derived.members) | set(int(v) for v in powers))
    members = set(range(n))
    for m in maximal_subgroups(group):
        members &= m.members
    return group.subgroup(members)


def _prime_power_base(n: int) -> int | None:
    """The prime p when n is a nontrivial power of p, else None."""
    if n == 1:
        return None
    f = 2
    m = n
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            return f if m == 1 else None
        f += 1
    return m


def _p_part(n: int, p: int) -> int:
    pk = 1
    while n % p == 0:
        n //= p
        pk *= p
    return pk


def is_p_group(order: int, p: int) -> bool:
    """Is `order` a power of `p` (1 included), i.e. is a group of that order a p-group?"""
    return _p_part(order, p) == order


@_memoized
def sylow_subgroup(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown by normalizer ascent.

    Starting from the trivial subgroup, repeatedly adjoin the smallest
    p-element of the normalizer not already present; the extension stays a
    p-group because the current subgroup is normal in its normalizer.
    Computed once per group and prime, so every caller sees the same one.
    """
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


@_memoized
def p_core(group: FiniteGroup, p: int) -> Subgroup:
    """Largest normal p-subgroup: intersection of the Sylow conjugates.

    Computed once per group and prime.
    """
    syl = sylow_subgroup(group, p)
    arr = np.array(syl.sorted_members, dtype=np.int64)
    t, inv = group.table, group.inverse
    members = set(syl.members)
    for x in range(group.order):
        conj = t[t[x, arr], inv[x]]
        members &= set(int(v) for v in conj)
        if len(members) == 1:
            break
    return group.subgroup(members)


@_memoized
def pprime_core(group: FiniteGroup, p: int) -> Subgroup:
    """Largest normal p'-subgroup, by fixed-point iteration.

    Repeatedly absorbs a conjugacy class of p'-elements whose normal
    closure together with the current subgroup still has order coprime to
    p. That closure is the same for every member of a class, so only class
    representatives are tried. Computed once per group and prime.
    """
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
    return group.subgroup(current)


@_memoized
def p_residual(group: FiniteGroup, p: int) -> Subgroup:
    """Smallest normal subgroup with p-group quotient: generated by p'-elements.

    Computed once per group and prime.
    """
    seed = [g for g in range(group.order) if gcd(group.element_order(g), p) == 1]
    return generate_subgroup(group, seed)


@_memoized
def two_element_class_subgroup(group: FiniteGroup) -> Subgroup:
    """Subgroup generated by g f^-1 over all conjugacy classes {f, g} of length 2.

    Trivial when no class of length two exists. Computed once per group.
    """
    seed = []
    for cls in group.conjugacy_classes.classes:
        if len(cls) == 2:
            f, g = cls
            seed.append(group.mul(g, group.inv(f)))
    return generate_subgroup(group, seed)


@_memoized
def hall_complement(group: FiniteGroup, p: int) -> Subgroup:
    """A p'-complement to a normal Sylow p-subgroup.

    Found by depth-first search over p'-elements in increasing index order,
    keeping the running closure a p'-group of order dividing the target;
    the first complete complement found is returned, so the result is
    deterministic. Computed once per group and prime; a group without a
    complement raises on every call.
    """
    syl = sylow_subgroup(group, p)
    if not syl.is_normal:
        raise NoComplementError("Sylow p-subgroup is not normal")
    m = group.order // syl.order
    if m == 1:
        return group.trivial_subgroup
    pprime = [x for x in range(group.order)
              if gcd(group.element_order(x), p) == 1 and m % group.element_order(x) == 0]
    seen: set[frozenset[int]] = set()

    def extend(members: frozenset[int], floor: int) -> frozenset[int] | None:
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

    result = extend(frozenset({group.identity}), -1)
    if result is None:
        raise NoComplementError(f"no complement of order {m} found")
    return group.subgroup(result)


def quotient(group: FiniteGroup, n_sub: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient group on the cosets of a normal subgroup, plus the projection map.

    Cosets are indexed by their minimal member, in increasing order.
    """
    if not n_sub.is_normal:
        raise NotNormalError(f"{n_sub!r} is not normal in {group.name!r}")
    t = group.table
    arr = np.array(n_sub.sorted_members, dtype=np.int64)
    coset_min = t[:, arr].min(axis=1)
    reps = np.unique(coset_min)
    index_of = {int(r): i for i, r in enumerate(reps)}
    proj = np.array([index_of[int(c)] for c in coset_min], dtype=np.int64)
    qtable = proj[t[np.ix_(reps, reps)]]
    q = make_group(qtable, name=f"{group.name}/N{n_sub.order}")
    proj.flags.writeable = False
    return q, proj


def p_decomposition(group: FiniteGroup, g: int, p: int) -> PDecomposition:
    """Split g into commuting p-part and p'-part (both powers of g)."""
    o = group.element_order(g)
    pa = _p_part(o, p)
    m = o // pa
    e_p = m * pow(m, -1, pa) if pa > 1 else 0
    e_pp = pa * pow(pa, -1, m) if m > 1 else 0
    gp = group.power(g, e_p) if pa > 1 else group.identity
    gpp = group.power(g, e_pp) if m > 1 else group.identity
    return PDecomposition(element=g, p_part=gp, pprime_part=gpp)


def pprime_sections(group: FiniteGroup, p: int) -> tuple[tuple[int, ...], ...]:
    """Partition of G where x ~ y iff their p'-parts are conjugate."""
    cls = group.conjugacy_classes
    buckets: dict[int, list[int]] = {}
    for g in range(group.order):
        key = int(cls.class_of[p_decomposition(group, g, p).pprime_part])
        buckets.setdefault(key, []).append(g)
    return tuple(tuple(b) for _, b in sorted(buckets.items(), key=lambda kv: min(kv[1])))


def lower_central_series(group: FiniteGroup) -> list[Subgroup]:
    series = [group.full_subgroup]
    while True:
        nxt = commutator_subgroup(group, series[-1], group.full_subgroup)
        if nxt.members == series[-1].members:
            return series
        series.append(nxt)


@_memoized
def nilpotency_class(group: FiniteGroup) -> int:
    """Length of the lower central series, computed once per group; raises
    `NotNilpotentError` when the series stops above the trivial subgroup."""
    series = lower_central_series(group)
    if series[-1].order != 1:
        raise NotNilpotentError(
            f"lower central series of {group.name!r} stabilizes at order {series[-1].order}")
    return len(series) - 1


def is_metabelian(group: FiniteGroup) -> bool:
    d = derived_subgroup(group)
    dg, _ = d.as_group()
    return dg.is_abelian


def is_central_product(group: FiniteGroup, a: Subgroup, b: Subgroup) -> bool:
    """True iff a and b commute elementwise and together generate the group."""
    t = group.table
    arr_a = np.array(a.sorted_members, dtype=np.int64)
    arr_b = np.array(b.sorted_members, dtype=np.int64)
    if not np.array_equal(t[np.ix_(arr_a, arr_b)], t[np.ix_(arr_b, arr_a)].T):
        return False
    return generate_subgroup(group, a.members | b.members).order == group.order


def element_order_multiset(group: FiniteGroup) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(group.element_orders, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> GroupIso | None:
    """Brute-force isomorphism search by generator-image backtracking.

    Deterministic: generators are the greedy smallest-index generating
    sequence of g1 and candidate images are tried in increasing order.
    Intended for desk-scale orders (up to roughly 64).
    """
    for iso in _iter_isomorphisms(g1, g2):
        return iso
    return None


def _iter_isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    if g1.order != g2.order:
        return
    if element_order_multiset(g1) != element_order_multiset(g2):
        return
    gens = g1.generators
    if not gens:
        yield GroupIso(g1, g2, np.array([g2.identity], dtype=np.int64))
        return
    n = g1.order
    by_order: dict[int, list[int]] = {}
    for x in range(n):
        by_order.setdefault(g2.element_order(x), []).append(x)

    def build(images: list[int]) -> np.ndarray | None:
        # BFS extension from the identity; positions not yet determined are -1.
        mapping = np.full(n, -1, dtype=np.int64)
        mapping[g1.identity] = g2.identity
        frontier = [g1.identity]
        used = {g2.identity}
        while frontier:
            nxt = []
            for x in frontier:
                for gen, img in zip(gens[:len(images)], images):
                    y = g1.mul(x, gen)
                    fy = g2.mul(int(mapping[x]), img)
                    if mapping[y] < 0:
                        if fy in used:
                            return None
                        mapping[y] = fy
                        used.add(fy)
                        nxt.append(y)
                    elif mapping[y] != fy:
                        return None
            frontier = nxt
        return mapping

    def extend(images: list[int]):
        k = len(images)
        if k == len(gens):
            mapping = build(images)
            if mapping is None or (mapping < 0).any():
                return
            ma = mapping[g1.table]
            mb = g2.table[np.ix_(mapping, mapping)]
            if np.array_equal(ma, mb):
                yield GroupIso(g1, g2, mapping)
            return
        want = g1.element_order(gens[k])
        for cand in by_order.get(want, ()):
            partial = build(images + [cand])
            if partial is None:
                continue
            yield from extend(images + [cand])

    yield from extend([])


def are_isoclinic(g1: FiniteGroup, g2: FiniteGroup) -> IsoclinismWitness | None:
    """Isoclinism test with witness maps.

    Searches isomorphisms between the central quotients and, for each, the
    forced map on commutator values; returns the first compatible pair or
    None. Size mismatches of the central quotients or derived subgroups
    fail fast.
    """
    z1, z2 = center(g1), center(g2)
    d1, d2 = derived_subgroup(g1), derived_subgroup(g2)
    if d1.order != d2.order or g1.order * z2.order != g2.order * z1.order:
        return None
    q1, proj1 = quotient(g1, z1)
    q2, proj2 = quotient(g2, z2)
    d1g, _ = d1.as_group()
    d2g, _ = d2.as_group()
    if element_order_multiset(d1g) != element_order_multiset(d2g):
        return None
    reps1 = _coset_representatives(proj1, q1.order)
    reps2 = _coset_representatives(proj2, q2.order)
    for beta in _iter_isomorphisms(q1, q2):
        phi = _compatible_derived_iso(g1, g2, d1, d2, reps1, reps2, beta.mapping)
        if phi is not None:
            return IsoclinismWitness(central_quotient_iso=beta, derived_iso=phi)
    return None


def _coset_representatives(proj: np.ndarray, count: int) -> np.ndarray:
    reps = np.full(count, -1, dtype=np.int64)
    for g in range(proj.size):
        c = int(proj[g])
        if reps[c] < 0:
            reps[c] = g
    return reps


def _compatible_derived_iso(g1, g2, d1: Subgroup, d2: Subgroup,
                            reps1: np.ndarray, reps2: np.ndarray,
                            beta: np.ndarray) -> dict[int, int] | None:
    # Commutators only depend on central cosets, so beta forces the map on
    # commutator values; it must extend multiplicatively to the derived group.
    phi: dict[int, int] = {g1.identity: g2.identity}
    for i in range(reps1.size):
        for j in range(reps1.size):
            s = g1.commutator(int(reps1[i]), int(reps1[j]))
            t = g2.commutator(int(reps2[beta[i]]), int(reps2[beta[j]]))
            if phi.setdefault(s, t) != t:
                return None
    while True:
        items = list(phi.items())
        for x, fx in items:
            for y, fy in items:
                xy = g1.mul(x, y)
                fxy = g2.mul(fx, fy)
                if phi.setdefault(xy, fxy) != fxy:
                    return None
        if len(phi) == len(items):
            break
    if set(phi) != d1.members or set(phi.values()) != d2.members:
        return None
    for x in phi:
        for y in phi:
            if phi[g1.mul(x, y)] != g2.mul(phi[x], phi[y]):
                return None
    return phi


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, sorted by order and then by members.

    Breadth-first search from the trivial subgroup: each subgroup H found
    is extended to <H, g> by incremental closure, for one g per double
    coset HgH outside H, since <H, g> = <H, hgh'> for h, h' in H. Exhaustive
    and deterministic; the 118 subgroups of SmallGroup(216, 86) take well
    under a second.
    """
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
    subs = [group.subgroup(m) for m in seen]
    subs.sort(key=lambda s: (s.order, s.sorted_members))
    return subs


def maximal_subgroups(group: FiniteGroup) -> list[Subgroup]:
    subs = [s for s in all_subgroups(group) if s.order < group.order]
    out = []
    for s in subs:
        if not any(s.members < t.members for t in subs):
            out.append(s)
    return out


def normal_subgroups(group: FiniteGroup) -> list[Subgroup]:
    return [s for s in all_subgroups(group) if s.is_normal]
