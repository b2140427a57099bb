"""Finite groups as Cayley tables, with subgroup and quotient machinery.

Elements are indices 0..n-1; the table is a dense numpy array so that one
multiplication is one lookup, and a whole set of products (a subgroup
conjugated by many elements, the powers of every element) is one indexing
step into it. Groups and subgroups are immutable after
construction; a group only fills in its memo of the subgroups computed
from it. Every operation here is a pure
function of its inputs with deterministic (smallest-index) tie-breaking.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, wraps
from math import gcd, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    NoComplementError,
    NotAGroupError,
    NotNilpotentError,
    NotNormalError,
)
from .fplin import is_prime


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
class IsoclinismWitness:
    """Witnessing pair of maps for an isoclinism of two groups; the first is
    an image array between the central quotients that :func:`quotient` builds."""

    central_quotient_iso: np.ndarray
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
        """sha256 of the table's bytes; `make_group` stores it C-contiguous int64."""
        return hashlib.sha256(self.table).hexdigest()


class Subgroup:
    """Subset of a parent group's indices, validated to be a subgroup."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self.parent = parent
        self.members = frozenset(int(m) for m in members)
        self._validate()

    def _validate(self) -> None:
        """One test: the members are indices of the parent, and they form a
        nonempty set closed under the product.

        That is exact for a finite group: a closed set holding x holds
        x^o(x) = 1 and x^(o(x)-1) = x^-1, and Lagrange then holds.
        """
        mem = self.sorted_members
        if not mem:
            raise NotAGroupError("empty-subset")
        if mem[0] < 0 or mem[-1] >= self.parent.order:
            raise NotAGroupError("index-range", witness=(mem[0], mem[-1]))
        arr = np.array(mem, dtype=np.int64)
        outside = ~self.mask[self.parent.table[np.ix_(arr, arr)]]
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise NotAGroupError("closure", witness=(mem[i], mem[j]))

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
    def mask(self) -> np.ndarray:
        """Read-only membership flags over the parent's elements."""
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[list(self.members)] = True
        inside.flags.writeable = False
        return inside

    @cached_property
    def is_abelian(self) -> bool:
        """Do the members commute pairwise? Read in the parent's table."""
        arr = np.array(self.sorted_members, dtype=np.int64)
        block = self.parent.table[np.ix_(arr, arr)]
        return bool(np.array_equal(block, block.T))

    @cached_property
    def is_normal(self) -> bool:
        """Conjugating by the generators suffices: each conjugation is a
        bijection, so x H x^-1 within H means x H x^-1 = H."""
        g = self.parent
        return bool(self.mask[_conjugates(g, self.sorted_members, g.generators)].all())

    @cached_property
    def coset_minima(self) -> np.ndarray:
        """Entry g is the least element of the right coset Hg."""
        arr = np.array(self.sorted_members, dtype=np.int64)
        minima = self.parent.table[arr, :].min(axis=0)
        minima.flags.writeable = False
        return minima

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Reindex the subgroup as a standalone group.

        Returns the group together with the tuple mapping new indices back
        to parent indices.
        """
        mem = self.sorted_members
        arr = np.array(mem, dtype=np.int64)
        table = np.searchsorted(arr, self.parent.table[np.ix_(arr, arr)])
        return make_group(table, f"{self.parent.name}|{self.order}"), mem


def _latin_check(table: np.ndarray) -> None:
    """Every row and every column is a permutation of range(n).

    Raises on the first index i that is bad as a row or as a column,
    naming the row if it is both.
    """
    ref = np.arange(table.shape[0])
    bad_row = (np.sort(table, axis=1) != ref).any(axis=1)
    bad_col = (np.sort(table, axis=0) != ref[:, None]).any(axis=0)
    bad = np.flatnonzero(bad_row | bad_col)
    if bad.size:
        i = int(bad[0])
        raise NotAGroupError("latin-row" if bad_row[i] else "latin-column", witness=i)


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    ref = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], ref) and np.array_equal(table[:, e], ref):
            return e
    raise NotAGroupError("identity")


def _element_orders(table: np.ndarray, identity: int) -> np.ndarray:
    """Order of every element, stepping the k-th powers of all elements at once."""
    orders = np.ones(table.shape[0], dtype=np.int64)
    live = np.flatnonzero(np.arange(table.shape[0]) != identity)
    power = live
    k = 1
    while live.size:
        k += 1
        power = table[power, live]
        done = power == identity
        orders[live[done]] = k
        live, power = live[~done], power[~done]
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


def _conjugates(group: FiniteGroup, members, by) -> np.ndarray:
    """Row i holds by[i] m by[i]^-1 for each m in `members`."""
    t, by = group.table, np.asarray(by, dtype=np.int64)
    return t[t[by[:, None], np.asarray(members, dtype=np.int64)], group.inverse[by][:, None]]


def _normal_closure(group: FiniteGroup, base: frozenset[int],
                    seed: Iterable[int]) -> frozenset[int]:
    """Least normal subgroup containing the normal subgroup `base` and `seed`.

    The result N is generated by `base` and a list of generators. Each
    generator is conjugated by each generator of the group and N is extended
    by the conjugates outside it, which join the list. Once the list is
    exhausted, N^s lies in N for every group generator s, so N is normal.
    """
    fresh = np.fromiter(seed, dtype=np.int64)
    members = base
    while fresh.size:
        members = _closure(group.table, members, fresh.tolist())
        conj = np.unique(_conjugates(group, fresh, group.generators)).tolist()
        fresh = np.fromiter((c for c in conj if c not in members), dtype=np.int64)
    return members


def centralizer(group: FiniteGroup, subset: Iterable[int],
                within: Optional[Subgroup] = None) -> Subgroup:
    """Elements (of `within`, default the whole group) commuting with `subset`."""
    t, sub = group.table, np.unique(np.fromiter(subset, dtype=np.int64))
    domain = np.arange(group.order) if within is None else np.array(within.sorted_members)
    commute = t[domain[:, None], sub] == t[sub[:, None], domain].T
    return group.subgroup(domain[commute.all(axis=1)])


def normalizer(group: FiniteGroup, sub: Subgroup,
               within: Optional[Subgroup] = None) -> Subgroup:
    domain = np.arange(group.order) if within is None else np.array(within.sorted_members)
    conj = _conjugates(group, sub.sorted_members, domain)
    return group.subgroup(domain[sub.mask[conj].all(axis=1)])


def commutator_subgroup(group: FiniteGroup, a: Subgroup) -> Subgroup:
    """[A, G], as the normal closure K of the [x, s] for x in A, s a generator.

    Exact: modulo K each x in A commutes with every generator, so xK is
    central in G/K and [A, G] <= K; and K <= [A, G], which is normal in G.
    """
    t, inv = group.table, group.inverse
    arr = np.array(a.sorted_members, dtype=np.int64)[:, None]
    gens = np.array(group.generators, dtype=np.int64)
    comms = np.unique(t[t[t[arr, gens], inv[arr]], inv[gens]])
    return group.subgroup(_normal_closure(group, frozenset({group.identity}), comms))


def _memoized(fn):
    """Keep `fn(group, *args)` on the group, computed once per argument tuple.

    Used for the facts that are deterministic functions of a group and
    a prime or a subgroup (the characteristic subgroups, a Sylow subgroup,
    a Hall complement, the lower central series, a quotient), so every
    caller shares one result.
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
    return commutator_subgroup(group, group.full_subgroup)


@_memoized
def center(group: FiniteGroup) -> Subgroup:
    """Z(G), computed once per group: an element commuting with every
    generator commutes with the group they generate."""
    return centralizer(group, group.generators)


def frattini_subgroup(group: FiniteGroup) -> Subgroup:
    """Intersection of the maximal subgroups.

    A nilpotent group is the direct product of its Sylow subgroups P, and
    Phi(G) is the product of the Phi(P) = P'P^p. With r the product of the
    primes dividing |G|, g^r has P-component g_P^r = (g_P^(r/p))^p, and
    x -> x^(r/p) permutes P, so the r-th powers generate the product of the
    P^p and Phi(G) = <G', g^r>. Any other group intersects the
    maximal subgroups of the full lattice from :func:`all_subgroups`, about
    0.03 s for Hol(C15), D96 or SmallGroup(216, 86).
    """
    n = group.order
    if lower_central_series(group)[-1].order == 1:
        r = prod(f for f in range(2, n + 1) if n % f == 0 and is_prime(f))
        powers = {group.power(g, r) for g in range(n)}
        return generate_subgroup(group, derived_subgroup(group).members | powers)
    members = set(range(n))
    for m in maximal_subgroups(group):
        members &= m.members
    return group.subgroup(members)


def _p_part(n: int, p: int) -> int:
    pk = 1
    while n % p == 0:
        n //= p
        pk *= p
    return pk


def _pprime_exponent(order: int, p: int) -> int:
    """The e with x^e the p'-part of any x of this order: 1 mod the
    p'-part of the order and 0 mod its p-part."""
    pa = _p_part(order, p)
    m = order // pa
    return pa * pow(pa, -1, m) if m > 1 else 0


def is_p_group(order: int, p: int) -> bool:
    """Is `order` a power of `p` (1 included), i.e. is a group of that order a p-group?"""
    return _p_part(order, p) == order


@_memoized
def sylow_subgroup(group: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup: the group itself if a p-group, else by normalizer ascent.

    Starting from the trivial subgroup, repeatedly adjoin the smallest
    p-element of the normalizer not already present; the extension stays a
    p-group because the current subgroup is normal in its normalizer.
    Computed once per group and prime, so every caller sees the same one.
    """
    target = _p_part(group.order, p)
    if target == group.order:
        return group.full_subgroup
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
    """Largest normal p-subgroup O_p(G), computed once per group and prime.

    From a Sylow subgroup P, drop each member that some generator conjugates
    outside the set, until none drops. The fixed point is mapped into itself
    by every generator's conjugation, a bijection, so it is normal and lies in
    each conjugate of P; their intersection is invariant, so none of it drops.
    """
    inside = sylow_subgroup(group, p).mask.copy()
    while True:
        members = np.flatnonzero(inside)
        kept = inside[_conjugates(group, members, group.generators)].all(axis=0)
        if kept.all():
            return group.subgroup(members)
        inside[members[~kept]] = False


@_memoized
def pprime_core(group: FiniteGroup, p: int) -> Subgroup:
    """Largest normal p'-subgroup O_p'(G), by one sweep over the classes.

    A class of p'-elements is absorbed when its normal closure together
    with the subgroup so far still has order coprime to p; that closure is
    the same for every member of a class, so only representatives are
    tried. Every subgroup accepted is a normal p'-subgroup, so it lies in
    O_p'(G). A class inside O_p'(G) is therefore accepted when the sweep
    meets it, and a class outside is never accepted, so one sweep suffices.
    Computed once per group and prime.
    """
    current = frozenset({group.identity})
    for x in group.conjugacy_classes.representatives:
        if x in current or group.element_order(x) % p == 0:
            continue
        attempt = _normal_closure(group, current, (x,))
        if len(attempt) % p != 0:
            current = attempt
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
    """A p'-complement to a normal Sylow p-subgroup P, by one greedy pass.

    With m = |G:P|, the elements are walked in index order and K, starting
    trivial, becomes <K, x> whenever that order divides m. The pass never
    dead-ends: by Schur-Zassenhaus (P is solvable) every p'-subgroup K lies
    in a complement C, and <K, x> <= C for x in C. A rejected x stays
    rejected as K grows, since |<K, x>| divides the order of every larger
    <K', x> (Lagrange). So if the final K were smaller than a complement C
    containing it, some x in C outside K was rejected at a K_x <= K, though
    <K_x, x> <= C. The result is deterministic. Computed once per group and
    prime; a group whose Sylow p-subgroup is not normal raises on every call.
    """
    syl = sylow_subgroup(group, p)
    if not syl.is_normal:
        raise NoComplementError("Sylow p-subgroup is not normal")
    m = group.order // syl.order
    members = frozenset({group.identity})
    for x in range(group.order):
        if len(members) == m:
            break
        if x not in members and m % group.element_order(x) == 0:
            bigger = _closure(group.table, members, (x,))
            if m % len(bigger) == 0:
                members = bigger
    return group.subgroup(members)


@_memoized
def quotient(group: FiniteGroup, n_sub: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """Quotient group on the cosets of a normal subgroup, plus the projection map.

    Cosets are indexed by their minimal member, in increasing order. For a
    normal N the coset gN is Ng, so `n_sub.coset_minima` names it.
    Computed once per group and subgroup, so every caller shares one
    quotient group.
    """
    if not n_sub.is_normal:
        raise NotNormalError(f"{n_sub!r} is not normal in {group.name!r}")
    coset_min = n_sub.coset_minima
    reps = np.unique(coset_min)
    proj = np.searchsorted(reps, coset_min)
    qtable = proj[group.table[np.ix_(reps, reps)]]
    q = make_group(qtable, name=f"{group.name}/N{n_sub.order}")
    proj.flags.writeable = False
    return q, proj


def p_decomposition(group: FiniteGroup, g: int, p: int) -> PDecomposition:
    """Split g into commuting p-part and p'-part (both powers of g)."""
    o = group.element_order(g)
    pa = _p_part(o, p)
    m = o // pa
    e_p = m * pow(m, -1, pa) if pa > 1 else 0
    gp = group.power(g, e_p) if pa > 1 else group.identity
    gpp = group.power(g, _pprime_exponent(o, p))
    return PDecomposition(element=g, p_part=gp, pprime_part=gpp)


def pprime_sections(group: FiniteGroup, p: int) -> tuple[tuple[int, ...], ...]:
    """Partition of G where x ~ y iff their p'-parts are conjugate, sorted
    by least member.

    The p'-part of x is x^e for the exponent e that `p_decomposition` takes,
    which depends only on the order of x. So e is found once per distinct
    order, and every element is raised at once, by square-and-multiply on
    index arrays through the Cayley table.
    """
    orders, which = np.unique(group.element_orders, return_inverse=True)
    exponents = [_pprime_exponent(o, p) for o in orders.tolist()]
    e = np.array(exponents, dtype=np.int64)[which]
    table = group.table
    base = np.arange(group.order)
    pprime = np.full(group.order, group.identity)
    while e.any():
        odd = (e & 1).astype(bool)
        pprime[odd] = table[pprime[odd], base[odd]]
        base = table[base, base]
        e >>= 1
    keys = group.conjugacy_classes.class_of[pprime]
    order = np.argsort(keys, kind="stable")
    starts = np.unique(keys[order], return_index=True)[1]
    sections = np.split(order, starts[1:])
    return tuple(tuple(s.tolist()) for s in sorted(sections, key=lambda s: s[0]))


@_memoized
def lower_central_series(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """G = G_1 > G_2 = [G_1, G] > ... down to the first repeated term,
    computed once per group."""
    series = [group.full_subgroup]
    while True:
        nxt = commutator_subgroup(group, series[-1])
        if nxt.members == series[-1].members:
            return tuple(series)
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
    return derived_subgroup(group).is_abelian


def is_central_product(group: FiniteGroup, a: Subgroup, b: Subgroup) -> bool:
    """True iff a and b commute elementwise and together generate the group."""
    t = group.table
    arr_a = np.array(a.sorted_members, dtype=np.int64)
    arr_b = np.array(b.sorted_members, dtype=np.int64)
    if not np.array_equal(t[np.ix_(arr_a, arr_b)], t[np.ix_(arr_b, arr_a)].T):
        return False
    return generate_subgroup(group, a.members | b.members).order == group.order


def element_order_multiset(orders: np.ndarray) -> tuple[tuple[int, int], ...]:
    vals, counts = np.unique(orders, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> np.ndarray | None:
    """An isomorphism g1 -> g2 as an image array, or None, by generator-image
    backtracking.

    Exhaustive: an isomorphism is determined by the images of g1's
    generators, and it preserves element orders, so trying every image of
    the right order for each generator meets every isomorphism. A full
    assignment is kept when its map of words is consistent, injective and
    respects every product. Deterministic: generators are the greedy
    smallest-index generating sequence of g1 and candidate images are tried
    in increasing order. Intended for desk-scale orders (up to roughly 64).
    """
    return next(_iter_isomorphisms(g1, g2), None)


def _iter_isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    if g1.order != g2.order:
        return
    if element_order_multiset(g1.element_orders) != element_order_multiset(g2.element_orders):
        return
    gens = g1.generators
    if not gens:
        yield np.array([g2.identity], dtype=np.int64)
        return
    by_order: dict[int, list[int]] = {}
    for x in range(g1.order):
        by_order.setdefault(g2.element_order(x), []).append(x)

    def extend(images: list[int]):
        k = len(images)
        if k == len(gens):
            mapping = _extend_generator_images(g1, g2, gens, images)
            if mapping is not None and _is_homomorphism(g1, g2, mapping):
                yield mapping
            return
        want = g1.element_order(gens[k])
        for cand in by_order.get(want, ()):
            if _extend_generator_images(g1, g2, gens[:k + 1], images + [cand]) is not None:
                yield from extend(images + [cand])

    yield from extend([])


def _extend_generator_images(source: FiniteGroup, target: FiniteGroup,
                             gens: Sequence[int], images: Sequence[int]) -> np.ndarray | None:
    """Extend gens[i] -> images[i] to the elements the gens reach, as a map of
    words: breadth-first from the identity by right multiplication.

    Returns None when two words for one element get different images or two
    elements get one image; elements the gens do not reach map to -1. The
    result is a homomorphism only if `_is_homomorphism` says so.
    """
    mapping = np.full(source.order, -1, dtype=np.int64)
    mapping[source.identity] = target.identity
    used = {target.identity}
    frontier = [source.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gen, img in zip(gens, images):
                y = source.mul(x, gen)
                fy = target.mul(int(mapping[x]), img)
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


def _is_homomorphism(source: FiniteGroup, target: FiniteGroup, mapping: np.ndarray) -> bool:
    """Is `mapping` defined everywhere and does it respect every product?"""
    return bool((mapping >= 0).all() and np.array_equal(
        mapping[source.table], target.table[np.ix_(mapping, mapping)]))


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
    orders1 = g1.element_orders[list(d1.sorted_members)]
    orders2 = g2.element_orders[list(d2.sorted_members)]
    if element_order_multiset(orders1) != element_order_multiset(orders2):
        return None
    q1, _ = quotient(g1, z1)
    q2, _ = quotient(g2, z2)
    reps1 = np.unique(z1.coset_minima)
    reps2 = np.unique(z2.coset_minima)
    for beta in _iter_isomorphisms(q1, q2):
        phi = _compatible_derived_iso(g1, g2, d2, reps1, reps2, beta)
        if phi is not None:
            return IsoclinismWitness(central_quotient_iso=beta, derived_iso=phi)
    return None


def _compatible_derived_iso(g1: FiniteGroup, g2: FiniteGroup, d2: Subgroup,
                            reps1: np.ndarray, reps2: np.ndarray,
                            beta: np.ndarray) -> dict[int, int] | None:
    """The isomorphism G1' -> G2' that `beta` forces on commutators, or None.

    A commutator depends only on the central cosets of its entries, so
    beta forces [x, y] -> [x', y'] for coset representatives, and two
    forced values for one commutator rule beta out. The forced values
    generate G1', so :func:`_extend_generator_images` reaches exactly G1'.
    When it succeeds it is injective and agrees on every edge x -> x s of a
    generator s, so it is a homomorphism on G1'; it is then an isomorphism
    onto G2' iff its image is G2'.
    """
    forced: dict[int, int] = {}
    for i in range(reps1.size):
        for j in range(reps1.size):
            s = g1.commutator(int(reps1[i]), int(reps1[j]))
            t = g2.commutator(int(reps2[beta[i]]), int(reps2[beta[j]]))
            if forced.setdefault(s, t) != t:
                return None
    mapping = _extend_generator_images(g1, g2, list(forced), list(forced.values()))
    if mapping is None:
        return None
    reached = np.flatnonzero(mapping >= 0)
    if set(mapping[reached].tolist()) != d2.members:
        return None
    return dict(zip(reached.tolist(), mapping[reached].tolist()))


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, sorted by order and then by members.

    Breadth-first search over conjugacy classes of subgroups, as in the
    cyclic-extension lattice of Neubüser (Numer. Math. 2, 1960) and the
    lattice by classes of Hulpke (J. Symbolic Comput. 27, 1999). `seen`
    holds whole classes, and the frontier one representative H per class
    with its normalizer N = N_G(H), read off the conjugates of H by every
    element. For each g outside H not yet covered, <H, g> is closed by
    :func:`_closure`, and the N-conjugates of the double coset HgH are
    marked covered: for h, h' in H and n in N,
    <H, n hgh' n^-1> = n<H, g>n^-1 is in the class of <H, g>. A subgroup
    not in `seen` starts a new class: all its conjugates join `seen` and
    it joins the next frontier.

    Exhaustive, with no solvability assumed. The trivial group is found.
    Any other K is <H, g> for a maximal subgroup H of K and any g in K
    outside H. By induction on the order H was found, so H = xRx^-1 for a
    representative R that was extended, and x^-1Kx = <R, x^-1gx>. Either
    x^-1gx was closed, or it is n ryr' n^-1 for some y that was closed, r,
    r' in R and n in N_G(R), and then <R, x^-1gx> = n<R, y>n^-1. Both ways
    a conjugate of K was closed, so K's class is in `seen`.

    Cost per class: one |G| x |H| conjugation for N and one transversal of
    G/N for the conjugates, then for each g closed an |N| x |G| covering
    step and one `_closure`. D96 takes 200 closures for its 134 subgroups
    in 28 classes.
    """
    t = group.table
    everything = np.arange(group.order)
    seen: set[frozenset[int]] = set()

    def add_class(members: frozenset[int]) -> np.ndarray:
        """Put every conjugate of `members` in `seen`; return the normalizer."""
        sub = np.fromiter(members, dtype=np.int64, count=len(members))
        inside = np.zeros(group.order, dtype=bool)
        inside[sub] = True
        conj = _conjugates(group, sub, everything)
        norm = everything[inside[conj].all(axis=1)]
        # x H x^-1 depends only on the left coset xN; keep one x per coset.
        one_per_coset = np.unique(t[:, norm].min(axis=1), return_index=True)[1]
        seen.update(frozenset(row) for row in conj[one_per_coset].tolist())
        return norm

    trivial = frozenset({group.identity})
    frontier = [(trivial, add_class(trivial))]
    while frontier:
        nxt = []
        for members, norm in frontier:
            sub = np.fromiter(members, dtype=np.int64, count=len(members))
            covered = np.zeros(group.order, dtype=bool)
            covered[sub] = True
            for g in range(group.order):
                if covered[g]:
                    continue
                double_coset = np.unique(t[t[sub, g][:, None], sub])
                covered[_conjugates(group, double_coset, norm)] = True
                bigger = _closure(t, members, (g,))
                if bigger not in seen:
                    nxt.append((bigger, add_class(bigger)))
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
