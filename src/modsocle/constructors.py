"""Constructors for the concrete groups exercised by the verifier and CLI.

Every constructor returns a table validated by :func:`modsocle.groups.make_group`.
Tables are built by whole-array indexing: a product rule is applied once to
the coordinate arrays of all pairs of elements, never one cell at a time.
"""

from __future__ import annotations

import json
from math import prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidActionError,
    NotCentralError,
    OrderTooSmallError,
    ParseError,
    SearchFailedError,
)
from .groups import (
    FiniteGroup,
    _extend_generator_images,
    center,
    derived_subgroup,
    generate_subgroup,
    make_group,
    quotient,
)

MAX_PERMUTATION_CLOSURE = 4096


def _product_table(radices: Sequence[int], mul) -> np.ndarray:
    """Cayley table of a group on coordinate tuples, in lexicographic order.

    Element k has coordinates `np.unravel_index(k, radices)`. `mul(x, y)`
    takes the coordinates of two elements as tuples of numpy arrays and
    returns those of their product, each reduced into range; it is called
    once, on arrays that broadcast over every pair of elements.
    """
    coords = np.unravel_index(np.arange(prod(radices)), radices)
    left = tuple(c[:, None] for c in coords)
    right = tuple(c[None, :] for c in coords)
    return np.ravel_multi_index(mul(left, right), radices)


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return make_group(table, name or f"C{n}")


def abelian(invariants: Sequence[int], name: str | None = None) -> FiniteGroup:
    """Direct product of cyclic groups with the given orders (each at least 1)."""
    invs = [int(v) for v in invariants]
    if any(m < 1 for m in invs):
        raise ValueError(f"abelian invariants must be positive, got {invs}")
    invs = [m for m in invs if m > 1] or [1]

    def mul(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, invs))

    return make_group(_product_table(invs, mul), name or "x".join(f"C{m}" for m in invs))


def _two_generator_presentation(m: int, twist: int, square: int, name: str) -> FiniteGroup:
    """Group <r, s : r^m = 1, s^2 = r^square, s r s^-1 = r^twist> on pairs (i, e)."""
    def mul(x, y):
        (i, e), (j, f) = x, y
        jj = np.where(e == 0, j, twist * j)
        return (i + jj + square * (e & f)) % m, (e + f) % 2

    return make_group(_product_table((m, 2), mul), name)


def dihedral_group(order: int, name: str | None = None) -> FiniteGroup:
    """Dihedral group of the given (even) order; order 2 gives C2."""
    if order < 2 or order % 2:
        raise ValueError(f"dihedral order must be even and >= 2, got {order}")
    m = order // 2
    return _two_generator_presentation(m, -1 % m if m > 1 else 0, 0, name or f"D{order}")


def family(kind: str, order: int) -> FiniteGroup:
    """The 2-power families: dihedral, semidihedral, generalized quaternion."""
    kind = kind.lower()
    n = order.bit_length() - 1
    if 2 ** n != order:
        raise OrderTooSmallError(f"{kind} family needs a 2-power order, got {order}")
    if kind == "dihedral":
        if n < 3:
            raise OrderTooSmallError(f"dihedral family starts at order 8, got {order}")
        return dihedral_group(order)
    m = order // 2
    if kind == "semidihedral":
        if n < 4:
            raise OrderTooSmallError(f"semidihedral family starts at order 16, got {order}")
        return _two_generator_presentation(m, m // 2 - 1, 0, f"SD{order}")
    if kind == "quaternion":
        if n < 4:
            raise OrderTooSmallError(f"generalized quaternion family starts at order 16, got {order}")
        return _two_generator_presentation(m, -1 % m, m // 2, f"Q{order}")
    raise ValueError(f"unknown family kind {kind!r}")


def quaternion8(name: str = "Q8") -> FiniteGroup:
    """The quaternion group of order 8 (s^2 = r^2, s r s^-1 = r^-1)."""
    return _two_generator_presentation(4, 3, 2, name)


def heisenberg(p: int, name: str | None = None) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over F_p; extraspecial of order p^3.

    For odd p this has exponent p.
    """
    if p < 1:
        raise ValueError(f"heisenberg needs p >= 1, got {p}")

    def mul(x, y):
        (a, b, c), (d, e, f) = x, y
        return (a + d) % p, (b + e) % p, (c + f + a * e) % p

    return make_group(_product_table((p, p, p), mul), name or f"Heis{p}")


def extraspecial_27_exp3() -> FiniteGroup:
    return heisenberg(3, name="E27")


def validate_action(n_group: FiniteGroup, h_group: FiniteGroup, action) -> np.ndarray:
    """Check that `action` maps H into Aut(N) homomorphically.

    `action[h]` must be a permutation of N's indices for every element h of H.
    """
    act = np.array(action, dtype=np.int64)
    if act.shape != (h_group.order, n_group.order):
        raise InvalidActionError(
            f"action table must be {h_group.order} x {n_group.order}, got {act.shape}")
    ref = np.arange(n_group.order)
    t = n_group.table
    for h in range(h_group.order):
        perm = act[h]
        if not np.array_equal(np.sort(perm), ref):
            raise InvalidActionError(f"action of h={h} is not a permutation")
        if not np.array_equal(perm[t], t[np.ix_(perm, perm)]):
            bad = np.argwhere(perm[t] != t[np.ix_(perm, perm)])[0]
            raise InvalidActionError(
                f"action of h={h} is not an automorphism at {tuple(int(x) for x in bad)}")
    for h1 in range(h_group.order):
        for h2 in range(h_group.order):
            if not np.array_equal(act[h_group.mul(h1, h2)], act[h1][act[h2]]):
                raise InvalidActionError(f"action is not a homomorphism at ({h1}, {h2})")
    return act


def semidirect(n_group: FiniteGroup, h_group: FiniteGroup, action,
               name: str | None = None) -> FiniteGroup:
    """Semidirect product N x| H for a validated action H -> Aut(N).

    Pairs (n, h) are encoded as n * |H| + h and multiply as
    (n1, h1)(n2, h2) = (n1 * action[h1](n2), h1 h2).
    """
    act = validate_action(n_group, h_group, action)
    tn, th = n_group.table, h_group.table

    def mul(x, y):
        (n1, h1), (n2, h2) = x, y
        return tn[n1, act[h1, n2]], th[h1, h2]

    table = _product_table((n_group.order, h_group.order), mul)
    return make_group(table, name or f"({n_group.name})x|({h_group.name})")


def trivial_action(n_group: FiniteGroup, h_group: FiniteGroup) -> np.ndarray:
    return np.tile(np.arange(n_group.order), (h_group.order, 1))


def cyclic_action(n_group: FiniteGroup, h_group: FiniteGroup, generator_perm) -> np.ndarray:
    """Action of a cyclic H given by the permutation of N for one generator of H.

    H must be cyclic with generator index 1 (as produced by :func:`cyclic`).
    """
    perm = np.array(generator_perm, dtype=np.int64)
    act = np.empty((h_group.order, n_group.order), dtype=np.int64)
    act[0] = np.arange(n_group.order)
    for k in range(1, h_group.order):
        act[k] = perm[act[k - 1]]
    return act


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    return semidirect(g1, g2, trivial_action(g1, g2), name or f"{g1.name}x{g2.name}")


def central_product(g1: FiniteGroup, g2: FiniteGroup,
                    pairs: Mapping[int, int] | Iterable[tuple[int, int]],
                    name: str | None = None) -> tuple[FiniteGroup, np.ndarray, np.ndarray]:
    """Central product (G1 x G2) / {(z, iso(z)^-1)} over an isomorphism of
    central subgroups given by `pairs`.

    Returns the quotient group together with the two embedding maps
    G1 -> G and G2 -> G.
    """
    iso = dict(pairs.items() if isinstance(pairs, Mapping) else pairs)
    z1 = sorted(iso)
    z2 = sorted(iso.values())
    if len(set(iso.values())) != len(iso):
        raise NotCentralError("identification is not injective")
    c1 = center(g1)
    c2 = center(g2)
    if not set(z1) <= c1.members or not set(z2) <= c2.members:
        raise NotCentralError("identified subgroups must be central")
    sub1 = generate_subgroup(g1, z1)
    sub2 = generate_subgroup(g2, z2)
    if sub1.members != set(z1) or sub2.members != set(z2):
        raise NotCentralError("identified subsets must be subgroups")
    for a in z1:
        for b in z1:
            if iso[g1.mul(a, b)] != g2.mul(iso[a], iso[b]):
                raise NotCentralError(f"identification is not an isomorphism at ({a}, {b})")
    prod = direct_product(g1, g2)
    n2 = g2.order
    diag = [z * n2 + g2.inv(iso[z]) for z in z1]
    kernel = prod.subgroup(diag)
    q, proj = quotient(prod, kernel)
    label = name or f"{g1.name}*{g2.name}"
    q = make_group(q.table, label)
    embed1 = proj[np.arange(g1.order) * n2 + g2.identity]
    embed2 = proj[g1.identity * n2 + np.arange(g2.order)]
    return q, embed1, embed2


def holomorph_cyclic(n: int) -> FiniteGroup:
    """Semidirect product of C_n by its full automorphism group (units mod n)."""
    if n < 2:
        raise ValueError("holomorph_cyclic needs n >= 2")
    units = np.array([u for u in range(1, n) if np.gcd(u, n) == 1])
    unit_index = np.zeros(n, dtype=np.int64)
    unit_index[units] = np.arange(units.size)

    def mul(x, y):
        (a, i), (b, j) = x, y
        u, v = units[i], units[j]
        return (a + u * b) % n, unit_index[u * v % n]

    return make_group(_product_table((n, units.size), mul), f"Hol(C{n})")


def smallgroup_216_86() -> FiniteGroup:
    """E27 x| C8, the group of order 216 with normal extraspecial Sylow
    3-subgroup and a C8 acting transitively on the eight nontrivial central
    quotient cosets while inverting the center.

    E27 = Heis3 indexes (a, b, c) as 9a + 3b + c, and the generator of C8
    acts by alpha: b -> a, a -> ba (indices 3 -> 9, 9 -> 12). On
    E27/Z = F_3^2 alpha is the matrix [[1, 1], [1, 0]], of order 8 and
    determinant -1, so alpha acts on Z = [E27, E27] by inversion.

    `_assert_216_86_facts` covers every property of alpha the construction
    relies on: the class sizes [1, 2, 24] inside G' say that the center is
    inverted (the class of size 2) and that C8 is transitive on the eight
    nontrivial cosets (the class of size 24), so alpha has order exactly 8;
    `validate_action` checks that alpha is an automorphism and that the C8
    action is a homomorphism.
    """
    e27 = extraspecial_27_exp3()
    alpha = _extend_generator_images(e27, e27, (3, 9), (9, 12))
    c8 = cyclic(8)
    g = semidirect(e27, c8, cyclic_action(e27, c8, alpha), name="SmallGroup(216,86)")
    _assert_216_86_facts(g)
    return g


def _assert_216_86_facts(g: FiniteGroup) -> None:
    if g.order != 216:
        raise SearchFailedError(f"construction has order {g.order}")
    derived = derived_subgroup(g)
    if derived.order != 27:
        raise SearchFailedError(f"derived subgroup has order {derived.order}")
    dgroup, dmembers = derived.as_group()
    second = derived_subgroup(dgroup)
    zd = center(dgroup)
    if second.order != 3 or second.members != zd.members:
        raise SearchFailedError("derived subgroup is not extraspecial of order 27")
    cls = g.conjugacy_classes
    inside = sorted(set(int(cls.class_of[m]) for m in dmembers))
    sizes = sorted(len(cls.classes[i]) for i in inside)
    if sizes != [1, 2, 24]:
        raise SearchFailedError(f"derived subgroup splits into class sizes {sizes}")


def from_permutations(generators: Sequence[Sequence[int]], name: str = "G",
                      max_order: int = MAX_PERMUTATION_CLOSURE) -> FiniteGroup:
    """Group generated by permutations (image arrays), as its own Cayley table.

    The closure is enumerated breadth-first and elements are indexed in
    sorted tuple order, so the table is deterministic.
    """
    if not generators:
        raise ParseError("at least one permutation generator is required")
    degree = len(generators[0])
    if degree < 1:
        raise ParseError("permutation generators must have degree at least 1")
    gens = []
    for perm in generators:
        arr = tuple(int(v) for v in perm)
        if len(arr) != degree or sorted(arr) != list(range(degree)):
            raise ParseError(f"generator {perm!r} is not a permutation of 0..{degree - 1}")
        gens.append(arr)
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for sigma in frontier:
            for tau in gens:
                composed = tuple(sigma[t] for t in tau)
                if composed not in seen:
                    if len(seen) >= max_order:
                        raise ParseError(f"permutation closure exceeds {max_order} elements")
                    seen.add(composed)
                    nxt.append(composed)
        frontier = nxt
    perms = np.array(sorted(seen), dtype=np.int64)
    # Left multiplication by perms[i] permutes the group, so sorting row i's
    # products lists the elements in index order.
    table = np.empty((len(perms), len(perms)), dtype=np.int64)
    for i, perm in enumerate(perms):
        table[i, np.lexsort(perm[perms].T[::-1])] = np.arange(len(perms))
    return make_group(table, name)


def _is_json_int(x) -> bool:
    """Is `x` a JSON integer? A bool is not one, though Python says it is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def int_matrix(rows, what: str) -> np.ndarray:
    """`rows`, a list of lists of integers, as a 2-D int64 array.

    Input arrives as JSON, so bools, floats and strings are refused rather
    than coerced, and so are ragged rows: each raises `ParseError`.
    """
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(_is_json_int(x) for r in rows for x in r)):
        raise ParseError(f"{what} must be a list of lists of integers")
    try:
        return np.array(rows, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{what} is not a rectangular int64 matrix: {exc}") from exc


def parse_group(document) -> FiniteGroup:
    """Build a validated group from a Cayley-table or permutation document.

    Accepts a dict (already-parsed JSON) or a JSON string; see the README
    for the file schema.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError(f"group document must be an object, got {type(document).__name__}")
    fmt = document.get("format")
    name = document.get("name", "G")
    if not isinstance(name, str):
        raise ParseError("group name must be a string")
    if fmt == "cayley":
        order = document.get("order")
        if order is not None and not _is_json_int(order):
            raise ParseError(f"order must be a JSON integer, got {order!r}")
        arr = int_matrix(document.get("table"), "cayley table")
        if order is not None and (arr.ndim != 2 or arr.shape != (order, order)):
            raise ParseError(f"table shape {arr.shape} does not match order {order}")
        return make_group(arr, name)
    if fmt == "perm":
        gens = document.get("generators")
        degree = document.get("degree")
        if not gens:
            raise ParseError("perm document needs a nonempty 'generators' list")
        if degree is not None and not (_is_json_int(degree) and degree >= 1):
            raise ParseError(f"degree must be a JSON integer of at least 1, got {degree!r}")
        int_matrix(gens, "perm generators")
        if degree is not None and any(len(p) != degree for p in gens):
            raise ParseError("generator length does not match degree")
        return from_permutations(gens, name)
    raise ParseError(f"unknown group format {fmt!r}")

