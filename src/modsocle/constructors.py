"""Constructors for the concrete groups exercised by the verifier and CLI.

Every constructor returns a table validated by :func:`modsocle.groups.make_group`.
"""

from __future__ import annotations

import json
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
    center,
    derived_subgroup,
    generate_subgroup,
    make_group,
    quotient,
)

MAX_PERMUTATION_CLOSURE = 4096


def _table_from_mul(elements: Sequence, mul) -> np.ndarray:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    table = np.empty((n, n), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[mul(a, b)]
    return table


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return make_group(table, name or f"C{n}")


def abelian(invariants: Sequence[int], name: str | None = None) -> FiniteGroup:
    """Direct product of cyclic groups with the given orders."""
    invs = [int(v) for v in invariants if int(v) > 1]
    if not invs:
        return make_group(np.zeros((1, 1), dtype=np.int64), name or "C1")
    elements = [()]
    for m in invs:
        elements = [e + (r,) for e in elements for r in range(m)]

    def mul(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, invs))

    label = name or "x".join(f"C{m}" for m in invs)
    return make_group(_table_from_mul(elements, mul), label)


def _two_generator_presentation(m: int, twist: int, square: int, name: str) -> FiniteGroup:
    """Group <r, s : r^m = 1, s^2 = r^square, s r s^-1 = r^twist> on pairs (i, e)."""
    elements = [(i, e) for i in range(m) for e in range(2)]

    def mul(a, b):
        i, e = a
        j, f = b
        jj = j if e == 0 else (twist * j) % m
        if e and f:
            return ((i + jj + square) % m, 0)
        return ((i + jj) % m, (e + f) % 2)

    return make_group(_table_from_mul(elements, mul), name)


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
    if kind in ("quaternion", "generalized_quaternion"):
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
    elements = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mul(x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)

    return make_group(_table_from_mul(elements, mul), name or f"Heis{p}")


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
            raise InvalidActionError(f"action of h={h} is not an automorphism at {tuple(bad)}")
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
    nn, nh = n_group.order, h_group.order
    tn, th = n_group.table, h_group.table
    order = nn * nh
    table = np.empty((order, order), dtype=np.int64)
    for n1 in range(nn):
        for h1 in range(nh):
            row = table[n1 * nh + h1]
            acted = act[h1]
            for n2 in range(nn):
                base = tn[n1, acted[n2]] * nh
                hrow = th[h1]
                for h2 in range(nh):
                    row[n2 * nh + h2] = base + hrow[h2]
    label = name or f"({n_group.name})x|({h_group.name})"
    return make_group(table, label)


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
    units = [u for u in range(1, n) if np.gcd(u, n) == 1]
    elements = [(a, u) for a in range(n) for u in units]

    def mul(x, y):
        a, u = x
        b, v = y
        return ((a + u * b) % n, (u * v) % n)

    return make_group(_table_from_mul(elements, mul), f"Hol(C{n})")


def _hom_from_generator_images(group: FiniteGroup, gens: Sequence[int],
                               images: Sequence[int]) -> np.ndarray | None:
    """Extend gen -> image to a map on the whole group via BFS words.

    Returns None when the assignment is inconsistent; the returned map is
    total whenever `gens` generates the group, but is not yet verified to be
    a homomorphism on all pairs.
    """
    n = group.order
    mapping = np.full(n, -1, dtype=np.int64)
    mapping[group.identity] = group.identity
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gens, images):
                y = group.mul(x, g)
                fy = group.mul(int(mapping[x]), img)
                if mapping[y] < 0:
                    mapping[y] = fy
                    nxt.append(y)
                elif mapping[y] != fy:
                    return None
        frontier = nxt
    if (mapping < 0).any():
        return None
    return mapping


def _is_automorphism(group: FiniteGroup, mapping: np.ndarray) -> bool:
    if len(set(int(v) for v in mapping)) != group.order:
        return False
    return bool(np.array_equal(mapping[group.table],
                               group.table[np.ix_(mapping, mapping)]))


def _two_generator_pair(group: FiniteGroup) -> tuple[int, int]:
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


def smallgroup_216_86() -> FiniteGroup:
    """The group of order 216 with normal extraspecial Sylow 3-subgroup and a
    C8 acting transitively on the eight nontrivial central quotient cosets
    while inverting the center.

    The automorphism realizing the action is found by exhaustive search over
    generator images in the extraspecial group; the structural facts are
    asserted on the result.
    """
    e27 = extraspecial_27_exp3()
    zc = center(e27)
    z_members = zc.sorted_members
    x0, y0 = _two_generator_pair(e27)
    qz, projz = quotient(e27, zc)
    alpha = None
    for x1 in range(e27.order):
        if x1 in zc.members:
            continue
        for y1 in range(e27.order):
            mapping = _hom_from_generator_images(e27, (x0, y0), (x1, y1))
            if mapping is None or not _is_automorphism(e27, mapping):
                continue
            if any(mapping[z] != e27.inv(z) for z in z_members if z != e27.identity):
                continue
            if _perm_order(mapping) != 8:
                continue
            induced = np.empty(qz.order, dtype=np.int64)
            reps = {}
            for g in range(e27.order):
                reps.setdefault(int(projz[g]), g)
            for c, rep in reps.items():
                induced[c] = projz[mapping[rep]]
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
    c8 = cyclic(8)
    action = cyclic_action(e27, c8, alpha)
    g = semidirect(e27, c8, action, name="SmallGroup(216,86)")
    _assert_216_86_facts(g, e27)
    return g


def _assert_216_86_facts(g: FiniteGroup, e27: FiniteGroup) -> None:
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
    elements = sorted(seen)

    def mul(a, b):
        return tuple(a[x] for x in b)

    return make_group(_table_from_mul(elements, mul), name)


def int_matrix(rows, what: str) -> np.ndarray:
    """`rows`, a list of lists of integers, as a 2-D int64 array.

    Input arrives as JSON, so bools, floats and strings are refused rather
    than coerced, and so are ragged rows: each raises `ParseError`.
    """
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)
            and all(isinstance(x, int) and not isinstance(x, bool) for r in rows for x in r)):
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
        arr = int_matrix(document.get("table"), "cayley table")
        if order is not None and (arr.ndim != 2 or arr.shape != (order, order)):
            raise ParseError(f"table shape {arr.shape} does not match order {order}")
        return make_group(arr, name)
    if fmt == "perm":
        gens = document.get("generators")
        degree = document.get("degree")
        if not gens:
            raise ParseError("perm document needs a nonempty 'generators' list")
        int_matrix(gens, "perm generators")
        if degree is not None and any(len(p) != degree for p in gens):
            raise ParseError("generator length does not match degree")
        return from_permutations(gens, name)
    raise ParseError(f"unknown group format {fmt!r}")

