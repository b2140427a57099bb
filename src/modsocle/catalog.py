"""Built-in group catalog and ingestion of external catalog directories.

The built-in catalog collects the constructible families at small orders
plus the named examples; larger censuses (such as the complete list of the
51 groups of order 32) must be supplied as a catalog directory of group
files, this package does not generate them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .constructors import (
    abelian,
    central_product,
    cyclic,
    cyclic_action,
    dihedral_group,
    direct_product,
    extraspecial_27_exp3,
    family,
    from_permutations,
    heisenberg,
    holomorph_cyclic,
    parse_group,
    quaternion8,
    semidirect,
    smallgroup_216_86,
)
from .errors import ParseError
from .groups import FiniteGroup, center, is_p_group


def klein_rotation_action(v4: FiniteGroup, c3: FiniteGroup) -> np.ndarray:
    """C3 cycling the three involutions of the Klein four group."""
    perm = np.array([0, 2, 3, 1], dtype=np.int64)
    return cyclic_action(v4, c3, perm)


def alternating4() -> FiniteGroup:
    v4 = abelian([2, 2])
    return semidirect(v4, cyclic(3), klein_rotation_action(v4, cyclic(3)), name="A4")


def symmetric4() -> FiniteGroup:
    return from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")


def dicyclic12() -> FiniteGroup:
    """C3 x| C4 with the order-4 generator acting by inversion."""
    c3 = cyclic(3)
    c4 = cyclic(4)
    return semidirect(c3, c4, cyclic_action(c3, c4, np.array([0, 2, 1])), name="Dic3")


def modular16() -> FiniteGroup:
    """C8 x| C2 with the involution acting as r -> r^5."""
    c8 = cyclic(8)
    c2 = cyclic(2)
    perm = np.array([(5 * i) % 8 for i in range(8)], dtype=np.int64)
    return semidirect(c8, c2, cyclic_action(c8, c2, perm), name="M16")


def wreath_3_3() -> FiniteGroup:
    """(C3 x C3 x C3) x| C3 with the cyclic coordinate shift; order 81, class 3."""
    base = abelian([3, 3, 3])
    c3 = cyclic(3)
    perm = np.empty(27, dtype=np.int64)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                perm[9 * a + 3 * b + c] = 9 * c + 3 * a + b
    return semidirect(base, c3, cyclic_action(base, c3, perm), name="C3wrC3")


def central_product_d8_c4() -> FiniteGroup:
    d8 = dihedral_group(8)
    c4 = cyclic(4)
    z = sorted(m for m in center(d8).members if m != d8.identity)[0]
    return central_product(d8, c4, {d8.identity: c4.identity, z: 2}, name="D8*C4")[0]


def central_product_d8_d8() -> FiniteGroup:
    d8 = dihedral_group(8)
    other = dihedral_group(8)
    z = sorted(m for m in center(d8).members if m != d8.identity)[0]
    return central_product(d8, other, {d8.identity: other.identity, z: z}, name="D8*D8")[0]


_ABELIAN_INVARIANTS = [
    [2], [3], [4], [5], [2, 2], [6], [8], [2, 4], [2, 2, 2], [9], [3, 3],
    [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2], [9, 3],
    [32], [2, 16], [4, 8], [2, 2, 8], [2, 4, 4], [2, 2, 2, 4], [2, 2, 2, 2, 2],
]


@lru_cache(maxsize=1)
def builtin_catalog() -> tuple[tuple[str, FiniteGroup], ...]:
    """All built-in groups, sorted by (order, name)."""
    groups: list[FiniteGroup] = [abelian([1])]
    groups.extend(abelian(inv) for inv in _ABELIAN_INVARIANTS)
    groups.extend(dihedral_group(n) for n in (6, 8, 12, 16, 32, 64))
    groups.append(quaternion8())
    groups.extend(family("semidihedral", n) for n in (16, 32, 64))
    groups.extend(family("quaternion", n) for n in (16, 32, 64))
    groups.append(modular16())
    groups.append(direct_product(dihedral_group(8), cyclic(2)))
    groups.append(direct_product(quaternion8(), cyclic(2)))
    groups.append(direct_product(dihedral_group(8), cyclic(3)))
    groups.append(central_product_d8_c4())
    groups.append(central_product_d8_d8())
    groups.append(extraspecial_27_exp3())
    groups.append(heisenberg(5))
    groups.append(wreath_3_3())
    groups.append(holomorph_cyclic(8))
    groups.append(alternating4())
    groups.append(symmetric4())
    groups.append(dicyclic12())
    groups.append(smallgroup_216_86())
    entries = sorted(((g.name, g) for g in groups), key=lambda e: (e[1].order, e[0]))
    return tuple(entries)


def builtin_two_groups(max_order: int | None = None) -> tuple[tuple[str, FiniteGroup], ...]:
    """The builtin 2-groups (the trivial group included), up to `max_order`."""
    return tuple((name, g) for name, g in builtin_catalog()
                 if is_p_group(g.order, 2) and (max_order is None or g.order <= max_order))


@dataclass(frozen=True)
class CatalogData:
    """An ingested catalog directory."""

    catalog_id: str
    tags: tuple[str, ...]
    entries: tuple[tuple[str, FiniteGroup], ...]


def load_catalog_dir(path: str | Path) -> CatalogData:
    """Read a directory of group files plus an optional catalog.json manifest.

    Group files are UTF-8 JSON in the cayley or perm schema; the manifest may
    carry {"id": ..., "tags": [...]}. Files are read in sorted name order.
    """
    root = Path(path)
    if not root.is_dir():
        raise ParseError(f"catalog directory {root} does not exist")
    catalog_id = root.name
    tags: tuple[str, ...] = ()
    manifest = root / "catalog.json"
    if manifest.exists():
        try:
            data = json.loads(manifest.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad catalog manifest {manifest}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError(f"catalog manifest {manifest} must be an object")
        catalog_id = str(data.get("id", catalog_id))
        tags = tuple(str(t) for t in data.get("tags", ()))
    entries = []
    for file in sorted(root.glob("*.json")):
        if file.name == "catalog.json":
            continue
        try:
            doc = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"bad group file {file}: {exc}") from exc
        group = parse_group(doc)
        entries.append((group.name, group))
    entries.sort(key=lambda e: (e[1].order, e[0]))
    return CatalogData(catalog_id=catalog_id, tags=tags, entries=tuple(entries))
