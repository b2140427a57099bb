"""Dimensions and verdicts that follow from closed forms, not from the program.

For an abelian G = P x H, with P the Sylow p-subgroup, F_pG is commutative
and J(F_pG) = I(P) . F_pG, the kernel of F_pG -> F_pH. So dim J(Z) =
|G| - |H|, soc(Z) and the Reynolds ideal both have dimension |H|, and both
are ideals. For a p'-group, F_pG is semisimple: J(Z) = 0, soc(Z) = Z, and Z
is an ideal of F_pG iff G is abelian; the abelian p'-groups are among the
abelian cases. Phi(G) = 1 for the hard inputs in `tests/data/hard_groups`.
Each check reads `analyze`'s document.
"""

from pathlib import Path

import numpy as np
import pytest

from modsocle.catalog import load_catalog_dir
from modsocle.cli import analysis_document, group_from_spec

ABELIAN_SPECS = (
    "cyclic:1", "cyclic:2", "cyclic:7", "cyclic:12", "cyclic:30", "cyclic:64",
    "cyclic:81", "cyclic:100", "cyclic:125", "cyclic:360", "cyclic:500",
    "abelian:2x2", "abelian:2x4x3", "abelian:3x3x5", "abelian:4x5x5",
    "abelian:2x6x10", "abelian:3x9x2", "abelian:2x2x2x2x2x2x2x2",
)

# non-abelian p'-groups, with every prime of 2, 3, 5 not dividing the order
NONABELIAN_PPRIME = (
    ("dihedral:6", 5), ("dihedral:10", 3), ("dihedral:14", 3), ("dihedral:14", 5),
    ("quaternion:16", 3), ("quaternion:16", 5), ("holomorph:9", 5),
    ("extraspecial:27", 2), ("extraspecial:27", 5),
)


def pprime_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_abelian_dimensions_are_the_closed_forms(spec, p):
    g = group_from_spec(spec)
    h = pprime_part(g.order, p)
    doc = analysis_document(g, p)
    dims = doc["dimensions"]
    assert dims["center"] == g.order
    assert dims["jacobson_center"] == g.order - h
    assert dims["socle_center"] == dims["reynolds"] == h
    assert dims["derived_coset_space"] == g.order
    assert doc["verdicts"]["socle_ideal"] is True
    assert doc["verdicts"]["reynolds_ideal"] is True


@pytest.mark.parametrize("spec, p", NONABELIAN_PPRIME)
def test_semisimple_socle_is_the_center_and_not_an_ideal(spec, p):
    g = group_from_spec(spec)
    assert g.order % p and not g.is_abelian
    # Burnside: the class count is the number of commuting pairs over |G|
    classes = int(np.count_nonzero(g.table == g.table.T)) // g.order
    doc = analysis_document(g, p)
    dims = doc["dimensions"]
    assert dims["jacobson_center"] == 0
    assert dims["socle_center"] == dims["reynolds"] == dims["center"] == classes
    assert doc["verdicts"]["socle_ideal"] is False
    assert doc["verdicts"]["reynolds_ideal"] is False


def test_hard_inputs_have_trivial_frattini_subgroup():
    """Phi(G) is a nilpotent normal subgroup, so it is 1 in the simple
    PSL(2,7), A6 and PSL(2,11) and in S6, whose other normal subgroup is A6.
    A minimal normal N inside Phi(G) has no complement H, since NH = G would
    put H in no maximal subgroup. In Dih(C3^3), Dih(C3^4) and C2^4 x S3 the
    minimal normal subgroups are the subgroups of order 3 of C3^n, or the C3
    of S3 and the subgroups of order 2 of C2^4, and each has a complement."""
    entries = load_catalog_dir(Path(__file__).parent / "data" / "hard_groups").entries
    assert len(entries) == 7
    for name, g in entries:
        assert analysis_document(g, 3)["orders"]["frattini"] == 1, name
