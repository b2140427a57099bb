"""Dimensions and verdicts that follow from closed forms, not from the program.

For an abelian G = P x H, with P the Sylow p-subgroup, F_pG is commutative
and J(F_pG) = I(P) . F_pG, the kernel of F_pG -> F_pH. So dim J(Z) =
|G| - |H|, soc(Z) and the Reynolds ideal both have dimension |H|, and both
are ideals. For a p'-group, F_pG is semisimple: J(Z) = 0, soc(Z) = Z, and Z
is an ideal of F_pG iff G is abelian; the abelian p'-groups are among the
abelian cases. Each check reads `analyze`'s document.
"""

import numpy as np
import pytest

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
