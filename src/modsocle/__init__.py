"""Modular group algebra centers at desk scale.

Computes, for a finite group G and a prime p, the group algebra F_pG, the
Jacobson radical and socle of its center, and the Reynolds ideal, and checks
by two independent routes when the latter two are two-sided ideals of F_pG.
"""

__version__ = "0.1.0"

from .algebra import GroupAlgebra
from .catalog import builtin_catalog, builtin_two_groups, load_catalog_dir
from .constructors import (
    abelian,
    central_product,
    cyclic,
    dihedral_group,
    direct_product,
    extraspecial_27_exp3,
    family,
    from_permutations,
    heisenberg,
    holomorph_cyclic,
    parse_group,
    semidirect,
    smallgroup_216_86,
)
from .fplin import FpSubspace, common_nullspace, nullspace, rank, rref
from .groups import (
    FiniteGroup,
    Subgroup,
    are_isoclinic,
    center,
    centralizer,
    derived_subgroup,
    frattini_subgroup,
    generate_subgroup,
    hall_complement,
    is_central_product,
    is_metabelian,
    make_group,
    nilpotency_class,
    normalizer,
    p_core,
    p_residual,
    pprime_core,
    pprime_sections,
    quotient,
    sylow_subgroup,
    two_element_class_subgroup,
)
from .verify import (
    CensusSummary,
    VerdictReport,
    run_census,
    verify_central_decomposition,
    verify_isoclinism_pair,
    verify_pgroup_classification,
    verify_quotient_and_product_closure,
    verify_reynolds_criterion,
    verify_sufficient_conditions,
)
