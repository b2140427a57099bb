"""The modular group algebra F_pG, its center, and the ideals studied here.

The center ZF_pG is handled in class coordinates (one coordinate per
conjugacy class, basis the class sums); full F_pG coordinates are used only
where two-sidedness matters. Dimensions are always reported over the prime
field: whether the socle of the center or the Reynolds ideal is an ideal of
F_pG does not depend on the field of characteristic p chosen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable, Optional

import numpy as np

from . import fplin
from .errors import (
    DimensionMismatchError,
    DualRouteDisagreementError,
    HypothesisViolationError,
)
from .fplin import FpSubspace
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    derived_subgroup,
    generate_subgroup,
    hall_complement,
    is_p_group,
    nilpotency_class,
    p_decomposition,
    pprime_core,
    pprime_sections,
    quotient,
    sylow_subgroup,
)


class AlgebraElement:
    """Element of F_pG as a coefficient vector indexed by group elements."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "GroupAlgebra", coeffs):
        self.algebra = algebra
        c = np.array(coeffs, dtype=np.int64) % algebra.p
        if c.shape != (algebra.group.order,):
            raise DimensionMismatchError(
                f"need {algebra.group.order} coefficients, got shape {c.shape}")
        c.flags.writeable = False
        self.coeffs = c

    def _check(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra and (
                self.algebra.group is not other.algebra.group or self.algebra.p != other.algebra.p):
            raise DimensionMismatchError("elements live in different group algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs - other.coeffs)

    def __rmul__(self, scalar: int):
        return AlgebraElement(self.algebra, self.coeffs * (int(scalar) % self.algebra.p))

    def __mul__(self, other):
        if isinstance(other, Integral):
            return AlgebraElement(self.algebra, self.coeffs * (int(other) % self.algebra.p))
        self._check(other)
        alg = self.algebra
        table = alg.group.table
        out = np.zeros(alg.group.order, dtype=np.int64)
        for g in np.nonzero(self.coeffs)[0]:
            np.add.at(out, table[g], int(self.coeffs[g]) * other.coeffs)
        return AlgebraElement(alg, out)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.algebra.group), self.algebra.p, self.coeffs.tobytes()))

    def __repr__(self):
        support = int(np.count_nonzero(self.coeffs))
        return f"AlgebraElement(p={self.algebra.p}, support={support})"

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def is_central(self) -> bool:
        cls = self.algebra.group.conjugacy_classes
        reps = np.array(cls.representatives, dtype=np.int64)
        return bool(np.array_equal(self.coeffs, self.coeffs[reps[cls.class_of]]))


@dataclass(frozen=True, eq=False)
class PHShape:
    """Decomposition G = P x| H with normal Sylow p-subgroup and abelian H."""

    sylow: Subgroup
    complement: Subgroup


@dataclass(frozen=True, eq=False)
class SocIdealVerdict:
    """Both routes of the socle ideal test (they are required to agree)."""

    prime: int
    is_ideal: bool
    contained_in_derived_sum: bool
    socle_fg: FpSubspace
    derived_sum_space: FpSubspace
    socle_dim: int
    jacobson_dim: int
    center_dim: int


@dataclass(frozen=True, eq=False)
class ClassSelection:
    """Conjugacy classes whose radical basis elements survive a quotient map.

    For each selected class C the image of its basis element is k times the
    corresponding basis element downstairs, with k = |C| / |image class|
    coprime to p; membership is computed both from that criterion and from
    the projected element directly, and the two must agree.
    """

    n_sub: Subgroup
    selected: tuple[int, ...]
    multipliers: dict[int, int]
    elements: dict[int, np.ndarray]
    image_class: dict[int, int]
    image_elements: dict[int, np.ndarray]
    quotient_algebra: "GroupAlgebra"
    projection: np.ndarray


class GroupAlgebra:
    """F_pG for a finite group G and a prime p.

    The radical, socle and Reynolds ideal of the center and the socle and
    Reynolds verdicts are cached properties, so each is computed once per
    algebra. An algebra is not cached anywhere else: it lives as long as the
    call that made it.

    Products in F_pG and in the center sum at most |G| products of residues,
    so `p` must satisfy (p-1)^2 * |G| < 2^63 (`fplin.check_modulus`).
    """

    def __init__(self, group: FiniteGroup, p: int):
        self.group = group
        self.p = fplin.validate_prime(p)
        fplin.check_modulus(self.p, group.order)
        self._quotient_cache: dict[frozenset, tuple["GroupAlgebra", np.ndarray]] = {}

    def __repr__(self):
        return f"GroupAlgebra(F_{self.p}[{self.group.name}])"

    @property
    def dim(self) -> int:
        return self.group.order

    @property
    def classes(self):
        return self.group.conjugacy_classes

    @property
    def center_dim(self) -> int:
        return self.classes.count

    # -- elements ---------------------------------------------------------

    def element(self, coeffs) -> AlgebraElement:
        return AlgebraElement(self, coeffs)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, np.zeros(self.dim, dtype=np.int64))

    def one(self) -> AlgebraElement:
        return self.basis_element(self.group.identity)

    def basis_element(self, g: int) -> AlgebraElement:
        c = np.zeros(self.dim, dtype=np.int64)
        c[g] = 1
        return AlgebraElement(self, c)

    def subset_sum(self, members: Iterable[int]) -> AlgebraElement:
        c = np.zeros(self.dim, dtype=np.int64)
        for m in members:
            c[int(m)] += 1
        return AlgebraElement(self, c)

    # -- class coordinates --------------------------------------------------

    @cached_property
    def class_structure_constants(self) -> np.ndarray:
        """a[i, j, l] with (class_i)+ (class_j)+ = sum_l a[i, j, l] (class_l)+, mod p."""
        cls = self.classes
        k = cls.count
        n = self.dim
        sizes = np.array(cls.sizes(), dtype=np.int64)
        table = self.group.table
        class_of = cls.class_of
        a = np.zeros((k, k, k), dtype=np.int64)
        for i, members in enumerate(cls.classes):
            prod_class = class_of[table[np.array(members, dtype=np.int64)]]
            for j, others in enumerate(cls.classes):
                counts = np.bincount(prod_class[:, list(others)].ravel(), minlength=k)
                a[i, j] = counts // sizes
        return a % self.p

    def central_mult_matrix(self, vec) -> np.ndarray:
        """Matrix of multiplication by the central element with class coords `vec`."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        return np.einsum("i,ijl->lj", v, self.class_structure_constants) % self.p

    def expand_central(self, vec) -> np.ndarray:
        """Class coordinates -> F_pG coefficient vector."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        return v[self.classes.class_of]

    # -- radical, socle, Reynolds ideal ------------------------------------

    @cached_property
    def _frobenius_power_matrix(self) -> np.ndarray:
        """Matrix of x -> x^(p^m) on the center, p^m >= its dimension.

        On a commutative algebra over the prime field the p-th power map is
        linear, so its iterate is a matrix power; the kernel is exactly the
        nilradical, which for the center equals the Jacobson radical.

        Column i is e_i^p for the class sum e_i, by left-to-right
        square-and-multiply over the bits of p after the leading one. The
        first bit squares e_i, which is row a[i, i] of the structure
        constants and costs no product; each later bit squares v through
        `central_mult_matrix(v)`, k^3 operations for k classes; each 1 bit
        then multiplies by e_i, which is `a[i].T @ v`, k^2 operations. So
        p = 2 and p = 3 do no k^3 step, and a column costs O(k^3 log p).
        """
        k = self.center_dim
        p = self.p
        a = self.class_structure_constants
        bits = bin(p)[3:]
        frob = np.empty((k, k), dtype=np.int64)
        for i in range(k):
            v = a[i, i]
            for j, bit in enumerate(bits):
                if j:
                    v = self.central_mult_matrix(v) @ v % p
                if bit == "1":
                    v = a[i].T @ v % p
            frob[:, i] = v
        m = 0
        q = 1
        while q < k:
            q *= p
            m += 1
        power = np.eye(k, dtype=np.int64)
        for _ in range(m):
            power = power @ frob % p
        return power

    @cached_property
    def jacobson_center(self) -> FpSubspace:
        """J(ZF_pG) in class coordinates, as the kernel of the iterated
        p-th power map."""
        return fplin.nullspace(self._frobenius_power_matrix, self.p, cols=self.center_dim)

    @cached_property
    def ph_shape(self) -> Optional[PHShape]:
        """The decomposition G = P x| H (normal Sylow p, abelian complement),
        or None when G does not have that shape."""
        syl = sylow_subgroup(self.group, self.p)
        if not syl.is_normal:
            return None
        comp = hall_complement(self.group, self.p)
        arr = np.array(comp.sorted_members, dtype=np.int64)
        t = self.group.table
        if not np.array_equal(t[np.ix_(arr, arr)], t[np.ix_(arr, arr)].T):
            return None
        return PHShape(sylow=syl, complement=comp)

    def require_ph_shape(self) -> PHShape:
        shape = self.ph_shape
        if shape is None:
            raise HypothesisViolationError(
                f"{self.group.name} is not a semidirect product of a normal Sylow "
                f"{self.p}-subgroup by an abelian complement")
        return shape

    @cached_property
    def jacobson_center_basis(self) -> dict[int, np.ndarray]:
        """Radical basis elements b_C by class index, in class coordinates.

        Defined when G = P x| H: for a class C not inside the p'-core, b_C is
        the class sum when p divides |C|, otherwise the class sum minus |C|
        times the (central) p'-part of any member. The vectors are checked to
        be linearly independent.
        """
        self.require_ph_shape()
        core = pprime_core(self.group, self.p)
        cls = self.classes
        out: dict[int, np.ndarray] = {}
        for i, members in enumerate(cls.classes):
            if set(members) <= core.members:
                continue
            vec = np.zeros(cls.count, dtype=np.int64)
            vec[i] = 1
            if len(members) % self.p != 0:
                gpp = p_decomposition(self.group, members[0], self.p).pprime_part
                j = int(cls.class_of[gpp])
                if len(cls.classes[j]) != 1:
                    raise DualRouteDisagreementError(
                        "p'-part of a p'-length class is not central")
                vec[j] = (vec[j] - len(members)) % self.p
            out[i] = vec
        if out:
            got = fplin.rank(np.array(list(out.values())), self.p)
            if got != len(out):
                raise DualRouteDisagreementError("radical basis elements are dependent")
        return out

    @cached_property
    def socle_center(self) -> FpSubspace:
        """soc(ZF_pG) in class coordinates: the annihilator of the radical
        inside the center."""
        maps = [self.central_mult_matrix(row) for row in self.jacobson_center.basis]
        return fplin.common_nullspace(maps, self.p, self.center_dim)

    @cached_property
    def reynolds_center(self) -> FpSubspace:
        """Span of the p'-section sums, in class coordinates."""
        rows = []
        for section in pprime_sections(self.group, self.p):
            vec = np.zeros(self.center_dim, dtype=np.int64)
            vec[np.unique(self.classes.class_of[list(section)])] = 1
            rows.append(vec)
        return FpSubspace.span(np.array(rows, dtype=np.int64), self.p, self.center_dim)

    @cached_property
    def reynolds_space_fg(self) -> FpSubspace:
        """The Reynolds ideal in F_pG coordinates."""
        rows = [self.expand_central(v) for v in self.reynolds_center.basis]
        return FpSubspace.span(np.array(rows, dtype=np.int64) if rows else
                               np.zeros((0, self.dim), dtype=np.int64), self.p, self.dim)

    @cached_property
    def reynolds_is_ideal(self) -> bool:
        """Is the Reynolds ideal an ideal of F_pG? Route 1 only: the
        criterion G' <= O_p(G) is the second route, checked in `verify`."""
        return self.is_ideal(self.reynolds_space_fg)

    # -- F_pG-coordinate subspaces ------------------------------------------

    def embed_central(self, space: FpSubspace) -> FpSubspace:
        if space.ambient != self.center_dim:
            raise DimensionMismatchError("not a class-coordinate subspace")
        rows = np.array([self.expand_central(v) for v in space.basis], dtype=np.int64)
        if rows.size == 0:
            rows = np.zeros((0, self.dim), dtype=np.int64)
        return FpSubspace.span(rows, self.p, self.dim)

    def subgroup_sum_ideal(self, sub: Subgroup | Iterable[int]) -> FpSubspace:
        """S+ . F_pG: the span of the right-coset indicator vectors of S."""
        members = sub.sorted_members if isinstance(sub, Subgroup) else tuple(sorted(set(map(int, sub))))
        arr = np.array(members, dtype=np.int64)
        coset_rep = self.group.table[arr, :].min(axis=0)
        reps = np.unique(coset_rep)
        rows = np.zeros((reps.size, self.dim), dtype=np.int64)
        for r, rep in enumerate(reps):
            rows[r, coset_rep == rep] = 1
        return FpSubspace.from_rref(rows, [int(r) for r in reps], self.p, self.dim)

    def _left_translate(self, rows: np.ndarray, g: int) -> np.ndarray:
        perm = self.group.table[self.group.inv(g), :]
        return rows[:, perm]

    def _right_translate(self, rows: np.ndarray, g: int) -> np.ndarray:
        perm = self.group.table[:, self.group.inv(g)]
        return rows[:, perm]

    def is_ideal(self, space: FpSubspace) -> bool:
        """Closure of the subspace under both translations by the generators.

        Generators suffice: translation by a group element is bijective, so
        closure under each generator forces equality, hence closure under
        all products and inverses.
        """
        if space.ambient != self.dim:
            raise DimensionMismatchError("ideal test needs F_pG coordinates")
        if space.dim == 0:
            return True
        rows = space.basis
        for g in self.group.generators:
            if not space.contains(self._left_translate(rows, g)):
                return False
            if not space.contains(self._right_translate(rows, g)):
                return False
        return True

    # -- quotient maps -------------------------------------------------------

    def quotient_algebra(self, n_sub: Subgroup) -> tuple["GroupAlgebra", np.ndarray]:
        key = n_sub.members
        if key not in self._quotient_cache:
            q, proj = quotient(self.group, n_sub)
            self._quotient_cache[key] = (GroupAlgebra(q, self.p), proj)
        return self._quotient_cache[key]

    # -- the two-route verdicts ----------------------------------------------

    @cached_property
    def soc_is_ideal(self) -> SocIdealVerdict:
        """Is soc(ZF_pG) an ideal of F_pG?

        Route 1 closes the socle under generator translations; route 2 tests
        containment in (G')+ . F_pG. The routes must agree.
        """
        soc = self.socle_center
        soc_fg = self.embed_central(soc)
        derived_sum = self.subgroup_sum_ideal(derived_subgroup(self.group))
        direct = self.is_ideal(soc_fg)
        contained = soc_fg.is_subspace_of(derived_sum)
        if direct != contained:
            raise DualRouteDisagreementError(
                f"socle ideal test disagrees on {self.group.name}: "
                f"direct={direct}, containment={contained}")
        return SocIdealVerdict(
            prime=self.p,
            is_ideal=direct,
            contained_in_derived_sum=contained,
            socle_fg=soc_fg,
            derived_sum_space=derived_sum,
            socle_dim=soc.dim,
            jacobson_dim=self.jacobson_center.dim,
            center_dim=self.center_dim,
        )

    def class_selection(self, n_sub: Subgroup) -> ClassSelection:
        """Classes whose radical basis elements survive projection mod N.

        Membership is decided twice: directly (is the projected element
        nonzero) and by the criterion (image class outside the p'-core
        downstairs and class-size ratio coprime to p).
        """
        basis = self.jacobson_center_basis
        qalg, proj = self.quotient_algebra(n_sub)
        qcore = pprime_core(qalg.group, self.p)
        qcls = qalg.classes
        qbasis = qalg.jacobson_center_basis
        selected = []
        multipliers: dict[int, int] = {}
        image_class: dict[int, int] = {}
        image_elements: dict[int, np.ndarray] = {}
        for i, vec in sorted(basis.items()):
            members = self.classes.classes[i]
            pushed = np.zeros(qalg.dim, dtype=np.int64)
            np.add.at(pushed, proj, self.expand_central(vec))
            pushed %= self.p
            direct = bool(pushed.any())
            img = int(qcls.class_of[proj[members[0]]])
            ratio = len(members) // len(qcls.classes[img])
            criterion = (ratio % self.p != 0) and not (
                set(qcls.classes[img]) <= qcore.members)
            if direct != criterion:
                raise DualRouteDisagreementError(
                    f"class selection routes disagree on class {i} of {self.group.name}")
            if not direct:
                continue
            expected = ratio * qalg.expand_central(qbasis[img]) % self.p
            if not np.array_equal(pushed, expected):
                raise DualRouteDisagreementError(
                    f"projected radical element of class {i} is not the expected multiple")
            selected.append(i)
            multipliers[i] = ratio
            image_class[i] = img
            image_elements[img] = qbasis[img]
        return ClassSelection(
            n_sub=n_sub,
            selected=tuple(selected),
            multipliers=multipliers,
            elements={i: basis[i] for i in selected},
            image_class=image_class,
            image_elements=image_elements,
            quotient_algebra=qalg,
            projection=proj,
        )

    def derived_annihilating_witness(self) -> AlgebraElement:
        """Central element y with y . S+ = 0 for every nontrivial subgroup S
        of the derived subgroup, and y outside (G')+ . F_pG.

        Exists for p-groups of nilpotency class exactly two in odd
        characteristic; built from a nontrivial homomorphism of the derived
        subgroup onto the prime field. Every stated property is checked by
        exhaustive enumeration before returning.
        """
        g = self.group
        p = self.p
        if p == 2:
            raise HypothesisViolationError("the witness construction needs odd p")
        if not is_p_group(g.order, p):
            raise HypothesisViolationError("the witness construction needs a p-group")
        if nilpotency_class(g) != 2:
            raise HypothesisViolationError("nilpotency class must be exactly two")
        derived = derived_subgroup(g)
        dgroup, dmembers = derived.as_group()
        ppowers = {dgroup.power(x, p) for x in range(dgroup.order)}
        agreement = generate_subgroup(dgroup, ppowers)
        vgroup, vproj = quotient(dgroup, agreement)
        basis: list[int] = []
        span = {vgroup.identity}
        for v in range(vgroup.order):
            if v not in span:
                basis.append(v)
                span = generate_subgroup(vgroup, set(span) | {v}).members
        coord_first: dict[int, int] = {}
        for exps in itertools.product(range(p), repeat=len(basis)):
            elem = vgroup.identity
            for b, e in zip(basis, exps):
                elem = vgroup.mul(elem, vgroup.power(b, e))
            coord_first[elem] = exps[0] if exps else 0
        coeffs = np.zeros(self.dim, dtype=np.int64)
        for local, parent in enumerate(dmembers):
            coeffs[parent] = coord_first[int(vproj[local])]
        y = AlgebraElement(self, coeffs)
        if not y.is_central():
            raise DualRouteDisagreementError("witness is not central")
        if self.subgroup_sum_ideal(derived).contains(y.coeffs):
            raise DualRouteDisagreementError("witness lies in the derived coset-sum space")
        for sub in all_subgroups(dgroup):
            if sub.order == 1:
                continue
            parent_members = [dmembers[m] for m in sub.sorted_members]
            if not (y * self.subset_sum(parent_members)).is_zero():
                raise DualRouteDisagreementError(
                    f"witness fails to annihilate a subgroup sum of order {sub.order}")
        return y
