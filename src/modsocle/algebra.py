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
class ClassSelection:
    """Conjugacy classes whose radical basis elements survive a quotient map.

    For each selected class C the image of its basis element is k times the
    corresponding basis element downstairs, with k = |C| / |image class|
    coprime to p; membership is computed both from that criterion and from
    the projected element directly, and the two must agree.
    """

    selected: tuple[int, ...]
    multipliers: dict[int, int]
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
    def _class_index(self) -> np.ndarray:
        """|G| x k: entry [x, l] is the class of x^-1 r_l, for r_l the
        representative of class l. The coefficient of u . w at r_l is
        sum_x u(x) w(x^-1 r_l), so a product reads the rows of supp u only."""
        g = self.group
        reps = np.array(self.classes.representatives, dtype=np.int64)
        return self.classes.class_of[g.table[np.ix_(g.inverse, reps)]]

    def _support_rows(self, vec) -> tuple[np.ndarray, np.ndarray]:
        """F_pG coefficients of central `vec` on its support, and the index rows there."""
        coeffs = self.expand_central(vec)
        support = coeffs.nonzero()[0]
        return coeffs[support], self._class_index.take(support, axis=0)

    def central_mult_matrix(self, vec) -> np.ndarray:
        """Matrix of multiplication by the central element with class coords `vec`.

        Entry (l, j) sums vec(x) over the x in supp vec (F_pG coordinates)
        with x^-1 r_l in class j: one scatter of |supp vec| * k cells."""
        coeffs, rows = self._support_rows(vec)
        k = self.center_dim
        out = np.zeros((k, k), dtype=np.int64)
        np.add.at(out, (np.arange(k), rows), coeffs[:, None])
        return out % self.p

    def _central_product(self, u, w) -> np.ndarray:
        """Class coordinates of central u . w: |supp u| * k operations."""
        coeffs, rows = self._support_rows(u)
        return coeffs @ w[rows] % self.p

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

        Column i is e_i^p for the class sum e_i, by square-and-multiply over
        the bits of p after the leading one, each step a `_central_product`
        of |supp| * k operations. So a column costs O(|G| k log p) at most.
        """
        k = self.center_dim
        p = self.p
        frob = np.empty((k, k), dtype=np.int64)
        for i, e in enumerate(np.eye(k, dtype=np.int64)):
            v = e
            for bit in bin(p)[3:]:
                v = self._central_product(v, v)
                if bit == "1":
                    v = self._central_product(e, v)
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
        if not comp.is_abelian:
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
        inside the center. The multiplication maps of the radical basis are
        made one at a time, each from the support of its basis vector, and
        `common_nullspace` applies each to the common kernel left by the
        ones before, so its eliminations shrink with that kernel and stop
        once it is zero."""
        maps = (self.central_mult_matrix(row) for row in self.jacobson_center.basis)
        return fplin.common_nullspace(maps, self.p, self.center_dim)

    @cached_property
    def reynolds_center(self) -> FpSubspace:
        """Span of the p'-section sums, in class coordinates."""
        class_of = self.classes.class_of
        sections = pprime_sections(self.group, self.p)
        rows = np.zeros((len(sections), self.center_dim), dtype=np.int64)
        for r, section in enumerate(sections):
            rows[r, class_of[list(section)]] = 1
        # Sections are disjoint unions of classes, sorted by least member, so
        # each row leads with the class of that member and the rows are RREF.
        pivots = [class_of[section[0]] for section in sections]
        return FpSubspace.from_rref(rows, pivots, self.p, self.center_dim)

    @cached_property
    def socle_fg(self) -> FpSubspace:
        """soc(ZF_pG) in F_pG coordinates."""
        return self.embed_central(self.socle_center)

    @cached_property
    def reynolds_space_fg(self) -> FpSubspace:
        """The Reynolds ideal in F_pG coordinates."""
        return self.embed_central(self.reynolds_center)

    @cached_property
    def derived_sum_space(self) -> FpSubspace:
        """(G')+ . F_pG, the coset-sum space of the derived subgroup."""
        return self.subgroup_sum_ideal(derived_subgroup(self.group))

    @cached_property
    def reynolds_is_ideal(self) -> bool:
        """Is the Reynolds ideal an ideal of F_pG? Route 1 only: the
        criterion G' <= O_p(G) is the second route, checked in `verify`."""
        return self.is_ideal(self.reynolds_space_fg)

    # -- F_pG-coordinate subspaces ------------------------------------------

    def embed_central(self, space: FpSubspace) -> FpSubspace:
        if space.ambient != self.center_dim:
            raise DimensionMismatchError("not a class-coordinate subspace")
        # Classes are ordered by least member, so an RREF row expands to an
        # RREF row that leads at the representative of its pivot class.
        reps = self.classes.representatives
        return FpSubspace.from_rref(space.basis[:, self.classes.class_of],
                                    [reps[c] for c in space.pivots], self.p, self.dim)

    def subgroup_sum_ideal(self, sub: Subgroup) -> FpSubspace:
        """S+ . F_pG: the span of the right-coset indicator vectors of S."""
        coset_rep = sub.coset_minima
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
        """F_p(G/N) over the group's one memoized quotient, plus the projection."""
        q, proj = quotient(self.group, n_sub)
        return GroupAlgebra(q, self.p), proj

    # -- the two-route verdicts ----------------------------------------------

    @cached_property
    def soc_is_ideal(self) -> bool:
        """Is soc(ZF_pG) an ideal of F_pG?

        Route 1 closes the socle under generator translations; route 2 tests
        containment in (G')+ . F_pG. The routes must agree.
        """
        direct = self.is_ideal(self.socle_fg)
        contained = self.socle_fg.is_subspace_of(self.derived_sum_space)
        if direct != contained:
            raise DualRouteDisagreementError(
                f"socle ideal test disagrees on {self.group.name}: "
                f"direct={direct}, containment={contained}")
        return direct

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
            image_elements[img] = qbasis[img]
        return ClassSelection(
            selected=tuple(selected),
            multipliers=multipliers,
            image_elements=image_elements,
            quotient_algebra=qalg,
            projection=proj,
        )

    def derived_annihilating_witness(self) -> AlgebraElement:
        """Central element y with y . S+ = 0 for every nontrivial subgroup S
        of the derived subgroup, and y outside (G')+ . F_pG.

        Exists for p-groups of nilpotency class exactly two in odd
        characteristic; built from a nontrivial homomorphism of the derived
        subgroup onto the prime field. Every stated property is checked
        before returning; annihilation on <x>+ for each x in G' of order p
        only, which suffices: a nontrivial S <= G' holds such an x, S+ is
        sum_t t . <x>+ over a transversal t of <x> in S, and y is central.
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
        if self.derived_sum_space.contains(y.coeffs):
            raise DualRouteDisagreementError("witness lies in the derived coset-sum space")
        for x in np.flatnonzero(dgroup.element_orders == p):
            cyclic_sum = self.subset_sum(dmembers[dgroup.power(int(x), e)] for e in range(p))
            if not (y * cyclic_sum).is_zero():
                raise DualRouteDisagreementError(
                    "witness fails to annihilate the sum of a subgroup of order p")
        return y
