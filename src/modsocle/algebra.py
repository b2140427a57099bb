"""The modular group algebra F_pG, its center, and the ideals studied here.

The center ZF_pG is handled in class coordinates (one coordinate per
conjugacy class, basis the class sums), and every subspace is kept there.
An element of F_pG is a coefficient vector; membership in a coset-sum ideal
S+ . F_pG is read off it as constancy on the right cosets of S, so no
subspace of F_pG itself is built. Dimensions are always reported over the
prime field: whether the socle of the center or the Reynolds ideal is an
ideal of F_pG does not depend on the field of characteristic p chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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
    _memoized,
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

    An element of F_pG is a plain int64 coefficient vector indexed by the
    group's elements; a central one is a vector in class coordinates, one
    entry per conjugacy class (`expand_central` maps it to F_pG). A coset-sum
    ideal S+ . F_pG is never spanned: membership in it is constancy on the
    right cosets of S (`in_coset_sum_ideal`).

    The radical, socle and Reynolds ideal of the center and the socle and
    Reynolds verdicts are cached properties, so each is computed once per
    algebra. `group_algebra` keeps one algebra per (group, p) on the group,
    so it lives as long as its group. What it caches has k rows, besides the
    |G| x k `_class_index`: both verdicts are answered in class coordinates.

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

    def _central_product(self, u, w) -> np.ndarray:
        """Class coordinates of central u . w: |supp u| * k operations."""
        coeffs, rows = self._support_rows(u)
        return coeffs @ w[rows] % self.p

    def _central_products(self, u, w) -> np.ndarray:
        """Class coordinates of central u . w for each column w of the k x d
        matrix `w`, as the columns of a k x d matrix.

        Like `_central_product`, it reads only the rows of supp u: the
        multiplication map of u is never built, only applied to `w`. The
        gathered block `w[rows]` is |supp u| x k x d, so it is taken a slice
        of the support at a time, each at most |G| * k cells, the size of
        `_class_index`. Each entry still sums at most |G| products of
        residues (`fplin.check_modulus`).
        """
        coeffs, rows = self._support_rows(u)
        k, d = w.shape
        step = max(1, self.group.order // d)
        out = np.zeros(k * d, dtype=np.int64)
        for s in range(0, coeffs.size, step):
            block = w[rows[s:s + step]]
            out += coeffs[s:s + step] @ block.reshape(block.shape[0], k * d)
        return out.reshape(k, d) % self.p

    def expand_central(self, vec) -> np.ndarray:
        """Class coordinates -> F_pG coefficients, of a vector or of each row."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        return v[..., self.classes.class_of]

    # -- radical, socle, Reynolds ideal ------------------------------------

    def _frobenius_power_matrix(self) -> np.ndarray:
        """Matrix of x -> x^(p^m) on the center, p^m >= its dimension.

        On a commutative algebra over the prime field the p-th power map is
        linear, so its iterate is a matrix power; the kernel is exactly the
        nilradical, which for the center equals the Jacobson radical.

        Column i is e_i^p for the class sum e_i, by square-and-multiply over
        the bits of p after the leading one, each step a `_central_product`
        of |supp| * k operations. So a column costs O(|G| k log p) at most.
        F^m is taken by repeated squaring over the bits of m after the
        leading one: at most 2 log2(m) products through `fplin.matmul` (3 at
        D512 and p = 2, where m = 8), each exact, in float64 or else in int64
        by k (p-1)^2 <= |G| (p-1)^2 < 2^63. m >= 1 once k >= 2; for k = 1,
        m = 0 and the power is the identity.
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
        if m == 0:
            return np.eye(k, dtype=np.int64)
        power = frob
        for bit in bin(m)[3:]:
            power = fplin.matmul(power, power, p)
            if bit == "1":
                power = fplin.matmul(power, frob, p)
        return power

    @cached_property
    def jacobson_center(self) -> FpSubspace:
        """J(ZF_pG) in class coordinates, as the kernel of the iterated
        p-th power map; that k x k matrix is not kept."""
        return fplin.nullspace(self._frobenius_power_matrix(), self.p, cols=self.center_dim)

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
        inside the center."""
        return self.annihilator(self.jacobson_center.basis)

    def annihilator(self, vectors: Iterable) -> FpSubspace:
        """{z in Z : v . z = 0 for every v in `vectors`}, for central
        elements given in class coordinates.

        `common_nullspace` applies the multiplication map of each v, as
        `_central_products` from the support of v, to the common kernel left
        by the ones before. So no k x k map is built, each product shrinks
        with that kernel, and once the kernel is zero the remaining vectors
        are not read.
        """
        maps = (partial(self._central_products, v) for v in vectors)
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
    def reynolds_is_ideal(self) -> bool:
        """Is the Reynolds ideal an ideal of F_pG? Route 1 only: the
        criterion G' <= O_p(G) is the second route, checked in `verify`."""
        return self.is_ideal(self.reynolds_center)

    def is_ideal(self, space: FpSubspace) -> bool:
        """Is the central subspace `space`, in class coordinates, an ideal
        of F_pG?

        For central z, z . g = g . z, so closure under left translation
        suffices, and closure under the generators: translation by a group
        element is bijective, so closure under each generator forces
        equality, hence closure under all products and inverses. g . z lies
        in `space` iff it is a class function whose values at the class
        representatives, its class coordinates, lie in `space`.
        """
        if space.ambient != self.center_dim:
            raise DimensionMismatchError("ideal test needs class coordinates")
        g, cls = self.group, self.classes
        rows = self.expand_central(space.basis)
        for s in g.generators:
            # (s . z)(h) = z(s^-1 h)
            moved = rows[:, g.table[g.inv(s), :]]
            values = moved[:, cls.representatives]
            if not np.array_equal(moved, values[:, cls.class_of]) or not space.contains(values):
                return False
        return True

    def in_coset_sum_ideal(self, coeffs, sub: Subgroup) -> bool:
        """Does the F_pG element `coeffs`, or every row of a matrix of them,
        lie in S+ . F_pG for the subgroup `sub` = S?

        S+ . g is the indicator of the right coset Sg, so S+ . F_pG is
        spanned by those indicators, whether S is normal or not. An element
        lies in it iff it is constant on each right coset: iff it equals its
        value at each coset's least element (`Subgroup.coset_minima`).
        """
        c = np.asarray(coeffs, dtype=np.int64) % self.p
        return bool(np.array_equal(c, c[..., sub.coset_minima]))

    def equals_coset_sum_ideal(self, space: FpSubspace, sub: Subgroup) -> bool:
        """Is the central subspace `space`, in class coordinates, S+ . F_pG
        for the subgroup `sub` = S?

        S+ . F_pG has dimension |G : S|, one indicator per right coset.
        `expand_central` is injective, so the expanded basis spans a space of
        dimension `space.dim`; when that is |G : S| and the basis lies in
        S+ . F_pG, the two spaces are equal.
        """
        return (space.dim == self.group.order // sub.order
                and self.in_coset_sum_ideal(self.expand_central(space.basis), sub))

    # -- quotient maps -------------------------------------------------------

    def quotient_algebra(self, n_sub: Subgroup) -> tuple["GroupAlgebra", np.ndarray]:
        """F_p(G/N) over the group's one memoized quotient, plus the projection."""
        q, proj = quotient(self.group, n_sub)
        return group_algebra(q, self.p), proj

    # -- the two-route verdicts ----------------------------------------------

    @cached_property
    def soc_is_ideal(self) -> bool:
        """Is soc(ZF_pG) an ideal of F_pG?

        Route 1 closes the socle under generator translations; route 2 tests
        containment in (G')+ . F_pG. The routes must agree.
        """
        direct = self.is_ideal(self.socle_center)
        contained = self.in_coset_sum_ideal(self.expand_central(self.socle_center.basis),
                                            derived_subgroup(self.group))
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

    def derived_annihilating_witness(self) -> np.ndarray:
        """F_pG coefficients of a central element y with y . S+ = 0 for every
        nontrivial subgroup S of the derived subgroup, and y outside
        (G')+ . F_pG.

        Exists for p-groups of nilpotency class exactly two in odd
        characteristic: y is f on G' and 0 elsewhere, for a homomorphism f of
        G' onto the prime field. The class is two, so G' is central, hence
        abelian, and y is central. f is read off one subgroup M of index p:
        M grows from <d^p : d in G'> by each element v, in index order, for
        which <M, v> is still proper. A v once rejected stays rejected, since
        M only grows and <M_v, v> = G' lies in <M, v>. So the final M is
        maximal in G', of index p because G' is a p-group, and with a the
        least element outside M, f(d) = e for d in a^e M is a nontrivial
        homomorphism onto F_p.

        Every stated property is checked before returning; annihilation on
        <x>+ for each x in G' of order p only, which suffices: a nontrivial
        S <= G' holds such an x, S+ is sum_t t . <x>+ over a transversal t
        of <x> in S, and y is central. (y . S+)(g) = sum_s y(g s^-1), so
        each check sums y over a |G| x p block of the table.
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
        m = generate_subgroup(g, {g.power(d, p) for d in derived.members})
        for v in derived.sorted_members:
            grown = generate_subgroup(g, m.members | {v})
            if grown.order < derived.order:
                m = grown
        a = min(derived.members - m.members)
        y = np.zeros(self.dim, dtype=np.int64)
        for e in range(1, p):
            y[g.table[g.power(a, e), list(m.members)]] = e
        reps = np.array(self.classes.representatives)
        if not np.array_equal(y, y[reps[self.classes.class_of]]):
            raise DualRouteDisagreementError("witness is not central")
        if self.in_coset_sum_ideal(y, derived):
            raise DualRouteDisagreementError("witness lies in the derived coset-sum space")
        for x in np.flatnonzero(derived.mask & (g.element_orders == p)):
            cyclic = [g.power(int(x), e) for e in range(p)]
            if (y[g.table[:, g.inverse[cyclic]]].sum(axis=1) % p).any():
                raise DualRouteDisagreementError(
                    "witness fails to annihilate the sum of a subgroup of order p")
        return y


@_memoized
def group_algebra(group: FiniteGroup, p: int) -> GroupAlgebra:
    """The one F_pG of `group`, kept on the group, so that every fact about
    (group, p) is computed once."""
    return GroupAlgebra(group, p)
