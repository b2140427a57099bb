"""Exact dense linear algebra over a prime field.

Matrices are numpy int64 arrays with entries reduced modulo a prime p.
Every subspace is stored as a reduced row-echelon basis, so subspace
equality is plain matrix equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ModulusTooLargeError

Array = np.ndarray


@cache
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_modulus(p: int, terms: int) -> None:
    """Raise `ModulusTooLargeError` unless `terms` products of two residues
    mod p sum below 2^63.

    Every int64 product here adds at most `terms` such products to a
    residue before it is reduced, so under this bound it is exact."""
    if (p - 1) ** 2 * terms >= 1 << 63:
        raise ModulusTooLargeError(p, terms)


def validate_prime(p: int) -> int:
    """`p` as an int, if it is a prime whose square fits in int64.

    The size check comes first, so trial division runs only below about
    3 * 10^9 (at most about 27,500 odd divisors)."""
    p = int(p)
    if p > 1:
        check_modulus(p, 1)
    if not is_prime(p):
        raise ValueError(f"modulus must be a prime, got {p}")
    return p


def as_matrix(rows, p: int, cols: int | None = None) -> Array:
    """Normalize `rows` into a 2-D int64 array reduced mod p.

    A product of two such matrices, or an elimination against a basis of
    such rows, sums at most one product per column, so the column count
    bounds p (`check_modulus`)."""
    validate_prime(p)
    m = np.array(rows, dtype=np.int64)
    if m.ndim == 1:
        if m.size:
            m = m.reshape(1, -1)
        else:
            m = m.reshape(0, cols if cols is not None else 0)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatchError(f"expected {cols} columns, got {m.shape[1]}")
    check_modulus(p, m.shape[1])
    return m % p


def rref(m, p: int) -> tuple[Array, tuple[int, ...]]:
    """Reduced row-echelon form.

    Returns the nonzero rows of the RREF together with the pivot columns.
    The row space is preserved.
    """
    a = as_matrix(m, p)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        stripe = np.nonzero(a[r:, c])[0]
        if stripe.size == 0:
            continue
        piv = r + int(stripe[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


def rank(m, p: int) -> int:
    return rref(m, p)[0].shape[0]


def _frozen(a: Array) -> Array:
    a = np.ascontiguousarray(a, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class FpSubspace:
    """Subspace of F_p^ambient with a canonical RREF basis."""

    p: int
    ambient: int
    basis: Array
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def span(cls, rows, p: int, ambient: int) -> "FpSubspace":
        b, piv = rref(as_matrix(rows, p, cols=ambient), p)
        return cls(p=validate_prime(p), ambient=ambient, basis=_frozen(b), pivots=piv)

    @classmethod
    def from_rref(cls, basis: Array, pivots: Sequence[int], p: int, ambient: int) -> "FpSubspace":
        """Wrap rows already in RREF; the invariants are verified."""
        b = as_matrix(basis, p, ambient)
        piv = tuple(int(c) for c in pivots)
        if list(piv) != sorted(set(piv)) or len(piv) != b.shape[0]:
            raise ValueError("pivot columns must be strictly increasing, one per row")
        if piv and not np.array_equal(b[:, list(piv)], np.eye(len(piv), dtype=np.int64)):
            raise ValueError("pivot columns must form an identity block")
        return cls(p=p, ambient=ambient, basis=_frozen(b), pivots=piv)

    def _check_compatible(self, other: "FpSubspace") -> None:
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"incompatible subspaces: F_{self.p}^{self.ambient} vs F_{other.p}^{other.ambient}")

    def reduce(self, rows) -> Array:
        """Residual of `rows` after elimination against the basis."""
        v = as_matrix(rows, self.p, cols=self.ambient)
        if self.dim == 0:
            return v
        return (v - v[:, list(self.pivots)] @ self.basis) % self.p

    def contains(self, rows) -> bool:
        """True when the row, or every row of a matrix, lies in the subspace."""
        return not self.reduce(rows).any()

    def is_subspace_of(self, other: "FpSubspace") -> bool:
        self._check_compatible(other)
        return other.contains(self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return (self.p == other.p and self.ambient == other.ambient
                and self.basis.shape == other.basis.shape
                and bool(np.array_equal(self.basis, other.basis)))

    def __hash__(self):
        return hash((self.p, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return f"FpSubspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"


def nullspace(m, p: int, cols: int | None = None) -> FpSubspace:
    """Right kernel {v : m v = 0} as an RREF subspace, by one elimination.

    The columns are eliminated in reverse order. In those coordinates the
    kernel vector of a free column f has 1 at f, 0 at every other free
    column, and its other nonzero entries at pivots before f. Read with its
    columns reversed, its leading 1 sits at n-1-f, and at n-1-f every other
    kernel vector is 0; so the vectors, rows reversed too, are already the
    RREF basis of the kernel.
    """
    a = as_matrix(m, p, cols=cols)
    n = a.shape[1]
    b, pivots = rref(a[:, ::-1], p)
    free = [c for c in range(n) if c not in set(pivots)]
    vecs = np.zeros((len(free), n), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, list(pivots)] = -b[:, free].T % p
    return FpSubspace.from_rref(vecs[::-1, ::-1], [n - 1 - f for f in reversed(free)], p, n)


def matmul(a: Array, b: Array, p: int) -> Array:
    """a @ b mod p for matrices of residues mod p, exactly.

    When `a.shape[1] * (p-1)^2 < 2^53` every partial sum of the product is
    an integer below 2^53, which float64 holds exactly, so the product runs
    in float64 through BLAS whatever order it sums in. Otherwise it runs in
    int64 under `check_modulus`: numpy multiplies int64 without BLAS, but
    a prime that large does not divide any |G| in range, so its group
    algebra is semisimple; with p >= k the Frobenius power is one product,
    and a zero radical leaves no kernel to refine.
    """
    inner = a.shape[1]
    if inner * (p - 1) ** 2 < 1 << 53:
        return (a.astype(np.float64) @ b.astype(np.float64) % p).astype(np.int64)
    check_modulus(p, inner)
    return a @ b % p


def common_nullspace(maps: Iterable, p: int, ambient: int) -> FpSubspace:
    """Vectors annihilated by every map in `maps` (the full space for none).

    Each map is a callable: given vectors of F_p^ambient as the columns of
    an ambient x d matrix, it returns their images as columns, reduced
    mod p. So a map is never built as a matrix; it is only ever applied to
    the basis of the current kernel.

    The common kernel K starts as the whole space and is refined map by map:
    each map is applied to the basis of K, and when that image is nonzero
    K becomes the image's kernel in K's coordinates, mapped back through
    K's basis. The only elimination is the one inside `nullspace`, of the
    image (dim K columns): a product of two RREF bases is already RREF, its
    pivots those of K's basis picked out by the kernel's. Once K is zero
    the rest of `maps` is not read.
    """
    kernel = FpSubspace.from_rref(np.eye(ambient, dtype=np.int64), range(ambient), p, ambient)
    for apply in maps:
        image = apply(kernel.basis.T)
        if image.any():
            coords = nullspace(image, p, cols=kernel.dim)
            kernel = FpSubspace.from_rref(
                matmul(coords.basis, kernel.basis, p),
                [kernel.pivots[q] for q in coords.pivots], p, ambient)
            if kernel.dim == 0:
                break
    return kernel
