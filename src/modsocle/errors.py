"""Exception types shared across the package."""

from __future__ import annotations


class ModsocleError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ModsocleError):
    """Two linear-algebra objects have incompatible ambient dimension or modulus."""


class ModulusTooLargeError(ModsocleError):
    """A prime is too large for exact int64 arithmetic at the requested size.

    Sums of `terms` products of two residues mod p must stay below 2^63."""

    def __init__(self, p: int, terms: int):
        self.p = p
        self.terms = terms
        super().__init__(
            f"modulus {p} is too large: (p-1)^2 * {terms} must be below 2^63")


class NotAGroupError(ModsocleError):
    """A multiplication table violates one of the group axioms."""

    def __init__(self, axiom: str, witness=None):
        self.axiom = axiom
        self.witness = witness
        detail = f" (witness: {witness})" if witness is not None else ""
        super().__init__(f"not a group: {axiom} fails{detail}")


class NotNormalError(ModsocleError):
    """A subgroup required to be normal is not."""


class NotNilpotentError(ModsocleError):
    """The lower central series stabilizes above the trivial subgroup."""


class HypothesisViolationError(ModsocleError):
    """An operation was invoked outside its structural hypotheses."""


class NoComplementError(ModsocleError):
    """No complement exists for the requested subgroup."""


class InvalidActionError(ModsocleError):
    """An action table is not a homomorphism into the automorphism group."""


class NotCentralError(ModsocleError):
    """A subgroup required to be central is not."""


class OrderTooSmallError(ModsocleError):
    """A family constructor was asked for an order below its defined range."""


class SearchFailedError(ModsocleError):
    """A bounded exhaustive search found no object that must exist."""


class ParseError(ModsocleError):
    """A group document could not be parsed."""


class CensusMismatchError(ModsocleError):
    """A census over a catalog tagged as complete produced unexpected counts."""


class DualRouteDisagreementError(ModsocleError):
    """Two independent computations of the same fact disagreed.

    This always indicates a bug, never a valid mathematical outcome."""
