"""Exception types shared across the package, and the token quoting their
messages share."""

import math

__all__ = [
    "TppbError",
    "NotLatinSquare",
    "NoIdentityAtZero",
    "NotAssociative",
    "NotAPermutation",
    "OrderLimitExceeded",
    "UnknownFamily",
    "BadParameter",
    "LatticeLimitExceeded",
    "NotASubgroup",
    "EmptySet",
    "UnsortedSizes",
    "IndexOutOfRange",
    "NoRootInRange",
    "DomainError",
    "EigenspaceSplitFailure",
    "PrimeSearchExhausted",
    "InvariantViolation",
    "ParseError",
    "UnknownElement",
    "ManifestError",
    "quoted",
    "shown",
]


def _text(token) -> str:
    """str(token), except that an int of more than 40 digits is written to
    its leading digits only: Python refuses str() past 4,300 digits."""
    if not isinstance(token, int):
        return token
    m = abs(token)
    if m >= 10**40:
        m //= 10 ** (int(math.log10(m)) - 40)
    return ("-" if token < 0 else "") + str(m)


def quoted(token) -> str:
    """repr of at most 30 characters of token (a str or an int), so a long
    token gives a short message."""
    text = _text(token)
    return repr(text[:30]) + ("..." if len(text) > 30 else "")


def shown(token) -> str:
    """token (a str or an int) as text when it has at most 30 characters,
    else cut by `quoted`."""
    text = _text(token)
    return text if len(text) <= 30 else quoted(text)


class TppbError(Exception):
    """Base class for all package-specific errors."""


class NotLatinSquare(TppbError):
    """A multiplication table has a repeated entry in some row or column."""

    def __init__(self, axis: str, index: int):
        self.axis = axis
        self.index = index
        super().__init__(f"{axis} {index} of the table is not a permutation")


class NoIdentityAtZero(TppbError):
    """Row or column 0 of a multiplication table is not the identity map."""


class NotAssociative(TppbError):
    """A multiplication table fails associativity; carries a witness triple."""

    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"(a*b)*c != a*(b*c) for (a, b, c) = ({a}, {b}, {c})")


class NotAPermutation(TppbError):
    """A one-line sequence is not a permutation of 1..degree."""


class OrderLimitExceeded(TppbError):
    """A construction would exceed the configured group-order limit."""

    def __init__(self, message: str, partial_count: int | None = None):
        self.partial_count = partial_count
        super().__init__(message)


class UnknownFamily(TppbError):
    """Builtin family name not recognized."""


class BadParameter(TppbError):
    """Builtin family parameter outside its documented range."""


class LatticeLimitExceeded(TppbError):
    """Subgroup enumeration exceeded the configured subgroup-count cap."""


class NotASubgroup(TppbError):
    """An element set expected to be a subgroup is not one."""


class EmptySet(TppbError):
    """An operation requiring a non-empty element set received an empty one."""


class UnsortedSizes(TppbError):
    """Size arguments must satisfy a >= b >= c >= 1."""


class IndexOutOfRange(TppbError):
    """A 1-based lattice index is outside 1..count, or an element set
    holds an index outside 0..order-1."""


class NoRootInRange(TppbError):
    """Expected a sign change of D_x - beta^(x/3) on [2, 3] but found none."""


class DomainError(TppbError):
    """Real-exponent degree sums are only defined on the solver domain [2, 3]."""


class EigenspaceSplitFailure(TppbError):
    """Class matrices failed to split a common eigenspace down to dimension 1."""


class PrimeSearchExhausted(TppbError):
    """No admissible prime found below the sanity cap."""


class InvariantViolation(TppbError):
    """Ingested data violates a named invariant."""

    def __init__(self, invariant: str, detail: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {detail}")


class ParseError(TppbError):
    """Group-spec text failed to parse; carries the failure position."""

    def __init__(self, text: str, pos: int, detail: str):
        self.pos = pos
        self.detail = detail
        # Quote at most 60 characters around pos, so a long spec gives a short message.
        lo = max(0, min(pos - 30, len(text) - 60))
        shown = repr(text[lo : lo + 60])
        shown = ("..." if lo else "") + shown + ("..." if lo + 60 < len(text) else "")
        super().__init__(f"cannot parse {shown} at position {pos}: {detail}")


class UnknownElement(TppbError):
    """An element token does not resolve to an index or label in the group."""


class ManifestError(TppbError):
    """A catalog manifest is malformed or violates its declared order."""
