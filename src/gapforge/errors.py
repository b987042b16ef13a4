"""Exception types shared across the package."""


class GapforgeError(Exception):
    """Base class for structured failures raised by gapforge operations."""


class TableTooShort(GapforgeError):
    """An explicit ladder table ended before the query could be answered."""


class UnknownDelta(GapforgeError):
    """A ladder was queried at an ordinal outside its domain."""


class UnknownIndex(GapforgeError):
    """An operation referenced an index with no tower set in the diagram."""


class IndexMismatch(GapforgeError):
    """A predicate requiring matching index sets was given different ones."""


class HeightMismatch(GapforgeError):
    """A union of conditions was attempted across different heights."""


class AgreementFailure(GapforgeError):
    """Two conditions disagree on their common domain."""


class HypothesisFailure(GapforgeError):
    """A join was requested without its required precondition."""


class SearchTooLarge(GapforgeError):
    """An exhaustive search would exceed its configured free-bit cap."""


class InvalidBit(GapforgeError):
    """A granted bit falls outside the extension range."""


class RequirementFailure(GapforgeError):
    """A selection asked for more indices than the diagram has: raised
    before any step when `wsize` exceeds the tower indices."""


class InvariantViolation(GapforgeError):
    """A built-in run assertion failed; `invariant` names which one."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{invariant}: {detail}" if detail else invariant)
