"""Exception types shared across the package."""

from __future__ import annotations


class MotionDualError(Exception):
    """Base class for all errors raised by this package."""


class SignatureError(MotionDualError, ValueError):
    """An integer tuple is not a valid signature for its group."""


class WrongLength(SignatureError):
    def __init__(self, got: int, expected: int, n: int):
        self.got = got
        self.expected = expected
        super().__init__(f"SO({n}) signatures have {expected} entries, got {got}")


class MonotonicityViolated(SignatureError):
    """The inequality between entry `index` and its successor fails (1-based)."""

    def __init__(self, index: int, detail: str):
        self.index = index
        super().__init__(detail)


class NegativeEntry(SignatureError):
    """Entry `index` (1-based) is negative where the group forbids it."""

    def __init__(self, index: int, detail: str):
        self.index = index
        super().__init__(detail)


class ContextMismatch(MotionDualError):
    """Operands live in incompatible groups."""


class UnknownPoint(MotionDualError):
    """A point id does not belong to the space it was used with."""


class PreconditionViolated(MotionDualError):
    """An operation was called outside its stated domain."""


class CertificationError(MotionDualError):
    """An internally generated certificate failed its own re-verification.

    This never indicates bad user input; it means a constructed walk, chain,
    separation or merge certificate contradicts the identity it is supposed
    to witness, i.e. an implementation bug.
    """


class TheoremViolation(CertificationError):
    """A named cross-check between computed and predicted invariants failed;
    `report` is the partially populated report of the check, if any."""

    def __init__(self, failed: tuple[str, ...], detail: str = "", report=None):
        self.failed = tuple(failed)
        self.report = report
        names = ", ".join(self.failed)
        super().__init__(f"cross-check failed: {names}" + (f" ({detail})" if detail else ""))
