"""Exception taxonomy shared by all kmx modules.

DomainError subclasses signal invalid mathematical input (CLI exit 1).
GuardError subclasses signal a resource guard, not a wrong answer (CLI exit 3).
InternalError marks states that a theorem rules out; reaching one is a bug.
"""

from __future__ import annotations


class KmxError(Exception):
    pass


class DomainError(KmxError):
    pass


class GuardError(KmxError):
    pass


class InternalError(KmxError):
    """A mathematically impossible state was reached."""


class NotGCM(DomainError):
    pass


class NotSymmetrizable(DomainError):
    pass


class NotSpecial(DomainError):
    """.theta is 0-based like every library index; the message is 1-based."""

    def __init__(self, theta):
        self.theta = tuple(sorted(theta))
        super().__init__(f"subset {tuple(i + 1 for i in self.theta)} is not special")


class NotDominant(DomainError):
    pass


class NotInMonoid(DomainError):
    pass


class RankMismatch(DomainError):
    pass


class ZeroTorusValue(DomainError):
    pass


class PreconditionViolated(DomainError):
    pass


class NotFactored(DomainError):
    """Word is outside the factored shapes supported by cell identification."""


class NotInTitsCone(DomainError):
    """Carries an exact certificate that a weight lies outside the Tits cone."""

    def __init__(self, certificate: str):
        self.certificate = certificate
        super().__init__(f"not in the Tits cone: {certificate}")


class Undecided(GuardError):
    """Tits-cone membership undecided within the iteration budget.

    Explicitly NOT a membership verdict.  .weight is the last weight the
    walk reached, when the raiser knows it.
    """

    def __init__(self, bound: int, *, weight=None):
        self.bound = bound
        self.weight = weight
        super().__init__(f"undecided after {bound} iterations")


class DepthExceeded(GuardError):
    """.weight is the target weight that left the slice's window, when the
    raiser knows it."""

    def __init__(self, needed: int, depth: int, *, weight=None):
        self.needed = needed
        self.depth = depth
        self.weight = weight
        super().__init__(f"needs module depth >= {needed}, slice has {depth}")


class DepthTooLarge(GuardError):
    pass


class SizeGuard(GuardError):
    pass
