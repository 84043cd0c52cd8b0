"""Exception types shared across the package.

Every raised condition gets its own class so callers (and the CLI) can
distinguish hard errors from reported hypothesis violations.
"""


class KlabError(Exception):
    """Base class for all package errors."""


class CompositeModulus(KlabError):
    """The requested field characteristic is not prime."""


class TooSmall(KlabError):
    """The modulus is below the supported range (q must be an odd prime >= 3)."""


class ResourceLimit(KlabError):
    """A computation would exceed its configured size cap."""


class NotDistinct(KlabError):
    """The shift tuple must have pairwise distinct coordinates."""


class WrongParity(KlabError):
    """The statistic is only defined for the other parity of k."""


class NotSelfDual(KlabError):
    """The table breaks conj Kl_k(a) = Kl_k((-1)^k a) beyond its float budget,
    so the real (even k) or half (odd k) four-fold grid does not apply."""


class NoGenericTuple(KlabError):
    """The field has no generic shift tuple for this k, so none can be sampled."""


class CharDividesK(KlabError):
    """gcd(k, q) != 1, so there are no k-th roots of unity."""


class NoKthRoots(KlabError):
    """k does not divide q^d - 1 in the chosen host field."""


class RangeTooLarge(KlabError):
    """A summation range exceeds the configured cap."""


class HypothesisViolated(KlabError):
    """A bound's range hypotheses fail; carries the failing conditions."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class ConstraintViolated(KlabError):
    """Auxiliary parameters (A, B) violate their side conditions."""

    def __init__(self, message, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class OutOfRange(KlabError):
    """A parameter lies outside the range that a table or computation supports."""


class UsageError(KlabError):
    """Bad command-line arguments or config."""


class IoError(KlabError):
    """Failed to read or write an artifact."""
