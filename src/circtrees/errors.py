"""Exception types shared across the package."""


class CirctreesError(Exception):
    """Base class for all package-specific failures."""


class SpecError(CirctreesError, ValueError):
    """A circulant specification is malformed or cannot be canonicalized."""


class SpecParseError(SpecError):
    """A spec literal such as ``C12(1,3)`` could not be parsed."""


class DisconnectedGraphError(CirctreesError):
    """An operation requiring a connected graph was given a disconnected one.

    Carries the spanning-tree count 0 so callers can report it.
    """

    def __init__(self, message, spec=None):
        super().__init__(message)
        self.spec = spec
        self.tau = 0


class NotAttemptedError(CirctreesError):
    """A computation refused before any work because its input exceeds a
    size limit; ``limit`` names it: the oracle's "ceiling", the certified
    product's bit "cap" or "seeding budget", or the exact route's "size".
    """

    def __init__(self, message, limit):
        super().__init__(message)
        self.limit = limit


class RootRefinementError(CirctreesError):
    """Newton refinement of a polynomial root failed to converge."""


class CertificationError(CirctreesError):
    """A closed-form product ran and failed to certify as an exact integer,
    in seeding its roots or at every precision up to its cap."""


class InternalConsistencyError(CirctreesError):
    """An exact algebraic identity that must hold did not (implementation bug)."""


class QuadratureError(CirctreesError):
    """Numerical integration failed to reach the requested accuracy."""
