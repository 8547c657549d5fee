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


class OracleCeilingError(CirctreesError):
    """The exact determinant oracle refuses graphs above its size ceiling."""


class RootRefinementError(CirctreesError):
    """Newton refinement of a polynomial root failed to converge."""


class CertificationError(CirctreesError):
    """A closed-form product failed to certify as an exact integer.

    ``attempted`` is True when the certification ran and failed, in seeding
    its roots or at every precision up to its cap, and False (the default)
    when it was refused without an attempt; ``limit`` then names the limit
    that refused it, the bit "cap" (the default) or the "seeding budget".
    """

    def __init__(self, message, attempted=False, limit="cap"):
        super().__init__(message)
        self.attempted, self.limit = attempted, limit


class InternalConsistencyError(CirctreesError):
    """An exact algebraic identity that must hold did not (implementation bug)."""


class QuadratureError(CirctreesError):
    """Numerical integration failed to reach the requested accuracy."""
