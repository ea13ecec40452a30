"""Exception types raised across the package."""


class PowerPermError(ValueError):
    """Base class for argument and domain errors raised by this package."""


class DomainError(PowerPermError):
    """An argument lies outside the domain of the operation asked for."""


class EnumerationBoundExceeded(PowerPermError):
    """A full-table enumeration would exceed the configured entry bound."""


class InternalBijectivityViolation(RuntimeError):
    """A permutation invariant failed; signals an implementation bug."""
