"""Exception types shared across the package.

All inherit ValueError so callers can catch broadly.  The CLI maps a
ConfigurationError to exit status 2, as argparse does its usage errors, and
every other error here to status 1 (computation/range failures).
"""

from __future__ import annotations


class DensedivError(ValueError):
    """Base class for all package-specific errors."""


class ConfigurationError(DensedivError):
    """A constructor/config parameter is outside its supported range."""


class SieveRangeError(DensedivError):
    """An argument exceeds the range covered by the factor table."""


class ResourceCapError(DensedivError):
    """A request exceeds a documented resource cap (e.g. divisor count)."""


class DomainError(DensedivError):
    """Arguments violate a formula's validity regime."""
