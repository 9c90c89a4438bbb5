"""Exception types shared across the package.

:class:`ConfigError` is also a ``ValueError``: a protocol raises it for an
argument that a run cannot take, so the CLI reports that rule's breach as a
configuration error (exit 2) without checking the rule itself, and a
library caller that catches ``ValueError`` still catches it.
"""


class CryomechError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(CryomechError):
    """A physical validity condition for a protocol or reduction is violated."""


class TruncationError(PreconditionError):
    """Population has leaked into the top levels of a truncated mode."""


class DegenerateSteadyStateError(CryomechError):
    """The Liouvillian null space is empty or not one-dimensional."""


class VerificationError(CryomechError):
    """An oracle cross-check failed outside its declared tolerance."""


class ConfigError(CryomechError, ValueError):
    """An input, a config value or a protocol argument, that a run cannot take."""
