"""Common base class for the package's domain errors."""


class RackError(ValueError):
    """Base class for every input the package refuses; a ``ValueError``."""
