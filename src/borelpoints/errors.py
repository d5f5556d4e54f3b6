"""Exception types shared across the package."""


class NotAdmissibleError(ValueError):
    """Input does not describe a nonzero admissible Hilbert polynomial."""


class OutOfScopeError(ValueError):
    """Classification query outside the supported codimension range."""


class SearchBoundError(RuntimeError):
    """Feasibility guard tripped: an exhaustive enumeration, or a
    partition too large to build, refused."""
