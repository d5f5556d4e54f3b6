"""Exception types shared across the package."""


class NotAdmissibleError(ValueError):
    """Input does not describe a nonzero admissible Hilbert polynomial."""


class OutOfScopeError(ValueError):
    """Classification query outside the supported codimension range."""


class SearchBoundError(RuntimeError):
    """Exhaustive enumeration refused: feasibility guard tripped."""
