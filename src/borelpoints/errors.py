"""Exception types, and the immutable value base, shared across the package."""


class NotAdmissibleError(ValueError):
    """Input does not describe a nonzero admissible Hilbert polynomial."""


class OutOfScopeError(ValueError):
    """Classification query outside the supported codimension range."""


class SearchBoundError(RuntimeError):
    """Feasibility guard tripped: an exhaustive enumeration, or a
    partition too large to build, refused."""


# How a Value's __init__ writes its slots, past the __setattr__ that
# refuses; a module-level name, so a constructor looks up no attribute.
set_slot = object.__setattr__


class Value:
    """Base of the package's value classes, with the semantics of a frozen
    dataclass built by plain code, so importing one generates none.

    A subclass names its fields, in order, as its __slots__, and its
    __init__ writes each of them once with set_slot.  An instance equals
    only an instance of its own class with equal fields, hashes as the
    tuple of its fields, prints as Name(field=value, ...), pickles by
    calling its class on its fields, and refuses assignment and deletion
    with AttributeError (as a frozen dataclass does, whose
    FrozenInstanceError is one).
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
