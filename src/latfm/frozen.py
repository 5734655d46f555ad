"""Base of the immutable value classes.

A subclass names its fields in _fields and sets each one in its own
__init__ with object.__setattr__.  An instance equals only an instance of
the same class with equal fields, hashes as the tuple of its fields, prints
as Name(field=value, ...) and refuses assignment and deletion.  A field left
out of _fields (IsotropicQuotient._solve) is neither compared nor printed.
"""

from operator import attrgetter


class Frozen:
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        # eq and hash per class, so that a memo lookup on a Lattice key
        # makes no more calls than the dataclass methods did
        super().__init_subclass__()
        key = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        single = len(cls._fields) == 1

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash((key(self),) if single else key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
