"""Base of the immutable value classes.

A subclass names its fields once, in _fields, and the defaults of trailing
fields in _defaults.  Unless it has its own __init__ (the classes that
normalise their input do), it gets one compiled once, as namedtuple builds
its __new__: it stores the fields, given in order, then calls __post_init__,
which holds the class's checks, if there is one.  An instance equals only an
instance of the same class with equal fields, hashes as the tuple of its
fields, prints as Name(field=value, ...) and refuses assignment and deletion.
A field left out of _fields (IsotropicQuotient._solve) is not compared or
printed."""

from operator import attrgetter

from .errors import LatfmError


def _make_init(cls):
    fields = cls._fields
    # a field name that is not an identifier is a SyntaxError here
    source = (f"def __init__(self, {', '.join(fields)}):\n"
              f"    self.__dict__.update({', '.join(f'{f}={f}' for f in fields)})\n"
              + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""))
    namespace = {"__name__": cls.__module__}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    # a KeyError here means _defaults names a field that is not trailing
    init.__defaults__ = tuple(cls._defaults[f] for f in fields[len(fields) - len(cls._defaults):])
    return init


class Frozen:
    _fields: tuple[str, ...]
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)
        # eq and hash per class, so that a memo lookup on a Lattice key
        # makes no more calls than the dataclass methods did
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

    def _require_int_fields(self):
        for name in self._fields:
            if type(value := getattr(self, name)) is not int:  # bool is refused too
                raise LatfmError(
                    f"{type(self).__qualname__}.{name} must be an integer, not {value!r}")

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
