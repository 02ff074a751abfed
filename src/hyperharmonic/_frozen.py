"""Base of every immutable value class: the expression nodes, the weight
kinds, the series records and the catalog records.

Each subclass gets one field table when it is defined: its field names,
in order, and their slot setters. The fields are the __slots__ of the
nearest Frozen class in its MRO that declares a non-empty __slots__: a
subclass that declares its own has exactly those fields, one with
__slots__ = () keeps its base's, and the slots of a base that is not
Frozen (a hidden slot, such as a weight kind's walks) are never fields.
Frozen.__init__ stores every field through the table (positionally or
by keyword); instances compare and hash by class and fields, name both
in repr, refuse assignment after construction, and pickle, copy and
replace() through the constructor. Nothing is generated per class. A
subclass that has defaults, or normalizes or validates its arguments,
defines its own __init__ whose parameters are its fields and passes the
final values on to Frozen.__init__.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    __slots__ = ()

    # the field table: names and slot setters, in order
    __names = ()
    __setters = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for base in cls.__mro__:
            names = base.__dict__.get("__slots__")
            if names and issubclass(base, Frozen):
                cls.__names = tuple(names)
                cls.__setters = tuple(base.__dict__[name].__set__
                                      for name in names)
                break

    def __init__(self, *args, **kwargs):
        setters = self.__setters
        if kwargs or len(args) != len(setters):
            names = self.__names
            given = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"({', '.join(names)}), got {len(args)} "
                                f"positional and keywords {sorted(kwargs)}")
            args = [given[name] for name in names]
        # a slot's setter passes the guard of __setattr__ below
        for store, value in zip(setters, args):
            store(self, value)

    def replace(self, **changes):
        """Copy with the named fields changed. It is built through the
        constructor, so normalization and validation run again, and an
        unknown field raises TypeError."""
        fields = dict(zip(self.__names, self._fields()))
        fields.update(changes)
        return type(self)(**fields)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__names)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__names)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuild through the constructor: the default slot-state restore
        # would assign attributes and hit the guard above
        return type(self), self._fields()
