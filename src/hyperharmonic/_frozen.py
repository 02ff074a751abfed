"""Base of every immutable value class: the expression nodes, the weight
kinds, the series records and the catalog records.

A subclass lists its fields, in order, as __slots__. Frozen binds them
in __init__ (positionally or by keyword), compares and hashes instances
by class and fields, names both in repr, refuses assignment after
construction, and pickles, copies and replace()s through the
constructor. Nothing is generated per class, so defining one costs what
a plain class costs. A subclass that has defaults, or normalizes or
validates its arguments, defines its own __init__ whose parameters are
its fields; it passes the final values on to Frozen.__init__ or stores
each with object.__setattr__, which passes the guard.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"({', '.join(names)}), got {len(args)} "
                                f"positional and keywords {sorted(kwargs)}")
            args = [given[name] for name in names]
        # nearly every class has at most two fields, and a loop would cost
        # more than their stores; object.__setattr__ passes the guard below
        n = len(args)
        if n == 2:
            _set(self, names[0], args[0])
            _set(self, names[1], args[1])
        elif n == 1:
            _set(self, names[0], args[0])
        elif n:
            for name, value in zip(names, args):
                _set(self, name, value)

    def replace(self, **changes):
        """Copy with the named fields changed. It is built through the
        constructor, so normalization and validation run again, and an
        unknown field raises TypeError."""
        fields = dict(zip(self.__slots__, self._fields()))
        fields.update(changes)
        return type(self)(**fields)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # rebuild through the constructor: the default slot-state restore
        # would assign attributes and hit the guard above
        return type(self), self._fields()


def slot_setters(cls) -> tuple:
    """The setters of cls's fields, in the order of its __slots__. A class
    built once per sum or point stores its fields through them, past the
    guard of Frozen.__setattr__ and without a lookup by name."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
