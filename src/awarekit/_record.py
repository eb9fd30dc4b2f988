"""The shared base of awarekit's immutable values: formula nodes and records.

They are plain classes rather than dataclasses so that importing the
package stays fast: a dataclass compiles several methods per class at
import time, and the ``dataclasses`` module imports ``inspect``.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """An immutable value whose fields are named, in order, by __match_args__.

    A subclass declares its fields as annotations in its body, and a class
    attribute it assigns to a field's name is that field's default.  The constructor
    takes the fields positionally or by keyword, then runs __post_init__.
    Two records are equal when they are of the same class and their fields
    are equal.  A record hashes as the tuple of its fields, so one that holds
    a dict does not hash.  Assigning or deleting an attribute raises
    AttributeError.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # only the class's own annotations, on every supported version
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if names:
            cls.__match_args__ = names

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, from a call's arguments and the
        class's defaults."""
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        rest = names[len(args):]
        for name in kwargs:
            if name not in rest:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values = list(args)
        for name in rest:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in cls.__dict__:
                values.append(cls.__dict__[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which the
        # frozen __setattr__ leaves as the only way to set a field
        return type(self), self._values()
