"""Immutable records that compare as frozen dataclasses do, built on namedtuple."""

from collections import namedtuple


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """namedtuple(name, fields, defaults=defaults), equal only within its class.

    Subclass it with __slots__ = (), and check arguments in __new__ where a
    record has invariants. An instance equals another instance of the same
    class with equal fields, and nothing else, not even a plain tuple; it
    hashes as the tuple of its fields, and assigning to it raises
    AttributeError. Its repr is Name(field=value, ...).
    """
    base = namedtuple(name, fields, defaults=defaults)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not __eq__(self, other)

    base.__eq__, base.__ne__, base.__hash__ = __eq__, __ne__, tuple.__hash__
    return base
