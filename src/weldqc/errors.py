"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto process exit codes: schema/input problems exit 2,
configuration problems exit 3, numeric/domain problems exit 4.
"""

import functools
from numbers import Integral


class WeldQCError(Exception):
    """Base class for all weldqc errors."""


class SchemaError(WeldQCError):
    """Input data does not match the expected table schema."""

    exit_code = 2


class ConfigError(WeldQCError):
    """A run configuration is inconsistent or references unknown entities."""

    exit_code = 3


class DomainError(WeldQCError):
    """A numeric argument is outside the mathematical domain of an operation."""

    exit_code = 4


def check_integer(name: str, value, error: type[WeldQCError] = DomainError) -> int:
    """`value` itself if it is an integer (a numpy one too) and not a boolean; else `error`."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def checked(cls):
    """Run `cls._check(self)` on every new instance of the NamedTuple `cls`.

    `_check` raises on bad field values.  It runs from the constructor, `_make`
    and `_replace` alike, so no instance skips it.
    """
    new = cls.__new__

    @functools.wraps(new)
    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls
