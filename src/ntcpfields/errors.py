"""Exception hierarchy shared across the package, and its input validators.

Everything derives from ValueError so callers that do not care about the
finer distinctions can catch a single type; the CLI maps ConfigError and
I/O problems to exit code 2 and every other ValueError to exit code 1.

Every input check goes through a validator that returns the value it accepts:

* ``integer(value, name, ge, le)``: an int or np.integer (no bool, no 2.0),
  returned as a Python int;
* ``real(value, name, gt, ge, lt, le)``: a finite real (no bool, nan or inf);
* ``probability(value, name)``: a real in [0, 1];
* ``read_field(data, key, kind, where, default)``: a typed field of a config,
  model or sample-header mapping, else ConfigError naming key and ``where``.

The first three raise DomainError, or ParameterError in model constructors.
``naming(source)`` puts the file a config or model came from in front of
the message of any error raised while it is read.
"""

import math
from contextlib import contextmanager

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(DomainError):
    """A model was constructed with invalid parameters."""


class UnattainableTargetError(DomainError):
    """A requested target value cannot be reached within the search cap."""


class DegenerateError(DomainError):
    """A distribution or normalizer is degenerate (zero variance)."""


class ShapeError(ValueError):
    """Array / region dimensions do not match."""


class CapacityError(ValueError):
    """A requested allocation exceeds the configured cell cap."""


class ConfigError(ValueError):
    """A config or sample-file field is missing, malformed or has the wrong type."""


def _must(name, kind, value, gt=None, ge=None, lt=None, le=None) -> str:
    bounds = [f" {op} {b!r}" for op, b in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
              if b is not None]
    return f"{name} must be {kind}{' and'.join(bounds)}, got {value!r}"


def integer(value, name, ge=None, le=None, error=DomainError):
    if ((type(value) is int or isinstance(value, np.integer))  # type(True) is bool
            and (ge is None or value >= ge) and (le is None or value <= le)):
        return int(value)  # so that sizes computed from it never wrap in int64
    raise error(_must(name, "an integer", value, ge=ge, le=le))


def real(value, name, gt=None, ge=None, lt=None, le=None, error=DomainError):
    if ((type(value) in (float, int) or isinstance(value, (np.floating, np.integer)))
            and math.isfinite(value) and (gt is None or value > gt) and (ge is None or value >= ge)
            and (lt is None or value < lt) and (le is None or value <= le)):
        return value
    raise error(_must(name, "a finite real", value, gt, ge, lt, le))


def probability(value, name, error=DomainError):
    return real(value, name, ge=0, le=1, error=error)


def _is(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is(v, kind[0]) for v in value)
    if kind is int or kind is float:  # any real is a float field; a bool is neither
        number = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, kind)


def read_field(data, key, kind, where, default=None):
    """``data[key]``, or ``default`` (None: the field is required) for a
    missing key or a null, checked to be of ``kind``: int, float (any real),
    str, dict, a tuple of types, or ``[int]``/``[float]`` for a list."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    value = data.get(key, default)
    if value is None:
        raise ConfigError(f"{where} has no value for {key!r}")
    if not _is(value, kind):
        names = {int: "an integer", float: "a number", dict: "an object", str: "a string"}
        expected = (f"a list, each {names[kind[0]]}" if isinstance(kind, list)
                    else " or ".join(map(names.get, kind if isinstance(kind, tuple) else [kind])))
        raise ConfigError(f"{key} in {where} must be {expected}, got {value!r}")
    return value


@contextmanager
def naming(source):
    """Re-raise an error of this module from the block as the same type, its
    message led by ``source`` (say, the file being read)."""
    try:
        yield
    except (DomainError, ShapeError, CapacityError, ConfigError) as exc:
        raise type(exc)(f"{source}: {exc}") from None
