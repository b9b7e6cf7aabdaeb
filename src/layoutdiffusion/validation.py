"""What counts as an integer or a finite number from outside the package, as a value and as
an array, how an outside value becomes an array, and the checks of configs and seeds built
on it.  Each caller passes its own range and raises its own errors."""
from __future__ import annotations

import math
import typing

import numpy as np

from .exceptions import DataError

SEED_END = 2**64  # seeds are 64-bit words: [0, SEED_END)


def is_integer(value, low=-math.inf, high=math.inf) -> bool:
    """A Python or numpy integer, never a bool, in ``[low, high)``."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= int(value) < high)


def is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float64 range
        return False


def is_integer_array(array: np.ndarray) -> bool:
    """An array of integer dtype, never bool."""
    return array.dtype.kind in "iu"


def is_finite_array(array: np.ndarray) -> bool:
    """An array of integer or float dtype (never bool or string) with no NaN or infinity;
    an object array, as of an integer beyond int64, when each entry is_finite_number."""
    if array.dtype.kind == "O":
        return all(map(is_finite_number, array.flat))
    return array.dtype.kind in "iuf" and bool(np.isfinite(array).all())


def as_array(value) -> np.ndarray:
    """``value`` as numpy makes it an array.  A ragged nesting of sequences, which numpy
    cannot shape, becomes a 1-d object array of its items, so that a caller's shape and
    dtype checks refuse it with their own message."""
    try:
        return np.asarray(value)
    except ValueError:
        items = list(value)
        array = np.empty(len(items), dtype=object)
        for i, item in enumerate(items):
            array[i] = item
        return array


def require_int(value, where: str) -> int:
    """``value`` as an int; a bool, a float or a string raises :class:`DataError`."""
    if not is_integer(value):
        raise DataError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _holds(kind, value, bounded=True) -> bool:
    if kind is int:
        end = 2**63 if bounded else math.inf
        return is_integer(value, -end, end)
    if kind is float:
        return is_finite_number(value)
    return isinstance(value, kind)


def check_field_types(config, unbounded=()):
    """Raise TypeError unless each field of the dataclass ``config`` holds its annotated type.

    int fields take integers within int64 but not bools (the int fields named
    in ``unbounded`` any integer; the caller checks their range), float fields
    finite real numbers, and ``Optional`` fields also ``None``.  A numpy scalar
    is stored as its Python value, so the config stays JSON-serializable.
    """
    for name, kind in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        if isinstance(value, np.generic):
            value = value.item()
            object.__setattr__(config, name, value)
        if value is None and type(None) in typing.get_args(kind):
            continue
        kind = next((k for k in typing.get_args(kind) if k is not type(None)), kind)
        if not _holds(kind, value, name not in unbounded):
            raise TypeError(f"{type(config).__name__}.{name} must be {kind.__name__}, "
                            f"got {value!r}")


def check_seed(value, name: str = "seed") -> int:
    """``value`` as a seed: an integer in [0, 2**64), set explicitly."""
    if value is None:
        raise DataError(f"{name} must be set explicitly (no wall-clock defaults)")
    seed = require_int(value, name)
    if not 0 <= seed < SEED_END:
        raise DataError(f"{name} {seed} is not in [0, 2**64)")
    return seed
