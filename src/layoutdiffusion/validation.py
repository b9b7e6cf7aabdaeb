"""Input validation helpers for the estimator and CLI surfaces."""
from __future__ import annotations

import typing
from typing import Sequence

import numpy as np

from .data import Dataset, Layout, is_finite_number, require_int
from .exceptions import DataError
from .rng import SEED_END

def _holds(kind, value, bounded=True) -> bool:
    if kind is int:
        return (isinstance(value, int) and not isinstance(value, bool)
                and (not bounded or -2**63 <= value < 2**63))
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


def check_dataset(data) -> Dataset:
    """Accept a Dataset or a sequence of layouts; reject anything else."""
    if isinstance(data, Dataset):
        if len(data) == 0:
            raise DataError("dataset is empty")
        return data
    if isinstance(data, Sequence) and data and all(isinstance(l, Layout) for l in data):
        modes = {l.attribute_mode for l in data}
        if len(modes) != 1:
            raise DataError("layouts mix categorical and continuous attributes")
        if modes.pop() == "categorical":
            num_classes = int(max(max(l.labels) for l in data)) + 1
            names = tuple(f"class_{k}" for k in range(num_classes))
            return Dataset(layouts=tuple(data), label_names=names)
        dims = {int(l.features.shape[1]) for l in data}
        if len(dims) != 1:
            raise DataError("layouts have inconsistent feature dims")
        return Dataset(layouts=tuple(data), feature_dim=dims.pop())
    raise DataError("expected a Dataset or a non-empty sequence of Layout objects")


def check_label_conditions(conditions, num_classes: int) -> list:
    """Validate a list of label-id lists used as sampling conditions."""
    out = []
    for i, labels in enumerate(conditions):
        labels = [require_int(label, f"condition {i} label") for label in labels]
        if not labels:
            raise DataError(f"condition {i} has no elements")
        for label in labels:
            if not 0 <= label < num_classes:
                raise DataError(f"condition {i}: label {label} outside vocabulary "
                                f"of {num_classes}")
        out.append(labels)
    if not out:
        raise DataError("no sampling conditions given")
    return out


def check_feature_conditions(conditions, feature_dim: int) -> list:
    """Validate a list of [n, feature_dim] feature arrays used as sampling conditions."""
    out = [np.asarray(c, dtype=np.float64) for c in conditions]
    for i, feats in enumerate(out):
        if feats.ndim != 2 or feats.shape[1] != feature_dim:
            raise DataError(f"condition {i}: expected [n, {feature_dim}] features")
        if feats.shape[0] == 0:
            raise DataError(f"condition {i} has no elements")
    return out
