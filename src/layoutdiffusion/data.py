"""Layout data model: elements, layouts, datasets, batching, synthesis.

Geometry convention: every element is a center-format box ``(cx, cy, w, h)``.
Raw files store canvas units; in-memory datasets store values normalized
component-wise to [-1, 1] (0 maps to -1, the full canvas range maps to +1,
for sizes as well as centers).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exceptions import DataError
from .rng import RngStream

DEFAULT_N_MAX = 36

_TOP_KEYS_CAT = {"canvas", "labels", "layouts", "meta"}
_TOP_KEYS_CONT = {"canvas", "feature_dim", "layouts", "meta"}
_LAYOUT_KEYS = {"id", "elements"}
_ELEMENT_KEYS_CAT = {"label", "bbox", "bbox_clamped"}
_ELEMENT_KEYS_CONT = {"feature", "bbox", "bbox_clamped"}


class Element(NamedTuple):
    """One row of a :class:`Layout`, as :attr:`Layout.elements` returns it; not validated."""

    geometry: np.ndarray
    label: Optional[int]
    feature: Optional[np.ndarray]


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Layout:
    """A set of elements: ``geometry`` ``[n, 4]`` plus ``labels`` ``[n]`` or ``features``
    ``[n, d]``, stored as read-only copies.  Row order is preserved but carries no meaning."""

    geometry: np.ndarray
    labels: Optional[np.ndarray] = None
    features: Optional[np.ndarray] = None
    id: str = ""

    def __post_init__(self):
        geometry = _read_only(self.geometry, np.float64)
        if geometry.ndim != 2 or geometry.shape[1] != 4 or not np.all(np.isfinite(geometry)):
            raise DataError(f"layout {self.id!r}: geometry must be a finite [n, 4] array, "
                            f"got shape {geometry.shape}")
        n = len(geometry)
        if n == 0:
            raise DataError(f"layout {self.id!r} has no elements")
        object.__setattr__(self, "geometry", geometry)
        if (self.labels is None) == (self.features is None):
            raise DataError(f"layout {self.id!r} needs exactly one of labels or features")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n,) or labels.dtype.kind not in "iu" or np.any(labels < 0):
                raise DataError(f"layout {self.id!r}: labels must be {n} non-negative "
                                f"integers, got {labels.tolist()!r}")
            object.__setattr__(self, "labels", _read_only(labels, np.int64))
        else:
            features = _read_only(self.features, np.float64)
            if features.ndim != 2 or len(features) != n or not np.all(np.isfinite(features)):
                raise DataError(f"layout {self.id!r}: features must be a finite [{n}, d] "
                                f"array, got shape {features.shape}")
            object.__setattr__(self, "features", features)

    def __len__(self):
        return len(self.geometry)

    @property
    def attribute_mode(self) -> str:
        return "categorical" if self.labels is not None else "continuous"

    @property
    def elements(self) -> tuple:
        """One :class:`Element` per row, in storage order."""
        none = [None] * len(self)
        labels = none if self.labels is None else self.labels.tolist()
        features = none if self.features is None else self.features
        return tuple(map(Element, self.geometry, labels, features))


@dataclass(frozen=True)
class Dataset:
    layouts: tuple
    canvas: tuple = (100.0, 100.0)
    label_names: Optional[tuple] = None
    feature_dim: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "layouts", tuple(self.layouts))
        object.__setattr__(self, "canvas", (float(self.canvas[0]), float(self.canvas[1])))
        if self.canvas[0] <= 0 or self.canvas[1] <= 0:
            raise DataError("canvas dimensions must be positive")
        if (self.label_names is None) == (self.feature_dim is None):
            raise DataError("dataset needs exactly one of label_names or feature_dim")
        if self.label_names is not None:
            object.__setattr__(self, "label_names", tuple(self.label_names))

    def __len__(self):
        return len(self.layouts)

    @property
    def mode(self) -> str:
        return "categorical" if self.label_names is not None else "continuous"

    @property
    def num_classes(self) -> Optional[int]:
        return None if self.label_names is None else len(self.label_names)


@dataclass(frozen=True)
class Batch:
    """Padded, masked view of a list of layouts for the model."""

    geometry: np.ndarray  # [B, N_max, 4]
    attributes: np.ndarray  # [B, N_max] int or [B, N_max, attr_dim] float
    mask: np.ndarray  # [B, N_max] bool, True = real element

    @property
    def size(self):
        return self.geometry.shape[0]

    @property
    def n_max(self):
        return self.geometry.shape[1]


# ---------------------------------------------------------------------------
# normalization


def _canvas_ranges(canvas) -> np.ndarray:
    width, height = float(canvas[0]), float(canvas[1])
    return np.array([width, height, width, height])


def _normalize_unchecked(raw: Layout, ranges: np.ndarray) -> Layout:
    return replace(raw, geometry=2.0 * raw.geometry / ranges - 1.0)


def normalize_layout(raw: Layout, canvas) -> Layout:
    """Map canvas-unit geometry affinely onto [-1, 1] per component."""
    ranges = _canvas_ranges(canvas)
    outside = np.flatnonzero(np.any((raw.geometry < 0) | (raw.geometry > ranges), axis=1))
    if len(outside):
        idx = outside[0]
        raise DataError(
            f"layout {raw.id!r} element {idx}: geometry {raw.geometry[idx].tolist()} "
            f"outside canvas {canvas}"
        )
    return _normalize_unchecked(raw, ranges)


def denormalize_layout(layout: Layout, canvas) -> Layout:
    """Exact inverse of :func:`normalize_layout`; no clamping, overshoot passes through."""
    ranges = _canvas_ranges(canvas)
    return replace(layout, geometry=(layout.geometry + 1.0) * ranges / 2.0)


def to_corner_form(geometry) -> np.ndarray:
    """Center-format boxes to (x_left, y_top, x_center, y_center, x_right, y_bottom).

    Expects geometry in the unit-square frame used by the metrics.
    """
    g = np.asarray(geometry, dtype=np.float64)
    cx, cy, w, h = g[..., 0], g[..., 1], g[..., 2], g[..., 3]
    return np.stack(
        [cx - w / 2.0, cy - h / 2.0, cx, cy, cx + w / 2.0, cy + h / 2.0], axis=-1
    )


# ---------------------------------------------------------------------------
# file I/O


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise DataError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise DataError(f"{where}: missing fields {sorted(missing)}")


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise DataError(f"{where}: expected a list, got {value!r}")
    return value


def is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float64 range
        return False


def require_int(value, where: str) -> int:
    """``value`` as an int; a bool, a float or a string raises :class:`DataError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _require_numbers(value, count: int, where: str) -> list:
    """A JSON list of ``count`` finite numbers."""
    if not (isinstance(value, list) and len(value) == count
            and all(is_finite_number(v) for v in value)):
        raise DataError(f"{where}: expected {count} finite numbers, got {value!r}")
    return value


def load_dataset(path, strict_geometry: bool = True) -> Dataset:
    """Load and normalize a layout JSON file.

    The attribute mode comes from the file: a ``feature_dim`` key means
    continuous features, otherwise categorical labels.
    ``strict_geometry=False`` admits boxes outside the canvas (model output
    can overshoot); normalization is the same affine map either way.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    where = f"dataset {path}"
    if not isinstance(doc, dict):
        raise DataError(f"{where}: top level must be an object")

    mode = "continuous" if "feature_dim" in doc else "categorical"
    top_keys = _TOP_KEYS_CAT if mode == "categorical" else _TOP_KEYS_CONT
    vocab_key = "labels" if mode == "categorical" else "feature_dim"
    _require_keys(doc, top_keys, {"canvas", vocab_key, "layouts"}, where)
    _require_keys(doc["canvas"], {"width", "height"}, {"width", "height"}, f"{where} canvas")
    width, height = doc["canvas"]["width"], doc["canvas"]["height"]
    if not all(is_finite_number(v) and v > 0 for v in (width, height)):
        raise DataError(f"{where}: canvas must be positive numbers, got {width!r} x {height!r}")
    canvas = (float(width), float(height))

    if mode == "categorical":
        label_names = tuple(str(s) for s in _require_list(doc["labels"], f"{where} labels"))
        feature_dim = None
        elem_keys, elem_required = _ELEMENT_KEYS_CAT, {"label", "bbox"}
    else:
        label_names = None
        feature_dim = require_int(doc["feature_dim"], f"{where} feature_dim")
        if feature_dim < 1:
            raise DataError(f"{where}: feature_dim must be >= 1")
        elem_keys, elem_required = _ELEMENT_KEYS_CONT, {"feature", "bbox"}
    attribute_key = "labels" if mode == "categorical" else "features"

    layouts = []
    for raw_layout in _require_list(doc["layouts"], f"{where} layouts"):
        _require_keys(raw_layout, _LAYOUT_KEYS, _LAYOUT_KEYS, f"{where} layout entry")
        lid = str(raw_layout["id"])
        at = f"{where} layout {lid!r}"
        raw_elements = _require_list(raw_layout["elements"], f"{at} elements")
        if len(raw_elements) == 0:
            raise DataError(f"{at} has zero elements")
        if len(raw_elements) > DEFAULT_N_MAX:
            raise DataError(f"{at} has {len(raw_elements)} elements, limit is {DEFAULT_N_MAX}")
        bboxes, attributes = [], []
        for raw_el in raw_elements:
            _require_keys(raw_el, elem_keys, elem_required, f"{at} element")
            bboxes.append(_require_numbers(raw_el["bbox"], 4, f"{at} bbox"))
            if mode == "categorical":
                label = require_int(raw_el["label"], f"{at} label")
                if not 0 <= label < len(label_names):
                    raise DataError(
                        f"{at}: label {label} outside vocabulary of {len(label_names)} names")
                attributes.append(label)
            else:
                attributes.append(_require_numbers(raw_el["feature"], feature_dim,
                                                   f"{at} feature"))
        raw = Layout(geometry=bboxes, id=lid, **{attribute_key: attributes})
        layouts.append(normalize_layout(raw, canvas) if strict_geometry
                       else _normalize_unchecked(raw, _canvas_ranges(canvas)))

    return Dataset(layouts=tuple(layouts), canvas=canvas,
                   label_names=label_names, feature_dim=feature_dim)


def dataset_to_dict(dataset: Dataset, meta: Optional[dict] = None, include_clamped=False) -> dict:
    """Dataset as a schema dict with bbox back in canvas units."""
    doc = {"canvas": {"width": dataset.canvas[0], "height": dataset.canvas[1]}}
    if dataset.mode == "categorical":
        doc["labels"] = list(dataset.label_names)
    else:
        doc["feature_dim"] = dataset.feature_dim
    ranges = _canvas_ranges(dataset.canvas)
    entries = []
    for layout in dataset.layouts:
        bboxes = denormalize_layout(layout, dataset.canvas).geometry.tolist()
        if include_clamped:
            clamped = ((np.clip(layout.geometry, -1.0, 1.0) + 1.0) * ranges / 2.0).tolist()
        attribute_key, attributes = (("label", layout.labels) if layout.labels is not None
                                     else ("feature", layout.features))
        elements = []
        for row, attribute in enumerate(attributes.tolist()):
            entry = {"bbox": bboxes[row]}
            if include_clamped:
                entry["bbox_clamped"] = clamped[row]
            entry[attribute_key] = attribute
            elements.append(entry)
        entries.append({"id": layout.id, "elements": elements})
    doc["layouts"] = entries
    if meta is not None:
        doc["meta"] = meta
    return doc


def save_dataset(dataset: Dataset, path, meta: Optional[dict] = None, include_clamped=False):
    doc = dataset_to_dict(dataset, meta=meta, include_clamped=include_clamped)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic datasets


@dataclass(frozen=True)
class SynthSpec:
    num_layouts: int
    num_classes: int
    elements_per_layout_range: tuple = (2, 6)
    rule: str = "grid_by_label"

    def __post_init__(self):
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        if self.num_layouts < 1:
            raise DataError("num_layouts must be >= 1")
        lo, hi = self.elements_per_layout_range
        if not (1 <= lo <= hi):
            raise DataError(f"bad elements_per_layout_range {self.elements_per_layout_range}")
        if self.rule not in ("grid_by_label", "random_boxes"):
            raise DataError(f"unknown synthesis rule {self.rule!r}")


def grid_rule_box(label: int, num_classes: int) -> np.ndarray:
    """The fixed normalized box assigned to a class by the grid rule.

    Classes tile a near-square grid; each box fills 70% of its cell.  The
    map depends on the label only, so layout geometry under this rule is a
    pure function of the label multiset.
    """
    cols = int(np.ceil(np.sqrt(num_classes)))
    rows = int(np.ceil(num_classes / cols))
    r, c = divmod(int(label), cols)
    # Unit-frame cell center and box size, then to the [-1, 1] encoding.
    cx = (c + 0.5) / cols
    cy = (r + 0.5) / rows
    w = 0.7 / cols
    h = 0.7 / rows
    return np.array([2 * cx - 1, 2 * cy - 1, 2 * w - 1, 2 * h - 1])


def make_synthetic_dataset(spec: SynthSpec, seed: int) -> Dataset:
    """Deterministic synthetic dataset; a pure function of (spec, seed)."""
    stream = RngStream(seed)
    lo, hi = spec.elements_per_layout_range
    layouts = []
    for i in range(spec.num_layouts):
        n = int(stream.integers(lo, hi + 1)[()]) if lo < hi else lo
        labels = stream.integers(0, spec.num_classes, [n])
        geometry = np.empty((n, 4))
        for row, label in enumerate(labels):
            if spec.rule == "grid_by_label":
                geometry[row] = grid_rule_box(int(label), spec.num_classes)
            else:
                # Box fully inside the unit frame: size first, then center.
                wh = 0.05 + 0.45 * stream.uniform([2])
                cx = wh[0] / 2 + (1 - wh[0]) * stream.uniform()[()]
                cy = wh[1] / 2 + (1 - wh[1]) * stream.uniform()[()]
                geometry[row] = [2 * cx - 1, 2 * cy - 1, 2 * wh[0] - 1, 2 * wh[1] - 1]
        layouts.append(Layout(geometry=geometry, labels=labels, id=f"synth-{i:06d}"))
    label_names = tuple(f"class_{k}" for k in range(spec.num_classes))
    return Dataset(layouts=tuple(layouts), canvas=(100.0, 100.0), label_names=label_names)


# ---------------------------------------------------------------------------
# batching


def pad_conditions(conditions) -> tuple:
    """Pad per-layout attributes to ``(attributes, mask)``; masked slots are exactly zero.

    Each condition is one layout's label ids ``[n]`` or features ``[n, attr_dim]``.
    """
    conditions = [np.asarray(c) for c in conditions]
    if not conditions:
        raise DataError("cannot batch zero layouts")
    batch_size = len(conditions)
    n_max = max(len(c) for c in conditions)
    trailing = conditions[0].shape[1:]
    dtype = np.int64 if not trailing else np.float64
    attributes = np.zeros((batch_size, n_max) + trailing, dtype=dtype)
    mask = np.zeros((batch_size, n_max), dtype=bool)
    for row, cond in enumerate(conditions):
        if cond.shape[1:] != trailing:
            raise DataError("cannot batch layouts with mixed attribute modes or feature dims")
        attributes[row, :len(cond)] = cond
        mask[row, :len(cond)] = True
    return attributes, mask


def pad_batch(layouts: Sequence[Layout]) -> Batch:
    """Pad layouts to the batch maximum; masked slots are exactly zero."""
    layouts = list(layouts)
    attributes, mask = pad_conditions(
        [l.labels if l.attribute_mode == "categorical" else l.features for l in layouts])
    geometry = np.zeros(mask.shape + (4,))
    for row, layout in enumerate(layouts):
        geometry[row, :len(layout)] = layout.geometry
    return Batch(geometry=geometry, attributes=attributes, mask=mask)


def batch_to_layouts(geometry, attributes, mask, ids=None) -> list:
    """Strip padding and rebuild layouts from batch-shaped arrays."""
    geometry = np.asarray(geometry)
    attributes = np.asarray(attributes)
    mask = np.asarray(mask, dtype=bool)
    attribute_key = "labels" if attributes.ndim == 2 else "features"
    layouts = []
    for row, valid in enumerate(mask):
        if not valid.any():
            raise DataError(f"batch row {row} has an all-false mask")
        lid = ids[row] if ids is not None else f"layout-{row:06d}"
        layouts.append(Layout(geometry=geometry[row, valid], id=lid,
                              **{attribute_key: attributes[row, valid]}))
    return layouts
