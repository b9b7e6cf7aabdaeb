"""Layout data model: elements, layouts, datasets, batching, synthesis.

Geometry convention: every element is a center-format box ``(cx, cy, w, h)``.
Raw files store canvas units; in-memory datasets store values normalized
component-wise to [-1, 1] (0 maps to -1, the full canvas range maps to +1,
for sizes as well as centers).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import DataError
from .rng import RngStream

DEFAULT_N_MAX = 36

_TOP_KEYS_CAT = {"canvas", "labels", "layouts", "meta"}
_TOP_KEYS_CONT = {"canvas", "feature_dim", "layouts", "meta"}
_LAYOUT_KEYS = {"id", "elements"}
_ELEMENT_KEYS_CAT = {"label", "bbox", "bbox_clamped"}
_ELEMENT_KEYS_CONT = {"feature", "bbox", "bbox_clamped"}


@dataclass(frozen=True)
class Element:
    """One design element: a box plus a categorical label or feature vector."""

    geometry: np.ndarray
    label: Optional[int] = None
    feature: Optional[np.ndarray] = None

    def __post_init__(self):
        geom = np.asarray(self.geometry, dtype=np.float64)
        if geom.shape != (4,):
            raise DataError(f"element geometry must have 4 components, got shape {geom.shape}")
        if not np.all(np.isfinite(geom)):
            raise DataError("element geometry must be finite")
        object.__setattr__(self, "geometry", geom)
        if (self.label is None) == (self.feature is None):
            raise DataError("element needs exactly one of label or feature")
        if self.label is not None and self.label < 0:
            raise DataError(f"element label must be non-negative, got {self.label}")
        if self.feature is not None:
            feat = np.asarray(self.feature, dtype=np.float64)
            if feat.ndim != 1 or not np.all(np.isfinite(feat)):
                raise DataError("element feature must be a finite 1-d vector")
            object.__setattr__(self, "feature", feat)


@dataclass(frozen=True)
class Layout:
    """A set of elements; storage order is preserved but carries no meaning."""

    elements: tuple
    id: str = ""

    def __post_init__(self):
        elements = tuple(self.elements)
        if len(elements) == 0:
            raise DataError(f"layout {self.id!r} has no elements")
        modes = {("categorical" if e.label is not None else "continuous") for e in elements}
        if len(modes) != 1:
            raise DataError(f"layout {self.id!r} mixes categorical and continuous attributes")
        object.__setattr__(self, "elements", elements)

    def __len__(self):
        return len(self.elements)

    @property
    def attribute_mode(self) -> str:
        return "categorical" if self.elements[0].label is not None else "continuous"

    @property
    def geometry(self) -> np.ndarray:
        return np.stack([e.geometry for e in self.elements])

    @property
    def labels(self) -> Optional[np.ndarray]:
        if self.attribute_mode != "categorical":
            return None
        return np.array([e.label for e in self.elements], dtype=np.int64)

    @property
    def features(self) -> Optional[np.ndarray]:
        if self.attribute_mode != "continuous":
            return None
        return np.stack([e.feature for e in self.elements])


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
    elements = [Element(geometry=2.0 * e.geometry / ranges - 1.0, label=e.label, feature=e.feature)
                for e in raw.elements]
    return Layout(elements=tuple(elements), id=raw.id)


def normalize_layout(raw: Layout, canvas) -> Layout:
    """Map canvas-unit geometry affinely onto [-1, 1] per component."""
    ranges = _canvas_ranges(canvas)
    for idx, e in enumerate(raw.elements):
        if np.any(e.geometry < 0) or np.any(e.geometry > ranges):
            raise DataError(
                f"layout {raw.id!r} element {idx}: geometry {e.geometry.tolist()} "
                f"outside canvas {canvas}"
            )
    return _normalize_unchecked(raw, ranges)


def denormalize_layout(layout: Layout, canvas) -> Layout:
    """Exact inverse of :func:`normalize_layout`; no clamping, overshoot passes through."""
    ranges = _canvas_ranges(canvas)
    elements = [
        Element(geometry=(e.geometry + 1.0) * ranges / 2.0, label=e.label, feature=e.feature)
        for e in layout.elements
    ]
    return Layout(elements=tuple(elements), id=layout.id)


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


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float64 range
        return False


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_numbers(value, count: int, where: str) -> np.ndarray:
    """A JSON list of ``count`` finite numbers, as float64."""
    if not (isinstance(value, list) and len(value) == count
            and all(_is_finite_number(v) for v in value)):
        raise DataError(f"{where}: expected {count} finite numbers, got {value!r}")
    return np.array(value, dtype=np.float64)


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
    if not all(_is_finite_number(v) and v > 0 for v in (width, height)):
        raise DataError(f"{where}: canvas must be positive numbers, got {width!r} x {height!r}")
    canvas = (float(width), float(height))

    if mode == "categorical":
        label_names = tuple(str(s) for s in _require_list(doc["labels"], f"{where} labels"))
        feature_dim = None
        elem_keys, elem_required = _ELEMENT_KEYS_CAT, {"label", "bbox"}
    else:
        label_names = None
        feature_dim = _require_int(doc["feature_dim"], f"{where} feature_dim")
        if feature_dim < 1:
            raise DataError(f"{where}: feature_dim must be >= 1")
        elem_keys, elem_required = _ELEMENT_KEYS_CONT, {"feature", "bbox"}

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
        elements = []
        for raw_el in raw_elements:
            _require_keys(raw_el, elem_keys, elem_required, f"{at} element")
            bbox = _require_numbers(raw_el["bbox"], 4, f"{at} bbox")
            if mode == "categorical":
                label = _require_int(raw_el["label"], f"{at} label")
                if not 0 <= label < len(label_names):
                    raise DataError(
                        f"{at}: label {label} outside vocabulary of {len(label_names)} names")
                elements.append(Element(geometry=bbox, label=label))
            else:
                feat = _require_numbers(raw_el["feature"], feature_dim, f"{at} feature")
                elements.append(Element(geometry=bbox, feature=feat))
        raw = Layout(elements=tuple(elements), id=lid)
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
        raw = denormalize_layout(layout, dataset.canvas)
        elements = []
        for e_norm, e_raw in zip(layout.elements, raw.elements):
            entry = {"bbox": [float(v) for v in e_raw.geometry]}
            if include_clamped:
                clamped_norm = np.clip(e_norm.geometry, -1.0, 1.0)
                entry["bbox_clamped"] = [float(v) for v in (clamped_norm + 1.0) * ranges / 2.0]
            if e_norm.label is not None:
                entry["label"] = int(e_norm.label)
            else:
                entry["feature"] = [float(v) for v in e_norm.feature]
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
        elements = []
        for label in labels:
            if spec.rule == "grid_by_label":
                geom = grid_rule_box(int(label), spec.num_classes)
            else:
                # Box fully inside the unit frame: size first, then center.
                wh = 0.05 + 0.45 * stream.uniform([2])
                cx = wh[0] / 2 + (1 - wh[0]) * stream.uniform()[()]
                cy = wh[1] / 2 + (1 - wh[1]) * stream.uniform()[()]
                geom = np.array([2 * cx - 1, 2 * cy - 1, 2 * wh[0] - 1, 2 * wh[1] - 1])
            elements.append(Element(geometry=geom, label=int(label)))
        layouts.append(Layout(elements=tuple(elements), id=f"synth-{i:06d}"))
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
    mask = np.asarray(mask, dtype=bool)
    categorical = np.asarray(attributes).ndim == 2
    layouts = []
    for row in range(geometry.shape[0]):
        n = int(mask[row].sum())
        elements = []
        for slot in range(geometry.shape[1]):
            if not mask[row, slot]:
                continue
            if categorical:
                elements.append(Element(geometry=geometry[row, slot],
                                        label=int(attributes[row, slot])))
            else:
                elements.append(Element(geometry=geometry[row, slot],
                                        feature=np.asarray(attributes[row, slot])))
        lid = ids[row] if ids is not None else f"layout-{row:06d}"
        if n == 0:
            raise DataError(f"batch row {row} has an all-false mask")
        layouts.append(Layout(elements=tuple(elements), id=lid))
    return layouts
