"""Layout data model: elements, layouts, datasets, batching, synthesis.

Geometry convention: every element is a center-format box ``(cx, cy, w, h)``.
Raw files store canvas units; in-memory datasets store values normalized
component-wise to [-1, 1] (0 maps to -1, the full canvas range maps to +1,
for sizes as well as centers).
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .exceptions import DataError
from .rng import RngStream, to_integers, to_uniforms
from .validation import (is_finite_array, is_finite_number, is_integer, is_integer_array,
                         require_int)

DEFAULT_N_MAX = 36

_TOP_KEYS_CAT = {"canvas", "labels", "layouts", "meta"}
_TOP_KEYS_CONT = {"canvas", "feature_dim", "layouts", "meta"}
_LAYOUT_KEYS = frozenset({"id", "elements"})


class Element(NamedTuple):
    """One row of a :class:`Layout`, as :attr:`Layout.elements` returns it; not validated."""

    geometry: np.ndarray
    label: Optional[int]
    feature: Optional[np.ndarray]


def _read_only(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Layout:
    """A set of elements: ``geometry`` ``[n, 4]`` plus ``labels`` ``[n]`` or ``features``
    ``[n, d]``, stored as read-only copies.  Row order is preserved but carries no meaning.
    A layout equals only itself and hashes by identity."""

    geometry: np.ndarray
    labels: Optional[np.ndarray] = None
    features: Optional[np.ndarray] = None
    id: str = ""

    def __post_init__(self):
        geometry = np.asarray(self.geometry)
        if geometry.ndim != 2 or geometry.shape[1] != 4 or not is_finite_array(geometry):
            raise DataError(f"layout {self.id!r}: geometry must be a finite [n, 4] array, "
                            f"got shape {geometry.shape}")
        n = len(geometry)
        if n == 0:
            raise DataError(f"layout {self.id!r} has no elements")
        object.__setattr__(self, "geometry", _read_only(geometry, np.float64))
        if (self.labels is None) == (self.features is None):
            raise DataError(f"layout {self.id!r} needs exactly one of labels or features")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if (labels.shape != (n,) or not is_integer_array(labels)
                    or not ((labels >= 0) & (labels < 2**63)).all()):
                raise DataError(f"layout {self.id!r}: labels must be {n} non-negative "
                                f"integers, got {labels.tolist()!r}")
            object.__setattr__(self, "labels", _read_only(labels, np.int64))
        else:
            features = np.asarray(self.features)
            if features.ndim != 2 or len(features) != n or not is_finite_array(features):
                raise DataError(f"layout {self.id!r}: features must be a finite [{n}, d] "
                                f"array, got shape {features.shape}")
            object.__setattr__(self, "features", _read_only(features, np.float64))

    @classmethod
    def _checked(cls, geometry, id, labels=None, features=None) -> "Layout":
        """A layout of arrays that are already validated and read-only, taken as they are."""
        layout = object.__new__(cls)
        layout.__dict__.update(geometry=geometry, labels=labels, features=features, id=id)
        return layout

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
    """Layouts with their canvas and one attribute head, ``label_names`` or ``feature_dim``.
    Each layout must have the head's mode, label ids below ``len(label_names)`` or features
    of width ``feature_dim``, at most ``DEFAULT_N_MAX`` elements, and boxes that stay
    finite in canvas units, so that every dataset saves and loads back; else a
    :class:`DataError` names the first layout that does not."""

    layouts: tuple
    canvas: tuple = (100.0, 100.0)
    label_names: Optional[tuple] = None
    feature_dim: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "layouts", tuple(self.layouts))
        canvas = self.canvas.tolist() if isinstance(self.canvas, np.ndarray) else self.canvas
        canvas = ([v.item() if isinstance(v, np.generic) else v for v in canvas]
                  if isinstance(canvas, (tuple, list)) else ())
        if len(canvas) != 2 or not all(is_finite_number(v) and v > 0 for v in canvas):
            raise DataError(f"canvas must be two positive finite numbers, got {self.canvas!r}")
        object.__setattr__(self, "canvas", (float(canvas[0]), float(canvas[1])))
        if (self.label_names is None) == (self.feature_dim is None):
            raise DataError("dataset needs exactly one of label_names or feature_dim")
        if self.label_names is not None:
            if not (isinstance(self.label_names, (tuple, list))
                    and all(isinstance(name, str) for name in self.label_names)):
                raise DataError(f"label_names must be a list or tuple of strings, got "
                                f"{self.label_names!r}")
            object.__setattr__(self, "label_names", tuple(self.label_names))
        elif not is_integer(self.feature_dim, 1):
            raise DataError(f"feature_dim must be an integer >= 1, got {self.feature_dim!r}")
        else:
            object.__setattr__(self, "feature_dim", int(self.feature_dim))
        # The first item of ``layouts``, in order, that the head cannot hold, if any.
        layouts, categorical = self.layouts, self.label_names is not None
        name, width = ("labels", ()) if categorical else ("features", (self.feature_dim,))
        fault = next((i for i, layout in enumerate(layouts)
                      if not (isinstance(layout, Layout) and len(layout) <= DEFAULT_N_MAX
                              and getattr(layout, name) is not None
                              and getattr(layout, name).shape[1:] == width)), len(layouts))
        # An earlier layout may hold a label outside the vocabulary, or a box that leaves
        # the float64 range in canvas units, where a save writes it.
        overflow = None  # the element of such a box
        if fault:
            head = layouts[:fault]
            with np.errstate(over="ignore"):
                boxes = _denormalized(np.concatenate([layout.geometry for layout in head]),
                                      _canvas_ranges(self.canvas))
            bad = ~np.isfinite(boxes).all(axis=1)
            if categorical:
                bad |= np.concatenate([layout.labels for layout in head]) >= len(self.label_names)
            first = np.flatnonzero(bad)
            if len(first):
                starts = list(accumulate(map(len, head), initial=0))
                fault = int(np.searchsorted(starts, first[0], side="right")) - 1
                if not np.isfinite(boxes[first[0]]).all():
                    overflow = first[0] - starts[fault]
        if fault < len(layouts):
            layout = layouts[fault]
            if not isinstance(layout, Layout):
                raise DataError(f"dataset item {fault} is a {type(layout).__name__}, not a Layout")
            if len(layout) > DEFAULT_N_MAX:
                raise DataError(f"layout {layout.id!r}: it has {len(layout)} elements, limit is "
                                f"{DEFAULT_N_MAX}")
            if overflow is not None:
                raise DataError(f"layout {layout.id!r} element {overflow}: geometry "
                                f"{layout.geometry[overflow].tolist()} leaves the float64 range "
                                f"in the units of canvas {self.canvas}")
            need = (f"label ids below {len(self.label_names)}" if categorical
                    else f"features of width {self.feature_dim}")
            raise DataError(f"layout {layout.id!r}: the dataset needs {need}")

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


# ---------------------------------------------------------------------------
# normalization


def _canvas_ranges(canvas) -> np.ndarray:
    width, height = float(canvas[0]), float(canvas[1])
    return np.array([width, height, width, height])


def _normalized(geometry: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    return 2.0 * geometry / ranges - 1.0


def _denormalized(geometry: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    return (geometry + 1.0) * ranges / 2.0


def normalize_layout(raw: Layout, canvas) -> Layout:
    """Map canvas-unit geometry affinely onto [-1, 1] per component."""
    return _normalize(raw, canvas, strict=True)


def _normalize(raw: Layout, canvas, strict: bool) -> Layout:
    """:func:`normalize_layout`, whose canvas check only a ``strict`` call makes.  A box
    outside the canvas, or one that the map takes beyond the float64 range, raises a
    :class:`DataError` naming the layout and the element."""
    ranges = _canvas_ranges(canvas)
    outside = np.flatnonzero(np.any((raw.geometry < 0) | (raw.geometry > ranges), axis=1))
    if strict and len(outside):
        idx = outside[0]
        raise DataError(
            f"layout {raw.id!r} element {idx}: geometry {raw.geometry[idx].tolist()} "
            f"outside canvas {canvas}"
        )
    with np.errstate(over="ignore"):
        geometry = _normalized(raw.geometry, ranges)
    overflow = np.flatnonzero(~np.isfinite(geometry).all(axis=1))
    if len(overflow):
        idx = overflow[0]
        raise DataError(f"layout {raw.id!r} element {idx}: bbox {raw.geometry[idx].tolist()} "
                        f"leaves the float64 range once normalized")
    return replace(raw, geometry=geometry)


def denormalize_layout(layout: Layout, canvas) -> Layout:
    """Exact inverse of :func:`normalize_layout`; no clamping, overshoot passes through."""
    return replace(layout, geometry=_denormalized(layout.geometry, _canvas_ranges(canvas)))


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


def _number_rows(rows: list, width: int) -> Optional[np.ndarray]:
    """Non-empty ``rows`` as a float64 ``[len(rows), width]`` array, or None unless every
    row is a JSON list of ``width`` finite numbers.  A bool is not a number here."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        return None
    flat = list(chain.from_iterable(rows))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        values = np.array(flat, dtype=np.float64).reshape(-1, width)
    except OverflowError:  # an integer literal beyond the float64 range
        return None
    return values if is_finite_array(values) else None


def _require_numbers(value, count: int, where: str):
    """Raise :class:`DataError` unless ``value`` is a JSON list of ``count`` finite numbers,
    by the test that :func:`_number_rows` makes of each row of a file."""
    if _number_rows([value], count) is None:
        raise DataError(f"{where}: expected {count} finite numbers, got {value!r}")


def _label_array(values: list, num_classes: int) -> Optional[np.ndarray]:
    """``values`` as an int64 array, or None unless each is an integer in the vocabulary."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        labels = np.array(values, dtype=np.int64)
    except OverflowError:  # beyond int64, so outside any vocabulary
        return None
    return labels if ((labels >= 0) & (labels < num_classes)).all() else None


def _checked_layouts(entries: list, attribute: str, size: int, canvas, strict: bool):
    """The layout entries of a file, checked and normalized in whole-file array passes.

    All boxes go into one read-only ``[E, 4]`` array in file order, and all labels
    (``attribute`` "label", ``size`` the vocabulary) or features (``attribute``
    "feature", ``size`` the feature dim) into one read-only ``[E]`` or ``[E, size]``
    array; each layout holds slices of them.  Returns None as soon as a check fails;
    :func:`_raise_first_fault` then names the fault.
    """
    if not entries:
        return ()
    required = {"bbox", attribute}
    allowed = required | {"bbox_clamped"}
    if not (set(map(type, entries)) <= {dict}
            and set(map(frozenset, entries)) <= {_LAYOUT_KEYS}):
        return None
    groups = [entry["elements"] for entry in entries]
    if not set(map(type, groups)) <= {list}:
        return None
    counts = list(map(len, groups))
    if not all(1 <= count <= DEFAULT_N_MAX for count in counts):
        return None
    elements = list(chain.from_iterable(groups))
    if not (set(map(type, elements)) <= {dict}
            and all(required <= keys <= allowed for keys in set(map(frozenset, elements)))):
        return None
    geometry = _number_rows(list(map(itemgetter("bbox"), elements)), 4)
    values = list(map(itemgetter(attribute), elements))
    attributes = (_label_array(values, size) if attribute == "label"
                  else _number_rows(values, size))
    if geometry is None or attributes is None:
        return None
    ranges = _canvas_ranges(canvas)
    if strict and ((geometry < 0) | (geometry > ranges)).any():
        return None
    with np.errstate(over="ignore"):
        geometry = _normalized(geometry, ranges)
    if not np.isfinite(geometry).all():
        return None
    geometry.flags.writeable = attributes.flags.writeable = False
    bounds = list(accumulate(counts, initial=0))
    return tuple(Layout._checked(geometry[start:stop], str(entry["id"]),
                                 **{attribute + "s": attributes[start:stop]})
                 for entry, start, stop in zip(entries, bounds, bounds[1:]))


def _raise_first_fault(entries: list, where: str, attribute: str, size: int, canvas,
                       strict: bool):
    """Raise the :class:`DataError` of the first fault in ``entries``, in file order.

    Each layout is checked in turn: its own fields, then each element's fields
    (keys, ``bbox``, then label or feature), then its geometry against the canvas
    and after normalization.  This is the one source of the messages of layout
    faults; it runs only after a check in :func:`_checked_layouts` has failed.
    """
    required = {"bbox", attribute}
    for entry in entries:
        _require_keys(entry, _LAYOUT_KEYS, _LAYOUT_KEYS, f"{where} layout entry")
        lid = str(entry["id"])
        at = f"{where} layout {lid!r}"
        elements = _require_list(entry["elements"], f"{at} elements")
        if len(elements) == 0:
            raise DataError(f"{at} has zero elements")
        if len(elements) > DEFAULT_N_MAX:
            raise DataError(f"{at} has {len(elements)} elements, limit is {DEFAULT_N_MAX}")
        for element in elements:
            _require_keys(element, required | {"bbox_clamped"}, required, f"{at} element")
            _require_numbers(element["bbox"], 4, f"{at} bbox")
            if attribute == "feature":
                _require_numbers(element["feature"], size, f"{at} feature")
            elif not 0 <= require_int(element["label"], f"{at} label") < size:
                raise DataError(f"{at}: label {element['label']} outside vocabulary of "
                                f"{size} names")
        raw = Layout(geometry=[element["bbox"] for element in elements], id=lid,
                     **{attribute + "s": [element[attribute] for element in elements]})
        try:
            _normalize(raw, canvas, strict)
        except DataError as exc:
            raise DataError(f"{where} {exc}") from None
    raise AssertionError(f"{where}: a whole-file check failed on layouts that pass "
                         "every per-layout check")


def load_dataset(path, strict_geometry: bool = True) -> Dataset:
    """Load and normalize a layout JSON file.

    The attribute mode comes from the file: a ``feature_dim`` key means
    continuous features, otherwise categorical labels.
    ``strict_geometry=False`` admits boxes outside the canvas (model output
    can overshoot); normalization is the same affine map either way.
    The file is checked and normalized in whole-file array passes, and each
    layout holds read-only slices of one geometry array and one label or
    feature array.  A malformed file raises a :class:`DataError` naming the
    first bad layout and field in file order.
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
        label_names = tuple(_require_list(doc["labels"], f"{where} labels"))
        feature_dim = None
        attribute, size = "label", len(label_names)
    else:
        label_names = None
        feature_dim = require_int(doc["feature_dim"], f"{where} feature_dim")
        if feature_dim < 1:
            raise DataError(f"{where}: feature_dim must be >= 1")
        attribute, size = "feature", feature_dim

    entries = _require_list(doc["layouts"], f"{where} layouts")
    layouts = _checked_layouts(entries, attribute, size, canvas, strict_geometry)
    if layouts is None:
        _raise_first_fault(entries, where, attribute, size, canvas, strict_geometry)
    try:
        return Dataset(layouts=layouts, canvas=canvas,
                       label_names=label_names, feature_dim=feature_dim)
    except DataError as exc:  # a vocabulary entry that is not a string
        raise DataError(f"{where}: {exc}") from None


@contextlib.contextmanager
def atomic_path(path):
    """A new temporary path next to ``path`` to write instead.  When the block ends
    without an exception, the file is flushed to disk and moved onto ``path``, and the
    move is flushed too; otherwise it is removed.  So a failed write leaves the previous
    file intact, and each writer, even of the same path, has a file of its own."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"{name}.{os.urandom(8).hex()}.tmp")
    # Mode 0o666 as open() uses, so the umask sets a new file's mode as it would there.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        yield tmp_path
        os.fsync(fd)
        os.replace(tmp_path, path)
    except BaseException:
        os.remove(tmp_path)
        raise
    finally:
        os.close(fd)
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _number_list(width: int) -> str:
    """The text that ``json.dump(..., indent=1)`` writes for an element field's list of
    ``width`` numbers, with a ``%r`` for each number."""
    return "[\n" + ",\n".join(["      %r"] * width) + "\n     ]"


def save_dataset(dataset: Dataset, path, meta: Optional[dict] = None, include_clamped=False):
    """Write ``dataset`` as a layout JSON file with bbox back in canvas units: the bytes
    that ``json.dump(doc, fh, indent=1)`` and a newline write of the schema dict ``doc``.

    Every element is one text template.  A finite float's ``%r`` is the text json
    writes for it, and the :class:`Dataset` constructor keeps every float written here
    finite.  The ids, the head and ``meta`` go through ``json.dumps``.  The text is
    written layout by layout through :func:`atomic_path`.
    """
    head = {"canvas": {"width": dataset.canvas[0], "height": dataset.canvas[1]}}
    if dataset.mode == "categorical":
        head["labels"] = list(dataset.label_names)
        attribute, width, value = "label", 1, "%r"
    else:
        head["feature_dim"] = dataset.feature_dim
        attribute, width = "feature", dataset.feature_dim
        value = _number_list(width)
    layouts = dataset.layouts
    geometry = np.concatenate([layout.geometry for layout in layouts] or [np.empty((0, 4))])
    ranges = _canvas_ranges(dataset.canvas)
    fields = {"bbox": _denormalized(geometry, ranges)}
    if include_clamped:
        fields["bbox_clamped"] = _denormalized(np.clip(geometry, -1.0, 1.0), ranges)
    # One row of Python numbers per element, in the order of the template's fields.
    rows = np.empty((len(geometry), 4 * len(fields) + width), dtype=object)
    for column, boxes in enumerate(fields.values()):
        rows[:, 4 * column:4 * column + 4] = boxes
    rows[:, 4 * len(fields):] = np.concatenate(
        [getattr(layout, attribute + "s") for layout in layouts] or [np.empty(0)]
    ).reshape(-1, width)
    numbers = rows.ravel().tolist()
    element = "".join(["    {\n"] + [f'     "{name}": {_number_list(4)},\n' for name in fields]
                      + [f'     "{attribute}": {value}\n    }}'])
    entries = {}  # element count -> template of a layout entry, its id first
    stops, start = accumulate(len(layout) * rows.shape[1] for layout in layouts), 0
    with atomic_path(path) as tmp_path, open(tmp_path, "w") as fh:
        fh.write(json.dumps(head, indent=1)[:-2] + ',\n "layouts": [')  # the head, left open
        for i, (layout, stop) in enumerate(zip(layouts, stops)):
            n = len(layout)
            if n not in entries:
                entries[n] = ('  {\n   "id": %s,\n   "elements": [\n'
                              + ",\n".join([element] * n) + "\n   ]\n  }")
            fh.write((",\n" if i else "\n")
                     + entries[n] % (json.dumps(layout.id), *numbers[start:stop]))
            start = stop
        fh.write(("\n ]" if layouts else "]")
                 + ("" if meta is None
                    else ',\n "meta": ' + json.dumps(meta, indent=1).replace("\n", "\n "))
                 + "\n}\n")


# ---------------------------------------------------------------------------
# synthetic datasets


@dataclass(frozen=True)
class SynthSpec:
    num_layouts: int
    num_classes: int
    elements_per_layout_range: tuple = (2, 6)
    rule: str = "grid_by_label"

    def __post_init__(self):
        for name in ("num_classes", "num_layouts"):
            if require_int(getattr(self, name), name) < 1:
                raise DataError(f"{name} must be >= 1")
        lo, hi = self.elements_per_layout_range
        if not (is_integer(lo, 1) and is_integer(hi, lo, DEFAULT_N_MAX + 1)):
            raise DataError(f"bad elements_per_layout_range {self.elements_per_layout_range}: "
                            f"need integers 1 <= min <= max <= {DEFAULT_N_MAX}")
        if self.rule not in ("grid_by_label", "random_boxes"):
            raise DataError(f"unknown synthesis rule {self.rule!r}")


def grid_rule_box(label, num_classes: int) -> np.ndarray:
    """The fixed normalized box, ``[..., 4]``, that the grid rule assigns to each label.

    Classes tile a near-square grid; each box fills 70% of its cell.  The
    map depends on the label only, so layout geometry under this rule is a
    pure function of the label multiset.
    """
    cols = int(np.ceil(np.sqrt(num_classes)))
    rows = int(np.ceil(num_classes / cols))
    r, c = np.divmod(label, cols)
    # Unit-frame cell center and box size, then to the [-1, 1] encoding.
    box = np.empty(np.shape(label) + (4,))
    box[..., 0] = (c + 0.5) / cols
    box[..., 1] = (r + 0.5) / rows
    box[..., 2:] = 0.7 / cols, 0.7 / rows
    return 2 * box - 1


def make_synthetic_dataset(spec: SynthSpec, seed: int) -> Dataset:
    """Deterministic synthetic dataset; a pure function of (spec, seed).

    Layout by layout, the stream draws the element count ``n`` (unless the range holds
    one count), then ``n`` labels, then for random boxes ``n`` rows of four uniforms.
    Only the counts depend on earlier draws, so one scan finds them, one ``words`` call
    draws the rest, and each layout holds read-only slices of one geometry and one label
    array.
    """
    stream = RngStream(seed)
    lo, hi = spec.elements_per_layout_range
    per_element = 5 if spec.rule == "random_boxes" else 1
    counts, counter = [], 0
    for _ in range(spec.num_layouts):
        n = lo
        if lo < hi:
            n = int(to_integers(stream.word_at(counter), lo, hi + 1))
            counter += 1
        counts.append(n)
        counter += per_element * n
    # Each layout's words in turn: its count (role 0), labels (1) and uniforms (2).
    roles = np.repeat(np.tile(np.arange(3, dtype=np.uint8), spec.num_layouts),
                      [length for n in counts for length in (lo < hi, n, (per_element - 1) * n)])
    words = stream.words(counter)
    labels = to_integers(words[roles == 1], 0, spec.num_classes)
    if spec.rule == "grid_by_label":
        geometry = grid_rule_box(labels, spec.num_classes)
    else:
        # Boxes inside the unit frame: per element draw w, h, then each center's place.
        draws = to_uniforms(words[roles == 2]).reshape(-1, 4)
        wh = 0.05 + 0.45 * draws[:, :2]
        centers = wh / 2 + (1 - wh) * draws[:, 2:]
        geometry = np.concatenate([2 * centers - 1, 2 * wh - 1], axis=1)
    geometry.flags.writeable = labels.flags.writeable = False
    bounds = list(accumulate(counts, initial=0))
    layouts = tuple(Layout._checked(geometry[start:stop], f"synth-{i:06d}",
                                    labels=labels[start:stop])
                    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])))
    label_names = tuple(f"class_{k}" for k in range(spec.num_classes))
    return Dataset(layouts=layouts, canvas=(100.0, 100.0), label_names=label_names)


# ---------------------------------------------------------------------------
# batching


def pad_conditions(conditions) -> tuple:
    """Pad per-layout attributes to ``(attributes, mask)``; masked slots are exactly zero.

    Each condition is one layout's label ids ``[n]`` or features ``[n, attr_dim]``.
    """
    conditions = [np.asarray(c) for c in conditions]
    if not conditions:
        raise DataError("cannot batch zero layouts")
    shapes = {c.shape[1:] for c in conditions}
    if len(shapes) > 1:
        raise DataError("cannot batch layouts with mixed attribute modes or feature dims")
    (trailing,) = shapes
    lengths = np.array([len(c) for c in conditions])
    mask = np.arange(lengths.max()) < lengths[:, None]
    attributes = np.zeros(mask.shape + trailing, dtype=np.float64 if trailing else np.int64)
    attributes[mask] = np.concatenate(conditions)
    return attributes, mask


def pad_batch(layouts: Sequence[Layout]) -> Batch:
    """Pad layouts to the batch maximum; masked slots are exactly zero."""
    layouts = list(layouts)
    attributes, mask = pad_conditions(
        [l.labels if l.attribute_mode == "categorical" else l.features for l in layouts])
    geometry = np.zeros(mask.shape + (4,))
    geometry[mask] = np.concatenate([layout.geometry for layout in layouts])
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
