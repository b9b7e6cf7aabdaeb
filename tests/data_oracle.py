"""Per-element, per-layout and per-row forms of the dataset writers in ``data``: the
references that the whole-collection array passes are checked against, bit for bit."""
import numpy as np

from layoutdiffusion.data import Dataset, Layout, denormalize_layout
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.rng import RngStream


def grid_rule_box(label: int, num_classes: int) -> np.ndarray:
    """The grid rule's box of one class, from scalars."""
    cols = int(np.ceil(np.sqrt(num_classes)))
    rows = int(np.ceil(num_classes / cols))
    r, c = divmod(int(label), cols)
    cx = (c + 0.5) / cols
    cy = (r + 0.5) / rows
    w = 0.7 / cols
    h = 0.7 / rows
    return np.array([2 * cx - 1, 2 * cy - 1, 2 * w - 1, 2 * h - 1])


def make_synthetic_dataset(spec, seed: int) -> Dataset:
    """Synthesis one element at a time: the rule is chosen per element, and each random
    box takes three draws (its size, then each center fraction)."""
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
                wh = 0.05 + 0.45 * stream.uniform([2])
                cx = wh[0] / 2 + (1 - wh[0]) * stream.uniform()[()]
                cy = wh[1] / 2 + (1 - wh[1]) * stream.uniform()[()]
                geometry[row] = [2 * cx - 1, 2 * cy - 1, 2 * wh[0] - 1, 2 * wh[1] - 1]
        layouts.append(Layout(geometry=geometry, labels=labels, id=f"synth-{i:06d}"))
    label_names = tuple(f"class_{k}" for k in range(spec.num_classes))
    return Dataset(layouts=tuple(layouts), canvas=(100.0, 100.0), label_names=label_names)


def dataset_to_dict(dataset: Dataset, meta=None, include_clamped=False) -> dict:
    """The schema dict built one layout at a time, each denormalized through a rebuilt
    :class:`Layout`; it checks nothing against the dataset's head."""
    doc = {"canvas": {"width": dataset.canvas[0], "height": dataset.canvas[1]}}
    if dataset.mode == "categorical":
        doc["labels"] = list(dataset.label_names)
    else:
        doc["feature_dim"] = dataset.feature_dim
    ranges = np.array([dataset.canvas[0], dataset.canvas[1]] * 2)
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


def pad_conditions(conditions) -> tuple:
    """Padding one row at a time, with the mode check made per row."""
    conditions = [np.asarray(c) for c in conditions]
    if not conditions:
        raise DataError("cannot batch zero layouts")
    n_max = max(len(c) for c in conditions)
    trailing = conditions[0].shape[1:]
    dtype = np.int64 if not trailing else np.float64
    attributes = np.zeros((len(conditions), n_max) + trailing, dtype=dtype)
    mask = np.zeros((len(conditions), n_max), dtype=bool)
    for row, cond in enumerate(conditions):
        if cond.shape[1:] != trailing:
            raise DataError("cannot batch layouts with mixed attribute modes or feature dims")
        attributes[row, :len(cond)] = cond
        mask[row, :len(cond)] = True
    return attributes, mask
