"""Per-group forms of the collection metrics in ``metrics``: the references that the
gathered one-array frames are checked against, bit for bit.

Each count group is stacked from its own layouts, a frame holds one array per field
and is built through ``to_corner_form``, and Max IoU sorts and frames each side of a
group on its own.  The kernels, ``box_iou_matrix`` and the assignment are the
package's.
"""
import math
from dataclasses import dataclass

import numpy as np

from layoutdiffusion.data import to_corner_form
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.metrics import (ENUMERATION_LIMIT, SIZE_CLAMP, _best_matching,
                                     _label_multiset, box_iou_matrix, max_weight_assignment)

# Values per pair-chunk temporary in pair_max_iou, as the package sets it by default.
CHUNK_VALUES = 1 << 18


@dataclass(frozen=True)
class Frame:
    """Corner/center coordinates in [0, 1]^2 of equal-count layouts, each ``[L, n]``."""

    left: np.ndarray
    top: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    right: np.ndarray
    bottom: np.ndarray
    width: np.ndarray
    height: np.ndarray

    @classmethod
    def from_geometry(cls, geometry: np.ndarray) -> "Frame":
        """The frame of stacked normalized geometry ``[L, n, 4]``."""
        geom = (geometry + 1.0) / 2.0
        geom[..., 2] = np.maximum(geom[..., 2], SIZE_CLAMP)
        geom[..., 3] = np.maximum(geom[..., 3], SIZE_CLAMP)
        corners = to_corner_form(geom)
        return cls(left=corners[..., 0], top=corners[..., 1], cx=corners[..., 2],
                   cy=corners[..., 3], right=corners[..., 4], bottom=corners[..., 5],
                   width=geom[..., 2], height=geom[..., 3])

    def __getitem__(self, index) -> "Frame":
        return Frame(**{name: value[index] for name, value in vars(self).items()})

    @property
    def area(self) -> np.ndarray:
        return self.width * self.height


def per_layout(layouts, kernel) -> np.ndarray:
    """``metrics._per_layout`` with each count group stacked from its layouts."""
    layouts = list(layouts)
    if not layouts:
        raise DataError("a layout metric needs at least one layout")
    counts = np.fromiter(map(len, layouts), dtype=np.int64, count=len(layouts))
    out = np.empty(len(layouts))
    for n in np.unique(counts):
        group = np.flatnonzero(counts == n)
        out[group] = kernel(Frame.from_geometry(np.stack([layouts[i].geometry for i in group])))
    return out


def label_sorted(layouts) -> tuple:
    """``([G, n, 4] geometry, [n] labels)`` of one side of a group, in stable label order."""
    if not layouts:
        raise DataError("pair_max_iou needs non-empty groups")
    if any(layout.labels is None for layout in layouts):
        raise DataError("max IoU requires categorical layouts")
    if len({len(layout) for layout in layouts}) != 1:
        raise DataError("pair_max_iou requires identical label multisets")
    labels = np.array([layout.labels for layout in layouts])
    order = np.argsort(labels, axis=-1, kind="stable")
    rows = np.arange(len(layouts))[:, None]
    labels = labels[rows, order]
    if (labels != labels[0]).any():
        raise DataError("pair_max_iou requires identical label multisets")
    return np.array([layout.geometry for layout in layouts])[rows, order], labels[0]


def pair_max_iou(group_a, group_b) -> np.ndarray:
    """``metrics.pair_max_iou`` with each side sorted and framed on its own."""
    group_a, group_b = list(group_a), list(group_b)
    geom_a, labels = label_sorted(group_a)
    geom_b, labels_b = label_sorted(group_b)
    if not np.array_equal(labels, labels_b):
        raise DataError("pair_max_iou requires identical label multisets")
    n = len(labels)
    bounds = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    runs = list(zip([0] + bounds, bounds + [n]))
    per_pair = max([n * n] + [math.factorial(stop - start) for start, stop in runs
                              if stop - start <= ENUMERATION_LIMIT])
    rows = max(1, CHUNK_VALUES // (len(group_b) * per_pair))
    frame_a = Frame.from_geometry(geom_a)
    frame_b = Frame.from_geometry(geom_b)[None]
    out = np.zeros((len(group_a), len(group_b)))
    for lo in range(0, len(group_a), rows):
        ious = box_iou_matrix(frame_a[lo:lo + rows, None], frame_b)
        for start, stop in runs:
            out[lo:lo + rows] += _best_matching(ious[..., start:stop, start:stop])
    return out / n


def max_iou(generated, reference) -> float:
    """``metrics.max_iou`` over this module's :func:`pair_max_iou`."""
    generated, reference = list(generated), list(reference)
    if not generated or not reference:
        raise DataError("max_iou needs non-empty collections")
    gen_groups: dict = {}
    for layout in generated:
        gen_groups.setdefault(_label_multiset(layout), []).append(layout)
    ref_groups: dict = {}
    for layout in reference:
        ref_groups.setdefault(_label_multiset(layout), []).append(layout)

    total = 0.0
    for key, gen_group in gen_groups.items():
        ref_group = ref_groups.get(key)
        if not ref_group:
            continue
        _, value = max_weight_assignment(pair_max_iou(gen_group, ref_group))
        total += value
    return total / len(reference)
