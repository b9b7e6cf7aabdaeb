"""Layout quality metrics in both published conventions, plus Fréchet distance.

All geometric metrics work in a unit-square frame: normalized [-1, 1]
components map through v -> (v + 1) / 2, recovering canvas-fraction
coordinates.  Degenerate sizes are clamped to 1e-6 so area ratios stay
finite.  Two conventions are implemented for alignment and overlap; every
reported number is tagged with the convention that produced it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Layout
from .exceptions import DataError
from .validation import is_finite_array

SIZE_CLAMP = 1e-6
_LOG_CLAMP = 1.0 - 1e-9
# Max IoU matches a label's boxes by trying all c! permutations up to this c,
# and with the Hungarian above it, where enumeration becomes the slower one.
ENUMERATION_LIMIT = 6
# Entry c: the c! permutations of range(c), one per row.
_PERMUTATIONS = tuple(np.array(list(itertools.permutations(range(c))), dtype=np.intp)
                      for c in range(ENUMERATION_LIMIT + 1))
# Values per pair-chunk temporary in pair_max_iou: [rows, G_b, n, n] or [rows, G_b, c!].
_CHUNK_VALUES = 1 << 18


@dataclass(frozen=True, eq=False)
class MetricFrame:
    """Corner/center coordinates in [0, 1]^2 of equal-count layouts.

    ``values`` is one ``[8, L, n]`` array whose rows are the ``[L, n]`` fields
    ``cx, cy, width, height, left, top, right, bottom`` (``[8, N]`` for the N
    elements of a whole collection), so indexing a frame and gathering
    layouts from one are each a single numpy call.  A frame equals only itself
    and hashes by identity.
    """

    values: np.ndarray

    cx = property(lambda self: self.values[0])
    cy = property(lambda self: self.values[1])
    width = property(lambda self: self.values[2])
    height = property(lambda self: self.values[3])
    left = property(lambda self: self.values[4])
    top = property(lambda self: self.values[5])
    right = property(lambda self: self.values[6])
    bottom = property(lambda self: self.values[7])

    @classmethod
    def from_layouts(cls, layouts: Sequence[Layout]) -> "MetricFrame":
        """The frame of layouts that all have the same element count n."""
        return cls.from_geometry(np.stack([layout.geometry for layout in layouts]))

    @classmethod
    def from_geometry(cls, geometry: np.ndarray) -> "MetricFrame":
        """The frame of normalized geometry ``[..., 4]``."""
        values = np.empty((8, *geometry.shape[:-1]))
        center, size = values[:2], values[2:4]
        np.add(geometry.transpose(-1, *range(geometry.ndim - 1)), 1.0, out=values[:4])
        values[:4] /= 2.0
        np.maximum(size, SIZE_CLAMP, out=size)
        half = size / 2.0
        np.subtract(center, half, out=values[4:6])
        np.add(center, half, out=values[6:])
        return cls(values)

    def __getitem__(self, index) -> "MetricFrame":
        """The frame of every field indexed by ``index`` (the axes after the field axis)."""
        index = index if isinstance(index, tuple) else (index,)
        return MetricFrame(self.values[(slice(None), *index)])

    @property
    def area(self) -> np.ndarray:
        return self.width * self.height


def _per_layout(layouts: Sequence[Layout], kernel) -> np.ndarray:
    """``kernel`` of each layout as a float64 array, in input order.

    One frame holds every element of the collection.  Layouts are grouped by
    element count n: each group's ``[L_n, n]`` frame is gathered from it by
    row index, and ``kernel`` maps it to its ``[L_n]`` values, so no group
    needs padding.
    """
    layouts = list(layouts)
    if not layouts:
        raise DataError("a layout metric needs at least one layout")
    geometries = [layout.geometry for layout in layouts]
    counts = np.fromiter(map(len, geometries), dtype=np.intp, count=len(layouts))
    starts = np.cumsum(counts) - counts
    frame = MetricFrame.from_geometry(np.concatenate(geometries))
    out = np.empty(len(layouts))
    for n in np.unique(counts).tolist():
        group = np.flatnonzero(counts == n)
        out[group] = kernel(frame[starts[group, None] + np.arange(n)])
    return out


def _min_over_others(pairs: np.ndarray) -> np.ndarray:
    """``[..., n, n]`` -> ``[..., n]``: per element, the minimum over the other elements."""
    diagonal = np.arange(pairs.shape[-1])
    pairs[..., diagonal, diagonal] = np.inf
    return pairs.min(axis=-1)


def _pair_gaps(coords: np.ndarray) -> np.ndarray:
    """``[..., n]`` -> ``[..., n, n]`` absolute differences between elements."""
    gaps = coords[..., :, None] - coords[..., None, :]
    return np.abs(gaps, out=gaps)


def _alignment_kikuchi(frame: MetricFrame) -> np.ndarray:
    if frame.left.shape[-1] == 1:
        return np.zeros(len(frame.left))
    gaps = np.stack([_min_over_others(_pair_gaps(c)) for c in (
        frame.left, frame.cx, frame.right, frame.top, frame.cy, frame.bottom)])
    gaps = np.clip(gaps, 0.0, _LOG_CLAMP)
    per_element = (-np.log1p(-gaps)).min(axis=0)
    return per_element.mean(axis=-1) * 100.0


def alignment_kikuchi(layouts: Sequence[Layout]) -> np.ndarray:
    """Per layout: per-element min over six -log(1-gap) terms, averaged, times 100.

    Single-element layouts score 0 by convention.
    """
    return _per_layout(layouts, _alignment_kikuchi)


def alignment_blt(layouts: Sequence[Layout], include_y: bool = False) -> float:
    """Sum of per-element nearest L1 gaps on x alignment lines, meaned over layouts.

    No log transform, no x100, no division by element count.  ``include_y``
    extends the published x-only definition with the analogous y lines.
    """
    def layout_sums(frame: MetricFrame) -> np.ndarray:
        if frame.left.shape[-1] == 1:
            return np.zeros(len(frame.left))
        axes = [(frame.left, frame.cx, frame.right)]
        if include_y:
            axes.append((frame.top, frame.cy, frame.bottom))
        per_axis = [_min_over_others(np.minimum.reduce([_pair_gaps(c) for c in coords]))
                    for coords in axes]
        return np.minimum.reduce(per_axis).sum(axis=-1)

    return float(_per_layout(layouts, layout_sums).mean())


def _pairwise_intersection(frame_a: MetricFrame, frame_b: MetricFrame) -> np.ndarray:
    """``[..., n_a, n_b]`` intersection areas, broadcast over the leading axes."""
    ix = (np.minimum(frame_a.right[..., :, None], frame_b.right[..., None, :])
          - np.maximum(frame_a.left[..., :, None], frame_b.left[..., None, :]))
    iy = (np.minimum(frame_a.bottom[..., :, None], frame_b.bottom[..., None, :])
          - np.maximum(frame_a.top[..., :, None], frame_b.top[..., None, :]))
    # np.maximum gives np.clip's values at a quarter of its call cost.
    return np.maximum(ix, 0.0, out=ix) * np.maximum(iy, 0.0, out=iy)


def _overlap_sum(frame: MetricFrame) -> np.ndarray:
    inter = _pairwise_intersection(frame, frame)
    diagonal = np.arange(inter.shape[-1])
    inter[..., diagonal, diagonal] = 0.0
    ratios = inter / frame.area[..., :, None]
    return ratios.reshape(len(ratios), -1).sum(axis=-1)


def overlap_kikuchi(layouts: Sequence[Layout]) -> np.ndarray:
    """Per layout: sum over pairs of intersection-over-own-area, divided by N, times 100."""
    return _per_layout(layouts, lambda frame: _overlap_sum(frame) / frame.left.shape[-1] * 100.0)


def overlap_blt(layouts: Sequence[Layout]) -> np.ndarray:
    """Per layout: the Kikuchi double sum, unnormalized and unscaled."""
    return _per_layout(layouts, _overlap_sum)


def _perceptual_iou(frame: MetricFrame) -> np.ndarray:
    # Each axis's sorted 2n edges bound its 2n - 1 cells; a duplicate edge
    # only adds a cell of zero width.  A box covers a cell when the cell lies
    # between its edges.
    def cells(lo, hi):
        edges = np.sort(np.concatenate([lo, hi], axis=-1), axis=-1)
        covered = ((lo[..., :, None] <= edges[..., None, :-1])
                   & (edges[..., None, 1:] <= hi[..., :, None]))
        return covered.astype(np.float64), np.diff(edges, axis=-1)

    in_x, width = cells(frame.left, frame.right)
    in_y, height = cells(frame.top, frame.bottom)
    counts = np.einsum("lik,lim->lkm", in_x, in_y)
    cell_area = width[..., :, None] * height[..., None, :]
    union = np.einsum("lkm,lkm->l", counts >= 1, cell_area)
    both = np.einsum("lkm,lkm->l", counts >= 2, cell_area)
    return np.divide(both, union, out=np.zeros_like(union), where=union > 0.0)


def perceptual_iou(layouts: Sequence[Layout]) -> np.ndarray:
    """Per layout: area covered by two or more boxes over area covered by at least one.

    Exact, via coordinate-compressed cell coverage counting.
    """
    return _per_layout(layouts, _perceptual_iou)


# ---------------------------------------------------------------------------
# assignment machinery for Max IoU


def _hungarian_min_cost(cost: np.ndarray) -> list:
    """O(n^2 m) potentials-based assignment; needs rows <= cols.

    Returns for each row the matched column index.
    """
    n, m = cost.shape
    rows = cost.tolist()  # Python floats: element reads cost less than numpy scalars
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # column -> row, 1-based; 0 = free
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        way = [0] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            row = rows[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [-1] * n
    for j in range(1, m + 1):
        if match[j]:
            row_to_col[match[j] - 1] = j - 1
    return row_to_col


def max_weight_assignment(weights: np.ndarray):
    """Maximum-weight one-to-one assignment of rows to columns.

    Exact (Hungarian) at every size.  Weights must be non-negative, so a
    forced perfect matching of the smaller side is also a maximum-weight
    matching.  Returns (row_to_col list, total weight).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError("weights must be a matrix")
    if weights.size and weights.min() < 0:
        raise ValueError("weights must be non-negative")
    if min(weights.shape) == 0:
        return [-1] * weights.shape[0], 0.0

    if weights.shape[0] <= weights.shape[1]:
        assignment = _hungarian_min_cost(-weights)
    else:
        col_to_row = _hungarian_min_cost(-weights.T)
        assignment = [-1] * weights.shape[0]
        for col, row in enumerate(col_to_row):
            assignment[row] = col
    total = sum(weights[r, c] for r, c in enumerate(assignment) if c >= 0)
    return assignment, float(total)


def box_iou_matrix(frame_a: MetricFrame, frame_b: MetricFrame) -> np.ndarray:
    """IoU of every box of ``frame_a`` (rows) with every box of ``frame_b`` (columns)."""
    inter = _pairwise_intersection(frame_a, frame_b)
    # Areas from the same corner differences as the intersection, so a box
    # matched with itself scores exactly 1.
    area_a = (frame_a.right - frame_a.left) * (frame_a.bottom - frame_a.top)
    area_b = (frame_b.right - frame_b.left) * (frame_b.bottom - frame_b.top)
    union = area_a[..., :, None] + area_b[..., None, :] - inter
    return inter / np.maximum(union, 1e-12)


def _label_multiset(layout: Layout) -> tuple:
    labels = layout.labels
    if labels is None:
        raise DataError("max IoU requires categorical layouts")
    return tuple(sorted(labels.tolist()))


def _label_sorted(layouts: list) -> tuple:
    """``(frame [G, n], labels [n])``: each layout's elements in stable label order, and
    the label multiset all of them must share."""
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
    geometry = np.array([layout.geometry for layout in layouts])[rows, order]
    return MetricFrame.from_geometry(geometry), labels[0]


def _best_matching(block: np.ndarray) -> np.ndarray:
    """``[..., c, c]`` IoUs -> ``[...]`` value of the best one-to-one matching.

    Up to ``ENUMERATION_LIMIT`` boxes, the maximum over all c! permutations,
    each summed row by row; beyond it, one exact assignment per matrix.
    """
    c = block.shape[-1]
    if c > ENUMERATION_LIMIT:
        out = np.empty(block.shape[:-2])
        for index in np.ndindex(out.shape):
            out[index] = max_weight_assignment(block[index])[1]
        return out
    perms = _PERMUTATIONS[c]
    sums = block[..., 0, perms[:, 0]]
    for row in range(1, c):
        sums += block[..., row, perms[:, row]]
    return sums.max(axis=-1)


def pair_max_iou(group_a: Sequence[Layout], group_b: Sequence[Layout]) -> np.ndarray:
    """``[len(group_a), len(group_b)]`` best-assignment mean box IoU of every pair,
    for layouts that all have one label multiset.

    Only boxes of the same label are matched.  With each layout's elements in
    stable label order, a label is the same run of c positions in every
    layout, so a pair's value is the sum over runs of the best matching of
    the run's ``[c, c]`` IoU block, divided by n.  One frame holds both
    groups, and all IoUs of a chunk of pairs are computed at once,
    ``[rows, len(group_b), n, n]``.
    """
    group_a, group_b = list(group_a), list(group_b)
    if not group_a or not group_b:
        raise DataError("pair_max_iou needs non-empty groups")
    size_a, size_b = len(group_a), len(group_b)
    frame, labels = _label_sorted(group_a + group_b)
    n = len(labels)
    bounds = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    runs = list(zip([0] + bounds, bounds + [n]))
    per_pair = max([n * n] + [math.factorial(stop - start) for start, stop in runs
                              if stop - start <= ENUMERATION_LIMIT])
    rows = max(1, _CHUNK_VALUES // (size_b * per_pair))
    frame_b = frame[None, size_a:]
    out = np.zeros((size_a, size_b))
    for lo in range(0, size_a, rows):
        ious = box_iou_matrix(frame[lo:min(lo + rows, size_a), None], frame_b)
        for start, stop in runs:
            out[lo:lo + rows] += _best_matching(ious[..., start:stop, start:stop])
    return out / n


def max_iou(generated: Sequence[Layout], reference: Sequence[Layout]) -> float:
    """Collection similarity: optimally match layouts with equal label multisets.

    Each label-multiset group is scored by one :func:`pair_max_iou` call and
    one assignment.  Score is the summed matched pair values divided by the
    reference size; unmatched layouts contribute zero.
    """
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


# ---------------------------------------------------------------------------
# Fréchet distance


@dataclass(frozen=True)
class FeatureSet:
    """Per-layout feature matrix with a provenance tag for the extractor."""

    features: np.ndarray
    provenance: str = "unknown"

    def __post_init__(self):
        feats = np.asarray(self.features)
        if feats.ndim != 2:
            raise DataError("features must be [num_layouts, feat_dim]")
        if not is_finite_array(feats):
            raise DataError("features must be finite")
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] < feats.shape[1] + 1:
            raise DataError(
                f"need at least feat_dim+1 = {feats.shape[1] + 1} layouts for a "
                f"well-posed covariance, got {feats.shape[0]}"
            )
        object.__setattr__(self, "features", feats)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((matrix + matrix.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_gaussian(mu_a, cov_a, mu_b, cov_b) -> float:
    """Fréchet distance between two Gaussians, PSD-safe via eigendecompositions."""
    mu_a, mu_b = np.asarray(mu_a, dtype=np.float64), np.asarray(mu_b, dtype=np.float64)
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=np.float64))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=np.float64))
    diff = mu_a - mu_b
    sqrt_a = _psd_sqrt(cov_a)
    product = sqrt_a @ cov_b @ sqrt_a
    vals = np.linalg.eigvalsh((product + product.T) / 2.0)
    # Rank-deficient products put eigen-noise of order eps*|M| at the true
    # zeros; sqrt would amplify it to ~1e-8 per mode, so truncate it (this
    # also zeroes every negative eigenvalue).
    cutoff = max(1e-12 * float(vals.max(initial=0.0)), 0.0)
    vals = np.where(vals < cutoff, 0.0, vals)
    trace_sqrt = float(np.sqrt(vals).sum())
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_sqrt)


def frechet_distance(set_a: FeatureSet, set_b: FeatureSet) -> float:
    if set_a.features.shape[1] != set_b.features.shape[1]:
        raise DataError("feature sets must share feat_dim")
    mu_a = set_a.features.mean(axis=0)
    mu_b = set_b.features.mean(axis=0)
    cov_a = np.cov(set_a.features, rowvar=False)
    cov_b = np.cov(set_b.features, rowvar=False)
    return frechet_gaussian(mu_a, cov_a, mu_b, cov_b)


def trivial_features(layouts: Sequence[Layout], n_max: int, num_classes: int) -> FeatureSet:
    """Smoke-test extractor: flattened padded geometry plus label histogram.

    Useful only for exercising the Fréchet kernel; not comparable to any
    published feature space.
    """
    rows = []
    for layout in layouts:
        if len(layout) > n_max:
            raise DataError(f"layout {layout.id!r} exceeds n_max {n_max}")
        geom = np.zeros((n_max, 4))
        geom[: len(layout)] = layout.geometry
        labels = layout.labels
        if labels is None:
            raise DataError("trivial features require categorical layouts")
        if labels.max() >= num_classes:
            raise DataError(f"layout {layout.id!r} has label {labels.max()}, outside the "
                            f"{num_classes} classes")
        hist = np.bincount(labels, minlength=num_classes).astype(np.float64)
        rows.append(np.concatenate([geom.reshape(-1), hist]))
    if not rows:
        raise DataError("trivial features need at least one layout")
    return FeatureSet(features=np.stack(rows), provenance="trivial-geometry-histogram")


# ---------------------------------------------------------------------------
# report assembly


def _tagged(value, convention, per_layout=None):
    entry = {"convention": convention, "value": value}
    if per_layout is not None:
        entry["per_layout"] = per_layout
    return entry


def evaluate_collections(generated: Sequence[Layout], reference: Sequence[Layout],
                         features: Optional[tuple] = None,
                         include_y_alignment: bool = False) -> dict:
    """Full metric report over two collections; every number carries its convention.

    ``features`` is an optional (FeatureSet, FeatureSet) pair for the
    Fréchet distance.  Max IoU is included only when both sides are
    categorical.
    """
    generated, reference = list(generated), list(reference)
    if not generated or not reference:
        raise DataError("evaluation needs non-empty collections")

    def both_sides(fn, convention):
        """Each side's mean and per-layout values of the metric ``fn``."""
        sides = {}
        for side, layouts in (("generated", generated), ("reference", reference)):
            values = fn(layouts)
            sides[side] = _tagged(float(np.mean(values)), convention, values.tolist())
        return sides

    report = {
        "counts": {"generated": len(generated), "reference": len(reference)},
        "alignment": {
            "kikuchi": both_sides(alignment_kikuchi, "kikuchi"),
            "blt": {
                "generated": _tagged(alignment_blt(generated, include_y_alignment), "blt"),
                "reference": _tagged(alignment_blt(reference, include_y_alignment), "blt"),
            },
        },
        "overlap": {
            "kikuchi": both_sides(overlap_kikuchi, "kikuchi"),
            "blt": both_sides(overlap_blt, "blt"),
        },
        "perceptual_iou": both_sides(perceptual_iou, "blt"),
    }

    categorical = all(l.attribute_mode == "categorical" for l in generated + reference)
    if categorical:
        report["max_iou"] = _tagged(max_iou(generated, reference), "kikuchi")

    if features is not None:
        set_a, set_b = features
        report["frechet"] = {
            "convention": "kikuchi",
            "value": frechet_distance(set_a, set_b),
            "feature_provenance": [set_a.provenance, set_b.provenance],
        }
    return report
