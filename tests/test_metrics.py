import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle
from layoutdiffusion import metrics
from layoutdiffusion.data import Layout, to_corner_form
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.metrics import (ENUMERATION_LIMIT, SIZE_CLAMP, FeatureSet, MetricFrame,
                                     alignment_blt, alignment_kikuchi, box_iou_matrix,
                                     evaluate_collections, frechet_distance, frechet_gaussian,
                                     max_iou,
                                     max_weight_assignment, overlap_blt,
                                     overlap_kikuchi, pair_max_iou, perceptual_iou,
                                     trivial_features)

RNG = np.random.default_rng(9001)


def unit_layout(*boxes, id="m"):
    """Layout from unit-square frame boxes ``(cx, cy, w, h)`` or ``(cx, cy, w, h, label)``."""
    geometry = 2.0 * np.array([b[:4] for b in boxes], dtype=float) - 1.0
    return Layout(geometry=geometry, labels=[b[4] if len(b) > 4 else 0 for b in boxes], id=id)


def random_unit_layout(rng, n, num_classes=3):
    boxes = []
    for _ in range(n):
        w, h = rng.uniform(0.05, 0.5, 2)
        cx = rng.uniform(w / 2, 1 - w / 2)
        cy = rng.uniform(h / 2, 1 - h / 2)
        boxes.append((cx, cy, w, h, int(rng.integers(num_classes))))
    return unit_layout(*boxes, id="r")


# -- alignment (kikuchi) -------------------------------------------------------


def test_alignment_kikuchi_shared_left_edge_is_zero():
    layout = unit_layout((0.3, 0.2, 0.2, 0.1), (0.35, 0.7, 0.3, 0.2))
    # both left edges at x = 0.2
    assert alignment_kikuchi([layout])[0] == pytest.approx(0.0, abs=1e-12)


def test_alignment_kikuchi_single_element_is_zero():
    assert alignment_kikuchi([unit_layout((0.5, 0.5, 0.2, 0.2))])[0] == 0.0


def test_alignment_kikuchi_hand_case():
    # A: left 0.1, cx 0.2, right 0.3; top 0.1, cy 0.2, bottom 0.3
    # B: left 0.5, cx 0.65, right 0.8; top 0.5, cy 0.6, bottom 0.7
    layout = unit_layout((0.2, 0.2, 0.2, 0.2), (0.65, 0.6, 0.3, 0.2))
    gaps = dict(x_left=0.4, x_center=0.45, x_right=0.5,
                y_top=0.4, y_center=0.4, y_bottom=0.4)
    per_element = min(-np.log(1 - g) for g in gaps.values())
    expected = per_element * 100.0  # both elements see the same gaps
    assert alignment_kikuchi([layout])[0] == pytest.approx(expected, abs=1e-9)


def test_alignment_kikuchi_is_nonnegative_random():
    for seed in range(5):
        layout = random_unit_layout(np.random.default_rng(seed), 5)
        assert alignment_kikuchi([layout])[0] >= 0.0


# -- alignment (blt) ------------------------------------------------------------


def test_alignment_blt_left_aligned_columns_zero():
    column = unit_layout((0.3, 0.2, 0.2, 0.1), (0.3, 0.5, 0.2, 0.1), (0.3, 0.8, 0.2, 0.1))
    assert alignment_blt([column, column]) == pytest.approx(0.0, abs=1e-12)


def test_alignment_blt_hand_case():
    # A: left 0.3, cx 0.5, right 0.7.  B: left 0.2, cx 0.55, right 0.9.
    # Gaps: left 0.1, center 0.05, right 0.2 -> each element contributes 0.05.
    layout = unit_layout((0.5, 0.5, 0.4, 0.2), (0.55, 0.5, 0.7, 0.2))
    assert alignment_blt([layout]) == pytest.approx(0.1, abs=1e-12)


def test_alignment_blt_duplicating_layout_keeps_score():
    layout = unit_layout((0.5, 0.5, 0.4, 0.2), (0.55, 0.5, 0.7, 0.2))
    one = alignment_blt([layout])
    three = alignment_blt([layout, layout, layout])
    assert one == pytest.approx(three, abs=1e-12)


def test_alignment_blt_single_element_layout_contributes_zero():
    single = unit_layout((0.5, 0.5, 0.2, 0.2))
    pair = unit_layout((0.5, 0.5, 0.4, 0.2), (0.55, 0.5, 0.7, 0.2))
    assert alignment_blt([pair, single]) == pytest.approx(0.05, abs=1e-12)


def test_alignment_blt_empty_collection_rejected():
    with pytest.raises(DataError):
        alignment_blt([])


def test_alignment_blt_y_variant_differs():
    layout = unit_layout((0.3, 0.2, 0.2, 0.1), (0.7, 0.21, 0.2, 0.1))
    assert alignment_blt([layout], include_y=True) < alignment_blt([layout])


# -- overlap ---------------------------------------------------------------------


def test_overlap_disjoint_boxes_zero():
    layout = unit_layout((0.2, 0.2, 0.2, 0.2), (0.7, 0.7, 0.2, 0.2))
    assert overlap_kikuchi([layout])[0] == 0.0
    assert overlap_blt([layout])[0] == 0.0


def test_overlap_identical_pair():
    layout = unit_layout((0.5, 0.5, 0.3, 0.3), (0.5, 0.5, 0.3, 0.3))
    assert overlap_kikuchi([layout])[0] == pytest.approx(100.0, abs=1e-9)
    assert overlap_blt([layout])[0] == pytest.approx(2.0, abs=1e-12)


def test_overlap_nested_boxes_hand_case():
    layout = unit_layout((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.1, 0.1))
    assert overlap_kikuchi([layout])[0] == pytest.approx(62.5, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_overlap_conventions_identity(n, seed):
    layout = random_unit_layout(np.random.default_rng(seed), n)
    assert overlap_blt([layout])[0] == pytest.approx(
        overlap_kikuchi([layout])[0] * len(layout) / 100.0, abs=1e-12)


# -- perceptual iou ---------------------------------------------------------------


def test_perceptual_iou_partial_overlap_ratio():
    # Areas 5, 1, 1 in a 10x10 frame; B and C overlap by 0.5.
    layout = unit_layout((0.25, 0.05, 0.5, 0.1),
                         (0.65, 0.05, 0.1, 0.1),
                         (0.70, 0.05, 0.1, 0.1))
    assert perceptual_iou([layout])[0] == pytest.approx(1.0 / 13.0, abs=1e-9)


def test_perceptual_iou_disjoint_zero():
    layout = unit_layout((0.2, 0.2, 0.2, 0.2), (0.7, 0.7, 0.2, 0.2))
    assert perceptual_iou([layout])[0] == 0.0


def test_perceptual_iou_identical_boxes_one():
    layout = unit_layout((0.4, 0.4, 0.25, 0.3), (0.4, 0.4, 0.25, 0.3))
    assert perceptual_iou([layout])[0] == pytest.approx(1.0, abs=1e-12)


def test_perceptual_iou_in_unit_interval_random():
    for seed in range(10):
        layout = random_unit_layout(np.random.default_rng(seed), 6)
        v = perceptual_iou([layout])[0]
        assert 0.0 <= v <= 1.0


def test_metric_frames_compare_and_hash_by_identity():
    a = MetricFrame.from_geometry(np.zeros((2, 3, 4)))
    b = MetricFrame.from_geometry(np.zeros((2, 3, 4)))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def rasterized_iou(layout, resolution=2048):
    """Point-sampled rasterization: a pixel counts if its center is inside."""
    frame = MetricFrame.from_layouts([layout])[0]
    counts = np.zeros((resolution, resolution), dtype=np.int16)
    for i in range(len(layout)):
        x0 = int(np.ceil(frame.left[i] * resolution - 0.5))
        x1 = int(np.floor(frame.right[i] * resolution - 0.5))
        y0 = int(np.ceil(frame.top[i] * resolution - 0.5))
        y1 = int(np.floor(frame.bottom[i] * resolution - 0.5))
        counts[max(x0, 0):x1 + 1, max(y0, 0):y1 + 1] += 1
    union = int((counts >= 1).sum())
    if union == 0:
        return 0.0
    return float((counts >= 2).sum() / union)


def test_perceptual_iou_matches_rasterization_oracle():
    for seed in range(5):
        layout = random_unit_layout(np.random.default_rng(seed), 5)
        exact = perceptual_iou([layout])[0]
        approx = rasterized_iou(layout)
        assert abs(exact - approx) <= 2.0 / 2048


# -- collection kernels against the per-layout loops they replaced ---------------


def oracle_frame(layout):
    geom = (layout.geometry + 1.0) / 2.0
    geom[:, 2] = np.maximum(geom[:, 2], SIZE_CLAMP)
    geom[:, 3] = np.maximum(geom[:, 3], SIZE_CLAMP)
    corners = to_corner_form(geom)
    return SimpleNamespace(left=corners[:, 0], top=corners[:, 1], cx=corners[:, 2],
                           cy=corners[:, 3], right=corners[:, 4], bottom=corners[:, 5],
                           area=geom[:, 2] * geom[:, 3])


def oracle_nearest_gap(coords):
    diff = np.abs(coords[:, None] - coords[None, :])
    np.fill_diagonal(diff, np.inf)
    return diff.min(axis=1)


def oracle_alignment_kikuchi(layout):
    frame = oracle_frame(layout)
    if len(layout) == 1:
        return 0.0
    gaps = np.stack([oracle_nearest_gap(c) for c in (frame.left, frame.cx, frame.right,
                                                     frame.top, frame.cy, frame.bottom)])
    gaps = np.clip(gaps, 0.0, 1.0 - 1e-9)
    return float((-np.log1p(-gaps)).min(axis=0).mean() * 100.0)


def oracle_alignment_blt(layouts, include_y):
    total = 0.0
    for layout in layouts:
        frame = oracle_frame(layout)
        if len(layout) < 2:
            continue
        axes = [(frame.left, frame.cx, frame.right)]
        if include_y:
            axes.append((frame.top, frame.cy, frame.bottom))
        per_axis = []
        for coords in axes:
            pair_min = np.stack([np.abs(c[:, None] - c[None, :]) for c in coords]).min(axis=0)
            np.fill_diagonal(pair_min, np.inf)
            per_axis.append(pair_min.min(axis=1))
        total += float(np.minimum.reduce(per_axis).sum())
    return total / len(layouts)


def oracle_overlap_blt(layout):
    f = oracle_frame(layout)
    ix = np.clip(np.minimum(f.right[:, None], f.right[None, :])
                 - np.maximum(f.left[:, None], f.left[None, :]), 0.0, None)
    iy = np.clip(np.minimum(f.bottom[:, None], f.bottom[None, :])
                 - np.maximum(f.top[:, None], f.top[None, :]), 0.0, None)
    inter = ix * iy
    np.fill_diagonal(inter, 0.0)
    return float((inter / f.area[:, None]).sum())


def oracle_overlap_kikuchi(layout):
    return oracle_overlap_blt(layout) / len(layout) * 100.0


def oracle_perceptual_iou(layout):
    f = oracle_frame(layout)
    xs = np.unique(np.concatenate([f.left, f.right]))
    ys = np.unique(np.concatenate([f.top, f.bottom]))
    counts = np.zeros((xs.size - 1, ys.size - 1), dtype=np.int64)
    for a, b, c, d in zip(np.searchsorted(xs, f.left), np.searchsorted(xs, f.right),
                          np.searchsorted(ys, f.top), np.searchsorted(ys, f.bottom)):
        counts[a:b, c:d] += 1
    cell_area = np.diff(xs)[:, None] * np.diff(ys)[None, :]
    union = float(cell_area[counts >= 1].sum())
    if union == 0.0:
        return 0.0
    return float(cell_area[counts >= 2].sum()) / union


# Grid values make coincident edges, and a size of -1 maps to 0, which is clamped.
COORDINATE = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                       st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def metric_layouts(draw):
    """1-12 elements, some of them copies of an earlier box."""
    boxes = draw(st.lists(st.tuples(*[COORDINATE] * 4), min_size=1, max_size=12))
    copies = draw(st.lists(st.integers(0, len(boxes) - 1), max_size=12 - len(boxes)))
    boxes += [boxes[i] for i in copies]
    return Layout(geometry=np.array(boxes), labels=[0] * len(boxes), id="h")


EXACT_KERNELS = ((alignment_kikuchi, oracle_alignment_kikuchi),
                 (overlap_blt, oracle_overlap_blt),
                 (overlap_kikuchi, oracle_overlap_kikuchi))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.lists(metric_layouts(), min_size=1, max_size=16), st.data())
def test_collection_metrics_match_per_layout_oracle(layouts, data):
    for fn, oracle in EXACT_KERNELS:
        values = fn(layouts)
        assert values.dtype == np.float64 and values.shape == (len(layouts),)
        assert values.tolist() == [oracle(layout) for layout in layouts], fn.__name__
    ious = perceptual_iou(layouts)
    np.testing.assert_allclose(ious, [oracle_perceptual_iou(l) for l in layouts],
                               rtol=1e-12, atol=0.0)
    for include_y in (False, True):
        assert alignment_blt(layouts, include_y) == pytest.approx(
            oracle_alignment_blt(layouts, include_y), rel=1e-12, abs=0.0)

    order = data.draw(st.permutations(range(len(layouts))))
    shuffled = [layouts[i] for i in order]
    for fn in (alignment_kikuchi, overlap_blt, overlap_kikuchi, perceptual_iou):
        assert fn(shuffled).tolist() == fn(layouts)[order].tolist(), fn.__name__


def test_collection_metrics_cover_mixed_counts_with_single_elements():
    rng = np.random.default_rng(21)
    layouts = [random_unit_layout(rng, n) for n in (1, 3, 1, 12, 3, 7)]
    assert alignment_kikuchi(layouts)[[0, 2]].tolist() == [0.0, 0.0]
    for fn, oracle in EXACT_KERNELS:
        assert fn(layouts).tolist() == [oracle(layout) for layout in layouts]


@pytest.mark.parametrize("fn", [alignment_kikuchi, overlap_blt, overlap_kikuchi,
                                perceptual_iou, alignment_blt])
def test_every_collection_metric_rejects_an_empty_collection(fn):
    with pytest.raises(DataError):
        fn([])


# -- assignment -------------------------------------------------------------------


def brute_force_assignment(weights):
    n, m = weights.shape
    if n > m:
        return brute_force_assignment(weights.T)
    best = -1.0
    for perm in itertools.permutations(range(m), n):
        value = sum(weights[i, c] for i, c in enumerate(perm))
        best = max(best, value)
    return best


def test_assignment_matches_brute_force_random():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(1, 6, 2)
        weights = rng.uniform(0, 1, (n, m))
        _, total = max_weight_assignment(weights)
        assert total == pytest.approx(brute_force_assignment(weights), abs=1e-12)


def test_assignment_matches_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    cases = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        cases += [rng.uniform(0, 1, (7, 7)), rng.uniform(0, 1, (4, 9)), rng.uniform(0, 1, (9, 4)),
                  rng.integers(0, 3, (6, 8)).astype(float), rng.integers(0, 3, (8, 6)).astype(float)]
    # Taking the largest weight first scores 1.0 here; the optimum pairs the two 0.9s.
    trap = np.zeros((2, 2001))
    trap[0, :2] = 1.0, 0.9
    trap[1, 0] = 0.9
    cases += [trap, trap.T]
    for weights in cases:
        assignment, total = max_weight_assignment(weights)
        rows, cols = scipy_optimize.linear_sum_assignment(weights, maximize=True)
        assert total == pytest.approx(weights[rows, cols].sum(), abs=1e-12)
        matched = [c for c in assignment if c >= 0]
        assert len(set(matched)) == len(matched) == min(weights.shape)


def test_assignment_validates_input():
    with pytest.raises(ValueError):
        max_weight_assignment(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        max_weight_assignment(np.zeros(3))


def test_assignment_rectangular_both_ways():
    weights = np.array([[0.9, 0.1], [0.8, 0.7], [0.2, 0.3]])
    assignment, total = max_weight_assignment(weights)
    assert total == pytest.approx(brute_force_assignment(weights), abs=1e-12)
    matched = [c for c in assignment if c >= 0]
    assert len(matched) == len(set(matched)) == 2


# -- pair max iou ------------------------------------------------------------------


def test_pair_max_iou_self_is_one():
    layout = random_unit_layout(np.random.default_rng(4), 5)
    assert pair_max_iou([layout], [layout])[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_pair_max_iou_disjoint_zero():
    a = unit_layout((0.2, 0.2, 0.1, 0.1), (0.2, 0.5, 0.1, 0.1))
    b = unit_layout((0.8, 0.8, 0.1, 0.1), (0.8, 0.2, 0.1, 0.1))
    assert pair_max_iou([a], [b])[0, 0] == 0.0


def test_pair_max_iou_matches_permutation_brute_force():
    rng = np.random.default_rng(12)
    mixed = [((0, 0, 1, 1, 2), (2, 1, 0, 1, 0)), ((0, 1, 1, 1, 2, 2), (1, 2, 1, 0, 2, 1)),
             ((2, 0, 1, 0), (0, 0, 2, 1))]
    label_blind_wins = 0
    for labels_a, labels_b in [((0, 0, 0), (0, 0, 0))] * 10 + mixed * 4:
        def random_layout(labels):
            boxes = []
            for label in labels:
                w, h = rng.uniform(0.1, 0.5, 2)
                cx = rng.uniform(w / 2, 1 - w / 2)
                cy = rng.uniform(h / 2, 1 - h / 2)
                boxes.append((cx, cy, w, h, label))
            return unit_layout(*boxes)

        a, b = random_layout(labels_a), random_layout(labels_b)
        frame = MetricFrame.from_layouts([a, b])
        ious = box_iou_matrix(frame[0], frame[1])
        n = len(labels_a)

        def best(perms):
            return max(sum(ious[i, p[i]] for i in range(n)) for p in perms) / n

        perms = list(itertools.permutations(range(n)))
        oracle = best(p for p in perms if all(labels_a[i] == labels_b[p[i]] for i in range(n)))
        assert pair_max_iou([a], [b])[0, 0] == pytest.approx(oracle, abs=1e-12)
        label_blind_wins += best(perms) > oracle + 1e-9
    # The inputs tell a label-respecting assignment from one that ignores labels.
    assert label_blind_wins > 0


def test_pair_max_iou_rejects_mismatched_multisets():
    a = unit_layout((0.5, 0.5, 0.2, 0.2), (0.3, 0.3, 0.2, 0.2, 1))
    b = unit_layout((0.5, 0.5, 0.2, 0.2, 1), (0.3, 0.3, 0.2, 0.2, 1), id="b")
    longer = unit_layout((0.5, 0.5, 0.2, 0.2), (0.3, 0.3, 0.2, 0.2, 1), (0.1, 0.1, 0.1, 0.1))
    continuous = Layout(geometry=a.geometry, features=np.zeros((2, 3)))
    for group_a, group_b in [([a], [b]), ([a, b], [a]), ([a], [a, b]), ([a, longer], [a]),
                             ([a], [a, longer]), ([], [a]), ([a], []),
                             ([continuous], [continuous]), ([a, continuous], [a])]:
        with pytest.raises(DataError):
            pair_max_iou(group_a, group_b)


def reference_pair_max_iou(layout_a, layout_b):
    """One pair's Max IoU as one label-masked ``[n, n]`` assignment."""
    frame = MetricFrame.from_layouts([layout_a, layout_b])
    weights = box_iou_matrix(frame[0], frame[1])
    weights[layout_a.labels[:, None] != layout_b.labels[None, :]] = 0.0
    _, value = max_weight_assignment(weights)
    return value / len(layout_a)


@st.composite
def label_multiset_groups(draw, long_run):
    """Two groups of 1-4 layouts with one label multiset of 1-9 elements, in
    shuffled order, whose boxes repeat and may have zero size.  With
    ``long_run`` one label has more than ``ENUMERATION_LIMIT`` elements."""
    low, high = (ENUMERATION_LIMIT + 1, 9) if long_run else (1, ENUMERATION_LIMIT)
    counts = [draw(st.integers(low, high))]
    while sum(counts) < 9 and draw(st.booleans()):
        counts.append(draw(st.integers(1, min(ENUMERATION_LIMIT, 9 - sum(counts)))))
    labels = [label for label, count in enumerate(counts) for _ in range(count)]
    pool = draw(st.lists(st.tuples(*[COORDINATE] * 4), min_size=1, max_size=4))

    def layout():
        order = draw(st.permutations(labels))
        boxes = [pool[draw(st.integers(0, len(pool) - 1))] for _ in order]
        return Layout(geometry=np.array(boxes), labels=order, id="g")

    return ([layout() for _ in range(draw(st.integers(1, 4)))],
            [layout() for _ in range(draw(st.integers(1, 4)))])


def test_pair_max_iou_is_the_same_in_chunks_of_one_row(monkeypatch):
    rng = np.random.default_rng(8)
    labels = [0, 1, 0, 2, 0, 0, 0, 0, 0, 1]  # one run above the enumeration limit

    def layout():
        order = rng.permutation(len(labels))
        return Layout(geometry=rng.uniform(-1.0, 1.0, (len(labels), 4)),
                      labels=np.array(labels)[order])

    group_a, group_b = [layout() for _ in range(5)], [layout() for _ in range(7)]
    whole = pair_max_iou(group_a, group_b)
    monkeypatch.setattr(metrics, "_CHUNK_VALUES", 1)
    assert np.array_equal(pair_max_iou(group_a, group_b), whole)


@pytest.mark.parametrize("long_run", [False, True], ids=["enumerated", "hungarian"])
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_pair_max_iou_matches_per_pair_oracle(long_run, data):
    group_a, group_b = data.draw(label_multiset_groups(long_run))
    matrix = pair_max_iou(group_a, group_b)
    assert matrix.dtype == np.float64 and matrix.shape == (len(group_a), len(group_b))
    oracle = np.array([[reference_pair_max_iou(a, b) for b in group_b] for a in group_a])
    np.testing.assert_allclose(matrix, oracle, rtol=0.0, atol=1e-12)
    single = np.array([[pair_max_iou([a], [b])[0, 0] for b in group_b] for a in group_a])
    assert np.array_equal(matrix, single)


# -- collection max iou ---------------------------------------------------------------


def collection(seed, count=4, n=3):
    rng = np.random.default_rng(seed)
    return [random_unit_layout(rng, n, num_classes=2) for _ in range(count)]


def test_max_iou_identical_collections():
    layouts = collection(1)
    assert max_iou(layouts, layouts) == pytest.approx(1.0, abs=1e-12)


def test_max_iou_no_common_multiset_is_zero():
    a = [unit_layout((0.5, 0.5, 0.2, 0.2))]
    b = [unit_layout((0.5, 0.5, 0.2, 0.2, 1), id="b")]
    assert max_iou(a, b) == 0.0


def test_max_iou_matches_brute_force_4x4():
    rng = np.random.default_rng(31)

    def fixed_multiset_layout():
        boxes = []
        for label in (0, 0, 1):
            w, h = rng.uniform(0.1, 0.5, 2)
            cx = rng.uniform(w / 2, 1 - w / 2)
            cy = rng.uniform(h / 2, 1 - h / 2)
            boxes.append((cx, cy, w, h, label))
        return unit_layout(*boxes, id="f")

    generated = [fixed_multiset_layout() for _ in range(4)]
    reference = [fixed_multiset_layout() for _ in range(4)]
    weights = np.array([[pair_max_iou([g], [r])[0, 0] for r in reference] for g in generated])
    oracle = max(sum(weights[i, p[i]] for i in range(4))
                 for p in itertools.permutations(range(4))) / 4.0
    assert max_iou(generated, reference) == pytest.approx(oracle, abs=1e-12)


def test_max_iou_empty_collection_rejected():
    with pytest.raises(DataError):
        max_iou([], collection(2))


# -- gathered frames against the per-group oracle ----------------------------------------


@st.composite
def mixed_collections(draw):
    """Generated and reference layouts of 1-36 elements that share label multisets.  The
    first multiset has a label run above ``ENUMERATION_LIMIT``; boxes repeat, sit on
    grid values and may have zero size."""
    multisets = [[0] * draw(st.integers(ENUMERATION_LIMIT + 1, 12))
                 + draw(st.lists(st.integers(1, 5), max_size=6))]
    multisets += draw(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=36),
                               min_size=1, max_size=3))
    pool = draw(st.lists(st.tuples(*[COORDINATE] * 4), min_size=1, max_size=6))

    def layout():
        labels = draw(st.permutations(draw(st.sampled_from(multisets))))
        boxes = [pool[draw(st.integers(0, len(pool) - 1))] for _ in labels]
        return Layout(geometry=np.array(boxes), labels=labels, id="x")

    return ([layout() for _ in range(draw(st.integers(1, 6)))],
            [layout() for _ in range(draw(st.integers(1, 6)))])


def per_layout_bytes(layouts):
    """The five per-layout metrics, arrays by their bytes and collection means by repr."""
    return ([fn(layouts).tobytes()
             for fn in (alignment_kikuchi, overlap_kikuchi, overlap_blt, perceptual_iou)]
            + [repr(alignment_blt(layouts, include_y)) for include_y in (False, True)])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(mixed_collections())
def test_per_layout_metrics_match_the_per_group_oracle_bit_for_bit(collections):
    layouts = collections[0] + collections[1]
    with mock.patch.object(metrics, "_per_layout", metrics_oracle.per_layout):
        want = per_layout_bytes(layouts)
    assert per_layout_bytes(layouts) == want


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(mixed_collections())
def test_max_iou_matches_the_per_group_oracle_bit_for_bit(collections):
    generated, reference = collections
    groups = {}
    for side, layouts in enumerate(collections):
        for layout in layouts:
            groups.setdefault(metrics._label_multiset(layout), ([], []))[side].append(layout)
    shared = [(a, b) for a, b in groups.values() if a and b]
    want = [metrics_oracle.pair_max_iou(a, b).tobytes() for a, b in shared]
    for chunk in (metrics._CHUNK_VALUES, 1):
        with mock.patch.object(metrics, "_CHUNK_VALUES", chunk):
            assert [pair_max_iou(a, b).tobytes() for a, b in shared] == want
            assert repr(max_iou(generated, reference)) == repr(
                metrics_oracle.max_iou(generated, reference))


# -- frechet distance ------------------------------------------------------------------


def whitened_features(rng, n, dim):
    """Features with exactly zero mean and identity sample covariance."""
    x = rng.normal(size=(n, dim))
    x = x - x.mean(axis=0)
    cov = np.cov(x, rowvar=False)
    chol = np.linalg.cholesky(cov)
    return x @ np.linalg.inv(chol).T


def test_frechet_identical_sets_zero():
    feats = np.random.default_rng(0).normal(size=(40, 5))
    a = FeatureSet(features=feats, provenance="t")
    assert frechet_distance(a, a) == pytest.approx(0.0, abs=1e-8)


def test_frechet_shifted_mean_identity_covariance():
    rng = np.random.default_rng(1)
    base = whitened_features(rng, 60, 4)
    shift = np.array([0.5, -1.0, 2.0, 0.25])
    a = FeatureSet(features=base, provenance="a")
    b = FeatureSet(features=base + shift, provenance="b")
    assert frechet_distance(a, b) == pytest.approx(float(shift @ shift), abs=1e-8)


def test_frechet_matches_scipy_sqrtm_oracle():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(7)
    a = rng.normal(size=(50, 5))
    b = rng.normal(size=(50, 5)) @ np.diag([1, 2, 0.5, 1.5, 1.0]) + 0.3
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False)
    cov_b = np.cov(b, rowvar=False)
    sqrt_prod = scipy_linalg.sqrtm(cov_a @ cov_b)
    oracle = float((mu_a - mu_b) @ (mu_a - mu_b)
                   + np.trace(cov_a + cov_b - 2 * sqrt_prod.real))
    ours = frechet_distance(FeatureSet(a, "a"), FeatureSet(b, "b"))
    assert ours == pytest.approx(oracle, abs=1e-8)


def test_frechet_gaussian_analytic_case():
    d = np.array([1.0, 2.0])
    assert frechet_gaussian(np.zeros(2), np.eye(2), d, np.eye(2)) == pytest.approx(5.0, abs=1e-12)


def test_frechet_validates_inputs():
    with pytest.raises(DataError):
        FeatureSet(features=np.ones((3, 5)))  # too few rows
    with pytest.raises(DataError):
        FeatureSet(features=np.array([[np.inf, 0.0]] * 4))
    a = FeatureSet(features=np.random.default_rng(0).normal(size=(10, 2)))
    b = FeatureSet(features=np.random.default_rng(0).normal(size=(10, 3)))
    with pytest.raises(DataError):
        frechet_distance(a, b)


def test_trivial_features_shape():
    layouts = collection(5, count=40, n=3)
    fs = trivial_features(layouts, n_max=4, num_classes=2)
    assert fs.features.shape == (40, 4 * 4 + 2)
    assert fs.provenance == "trivial-geometry-histogram"


def test_trivial_features_refuse_no_layouts_and_labels_outside_the_classes():
    with pytest.raises(DataError, match="at least one layout"):
        trivial_features([], n_max=4, num_classes=2)
    layouts = collection(5, count=3, n=3)
    outside = unit_layout((0.5, 0.5, 0.2, 0.2, 1), (0.3, 0.3, 0.2, 0.2, 2), id="wide")
    for pool in ([outside], [*layouts, outside], [outside, *layouts]):
        with pytest.raises(DataError, match="layout 'wide' has label 2, outside the 2 classes"):
            trivial_features(pool, n_max=4, num_classes=2)


# -- invariances and report -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_metrics_invariant_under_permutation(n, seed):
    rng = np.random.default_rng(seed)
    layout = random_unit_layout(rng, n)
    perm = rng.permutation(n)
    permuted = Layout(geometry=layout.geometry[perm], labels=layout.labels[perm], id="p")
    for fn in (alignment_kikuchi, overlap_kikuchi, overlap_blt, perceptual_iou):
        assert fn([layout])[0] == pytest.approx(fn([permuted])[0], abs=1e-12)
    assert alignment_blt([layout]) == pytest.approx(alignment_blt([permuted]), abs=1e-12)
    assert pair_max_iou([layout], [permuted])[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_evaluate_collections_structure_and_tags():
    layouts = collection(3)
    report = evaluate_collections(layouts, layouts)
    assert report["max_iou"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert report["max_iou"]["convention"] == "kikuchi"
    for metric in ("alignment", "overlap"):
        for convention in ("kikuchi", "blt"):
            for side in ("generated", "reference"):
                entry = report[metric][convention][side]
                assert entry["convention"] == convention
                assert isinstance(entry["value"], float)
    assert (report["alignment"]["kikuchi"]["generated"]["value"]
            == report["alignment"]["kikuchi"]["reference"]["value"])
    assert "frechet" not in report


def test_evaluate_collections_with_features():
    layouts = collection(6, count=20, n=2)
    fs = trivial_features(layouts, n_max=3, num_classes=2)
    report = evaluate_collections(layouts, layouts, features=(fs, fs))
    assert report["frechet"]["value"] == pytest.approx(0.0, abs=1e-8)
    assert report["frechet"]["feature_provenance"] == [fs.provenance, fs.provenance]
