import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutdiffusion.data import Layout
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.metrics import (FeatureSet, MetricFrame, alignment_blt,
                                     alignment_kikuchi, box_iou_matrix, evaluate_collections,
                                     frechet_distance, frechet_gaussian, max_iou,
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
    assert alignment_kikuchi(layout) == pytest.approx(0.0, abs=1e-12)


def test_alignment_kikuchi_single_element_is_zero():
    assert alignment_kikuchi(unit_layout((0.5, 0.5, 0.2, 0.2))) == 0.0


def test_alignment_kikuchi_hand_case():
    # A: left 0.1, cx 0.2, right 0.3; top 0.1, cy 0.2, bottom 0.3
    # B: left 0.5, cx 0.65, right 0.8; top 0.5, cy 0.6, bottom 0.7
    layout = unit_layout((0.2, 0.2, 0.2, 0.2), (0.65, 0.6, 0.3, 0.2))
    gaps = dict(x_left=0.4, x_center=0.45, x_right=0.5,
                y_top=0.4, y_center=0.4, y_bottom=0.4)
    per_element = min(-np.log(1 - g) for g in gaps.values())
    expected = per_element * 100.0  # both elements see the same gaps
    assert alignment_kikuchi(layout) == pytest.approx(expected, abs=1e-9)


def test_alignment_kikuchi_is_nonnegative_random():
    for seed in range(5):
        layout = random_unit_layout(np.random.default_rng(seed), 5)
        assert alignment_kikuchi(layout) >= 0.0


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
    assert overlap_kikuchi(layout) == 0.0
    assert overlap_blt(layout) == 0.0


def test_overlap_identical_pair():
    layout = unit_layout((0.5, 0.5, 0.3, 0.3), (0.5, 0.5, 0.3, 0.3))
    assert overlap_kikuchi(layout) == pytest.approx(100.0, abs=1e-9)
    assert overlap_blt(layout) == pytest.approx(2.0, abs=1e-12)


def test_overlap_nested_boxes_hand_case():
    layout = unit_layout((0.5, 0.5, 0.2, 0.2), (0.5, 0.5, 0.1, 0.1))
    assert overlap_kikuchi(layout) == pytest.approx(62.5, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_overlap_conventions_identity(n, seed):
    layout = random_unit_layout(np.random.default_rng(seed), n)
    assert overlap_blt(layout) == pytest.approx(
        overlap_kikuchi(layout) * len(layout) / 100.0, abs=1e-12)


# -- perceptual iou ---------------------------------------------------------------


def test_perceptual_iou_partial_overlap_ratio():
    # Areas 5, 1, 1 in a 10x10 frame; B and C overlap by 0.5.
    layout = unit_layout((0.25, 0.05, 0.5, 0.1),
                         (0.65, 0.05, 0.1, 0.1),
                         (0.70, 0.05, 0.1, 0.1))
    assert perceptual_iou(layout) == pytest.approx(1.0 / 13.0, abs=1e-9)


def test_perceptual_iou_disjoint_zero():
    layout = unit_layout((0.2, 0.2, 0.2, 0.2), (0.7, 0.7, 0.2, 0.2))
    assert perceptual_iou(layout) == 0.0


def test_perceptual_iou_identical_boxes_one():
    layout = unit_layout((0.4, 0.4, 0.25, 0.3), (0.4, 0.4, 0.25, 0.3))
    assert perceptual_iou(layout) == pytest.approx(1.0, abs=1e-12)


def test_perceptual_iou_in_unit_interval_random():
    for seed in range(10):
        layout = random_unit_layout(np.random.default_rng(seed), 6)
        v = perceptual_iou(layout)
        assert 0.0 <= v <= 1.0


def rasterized_iou(layout, resolution=2048):
    """Point-sampled rasterization: a pixel counts if its center is inside."""
    frame = MetricFrame.from_layout(layout)
    counts = np.zeros((resolution, resolution), dtype=np.int16)
    for i in range(len(frame)):
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
        exact = perceptual_iou(layout)
        approx = rasterized_iou(layout)
        assert abs(exact - approx) <= 2.0 / 2048


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
    assert pair_max_iou(layout, layout) == pytest.approx(1.0, abs=1e-12)


def test_pair_max_iou_disjoint_zero():
    a = unit_layout((0.2, 0.2, 0.1, 0.1), (0.2, 0.5, 0.1, 0.1))
    b = unit_layout((0.8, 0.8, 0.1, 0.1), (0.8, 0.2, 0.1, 0.1))
    assert pair_max_iou(a, b) == 0.0


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
        ious = box_iou_matrix(MetricFrame.from_layout(a), MetricFrame.from_layout(b))
        n = len(labels_a)

        def best(perms):
            return max(sum(ious[i, p[i]] for i in range(n)) for p in perms) / n

        perms = list(itertools.permutations(range(n)))
        oracle = best(p for p in perms if all(labels_a[i] == labels_b[p[i]] for i in range(n)))
        assert pair_max_iou(a, b) == pytest.approx(oracle, abs=1e-12)
        label_blind_wins += best(perms) > oracle + 1e-9
    # The inputs tell a label-respecting assignment from one that ignores labels.
    assert label_blind_wins > 0


def test_pair_max_iou_rejects_mismatched_multisets():
    a = unit_layout((0.5, 0.5, 0.2, 0.2))
    b = unit_layout((0.5, 0.5, 0.2, 0.2, 1), id="b")
    with pytest.raises(DataError):
        pair_max_iou(a, b)


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
    weights = np.array([[pair_max_iou(g, r) for r in reference] for g in generated])
    oracle = max(sum(weights[i, p[i]] for i in range(4))
                 for p in itertools.permutations(range(4))) / 4.0
    assert max_iou(generated, reference) == pytest.approx(oracle, abs=1e-12)


def test_max_iou_empty_collection_rejected():
    with pytest.raises(DataError):
        max_iou([], collection(2))


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


# -- invariances and report -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_metrics_invariant_under_permutation(n, seed):
    rng = np.random.default_rng(seed)
    layout = random_unit_layout(rng, n)
    perm = rng.permutation(n)
    permuted = Layout(geometry=layout.geometry[perm], labels=layout.labels[perm], id="p")
    assert alignment_kikuchi(layout) == pytest.approx(alignment_kikuchi(permuted), abs=1e-12)
    assert overlap_kikuchi(layout) == pytest.approx(overlap_kikuchi(permuted), abs=1e-12)
    assert overlap_blt(layout) == pytest.approx(overlap_blt(permuted), abs=1e-12)
    assert perceptual_iou(layout) == pytest.approx(perceptual_iou(permuted), abs=1e-12)
    assert alignment_blt([layout]) == pytest.approx(alignment_blt([permuted]), abs=1e-12)
    assert pair_max_iou(layout, permuted) == pytest.approx(1.0, abs=1e-12)


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
