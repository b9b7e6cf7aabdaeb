import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutdiffusion.data import (Layout, SynthSpec, batch_to_layouts,
                                  dataset_to_dict, denormalize_layout, grid_rule_box,
                                  load_dataset, make_synthetic_dataset,
                                  normalize_layout, pad_batch, pad_conditions,
                                  save_dataset, to_corner_form)
from layoutdiffusion.exceptions import DataError


def layout_of(*geoms, label=0, id="l0"):
    return Layout(geometry=np.array(geoms, dtype=float), labels=[label] * len(geoms), id=id)


# -- normalization ----------------------------------------------------------


def test_normalize_full_canvas_box():
    raw = layout_of((50, 100, 100, 200))
    normed = normalize_layout(raw, (100, 200))
    np.testing.assert_allclose(normed.elements[0].geometry, [0, 0, 1, 1])


def test_normalize_zero_box_at_origin():
    normed = normalize_layout(layout_of((0, 0, 0, 0)), (100, 200))
    np.testing.assert_allclose(normed.elements[0].geometry, [-1, -1, -1, -1])


def test_normalize_hand_case():
    w_canvas, h_canvas = 80.0, 40.0
    raw = layout_of((w_canvas / 4, 3 * h_canvas / 4, w_canvas / 2, h_canvas / 2))
    normed = normalize_layout(raw, (w_canvas, h_canvas))
    np.testing.assert_allclose(normed.elements[0].geometry, [-0.5, 0.5, 0.0, 0.0])


def test_normalize_rejects_out_of_range_naming_element():
    raw = layout_of((10, 10, 5, 5), (150, 10, 5, 5), id="bad")
    with pytest.raises(DataError, match="element 1"):
        normalize_layout(raw, (100, 100))


def test_denormalize_endpoint_case():
    normed = layout_of((0, 0, 1, 1))
    raw = denormalize_layout(normed, (100, 200))
    np.testing.assert_allclose(raw.elements[0].geometry, [50, 100, 100, 200])


def test_denormalize_allows_overshoot():
    overshoot = layout_of((1.2, 0, 1, 1))
    raw = denormalize_layout(overshoot, (100, 200))
    assert raw.elements[0].geometry[0] == pytest.approx(110.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 50),
                          st.floats(0, 100), st.floats(0, 50)),
                min_size=1, max_size=6))
def test_round_trip_identity(geoms):
    raw = layout_of(*geoms)
    canvas = (100.0, 50.0)
    there = normalize_layout(raw, canvas)
    back = denormalize_layout(there, canvas)
    for a, b in zip(raw.elements, back.elements):
        np.testing.assert_allclose(a.geometry, b.geometry, atol=1e-12)
    again = normalize_layout(back, canvas)
    for a, b in zip(there.elements, again.elements):
        np.testing.assert_allclose(a.geometry, b.geometry, atol=1e-12)


# -- corner form --------------------------------------------------------------


def test_corner_form_unit_box():
    corners = to_corner_form([0.5, 0.5, 1.0, 1.0])
    np.testing.assert_allclose(corners, [0, 0, 0.5, 0.5, 1, 1])


def test_corner_form_degenerate():
    corners = to_corner_form([0.5, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(corners, [0.5] * 6)


def test_corner_form_hand_case():
    corners = to_corner_form([0.25, 0.75, 0.5, 0.5])
    np.testing.assert_allclose(corners, [0.0, 0.5, 0.25, 0.75, 0.5, 1.0])


# -- element/layout invariants -----------------------------------------------


def test_element_requires_exactly_one_attribute():
    with pytest.raises(DataError):
        Layout(geometry=np.zeros((1, 4)))
    with pytest.raises(DataError):
        Layout(geometry=np.zeros((1, 4)), labels=[1], features=np.zeros((1, 3)))


def test_element_rejects_non_finite_geometry():
    with pytest.raises(DataError):
        Layout(geometry=np.array([[0.0, np.nan, 0.0, 0.0]]), labels=[0])


def test_layout_rejects_empty():
    with pytest.raises(DataError):
        Layout(geometry=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64), id="empty")


def test_layout_rejects_mixed_modes():
    # Labels and features together are rejected.
    with pytest.raises(DataError):
        Layout(geometry=np.zeros((2, 4)), labels=[0, 0], features=np.ones((2, 2)), id="mixed")


MALFORMED_ARRAYS = {
    "geometry of 3 columns": dict(geometry=np.zeros((2, 3)), labels=[0, 0]),
    "geometry 1-d": dict(geometry=np.zeros(4), labels=[0]),
    "geometry infinite": dict(geometry=[[0.0, 0.0, np.inf, 0.0]], labels=[0]),
    "negative label": dict(geometry=np.zeros((2, 4)), labels=[0, -1]),
    "fractional labels": dict(geometry=np.zeros((2, 4)), labels=[0.0, 1.5]),
    "one label for two rows": dict(geometry=np.zeros((2, 4)), labels=[0]),
    "features 1-d": dict(geometry=np.zeros((2, 4)), features=np.ones(2)),
    "features NaN": dict(geometry=np.zeros((1, 4)), features=[[0.5, np.nan]]),
    "one feature row for two rows": dict(geometry=np.zeros((2, 4)), features=np.ones((1, 2))),
}


@pytest.mark.parametrize("case", MALFORMED_ARRAYS)
def test_layout_rejects_malformed_arrays(case):
    with pytest.raises(DataError, match="'bad'"):
        Layout(**MALFORMED_ARRAYS[case], id="bad")


def test_layout_arrays_are_read_only_copies():
    geometry = np.zeros((2, 4))
    layout = Layout(geometry=geometry, labels=np.array([1, 0]))
    geometry[0, 0] = 0.5
    assert layout.geometry[0, 0] == 0.0
    with pytest.raises(ValueError):
        layout.labels[0] = 2


def test_elements_view_yields_each_row():
    layout = Layout(geometry=[[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]], labels=[2, 0])
    elements = layout.elements
    assert [e.label for e in elements] == [2, 0]
    assert all(type(e.label) is int and e.feature is None for e in elements)
    np.testing.assert_array_equal([e.geometry for e in elements], layout.geometry)
    continuous = Layout(geometry=np.zeros((2, 4)), features=[[1.0], [2.0]])
    assert [(e.label, e.feature.tolist()) for e in continuous.elements] == [(None, [1.0]),
                                                                           (None, [2.0])]


# -- file I/O -----------------------------------------------------------------


def write_dataset_file(tmp_path, doc, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc():
    return {
        "canvas": {"width": 100, "height": 100},
        "labels": ["text"],
        "layouts": [
            {"id": "a", "elements": [{"label": 0, "bbox": [50, 50, 20, 10]}]},
        ],
    }


def test_load_minimal_file(tmp_path):
    ds = load_dataset(write_dataset_file(tmp_path, minimal_doc()))
    assert len(ds) == 1
    assert ds.label_names == ("text",)
    geom = ds.layouts[0].elements[0].geometry
    np.testing.assert_allclose(geom, [0.0, 0.0, -0.6, -0.8])


def test_load_preserves_label_order(tmp_path):
    doc = minimal_doc()
    doc["labels"] = ["text", "image", "button"]
    doc["layouts"][0]["elements"].append({"label": 2, "bbox": [10, 10, 5, 5]})
    ds = load_dataset(write_dataset_file(tmp_path, doc))
    assert ds.label_names == ("text", "image", "button")
    assert len(ds.label_names) == 3


def test_load_rejects_zero_element_layout(tmp_path):
    doc = minimal_doc()
    doc["layouts"].append({"id": "empty-one", "elements": []})
    with pytest.raises(DataError, match="empty-one"):
        load_dataset(write_dataset_file(tmp_path, doc))


def test_load_rejects_unknown_fields(tmp_path):
    doc = minimal_doc()
    doc["layouts"][0]["extra"] = 1
    with pytest.raises(DataError, match="unknown fields"):
        load_dataset(write_dataset_file(tmp_path, doc))


def test_load_rejects_out_of_vocabulary(tmp_path):
    doc = minimal_doc()
    doc["layouts"][0]["elements"][0]["label"] = 5
    with pytest.raises(DataError, match="'a'"):
        load_dataset(write_dataset_file(tmp_path, doc))


def test_load_rejects_too_many_elements(tmp_path):
    doc = minimal_doc()
    doc["layouts"][0]["elements"] = [
        {"label": 0, "bbox": [50, 50, 1, 1]} for _ in range(40)
    ]
    with pytest.raises(DataError, match="'a'"):
        load_dataset(write_dataset_file(tmp_path, doc))


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_rejects_out_of_canvas_unless_lenient(tmp_path):
    doc = minimal_doc()
    doc["layouts"][0]["elements"][0]["bbox"] = [150, 50, 20, 10]
    path = write_dataset_file(tmp_path, doc)
    with pytest.raises(DataError):
        load_dataset(path)
    ds = load_dataset(path, strict_geometry=False)
    assert ds.layouts[0].elements[0].geometry[0] == pytest.approx(2.0)


def test_load_continuous_mode(tmp_path):
    doc = {
        "canvas": {"width": 10, "height": 10},
        "feature_dim": 3,
        "layouts": [
            {"id": "c", "elements": [{"feature": [0.1, 0.2, 0.3], "bbox": [5, 5, 2, 2]}]},
        ],
    }
    ds = load_dataset(write_dataset_file(tmp_path, doc))
    assert ds.feature_dim == 3
    assert ds.mode == "continuous"
    np.testing.assert_array_equal(ds.layouts[0].features, [[0.1, 0.2, 0.3]])
    doc["labels"] = ["text"]
    with pytest.raises(DataError, match="unknown fields"):
        load_dataset(write_dataset_file(tmp_path, doc))


def continuous_doc():
    return {
        "canvas": {"width": 10, "height": 10},
        "feature_dim": 2,
        "layouts": [
            {"id": "c", "elements": [{"feature": [0.1, 0.2], "bbox": [5, 5, 2, 2]}]},
        ],
    }


def element(doc):
    return doc["layouts"][0]["elements"][0]


MALFORMED = {
    "label string": (minimal_doc, lambda d: element(d).update(label="zz")),
    "label float": (minimal_doc, lambda d: element(d).update(label=1.7)),
    "label bool": (minimal_doc, lambda d: element(d).update(label=True)),
    "bbox strings": (minimal_doc, lambda d: element(d).update(bbox=["a", "b", "c", "d"])),
    "bbox string": (minimal_doc, lambda d: element(d).update(bbox="50 50 20 10")),
    "bbox three numbers": (minimal_doc, lambda d: element(d).update(bbox=[50, 50, 20])),
    "bbox huge integer": (minimal_doc, lambda d: element(d).update(bbox=[10**400, 50, 20, 10])),
    "element not an object": (minimal_doc, lambda d: d["layouts"][0].update(elements=[5])),
    "elements not a list": (minimal_doc, lambda d: d["layouts"][0].update(elements=5)),
    "layout not an object": (minimal_doc, lambda d: d.update(layouts=["a"])),
    "layouts not a list": (minimal_doc, lambda d: d.update(layouts=5)),
    "canvas not an object": (minimal_doc, lambda d: d.update(canvas=5)),
    "canvas width string": (minimal_doc, lambda d: d["canvas"].update(width="wide")),
    "labels not a list": (minimal_doc, lambda d: d.update(labels=3)),
    "feature strings": (continuous_doc, lambda d: element(d).update(feature=["x", "y"])),
    "feature_dim string": (continuous_doc, lambda d: d.update(feature_dim="x")),
    "feature_dim float": (continuous_doc, lambda d: d.update(feature_dim=2.5)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_load_rejects_malformed_values_naming_the_file(tmp_path, case):
    make_doc, edit = MALFORMED[case]
    doc = make_doc()
    edit(doc)
    path = write_dataset_file(tmp_path, doc)
    with pytest.raises(DataError, match=str(path)):
        load_dataset(path)


def test_save_load_round_trip(tmp_path):
    spec = SynthSpec(num_layouts=12, num_classes=3, rule="random_boxes")
    ds = make_synthetic_dataset(spec, 5)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(ds)
    for a, b in zip(ds.layouts, loaded.layouts):
        np.testing.assert_allclose(a.geometry, b.geometry, atol=1e-12)


# -- synthetic datasets --------------------------------------------------------


def test_synthetic_is_deterministic(tmp_path):
    spec = SynthSpec(num_layouts=512, num_classes=4)
    a = make_synthetic_dataset(spec, 7)
    b = make_synthetic_dataset(spec, 7)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(a, pa)
    save_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert len(a) == 512


def test_synthetic_seed_changes_output():
    spec = SynthSpec(num_layouts=4, num_classes=2, rule="random_boxes")
    a = make_synthetic_dataset(spec, 1)
    b = make_synthetic_dataset(spec, 2)
    assert not np.allclose(a.layouts[0].geometry, b.layouts[0].geometry)


def test_grid_rule_is_constant_per_class():
    spec = SynthSpec(num_layouts=64, num_classes=4)
    ds = make_synthetic_dataset(spec, 3)
    expected = grid_rule_box(0, 4)
    for layout in ds.layouts:
        for e in layout.elements:
            if e.label == 0:
                np.testing.assert_array_equal(e.geometry, expected)


def test_grid_rule_boxes_distinct_across_classes():
    boxes = [grid_rule_box(k, 4) for k in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(boxes[i], boxes[j])


def test_random_boxes_inside_unit_cube():
    spec = SynthSpec(num_layouts=64, num_classes=3, rule="random_boxes")
    ds = make_synthetic_dataset(spec, 11)
    for layout in ds.layouts:
        geom = layout.geometry
        assert geom.min() >= -1.0 and geom.max() <= 1.0


def test_synth_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(num_layouts=10, num_classes=0)
    with pytest.raises(DataError):
        SynthSpec(num_layouts=10, num_classes=2, elements_per_layout_range=(5, 2))
    with pytest.raises(DataError):
        SynthSpec(num_layouts=10, num_classes=2, rule="spiral")


# -- batching -------------------------------------------------------------------


def test_pad_batch_shapes_and_mask():
    l2 = layout_of((0, 0, 0.5, 0.5), (0.1, 0.1, 0.2, 0.2), id="two")
    l3 = layout_of((0, 0, 0.5, 0.5), (0.1, 0.1, 0.2, 0.2), (0.3, 0.3, 0.1, 0.1), id="three")
    batch = pad_batch([l2, l3])
    assert batch.geometry.shape == (2, 3, 4)
    assert batch.mask.tolist() == [[True, True, False], [True, True, True]]
    np.testing.assert_array_equal(batch.geometry[0, 2], np.zeros(4))


def test_pad_batch_single_layout_all_true():
    batch = pad_batch([layout_of((0, 0, 0.5, 0.5), (0.1, 0.1, 0.2, 0.2))])
    assert batch.mask.all()


def test_pad_batch_mask_counts_elements():
    layouts = [layout_of(*[(0.1 * k, 0, 0.1, 0.1) for k in range(n)], id=str(n))
               for n in (1, 3, 5)]
    batch = pad_batch(layouts)
    assert batch.mask.sum() == 9


def test_pad_batch_rejects_mixed_modes():
    cat = layout_of((0, 0, 0.1, 0.1))
    cont = Layout(geometry=np.zeros((1, 4)), features=np.ones((1, 2)), id="c")
    with pytest.raises(DataError):
        pad_batch([cat, cont])


def test_pad_conditions_labels_and_features():
    attributes, mask = pad_conditions([[2, 1], [0]])
    assert attributes.dtype == np.int64
    assert attributes.tolist() == [[2, 1], [0, 0]]
    assert mask.tolist() == [[True, True], [True, False]]

    attributes, mask = pad_conditions([np.full((1, 3), 0.5), np.full((3, 3), 0.25)])
    assert attributes.shape == (2, 3, 3) and attributes.dtype == np.float64
    np.testing.assert_array_equal(attributes[0, 0], 0.5)
    np.testing.assert_array_equal(attributes[0, 1:], 0.0)
    np.testing.assert_array_equal(attributes[1], 0.25)
    assert mask.tolist() == [[True, False, False], [True, True, True]]

    with pytest.raises(DataError):
        pad_conditions([np.ones((1, 3)), np.ones((2, 2))])
    with pytest.raises(DataError):
        pad_conditions([])


def test_pad_then_strip_round_trips():
    categorical = make_synthetic_dataset(SynthSpec(num_layouts=9, num_classes=3,
                                                   rule="random_boxes"), 2).layouts
    rng = np.random.default_rng(2)
    continuous = [Layout(geometry=rng.uniform(-1, 1, (n, 4)), features=rng.normal(size=(n, 3)),
                         id=f"c{i}") for i, n in enumerate(rng.integers(1, 6, 9))]
    for layouts in (categorical, continuous):
        batch = pad_batch(layouts)
        back = batch_to_layouts(batch.geometry, batch.attributes, batch.mask,
                                ids=[l.id for l in layouts])
        assert len(back) == len(layouts)
        for orig, rebuilt in zip(layouts, back):
            assert rebuilt.id == orig.id
            assert len(rebuilt) == len(orig)
            np.testing.assert_array_equal(rebuilt.geometry, orig.geometry)
            np.testing.assert_array_equal(rebuilt.labels, orig.labels)
            np.testing.assert_array_equal(rebuilt.features, orig.features)


def test_dataset_to_dict_includes_meta():
    ds = make_synthetic_dataset(SynthSpec(num_layouts=2, num_classes=2), 1)
    doc = dataset_to_dict(ds, meta={"origin": "test"})
    assert doc["meta"] == {"origin": "test"}
    assert len(doc["layouts"]) == 2
