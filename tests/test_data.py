import json
import math
import os

import data_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layoutdiffusion.data import (DEFAULT_N_MAX, Dataset, Layout, SynthSpec, atomic_path,
                                  batch_to_layouts, denormalize_layout, grid_rule_box,
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
    "geometry strings": dict(geometry=[["0.1", "0.2", "0.3", "0.4"]], labels=[0]),
    "geometry bools": dict(geometry=[[True, False, True, True]], labels=[0]),
    "labels beyond int64": dict(geometry=np.zeros((1, 4)), labels=[2**63]),
    "labels uint64 beyond int64": dict(geometry=np.zeros((1, 4)),
                                       labels=np.array([2**64 - 1], dtype=np.uint64)),
    "features strings": dict(geometry=np.zeros((1, 4)), features=[["1", "2"]]),
    "features bools": dict(geometry=np.zeros((1, 4)), features=[[True, False]]),
    "features integer beyond float64": dict(geometry=np.zeros((1, 4)), features=[[10**400]]),
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


def test_layout_equals_only_itself_and_is_hashable():
    a = Layout(geometry=np.zeros((2, 4)), labels=[0, 1])
    b = Layout(geometry=np.zeros((2, 4)), labels=[0, 1])
    assert a == a
    assert not (a == b)
    assert a != b
    assert len({a, b}) == 2
    assert len({a, a}) == 1


@pytest.mark.parametrize("canvas", [(float("nan"), 100), (float("inf"), 1), (100, -float("inf")),
                                    ("100", 50), (True, 50), (50, np.bool_(True)), (0, 50),
                                    (100, -1.0), (10**400, 50), (100,), (100, 50, 50), 5, None,
                                    "ab", np.array(100.0), np.array([[100.0, 50.0]])])
def test_dataset_refuses_a_canvas_that_is_not_two_positive_finite_numbers(canvas):
    with pytest.raises(DataError, match="canvas"):
        Dataset(layouts=(), canvas=canvas, label_names=("a",))


@pytest.mark.parametrize("heads", [dict(label_names=["a", 1]), dict(label_names="ab"),
                                   dict(label_names={"a": 0}), dict(feature_dim=0),
                                   dict(feature_dim=-1), dict(feature_dim=True),
                                   dict(feature_dim="3"), dict(feature_dim=2.5)])
def test_dataset_refuses_an_attribute_head_that_a_load_would_refuse(heads):
    with pytest.raises(DataError, match="label_names|feature_dim"):
        Dataset(layouts=(), **heads)


def test_dataset_attribute_heads_round_trip_through_a_file(tmp_path):
    path = tmp_path / "d.json"
    for heads in (dict(label_names=["a", "b"]), dict(label_names=()),
                  dict(feature_dim=np.int64(3))):
        dataset = Dataset(layouts=(), **heads)
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        assert (loaded.label_names, loaded.feature_dim) == (dataset.label_names,
                                                            dataset.feature_dim)
        assert type(dataset.feature_dim) in (int, type(None))


def test_dataset_accepts_python_and_numpy_real_canvas_sizes():
    for canvas in [(100, 50), (0.5, 2.0), (np.float32(10), np.int64(20)), np.array([3.0, 4.0])]:
        dataset = Dataset(layouts=(), canvas=canvas, label_names=("a",))
        assert dataset.canvas == tuple(float(v) for v in canvas)
        assert all(type(v) is float for v in dataset.canvas)


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
    "labels not strings": (minimal_doc, lambda d: d.update(labels=[1, None])),
    "feature strings": (continuous_doc, lambda d: element(d).update(feature=["x", "y"])),
    "feature_dim string": (continuous_doc, lambda d: d.update(feature_dim="x")),
    "feature_dim float": (continuous_doc, lambda d: d.update(feature_dim=2.5)),
    "label huge integer": (minimal_doc, lambda d: element(d).update(label=2**70)),
    "label negative": (minimal_doc, lambda d: element(d).update(label=-1)),
    "bbox bool": (minimal_doc, lambda d: element(d).update(bbox=[True, 50, 20, 10])),
    "bbox NaN": (minimal_doc, lambda d: element(d).update(bbox=[math.nan, 50, 20, 10])),
    "bbox Infinity": (minimal_doc, lambda d: element(d).update(bbox=[50, math.inf, 20, 10])),
    "feature NaN": (continuous_doc, lambda d: element(d).update(feature=[math.nan, 0.2])),
    "feature Infinity": (continuous_doc, lambda d: element(d).update(feature=[0.1, -math.inf])),
    "feature huge integer": (continuous_doc, lambda d: element(d).update(feature=[10**400, 0.2])),
    # A finite box outside the canvas passes a lenient load until normalization.
    "bbox beyond float64 once normalized, lenient load": (
        minimal_doc, lambda d: (d["canvas"].update(width=0.5),
                                element(d).update(bbox=[1e308, 1, 1, 1]))),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_load_rejects_malformed_values_naming_the_file(tmp_path, case):
    make_doc, edit = MALFORMED[case]
    doc = make_doc()
    edit(doc)
    path = write_dataset_file(tmp_path, doc)
    with pytest.raises(DataError, match=str(path)):
        load_dataset(path, strict_geometry="lenient load" not in case)


def test_a_box_outside_the_float64_range_or_the_canvas_names_the_element(tmp_path):
    doc = minimal_doc()
    doc["canvas"]["width"] = 0.5
    doc["layouts"][0]["elements"].append({"label": 0, "bbox": [1e308, 1, 1, 1]})
    path = write_dataset_file(tmp_path, doc)
    at = f"dataset {path} layout 'a' element"
    with pytest.raises(DataError) as raised:
        load_dataset(path, strict_geometry=False)
    assert str(raised.value) == (f"{at} 1: bbox [1e+308, 1.0, 1.0, 1.0] leaves the float64 "
                                 f"range once normalized")
    with pytest.raises(DataError) as raised:
        load_dataset(path)
    assert str(raised.value) == (f"{at} 0: geometry [50.0, 50.0, 20.0, 10.0] outside canvas "
                                 f"(0.5, 100.0)")


TWO_FAULTS = {
    "structural": (lambda el: el.pop("bbox"), "{at} element: missing fields ['bbox']"),
    "numeric": (lambda el: el.update(bbox=[math.nan, 50, 20, 10]),
                "{at} bbox: expected 4 finite numbers, got [nan, 50, 20, 10]"),
}


@pytest.mark.parametrize("same_layout", [False, True], ids=["two layouts", "one layout"])
@pytest.mark.parametrize("order", [("structural", "numeric"), ("numeric", "structural")])
def test_load_names_the_first_of_two_faults_in_file_order(tmp_path, order, same_layout):
    doc = minimal_doc()
    doc["layouts"] = [{"id": lid, "elements": [{"label": 0, "bbox": [50, 50, 20, 10]},
                                               {"label": 0, "bbox": [10, 10, 5, 5]}]}
                      for lid in ("first", "second")]
    first, second = doc["layouts"]
    targets = ((first["elements"][0], first["elements"][1]) if same_layout
               else (first["elements"][1], second["elements"][0]))
    for kind, target in zip(order, targets):
        TWO_FAULTS[kind][0](target)
    path = write_dataset_file(tmp_path, doc)
    with pytest.raises(DataError) as raised:
        load_dataset(path)
    assert str(raised.value) == TWO_FAULTS[order[0]][1].format(at=f"dataset {path} layout 'first'")


def coordinates(limit, strict):
    """Box values in canvas units: inside ``[0, limit]`` for a strict load, anywhere for
    a lenient one; ints and floats, with -0.0 and subnormals."""
    odd = st.sampled_from([-0.0, 5e-324, 1e-310])
    if strict:
        return st.one_of(st.integers(0, int(limit)), st.floats(0, limit), odd)
    return st.one_of(st.integers(-10**20, 10**20), st.floats(-1e6, 1e6), odd)


@st.composite
def dataset_files(draw):
    """A valid dataset document, categorical or continuous, and whether to load it strictly."""
    strict = draw(st.booleans())
    feature_dim = draw(st.one_of(st.none(), st.integers(1, 3)))
    width, height = (draw(st.one_of(st.integers(1, 1000), st.floats(0.5, 1000)))
                     for _ in range(2))
    doc = {"canvas": {"width": width, "height": height}}
    if feature_dim is None:
        doc["labels"] = ["text", "image", "button"]
        attribute = ("label", st.integers(0, 2))
    else:
        doc["feature_dim"] = feature_dim
        attribute = ("feature", st.lists(st.one_of(st.integers(-10**20, 10**20),
                                                   st.floats(-1e6, 1e6),
                                                   st.sampled_from([-0.0, 5e-324])),
                                         min_size=feature_dim, max_size=feature_dim))
    boxes = st.tuples(coordinates(width, strict), coordinates(height, strict),
                      coordinates(width, strict), coordinates(height, strict)).map(list)
    elements = st.lists(st.fixed_dictionaries({"bbox": boxes, attribute[0]: attribute[1]}),
                        min_size=1, max_size=5)
    layouts = st.lists(st.fixed_dictionaries({"id": st.one_of(st.text(max_size=3),
                                                              st.integers()),
                                              "elements": elements}), max_size=4)
    doc["layouts"] = draw(layouts)
    return doc, strict


def oracle_layouts(doc, strict):
    """The layouts of ``doc`` built one at a time through the public ``Layout`` and
    ``normalize_layout``; a lenient load applies the same affine map without the
    canvas check."""
    canvas = (float(doc["canvas"]["width"]), float(doc["canvas"]["height"]))
    key = "label" if "labels" in doc else "feature"
    out = []
    for entry in doc["layouts"]:
        attributes = {key + "s": [el[key] for el in entry["elements"]]}
        raw = Layout(geometry=[el["bbox"] for el in entry["elements"]], id=str(entry["id"]),
                     **attributes)
        if strict:
            out.append(normalize_layout(raw, canvas))
        else:
            out.append(Layout(geometry=2.0 * raw.geometry / np.array(canvas * 2) - 1.0,
                              id=raw.id, **attributes))
    return out


@settings(max_examples=80, deadline=None)
@given(dataset_files())
def test_load_matches_a_layout_by_layout_oracle_bit_for_bit(tmp_path_factory, case):
    doc, strict = case
    path = write_dataset_file(tmp_path_factory.mktemp("load"), doc)
    loaded = load_dataset(path, strict_geometry=strict)
    expected = oracle_layouts(doc, strict)
    assert len(loaded) == len(expected)
    for got, want in zip(loaded.layouts, expected):
        assert got.id == want.id
        for name in ("geometry", "labels", "features"):
            got_array, want_array = getattr(got, name), getattr(want, name)
            if want_array is None:
                assert got_array is None
                continue
            assert got_array.dtype == want_array.dtype
            assert got_array.shape == want_array.shape
            assert got_array.tobytes() == want_array.tobytes()
            assert not got_array.flags.writeable
            with pytest.raises(ValueError):
                got_array[0] = 0


def test_save_load_round_trip(tmp_path):
    spec = SynthSpec(num_layouts=12, num_classes=3, rule="random_boxes")
    ds = make_synthetic_dataset(spec, 5)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(ds)
    for a, b in zip(ds.layouts, loaded.layouts):
        np.testing.assert_allclose(a.geometry, b.geometry, atol=1e-12)


def test_failed_save_leaves_the_previous_dataset(tmp_path, monkeypatch):
    spec = SynthSpec(num_layouts=200, num_classes=3, rule="random_boxes")
    path = tmp_path / "ds.json"
    save_dataset(make_synthetic_dataset(spec, 1), path)
    before = path.read_bytes()
    dumps, written = json.dumps, []

    def failing_dumps(obj, **kwargs):  # fails at the id of layout 150, mid-file
        if obj == "synth-000150":
            (tmp,) = [p for p in tmp_path.iterdir() if p.name != "ds.json"]
            written.append(tmp.stat().st_size)
            raise OSError("no space left on device")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(OSError):
        save_dataset(make_synthetic_dataset(spec, 2), path)
    monkeypatch.undo()
    assert written[0] > 0
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.json"]


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
    # Integers only, and no more elements than a dataset file may hold.
    with pytest.raises(DataError, match="num_layouts"):
        SynthSpec(num_layouts=True, num_classes=2)
    with pytest.raises(DataError, match="num_classes"):
        SynthSpec(num_layouts=10, num_classes=2.5)
    with pytest.raises(DataError, match="<= 36"):
        SynthSpec(num_layouts=10, num_classes=2, elements_per_layout_range=(37, 40))
    with pytest.raises(DataError, match="<= 36"):
        SynthSpec(num_layouts=10, num_classes=2, elements_per_layout_range=(2, 37))
    with pytest.raises(DataError, match="integers"):
        SynthSpec(num_layouts=10, num_classes=2, elements_per_layout_range=(2.0, 4))
    spec = SynthSpec(num_layouts=2, num_classes=2, elements_per_layout_range=(36, 36))
    assert {len(layout) for layout in make_synthetic_dataset(spec, 0).layouts} == {36}


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


def test_save_writes_meta(tmp_path):
    ds = make_synthetic_dataset(SynthSpec(num_layouts=2, num_classes=2), 1)
    save_dataset(ds, tmp_path / "ds.json", meta={"origin": "test"})
    doc = json.loads((tmp_path / "ds.json").read_text())
    assert doc["meta"] == {"origin": "test"}
    assert len(doc["layouts"]) == 2


# -- writing: refusals and atomic files ------------------------------------------


def labelled(lid, labels):
    return Layout(geometry=np.zeros((len(labels), 4)), labels=labels, id=lid)


def featured(lid, width, n=2):
    return Layout(geometry=np.zeros((n, 4)), features=np.ones((n, width)), id=lid)


def overflowing(lid, width=None):
    """A layout whose second box is finite normalized, but not in units of a 100 canvas."""
    geometry = [[0.0] * 4, [1e308, 0.0, 0.0, 0.0]]
    attribute = {"labels": [0, 1]} if width is None else {"features": np.ones((2, width))}
    return Layout(geometry=geometry, id=lid, **attribute)


# Each case builds its dataset inside the test, where the constructor refuses it.
SAVE_FAULTS = {
    "a label outside the vocabulary": (
        lambda: Dataset(layouts=(labelled("l0", [0, 1]), labelled("l1", [1, 3]),
                                 labelled("l2", [5, 0])), label_names=("a", "b")),
        "layout 'l1': the dataset needs label ids below 2"),
    "a continuous layout in a categorical dataset": (
        lambda: Dataset(layouts=(labelled("l0", [0]), featured("l1", 2), labelled("l2", [7])),
                        label_names=("a", "b")),
        "layout 'l1': the dataset needs label ids below 2"),
    "a label fault before a mode fault": (
        lambda: Dataset(layouts=(labelled("l0", [0]), labelled("l1", [2]), featured("l2", 2)),
                        label_names=("a", "b")),
        "layout 'l1': the dataset needs label ids below 2"),
    "a categorical layout in a continuous dataset": (
        lambda: Dataset(layouts=(featured("l0", 2), labelled("l1", [0]), featured("l2", 3)),
                        feature_dim=2),
        "layout 'l1': the dataset needs features of width 2"),
    "features of another width": (
        lambda: Dataset(layouts=(featured("l0", 2), featured("l1", 3)), feature_dim=2),
        "layout 'l1': the dataset needs features of width 2"),
    "more elements than a file holds": (
        lambda: Dataset(layouts=(labelled("l0", [0] * 36), labelled("l1", [1] * 37),
                                 labelled("l2", [5] * 40)), label_names=("a", "b")),
        "layout 'l1': it has 37 elements, limit is 36"),
    "an item that is not a Layout": (
        lambda: Dataset(layouts=(labelled("l0", [0]), "x", labelled("l2", [5])),
                        label_names=("a", "b")),
        "dataset item 1 is a str, not a Layout"),
    "a box beyond the float64 range in canvas units": (
        lambda: Dataset(layouts=(labelled("l0", [0]), overflowing("l1"), labelled("l2", [5])),
                        label_names=("a", "b")),
        "layout 'l1' element 1: geometry [1e+308, 0.0, 0.0, 0.0] leaves the float64 range in "
        "the units of canvas (100.0, 100.0)"),
    "a box beyond the float64 range in a continuous dataset": (
        lambda: Dataset(layouts=(featured("l0", 2), overflowing("l1", width=2)), feature_dim=2),
        "layout 'l1' element 1: geometry [1e+308, 0.0, 0.0, 0.0] leaves the float64 range in "
        "the units of canvas (100.0, 100.0)"),
    "a label fault before a box beyond the float64 range": (
        lambda: Dataset(layouts=(labelled("l0", [0]), labelled("l1", [2]), overflowing("l2")),
                        label_names=("a", "b")),
        "layout 'l1': the dataset needs label ids below 2"),
    "a box beyond the float64 range before a label fault": (
        lambda: Dataset(layouts=(overflowing("l0"), labelled("l1", [2])), label_names=("a", "b")),
        "layout 'l0' element 1: geometry [1e+308, 0.0, 0.0, 0.0] leaves the float64 range in "
        "the units of canvas (100.0, 100.0)"),
    "a label fault before an item that is not a Layout": (
        lambda: Dataset(layouts=(labelled("l0", [0]), labelled("l1", [2]), "x"),
                        label_names=("a", "b")),
        "layout 'l1': the dataset needs label ids below 2"),
}


@pytest.mark.parametrize("make, message", SAVE_FAULTS.values(), ids=SAVE_FAULTS.keys())
def test_save_refuses_a_layout_that_a_load_would_refuse(tmp_path, make, message):
    with pytest.raises(DataError) as raised:
        save_dataset(make(), tmp_path / "ds.json")
    assert str(raised.value) == message
    assert list(tmp_path.iterdir()) == []


def test_a_box_beyond_the_float64_range_in_canvas_units_never_reaches_a_file(tmp_path):
    with pytest.raises(DataError, match="layout 'l0' element 1: geometry"):
        Dataset(layouts=(overflowing("l0"),), label_names=("a", "b"))
    # A normalized box far outside the canvas that still fits in canvas units round-trips.
    edge = Layout(geometry=[[1e306, 0.0, 0.0, 0.0]], labels=[0], id="edge")
    save_dataset(Dataset(layouts=(edge,), label_names=("a",)), tmp_path / "edge.json")
    assert load_dataset(tmp_path / "edge.json", strict_geometry=False).layouts[0].geometry[0, 0] \
        == pytest.approx(1e306)


@st.composite
def valid_datasets(draw):
    """A dataset of either attribute mode whose layouts the head can hold: 0-4 layouts of
    1-36 elements, with text or integer ids."""
    feature_dim = draw(st.one_of(st.none(), st.integers(1, 3)))
    names = None if feature_dim else draw(st.lists(st.text(max_size=3), min_size=1,
                                                   max_size=4))
    layouts = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, DEFAULT_N_MAX))
        if feature_dim:
            values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=n * feature_dim, max_size=n * feature_dim))
            attribute = {"features": np.reshape(values, (n, feature_dim))}
        else:
            attribute = {"labels": draw(st.lists(st.integers(0, len(names) - 1),
                                                 min_size=n, max_size=n))}
        geometry = draw(st.lists(st.floats(-1, 1), min_size=4 * n, max_size=4 * n))
        layouts.append(Layout(geometry=np.reshape(geometry, (n, 4)),
                              id=draw(st.one_of(st.text(max_size=3), st.integers())),
                              **attribute))
    return Dataset(layouts=layouts, label_names=names, feature_dim=feature_dim)


@settings(max_examples=60, deadline=None)
@given(valid_datasets())
def test_every_dataset_that_constructs_saves_and_loads_back(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("round") / "ds.json"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert (loaded.label_names, loaded.feature_dim) == (dataset.label_names,
                                                        dataset.feature_dim)
    assert [l.id for l in loaded.layouts] == [str(l.id) for l in dataset.layouts]
    assert list(map(len, loaded.layouts)) == list(map(len, dataset.layouts))
    name = "labels" if dataset.feature_dim is None else "features"
    for got, want in zip(loaded.layouts, dataset.layouts):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_save_leaves_a_foreign_tmp_file_alone(tmp_path):
    foreign = tmp_path / "ds.json.tmp"
    foreign.write_bytes(b"not the dataset\x00")
    save_dataset(make_synthetic_dataset(SynthSpec(num_layouts=2, num_classes=2), 1),
                 tmp_path / "ds.json")
    assert foreign.read_bytes() == b"not the dataset\x00"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.json", "ds.json.tmp"]
    assert len(load_dataset(tmp_path / "ds.json")) == 2


def test_two_interleaved_writers_of_one_path_leave_one_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_path(path) as first:
        with open(first, "w") as fh:
            fh.write("AAA")
        with atomic_path(path) as second, open(second, "w") as fh:
            fh.write("BBBBBBBBBBBBB")
        assert path.read_text() == "BBBBBBBBBBBBB"
        with open(first, "a") as fh:
            fh.write("AAA")
    assert path.read_text() == "AAAAAA"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_a_new_file_gets_the_mode_that_open_gives(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    save_dataset(make_synthetic_dataset(SynthSpec(num_layouts=1, num_classes=1), 0),
                 tmp_path / "ds.json")
    assert os.stat(tmp_path / "ds.json").st_mode == os.stat(tmp_path / "plain").st_mode


# -- writers against their per-element, per-layout and per-row oracles -----------


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_synthesis(spec, seed):
    got = make_synthetic_dataset(spec, seed)
    want = data_oracle.make_synthetic_dataset(spec, seed)
    assert (got.canvas, got.label_names) == (want.canvas, want.label_names)
    assert [layout.id for layout in got.layouts] == [layout.id for layout in want.layouts]
    for a, b in zip(got.layouts, want.layouts):
        assert_same_arrays(a.geometry, b.geometry)
        assert_same_arrays(a.labels, b.labels)


@settings(max_examples=40, deadline=None)
@given(rule=st.sampled_from(["grid_by_label", "random_boxes"]),
       num_classes=st.integers(1, 40), num_layouts=st.integers(1, 40),
       low=st.integers(1, DEFAULT_N_MAX), spread=st.one_of(st.just(0), st.integers(0, 35)),
       seed=st.one_of(st.sampled_from([0, 2**63 + 11, 2**64 - 1]), st.integers(0, 2**64 - 1)))
def test_synthesis_matches_the_per_element_oracle_bit_for_bit(rule, num_classes, num_layouts,
                                                              low, spread, seed):
    assert_same_synthesis(SynthSpec(num_layouts=num_layouts, num_classes=num_classes, rule=rule,
                                    elements_per_layout_range=(low, min(low + spread,
                                                                        DEFAULT_N_MAX))), seed)


@pytest.mark.parametrize("rule", ["grid_by_label", "random_boxes"])
def test_synthesis_of_2048_layouts_matches_the_per_element_oracle_bit_for_bit(rule):
    assert_same_synthesis(SynthSpec(num_layouts=2048, num_classes=7, rule=rule,
                                    elements_per_layout_range=(1, DEFAULT_N_MAX)), 2**61 + 5)


@pytest.mark.parametrize("num_classes", [1, 4, 7, 40, 10**6 + 3])
def test_grid_rule_box_of_a_label_array_is_the_scalar_box_of_each(num_classes):
    labels = np.unique(np.linspace(0, num_classes - 1, 64).astype(np.int64))
    boxes = grid_rule_box(labels, num_classes)
    assert boxes.shape == (len(labels), 4)
    for label, box in zip(labels, boxes):
        assert box.tobytes() == data_oracle.grid_rule_box(int(label), num_classes).tobytes()
    assert_same_arrays(grid_rule_box(int(labels[-1]), num_classes), boxes[-1])


# JSON text that needs escaping: quotes, backslashes, control characters, non-ASCII.
json_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀'), st.characters()),
                    max_size=6)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), json_text),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(json_text, inner, max_size=3)),
    max_leaves=12)


@st.composite
def saved_datasets(draw):
    """A dataset to save, categorical or continuous, whose boxes may overshoot the canvas;
    with or without nested ``meta`` and the clamped boxes, and with ids that need escaping."""
    feature_dim = draw(st.one_of(st.none(), st.integers(1, 3)))
    canvas = (draw(st.floats(0.5, 1000)), draw(st.floats(0.5, 1000)))
    values = st.one_of(st.floats(-3, 3), st.sampled_from([-1.0, 1.0, -0.0, 5e-324]))
    layouts = []
    for i in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 5))
        geometry = np.reshape(draw(st.lists(values, min_size=4 * n, max_size=4 * n)), (n, 4))
        if feature_dim is None:
            attributes = {"labels": draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))}
        else:
            width = n * feature_dim
            attributes = {"features": np.reshape(draw(st.lists(
                st.floats(-1e6, 1e6), min_size=width, max_size=width)), (n, feature_dim))}
        layouts.append(Layout(geometry=geometry, id=draw(json_text), **attributes))
    dataset = Dataset(layouts=layouts, canvas=canvas, feature_dim=feature_dim,
                      label_names=None if feature_dim else ("text", "image", "button"))
    meta = draw(st.one_of(st.none(), st.dictionaries(json_text, json_values, max_size=4),
                          json_values))
    return dataset, meta, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(saved_datasets())
def test_save_matches_the_per_layout_oracle_byte_for_byte(tmp_path_factory, case):
    dataset, meta, include_clamped = case
    path = tmp_path_factory.mktemp("save") / "ds.json"
    save_dataset(dataset, path, meta=meta, include_clamped=include_clamped)
    want = data_oracle.dataset_to_dict(dataset, meta=meta, include_clamped=include_clamped)
    assert path.read_text() == json.dumps(want, indent=1) + "\n"


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, DEFAULT_N_MAX), min_size=1, max_size=9),
       feature_dim=st.one_of(st.none(), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
def test_padding_matches_the_per_row_oracle_bit_for_bit(lengths, feature_dim, seed):
    rng = np.random.default_rng(seed)
    layouts = [Layout(geometry=rng.uniform(-1, 1, (n, 4)), id=str(i),
                      **({"labels": rng.integers(0, 5, n)} if feature_dim is None
                         else {"features": rng.normal(size=(n, feature_dim))}))
               for i, n in enumerate(lengths)]
    conditions = [l.labels if feature_dim is None else l.features for l in layouts]
    for batch_conditions in (conditions, conditions[:1]):
        for got, want in zip(pad_conditions(batch_conditions),
                             data_oracle.pad_conditions(batch_conditions)):
            assert_same_arrays(got, want)
    want_attributes, want_mask = data_oracle.pad_conditions(conditions)
    batch = pad_batch(layouts)
    assert_same_arrays(batch.attributes, want_attributes)
    assert_same_arrays(batch.mask, want_mask)
    want_geometry = np.zeros(want_mask.shape + (4,))
    for row, layout in enumerate(layouts):
        want_geometry[row, :len(layout)] = layout.geometry
    assert_same_arrays(batch.geometry, want_geometry)


@pytest.mark.parametrize("conditions", [[], [np.ones((1, 3)), np.ones((2, 2))],
                                        [[1, 2], np.ones((1, 2))], [np.ones((2, 2)), [0]]])
def test_padding_refuses_what_the_per_row_oracle_refuses_with_its_message(conditions):
    with pytest.raises(DataError) as want:
        data_oracle.pad_conditions(conditions)
    with pytest.raises(DataError) as got:
        pad_conditions(conditions)
    assert str(got.value) == str(want.value)
