import dataclasses

import numpy as np
import pytest

from layoutdiffusion import diffusion
from layoutdiffusion.data import (DEFAULT_N_MAX, Dataset, Layout, SynthSpec,
                                  make_synthetic_dataset)
from layoutdiffusion.denoiser import DenoiserConfig
from layoutdiffusion.diffusion import DiffusionConfig, TrainConfig
from layoutdiffusion.exceptions import DataError, NotFittedError
from layoutdiffusion.model import LayoutDiffusion


def desk_model(**overrides):
    params = dict(d_model=16, num_layers=1, num_heads=2, ffn_dim=16, timesteps=20,
                  learning_rate=1e-3, batch_size=4, max_steps=4,
                  init_seed=0, train_seed=1)
    params.update(overrides)
    return LayoutDiffusion(**params)


@pytest.fixture(scope="module")
def fitted():
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=16, num_classes=3), 9)
    return desk_model().fit(dataset), dataset


def test_get_params_round_trip():
    model = desk_model()
    params = model.get_params()
    assert params["d_model"] == 16
    assert params["beta_start"] == 1e-4
    clone = LayoutDiffusion(**params)
    assert clone.get_params() == params


def test_default_params_are_the_config_defaults():
    defaults = {f.name: f.default
                for cls in (DenoiserConfig, DiffusionConfig, TrainConfig)
                for f in dataclasses.fields(cls)}
    params = LayoutDiffusion().get_params()
    assert params == {name: defaults[name] for name in params}


def test_every_param_reaches_its_config_section():
    params = dict(d_model=24, num_layers=2, num_heads=3, ffn_dim=40, activation="relu",
                  positional_encoding=True, timesteps=30, beta_start=2e-4, beta_end=0.03,
                  learning_rate=3e-3, batch_size=5, max_steps=6, precision="float32",
                  init_seed=7, train_seed=8)
    assert set(params) == set(LayoutDiffusion().get_params())
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=4, num_classes=3), 0)
    assert LayoutDiffusion(**params)._make_train_config(dataset) == TrainConfig(
        denoiser=DenoiserConfig(d_model=24, num_layers=2, num_heads=3, ffn_dim=40,
                                num_classes=3, activation="relu", positional_encoding=True),
        diffusion=DiffusionConfig(timesteps=30, beta_start=2e-4, beta_end=0.03),
        learning_rate=3e-3, batch_size=5, max_steps=6, precision="float32",
        init_seed=7, train_seed=8)


def test_set_params_updates_and_rejects_unknown():
    model = desk_model()
    assert model.set_params(d_model=32).d_model == 32
    with pytest.raises(ValueError):
        model.set_params(not_a_param=1)


def test_sklearn_clone_compatibility():
    sklearn_base = pytest.importorskip("sklearn.base")
    model = desk_model(num_layers=2)
    clone = sklearn_base.clone(model)
    assert clone.get_params() == model.get_params()
    assert clone is not model


def test_sample_before_fit_raises():
    with pytest.raises(NotFittedError):
        desk_model().sample([[0, 1]], seed=0)


def test_fit_records_state(fitted):
    model, dataset = fitted
    assert model.n_steps_ == 4
    assert len(model.loss_history_) == 4
    assert model.label_names_ == dataset.label_names
    assert model.params_ is not None
    assert model.schedule_.timesteps == 20


def test_fit_accepts_layout_sequence():
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=8, num_classes=2), 4)
    model = desk_model().fit(list(dataset.layouts))
    assert len(model.label_names_) == 2


def continuous_layouts(feature_dims):
    rng = np.random.default_rng(0)
    return [Layout(geometry=rng.uniform(-0.5, 0.5, (2, 4)), features=rng.normal(size=(2, d)),
                   id=f"c{i}") for i, d in enumerate(feature_dims)]


def test_fit_accepts_continuous_layout_sequence():
    model = desk_model(max_steps=1).fit(continuous_layouts([3, 3, 3]))
    assert model.feature_dim_ == 3
    assert model.label_names_ is None
    with pytest.raises(DataError, match="layout 'c2': the dataset needs features of width 3"):
        desk_model().fit(continuous_layouts([3, 3, 2]))


def test_fit_refuses_a_layout_sequence_that_no_dataset_holds():
    labelled = Layout(geometry=np.zeros((2, 4)), labels=[0, 1], id="l")
    featured = continuous_layouts([3])[0]
    big = Layout(geometry=np.zeros((37, 4)), labels=[0] * 37, id="big")
    with pytest.raises(DataError, match="layout 'big': it has 37 elements, limit is 36"):
        desk_model().fit([labelled, big])
    with pytest.raises(DataError, match="layout 'c0': the dataset needs label ids below 2"):
        desk_model().fit([labelled, featured])
    with pytest.raises(DataError, match="layout 'l': the dataset needs features of width 3"):
        desk_model().fit([featured, labelled])


def test_float32_fit_on_continuous_layouts_keeps_float32_parameters():
    model = desk_model(max_steps=2, precision="float32").fit(continuous_layouts([3, 3, 3]))
    for arrays in (model.params_, model.adam_state_.m, model.adam_state_.v):
        assert {arr.dtype for arr in arrays.values()} == {np.dtype(np.float32)}


@pytest.mark.parametrize("value", ["1", True, np.nan, np.inf])
def test_feature_conditions_must_be_finite_numbers(value):
    model = desk_model(max_steps=1).fit(continuous_layouts([3, 3, 3]))
    with pytest.raises(DataError, match="condition 0: features must be finite numbers"):
        model.sample([[[value] * 3]], seed=1)


def test_fit_rejects_garbage():
    with pytest.raises(DataError):
        desk_model().fit([1, 2, 3])
    with pytest.raises(DataError):
        desk_model().fit([])


def test_sample_returns_layouts_matching_conditions(fitted):
    model, _ = fitted
    layouts = model.sample([[0, 1, 2], [1, 1]], seed=5)
    assert len(layouts) == 2
    assert [e.label for e in layouts[0].elements] == [0, 1, 2]
    assert [e.label for e in layouts[1].elements] == [1, 1]
    geom = layouts[0].geometry
    assert geom.min() >= -1.0 and geom.max() <= 1.0  # clamped by default


def test_sample_is_seed_deterministic(fitted):
    model, _ = fitted
    a = model.sample([[0, 1]], seed=7, return_raw=True)
    b = model.sample([[0, 1]], seed=7, return_raw=True)
    c = model.sample([[0, 1]], seed=8, return_raw=True)
    np.testing.assert_array_equal(a[0].geometry, b[0].geometry)
    assert not np.array_equal(a[0].geometry, c[0].geometry)


NON_INTEGERS = [2.9, 3.0, True, "abc"]


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", ["init_seed", "train_seed", "sample seed", "label"])
def test_seeds_and_labels_must_be_integers(fitted, where, value):
    model, dataset = fitted
    with pytest.raises(DataError, match="seed|label"):
        if where == "sample seed":
            model.sample([[0, 1]], seed=value)
        elif where == "label":
            model.sample([[0, value]], seed=3)
        else:
            desk_model(**{where: value}).fit(dataset)


@pytest.mark.parametrize("value", [-1, 2**64], ids=repr)
@pytest.mark.parametrize("where", ["init_seed", "train_seed", "sample seed"])
def test_seeds_outside_64_bits_are_rejected(fitted, where, value):
    model, dataset = fitted
    with pytest.raises(DataError, match="seed"):
        if where == "sample seed":
            model.sample([[0, 1]], seed=value)
        else:
            desk_model(**{where: value}).fit(dataset)


def test_numpy_integer_seeds_and_labels_are_accepted(fitted):
    model, _ = fitted
    layouts = model.sample([np.array([0, 2], dtype=np.int32)], seed=np.int64(7))
    assert layouts[0].labels.tolist() == [0, 2]
    np.testing.assert_array_equal(layouts[0].geometry, model.sample([[0, 2]], seed=7)[0].geometry)
    assert desk_model(init_seed=np.int64(0))._make_train_config(
        make_synthetic_dataset(SynthSpec(num_layouts=4, num_classes=3), 0)).init_seed == 0


def test_sample_rejects_bad_labels(fitted):
    model, _ = fitted
    with pytest.raises(DataError):
        model.sample([[0, 99]], seed=0)
    with pytest.raises(DataError):
        model.sample([[]], seed=0)


def test_sample_refuses_a_condition_that_no_dataset_holds(fitted, monkeypatch):
    model, dataset = fitted
    longest = model.sample([[0] * DEFAULT_N_MAX], seed=0)
    Dataset(layouts=tuple(longest), label_names=dataset.label_names)
    # One element more is refused before any draw.
    monkeypatch.setattr(diffusion, "sample", None)
    with pytest.raises(DataError, match=f"condition 1 has {DEFAULT_N_MAX + 1} elements, "
                                        f"limit is {DEFAULT_N_MAX}"):
        model.sample([[0], [0] * (DEFAULT_N_MAX + 1)], seed=0)


def test_score_returns_negative_objective(fitted):
    model, dataset = fitted
    value = model.score(dataset)
    assert np.isfinite(value)
    assert value <= 0.0


def test_repr_shows_params():
    assert "d_model=16" in repr(desk_model())


def test_continuous_mode_fit_and_sample():
    from layoutdiffusion.data import Dataset, Layout

    rng = np.random.default_rng(0)
    layouts = []
    for i in range(8):
        # Geometry, then features, per element.
        rows = [(rng.uniform(-0.5, 0.5, 4), rng.normal(size=3)) for _ in range(2)]
        layouts.append(Layout(geometry=[g for g, _ in rows], features=[f for _, f in rows],
                              id=f"c{i}"))
    dataset = Dataset(layouts=tuple(layouts), feature_dim=3)
    model = desk_model().fit(dataset)
    out = model.sample([rng.normal(size=(2, 3))], seed=1)
    assert len(out) == 1
    assert out[0].features.shape == (2, 3)
    with pytest.raises(DataError):
        model.sample([rng.normal(size=(2, 4))], seed=1)
