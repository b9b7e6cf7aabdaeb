import ctypes
import json
import os
import platform
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from layoutdiffusion import diffusion
from layoutdiffusion.checkpoint import load_checkpoint, save_checkpoint
from layoutdiffusion.data import SynthSpec, make_synthetic_dataset, pad_batch
from layoutdiffusion.denoiser import DenoiserConfig, denoise, init_denoiser_params
from layoutdiffusion.diffusion import (DiffusionConfig, TrainConfig, build_schedule,
                                       p_sample_step, posterior_mean, q_sample,
                                       sample, train, training_step)
from layoutdiffusion.exceptions import DataError, NumericError
from layoutdiffusion.optim import BETA1, BETA2, EPS, AdamState, adam_step
from layoutdiffusion.rng import RngStream
from layoutdiffusion.tensor import Tensor

RNG = np.random.default_rng(55)


def alpha_bar_fraction_oracle(timesteps, beta_start, beta_end):
    """Exact alpha-bar product over the linear beta grid, in rationals."""
    b1 = Fraction(beta_start)
    bt = Fraction(beta_end)
    step = (bt - b1) / (timesteps - 1)
    product = Fraction(1)
    for i in range(timesteps):
        product *= 1 - (b1 + i * step)
    return product


def zero_denoiser_params(config):
    """Real parameters with a zeroed output head: noise prediction is 0."""
    params = init_denoiser_params(config, RngStream(0))
    return {**params, "head.weight": np.zeros_like(params["head.weight"]),
            "head.bias": np.zeros_like(params["head.bias"])}


# -- schedule ------------------------------------------------------------------


def test_schedule_endpoints_and_first_alpha_bar():
    sched = build_schedule(1000, 1e-4, 0.02)
    assert sched.beta[0] == 1e-4
    assert sched.beta[-1] == 0.02
    assert sched.alpha_bar[0] == 1.0 - 1e-4 == 0.9999


def test_schedule_matches_arbitrary_precision_product():
    sched = build_schedule(1000, 1e-4, 0.02)
    exact = float(alpha_bar_fraction_oracle(1000, 1e-4, 0.02))
    assert abs(sched.alpha_bar[-1] - exact) / exact < 1e-12


def test_schedule_identities_and_monotonicity():
    sched = build_schedule(500, 1e-4, 0.02)
    np.testing.assert_array_equal(sched.alpha, 1.0 - sched.beta)
    # sigma is defined as sqrt(beta); squaring round-trips to within one ulp
    np.testing.assert_allclose(sched.sigma**2, sched.beta, rtol=5e-16)
    assert np.all(np.diff(sched.beta) > 0)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    np.testing.assert_allclose(sched.alpha_bar[1:],
                               sched.alpha_bar[:-1] * sched.alpha[1:], rtol=1e-15)
    assert np.all((sched.beta > 0) & (sched.beta < 1))


def test_schedule_rejects_bad_ranges():
    for args in [(1000, 0.0, 0.02), (1000, 0.02, 1e-4), (1000, 1e-4, 1.0), (1, 1e-4, 0.02)]:
        with pytest.raises(ValueError):
            build_schedule(*args)


def test_diffusion_config_rejects_guidance():
    # Older configs carry ``n_max`` and ``guidance_weight``; only weight 0 ever loaded.
    denoiser = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, num_classes=2)
    legacy = TrainConfig(denoiser=denoiser).to_dict()
    legacy["denoiser"]["n_max"] = 36
    legacy["diffusion"]["guidance_weight"] = 0.0
    assert TrainConfig.from_dict(legacy) == TrainConfig(denoiser=denoiser)
    legacy["diffusion"]["guidance_weight"] = 0.5
    with pytest.raises(ValueError):
        TrainConfig.from_dict(legacy)


@pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps"])
def test_train_config_accepts_legacy_adam_keys_only_at_the_constants(key):
    # Older configs carry Adam's betas and eps, which were never set to anything else.
    denoiser = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, num_classes=2)
    legacy = {**TrainConfig(denoiser=denoiser).to_dict(),
              "adam_beta1": BETA1, "adam_beta2": BETA2, "adam_eps": EPS}
    assert TrainConfig.from_dict(legacy) == TrainConfig(denoiser=denoiser)
    legacy[key] = 0.8
    with pytest.raises(ValueError, match=key):
        TrainConfig.from_dict(legacy)


MISTYPED_VALUES = [
    ("denoiser", "d_model", True), ("denoiser", "d_model", 8.0), ("denoiser", "ffn_dim", "8"),
    ("denoiser", "num_layers", 2**63), ("denoiser", "positional_encoding", 1),
    ("denoiser", "activation", None), ("diffusion", "timesteps", "10"),
    ("diffusion", "beta_end", float("nan")), ("diffusion", "beta_end", float("inf")),
    ("diffusion", "clamp_output", "yes"), (None, "learning_rate", "x"),
    (None, "batch_size", 2.5), (None, "init_seed", None), (None, "precision", ["float64"])]


@pytest.mark.parametrize("section, name, value", MISTYPED_VALUES,
                         ids=[f"{name}={value!r}"[:32] for _, name, value in MISTYPED_VALUES])
def test_config_values_must_have_their_field_type(section, name, value):
    tree = TrainConfig(denoiser=DenoiserConfig(d_model=8, num_layers=1, num_heads=2,
                                               num_classes=2)).to_dict()
    (tree[section] if section else tree)[name] = value
    with pytest.raises(TypeError, match=name):
        TrainConfig.from_dict(tree)


def test_numpy_scalars_are_stored_as_python_values():
    config = TrainConfig(
        denoiser=DenoiserConfig(d_model=np.int64(8), num_layers=1, num_heads=2,
                                num_classes=2, positional_encoding=np.bool_(True)),
        diffusion=DiffusionConfig(beta_end=np.float32(0.5)), batch_size=np.int32(3))
    values = [config.denoiser.d_model, config.denoiser.positional_encoding,
              config.diffusion.beta_end, config.batch_size]
    assert [type(v) for v in values] == [int, bool, float, int]
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


def test_from_flat_routes_every_name_to_its_declaring_section():
    config = TrainConfig(
        denoiser=DenoiserConfig(d_model=24, num_layers=2, num_heads=3, ffn_dim=40, attr_dim=5,
                                activation="relu", positional_encoding=True),
        diffusion=DiffusionConfig(timesteps=30, beta_start=2e-4, beta_end=0.03,
                                  clamp_output=False),
        learning_rate=3e-3, batch_size=5, max_steps=6, init_seed=7, train_seed=8,
        checkpoint_every=9, precision="float32")
    tree = config.to_dict()
    flat = {**tree.pop("denoiser"), **tree.pop("diffusion"), **tree}
    assert len(flat) == 8 + 4 + 7
    assert TrainConfig.from_flat(flat) == config

    # Flat names win over the nested tree; fields set in neither keep their
    # defaults, and ffn_dim follows the final d_model.
    nested = {"denoiser": {"d_model": 16, "num_layers": 1, "num_heads": 2},
              "diffusion": {"beta_end": 0.05}, "max_steps": 4, "batch_size": 3}
    merged = TrainConfig.from_flat({"d_model": 32, "timesteps": 40, "batch_size": 2,
                                    "num_classes": 3}, nested)
    assert merged == TrainConfig(
        denoiser=DenoiserConfig(d_model=32, num_layers=1, num_heads=2, num_classes=3),
        diffusion=DiffusionConfig(timesteps=40, beta_end=0.05), batch_size=2, max_steps=4)
    assert merged.denoiser.ffn_dim == 128
    assert nested["denoiser"] == {"d_model": 16, "num_layers": 1, "num_heads": 2}


# -- forward process -------------------------------------------------------------


def test_q_sample_zero_noise():
    sched = build_schedule(100, 1e-4, 0.02)
    g0 = RNG.normal(size=(2, 3, 4))
    out = q_sample(g0, 10, np.zeros_like(g0), sched)
    np.testing.assert_allclose(out, np.sqrt(sched.alpha_bar[9]) * g0, rtol=1e-15)


def test_q_sample_zero_signal():
    sched = build_schedule(100, 1e-4, 0.02)
    noise = RNG.normal(size=(2, 3, 4))
    out = q_sample(np.zeros_like(noise), 60, noise, sched)
    np.testing.assert_allclose(out, np.sqrt(1 - sched.alpha_bar[59]) * noise, rtol=1e-15)


def test_q_sample_per_row_steps_and_mask():
    sched = build_schedule(100, 1e-4, 0.02)
    g0 = RNG.normal(size=(2, 3, 4))
    noise = RNG.normal(size=(2, 3, 4))
    mask = np.array([[True, True, False], [True, True, True]])
    t = np.array([1, 100])
    out = q_sample(g0, t, noise, sched, mask=mask)
    np.testing.assert_array_equal(out[0, 2], np.zeros(4))
    row1 = np.sqrt(sched.alpha_bar[99]) * g0[1] + np.sqrt(1 - sched.alpha_bar[99]) * noise[1]
    np.testing.assert_allclose(out[1], row1, rtol=1e-15)


def test_q_sample_rejects_bad_t():
    sched = build_schedule(100, 1e-4, 0.02)
    g = np.zeros((1, 1, 4))
    for t in (0, 101):
        with pytest.raises(ValueError):
            q_sample(g, t, g, sched)


def test_q_sample_monte_carlo_statistics():
    sched = build_schedule(1000, 1e-4, 0.02)
    t = 500
    g0 = np.array(0.42)
    draws = 100_000
    stream = RngStream(2024)
    noise = stream.gaussian([draws])
    samples = np.sqrt(sched.alpha_bar[t - 1]) * g0 + np.sqrt(1 - sched.alpha_bar[t - 1]) * noise
    assert abs(samples.mean() - np.sqrt(sched.alpha_bar[t - 1]) * g0) < 0.01
    assert abs(samples.var() / (1 - sched.alpha_bar[t - 1]) - 1) < 0.02


# -- reverse process ---------------------------------------------------------------


def posterior_mean_oracle(g_t, t, eps, sched):
    beta = sched.beta[t - 1]
    alpha = sched.alpha[t - 1]
    ab = sched.alpha_bar[t - 1]
    return (g_t - beta / np.sqrt(1 - ab) * eps) / np.sqrt(alpha)


def test_posterior_mean_zero_prediction():
    sched = build_schedule(100, 1e-4, 0.02)
    g_t = RNG.normal(size=(1, 2, 4))
    out = posterior_mean(g_t, 7, np.zeros_like(g_t), sched)
    np.testing.assert_allclose(out, g_t / np.sqrt(sched.alpha[6]), rtol=1e-15)


def test_posterior_mean_matches_oracle():
    sched = build_schedule(1000, 1e-4, 0.02)
    for t in (1, 250, 1000):
        g_t = RNG.normal(size=(3, 2, 4))
        eps = RNG.normal(size=(3, 2, 4))
        np.testing.assert_allclose(posterior_mean(g_t, t, eps, sched),
                                   posterior_mean_oracle(g_t, t, eps, sched),
                                   atol=1e-12)


def test_posterior_mean_perfect_denoiser_recovers_g0_at_t1():
    sched = build_schedule(1000, 1e-4, 0.02)
    g0 = RNG.normal(size=(4, 3, 4))
    eps = RNG.normal(size=(4, 3, 4))
    g1 = q_sample(g0, 1, eps, sched)
    recovered = posterior_mean(g1, 1, eps, sched)
    assert np.abs(recovered - g0).max() < 1e-10


def test_p_sample_step_t1_is_deterministic():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    sched = build_schedule(50, 1e-4, 0.02)
    g = RNG.normal(size=(1, 2, 4))
    labels = np.array([[0, 1]])
    mask = np.ones((1, 2), dtype=bool)
    out_a = p_sample_step(g, 1, labels, mask, params, config, sched, RngStream(1))
    out_b = p_sample_step(g, 1, labels, mask, params, config, sched, RngStream(999))
    np.testing.assert_array_equal(out_a, out_b)


def test_p_sample_step_zero_denoiser_form():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = zero_denoiser_params(config)
    sched = build_schedule(50, 1e-4, 0.02)
    g = RNG.normal(size=(1, 2, 4))
    labels = np.array([[0, 1]])
    mask = np.ones((1, 2), dtype=bool)
    t = 20
    out = p_sample_step(g, t, labels, mask, params, config, sched, RngStream(7))
    z = RngStream(7).gaussian(g.shape)
    expected = g / np.sqrt(sched.alpha[t - 1]) + sched.sigma[t - 1] * z
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_p_sample_step_rerun_is_bit_identical():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    sched = build_schedule(50, 1e-4, 0.02)
    g = RNG.normal(size=(2, 2, 4))
    labels = np.array([[0, 1], [1, 0]])
    mask = np.ones((2, 2), dtype=bool)
    a = p_sample_step(g, 9, labels, mask, params, config, sched, RngStream(3))
    b = p_sample_step(g, 9, labels, mask, params, config, sched, RngStream(3))
    assert np.array_equal(a, b)


def test_p_sample_step_leaves_masked_slots_untouched():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    sched = build_schedule(50, 1e-4, 0.02)
    g = RNG.normal(size=(1, 3, 4))
    labels = np.array([[0, 1, 0]])
    mask = np.array([[True, True, False]])
    out = p_sample_step(g, 5, labels, mask, params, config, sched, RngStream(3))
    np.testing.assert_array_equal(out[0, 2], g[0, 2])


def test_sample_deterministic_and_shaped():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    sched = build_schedule(20, 1e-4, 0.02)
    labels = np.array([[0, 1, 1], [1, 0, 0]])
    mask = np.array([[True, True, False], [True, True, True]])
    a = sample(labels, mask, params, config, sched, RngStream(42))
    b = sample(labels, mask, params, config, sched, RngStream(42))
    assert np.array_equal(a.geometry_raw, b.geometry_raw)
    assert a.geometry_raw.shape == (2, 3, 4)
    np.testing.assert_array_equal(a.geometry_raw[0, 2], np.zeros(4))
    assert a.geometry_clamped.min() >= -1.0 and a.geometry_clamped.max() <= 1.0
    c = sample(labels, mask, params, config, sched, RngStream(43))
    assert not np.array_equal(a.geometry_raw, c.geometry_raw)


def test_sample_takes_arrays_records_no_tape_and_leaves_them_unchanged(monkeypatch):
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    before = {name: arr.copy() for name, arr in params.items()}
    sched = build_schedule(20, 1e-4, 0.02)
    labels = np.array([[0, 1, 1], [1, 0, 0]])
    mask = np.array([[True, True, False], [True, True, True]])
    outputs = []

    def recording_denoise(*args):
        outputs.append(denoise(*args))
        return outputs[-1]

    monkeypatch.setattr(diffusion, "denoise", recording_denoise)
    sample(labels, mask, params, config, sched, RngStream(42))
    assert len(outputs) == sched.timesteps
    assert not any(out.requires_grad or out._parents for out in outputs)
    assert params.keys() == before.keys()
    for name, arr in params.items():
        assert type(arr) is np.ndarray, name
        assert arr.dtype == before[name].dtype and arr.tobytes() == before[name].tobytes(), name


def test_sample_stops_at_the_first_non_finite_step(monkeypatch):
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    params = {**params, "head.bias": np.full(4, np.nan)}
    sched = build_schedule(20, 1e-4, 0.02)
    steps = []

    def counting_step(g, t, *args):
        steps.append(t)
        return p_sample_step(g, t, *args)

    monkeypatch.setattr(diffusion, "p_sample_step", counting_step)
    with pytest.raises(NumericError, match="8 non-finite values at reverse step 20"):
        sample(np.array([[0, 1, 1]]), np.array([[True, True, False]]), params, config, sched,
               RngStream(42))
    assert steps == [20]


def head_refusals(name, head, valid, bad, bad_message, boolean, boolean_message,
                  number_message, ragged, ragged_message):
    """The malformed requests that the head ``name`` refuses, with their exact
    messages; ``valid(n)`` is a good condition of ``n`` elements."""
    limit = "condition 0 has 37 elements, limit is 36"
    not_sequence = "sampling conditions must be a sequence, got "
    cases = {"empty request": ([], "no sampling conditions given"),
             "empty condition": ([valid(0)], "condition 0 has no elements"),
             "37 elements": ([valid(37)], limit),
             "bad value": ([valid(1), bad], f"condition 1{bad_message}"),
             "bool": ([boolean], f"condition 0{boolean_message}"),
             "37 elements, then a bad value": ([valid(37), bad], limit),
             "a number for the request": (5, not_sequence + "5"),
             "None for the request": (None, not_sequence + "None"),
             "a number for a condition": ([3], f"condition 0{number_message}"),
             "ragged condition": ([valid(1), ragged], f"condition 1{ragged_message}")}
    return [pytest.param(head, conditions, message, id=f"{name}-{case}")
            for case, (conditions, message) in cases.items()]


@pytest.mark.parametrize("head, conditions, message", [
    *head_refusals("categorical", {"num_classes": 3}, lambda n: [2] * n, [0, 3],
                   ": label 3 outside vocabulary of 3", [True],
                   " label: expected an integer, got True",
                   ": expected a sequence of label ids, got 3", [[0], [1, 2]],
                   " label: expected an integer, got [0]"),
    *head_refusals("continuous", {"attr_dim": 2}, lambda n: np.full((n, 2), 0.5),
                   [[0.5, np.nan]], ": features must be finite numbers",
                   np.ones((1, 2), dtype=bool), ": features must be finite numbers",
                   ": expected [n, 2] features", [[0.5, 0.5], [0.5]],
                   ": expected [n, 2] features")])
def test_both_heads_refuse_a_bad_request_alike_before_any_draw(monkeypatch, head, conditions,
                                                               message):
    def no_draw(*args):
        raise AssertionError("sample was called")

    monkeypatch.setattr(diffusion, "sample", no_draw)
    config = TrainConfig(denoiser=DenoiserConfig(d_model=8, num_layers=1, num_heads=2,
                                                 **head))
    with pytest.raises(DataError) as refused:
        diffusion.sample_layouts(conditions, {}, config, seed=0)
    assert str(refused.value) == message


# -- training step ----------------------------------------------------------------


def small_training_setup():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=3)
    params = init_denoiser_params(config, RngStream(5))
    sched = build_schedule(100, 1e-4, 0.02)
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=8, num_classes=3), 9)
    batch = pad_batch(dataset.layouts)
    return config, params, sched, batch


def test_training_step_with_perfect_stub_gives_zero_loss(monkeypatch):
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    g0 = batch.geometry

    def perfect_denoiser(g_t, t, attrs, mask, store, cfg):
        ab = sched.alpha_bar[np.asarray(t) - 1][:, None, None]
        eps = (g_t - np.sqrt(ab) * g0) / np.sqrt(1 - ab)
        return Tensor(eps * mask[..., None])

    monkeypatch.setattr(diffusion, "denoise", perfect_denoiser)
    result = training_step(batch, params, config, sched, adam, RngStream(0))
    assert result.loss == pytest.approx(0.0, abs=1e-20)


def test_training_step_loss_nonnegative_and_recomputable(monkeypatch):
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    seen = {}

    def recording_denoise(g_t, t, *args):
        seen["t"], seen["noise_pred"] = t, denoise(g_t, t, *args)
        return seen["noise_pred"]

    monkeypatch.setattr(diffusion, "denoise", recording_denoise)
    result = training_step(batch, params, config, sched, adam, RngStream(1))
    assert result.loss >= 0.0
    # A stream of the same seed draws the same timesteps, then the same noise.
    replay = RngStream(1)
    assert np.array_equal(replay.integers(1, sched.timesteps + 1, [batch.size]), seen["t"])
    mask_f = batch.mask[..., None].astype(float)
    noise = replay.gaussian(batch.geometry.shape) * mask_f
    recomputed = float(((seen["noise_pred"].data - noise) ** 2 * mask_f).sum()
                       / (batch.mask.sum() * 4))
    assert abs(result.loss - recomputed) < 1e-10
    assert seen["t"].min() >= 1 and seen["t"].max() <= sched.timesteps


def test_training_step_advances_optimizer():
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    result = training_step(batch, params, config, sched, adam, RngStream(1))
    assert result.adam_state.step == 1
    changed = any(not np.array_equal(result.params[n], params[n]) for n in params)
    assert changed


def test_training_step_leaves_its_input_arrays_bit_identical():
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    adam = training_step(batch, params, config, sched, adam, RngStream(1)).adam_state
    inputs = {"params": params, "adam.m": adam.m, "adam.v": adam.v}
    before = {kind: {name: arr.copy() for name, arr in arrays.items()}
              for kind, arrays in inputs.items()}
    result = training_step(batch, params, config, sched, adam, RngStream(2))
    assert result.adam_state.step == 2
    for kind, arrays in inputs.items():
        assert arrays.keys() == before[kind].keys()
        for name, arr in arrays.items():
            assert type(arr) is np.ndarray, (kind, name)
            assert arr.tobytes() == before[kind][name].tobytes(), (kind, name)


def test_parameters_are_stored_as_a_dict_of_plain_arrays(tmp_path):
    def assert_plain(params):
        assert type(params) is dict
        assert params and all(type(arr) is np.ndarray for arr in params.values())

    config, params, sched, batch = small_training_setup()
    assert_plain(params)
    adam = AdamState.initialize(params, lr=1e-3)
    stepped, adam = adam_step(params, {name: np.ones_like(arr) for name, arr in params.items()},
                              adam)
    assert_plain(stepped)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, stepped, adam, {}, {}, step=1)
    assert_plain(load_checkpoint(path)[0])
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=4, num_classes=3), 9)
    train_config = TrainConfig(denoiser=config, diffusion=DiffusionConfig(timesteps=10),
                               batch_size=2, max_steps=1)
    trained = train(dataset, train_config)
    assert_plain(trained.params)


def test_train_loop_is_deterministic_and_resumable():
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=16, num_classes=3), 9)
    denoiser = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                              num_classes=3)
    config = TrainConfig(denoiser=denoiser,
                         diffusion=DiffusionConfig(timesteps=50),
                         learning_rate=1e-3, batch_size=4, max_steps=6,
                         init_seed=0, train_seed=1)
    full = train(dataset, config)

    half_config = TrainConfig.from_dict({**config.to_dict(), "max_steps": 3})
    half = train(dataset, half_config)
    before = (half.train_stream.state(), list(half.losses),
              {name: arr.copy() for name, arr in half.params.items()})
    resumed = train(dataset, config, start=half)
    for name in full.params:
        np.testing.assert_array_equal(full.params[name], resumed.params[name])
    assert full.train_stream.state() == resumed.train_stream.state()
    assert full.losses == resumed.losses and resumed.step == 6
    # The start is left as it was: its stream, its history and its arrays.
    assert half.train_stream.state() == before[0] and half.step == 3
    assert half.losses == before[1]
    for name, arr in before[2].items():
        assert half.params[name].tobytes() == arr.tobytes()
    # A start at or past max_steps comes back as a copy.
    again = train(dataset, half_config, start=full)
    assert again.losses == full.losses and again.losses is not full.losses
    assert again.train_stream.state() == full.train_stream.state()
    assert again.train_stream is not full.train_stream


def test_train_config_precision_float32():
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=8, num_classes=2), 3)
    denoiser = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, ffn_dim=8,
                              num_classes=2)
    config = TrainConfig(denoiser=denoiser, diffusion=DiffusionConfig(timesteps=10),
                         learning_rate=1e-3, batch_size=2, max_steps=2,
                         init_seed=0, train_seed=1, precision="float32")
    result = train(dataset, config)
    assert result.params["head.weight"].dtype == np.float32


def test_train_config_validation():
    denoiser = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, num_classes=2)
    with pytest.raises(ValueError):
        TrainConfig(denoiser=denoiser, precision="float16")
    with pytest.raises(ValueError):
        TrainConfig(denoiser=denoiser, batch_size=0)
    for value in (0.0, -1e-3):  # 0 trains nothing, a negative rate climbs the loss
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(denoiser=denoiser, learning_rate=value)
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(denoiser=denoiser, checkpoint_every=-1)
    assert TrainConfig(denoiser=denoiser, checkpoint_every=0).checkpoint_every == 0
    for seed in ("init_seed", "train_seed"):
        for value in (-1, 2**64, -2**64):
            with pytest.raises(ValueError, match="seed"):
                TrainConfig(denoiser=denoiser, **{seed: value})


def test_train_config_takes_every_64_bit_seed():
    config = TrainConfig.from_flat({"init_seed": 2**64 - 1, "train_seed": 2**63,
                                    "num_classes": 4})
    assert (config.init_seed, config.train_seed) == (2**64 - 1, 2**63)
    assert TrainConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    with pytest.raises(ValueError, match="init_seed"):
        TrainConfig.from_flat({"init_seed": 2**64, "train_seed": 1, "num_classes": 4})


def test_failed_loss_log_rewrite_leaves_the_previous_log(tmp_path, monkeypatch):
    path = tmp_path / "run.loss.csv"
    diffusion.write_loss_log(path, [0.5, 0.25, 0.125])
    before = path.read_bytes()
    real_writer = diffusion.csv.writer

    class FailingWriter:
        """A csv writer whose third data row fails, as a full disk would."""

        def __init__(self, fh):
            self.writer, self.rows = real_writer(fh), 0

        def writerow(self, row):
            if self.rows == 3:
                raise OSError("no space left on device")
            self.rows += 1
            self.writer.writerow(row)

    monkeypatch.setattr(diffusion.csv, "writer", FailingWriter)
    with pytest.raises(OSError):
        diffusion.write_loss_log(path, [0.5, 0.25, 0.125, 0.0625])
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert diffusion.read_loss_log(path) == [(1, 0.5), (2, 0.25), (3, 0.125)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.loss.csv"]


# -- the heap policy that train and sample set once per process ---------------------------


class FakeLibc:
    """Records ``mallopt`` calls and answers each with the next of ``returns``."""

    def __init__(self, returns):
        self.returns, self.calls, self.opened = list(returns), [], 0

        def mallopt(param, value):  # a function, so that it takes argtypes and restype
            self.calls.append((param, value))
            return self.returns.pop(0)
        self.mallopt = mallopt

    def open(self, name):
        assert name is None
        self.opened += 1
        return self


@pytest.fixture
def fresh_policy(monkeypatch):
    """A process in which no call has set the heap policy yet, with a fake glibc."""
    def with_libc(returns, libc=("glibc", "2.36")):
        fake = FakeLibc(returns)
        monkeypatch.setattr(diffusion, "_heap_policy", None)
        monkeypatch.setattr(ctypes, "CDLL", fake.open)
        monkeypatch.setattr(platform, "libc_ver", lambda: libc)
        return fake
    return with_libc


def test_heap_policy_sets_both_glibc_thresholds_once_per_process(fresh_policy):
    libc = fresh_policy([1, 1])
    assert diffusion._keep_freed_pages() is True
    assert libc.calls == [(-3, 32 << 20), (-1, 1 << 30)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert diffusion._keep_freed_pages() is True
    assert libc.opened == 1 and len(libc.calls) == 2


@pytest.mark.parametrize("returns", [[0], [-1], [1, 0]])
def test_heap_policy_counts_a_mallopt_return_other_than_1_as_not_applied(fresh_policy,
                                                                         returns):
    libc = fresh_policy(returns)
    assert diffusion._keep_freed_pages() is False
    assert diffusion._keep_freed_pages() is False
    assert libc.opened == 1 and len(libc.calls) == len(returns)


def test_heap_policy_leaves_a_libc_other_than_glibc_alone(fresh_policy):
    libc = fresh_policy([], libc=("", ""))
    assert diffusion._keep_freed_pages() is False
    assert diffusion._keep_freed_pages() is False
    assert libc.opened == 0 and libc.calls == []


@pytest.mark.parametrize("call", [
    "diffusion.train(make_synthetic_dataset(SynthSpec(num_layouts=4, num_classes=3), 0), "
    "TrainConfig(denoiser=config, batch_size=2, max_steps=1, "
    "diffusion=DiffusionConfig(timesteps=4)))",
    "diffusion.sample(np.array([[0, 1]]), np.ones((1, 2), bool), "
    "init_denoiser_params(config, RngStream(5)), config, build_schedule(4), RngStream(1))",
])
def test_the_first_train_or_sample_call_sets_the_heap_policy(call):
    code = f"""
import numpy as np
from layoutdiffusion import diffusion
from layoutdiffusion.data import SynthSpec, make_synthetic_dataset
from layoutdiffusion.denoiser import DenoiserConfig, init_denoiser_params
from layoutdiffusion.diffusion import DiffusionConfig, TrainConfig, build_schedule
from layoutdiffusion.rng import RngStream
config = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, ffn_dim=16, num_classes=3)
print(diffusion._heap_policy)
{call}
print(diffusion._heap_policy)
"""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(diffusion.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    glibc = platform.libc_ver()[0] == "glibc"
    assert proc.stdout.split() == ["None", str(glibc)]
