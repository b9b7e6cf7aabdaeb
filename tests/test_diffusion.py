from fractions import Fraction

import numpy as np
import pytest

from layoutdiffusion import diffusion
from layoutdiffusion.data import SynthSpec, make_synthetic_dataset, pad_batch
from layoutdiffusion.denoiser import DenoiserConfig, denoise, init_denoiser_params
from layoutdiffusion.diffusion import (DiffusionConfig, TrainConfig, build_schedule,
                                       p_sample_step, posterior_mean, q_sample,
                                       sample, train, training_step)
from layoutdiffusion.optim import BETA1, BETA2, EPS, AdamState
from layoutdiffusion.rng import RngStream
from layoutdiffusion.tensor import ParameterStore, Tensor

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
    return params.replace({
        "head.weight": np.zeros_like(params["head.weight"].data),
        "head.bias": np.zeros_like(params["head.bias"].data),
    })


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


def test_sample_builds_no_tape_and_leaves_params_tracked(monkeypatch):
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=2)
    params = init_denoiser_params(config, RngStream(5))
    detached = ParameterStore({name: t.detach() for name, t in params.items()})
    sched = build_schedule(20, 1e-4, 0.02)
    labels = np.array([[0, 1, 1], [1, 0, 0]])
    mask = np.array([[True, True, False], [True, True, True]])
    outputs = []

    def recording_denoise(*args):
        outputs.append(denoise(*args))
        return outputs[-1]

    monkeypatch.setattr(diffusion, "denoise", recording_denoise)
    tracked = sample(labels, mask, params, config, sched, RngStream(42))
    assert len(outputs) == sched.timesteps
    assert not any(out.requires_grad for out in outputs)
    untracked = sample(labels, mask, detached, config, sched, RngStream(42))
    assert np.array_equal(tracked.geometry_raw, untracked.geometry_raw)
    for name, t in params.items():
        assert t.requires_grad, name
        assert t.grad is None, name


# -- training step ----------------------------------------------------------------


def small_training_setup():
    config = DenoiserConfig(d_model=16, num_layers=1, num_heads=2, ffn_dim=16,
                            num_classes=3)
    params = init_denoiser_params(config, RngStream(5))
    sched = build_schedule(100, 1e-4, 0.02)
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=8, num_classes=3), 9)
    batch = pad_batch(dataset.layouts)
    return config, params, sched, batch


def test_training_step_with_perfect_stub_gives_zero_loss():
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    g0 = batch.geometry

    def perfect_denoiser(g_t, t, attrs, mask, store, cfg):
        ab = sched.alpha_bar[np.asarray(t) - 1][:, None, None]
        eps = (g_t - np.sqrt(ab) * g0) / np.sqrt(1 - ab)
        return Tensor(eps * mask[..., None])

    result = training_step(batch, params, config, sched, adam, RngStream(0),
                           denoise_fn=perfect_denoiser)
    assert result.loss == pytest.approx(0.0, abs=1e-20)


def test_training_step_loss_nonnegative_and_recomputable():
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    result = training_step(batch, params, config, sched, adam, RngStream(1))
    assert result.loss >= 0.0
    mask_f = batch.mask[..., None].astype(float)
    recomputed = float(((result.noise_pred - result.noise) ** 2 * mask_f).sum()
                       / (batch.mask.sum() * 4))
    assert abs(result.loss - recomputed) < 1e-10
    assert result.t.min() >= 1 and result.t.max() <= sched.timesteps


def test_training_step_advances_optimizer():
    config, params, sched, batch = small_training_setup()
    adam = AdamState.initialize(params, lr=1e-3)
    result = training_step(batch, params, config, sched, adam, RngStream(1))
    assert result.adam_state.step == 1
    changed = any(not np.array_equal(result.params[n].data, params[n].data)
                  for n in params.names())
    assert changed


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
    resumed = train(dataset, config, start_params=half.params,
                    start_adam=half.adam_state, start_stream=half.train_stream,
                    start_step=half.step)
    for name in full.params.names():
        np.testing.assert_array_equal(full.params[name].data, resumed.params[name].data)
    assert full.train_stream.state() == resumed.train_stream.state()
    assert [l for _, l in full.losses[3:]] == [l for _, l in resumed.losses]


def test_train_config_precision_float32():
    dataset = make_synthetic_dataset(SynthSpec(num_layouts=8, num_classes=2), 3)
    denoiser = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, ffn_dim=8,
                              num_classes=2)
    config = TrainConfig(denoiser=denoiser, diffusion=DiffusionConfig(timesteps=10),
                         learning_rate=1e-3, batch_size=2, max_steps=2,
                         init_seed=0, train_seed=1, precision="float32")
    result = train(dataset, config)
    assert result.params["head.weight"].data.dtype == np.float32


def test_train_config_validation():
    denoiser = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, num_classes=2)
    with pytest.raises(ValueError):
        TrainConfig(denoiser=denoiser, precision="float16")
    with pytest.raises(ValueError):
        TrainConfig(denoiser=denoiser, batch_size=0)
