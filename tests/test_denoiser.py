import numpy as np
import pytest

from layoutdiffusion.data import Batch
from layoutdiffusion.denoiser import (DenoiserConfig, denoise, element_position_encoding,
                                      embed_attributes, embed_geometry, fuse_tokens,
                                      init_denoiser_params, param_shapes, timestep_embedding,
                                      transformer_layer)
from layoutdiffusion.diffusion import build_schedule, noise_loss
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.rng import RngStream
from layoutdiffusion.tensor import Tensor, backward, collect_grads, mul, tsum

RNG = np.random.default_rng(77)


def tiny_config(**overrides):
    base = dict(d_model=16, num_layers=2, num_heads=4, ffn_dim=24, num_classes=3)
    base.update(overrides)
    return DenoiserConfig(**base)


@pytest.fixture(scope="module")
def setup():
    config = tiny_config()
    params = init_denoiser_params(config, RngStream(42))
    return config, params


# -- timestep embedding -------------------------------------------------------


def test_timestep_embedding_at_zero():
    te = timestep_embedding(0, 8)
    np.testing.assert_array_equal(te[:4], np.zeros(4))
    np.testing.assert_array_equal(te[4:], np.ones(4))


def test_timestep_embedding_closed_form_d4():
    te = timestep_embedding(1, 4)
    # frequencies 10000^(-2k/4) for k = 0, 1
    np.testing.assert_allclose(
        te, [np.sin(1.0), np.sin(1e-2), np.cos(1.0), np.cos(1e-2)], atol=1e-15)


def test_timestep_embedding_distinguishes_steps():
    steps = np.arange(1, 1001)
    table = timestep_embedding(steps, 64)
    for t in (1, 17, 500, 999):
        diff = np.abs(table - table[t - 1]).max(axis=1)
        diff[t - 1] = np.inf
        assert diff.min() > 1e-6


def test_timestep_embedding_rejects_odd_width():
    with pytest.raises(ValueError):
        timestep_embedding(1, 7)


# -- geometric embedding ------------------------------------------------------


def test_embed_geometry_zero_gives_bias(setup):
    config, params = setup
    out = embed_geometry(np.zeros((2, 3, 4)), params).data
    np.testing.assert_allclose(out, np.broadcast_to(params["geom.bias"], out.shape))


def test_embed_geometry_is_affine(setup):
    _, params = setup
    a = RNG.normal(size=(1, 2, 4))
    b = RNG.normal(size=(1, 2, 4))
    lhs = embed_geometry(a + b, params).data - embed_geometry(b, params).data
    rhs = embed_geometry(a, params).data - embed_geometry(np.zeros_like(a), params).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_embed_geometry_matches_matmul_oracle(setup):
    _, params = setup
    x = RNG.normal(size=(2, 5, 4))
    expected = x @ params["geom.weight"] + params["geom.bias"]
    np.testing.assert_allclose(embed_geometry(x, params).data, expected, atol=1e-6)


# -- attribute embedding ------------------------------------------------------


def test_embed_attributes_repeats_rows(setup):
    config, params = setup
    ids = np.array([[1, 1, 0]])
    out = embed_attributes(ids, np.arange(3), params, config).data
    np.testing.assert_array_equal(out[0], out[1])
    assert not np.array_equal(out[0], out[2])


def test_embed_attributes_rejects_out_of_vocabulary(setup):
    config, params = setup
    with pytest.raises(DataError):
        embed_attributes(np.array([[config.num_classes]]), np.arange(1), params, config)
    with pytest.raises(DataError):
        embed_attributes(np.array([[-1]]), np.arange(1), params, config)
    # The check covers the padded ids, masked slots included.
    with pytest.raises(DataError):
        embed_attributes(np.array([[0, config.num_classes]]), np.arange(1), params, config)


def test_embed_attributes_continuous_zero_gives_bias():
    config = tiny_config(num_classes=None, attr_dim=5)
    params = init_denoiser_params(config, RngStream(3))
    out = embed_attributes(np.zeros((2, 3, 5)), np.array([0, 2, 5]), params, config).data
    assert out.shape == (3, config.d_model)
    np.testing.assert_allclose(out, np.broadcast_to(params["attr.bias"], out.shape))


def test_embed_attributes_continuous_rejects_wrong_dim():
    config = tiny_config(num_classes=None, attr_dim=5)
    params = init_denoiser_params(config, RngStream(3))
    with pytest.raises(DataError):
        embed_attributes(np.zeros((2, 3, 4)), np.arange(6), params, config)


# -- token fusion --------------------------------------------------------------


def test_fuse_tokens_zero_te_is_pure_fusion(setup):
    config, params = setup
    h_attr = Tensor(RNG.normal(size=(5, config.d_model)))
    h_geom = Tensor(RNG.normal(size=(5, config.d_model)))
    te0 = np.zeros((5, config.d_model))
    out = fuse_tokens(h_attr, h_geom, te0, params).data
    oracle = (np.concatenate([h_attr.data, h_geom.data], axis=-1)
              @ params["fuse.weight"] + params["fuse.bias"])
    np.testing.assert_allclose(out, oracle, atol=1e-6)


def test_fuse_tokens_te_shift_hits_every_token(setup):
    config, params = setup
    # Two layouts of 3 tokens each; every token carries its layout's TE.
    h_attr = Tensor(RNG.normal(size=(6, config.d_model)))
    h_geom = Tensor(RNG.normal(size=(6, config.d_model)))
    te = RNG.normal(size=(2, config.d_model))
    delta = RNG.normal(size=(2, config.d_model))
    rows = np.arange(6) // 3
    base = fuse_tokens(h_attr, h_geom, te[rows], params).data
    shifted = fuse_tokens(h_attr, h_geom, (te + delta)[rows], params).data
    np.testing.assert_allclose(shifted - base, np.repeat(delta, 3, axis=0), atol=1e-12)


def test_fuse_tokens_rejects_bad_te_shape(setup):
    config, params = setup
    h = Tensor(np.zeros((6, config.d_model)))
    with pytest.raises(DataError):
        fuse_tokens(h, h, np.zeros((3, config.d_model)), params)


# -- transformer layer ----------------------------------------------------------


def layer_oracle(x, mask, params, idx, config):
    """Straight-line re-implementation of one post-norm block."""
    p = f"layers.{idx:02d}"
    getw = lambda n: params[f"{p}.{n}.weight"]
    getb = lambda n: params[f"{p}.{n}.bias"]
    b, n, d = x.shape
    heads, hd = config.num_heads, config.d_model // config.num_heads

    q = (x @ getw("attn.wq") + getb("attn.wq")).reshape(b, n, heads, hd)
    k = (x @ getw("attn.wk") + getb("attn.wk")).reshape(b, n, heads, hd)
    v = (x @ getw("attn.wv") + getb("attn.wv")).reshape(b, n, heads, hd)
    context = np.zeros((b, n, heads, hd))
    for bi in range(b):
        for h in range(heads):
            logits = q[bi, :, h] @ k[bi, :, h].T / np.sqrt(hd)
            logits[:, ~mask[bi]] = -np.inf
            w = np.exp(logits - logits.max(axis=-1, keepdims=True))
            w = w / w.sum(axis=-1, keepdims=True)
            context[bi, :, h] = w @ v[bi, :, h]
    attended = context.reshape(b, n, d) @ getw("attn.wo") + getb("attn.wo")

    def ln(z, which):
        mu = z.mean(-1, keepdims=True)
        var = ((z - mu) ** 2).mean(-1, keepdims=True)
        y = (z - mu) / np.sqrt(var + 1e-12)
        return y * params[f"{p}.{which}.scale"] + params[f"{p}.{which}.shift"]

    normed = ln(x + attended, "ln1")
    hidden = normed @ getw("ffn.lin1") + getb("ffn.lin1")
    c = np.sqrt(2 / np.pi)
    hidden = 0.5 * hidden * (1 + np.tanh(c * (hidden + 0.044715 * hidden**3)))
    return ln(normed + hidden @ getw("ffn.lin2") + getb("ffn.lin2"), "ln2")


def test_transformer_layer_matches_oracle(setup):
    config, params = setup
    x = RNG.normal(size=(2, 4, config.d_model))
    mask = np.array([[True, True, True, False], [True, False, True, True]])
    out = transformer_layer(Tensor(x[mask]), mask, params, 0, config).data
    np.testing.assert_allclose(out, layer_oracle(x, mask, params, 0, config)[mask], atol=1e-5)


def test_masked_slot_cannot_influence_valid_outputs(setup):
    config, params = setup
    tokens = Tensor(RNG.normal(size=(3, config.d_model)))
    base = transformer_layer(tokens, np.array([[True, True, True]]), params, 1, config).data
    padded = transformer_layer(tokens, np.array([[True, True, True, False]]), params, 1,
                               config).data
    np.testing.assert_allclose(padded, base, atol=1e-6)


def test_single_valid_element_attends_to_itself(setup):
    config, params = setup
    x = RNG.normal(size=(1, 3, config.d_model))
    mask = np.array([[True, False, False]])
    p = "layers.00"
    v = x[0, 0] @ params[f"{p}.attn.wv.weight"] + params[f"{p}.attn.wv.bias"]
    attended = v @ params[f"{p}.attn.wo.weight"] + params[f"{p}.attn.wo.bias"]
    oracle = layer_oracle(x, mask, params, 0, config)
    out = transformer_layer(Tensor(x[mask]), mask, params, 0, config).data
    np.testing.assert_allclose(out, oracle[mask], atol=1e-8)
    # softmax over a single key is the identity: context is its own V row
    z = x[0, 0] + attended
    mu, var = z.mean(), ((z - z.mean()) ** 2).mean()
    y = (z - mu) / np.sqrt(var + 1e-12)
    expected_first = y * params[f"{p}.ln1.scale"] + params[f"{p}.ln1.shift"]
    hidden = expected_first @ params[f"{p}.ffn.lin1.weight"] + params[f"{p}.ffn.lin1.bias"]
    c = np.sqrt(2 / np.pi)
    hidden = 0.5 * hidden * (1 + np.tanh(c * (hidden + 0.044715 * hidden**3)))
    z2 = expected_first + hidden @ params[f"{p}.ffn.lin2.weight"] + params[f"{p}.ffn.lin2.bias"]
    mu2, var2 = z2.mean(), ((z2 - z2.mean()) ** 2).mean()
    y2 = (z2 - mu2) / np.sqrt(var2 + 1e-12)
    expected = y2 * params[f"{p}.ln2.scale"] + params[f"{p}.ln2.shift"]
    np.testing.assert_allclose(out[0], expected, atol=1e-8)


# -- full forward -----------------------------------------------------------------


def permute_inputs(perm, geometry, labels, mask):
    return geometry[:, perm], labels[:, perm], mask[:, perm]


def test_denoise_permutation_equivariance(setup):
    config, params = setup
    b, n = 2, 5
    geometry = RNG.normal(size=(b, n, 4))
    labels = RNG.integers(0, config.num_classes, size=(b, n))
    mask = np.ones((b, n), dtype=bool)
    mask[0, 4] = False
    t = np.array([3, 700])
    base = denoise(geometry, t, labels, mask, params, config).data
    for _ in range(20):
        perm = RNG.permutation(n)
        g2, l2, m2 = permute_inputs(perm, geometry, labels, mask)
        out = denoise(g2, t, l2, m2, params, config).data
        np.testing.assert_allclose(out, base[:, perm], atol=1e-6)


def test_denoise_with_positional_encoding_breaks_equivariance():
    config = tiny_config(positional_encoding=True)
    params = init_denoiser_params(config, RngStream(42))
    geometry = RNG.normal(size=(1, 3, 4))
    labels = np.array([[0, 1, 2]])
    mask = np.ones((1, 3), dtype=bool)
    t = np.array([10])
    base = denoise(geometry, t, labels, mask, params, config).data
    perm = np.array([2, 0, 1])
    out = denoise(geometry[:, perm], t, labels[:, perm], mask, params, config).data
    assert np.abs(out - base[:, perm]).max() > 1e-3


def test_denoise_deterministic_and_masked_zero(setup):
    config, params = setup
    geometry = RNG.normal(size=(2, 4, 4))
    labels = RNG.integers(0, config.num_classes, size=(2, 4))
    mask = np.array([[True, True, False, False], [True, True, True, True]])
    t = np.array([1, 1000])
    a = denoise(geometry, t, labels, mask, params, config).data
    b = denoise(geometry, t, labels, mask, params, config).data
    assert np.array_equal(a, b)
    np.testing.assert_array_equal(a[0, 2:], np.zeros((2, 4)))
    assert a.shape == (2, 4, 4)
    assert np.all(np.isfinite(a))


def ragged_inputs(config):
    """A batch whose layouts have 2, 5 and 3 elements at scattered slots."""
    mask = np.array([[True, False, False, True, False],
                     [True, True, True, True, True],
                     [False, True, True, False, True]])
    geometry = RNG.normal(size=(3, 5, 4))
    if config.num_classes is not None:
        attributes = RNG.integers(0, config.num_classes, size=(3, 5))
    else:
        attributes = RNG.normal(size=(3, 5, config.attr_dim))
    return geometry, np.array([3, 250, 999]), attributes, mask


MODES = {"categorical": {}, "continuous": {"num_classes": None, "attr_dim": 5},
         "positional": {"positional_encoding": True}}


@pytest.mark.parametrize("mode", list(MODES))
def test_denoise_ragged_batch_matches_each_layout_alone(mode):
    config = tiny_config(**MODES[mode])
    params = init_denoiser_params(config, RngStream(9))
    geometry, t, attributes, mask = ragged_inputs(config)
    out = denoise(geometry, t, attributes, mask, params, config).data
    for row in range(mask.shape[0]):
        keep = mask[row]
        alone = denoise(geometry[row:row + 1], t[row:row + 1], attributes[row:row + 1],
                        mask[row:row + 1], params, config).data
        np.testing.assert_allclose(out[row], alone[0], rtol=0, atol=1e-12)
        assert np.all(out[row, ~keep] == 0.0)
        if not config.positional_encoding:
            # Without slot positions, padding itself changes nothing either.
            packed = denoise(geometry[row:row + 1, keep], t[row:row + 1],
                             attributes[row:row + 1, keep],
                             np.ones((1, keep.sum()), dtype=bool), params, config).data
            np.testing.assert_allclose(out[row, keep], packed[0], rtol=0, atol=1e-12)


BATCH_FAULTS = {
    "attributes wider than the mask": (lambda g, a, m: (g, np.concatenate([a, a[:, :2]], 1), m),
                                       r"disagree on \[batch, n\]"),
    "geometry wider than the mask": (lambda g, a, m: (np.concatenate([g, g[:, :1]], 1), a, m),
                                     r"disagree on \[batch, n\]"),
    "fewer attribute rows": (lambda g, a, m: (g, a[:2], m), r"disagree on \[batch, n\]"),
    "a 1-d mask": (lambda g, a, m: (g, a, m[0]), r"disagree on \[batch, n\]"),
    "an empty mask row": (lambda g, a, m: (g, a, m * np.array([[1], [0], [1]], bool)),
                          "batch row 1 has an all-false mask"),
}


@pytest.mark.parametrize("mode", ["categorical", "continuous"])
@pytest.mark.parametrize("fault", list(BATCH_FAULTS))
def test_denoise_refuses_inputs_that_disagree_on_the_batch(mode, fault):
    config = tiny_config(**MODES[mode])
    params = init_denoiser_params(config, RngStream(9))
    geometry, t, attributes, mask = ragged_inputs(config)
    make, message = BATCH_FAULTS[fault]
    geometry, attributes, mask = make(geometry, attributes, mask)
    with pytest.raises(DataError, match=message):
        denoise(geometry, t, attributes, mask, params, config)


@pytest.mark.parametrize("mode", list(MODES))
def test_masked_slots_leave_the_output_bit_identical(mode):
    config = tiny_config(**MODES[mode])
    params = init_denoiser_params(config, RngStream(9))
    geometry, t, attributes, mask = ragged_inputs(config)
    base = denoise(geometry, t, attributes, mask, params, config).data
    geometry2, attributes2 = geometry.copy(), attributes.copy()
    geometry2[~mask] = 1e3
    attributes2[~mask] = -7.0 if config.attr_dim else 1
    changed = denoise(geometry2, t, attributes2, mask, params, config).data
    assert np.array_equal(changed, base)


@pytest.mark.parametrize("mode", list(MODES))
def test_every_parameter_of_the_layout_is_read_by_the_forward_pass(mode):
    config = tiny_config(**MODES[mode])
    params = init_denoiser_params(config, RngStream(9))
    assert {name: arr.shape for name, arr in params.items()} == param_shapes(config)
    # A parameter that denoise never reads gets a zero gradient, both
    # analytically and by finite differences, so only this check sees it.
    geometry, _, attributes, mask = ragged_inputs(config)
    leaves = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    loss = noise_loss(Batch(geometry=geometry, attributes=attributes, mask=mask), leaves,
                      config, build_schedule(100), RngStream(1))
    grads = collect_grads(loss, leaves)
    assert [name for name, grad in grads.items() if not np.any(grad)] == []


def test_tracked_geometry_gets_gradients_on_valid_slots(setup):
    config, params = setup
    geometry, t, labels, mask = ragged_inputs(config)
    proj = RNG.normal(size=geometry.shape)
    g = Tensor(geometry.copy(), requires_grad=True)
    backward(tsum(mul(denoise(g, t, labels, mask, params, config), Tensor(proj))))

    def scalar(x):
        return float((denoise(x, t, labels, mask, params, config).data * proj).sum())

    fd = np.zeros_like(geometry)
    h = 1e-6
    for i in np.ndindex(geometry.shape):
        plus, minus = geometry.copy(), geometry.copy()
        plus[i] += h
        minus[i] -= h
        fd[i] = (scalar(plus) - scalar(minus)) / (2 * h)
    np.testing.assert_allclose(g.grad, fd, atol=1e-7)
    assert np.all(g.grad[~mask] == 0.0)


def test_denoise_on_arrays_records_no_tape_and_leaves_them_unchanged(setup):
    config, params = setup
    before = {name: arr.copy() for name, arr in params.items()}
    geometry = RNG.normal(size=(2, 4, 4))
    labels = RNG.integers(0, config.num_classes, size=(2, 4))
    mask = np.array([[True, True, False, False], [True, True, True, True]])
    out = denoise(geometry, np.array([1, 1000]), labels, mask, params, config)
    assert out._parents == ()
    assert out._backward is None
    assert not out.requires_grad
    for name, arr in params.items():
        assert type(arr) is np.ndarray, name
        assert arr.dtype == before[name].dtype and arr.tobytes() == before[name].tobytes(), name


def test_denoise_relu_option_changes_output():
    cfg_gelu = tiny_config()
    cfg_relu = tiny_config(activation="relu")
    params = init_denoiser_params(cfg_gelu, RngStream(1))
    geometry = RNG.normal(size=(1, 2, 4))
    labels = np.array([[0, 1]])
    mask = np.ones((1, 2), dtype=bool)
    a = denoise(geometry, [5], labels, mask, params, cfg_gelu).data
    b = denoise(geometry, [5], labels, mask, params, cfg_relu).data
    assert not np.allclose(a, b)


def test_position_encoding_table_shape():
    pe = element_position_encoding(5, 16)
    assert pe.shape == (5, 16)
    assert not np.allclose(pe[0], pe[1])


def test_config_validation():
    with pytest.raises(ValueError):
        DenoiserConfig(d_model=30, num_heads=4, num_classes=2)
    with pytest.raises(ValueError):
        DenoiserConfig(num_layers=0, num_classes=2)
    with pytest.raises(ValueError):
        DenoiserConfig(num_classes=None, attr_dim=None)
    with pytest.raises(ValueError):
        DenoiserConfig(num_classes=3, attr_dim=4)
    with pytest.raises(ValueError):
        DenoiserConfig(num_classes=3, activation="swish")


def test_config_round_trips_through_dict():
    config = tiny_config(positional_encoding=True)
    assert DenoiserConfig.from_dict(config.to_dict()) == config
