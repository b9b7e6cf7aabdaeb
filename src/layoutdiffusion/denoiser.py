"""Conditional layout denoiser: a set transformer that predicts added noise.

Elements are embedded from their noised geometry and their attribute, fused
with a sinusoidal timestep embedding, passed through post-norm transformer
layers, and projected back to 4 geometry channels.  Positional encoding is
off by default so the network is permutation-equivariant over elements; it
can be switched on for ordered inputs (e.g. text sequences).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .exceptions import DataError
from .rng import RngStream
from .tensor import (Tensor, as_tensor, attention, concat, embedding,
                     gelu, layer_norm, matmul, put_rows, relu, reshape, take_rows)
from .validation import check_field_types


@dataclass(frozen=True)
class DenoiserConfig:
    d_model: int = 256
    num_layers: int = 8
    num_heads: int = 8
    ffn_dim: Optional[int] = None  # defaults to 4 * d_model
    num_classes: Optional[int] = None
    attr_dim: Optional[int] = None
    activation: str = "gelu"
    positional_encoding: bool = False

    def __post_init__(self):
        check_field_types(self)
        sizes = (self.d_model, self.num_layers, self.num_heads, self.ffn_dim, self.num_classes,
                 self.attr_dim)
        if min(size for size in sizes if size is not None) < 1:
            raise ValueError(f"sizes must be >= 1, got {sizes}")
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even for sinusoidal embeddings")
        if (self.num_classes is None) == (self.attr_dim is None):
            raise ValueError("set exactly one of num_classes or attr_dim")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.d_model)

    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "DenoiserConfig":
        d = dict(d)
        d.pop("n_max", None)  # older checkpoints carry an element limit the network never read
        return cls(**d)


def sinusoid_table(positions, dim: int) -> np.ndarray:
    """Sinusoidal embedding: sin(p / 10000^(2k/dim)) then the cos half."""
    positions = np.asarray(positions, dtype=np.float64)
    k = np.arange(dim // 2, dtype=np.float64)
    freqs = np.power(10000.0, -2.0 * k / dim)
    angles = positions[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def timestep_embedding(t, d_model: int) -> np.ndarray:
    """Embedding of diffusion step(s) ``t``; shape [..., d_model]."""
    if d_model % 2 != 0:
        raise ValueError("d_model must be even")
    return sinusoid_table(t, d_model)


def element_position_encoding(n: int, d_model: int) -> np.ndarray:
    """Per-slot encoding over element index, for the ordered-input mode."""
    return sinusoid_table(np.arange(n), d_model)


# ---------------------------------------------------------------------------
# parameter initialization


def param_shapes(config: DenoiserConfig) -> dict:
    """Name -> shape of every denoiser parameter, in the order they are initialized."""
    d = config.d_model
    shapes = {}

    def affine(prefix, fan_in, fan_out):
        shapes[f"{prefix}.weight"] = (fan_in, fan_out)
        shapes[f"{prefix}.bias"] = (fan_out,)

    if config.num_classes is not None:
        shapes["attr.weight"] = (config.num_classes, d)
    else:
        affine("attr", config.attr_dim, d)
    affine("geom", 4, d)
    affine("fuse", 2 * d, d)
    for i in range(config.num_layers):
        p = f"layers.{i:02d}"
        for name in ("wq", "wk", "wv", "wo"):
            affine(f"{p}.attn.{name}", d, d)
        for ln in ("ln1", "ln2"):
            shapes[f"{p}.{ln}.scale"] = shapes[f"{p}.{ln}.shift"] = (d,)
        affine(f"{p}.ffn.lin1", d, config.ffn_dim)
        affine(f"{p}.ffn.lin2", config.ffn_dim, d)
    affine("head", d, 4)
    return shapes


def init_denoiser_params(config: DenoiserConfig, stream: RngStream,
                         dtype=np.float64) -> dict:
    """Name -> array in :func:`param_shapes` order: label table 0.02 * N(0, 1), other
    weights Glorot uniform, LN scales 1, the rest 0."""
    params = {}
    for name, shape in param_shapes(config).items():
        if name == "attr.weight" and config.num_classes is not None:
            value = 0.02 * stream.gaussian(shape)
        elif name.endswith(".weight"):
            value = (2.0 * stream.uniform(shape) - 1.0) * np.sqrt(6.0 / sum(shape))
        elif name.endswith(".scale"):
            value = np.ones(shape)
        else:
            value = np.zeros(shape)
        params[name] = value.astype(dtype)
    return params


# ---------------------------------------------------------------------------
# forward pass


def _affine(x: Tensor, params: dict, prefix: str) -> Tensor:
    return matmul(x, params[f"{prefix}.weight"], params[f"{prefix}.bias"])


def embed_geometry(geometry, params: dict) -> Tensor:
    """Affine map of per-element (cx, cy, w, h) into model width."""
    return _affine(as_tensor(geometry), params, "geom")


def embed_attributes(attributes, index, params: dict,
                     config: DenoiserConfig) -> Tensor:
    """Table lookup for label ids, affine projection for feature vectors.

    ``attributes`` is padded ([B, N] ids or [B, N, attr_dim] features) and
    checked as such; only the flat slots ``index`` are embedded, as [T, d].
    """
    if config.num_classes is not None:
        ids = np.asarray(attributes)
        if ids.ndim != 2:
            raise DataError(f"label ids must be [batch, n], got shape {ids.shape}")
        if ids.min() < 0 or ids.max() >= config.num_classes:
            bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
            raise DataError(f"label id {bad} outside vocabulary of {config.num_classes}")
        return embedding(params["attr.weight"], ids.reshape(-1)[index])
    feats = Tensor(np.asarray(attributes, dtype=as_tensor(params["attr.weight"]).data.dtype))
    if feats.data.shape[-1] != config.attr_dim:
        raise DataError(f"feature dim {feats.data.shape[-1]} != configured {config.attr_dim}")
    return _affine(take_rows(reshape(feats, (-1, config.attr_dim)), index), params, "attr")


def fuse_tokens(h_attr: Tensor, h_geom: Tensor, te, params: dict) -> Tensor:
    """Concatenate the two embeddings, fuse with an affine map, add TE(t).

    All three are packed per token: ``te`` [T, d] holds each token's
    timestep embedding.
    """
    fused = _affine(concat(h_attr, h_geom, axis=-1), params, "fuse")
    te = np.asarray(te)
    if te.shape != fused.data.shape:
        raise DataError(f"timestep embedding shape {te.shape} does not match tokens "
                        f"{fused.data.shape}")
    return fused + Tensor(te.astype(fused.data.dtype))


def transformer_layer(tokens: Tensor, mask, params: dict, layer_index: int,
                      config: DenoiserConfig) -> Tensor:
    """Post-norm block: self-attention + residual + LN, then FFN + residual + LN.

    ``tokens`` [T, d] are the valid slots of the [B, N] ``mask`` in
    row-major order.  Self-attention is one tape op (:func:`attention`),
    the only one that runs on the padded [B, N] layout, where masked slots
    are excluded as keys; every other op sees valid tokens alone.
    """
    p = f"layers.{layer_index:02d}"
    q = _affine(tokens, params, f"{p}.attn.wq")
    k = _affine(tokens, params, f"{p}.attn.wk")
    v = _affine(tokens, params, f"{p}.attn.wv")
    context = attention(q, k, v, mask, config.num_heads)
    attended = _affine(context, params, f"{p}.attn.wo")

    normed = layer_norm(tokens + attended, params[f"{p}.ln1.scale"], params[f"{p}.ln1.shift"])

    hidden = _affine(normed, params, f"{p}.ffn.lin1")
    hidden = gelu(hidden) if config.activation == "gelu" else relu(hidden)
    ffn_out = _affine(hidden, params, f"{p}.ffn.lin2")
    return layer_norm(normed + ffn_out, params[f"{p}.ln2.scale"], params[f"{p}.ln2.shift"])


def denoise(geometry, t, attributes, mask, params: dict,
            config: DenoiserConfig) -> Tensor:
    """Predict the noise on each element's geometry; masked slots return zero.

    ``geometry`` is [B, N, 4], ``t`` one integer step per batch row,
    ``attributes`` label ids [B, N] or features [B, N, attr_dim],
    ``mask`` [B, N] booleans marking real elements, at least one in each row;
    ``params`` maps each name of :func:`param_shapes` to an array, or to a tape
    tensor to differentiate.  Inputs that disagree on [B, N], or a mask row
    without an element, raise :class:`DataError`.  The network runs on the
    valid slots only, so its cost follows the element count, not B * N.
    """
    geometry = as_tensor(geometry)
    mask = np.asarray(mask, dtype=bool)
    if (mask.ndim != 2 or geometry.data.shape != (*mask.shape, 4)
            or np.shape(attributes)[:2] != mask.shape):
        raise DataError(f"geometry {geometry.data.shape}, attributes {np.shape(attributes)} "
                        f"and mask {mask.shape} disagree on [batch, n]")
    empty = np.flatnonzero(~mask.any(axis=1))
    if len(empty):
        raise DataError(f"batch row {empty[0]} has an all-false mask")
    b, n = mask.shape
    t = np.broadcast_to(np.asarray(t), (b,))
    index = np.flatnonzero(mask)

    h_geom = embed_geometry(take_rows(reshape(geometry, (b * n, 4)), index), params)
    h_attr = embed_attributes(attributes, index, params, config)
    te = timestep_embedding(t, config.d_model)[index // n]
    tokens = fuse_tokens(h_attr, h_geom, te, params)
    if config.positional_encoding:
        pe = element_position_encoding(n, config.d_model)[index % n]
        tokens = tokens + Tensor(pe.astype(tokens.data.dtype))

    for layer_index in range(config.num_layers):
        tokens = transformer_layer(tokens, mask, params, layer_index, config)

    noise_pred = _affine(tokens, params, "head")
    return reshape(put_rows(noise_pred, index, b * n), (b, n, 4))
