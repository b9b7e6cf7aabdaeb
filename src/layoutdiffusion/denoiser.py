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
from .tensor import (ParameterStore, Tensor, as_tensor, concat, embedding, gelu,
                     layer_norm, masked_softmax, matmul, relu, reshape, transpose)


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
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if self.d_model % 2 != 0:
            raise ValueError("d_model must be even for sinusoidal embeddings")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if (self.num_classes is None) == (self.attr_dim is None):
            raise ValueError("set exactly one of num_classes or attr_dim")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.d_model)

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

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


def _glorot(stream: RngStream, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    u = stream.uniform([fan_in, fan_out])
    return ((2.0 * u - 1.0) * bound).astype(dtype)


def init_denoiser_params(config: DenoiserConfig, stream: RngStream,
                         dtype=np.float64) -> ParameterStore:
    d = config.d_model
    params = {}

    def affine(prefix, fan_in, fan_out):
        params[f"{prefix}.weight"] = Tensor(_glorot(stream, fan_in, fan_out, dtype),
                                            requires_grad=True)
        params[f"{prefix}.bias"] = Tensor(np.zeros(fan_out, dtype=dtype), requires_grad=True)

    if config.num_classes is not None:
        table = (0.02 * stream.gaussian([config.num_classes, d])).astype(dtype)
        params["attr.weight"] = Tensor(table, requires_grad=True)
    else:
        affine("attr", config.attr_dim, d)
    affine("geom", 4, d)
    affine("fuse", 2 * d, d)
    for i in range(config.num_layers):
        p = f"layers.{i:02d}"
        for name in ("wq", "wk", "wv", "wo"):
            affine(f"{p}.attn.{name}", d, d)
        for ln in ("ln1", "ln2"):
            params[f"{p}.{ln}.scale"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
            params[f"{p}.{ln}.shift"] = Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
        affine(f"{p}.ffn.lin1", d, config.ffn_dim)
        affine(f"{p}.ffn.lin2", config.ffn_dim, d)
    affine("head", d, 4)
    return ParameterStore(params)


# ---------------------------------------------------------------------------
# forward pass


def _affine(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    return matmul(x, params[f"{prefix}.weight"]) + params[f"{prefix}.bias"]


def embed_geometry(geometry, params: ParameterStore) -> Tensor:
    """Affine map of per-element (cx, cy, w, h) into model width."""
    return _affine(as_tensor(geometry), params, "geom")


def embed_attributes(attributes, params: ParameterStore, config: DenoiserConfig) -> Tensor:
    """Table lookup for label ids, affine projection for feature vectors."""
    if config.num_classes is not None:
        ids = np.asarray(attributes)
        if ids.ndim != 2:
            raise DataError(f"label ids must be [batch, n], got shape {ids.shape}")
        if ids.min() < 0 or ids.max() >= config.num_classes:
            bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
            raise DataError(f"label id {bad} outside vocabulary of {config.num_classes}")
        return embedding(params["attr.weight"], ids)
    feats = as_tensor(attributes)
    if feats.data.shape[-1] != config.attr_dim:
        raise DataError(f"feature dim {feats.data.shape[-1]} != configured {config.attr_dim}")
    return _affine(feats, params, "attr")


def fuse_tokens(h_attr: Tensor, h_geom: Tensor, te, params: ParameterStore) -> Tensor:
    """Concatenate the two embeddings, fuse with an affine map, add TE(t).

    ``te`` is one timestep embedding per batch row, broadcast over slots.
    """
    fused = _affine(concat(h_attr, h_geom, axis=-1), params, "fuse")
    te = np.asarray(te)
    if te.ndim != 2 or te.shape[0] != fused.data.shape[0]:
        raise DataError(f"timestep embedding shape {te.shape} does not match batch")
    return fused + Tensor(te[:, None, :].astype(fused.data.dtype))


def transformer_layer(tokens: Tensor, mask, params: ParameterStore, layer_index: int,
                      config: DenoiserConfig) -> Tensor:
    """Post-norm block: self-attention + residual + LN, then FFN + residual + LN.

    Masked slots are excluded as attention keys; their own outputs are
    finite but carry no meaning and get zeroed at the network output.
    """
    p = f"layers.{layer_index:02d}"
    b, n, d = tokens.data.shape
    heads, hd = config.num_heads, config.head_dim

    def split_heads(x):
        return transpose(reshape(x, (b, n, heads, hd)), (0, 2, 1, 3))

    q = split_heads(_affine(tokens, params, f"{p}.attn.wq"))
    k = split_heads(_affine(tokens, params, f"{p}.attn.wk"))
    v = split_heads(_affine(tokens, params, f"{p}.attn.wv"))

    logits = matmul(q, transpose(k, (0, 1, 3, 2))) * float(1.0 / np.sqrt(hd))
    key_mask = np.asarray(mask, dtype=bool)[:, None, None, :]
    weights = masked_softmax(logits, key_mask)
    context = reshape(transpose(matmul(weights, v), (0, 2, 1, 3)), (b, n, d))
    attended = _affine(context, params, f"{p}.attn.wo")

    normed = layer_norm(tokens + attended, params[f"{p}.ln1.scale"], params[f"{p}.ln1.shift"])

    hidden = _affine(normed, params, f"{p}.ffn.lin1")
    hidden = gelu(hidden) if config.activation == "gelu" else relu(hidden)
    ffn_out = _affine(hidden, params, f"{p}.ffn.lin2")
    return layer_norm(normed + ffn_out, params[f"{p}.ln2.scale"], params[f"{p}.ln2.shift"])


def denoise(geometry, t, attributes, mask, params: ParameterStore,
            config: DenoiserConfig) -> Tensor:
    """Predict the noise on each element's geometry; masked slots return zero.

    ``geometry`` is [B, N, 4], ``t`` one integer step per batch row,
    ``attributes`` label ids [B, N] or features [B, N, attr_dim],
    ``mask`` [B, N] booleans marking real elements.
    """
    geometry = as_tensor(geometry)
    b, n, _ = geometry.data.shape
    t = np.broadcast_to(np.asarray(t), (b,))

    h_geom = embed_geometry(geometry, params)
    h_attr = embed_attributes(attributes, params, config)
    te = timestep_embedding(t, config.d_model)
    tokens = fuse_tokens(h_attr, h_geom, te, params)
    if config.positional_encoding:
        pe = element_position_encoding(n, config.d_model)[None, :, :]
        tokens = tokens + Tensor(pe.astype(tokens.data.dtype))

    for layer_index in range(config.num_layers):
        tokens = transformer_layer(tokens, mask, params, layer_index, config)

    noise_pred = _affine(tokens, params, "head")
    mask_f = np.asarray(mask, dtype=noise_pred.data.dtype)[:, :, None]
    return noise_pred * Tensor(mask_f)
