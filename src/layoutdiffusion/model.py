"""Estimator-style facade over the diffusion trainer and sampler.

Follows scikit-learn conventions: constructor arguments are stored verbatim
and describe hyperparameters only, fitted state lives in trailing-underscore
attributes, and ``get_params`` / ``set_params`` make the class clonable and
grid-searchable without a scikit-learn dependency.
"""
from __future__ import annotations

import inspect
from typing import Sequence

from .data import batch_to_layouts, pad_batch, pad_conditions
from .denoiser import DenoiserConfig
from .diffusion import DiffusionConfig, TrainConfig, noise_loss, sample, train
from .exceptions import NotFittedError
from .rng import RngStream
from .validation import (check_dataset, check_feature_conditions, check_label_conditions,
                         check_seed)


class LayoutDiffusion:
    """Conditional diffusion model over layout geometry.

    ``fit`` learns the denoiser from a dataset of layouts; ``sample`` draws
    new geometry for user-specified element attributes.  Defaults follow
    the reference configuration (8 layers, 8 heads, 1000 steps, linear
    1e-4..0.02 noise schedule) and are read from ``DenoiserConfig``,
    ``DiffusionConfig`` and ``TrainConfig``; shrink the network for
    desk-scale runs.
    """

    def __init__(self, d_model=DenoiserConfig.d_model, num_layers=DenoiserConfig.num_layers,
                 num_heads=DenoiserConfig.num_heads, ffn_dim=DenoiserConfig.ffn_dim,
                 activation=DenoiserConfig.activation,
                 positional_encoding=DenoiserConfig.positional_encoding,
                 timesteps=DiffusionConfig.timesteps, beta_start=DiffusionConfig.beta_start,
                 beta_end=DiffusionConfig.beta_end, learning_rate=TrainConfig.learning_rate,
                 batch_size=TrainConfig.batch_size, max_steps=TrainConfig.max_steps,
                 precision=TrainConfig.precision, init_seed=TrainConfig.init_seed,
                 train_seed=TrainConfig.train_seed):
        self.d_model = d_model
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.ffn_dim = ffn_dim
        self.activation = activation
        self.positional_encoding = positional_encoding
        self.timesteps = timesteps
        self.beta_start = beta_start
        self.beta_end = beta_end
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.max_steps = max_steps
        self.precision = precision
        self.init_seed = init_seed
        self.train_seed = train_seed

    # -- sklearn protocol -------------------------------------------------

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for LayoutDiffusion")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"LayoutDiffusion({args})"

    # -- fitting -----------------------------------------------------------

    def _make_train_config(self, dataset) -> TrainConfig:
        return TrainConfig.from_flat({
            **self.get_params(), "num_classes": dataset.num_classes,
            "attr_dim": dataset.feature_dim,
            "init_seed": check_seed(self.init_seed, "init_seed"),
            "train_seed": check_seed(self.train_seed, "train_seed")})

    def fit(self, layouts, y=None):
        """Train the denoiser on a Dataset or a sequence of Layout objects."""
        dataset = check_dataset(layouts)
        config = self._make_train_config(dataset)
        result = train(dataset, config)
        self.config_ = config
        self.schedule_ = config.diffusion.schedule()
        self.params_ = result.params
        self.adam_state_ = result.adam_state
        self.loss_history_ = [loss for _, loss in result.losses]
        self.n_steps_ = result.step
        self.label_names_ = dataset.label_names
        self.feature_dim_ = dataset.feature_dim
        self.canvas_ = dataset.canvas
        return self

    def _check_fitted(self):
        if not hasattr(self, "params_"):
            raise NotFittedError("this LayoutDiffusion instance is not fitted; call fit first")

    # -- sampling ----------------------------------------------------------

    def sample(self, conditions: Sequence, seed: int, return_raw: bool = False):
        """Generate one layout per condition (a list of label ids, or a
        [n, attr_dim] feature array in continuous mode)."""
        self._check_fitted()
        seed = check_seed(seed)
        if self.label_names_ is not None:
            conditions = check_label_conditions(conditions, len(self.label_names_))
        else:
            conditions = check_feature_conditions(conditions, self.feature_dim_)
        attributes, mask = pad_conditions(conditions)

        result = sample(attributes, mask, self.params_, self.config_.denoiser,
                        self.schedule_, RngStream(seed), self.config_.diffusion)
        geometry = result.geometry_raw if return_raw else (
            result.geometry_clamped if result.geometry_clamped is not None
            else result.geometry_raw)
        return batch_to_layouts(geometry, attributes, mask,
                                ids=[f"sample-{i:06d}" for i in range(len(conditions))])

    def score(self, layouts, y=None) -> float:
        """Negative mean training objective over the given layouts (higher is better)."""
        self._check_fitted()
        dataset = check_dataset(layouts)
        loss = noise_loss(pad_batch(dataset.layouts), self.params_, self.config_.denoiser,
                          self.schedule_, RngStream(0))[0]
        return -float(loss.data)
