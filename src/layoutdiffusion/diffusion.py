"""Forward noising, reverse sampling, and the training loop.

Steps are 1-based: step ``t`` reads schedule index ``t - 1``.  The noise
variance at each reverse step is the (constant) forward variance.
"""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .data import Batch, Dataset, pad_batch
from .denoiser import DenoiserConfig, denoise, init_denoiser_params
from .exceptions import DataError, NumericError
from .optim import BETA1, BETA2, EPS, AdamState, adam_step
from .rng import RngStream
from .tensor import ParameterStore, Tensor, collect_grads, mul, sub, tsum
from .validation import check_field_types


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with its derived alpha / alpha-bar / sigma arrays."""

    timesteps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class DiffusionConfig:
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    clamp_output: bool = True

    def __post_init__(self):
        check_field_types(self)
        _check_schedule_range(self.timesteps, self.beta_start, self.beta_end)

    def schedule(self) -> NoiseSchedule:
        return build_schedule(self.timesteps, self.beta_start, self.beta_end)

    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "DiffusionConfig":
        d = dict(d)
        # Legacy key of older checkpoints: only weight 0 was ever accepted.
        if d.pop("guidance_weight", 0.0) != 0.0:
            raise ValueError("nonzero guidance weight is not supported")
        return cls(**d)


def _check_schedule_range(timesteps, beta_start, beta_end):
    if not (0.0 < beta_start < beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start < beta_end < 1, got ({beta_start}, {beta_end})")
    if timesteps < 2:
        raise ValueError("timesteps must be >= 2")


def build_schedule(timesteps: int = DiffusionConfig.timesteps,
                   beta_start: float = DiffusionConfig.beta_start,
                   beta_end: float = DiffusionConfig.beta_end) -> NoiseSchedule:
    _check_schedule_range(timesteps, beta_start, beta_end)
    beta = np.linspace(beta_start, beta_end, timesteps, dtype=np.float64)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    sigma = np.sqrt(beta)
    return NoiseSchedule(timesteps=timesteps, beta=beta, alpha=alpha,
                         alpha_bar=alpha_bar, sigma=sigma)


def _check_t(t, timesteps: int):
    t = np.asarray(t)
    if t.size == 0 or t.min() < 1 or t.max() > timesteps:
        raise ValueError(f"step(s) {t} outside [1, {timesteps}]")
    return t


def _per_row(values: np.ndarray, t, dtype) -> np.ndarray:
    """Schedule entries for 1-based step(s) ``t``, shaped for [B, N, 4] math."""
    t = np.asarray(t)
    picked = values[t - 1].astype(dtype)
    if picked.ndim == 0:
        return picked
    return picked[:, None, None]


def q_sample(g0, t, noise, schedule: NoiseSchedule, mask=None) -> np.ndarray:
    """Forward process: sqrt(a-bar_t) * g0 + sqrt(1 - a-bar_t) * noise."""
    g0 = np.asarray(g0)
    noise = np.asarray(noise)
    if g0.shape != noise.shape:
        raise ValueError(f"shape mismatch: {g0.shape} vs {noise.shape}")
    _check_t(t, schedule.timesteps)
    ab = _per_row(schedule.alpha_bar, t, g0.dtype)
    out = np.sqrt(ab) * g0 + np.sqrt(1.0 - ab) * noise
    if mask is not None:
        out = out * np.asarray(mask, dtype=g0.dtype)[..., None]
    return out


def posterior_mean(g_t, t, noise_pred, schedule: NoiseSchedule) -> np.ndarray:
    """Reverse-step mean: (g_t - beta_t / sqrt(1 - a-bar_t) * eps) / sqrt(alpha_t)."""
    g_t = np.asarray(g_t)
    _check_t(t, schedule.timesteps)
    beta = _per_row(schedule.beta, t, g_t.dtype)
    alpha = _per_row(schedule.alpha, t, g_t.dtype)
    ab = _per_row(schedule.alpha_bar, t, g_t.dtype)
    return (g_t - beta / np.sqrt(1.0 - ab) * np.asarray(noise_pred)) / np.sqrt(alpha)


def p_sample_step(g_t, t: int, attributes, mask, params: ParameterStore,
                  denoiser_config: DenoiserConfig, schedule: NoiseSchedule,
                  stream: RngStream) -> np.ndarray:
    """One ancestral sampling step from step ``t`` down to ``t - 1``.

    Fresh noise is added for every step except the last (t == 1).  Masked
    slots keep their previous values untouched.
    """
    g_t = np.asarray(g_t)
    t = int(t)
    _check_t(t, schedule.timesteps)
    noise_pred = denoise(g_t, np.full(g_t.shape[0], t), attributes, mask,
                         params, denoiser_config).data
    mean = posterior_mean(g_t, t, noise_pred, schedule)
    if t > 1:
        z = stream.gaussian(g_t.shape).astype(g_t.dtype)
        sigma = g_t.dtype.type(schedule.sigma[t - 1])
        new = mean + sigma * z
    else:
        new = mean
    mask3 = np.asarray(mask, dtype=bool)[..., None]
    return np.where(mask3, new, g_t)


@dataclass(frozen=True)
class SampleResult:
    geometry_raw: np.ndarray
    geometry_clamped: Optional[np.ndarray]
    mask: np.ndarray


def sample(attributes, mask, params: ParameterStore, denoiser_config: DenoiserConfig,
           schedule: NoiseSchedule, stream: RngStream,
           config: Optional[DiffusionConfig] = None) -> SampleResult:
    """Generate geometry for the given attributes by full ancestral sampling.

    Returns the raw trajectory endpoint and, when clamping is enabled, a
    [-1, 1]-clamped copy intended for rendering only.  The reverse steps run
    on untracked copies of the parameters, so they record no tape.  The first
    step that leaves a non-finite value raises :class:`NumericError`.
    """
    params = ParameterStore({name: t.detach() for name, t in params.items()})
    mask = np.asarray(mask, dtype=bool)
    b, n = mask.shape
    dtype = params[params.names()[0]].data.dtype
    g = stream.gaussian((b, n, 4)).astype(dtype) * mask[..., None]
    for t in range(schedule.timesteps, 0, -1):
        g = p_sample_step(g, t, attributes, mask, params, denoiser_config, schedule, stream)
        bad = int(np.count_nonzero(~np.isfinite(g)))
        if bad:
            raise NumericError(f"sampling produced {bad} non-finite values at reverse step {t}")
    clamp = config.clamp_output if config is not None else True
    clamped = np.clip(g, -1.0, 1.0) * mask[..., None] if clamp else None
    return SampleResult(geometry_raw=g, geometry_clamped=clamped, mask=mask)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainStepResult:
    loss: float
    params: ParameterStore
    adam_state: AdamState
    t: np.ndarray
    noise: np.ndarray
    noise_pred: np.ndarray


def noise_loss(batch: Batch, params: ParameterStore, denoiser_config: DenoiserConfig,
               schedule: NoiseSchedule, stream: RngStream, denoise_fn: Callable = denoise):
    """The masked noise-regression loss; returns ``(loss, t, noise, noise_pred)``.

    One timestep is drawn per layout; the squared error is averaged over
    valid slots and coordinates only.  ``loss`` and ``noise_pred`` are tape
    tensors, so the loss can be differentiated.
    """
    dtype = params[params.names()[0]].data.dtype
    b = batch.size
    mask_f = batch.mask.astype(dtype)[..., None]
    t = stream.integers(1, schedule.timesteps + 1, [b])
    noise = stream.gaussian(batch.geometry.shape).astype(dtype) * mask_f
    g0 = batch.geometry.astype(dtype)
    g_t = q_sample(g0, t, noise, schedule, mask=batch.mask)

    noise_pred = denoise_fn(g_t, t, batch.attributes, batch.mask, params, denoiser_config)
    diff = sub(noise_pred, Tensor(noise))
    masked_sq = mul(mul(diff, diff), Tensor(mask_f))
    count = float(batch.mask.sum()) * 4.0
    loss = mul(tsum(masked_sq), 1.0 / count)
    return loss, t, noise, noise_pred


def training_step(batch: Batch, params: ParameterStore, denoiser_config: DenoiserConfig,
                  schedule: NoiseSchedule, adam_state: AdamState, stream: RngStream,
                  denoise_fn: Callable = denoise) -> TrainStepResult:
    """One noise-prediction step: :func:`noise_loss`, then an Adam update."""
    loss, t, noise, noise_pred = noise_loss(batch, params, denoiser_config, schedule,
                                            stream, denoise_fn)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise NumericError("training loss is not finite")
    grads = collect_grads(loss, params)
    new_params, new_state = adam_step(params, grads, adam_state)
    return TrainStepResult(loss=loss_value, params=new_params, adam_state=new_state,
                           t=t, noise=noise, noise_pred=noise_pred.data)


@dataclass(frozen=True)
class TrainConfig:
    denoiser: DenoiserConfig
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    learning_rate: float = 1e-5
    batch_size: int = 64
    max_steps: int = 1000
    init_seed: int = 0
    train_seed: int = 1
    checkpoint_every: int = 500
    precision: str = "float64"

    def __post_init__(self):
        check_field_types(self)
        if self.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.batch_size < 1 or self.max_steps < 0:
            raise ValueError("batch_size must be >= 1 and max_steps >= 0")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32

    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config as :meth:`to_dict` writes it: each section an object with every field."""
        _require_fields(d, cls, "train config")
        for key, section in (("denoiser", DenoiserConfig), ("diffusion", DiffusionConfig)):
            _require_fields(d[key], section, f"train config {key}")
        return cls.from_flat({}, d)

    @classmethod
    def from_flat(cls, values: dict, nested: Optional[dict] = None) -> "TrainConfig":
        """The config of ``nested`` (a partial tree; fields set nowhere keep their defaults)
        with each flat name, such as ``d_model`` or ``learning_rate``, set in the dataclass
        that declares it."""
        d = {**(nested or {})}
        sections = {"denoiser": DenoiserConfig, "diffusion": DiffusionConfig}
        for key in sections:
            d[key] = {**d.get(key, {})}
        for name, value in values.items():
            target = d
            for key, section in sections.items():
                if name in section.__dataclass_fields__:
                    target = d[key]
            target[name] = value
        # Legacy keys of older checkpoints, which only ever held Adam's constants.
        for key, value in (("adam_beta1", BETA1), ("adam_beta2", BETA2), ("adam_eps", EPS)):
            if d.pop(key, value) != value:
                raise ValueError(f"{key} other than {value} is not supported")
        d["denoiser"] = DenoiserConfig.from_dict(d["denoiser"])
        d["diffusion"] = DiffusionConfig.from_dict(d["diffusion"])
        return cls(**d)


def _require_fields(d, cls, where: str):
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    missing = [f.name for f in fields(cls) if f.name not in d]
    if missing:
        raise ValueError(f"{where} lacks fields {missing}")


@dataclass
class TrainResult:
    params: ParameterStore
    adam_state: AdamState
    train_stream: RngStream
    losses: list
    step: int


def _sample_batch(dataset: Dataset, batch_size: int, stream: RngStream) -> Batch:
    idx = stream.integers(0, len(dataset), [batch_size])
    return pad_batch([dataset.layouts[i] for i in idx])


def train(dataset: Dataset, config: TrainConfig,
          start_params: Optional[ParameterStore] = None,
          start_adam: Optional[AdamState] = None,
          start_stream: Optional[RngStream] = None,
          start_step: int = 0,
          on_step: Optional[Callable] = None) -> TrainResult:
    """Run the training loop; resumable by passing a loaded state back in."""
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    schedule = config.diffusion.schedule()
    params = start_params
    if params is None:
        params = init_denoiser_params(config.denoiser, RngStream(config.init_seed),
                                      dtype=config.dtype)
    adam_state = start_adam or AdamState.initialize(params, lr=config.learning_rate)
    stream = start_stream or RngStream(config.train_seed)

    losses = []
    step = start_step
    while step < config.max_steps:
        batch = _sample_batch(dataset, config.batch_size, stream)
        result = training_step(batch, params, config.denoiser, schedule, adam_state, stream)
        params, adam_state = result.params, result.adam_state
        step += 1
        losses.append((step, result.loss))
        if on_step is not None:
            on_step(step, result.loss, params, adam_state, stream)
    return TrainResult(params=params, adam_state=adam_state, train_stream=stream,
                       losses=losses, step=step)


def read_loss_log(path) -> list:
    """The ``(step, loss)`` rows of a log written by :func:`write_loss_log`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        return [(int(step), float(loss)) for step, loss in rows[1:]]
    except ValueError as exc:
        raise DataError(f"malformed loss log {path}: {exc}") from exc


def write_loss_log(path, losses):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in losses:
            writer.writerow([step, repr(loss)])
