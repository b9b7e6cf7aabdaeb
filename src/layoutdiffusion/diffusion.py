"""Forward noising, reverse sampling, and the training loop.

Steps are 1-based: step ``t`` reads schedule index ``t - 1``.  The noise
variance at each reverse step is the (constant) forward variance.
"""
from __future__ import annotations

import csv
import os
import pickle
import platform
import signal
import threading
import warnings
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, Optional

import numpy as np

from .data import (DEFAULT_N_MAX, Batch, Dataset, atomic_write, batch_to_layouts, pad_batch,
                   pad_conditions)
from .denoiser import DenoiserConfig, denoise, embed_attributes, init_denoiser_params
from .exceptions import DataError, LayoutDiffusionError, NumericError
from .optim import BETA1, BETA2, EPS, AdamState, adam_step
from .rng import RngStream
from .tensor import Tensor, as_tensor, collect_grads, mul, sub, tsum
from .validation import (SEED_END, as_array, check_field_types, check_seed, is_finite_array,
                         require_int)


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
        if not (0.0 < self.beta_start < self.beta_end < 1.0):
            raise ValueError(f"need 0 < beta_start < beta_end < 1, got "
                             f"({self.beta_start}, {self.beta_end})")
        if self.timesteps < 2:
            raise ValueError("timesteps must be >= 2")

    def schedule(self) -> NoiseSchedule:
        beta = np.linspace(self.beta_start, self.beta_end, self.timesteps, dtype=np.float64)
        alpha = 1.0 - beta
        return NoiseSchedule(timesteps=self.timesteps, beta=beta, alpha=alpha,
                             alpha_bar=np.cumprod(alpha), sigma=np.sqrt(beta))

    to_dict = asdict

    @classmethod
    def from_dict(cls, d: dict) -> "DiffusionConfig":
        d = dict(d)
        # Legacy key of older checkpoints: only weight 0 was ever accepted.
        if d.pop("guidance_weight", 0.0) != 0.0:
            raise ValueError("nonzero guidance weight is not supported")
        return cls(**d)


def build_schedule(timesteps: int = DiffusionConfig.timesteps,
                   beta_start: float = DiffusionConfig.beta_start,
                   beta_end: float = DiffusionConfig.beta_end) -> NoiseSchedule:
    """The schedule of ``DiffusionConfig(timesteps, beta_start, beta_end)``, which checks
    the arguments: a TypeError for a wrong type, a ValueError for a value out of range."""
    return DiffusionConfig(timesteps, beta_start, beta_end).schedule()


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


def p_sample_step(g_t, t: int, attributes, mask, params: dict,
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


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
_heap_policy = None  # once tried: whether glibc took both thresholds


def _keep_freed_pages() -> bool:
    """Keep freed memory in this process's heap for the next allocation; once per
    process, and only under glibc.  Returns whether glibc took both thresholds.

    A training step frees its tape as backward runs, and a reverse step frees its
    temporaries, so each step would hand pages of up to a few MB back to the kernel and
    fault them in again.  glibc serves a block above ``M_MMAP_THRESHOLD`` from a fresh
    mapping, and returns the heap's free top above ``M_TRIM_THRESHOLD``; setting the
    first to 32 MiB (glibc's own dynamic maximum) and the second to 1 GiB keeps those
    pages mapped, so the heap stays at the step's peak and no step faults its pages back.
    """
    global _heap_policy
    if _heap_policy is None:
        _heap_policy = False
        if platform.libc_ver()[0] == "glibc":
            import ctypes  # numpy has already imported it

            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            _heap_policy = (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
                            and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1)
    return _heap_policy


@dataclass(frozen=True)
class SampleResult:
    geometry_raw: np.ndarray
    geometry_clamped: Optional[np.ndarray]


def sample(attributes, mask, params: dict, denoiser_config: DenoiserConfig,
           schedule: NoiseSchedule, stream: RngStream,
           config: Optional[DiffusionConfig] = None) -> SampleResult:
    """Generate geometry for the given attributes by full ancestral sampling.

    Returns the raw trajectory endpoint and, when clamping is enabled, a
    [-1, 1]-clamped copy intended for rendering only.  ``params`` maps names to
    arrays; they are wrapped once as untracked tensors, so the reverse steps
    record no tape.  The first step that leaves a non-finite value raises
    :class:`NumericError`.

    The rows' chains share nothing, so they run in contiguous shards side by side
    (:func:`_shard_bounds`): the first in this process, each other one in a forked
    child.  Each row takes the same noise words as in one full-batch chain, so the
    geometry, the error and ``stream``'s final counter do not depend on the shards.
    A child that dies raises :class:`LayoutDiffusionError`; every child is reaped
    before this returns or raises.
    """
    _keep_freed_pages()
    params = {name: Tensor(arr) for name, arr in params.items()}
    attributes, mask = np.asarray(attributes), np.asarray(mask, dtype=bool)
    b, n = mask.shape
    start = stream.counter
    bounds = _shard_bounds(attributes, mask, params, denoiser_config)
    chain = partial(_reverse_chain, attributes, mask, params, denoiser_config, schedule, stream)
    children = []  # (pid, read end of its pipe, lo, hi) of each forked shard not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork_shard(chain, lo, hi), lo, hi))
        outcomes = [chain(0, bounds[1])]
        while children:
            pid, fd, lo, hi = children[0]
            data = _read_all(fd)
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            os.close(fd)
            outcomes.append(_shard_outcome(data, status, lo, hi))
    finally:  # children left here mean an error: kill and reap them
        for pid, fd, _, _ in children:
            with suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)
    failures = [(t, int(np.count_nonzero(~np.isfinite(g)))) for t, g in outcomes if t]
    if failures:
        t = max(step for step, _ in failures)
        bad = sum(count for step, count in failures if step == t)
        # The words a serial chain draws up to step t: the start, and each step above 1.
        stream.counter = start + 8 * b * n * (schedule.timesteps + 2 - max(t, 2))
        raise NumericError(f"sampling produced {bad} non-finite values at reverse step {t}")
    g = np.concatenate([g for _, g in outcomes])
    clamp = config.clamp_output if config is not None else True
    clamped = np.clip(g, -1.0, 1.0) * mask[..., None] if clamp else None
    return SampleResult(geometry_raw=g, geometry_clamped=clamped)


def _shard_bounds(attributes, mask, params: dict, denoiser_config: DenoiserConfig) -> list:
    """Row bounds ``[0, ..., B]`` of :func:`sample`'s shards: one per usable CPU, up to
    one per row, each with about the same number of valid elements.

    One shard where forking is missing or unsafe (a threaded process can deadlock in
    the child), and where a shard would change the denoiser's bytes
    (:func:`_same_bytes`).  One shard also for inputs the denoiser refuses: attributes
    that do not match the mask's ``[B, N]``, a mask row without an element, or
    attributes its head refuses.  The serial chain then raises the error at its first
    step, with the stream's counter of a one-process run.  Every shard keeps all ``N``
    columns, so attention sees the same padded rows.
    """
    b = mask.shape[0]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    shards = min(cpus or 1, b)
    if (shards < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or attributes.shape[:2] != mask.shape or not mask.any(axis=1).all()):
        return [0, b]
    try:
        embed_attributes(attributes, np.empty(0, np.intp), params, denoiser_config)
    except Exception:
        return [0, b]
    elements = np.cumsum(mask.sum(axis=1))
    cuts = np.searchsorted(elements, elements[-1] * np.arange(1, shards) / shards) + 1
    bounds = sorted({0, b, *np.clip(cuts, 1, b - 1).tolist()})
    tokens = [0, *elements[np.array(bounds[1:]) - 1].tolist()]
    return bounds if _same_bytes(params, denoiser_config, tokens) else [0, b]


def _same_bytes(params: dict, denoiser_config: DenoiserConfig, tokens: list) -> bool:
    """Whether every affine map over packed tokens gives the rows ``tokens[i]:tokens[i+1]``
    the same bytes alone as in the whole ``[tokens[-1], K]`` product.  BLAS picks its
    kernel, and with it the order of each sum, by the sizes (a one-row product is a
    matrix-vector call, and small products take their own kernel); every other op of
    the denoiser works per token or per row."""
    table = "attr.weight" if denoiser_config.num_classes is not None else None
    weights = {w.data.shape: w.data for name, w in params.items()
               if w.data.ndim == 2 and name != table}
    for (k, _), w in weights.items():
        x = RngStream(0).uniform((tokens[-1], k)).astype(w.dtype)
        parts = [x[lo:hi].copy() @ w for lo, hi in zip(tokens[:-1], tokens[1:])]
        if np.concatenate(parts).tobytes() != (x @ w).tobytes():
            return False
    return True


class _RowSlice:
    """Rows ``lo:hi`` of each full-batch Gaussian draw from ``stream``, which still
    advances past the whole draw: a counter-based word depends on its counter alone."""

    def __init__(self, stream: RngStream, lo: int, hi: int, rows: int):
        self.stream, self.lo, self.hi, self.rows = stream, lo, hi, rows

    def gaussian(self, shape) -> np.ndarray:
        words_per_row = 2 * int(np.prod(shape[1:]))
        self.stream.counter += words_per_row * self.lo
        z = self.stream.gaussian(shape)
        self.stream.counter += words_per_row * (self.rows - self.hi)
        return z


def _reverse_chain(attributes, mask, params: dict, denoiser_config: DenoiserConfig,
                   schedule: NoiseSchedule, stream: RngStream, lo: int, hi: int,
                   parent: Optional[int] = None) -> tuple:
    """The whole reverse chain of rows ``lo:hi``: ``(0, geometry)``, or ``(t, geometry)``
    at the first step ``t`` that leaves a non-finite value.  A child forked by
    ``parent`` exits once that process has died."""
    rows = _RowSlice(stream, lo, hi, mask.shape[0])
    attributes, mask = attributes[lo:hi], mask[lo:hi]
    dtype = next(iter(params.values())).data.dtype
    g = rows.gaussian((*mask.shape, 4)).astype(dtype) * mask[..., None]
    for t in range(schedule.timesteps, 0, -1):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        g = p_sample_step(g, t, attributes, mask, params, denoiser_config, schedule, rows)
        if not np.isfinite(g).all():
            return t, g
    return 0, g


def _fork_shard(chain, lo: int, hi: int) -> tuple:
    """``(pid, read end of its pipe)`` of a child that runs ``chain(lo, hi)`` and sends
    back its pickled outcome, or the exception it raised.  The child ends through
    ``os._exit``: it flushes no inherited buffer and runs no exit hook."""
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    # Python 3.12 warns of any other OS thread; BLAS's pool is shut down at a fork.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = chain(lo, hi, parent)
            except Exception as exc:
                outcome = exc
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _shard_outcome(data: bytes, status: int, lo: int, hi: int) -> tuple:
    """The outcome a reaped child sent, or its exception raised, or an error for a
    child that died first."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise LayoutDiffusionError(f"the sampler's shard of rows {lo}:{hi} ended with "
                                   f"{how} before it sent its geometry")
    outcome = pickle.loads(data)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _checked_conditions(conditions, denoiser: DenoiserConfig) -> list:
    """``conditions`` as int64 label-id or float64 feature arrays.  The first faulty one,
    in order, or an empty request, or a value that is no sequence, raises a
    :class:`DataError` that names it."""
    try:
        conditions = list(conditions)
    except TypeError:
        raise DataError(f"sampling conditions must be a sequence, got {conditions!r}") from None
    out = []
    for i, condition in enumerate(conditions):
        if denoiser.num_classes is not None:
            try:
                labels = [require_int(label, f"condition {i} label") for label in condition]
            except TypeError:  # not iterable
                raise DataError(f"condition {i}: expected a sequence of label ids, got "
                                f"{condition!r}") from None
            for label in labels:
                if not 0 <= label < denoiser.num_classes:
                    raise DataError(f"condition {i}: label {label} outside vocabulary "
                                    f"of {denoiser.num_classes}")
            condition = np.array(labels, dtype=np.int64)
        else:
            condition = as_array(condition)
            if condition.ndim != 2 or condition.shape[1] != denoiser.attr_dim:
                raise DataError(f"condition {i}: expected [n, {denoiser.attr_dim}] features")
            if not is_finite_array(condition):
                raise DataError(f"condition {i}: features must be finite numbers")
            condition = np.asarray(condition, dtype=np.float64)
        if not len(condition):
            raise DataError(f"condition {i} has no elements")
        if len(condition) > DEFAULT_N_MAX:  # no Dataset holds a longer layout
            raise DataError(f"condition {i} has {len(condition)} elements, limit is "
                            f"{DEFAULT_N_MAX}")
        out.append(condition)
    if not out:
        raise DataError("no sampling conditions given")
    return out


def sample_layouts(conditions, params: dict, config: TrainConfig, seed,
                   clamped: bool = False) -> list:
    """One layout per condition (label ids, or ``[n, attr_dim]`` features, as the denoiser
    takes them), drawn by :func:`sample` under ids ``sample-000000, ...``.  ``clamped``
    picks the clamped geometry when the config makes it, rather than the raw.  The seed and
    then each condition, for either head, are checked before any draw."""
    stream = RngStream(check_seed(seed))
    conditions = _checked_conditions(conditions, config.denoiser)
    attributes, mask = pad_conditions(conditions)
    result = sample(attributes, mask, params, config.denoiser, config.diffusion.schedule(),
                    stream, config.diffusion)
    geometry = result.geometry_raw
    if clamped and result.geometry_clamped is not None:
        geometry = result.geometry_clamped
    return batch_to_layouts(geometry, attributes, mask,
                            ids=[f"sample-{i:06d}" for i in range(len(conditions))])


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainStepResult:
    loss: float
    params: dict
    adam_state: AdamState


def noise_loss(batch: Batch, params: dict, denoiser_config: DenoiserConfig,
               schedule: NoiseSchedule, stream: RngStream) -> Tensor:
    """The masked noise-regression loss as a tape tensor, differentiable when ``params``
    holds tracked leaves: one timestep is drawn per layout, and the squared error is
    averaged over valid slots and coordinates only."""
    dtype = as_tensor(next(iter(params.values()))).data.dtype
    b = batch.size
    mask_f = batch.mask.astype(dtype)[..., None]
    t = stream.integers(1, schedule.timesteps + 1, [b])
    noise = stream.gaussian(batch.geometry.shape).astype(dtype) * mask_f
    g0 = batch.geometry.astype(dtype)
    g_t = q_sample(g0, t, noise, schedule, mask=batch.mask)

    noise_pred = denoise(g_t, t, batch.attributes, batch.mask, params, denoiser_config)
    diff = sub(noise_pred, Tensor(noise))
    masked_sq = mul(mul(diff, diff), Tensor(mask_f))
    count = float(batch.mask.sum()) * 4.0
    return mul(tsum(masked_sq), 1.0 / count)


def training_step(batch: Batch, params: dict, denoiser_config: DenoiserConfig,
                  schedule: NoiseSchedule, adam_state: AdamState,
                  stream: RngStream) -> TrainStepResult:
    """One noise-prediction step on the name -> array ``params``: :func:`noise_loss` on
    gradient-tracked leaves made from them, then an Adam update into new arrays."""
    leaves = {name: Tensor(arr, requires_grad=True) for name, arr in params.items()}
    loss = noise_loss(batch, leaves, denoiser_config, schedule, stream)
    loss_value = float(loss.data)
    if not np.isfinite(loss_value):
        raise NumericError("training loss is not finite")
    grads = collect_grads(loss, leaves)
    new_params, new_state = adam_step(params, grads, adam_state)
    return TrainStepResult(loss=loss_value, params=new_params, adam_state=new_state)


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
        seeds = ("init_seed", "train_seed")
        check_field_types(self, unbounded=seeds)
        if self.precision not in ("float64", "float32"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.batch_size < 1 or self.max_steps < 0 or self.checkpoint_every < 0:
            raise ValueError("batch_size must be >= 1, max_steps and checkpoint_every >= 0")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in seeds:
            if not 0 <= getattr(self, name) < SEED_END:
                raise ValueError(f"{name} {getattr(self, name)} is not in [0, 2**64)")

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


@dataclass(frozen=True)
class TrainResult:
    """A run after ``step`` steps: the state to go on from, and the loss of each step."""

    params: dict
    adam_state: AdamState
    train_stream: RngStream
    losses: list

    @property
    def step(self) -> int:
        return len(self.losses)


def _sample_batch(dataset: Dataset, batch_size: int, stream: RngStream) -> Batch:
    idx = stream.integers(0, len(dataset), [batch_size])
    return pad_batch([dataset.layouts[i] for i in idx])


def train(dataset: Dataset, config: TrainConfig, start: Optional[TrainResult] = None,
          on_step: Optional[Callable] = None) -> TrainResult:
    """The run of ``config`` to ``max_steps``, from scratch or on from the run ``start`` (left
    unchanged); ``on_step(step, loss, params, adam_state, stream)`` follows each step."""
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    _keep_freed_pages()
    schedule = config.diffusion.schedule()
    if start is None:
        params = init_denoiser_params(config.denoiser, RngStream(config.init_seed),
                                      dtype=config.dtype)
        adam_state = AdamState.initialize(params, lr=config.learning_rate)
        stream, losses = RngStream(config.train_seed), []
    else:
        params, adam_state, losses = start.params, start.adam_state, list(start.losses)
        stream = RngStream.from_state(start.train_stream.state())
    while len(losses) < config.max_steps:
        batch = _sample_batch(dataset, config.batch_size, stream)
        result = training_step(batch, params, config.denoiser, schedule, adam_state, stream)
        params, adam_state = result.params, result.adam_state
        losses.append(result.loss)
        if on_step is not None:
            on_step(len(losses), result.loss, params, adam_state, stream)
    return TrainResult(params, adam_state, stream, losses)


def read_loss_log(path) -> list:
    """The ``(step, loss)`` rows of a log written by :func:`write_loss_log`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    try:
        return [(int(step), float(loss)) for step, loss in rows[1:]]
    except ValueError as exc:
        raise DataError(f"malformed loss log {path}: {exc}") from exc


def write_loss_log(path, losses):
    """Write ``step,loss`` CSV rows from step 1; a failed write leaves the previous log intact."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(losses, start=1):
            writer.writerow([step, repr(loss)])
