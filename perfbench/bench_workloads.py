"""The three benchmark workloads: train, sample and eval.

Each workload is a closed loop with one caller: it starts an operation only
after the previous one has returned.  Every workload calls the package's
public functions, the ones the CLI commands call, and looks them up on their
modules at call time so that a tracer's rebinding reaches them.

A unit is what ``run_unit`` does in one call: a training episode of
``episode_steps`` steps from a fresh initialisation, one sample call, or one
eval report.  A step is the finest operation a caller waits on: a training
step, a reverse sampling step, or a whole report.
"""
from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

# Desk configuration of the denoiser; every workload uses it.
DESK = {"d_model": 64, "num_layers": 3, "num_heads": 4, "ffn_dim": 128}
NUM_CLASSES = 4
ELEMENTS = (2, 6)
LEARNING_RATE = 2e-3

# Inputs come from one of INPUT_SETS pinned sets: set = seed % INPUT_SETS.
INPUT_SETS = 32

# Performance changes may reorder float sums; these bound the drift allowed.
FINAL_LOSS_RTOL = 1e-6
SAMPLE_RTOL = 1e-6
REPORT_RTOL = 1e-9


@dataclass(frozen=True)
class Scale:
    train_layouts: int = 512
    batch_size: int = 64
    episode_steps: int = 100
    checkpoint_every: int = 50
    loss_window: int = 20
    sample_conditions: int = 64
    sample_timesteps: int = 100
    eval_layouts: int = 512
    warmup_layouts: int = 64


FULL = Scale()


@dataclass
class Unit:
    """What one unit did: wall time, per-step times and what it produced."""

    seconds: float
    step_seconds: list
    layouts: int
    ops: int
    output: object = None
    failed: int = 0
    problems: list = field(default_factory=list)
    traced: bool = False
    op_ids: range = range(0)


def input_seeds(seed: int, count: int) -> list:
    """Sub-seeds of the input set that ``seed`` selects."""
    rng = random.Random(seed % INPUT_SETS)
    return [rng.randrange(2**31) for _ in range(count)]


def _close(actual: float, expected: float, rtol: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


class Workload:
    name = ""

    def __init__(self, ld, seed: int, workdir: str, scale: Scale = FULL, pins=None):
        self.ld = ld
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.pins = pins  # pinned outputs for this seed's input set, or None
        self.begin_op = lambda: None  # called as each operation begins
        self.first_output = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{self.name}-{name}")

    def _desk_config(self, **overrides):
        ld = self.ld
        return ld.diffusion.TrainConfig(
            denoiser=ld.denoiser.DenoiserConfig(**DESK, num_classes=NUM_CLASSES),
            learning_rate=LEARNING_RATE, **overrides)

    def _synth(self, n: int, rule: str, seed: int):
        ld = self.ld
        spec = ld.data.SynthSpec(num_layouts=n, num_classes=NUM_CLASSES,
                                 elements_per_layout_range=ELEMENTS, rule=rule)
        return ld.data.make_synthetic_dataset(spec, seed)

    def facts(self) -> dict:
        """Facts about the inputs that the per-layer report includes."""
        return {"checkpoint.bytes": os.path.getsize(self.path("model.ckpt"))}

    def check(self, unit: Unit):
        """Check the unit's output; set ``unit.problems`` and ``unit.failed``."""
        unit.problems = self.problems(unit)
        unit.failed = unit.ops if unit.problems else 0


class Train(Workload):
    """``layoutdiffusion train``: episodes of training with periodic checkpoints."""

    name = "train"

    def setup(self):
        ld, scale = self.ld, self.scale
        data_seed, init_seed, train_seed = input_seeds(self.seed, 3)
        dataset = self._synth(scale.train_layouts, "grid_by_label", data_seed)
        data_path = self.path("data.json")
        ld.data.save_dataset(dataset, data_path)
        self.dataset = ld.data.load_dataset(data_path)
        self.config = self._desk_config(
            batch_size=scale.batch_size, max_steps=scale.episode_steps,
            init_seed=init_seed, train_seed=train_seed,
            checkpoint_every=scale.checkpoint_every)
        self.echo = {"train": self.config.to_dict(),
                     "dataset": {"path": data_path, "canvas": list(self.dataset.canvas),
                                 "num_layouts": len(self.dataset),
                                 "labels": list(self.dataset.label_names)},
                     "version": ld.__version__}
        self._episode(max_steps=1)

    def _episode(self, max_steps: int) -> Unit:
        ld, config = self.ld, self.config
        if max_steps != config.max_steps:
            config = ld.diffusion.TrainConfig.from_dict({**config.to_dict(),
                                                         "max_steps": max_steps})
        checkpoint = self.path("model.ckpt")
        step_seconds, losses = [], []
        clock = time.perf_counter
        last = [0.0]

        def on_step(step, loss, params, adam_state, stream):
            if step % config.checkpoint_every == 0:
                ld.checkpoint.save_checkpoint(checkpoint, params, adam_state, self.echo,
                                              {"train": stream.state()}, step)
            now = clock()
            step_seconds.append(now - last[0])
            last[0] = now
            losses.append(loss)
            if step < max_steps:
                self.begin_op()

        self.begin_op()
        start = last[0] = clock()
        ld.diffusion.train(self.dataset, config, on_step=on_step)
        seconds = clock() - start
        return Unit(seconds=seconds, step_seconds=step_seconds,
                    layouts=config.batch_size * len(losses), ops=len(losses), output=losses)

    def run_unit(self) -> Unit:
        return self._episode(self.config.max_steps)

    def check(self, unit: Unit):
        """A step fails when its loss is non-finite or differs from the first
        episode's; the last step also fails when an episode check fails."""
        losses = unit.output
        if self.first_output is None:
            self.first_output = losses
        bad = [i + 1 for i, (a, b) in enumerate(zip(losses, self.first_output))
               if not math.isfinite(a) or a != b]
        failed = set(bad)
        episode_problems = self.problems(unit)
        if episode_problems:
            failed.add(len(losses))
        unit.problems = episode_problems
        if bad:
            unit.problems.insert(0, f"steps {bad[:5]} are non-finite or differ "
                                    "from the first episode")
        unit.failed = len(failed)

    def problems(self, unit: Unit) -> list:
        losses = unit.output
        problems = []
        if len(losses) != self.config.max_steps:
            problems.append(f"episode ran {len(losses)} of {self.config.max_steps} steps")
            return problems
        window = self.scale.loss_window
        head, tail = np.mean(losses[:window]), np.mean(losses[-window:])
        if not tail < head:
            problems.append(f"loss did not fall: first {window} mean {head}, last {tail}")
        if self.pins is not None and not _close(losses[-1], self.pins["final_loss"],
                                                FINAL_LOSS_RTOL):
            problems.append(f"final loss {losses[-1]!r} != pinned "
                            f"{self.pins['final_loss']!r} (rtol {FINAL_LOSS_RTOL})")
        return problems

    def pin(self, unit: Unit) -> dict:
        return {"final_loss": unit.output[-1]}


class Sample(Workload):
    """``layoutdiffusion sample --conditions``: pad, sample, write the result."""

    name = "sample"

    def setup(self):
        ld, scale = self.ld, self.scale
        init_seed, cond_seed, self.sample_seed = input_seeds(self.seed, 3)
        config = self._desk_config(
            diffusion=ld.diffusion.DiffusionConfig(timesteps=scale.sample_timesteps),
            init_seed=init_seed)
        # Sampler cost does not depend on parameter values, so untrained
        # parameters from a fixed init seed stand in for a trained model.
        params = ld.denoiser.init_denoiser_params(config.denoiser,
                                                  ld.rng.RngStream(init_seed))
        adam = ld.optim.AdamState.initialize(params, lr=config.learning_rate)
        conditions = self._synth(scale.sample_conditions, "grid_by_label", cond_seed)
        cond_path, checkpoint = self.path("conditions.json"), self.path("model.ckpt")
        ld.data.save_dataset(conditions, cond_path)
        echo = {"train": config.to_dict(),
                "dataset": {"path": cond_path, "canvas": list(conditions.canvas),
                            "num_layouts": len(conditions),
                            "labels": list(conditions.label_names)},
                "version": ld.__version__}
        ld.checkpoint.save_checkpoint(checkpoint, params, adam, echo,
                                      {"train": ld.rng.RngStream(config.train_seed).state()}, 0)

        self.params, _, header = ld.checkpoint.load_checkpoint(checkpoint)
        self.config = ld.diffusion.TrainConfig.from_dict(header["config"]["train"])
        self.label_names = tuple(header["config"]["dataset"]["labels"])
        self.canvas = tuple(header["config"]["dataset"]["canvas"])
        self.schedule = self.config.diffusion.schedule()
        self.conditions = ld.data.load_dataset(cond_path, strict_geometry=False)
        self._sample(ld.diffusion.build_schedule(2))

    def _sample(self, schedule) -> Unit:
        ld = self.ld
        clock = time.perf_counter
        step_seconds = []
        inner = ld.diffusion.p_sample_step

        def timed_step(*args, **kwargs):
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                step_seconds.append(clock() - start)

        self.begin_op()
        ld.diffusion.p_sample_step = timed_step
        try:
            start = clock()
            batch = ld.data.pad_batch(self.conditions.layouts)
            result = ld.diffusion.sample(batch.attributes, batch.mask, self.params,
                                         self.config.denoiser, schedule,
                                         ld.rng.RngStream(self.sample_seed),
                                         self.config.diffusion)
            layouts = ld.data.batch_to_layouts(
                result.geometry_raw, batch.attributes, batch.mask,
                ids=[f"sample-{i:06d}" for i in range(batch.mask.shape[0])])
            out = ld.data.Dataset(layouts=tuple(layouts), canvas=self.canvas,
                                  label_names=self.label_names)
            ld.data.save_dataset(out, self.path("samples.json"),
                                 meta={"command": "sample", "seed": self.sample_seed},
                                 include_clamped=True)
            seconds = clock() - start
        finally:
            ld.diffusion.p_sample_step = inner
        if len(step_seconds) != schedule.timesteps:
            # The sampler no longer steps through p_sample_step: spread the
            # call's time evenly over its steps.
            step_seconds = [seconds / schedule.timesteps] * schedule.timesteps
        return Unit(seconds=seconds, step_seconds=step_seconds, layouts=len(layouts), ops=1,
                    output=(result.geometry_raw, batch.mask))

    def run_unit(self) -> Unit:
        return self._sample(self.schedule)

    def problems(self, unit: Unit) -> list:
        geometry, mask = unit.output
        lengths = [len(l) for l in self.conditions.layouts]
        problems = []
        if geometry.shape != (len(lengths), max(lengths), 4):
            problems.append(f"geometry shape {geometry.shape}")
            return problems
        if not np.all(np.isfinite(geometry)):
            problems.append("raw geometry is not finite")
        if np.any(geometry[~mask] != 0.0):
            problems.append("padded slots are not exactly zero")
        if self.first_output is None:
            self.first_output = geometry
        elif not np.array_equal(geometry, self.first_output):
            problems.append("sample differs from the first call with the same seed")
        if self.pins is not None:
            for key, value in self.pin(unit).items():
                if not _close(value, self.pins[key], SAMPLE_RTOL):
                    problems.append(f"{key} {value!r} != pinned {self.pins[key]!r}")
        return problems

    def pin(self, unit: Unit) -> dict:
        geometry = unit.output[0]
        return {"raw_sum": float(geometry.sum()), "raw_abs_sum": float(np.abs(geometry).sum())}


def report_values(report: dict, prefix: str = "") -> dict:
    """The report's scalar values by dotted key, without per-layout lists."""
    out = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(report_values(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)
    return out


class Eval(Workload):
    """``layoutdiffusion eval``: load two collections leniently and score them."""

    name = "eval"

    def setup(self):
        ld, scale = self.ld, self.scale
        gen_seed, ref_seed = input_seeds(self.seed, 2)
        generated = self._synth(scale.eval_layouts, "random_boxes", gen_seed)
        reference = self._synth(scale.eval_layouts, "random_boxes", ref_seed)
        self.gen_path, self.ref_path = self.path("generated.json"), self.path("reference.json")
        ld.data.save_dataset(generated, self.gen_path)
        ld.data.save_dataset(reference, self.ref_path)
        self.group_facts = label_groups(generated.layouts, reference.layouts,
                                        getattr(ld.metrics, "GREEDY_MATCH_THRESHOLD", math.inf))
        n = scale.warmup_layouts
        ld.metrics.evaluate_collections(generated.layouts[:n], reference.layouts[:n])

    def run_unit(self) -> Unit:
        ld = self.ld
        clock = time.perf_counter
        self.begin_op()
        start = clock()
        generated = ld.data.load_dataset(self.gen_path, strict_geometry=False)
        reference = ld.data.load_dataset(self.ref_path, strict_geometry=False)
        report = ld.metrics.evaluate_collections(generated.layouts, reference.layouts)
        seconds = clock() - start
        return Unit(seconds=seconds, step_seconds=[seconds],
                    layouts=len(generated) + len(reference), ops=1, output=report)

    def facts(self) -> dict:
        return dict(self.group_facts)

    def problems(self, unit: Unit) -> list:
        report = unit.output
        problems = []
        if self.group_facts["greedy_groups"]:
            problems.append(f"{self.group_facts['greedy_groups']} groups exceed the "
                            "exact assignment threshold")
        if self.first_output is None:
            self.first_output = report
        elif report != self.first_output:
            problems.append("report differs from the first report on the same inputs")
        if self.pins is not None:
            values = report_values(report)
            if set(values) != set(self.pins):
                problems.append(f"report keys {sorted(values)} != pinned {sorted(self.pins)}")
            for key in sorted(set(values) & set(self.pins)):
                if not _close(values[key], self.pins[key], REPORT_RTOL):
                    problems.append(f"{key} {values[key]!r} != pinned {self.pins[key]!r}")
        return problems

    def pin(self, unit: Unit) -> dict:
        return report_values(unit.output)


def label_groups(generated, reference, threshold) -> dict:
    """Max IoU's label-multiset groups: how many, the largest side, how many go greedy."""
    sizes = {}
    for side, layouts in enumerate((generated, reference)):
        for layout in layouts:
            key = tuple(sorted(int(e.label) for e in layout.elements))
            sizes.setdefault(key, [0, 0])[side] += 1
    matched = [max(g, r) for g, r in sizes.values() if g and r]
    return {"groups": len(matched), "largest_group": max(matched, default=0),
            "greedy_groups": sum(1 for size in matched if size > threshold)}


WORKLOADS = {cls.name: cls for cls in (Train, Sample, Eval)}
