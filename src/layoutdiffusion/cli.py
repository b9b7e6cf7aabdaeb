"""Command-line interface: synth, train, sample, eval, render.

Every command is deterministic given its flags, input files and seeds; all
randomness flows through explicitly named seeds.  Exit codes: 0 success,
2 usage error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (Dataset, batch_to_layouts, load_dataset, make_synthetic_dataset,
                   pad_conditions, save_dataset, SynthSpec)
from .denoiser import DenoiserConfig
from .diffusion import (DiffusionConfig, TrainConfig, read_loss_log, sample, train,
                        write_loss_log)
from .exceptions import DataError, LayoutDiffusionError, NumericError
from .metrics import FeatureSet, evaluate_collections, trivial_features
from .render import render_svg
from .rng import RngStream
from .validation import check_feature_conditions, check_label_conditions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layoutdiffusion",
        description="Conditional diffusion model for graphic layouts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--rule", choices=["grid_by_label", "random_boxes"],
                   default=SynthSpec.rule)
    p.add_argument("--layouts", type=_positive_int, default=512)
    p.add_argument("--classes", type=_positive_int, default=4)
    p.add_argument("--min-elements", type=_positive_int,
                   default=SynthSpec.elements_per_layout_range[0])
    p.add_argument("--max-elements", type=_positive_int,
                   default=SynthSpec.elements_per_layout_range[1])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("train", help="train a denoiser on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON training config; flags override it")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--loss-log", help="CSV loss log path (default: checkpoint + .loss.csv)")
    p.add_argument("--resume", help="checkpoint to continue from (reuses its "
                                    "config; only --max-steps applies on top)")
    p.add_argument("--d-model", type=int)
    p.add_argument("--num-layers", type=int)
    p.add_argument("--num-heads", type=int)
    p.add_argument("--ffn-dim", type=int)
    p.add_argument("--activation", choices=["gelu", "relu"])
    p.add_argument("--positional-encoding", action="store_true", default=None)
    p.add_argument("--timesteps", type=int)
    p.add_argument("--beta-start", type=float)
    p.add_argument("--beta-end", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--precision", choices=["float64", "float32"])
    p.add_argument("--init-seed", type=int)
    p.add_argument("--train-seed", type=int)
    p.add_argument("--checkpoint-every", type=int)

    p = sub.add_parser("sample", help="sample layouts from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--labels", help="comma-separated label ids, e.g. 0,1,1,2")
    group.add_argument("--conditions", help="dataset-schema JSON supplying conditions")
    p.add_argument("--num-samples", type=_positive_int, default=1,
                   help="with --labels: how many layouts to draw for the condition")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("eval", help="compute the metric report for two collections")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("-o", "--output", help="report JSON path (default: stdout)")
    p.add_argument("--frechet", choices=["off", "trivial", "files"], default="off")
    p.add_argument("--features-generated", help="feature JSON for --frechet files")
    p.add_argument("--features-reference", help="feature JSON for --frechet files")
    p.add_argument("--alignment-include-y", action="store_true",
                   help="extend the BLT alignment with y-axis lines")

    p = sub.add_parser("render", help="render layouts from a dataset file to SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--index", type=int, help="render only this layout index")
    p.add_argument("-o", "--output", required=True,
                   help="SVG file (with --index) or output directory")
    return parser


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    spec = SynthSpec(num_layouts=args.layouts, num_classes=args.classes,
                     elements_per_layout_range=(args.min_elements, args.max_elements),
                     rule=args.rule)
    dataset = make_synthetic_dataset(spec, args.seed)
    meta = {"command": "synth", "rule": args.rule, "seed": args.seed,
            "num_layouts": args.layouts, "num_classes": args.classes,
            "elements_per_layout_range": [args.min_elements, args.max_elements],
            "version": __version__}
    save_dataset(dataset, args.output, meta=meta)
    histogram = np.zeros(args.classes, dtype=np.int64)
    total = 0
    for layout in dataset.layouts:
        histogram += np.bincount(layout.labels, minlength=args.classes)
        total += len(layout)
    print(f"wrote {len(dataset)} layouts ({total} elements) to {args.output}")
    for k, name in enumerate(dataset.label_names):
        print(f"  {name}: {histogram[k]}")
    return EXIT_OK


def _merged_train_config(args, dataset: Dataset) -> TrainConfig:
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise DataError(f"config {args.config}: top level must be an object")
    fields = {f.name for cls in (DenoiserConfig, DiffusionConfig, TrainConfig)
              for f in dataclasses.fields(cls)}
    flags = {name: value for name, value in vars(args).items()
             if name in fields and value is not None}
    # The attribute head is always dictated by the dataset.
    flags.update(num_classes=dataset.num_classes, attr_dim=dataset.feature_dim)
    try:
        return TrainConfig.from_flat(flags, file_cfg)
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid training configuration: {exc}") from exc


def _checkpoint_config(header: dict, path) -> TrainConfig:
    try:
        return TrainConfig.from_dict(header["config"]["train"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path}: invalid training configuration: {exc}") from exc


def _dataset_echo(dataset: Dataset, path) -> dict:
    echo = {"path": str(path), "canvas": [dataset.canvas[0], dataset.canvas[1]],
            "num_layouts": len(dataset)}
    if dataset.mode == "categorical":
        echo["labels"] = list(dataset.label_names)
    else:
        echo["feature_dim"] = dataset.feature_dim
    return echo


def cmd_train(args) -> int:
    if not os.path.exists(args.dataset):
        raise DataError(f"dataset not found: {args.dataset}")
    dataset = load_dataset(args.dataset)
    dataset_echo = _dataset_echo(dataset, args.dataset)
    loss_log = args.loss_log or args.checkpoint + ".loss.csv"

    history = []
    if args.resume:
        start_params, start_adam, header = load_checkpoint(args.resume)
        trained_on = header["config"]["dataset"]
        for key in ("labels", "feature_dim"):
            if dataset_echo.get(key) != trained_on.get(key):
                raise DataError(f"dataset {args.dataset} does not match {args.resume}: {key} "
                                f"{dataset_echo.get(key)!r} != {trained_on.get(key)!r}")
        config = _checkpoint_config(header, args.resume)
        if args.max_steps is not None:
            config = dataclasses.replace(config, max_steps=args.max_steps)
        start_stream = RngStream.from_state(header["rng"]["train"])
        start_step = header["train_step"]
        # The resumed run's log lives next to --resume unless --loss-log names it.
        sources = ([args.loss_log] if args.loss_log else []) + [args.resume + ".loss.csv"]
        existing = [path for path in sources if os.path.exists(path)]
        if existing:
            history = [row for row in read_loss_log(existing[0]) if row[0] <= start_step]
    else:
        config = _merged_train_config(args, dataset)
        start_params = start_adam = start_stream = None
        start_step = 0

    config_echo = {"train": config.to_dict(), "dataset": dataset_echo, "version": __version__}
    for out_path in (args.checkpoint, loss_log):
        parent = os.path.dirname(os.path.abspath(out_path))
        if not os.path.isdir(parent):
            raise DataError(f"output directory does not exist: {parent}")

    def checkpoint_cb(step, loss, params, adam_state, stream):
        if config.checkpoint_every and step % config.checkpoint_every == 0:
            save_checkpoint(args.checkpoint, params, adam_state, config_echo,
                            {"train": stream.state()}, step)

    result = train(dataset, config, start_params=start_params, start_adam=start_adam,
                   start_stream=start_stream, start_step=start_step, on_step=checkpoint_cb)
    save_checkpoint(args.checkpoint, result.params, result.adam_state, config_echo,
                    {"train": result.train_stream.state()}, result.step)
    write_loss_log(loss_log, history + result.losses)
    if result.losses:
        first = result.losses[0][1]
        last = result.losses[-1][1]
        print(f"trained {len(result.losses)} steps: loss {first:.6f} -> {last:.6f}")
    print(f"checkpoint: {args.checkpoint}")
    print(f"loss log: {loss_log}")
    return EXIT_OK


def cmd_sample(args) -> int:
    params, _, header = load_checkpoint(args.checkpoint)
    config = _checkpoint_config(header, args.checkpoint)
    dataset_echo = header["config"]["dataset"]
    schedule = config.diffusion.schedule()

    if args.labels is not None:
        if "labels" not in dataset_echo:
            raise DataError("checkpoint was trained on continuous attributes; "
                            "use --conditions")
        try:
            labels = [int(tok) for tok in args.labels.split(",") if tok != ""]
        except ValueError as exc:
            raise DataError(f"bad --labels value {args.labels!r}") from exc
        conditions = check_label_conditions([labels] * args.num_samples,
                                            len(dataset_echo["labels"]))
    else:
        cond_dataset = load_dataset(args.conditions, strict_geometry=False)
        if (cond_dataset.mode == "categorical") != ("labels" in dataset_echo):
            raise DataError("condition file attribute mode does not match checkpoint")
        if cond_dataset.mode == "categorical":
            conditions = check_label_conditions(
                [l.labels.tolist() for l in cond_dataset.layouts], len(dataset_echo["labels"]))
        else:
            conditions = check_feature_conditions(
                [l.features for l in cond_dataset.layouts], config.denoiser.attr_dim)
    attributes, mask = pad_conditions(conditions)

    result = sample(attributes, mask, params, config.denoiser, schedule,
                    RngStream(args.seed), config.diffusion)
    layouts = batch_to_layouts(result.geometry_raw, attributes, mask,
                               ids=[f"sample-{i:06d}" for i in range(mask.shape[0])])
    out_dataset = Dataset(layouts=tuple(layouts), canvas=dataset_echo["canvas"],
                          label_names=dataset_echo.get("labels"),
                          feature_dim=dataset_echo.get("feature_dim"))
    meta = {"command": "sample", "seed": args.seed, "checkpoint": args.checkpoint,
            "num_samples": mask.shape[0], "config": header["config"],
            "version": __version__}
    save_dataset(out_dataset, args.output, meta=meta, include_clamped=True)
    print(f"wrote {len(layouts)} sampled layouts to {args.output}")
    return EXIT_OK


def _load_feature_file(path) -> FeatureSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read feature file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "features" not in doc:
        raise DataError(f"feature file {path} must contain a 'features' matrix")
    try:
        features = np.asarray(doc["features"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"feature file {path}: 'features' is not a numeric matrix") from exc
    return FeatureSet(features=features, provenance=str(doc.get("provenance", path)))


def cmd_eval(args) -> int:
    generated = load_dataset(args.generated, strict_geometry=False)
    reference = load_dataset(args.reference, strict_geometry=False)
    if generated.mode != reference.mode:
        raise DataError("generated and reference attribute modes differ")
    if generated.mode == "categorical" and generated.label_names != reference.label_names:
        raise DataError("incompatible label vocabularies between generated and reference")

    features = None
    if args.frechet == "trivial":
        if generated.mode != "categorical":
            raise DataError("trivial features require categorical layouts")
        n_max = max(max(len(l) for l in generated.layouts),
                    max(len(l) for l in reference.layouts))
        num_classes = len(reference.label_names)
        features = (trivial_features(generated.layouts, n_max, num_classes),
                    trivial_features(reference.layouts, n_max, num_classes))
    elif args.frechet == "files":
        if not (args.features_generated and args.features_reference):
            raise DataError("--frechet files needs --features-generated and "
                            "--features-reference")
        features = (_load_feature_file(args.features_generated),
                    _load_feature_file(args.features_reference))

    report = {
        "config": {"generated": args.generated, "reference": args.reference,
                   "frechet": args.frechet,
                   "alignment_include_y": bool(args.alignment_include_y),
                   "version": __version__},
        "metrics": evaluate_collections(generated.layouts, reference.layouts,
                                        features=features,
                                        include_y_alignment=args.alignment_include_y),
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote metric report to {args.output}")
    else:
        print(text)
    return EXIT_OK


def cmd_render(args) -> int:
    dataset = load_dataset(args.input, strict_geometry=False)
    names = dataset.label_names
    if args.index is not None:
        if not 0 <= args.index < len(dataset):
            raise DataError(f"layout index {args.index} out of range "
                            f"[0, {len(dataset)})")
        svg = render_svg(dataset.layouts[args.index], canvas=dataset.canvas,
                         label_names=names)
        with open(args.output, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.output}")
        return EXIT_OK
    os.makedirs(args.output, exist_ok=True)
    for layout in dataset.layouts:
        svg = render_svg(layout, canvas=dataset.canvas, label_names=names)
        path = os.path.join(args.output, f"{layout.id}.svg")
        with open(path, "w") as fh:
            fh.write(svg)
    print(f"wrote {len(dataset)} SVG files to {args.output}")
    return EXIT_OK


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "sample": cmd_sample,
             "eval": cmd_eval, "render": cmd_render}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, LayoutDiffusionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
