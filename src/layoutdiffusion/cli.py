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
from .checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from .data import (Dataset, atomic_write, load_dataset, make_synthetic_dataset, output_directory,
                   read_json_object, save_dataset, SynthSpec)
from .denoiser import DenoiserConfig, param_shapes
from .diffusion import (DiffusionConfig, TrainConfig, TrainResult, read_loss_log,
                        sample_layouts, train, write_loss_log)
from .exceptions import DataError, LayoutDiffusionError, NumericError
from .metrics import FeatureSet, evaluate_collections, trivial_features
from .render import render_svg
from .rng import RngStream
from .validation import check_seed

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
    p.add_argument("--loss-log", help="CSV loss log to write from the checkpoint's loss "
                                      "history (default: checkpoint + .loss.csv); never read")
    p.add_argument("--resume", help="checkpoint to continue from (reuses its config and "
                                    "loss history; only --max-steps may be given on top, "
                                    "not --config or another config flag)")
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
    p.add_argument("--num-samples", type=_positive_int,
                   help="with --labels only: how many layouts to draw for the condition "
                        "(default 1)")
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
    dataset = make_synthetic_dataset(spec, check_seed(args.seed))
    meta = {"command": "synth", "rule": args.rule, "seed": args.seed,
            "num_layouts": args.layouts, "num_classes": args.classes,
            "elements_per_layout_range": [args.min_elements, args.max_elements],
            "version": __version__}
    save_dataset(dataset, args.output, meta=meta)
    labels = np.concatenate([layout.labels for layout in dataset.layouts])
    histogram = np.bincount(labels, minlength=args.classes)
    print(f"wrote {len(dataset)} layouts ({len(labels)} elements) to {args.output}")
    for k, name in enumerate(dataset.label_names):
        print(f"  {name}: {histogram[k]}")
    return EXIT_OK


def _merged_train_config(args, dataset: Dataset) -> TrainConfig:
    file_cfg = read_json_object(args.config, "config") if args.config else {}
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


def _load_run(path):
    """``(params, adam_state, header, config, trained, stream)`` of a run checkpoint, whose
    arrays must have the configured denoiser's names and shapes and the configured dtype.
    ``trained`` is an empty dataset with the run's canvas and attributes.  A header entry
    that does not fit, or a loss history without one loss per step, is a
    :class:`DataError` naming the file."""
    params, adam_state, header = load_checkpoint(path)
    step = header["train_step"]
    if header["format_version"] == FORMAT_VERSION and len(header["losses"]) != step:
        raise DataError(f"checkpoint {path}: {len(header['losses'])} losses for {step} steps")
    try:
        config = TrainConfig.from_dict(header["config"]["train"])
        echo = header["config"]["dataset"]
        trained = Dataset(layouts=(), canvas=echo["canvas"], label_names=echo.get("labels"),
                          feature_dim=echo.get("feature_dim"))
        stream = RngStream.from_state(header["rng"]["train"])
    except (AttributeError, DataError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise DataError(f"checkpoint {path}: invalid run header: {exc!r}") from exc
    head = config.denoiser
    if (trained.num_classes, trained.feature_dim) != (head.num_classes, head.attr_dim):
        raise DataError(f"checkpoint {path}: the dataset echo does not match the denoiser's "
                        f"num_classes {head.num_classes} and attr_dim {head.attr_dim}")
    if config.denoiser.num_layers > len(params):  # each layer has arrays of its own
        raise DataError(f"checkpoint {path}: {len(params)} arrays cannot hold the layers")
    want = {name: (shape, np.dtype(config.dtype))
            for name, shape in param_shapes(config.denoiser).items()}
    for kind, arrays in (("params", params), ("adam.m", adam_state.m),
                         ("adam.v", adam_state.v)):
        got = {name: (arr.shape, arr.dtype) for name, arr in arrays.items()}
        for name in sorted(got.keys() | want.keys()):
            if got.get(name) != want.get(name):
                raise DataError(f"checkpoint {path}: {kind}.{name} has (shape, dtype) "
                                f"{got.get(name)}, the config needs {want.get(name)}")
    return params, adam_state, header, config, trained, stream


def _dataset_echo(dataset: Dataset, path) -> dict:
    echo = {"path": str(path), "canvas": [dataset.canvas[0], dataset.canvas[1]],
            "num_layouts": len(dataset)}
    if dataset.mode == "categorical":
        echo["labels"] = list(dataset.label_names)
    else:
        echo["feature_dim"] = dataset.feature_dim
    return echo


def _legacy_history(path, header) -> list:
    """The losses of steps 1..train_step of a format 1 or 2 checkpoint, which holds no
    history, read from the log next to it.  Without a row for each of those steps the
    run cannot go on into a checkpoint that holds its whole history."""
    log, step = path + ".loss.csv", header["train_step"]
    rows = [row for row in read_loss_log(log) if row[0] <= step] if os.path.exists(log) else []
    if [row[0] for row in rows] != list(range(1, step + 1)):
        raise DataError(f"checkpoint {path} holds no loss history, and {log} does not hold "
                        f"one row for each step 1..{step}")
    return [loss for _, loss in rows]


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    dataset_echo = _dataset_echo(dataset, args.dataset)
    loss_log = args.loss_log or args.checkpoint + ".loss.csv"

    if args.resume:
        params, adam_state, header, config, trained, stream = _load_run(args.resume)
        for key, ours, theirs in (("labels", dataset.label_names, trained.label_names),
                                  ("feature_dim", dataset.feature_dim, trained.feature_dim)):
            if ours != theirs:
                raise DataError(f"dataset {args.dataset} does not match {args.resume}: {key} "
                                f"{ours!r} != {theirs!r}")
        if args.max_steps is not None:
            config = dataclasses.replace(config, max_steps=args.max_steps)
        losses = (header["losses"] if header["format_version"] == FORMAT_VERSION
                  else _legacy_history(args.resume, header))
        run = TrainResult(params, adam_state, stream, losses)
    else:
        config = _merged_train_config(args, dataset)
        run = None

    config_echo = {"train": config.to_dict(), "dataset": dataset_echo, "version": __version__}
    for out_path in (args.checkpoint, loss_log):  # before training, not at the first save
        output_directory(out_path)

    # Save every checkpoint_every steps above the start and at the end, the log after.
    start = run.step if run else 0
    every = config.checkpoint_every
    stops = list(range(start - start % every + every, config.max_steps, every)) if every else []
    for stop in stops + [max(config.max_steps, start)]:
        run = train(dataset, dataclasses.replace(config, max_steps=stop), start=run)
        save_checkpoint(args.checkpoint, run.params, run.adam_state, config_echo,
                        {"train": run.train_stream.state()}, run.step, losses=run.losses)
        write_loss_log(loss_log, run.losses)
    if run.step > start:
        print(f"trained {run.step - start} steps: loss {run.losses[start]:.6f} -> "
              f"{run.losses[-1]:.6f}")
    print(f"checkpoint: {args.checkpoint}")
    print(f"loss log: {loss_log}")
    return EXIT_OK


def cmd_sample(args) -> int:
    params, _, header, config, trained, _ = _load_run(args.checkpoint)
    if args.labels is not None:
        if trained.mode != "categorical":
            raise DataError("checkpoint was trained on continuous attributes; "
                            "use --conditions")
        try:
            labels = [int(tok) for tok in args.labels.split(",") if tok != ""]
        except ValueError as exc:
            raise DataError(f"bad --labels value {args.labels!r}") from exc
        conditions = [labels] * (args.num_samples or 1)
    else:
        cond_dataset = load_dataset(args.conditions, strict_geometry=False)
        if cond_dataset.mode != trained.mode:
            raise DataError("condition file attribute mode does not match checkpoint")
        if cond_dataset.label_names != trained.label_names:
            raise DataError(f"condition file {args.conditions} does not match "
                            f"{args.checkpoint}: labels {cond_dataset.label_names!r} != "
                            f"{trained.label_names!r}")
        conditions = [l.labels if l.labels is not None else l.features
                      for l in cond_dataset.layouts]

    layouts = sample_layouts(conditions, params, config, args.seed)
    out_dataset = dataclasses.replace(trained, layouts=tuple(layouts))
    meta = {"command": "sample", "seed": args.seed, "checkpoint": args.checkpoint,
            "num_samples": len(layouts), "config": header["config"],
            "version": __version__}
    save_dataset(out_dataset, args.output, meta=meta, include_clamped=True)
    print(f"wrote {len(layouts)} sampled layouts to {args.output}")
    return EXIT_OK


def _load_feature_file(path) -> FeatureSet:
    doc = read_json_object(path, "feature file")
    if "features" not in doc:
        raise DataError(f"feature file {path} must contain a 'features' matrix")
    try:
        return FeatureSet(features=doc["features"], provenance=str(doc.get("provenance", path)))
    except DataError as exc:
        raise DataError(f"feature file {path}: {exc}") from exc


def cmd_eval(args) -> int:
    generated = load_dataset(args.generated, strict_geometry=False)
    reference = load_dataset(args.reference, strict_geometry=False)
    if generated.mode != reference.mode:
        raise DataError("generated and reference attribute modes differ")
    if generated.mode == "categorical" and generated.label_names != reference.label_names:
        raise DataError("incompatible label vocabularies between generated and reference")
    if not generated.layouts or not reference.layouts:
        raise DataError("evaluation needs non-empty collections")

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
        with atomic_write(args.output) as fh:
            fh.write(text + "\n")
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
        with atomic_write(args.output) as fh:
            fh.write(render_svg(dataset.layouts[args.index], canvas=dataset.canvas,
                                label_names=names))
        print(f"wrote {args.output}")
        return EXIT_OK
    # Each id names one file inside the output directory: refused are the ids that are
    # taken already (an earlier layout's, or one that is no file name) and paths.
    taken, separators = {"", ".", ".."}, {"/", "\0", os.sep, os.altsep} - {None}
    for layout in dataset.layouts:
        if layout.id in taken or any(separator in layout.id for separator in separators):
            raise DataError(f"layout {layout.id!r}: its id is empty, '.', '..', a repeat or "
                            f"holds a path separator, so it cannot name a file in {args.output}")
        taken.add(layout.id)
    os.makedirs(args.output, exist_ok=True)
    for layout in dataset.layouts:
        with atomic_write(os.path.join(args.output, f"{layout.id}.svg")) as fh:
            fh.write(render_svg(layout, canvas=dataset.canvas, label_names=names))
    print(f"wrote {len(dataset)} SVG files to {args.output}")
    return EXIT_OK


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "sample": cmd_sample,
             "eval": cmd_eval, "render": cmd_render}


def _refuse_unread_flags(parser, args):
    """A usage error for a flag that the command would silently ignore."""
    if args.command == "train" and args.resume is not None:
        # Every other flag sets the config, which a resume takes from the checkpoint.
        read = ("command", "dataset", "checkpoint", "loss_log", "resume", "max_steps")
        unread = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
                  if value is not None and name not in read]
        if unread:
            parser.error(f"train: --resume reuses the checkpoint's config, so only "
                         f"--max-steps applies; refused: {' '.join(unread)}")
    if args.command == "sample" and args.conditions is not None and args.num_samples is not None:
        parser.error("sample: --num-samples applies to --labels only; --conditions draws "
                     "one layout per condition")
    if args.command == "eval" and args.frechet != "files":
        for flag, path in (("--features-generated", args.features_generated),
                           ("--features-reference", args.features_reference)):
            if path is not None:
                parser.error(f"eval: {flag} is read only with --frechet files")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _refuse_unread_flags(parser, args)
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
