"""Every entry point that takes an integer from outside, against one table of what it
accepts: the range, the exception for a value that is not an integer, and the exception
for an integer out of range."""
import json
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest
from checkpoint_signing import resign

from layoutdiffusion.checkpoint import load_checkpoint, save_checkpoint
from layoutdiffusion.data import Dataset, SynthSpec, load_dataset, save_dataset
from layoutdiffusion.denoiser import DenoiserConfig, init_denoiser_params
from layoutdiffusion.diffusion import TrainConfig, _checked_conditions, build_schedule
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.optim import AdamState
from layoutdiffusion.rng import RngStream
from layoutdiffusion.validation import check_seed

INPUTS = {"True": True, "1.0": 1.0, "'3'": "3", "np.int64(3)": np.int64(3), "-1": -1,
          "2**63": 2**63, "2**64": 2**64}


def checkpoint_with(tmp_path, edit):
    """Load a tiny checkpoint whose header ``edit`` changed, re-signed so that only the
    edited entry can stand in the way."""
    config = DenoiserConfig(d_model=4, num_layers=1, num_heads=1, ffn_dim=4, num_classes=2)
    params = init_denoiser_params(config, RngStream(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, AdamState.initialize(params, lr=1e-3), {}, {}, step=0)
    head, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    resign(header, blob)
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    load_checkpoint(path)


def dataset_with(tmp_path, labels=None, feature_dim=None):
    """Load a one-element dataset file: categorical with element label ``labels``, or
    continuous with three features per element and the given ``feature_dim``."""
    element = {"bbox": [50, 50, 20, 10]}
    doc = {"canvas": {"width": 100, "height": 100}}
    if feature_dim is None:
        doc["labels"] = ["a", "b", "c", "d"]
        element["label"] = labels
    else:
        doc["feature_dim"] = feature_dim
        element["feature"] = [0.1, 0.2, 0.3]
    doc["layouts"] = [{"id": "x", "elements": [element]}]
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    load_dataset(path)


def dataset_object(tmp_path, feature_dim):
    """Build an empty continuous ``Dataset`` with ``feature_dim``, save it and load it back."""
    path = tmp_path / "data.json"
    save_dataset(Dataset(layouts=(), feature_dim=feature_dim), path)
    load_dataset(path)


def manifest_entry(key):
    def edit(header, value):
        header["manifest"][0][key] = [value, 4] if key == "shape" else value
    return edit


DENOISER = DenoiserConfig(d_model=8, num_layers=1, num_heads=2, num_classes=2)
SMALL_NET = dict(d_model=6, num_layers=1, num_heads=1, num_classes=2)


class Entry(NamedTuple):
    call: Callable  # (value, tmp_path) -> None
    low: int
    high: float
    error: type  # for a value that is not an integer
    range_error: type  # for an integer outside [low, high)
    match: str  # found in the message of either refusal, and of no other failure
    json: bool = False  # the value comes from a JSON file, which holds no numpy integers
    int64: bool = False  # a config int field: an integer beyond int64 is a type fault


def header_entry(edit, low, high, match):
    return Entry(lambda v, tmp: checkpoint_with(tmp, lambda h: edit(h, v)), low, high,
                 DataError, DataError, match, json=True)


def config_size(make, name, low, match=None):
    return Entry(lambda v, tmp: make(name, v), low, 2**63, TypeError, ValueError,
                 match or name, int64=True)


def train_config(name, value):
    TrainConfig(denoiser=DENOISER, **{name: value})


def denoiser_config(name, value):
    fields = {**SMALL_NET, name: value}
    if name == "attr_dim":
        fields["num_classes"] = None
    DenoiserConfig(**fields)


def synth_spec(name, value):
    fields = dict(num_layouts=2, num_classes=2, elements_per_layout_range=(1, 36))
    if name in ("min", "max"):
        low, high = fields["elements_per_layout_range"]
        fields["elements_per_layout_range"] = (value, high) if name == "min" else (low, value)
    else:
        fields[name] = value
    SynthSpec(**fields)


def train_seed(name):
    return Entry(lambda v, tmp: train_config(name, v), 0, 2**64, TypeError, ValueError, name)


ENTRIES = {
    "checkpoint manifest shape": header_entry(manifest_entry("shape"), 0, 2**63,
                                              "is not a list of non-negative integers"),
    "checkpoint manifest offset": header_entry(manifest_entry("offset"), 0, 2**63,
                                               "offset .* is not a non-negative integer"),
    "checkpoint optimizer step": header_entry(
        lambda h, v: h["optimizer"].update(step=v), 0, 2**63, "optimizer entry"),
    "checkpoint train_step": header_entry(
        lambda h, v: h.update(train_step=v), 0, 2**63, "train_step"),
    "checkpoint format_version": header_entry(
        lambda h, v: h.update(format_version=v), 1, 4, "unsupported version"),
    "dataset label": Entry(lambda v, tmp: dataset_with(tmp, labels=v), 0, 4, DataError,
                           DataError, "label", json=True),
    "dataset feature_dim": Entry(lambda v, tmp: dataset_with(tmp, feature_dim=v), 1,
                                 float("inf"), DataError, DataError, "feature_dim", json=True),
    "Dataset feature_dim": Entry(lambda v, tmp: dataset_object(tmp, v), 1, float("inf"),
                                 DataError, DataError, "feature_dim"),
    "check_seed": Entry(lambda v, tmp: check_seed(v), 0, 2**64, DataError, DataError, "seed"),
    "RngStream seed": Entry(lambda v, tmp: RngStream(v), 0, 2**64, ValueError, ValueError,
                            "rng seed"),
    "RngStream counter": Entry(lambda v, tmp: RngStream(0, v), 0, 2**63, ValueError,
                               ValueError, "rng counter"),
    "TrainConfig init_seed": train_seed("init_seed"),
    "TrainConfig train_seed": train_seed("train_seed"),
    "TrainConfig batch_size": config_size(train_config, "batch_size", 1),
    "TrainConfig max_steps": config_size(train_config, "max_steps", 0),
    "TrainConfig checkpoint_every": config_size(train_config, "checkpoint_every", 0),
    **{f"DenoiserConfig {name}": config_size(denoiser_config, name, 1,
                                             f"{name}|sizes must be >= 1")
       for name in ("num_layers", "num_heads", "ffn_dim", "num_classes", "attr_dim")},
    "_checked_conditions labels": Entry(
        lambda v, tmp: _checked_conditions([[v]], DenoiserConfig(num_classes=4)), 0, 4,
        DataError, DataError, "condition 0"),
    "SynthSpec num_layouts": Entry(lambda v, tmp: synth_spec("num_layouts", v), 1,
                                   float("inf"), DataError, DataError, "num_layouts"),
    "SynthSpec num_classes": Entry(lambda v, tmp: synth_spec("num_classes", v), 1,
                                   float("inf"), DataError, DataError, "num_classes"),
    "SynthSpec min elements": Entry(lambda v, tmp: synth_spec("min", v), 1, 37, DataError,
                                    DataError, "elements_per_layout_range"),
    "SynthSpec max elements": Entry(lambda v, tmp: synth_spec("max", v), 1, 37, DataError,
                                    DataError, "elements_per_layout_range"),
    "build_schedule timesteps": Entry(lambda v, tmp: build_schedule(v), 2, 2**63, TypeError,
                                      ValueError, "timesteps", int64=True),
}


def expected_error(entry: Entry, value):
    """The exception ``entry`` should raise for ``value``, or None if it accepts it."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and entry.low <= value < entry.high:
        return None
    if not integer or (entry.int64 and not -2**63 <= value < 2**63):
        return entry.error
    return entry.range_error


@pytest.mark.parametrize("value", INPUTS.values(), ids=INPUTS.keys())
@pytest.mark.parametrize("name", ENTRIES)
def test_every_integer_entry_point_accepts_exactly_its_range(tmp_path, name, value):
    entry = ENTRIES[name]
    if entry.json and isinstance(value, np.integer):
        pytest.skip("a JSON file holds no numpy integers")
    error = expected_error(entry, value)
    if error is not None:
        with pytest.raises(error, match=entry.match):
            entry.call(value, tmp_path)
        return
    try:
        entry.call(value, tmp_path)
    except Exception as exc:  # a later check may refuse the file; this one must not
        assert not re.search(entry.match, str(exc)), exc
