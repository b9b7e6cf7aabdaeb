"""Single-file checkpoint: JSON header line + raw little-endian arrays.

The header carries a format version, precision, a manifest of named arrays
(with shapes and byte offsets into the binary section), a config echo, RNG
states, and optimizer scalars.  Optimizer moment arrays live in the same
manifest under ``adam.m.`` / ``adam.v.`` prefixes.  Saving and re-loading
is bit-exact.  A save writes a temporary file next to the target and moves
it into place, so a failed save leaves the previous checkpoint intact.
"""
from __future__ import annotations

import json
import os

import numpy as np

from .exceptions import DataError
from .optim import AdamState
from .tensor import ParameterStore, Tensor

FORMAT_VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path, params: ParameterStore, adam_state: AdamState,
                    config_echo: dict, rng_states: dict, step: int):
    arrays = {}
    for name, tensor in params.items():
        arrays[f"params.{name}"] = tensor.data
    for name in params.names():
        arrays[f"adam.m.{name}"] = adam_state.m[name]
        arrays[f"adam.v.{name}"] = adam_state.v[name]

    precision = str(next(iter(arrays.values())).dtype)
    if precision not in _DTYPES:
        raise DataError(f"unsupported checkpoint precision {precision}")
    wire = _DTYPES[precision]

    manifest = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=wire)
        blob = arr.tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)

    header = {
        "format_version": FORMAT_VERSION,
        "precision": precision,
        "manifest": manifest,
        "config": config_echo,
        "rng": rng_states,
        "optimizer": {"lr": adam_state.lr, "beta1": adam_state.beta1,
                      "beta2": adam_state.beta2, "eps": adam_state.eps,
                      "step": adam_state.step},
        "train_step": step,
    }
    tmp_path = os.fspath(path) + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def load_checkpoint(path):
    """Returns (params, adam_state, header) with arrays bit-identical to save."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint version {header.get('format_version')}")
    wire = _DTYPES.get(header.get("precision"))
    if wire is None:
        raise DataError(f"unsupported checkpoint precision {header.get('precision')}")

    itemsize = np.dtype(wire).itemsize
    arrays = {}
    for entry in header["manifest"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = entry["offset"]
        end = start + count * itemsize
        if end > len(blob):
            raise DataError(f"checkpoint {path} truncated at {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(blob[start:end], dtype=wire).reshape(shape).copy()

    param_arrays = {}
    m, v = {}, {}
    for name, arr in arrays.items():
        if name.startswith("params."):
            param_arrays[name[len("params."):]] = arr
        elif name.startswith("adam.m."):
            m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            v[name[len("adam.v."):]] = arr
        else:
            raise DataError(f"checkpoint {path}: unexpected manifest entry {name!r}")

    params = ParameterStore({name: Tensor(arr, requires_grad=True)
                             for name, arr in param_arrays.items()})
    opt = header["optimizer"]
    adam_state = AdamState(lr=opt["lr"], beta1=opt["beta1"], beta2=opt["beta2"],
                           eps=opt["eps"], step=opt["step"], m=m, v=v)
    return params, adam_state, header
