"""Single-file checkpoint: JSON header line + raw little-endian arrays.

The header carries a format version, precision, a manifest of named arrays
(with shapes and byte offsets into the binary section), a config echo, RNG
states, the optimizer's learning rate and step, and a SHA-256 digest of
the binary section.  Optimizer moment arrays live in the same manifest under
``adam.m.`` / ``adam.v.`` prefixes.  Saving and re-loading is bit-exact.  A
save writes a temporary file next to the target and moves it into place, so
a failed save leaves the previous checkpoint intact.  A load checks that the
arrays tile the binary section exactly in manifest order, that it matches
the digest (older checkpoints have none), and that the parameters and both
moment sets have the same names.
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


def _sha256(blobs) -> str:
    # Imported here: loading OpenSSL adds about 3.5 MB of RSS to every process
    # that imports the package, including those that never touch a checkpoint.
    import hashlib

    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


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
        "optimizer": {"lr": adam_state.lr, "step": adam_state.step},
        "sha256": _sha256(blobs),
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
    offset = 0
    for entry in header["manifest"]:
        name, shape = entry["name"], tuple(entry["shape"])
        if entry["offset"] != offset or name in arrays:
            raise DataError(f"checkpoint {path}: manifest entry {name!r} at offset "
                            f"{entry['offset']}, expected a new name at {offset}")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + count * itemsize
        if end > len(blob):
            raise DataError(f"checkpoint {path} truncated at {name}")
        arrays[name] = np.frombuffer(blob[offset:end], dtype=wire).reshape(shape).copy()
        offset = end
    if offset != len(blob):
        raise DataError(f"checkpoint {path}: {len(blob) - offset} bytes after the last array")
    digest = header.get("sha256")
    if digest is not None and _sha256([blob]) != digest:
        raise DataError(f"checkpoint {path}: binary section does not match its SHA-256")

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
    if not set(param_arrays) == set(m) == set(v):
        raise DataError(f"checkpoint {path}: parameters and Adam moments have different names")

    params = ParameterStore({name: Tensor(arr, requires_grad=True)
                             for name, arr in param_arrays.items()})
    # Older headers also carry beta1/beta2/eps, which were always Adam's constants.
    opt = header["optimizer"]
    adam_state = AdamState(lr=opt["lr"], step=opt["step"], m=m, v=v)
    return params, adam_state, header
