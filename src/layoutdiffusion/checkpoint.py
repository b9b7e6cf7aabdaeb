"""Single-file checkpoint: JSON header line + raw little-endian arrays.

The header carries a format version, precision, a manifest of named arrays
(with shapes and byte offsets into the binary section), a config echo, RNG
states, the optimizer's learning rate and step, the training loss of each
step up to ``train_step``, and a SHA-256 digest of the rest of the header
together with the binary section.  The losses are JSON floats, which
round-trip exactly whatever the precision, so the file holds a run's whole
state and history and the loss log is rendered from it.  Optimizer moment
arrays live in the same manifest under ``adam.m.`` / ``adam.v.`` prefixes.
Saving and re-loading is bit-exact.  A save writes a temporary file next to
the target and moves it into place, so a failed save leaves the previous
checkpoint intact.  Neither side copies the binary section: a save writes and
hashes each array's own buffer, and a load reads each array straight into a
new array of its own while hashing it.  A load checks that the arrays tile the
binary section exactly in manifest order, against the file's size before it
allocates any array, that the file matches its digest, and that the
parameters and both moment sets have the same names.  Only a version 1 file
may lack the digest; in version 1 files it covers the binary section only,
and version 1 and 2 files hold no losses.  A header whose manifest,
optimizer or losses entries are missing or of the wrong type is a
:class:`DataError`.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .data import atomic_path
from .exceptions import DataError
from .optim import AdamState
from .validation import is_finite_number, is_integer

FORMAT_VERSION = 3  # 2: the digest covers the header too; 3: the header holds the losses

_DTYPES = {"float64": "<f8", "float32": "<f4"}


def _sha256():
    # Imported here: loading OpenSSL adds about 3.5 MB of RSS to every process
    # that imports the package, including those that never touch a checkpoint.
    import hashlib

    return hashlib.sha256()


def _bytes(arr: np.ndarray) -> memoryview:
    """The bytes of the C-contiguous ``arr``, without a copy."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def _manifest_entry(entry, path) -> tuple:
    """``(name, shape, offset)`` of one manifest entry, with their types checked."""
    if not isinstance(entry, dict):
        raise DataError(f"checkpoint {path}: manifest entry {entry!r} is not an object")
    name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
    if not isinstance(name, str):
        raise DataError(f"checkpoint {path}: manifest name {name!r} is not a string")
    if not isinstance(shape, list) or not all(is_integer(dim, 0, 2**63) for dim in shape):
        raise DataError(f"checkpoint {path}: shape {shape!r} of {name!r} is not a list "
                        f"of non-negative integers")
    if not is_integer(offset, 0, 2**63):
        raise DataError(f"checkpoint {path}: offset {offset!r} of {name!r} is not a "
                        f"non-negative integer")
    return name, tuple(shape), offset


def _read_header(header_line: bytes, path) -> dict:
    """The header of a checkpoint, with every entry but the manifest's checked."""
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"checkpoint {path}: header is not a JSON object")
    version = header.get("format_version")
    if not is_integer(version, 1, FORMAT_VERSION + 1):
        raise DataError(f"checkpoint {path}: unsupported version {version!r}")
    precision = header.get("precision")
    if not isinstance(precision, str) or precision not in _DTYPES:
        raise DataError(f"checkpoint {path}: unsupported precision {precision!r}")
    if not isinstance(header.get("manifest"), list):
        raise DataError(f"checkpoint {path}: manifest is not a list")
    opt = header.get("optimizer")
    lr = opt.get("lr") if isinstance(opt, dict) else None
    if not is_finite_number(lr) or not is_integer(opt.get("step"), 0, 2**63):
        raise DataError(f"checkpoint {path}: optimizer entry {opt!r} needs a finite lr "
                        f"and a non-negative integer step")
    if not is_integer(header.get("train_step"), 0, 2**63):
        raise DataError(f"checkpoint {path}: train_step {header.get('train_step')!r} is not "
                        f"a non-negative integer")
    losses = header.get("losses")
    if version == FORMAT_VERSION and not (isinstance(losses, list)
                                          and all(map(is_finite_number, losses))):
        raise DataError(f"checkpoint {path}: losses entry is not a list of finite numbers")
    return header


def _read_arrays(fh, header: dict, path) -> dict:
    """The name -> array dict of the binary section that follows the header in ``fh``.

    The manifest is checked against the section's size before any array is allocated;
    then each array is read straight into its own buffer and hashed there."""
    wire = _DTYPES[header["precision"]]
    itemsize = np.dtype(wire).itemsize
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    shapes = {}
    offset = 0
    for entry in header["manifest"]:
        name, shape, entry_offset = _manifest_entry(entry, path)
        if entry_offset != offset or name in shapes:
            raise DataError(f"checkpoint {path}: manifest entry {name!r} at offset "
                            f"{entry_offset}, expected a new name at {offset}")
        offset += math.prod(shape) * itemsize
        if offset > size:
            raise DataError(f"checkpoint {path} truncated at {name}")
        shapes[name] = shape
    if offset != size:
        raise DataError(f"checkpoint {path}: {size - offset} bytes after the last array")

    digest = _sha256()
    if header["format_version"] != 1:  # version 1 signs the binary section only
        unsigned = {key: value for key, value in header.items() if key != "sha256"}
        digest.update(json.dumps(unsigned, sort_keys=True).encode("utf-8"))
    arrays = {}
    for name, shape in shapes.items():
        arrays[name] = np.empty(shape, dtype=wire)
        buffer = _bytes(arrays[name])
        if fh.readinto(buffer) != buffer.nbytes:
            raise DataError(f"checkpoint {path} truncated at {name}")
        digest.update(buffer)
    signed = header.get("sha256")
    if (signed is not None or header["format_version"] != 1) and digest.hexdigest() != signed:
        raise DataError(f"checkpoint {path}: SHA-256 missing, or header or binary section "
                        f"does not match it")
    return arrays


def save_checkpoint(path, params: dict, adam_state: AdamState,
                    config_echo: dict, rng_states: dict, step: int, *, losses=()):
    """Write the run state at ``step``: the name -> array ``params`` and Adam's moments.
    ``losses`` holds the loss of each step 1..step."""
    arrays = {}
    for name, arr in params.items():
        arrays[f"params.{name}"] = arr
        arrays[f"adam.m.{name}"] = adam_state.m[name]
        arrays[f"adam.v.{name}"] = adam_state.v[name]

    precision = str(next(iter(arrays.values())).dtype)
    if precision not in _DTYPES:
        raise DataError(f"unsupported checkpoint precision {precision}")
    wire = _DTYPES[precision]

    manifest = []
    offset = 0
    buffers = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=wire)
        buffer = _bytes(arr)
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += buffer.nbytes
        buffers.append(buffer)

    header = {
        "format_version": FORMAT_VERSION,
        "precision": precision,
        "manifest": manifest,
        "config": config_echo,
        "rng": rng_states,
        "optimizer": {"lr": adam_state.lr, "step": adam_state.step},
    }
    # Sign the header as a load reads it back: integer keys become strings.  The losses,
    # a list of numbers, read back as they are written.  The signed text is the header's
    # sorted JSON without "sha256", which sorts just before "train_step", the last key:
    # so the header is serialized once, and the digest is spliced into its text.
    head = json.dumps({**json.loads(json.dumps(header)), "losses": list(losses)},
                      sort_keys=True)[:-1]
    tail = f', "train_step": {json.dumps(step)}}}'
    digest = _sha256()
    digest.update(f"{head}{tail}".encode("utf-8"))
    for buffer in buffers:
        digest.update(buffer)
    line = f'{head}, "sha256": "{digest.hexdigest()}"{tail}\n'
    with atomic_path(path) as tmp_path, open(tmp_path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        for buffer in buffers:
            fh.write(buffer)


def load_checkpoint(path):
    """Returns ``(params, adam_state, header)``: ``params`` and Adam's moments are
    name -> array dicts, bit-identical to what was saved; each array owns its memory."""
    with open(path, "rb") as fh:
        header = _read_header(fh.readline(), path)
        arrays = _read_arrays(fh, header, path)
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

    # Older headers also carry beta1/beta2/eps, which were always Adam's constants.
    opt = header["optimizer"]
    adam_state = AdamState(lr=opt["lr"], step=opt["step"], m=m, v=v)
    return param_arrays, adam_state, header
