"""The checkpoint writer as it was before it streamed each array's buffer: every array
copied by ``tobytes``, and the header serialized once to sign it and once more to write
it.  The reference that ``save_checkpoint``'s bytes are checked against."""
import hashlib
import json

import numpy as np

from layoutdiffusion.checkpoint import FORMAT_VERSION

WIRE = {"float64": "<f8", "float32": "<f4"}


def save_checkpoint(path, params: dict, adam_state, config_echo: dict, rng_states: dict,
                    step: int, *, losses=()):
    arrays = {}
    for name, arr in params.items():
        arrays[f"params.{name}"] = arr
        arrays[f"adam.m.{name}"] = adam_state.m[name]
        arrays[f"adam.v.{name}"] = adam_state.v[name]
    precision = str(next(iter(arrays.values())).dtype)
    wire = WIRE[precision]

    manifest, blobs, offset = [], [], 0
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
        "train_step": step,
    }
    header = {**json.loads(json.dumps(header)), "losses": list(losses)}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode("utf-8"))
    for blob in blobs:
        digest.update(blob)
    header["sha256"] = digest.hexdigest()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)
