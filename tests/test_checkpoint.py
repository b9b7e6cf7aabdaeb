import json

import numpy as np
import pytest

from layoutdiffusion import checkpoint
from layoutdiffusion.checkpoint import load_checkpoint, save_checkpoint
from layoutdiffusion.denoiser import DenoiserConfig, init_denoiser_params
from layoutdiffusion.exceptions import DataError
from layoutdiffusion.optim import AdamState
from layoutdiffusion.rng import RngStream


def make_state(dtype=np.float64, seed=0):
    config = DenoiserConfig(d_model=16, num_layers=2, num_heads=2, ffn_dim=16,
                            num_classes=3)
    params = init_denoiser_params(config, RngStream(seed), dtype=dtype)
    adam = AdamState.initialize(params, lr=1e-3)
    # make the moments non-trivial
    grads = {name: np.full_like(t.data, 0.25) for name, t in params.items()}
    from layoutdiffusion.optim import adam_step
    params, adam = adam_step(params, grads, adam)
    return config, params, adam


def test_save_load_round_trip_is_bit_exact(tmp_path):
    config, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    rng_states = {"train": RngStream(5, counter=123).state()}
    save_checkpoint(path, params, adam, {"note": "t"}, rng_states, step=7)
    loaded_params, loaded_adam, header = load_checkpoint(path)

    assert loaded_params.names() == params.names()
    for name in params.names():
        a, b = params[name].data, loaded_params[name].data
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert np.array_equal(adam.m[name], loaded_adam.m[name])
        assert np.array_equal(adam.v[name], loaded_adam.v[name])
    assert loaded_adam.step == adam.step
    assert loaded_adam.lr == adam.lr
    assert header["rng"]["train"] == rng_states["train"]
    assert header["train_step"] == 7
    assert header["config"] == {"note": "t"}


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    _, params, adam = make_state(seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, adam, {"c": 1}, {}, step=1)
    before = path.read_bytes()

    class FailingFile:
        """Writes the header, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError("no space left on device")
            return self.fh.write(data)

    real_open = open
    monkeypatch.setattr(checkpoint, "open", lambda p, mode: FailingFile(real_open(p, mode)),
                        raising=False)
    _, other_params, other_adam = make_state(seed=1)
    with pytest.raises(OSError):
        save_checkpoint(path, other_params, other_adam, {"c": 2}, {}, step=2)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
    loaded, _, header = load_checkpoint(path)
    assert header["train_step"] == 1
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)


def test_save_load_save_produces_identical_bytes(tmp_path):
    config, params, adam = make_state()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    rng_states = {"train": RngStream(1).state()}
    save_checkpoint(p1, params, adam, {"c": 1}, rng_states, step=1)
    loaded_params, loaded_adam, header = load_checkpoint(p1)
    save_checkpoint(p2, loaded_params, loaded_adam, header["config"],
                    header["rng"], header["train_step"])
    assert p1.read_bytes() == p2.read_bytes()


def test_float32_round_trip(tmp_path):
    config, params, adam = make_state(dtype=np.float32)
    path = tmp_path / "f32.ckpt"
    save_checkpoint(path, params, adam, {}, {"train": RngStream(0).state()}, step=0)
    loaded_params, _, header = load_checkpoint(path)
    assert header["precision"] == "float32"
    for name in params.names():
        assert loaded_params[name].data.dtype == np.float32
        assert np.array_equal(loaded_params[name].data, params[name].data)


def test_header_is_json_first_line(tmp_path):
    config, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, adam, {}, {"train": RngStream(0).state()}, step=0)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["format_version"] == 1
    names = [e["name"] for e in header["manifest"]]
    assert names == sorted(names)
    offsets = [e["offset"] for e in header["manifest"]]
    assert offsets[0] == 0
    assert all(b > a for a, b in zip(offsets, offsets[1:]))


def test_truncated_checkpoint_rejected(tmp_path):
    config, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, adam, {}, {"train": RngStream(0).state()}, step=0)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 100])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"\x00\x01 not json\n\x00\x00")
    with pytest.raises(DataError):
        load_checkpoint(path)


def rewrite(path, edit):
    """Let ``edit(header, blob)`` change a saved checkpoint; it returns the new blob."""
    head, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    blob = edit(header, blob)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)


@pytest.fixture
def saved(tmp_path):
    _, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, adam, {}, {"train": RngStream(0).state()}, step=0)
    return path, params


def test_checkpoint_without_digest_still_loads(saved):
    path, params = saved

    def older_format(header, blob):
        del header["sha256"]
        header["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
        return blob

    rewrite(path, older_format)
    loaded, adam, _ = load_checkpoint(path)
    assert adam.step == 1
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)


def test_digest_mismatch_rejected(saved):
    path, _ = saved
    rewrite(path, lambda header, blob: blob[:-1] + bytes([blob[-1] ^ 1]))
    with pytest.raises(DataError, match="SHA-256"):
        load_checkpoint(path)


def test_overlapping_offsets_rejected(saved):
    path, _ = saved

    def all_at_zero(header, blob):
        for entry in header["manifest"]:
            entry["offset"] = 0
        return blob

    rewrite(path, all_at_zero)
    with pytest.raises(DataError, match="offset"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(saved):
    path, _ = saved

    def append(header, blob):
        del header["sha256"]
        return blob + bytes(8)

    rewrite(path, append)
    with pytest.raises(DataError, match="8 bytes after"):
        load_checkpoint(path)


def test_missing_moment_entry_rejected(saved):
    path, _ = saved

    def drop_first_m(header, blob):
        del header["sha256"]
        manifest = header["manifest"]
        index = next(i for i, e in enumerate(manifest) if e["name"].startswith("adam.m."))
        start = manifest[index]["offset"]
        end = manifest[index + 1]["offset"]
        del manifest[index]
        for entry in manifest[index:]:
            entry["offset"] -= end - start
        return blob[:start] + blob[end:]

    rewrite(path, drop_first_m)
    with pytest.raises(DataError, match="different names"):
        load_checkpoint(path)
