import hashlib
import json
import os
import tempfile
import tracemalloc

import checkpoint_oracle
import numpy as np
import pytest
from checkpoint_signing import resign
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    grads = {name: np.full_like(arr, 0.25) for name, arr in params.items()}
    from layoutdiffusion.optim import adam_step
    params, adam = adam_step(params, grads, adam)
    return config, params, adam


def test_save_load_round_trip_is_bit_exact(tmp_path):
    config, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    rng_states = {"train": RngStream(5, counter=123).state()}
    losses = [0.5, 1 / 3, 2.0**-1074, 1e300, 0.1 + 0.2, 3.0, 7.25]
    save_checkpoint(path, params, adam, {"note": "t"}, rng_states, step=7, losses=losses)
    loaded_params, loaded_adam, header = load_checkpoint(path)

    assert sorted(loaded_params) == sorted(params)
    for name in params:
        a, b = params[name], loaded_params[name]
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert np.array_equal(adam.m[name], loaded_adam.m[name])
        assert np.array_equal(adam.v[name], loaded_adam.v[name])
    assert loaded_adam.step == adam.step
    assert loaded_adam.lr == adam.lr
    assert header["rng"]["train"] == rng_states["train"]
    assert header["train_step"] == 7
    assert header["losses"] == losses
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
    for name in params:
        assert np.array_equal(loaded[name], params[name])


def test_save_load_save_produces_identical_bytes(tmp_path):
    config, params, adam = make_state()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    rng_states = {"train": RngStream(1).state()}
    save_checkpoint(p1, params, adam, {"c": 1}, rng_states, step=1)
    loaded_params, loaded_adam, header = load_checkpoint(p1)
    save_checkpoint(p2, loaded_params, loaded_adam, header["config"],
                    header["rng"], header["train_step"])
    assert p1.read_bytes() == p2.read_bytes()


def test_header_line_is_the_sorted_json_of_the_header_a_load_reads(tmp_path):
    _, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    echo = {"b": {10: "ten", 9: [1.5, None, True]}, "a": "\u00e9", "c": (1, 2)}
    losses = [0.1 + 0.2, np.float64(1 / 3), 2, 1e-300]
    save_checkpoint(path, params, adam, echo, {"train": RngStream(2).state()}, step=4,
                    losses=losses)
    _, _, header = load_checkpoint(path)
    with open(path, "rb") as fh:
        line = fh.readline()
    assert line == json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    assert header["config"] == {"a": "\u00e9", "b": {"10": "ten", "9": [1.5, None, True]},
                                "c": [1, 2]}
    assert header["losses"] == [0.1 + 0.2, 1 / 3, 2, 1e-300]


def test_float32_round_trip(tmp_path):
    config, params, adam = make_state(dtype=np.float32)
    path = tmp_path / "f32.ckpt"
    save_checkpoint(path, params, adam, {}, {"train": RngStream(0).state()}, step=0)
    loaded_params, _, header = load_checkpoint(path)
    assert header["precision"] == "float32"
    for name in params:
        assert loaded_params[name].dtype == np.float32
        assert np.array_equal(loaded_params[name], params[name])


def test_header_is_json_first_line(tmp_path):
    config, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, adam, {}, {"train": RngStream(0).state()}, step=0)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["format_version"] == 3
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
    """Only version 1 files were ever written without a digest."""
    path, params = saved

    def version_1(header, blob):
        del header["sha256"], header["losses"]
        header["format_version"] = 1
        header["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
        return blob

    rewrite(path, version_1)
    loaded, adam, _ = load_checkpoint(path)
    assert adam.step == 1
    for name in params:
        assert np.array_equal(loaded[name], params[name])


@pytest.mark.parametrize("version", [2, 3])
def test_version_2_and_3_files_without_digest_rejected(saved, version):
    path, _ = saved

    def unsigned(header, blob):
        del header["sha256"]
        header["format_version"] = version
        return blob

    rewrite(path, unsigned)
    with pytest.raises(DataError, match="SHA-256 missing") as excinfo:
        load_checkpoint(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("version", [True, 1.0, 3.0, "3"])
def test_a_format_version_that_is_not_an_integer_is_rejected(saved, version):
    # Re-signed, so that only the version stands between the file and a load:
    # ``true`` and ``1.0`` compare equal to 1, and ``3.0`` to 3.
    path, _ = saved

    def relabel(header, blob):
        header["format_version"] = version
        resign(header, blob)
        return blob

    rewrite(path, relabel)
    with pytest.raises(DataError, match="unsupported version") as excinfo:
        load_checkpoint(path)
    assert str(path) in str(excinfo.value)


def test_digest_mismatch_rejected(saved):
    path, _ = saved
    rewrite(path, lambda header, blob: blob[:-1] + bytes([blob[-1] ^ 1]))
    with pytest.raises(DataError, match="SHA-256"):
        load_checkpoint(path)


def test_edited_header_fails_the_digest(tmp_path):
    _, params, adam = make_state()
    path = tmp_path / "model.ckpt"
    # Integer keys are written as strings; the digest covers the header as written.
    save_checkpoint(path, params, adam, {"counts": {2: 1, 10: 2}},
                    {"train": RngStream(0).state()}, step=3)
    assert load_checkpoint(path)[2]["config"] == {"counts": {"2": 1, "10": 2}}

    def retune(header, blob):
        header["optimizer"]["lr"] = 0.5
        header["train_step"] = 999
        return blob

    rewrite(path, retune)
    with pytest.raises(DataError, match="SHA-256"):
        load_checkpoint(path)


def test_version_1_digest_covers_the_binary_section_only(saved):
    path, params = saved
    # A version 2 digest relabelled as version 1 does not match the binary section.
    rewrite(path, set_entry(("format_version",), 1))
    with pytest.raises(DataError, match="SHA-256"):
        load_checkpoint(path)

    def version_1(header, blob):
        header["sha256"] = hashlib.sha256(blob).hexdigest()
        return blob

    rewrite(path, version_1)
    loaded, _, header = load_checkpoint(path)
    assert header["format_version"] == 1
    for name in params:
        assert np.array_equal(loaded[name], params[name])


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
        manifest = header["manifest"]
        index = next(i for i, e in enumerate(manifest) if e["name"].startswith("adam.m."))
        start = manifest[index]["offset"]
        end = manifest[index + 1]["offset"]
        del manifest[index]
        for entry in manifest[index:]:
            entry["offset"] -= end - start
        blob = blob[:start] + blob[end:]
        resign(header, blob)
        return blob

    rewrite(path, drop_first_m)
    with pytest.raises(DataError, match="different names"):
        load_checkpoint(path)


DROP = object()


def set_entry(keys, value=DROP):
    """An edit for ``rewrite`` that sets (or, with ``DROP``, deletes) one header entry."""
    def edit(header, blob):
        *parents, last = keys
        target = header
        for key in parents:
            target = target[key]
        if value is DROP:
            del target[last]
        else:
            target[last] = value
        return blob
    return edit


MALFORMED_HEADERS = [
    (("manifest",), DROP), (("manifest",), {}), (("manifest", 0), "params.x"),
    (("manifest", 0, "name"), DROP), (("manifest", 0, "name"), 7),
    (("manifest", 0, "shape"), DROP), (("manifest", 0, "shape"), 4),
    (("manifest", 0, "shape"), [2.5]), (("manifest", 0, "shape"), [-1, 4]),
    (("manifest", 0, "shape"), [True]), (("manifest", 0, "offset"), DROP),
    (("manifest", 0, "offset"), 0.0), (("manifest", 1, "offset"), -8),
    (("optimizer",), DROP), (("optimizer", "lr"), "0.001"),
    (("optimizer", "lr"), float("inf")), (("optimizer", "step"), -1),
    (("optimizer", "step"), 1.5), (("train_step",), DROP), (("train_step",), "0"),
    (("losses",), DROP), (("losses",), "x"), (("losses",), [True]),
    (("losses",), [float("nan")]),
]


@pytest.mark.parametrize("keys, value", MALFORMED_HEADERS,
                         ids=[f"{'.'.join(map(str, k))}={'drop' if v is DROP else v!r}"
                              for k, v in MALFORMED_HEADERS])
def test_malformed_header_entry_is_a_data_error_naming_the_file(saved, keys, value):
    path, _ = saved
    rewrite(path, set_entry(keys, value))
    with pytest.raises(DataError, match=str(keys[-1]) if isinstance(keys[-1], str)
                       else "manifest entry") as excinfo:
        load_checkpoint(path)
    assert str(path) in str(excinfo.value)


def test_header_that_is_not_an_object_is_a_data_error(saved):
    path, _ = saved
    blob = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(b"[1, 2]\n" + blob)
    with pytest.raises(DataError, match="not a JSON object"):
        load_checkpoint(path)


# -- the streamed writer and reader ---------------------------------------------------------


def test_loaded_arrays_own_writable_aligned_memory(saved):
    """So a caller that drops Adam's moments frees them, and nothing pins a whole file."""
    path, _ = saved
    params, adam, _ = load_checkpoint(path)
    for arr in [*params.values(), *adam.m.values(), *adam.v.values()]:
        assert arr.base is None and arr.flags.owndata
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous


def test_a_short_read_is_a_data_error(saved, monkeypatch):
    """The file loses its last bytes after a load has taken its size."""
    path, _ = saved
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat

    def stale_fstat(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 8, *st[7:10]))

    monkeypatch.setattr(checkpoint.os, "fstat", stale_fstat)
    with pytest.raises(DataError, match=r"truncated at params\."):
        load_checkpoint(path)


def test_a_manifest_claiming_more_than_the_file_holds_raises_before_allocating(saved):
    path, _ = saved
    rewrite(path, set_entry(("manifest", -1, "shape"), [64, 1024, 1024]))  # 512 MiB
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=r"truncated at params\."):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def run_states(draw):
    """Arguments of ``save_checkpoint``: the first parameter fixes the precision; every
    other array may have the other precision or big-endian bytes, and any array may be
    zero-size, 0-d, Fortran-ordered or a strided view."""
    precision = draw(st.sampled_from(["float64", "float32"]))

    def array(dtype):
        dtype = np.dtype(dtype)
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        # float32 values, so that a cast to either precision stays exact
        arr = draw(hnp.arrays(dtype, shape, elements=st.floats(width=32)))
        layout = draw(st.sampled_from(["C", "F", "strided"]))
        if layout == "F":
            arr = np.asfortranarray(arr)
        elif layout == "strided" and arr.ndim:
            arr = np.repeat(arr, 2, axis=0)[::2]
        return arr

    def any_array():
        dtype = np.dtype(draw(st.sampled_from(["float64", "float32"])))
        arr = array(dtype)
        return arr.astype(dtype.newbyteorder(">")) if draw(st.booleans()) else arr

    names = draw(st.lists(st.sampled_from(["a", "b.w", "c"]), min_size=1, max_size=3,
                          unique=True))
    params = {name: array(precision) if i == 0 else any_array()
              for i, name in enumerate(names)}
    adam = AdamState(lr=draw(st.floats(1e-8, 1.0)), step=draw(st.integers(0, 2**40)),
                     m={name: any_array() for name in names},
                     v={name: any_array() for name in names})
    echo = {"note": draw(st.text(max_size=4)), 7: [draw(st.integers())]}
    losses = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    return params, adam, echo, {"train": RngStream(1).state()}, draw(
        st.integers(0, 2**63 - 1)), losses


@settings(max_examples=60, deadline=None)
@given(state=run_states())
def test_save_writes_the_bytes_of_the_tobytes_writer(state):
    params, adam, echo, rng_states, step, losses = state
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = os.path.join(tmp, "ours.ckpt"), os.path.join(tmp, "oracle.ckpt")
        save_checkpoint(ours, params, adam, echo, rng_states, step, losses=losses)
        checkpoint_oracle.save_checkpoint(oracle, params, adam, echo, rng_states, step,
                                          losses=losses)
        with open(ours, "rb") as a, open(oracle, "rb") as b:
            assert a.read() == b.read()
        loaded, loaded_adam, _ = load_checkpoint(ours)
    wire = checkpoint_oracle.WIRE[str(next(iter(params.values())).dtype)]
    for name in params:
        for saved, back in ((params[name], loaded[name]), (adam.m[name], loaded_adam.m[name]),
                            (adam.v[name], loaded_adam.v[name])):
            assert back.tobytes() == np.ascontiguousarray(saved, dtype=wire).tobytes()
