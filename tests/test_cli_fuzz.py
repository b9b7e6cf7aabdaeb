"""Property tests: a malformed input file makes the CLI exit cleanly, never crash.

Each example edits one input of a tiny trained run (the checkpoint header or
binary section, the dataset JSON, or the loss CSV next to a format 2
checkpoint, the one kind of checkpoint that a resume still reads a log for)
and drives ``cli.main`` in-process.  ``main`` must return 0, 3 or 4 and raise
nothing, and when it returns 3 no output file may be created or changed.  The
edits follow MacIver et al., "Hypothesis" (JOSS 2019): drop an entry, or
replace it with a value of another type, NaN, a number too large for float64,
or -1.
"""
import contextlib
import csv
import io
import json
import os
import tempfile

import pytest
from checkpoint_signing import resign
from hypothesis import given, settings, strategies as st

from layoutdiffusion.cli import main

DROP = object()
EDITS = [DROP, "x", [], [1], {}, True, None, float("nan"), 10**400, -1]


def fuzz(examples):
    return settings(derandomize=True, deadline=None, database=None, max_examples=examples)


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """The bytes of a 2-step run: dataset, checkpoint and loss log, and the dataset again
    as ``ref.json``, the reference that ``eval`` compares an edited dataset with."""
    root = tmp_path_factory.mktemp("run")
    data, ckpt = root / "data.json", root / "model.ckpt"
    assert quiet_main(["synth", "--layouts", "6", "--classes", "3", "--min-elements", "2",
                       "--max-elements", "3", "--seed", "1", "-o", str(data)]) == 0
    assert quiet_main(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                       "--d-model", "8", "--num-layers", "1", "--num-heads", "2",
                       "--ffn-dim", "8", "--timesteps", "5", "--batch-size", "2",
                       "--max-steps", "2"]) == 0
    files = {name: (root / name).read_bytes()
             for name in ("data.json", "model.ckpt", "model.ckpt.loss.csv")}
    return {**files, "ref.json": files["data.json"]}


def commands(root):
    """``(argv, outputs)`` of each command, reading the (edited) files under ``root``."""
    path = {name: os.path.join(root, name)
            for name in ("data.json", "ref.json", "model.ckpt", "model.ckpt.loss.csv",
                         "s.json", "c.json", "r.json")}
    ckpt = path["model.ckpt"]
    return [
        (["sample", "--checkpoint", ckpt, "--labels", "0,1,2", "--seed", "1",
          "-o", path["s.json"]], [path["s.json"]]),
        (["sample", "--checkpoint", ckpt, "--conditions", path["data.json"], "--seed", "1",
          "-o", path["c.json"]], [path["c.json"]]),
        (["train", "--dataset", path["data.json"], "--checkpoint", ckpt, "--resume", ckpt,
          "--max-steps", "3"], [ckpt, path["model.ckpt.loss.csv"]]),
        (["eval", "--generated", path["data.json"], "--reference", path["ref.json"],
          "-o", path["r.json"]], [path["r.json"]]),
    ]


def read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def check_commands(files, which):
    """Write ``files`` to a fresh directory and run the commands named in ``which``."""
    with tempfile.TemporaryDirectory() as root:
        for name, blob in files.items():
            with open(os.path.join(root, name), "wb") as fh:
                fh.write(blob)
        for argv, outputs in commands(root):
            if argv[0] not in which:
                continue
            before = [read(path) for path in outputs]
            code = quiet_main(argv)
            assert code in (0, 3, 4), argv
            if code == 3:
                assert [read(path) for path in outputs] == before, argv


def entry_paths(node, path=()):
    """The path of every entry below ``node``, itself excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from entry_paths(child, path + (key,))


@st.composite
def edited(draw, doc):
    """``doc`` with one entry dropped or replaced, drawn evenly over its top-level keys."""
    groups = {}
    for path in entry_paths(doc):
        groups.setdefault(path[0], []).append(path)
    path = draw(st.sampled_from(groups[draw(st.sampled_from(sorted(groups, key=str)))]))
    value = draw(st.sampled_from(EDITS))
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc, path, value


def split_checkpoint(blob):
    head, body = blob.split(b"\n", 1)
    return json.loads(head), body


def join_checkpoint(header, body):
    return json.dumps(header, sort_keys=True).encode() + b"\n" + body


@fuzz(200)
@given(data=st.data())
def test_an_edited_checkpoint_header_exits_cleanly(run_files, data):
    header, body = split_checkpoint(run_files["model.ckpt"])
    header, path, _ = data.draw(edited(header))
    if path != ("sha256",):
        resign(header, body)  # so the edit reaches the checks behind the digest
    check_commands({**run_files, "model.ckpt": join_checkpoint(header, body)},
                   ("sample", "train"))


@fuzz(30)
@given(data=st.data())
def test_a_cut_or_reordered_checkpoint_exits_cleanly(run_files, data):
    header, body = split_checkpoint(run_files["model.ckpt"])
    how = data.draw(st.sampled_from(["truncate", "entries", "names"]))
    if how == "truncate":
        body = body[:data.draw(st.integers(0, len(body) - 1))]
    else:
        manifest = header.pop("manifest")
        order = data.draw(st.permutations(range(len(manifest))))
        if how == "entries":
            header["manifest"] = [manifest[i] for i in order]
        else:  # the arrays keep their places and swap names
            header["manifest"] = [{**entry, "name": manifest[i]["name"]}
                                  for entry, i in zip(manifest, order)]
        resign(header, body)
    check_commands({**run_files, "model.ckpt": join_checkpoint(header, body)},
                   ("sample", "train"))


@fuzz(50)
@given(data=st.data())
def test_an_edited_dataset_exits_cleanly(run_files, data):
    doc, _, _ = data.draw(edited(json.loads(run_files["data.json"])))
    check_commands({**run_files, "data.json": json.dumps(doc).encode()},
                   ("sample", "train", "eval"))


def format_2(blob):
    """A checkpoint as format 2 wrote it: no loss history, so a resume reads the log."""
    header, body = split_checkpoint(blob)
    del header["losses"]
    header["format_version"] = 2
    resign(header, body)
    return join_checkpoint(header, body)


@fuzz(30)
@given(data=st.data())
def test_an_edited_loss_log_exits_cleanly(run_files, data):
    rows = list(csv.reader(io.StringIO(run_files["model.ckpt.loss.csv"].decode())))
    rows, _, _ = data.draw(edited(rows))
    text = io.StringIO()
    csv.writer(text).writerows(row if isinstance(row, list) else [row] for row in rows)
    check_commands({**run_files, "model.ckpt": format_2(run_files["model.ckpt"]),
                    "model.ckpt.loss.csv": text.getvalue().encode()}, ("train",))
