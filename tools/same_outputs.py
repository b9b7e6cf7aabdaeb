"""Seeded outputs of two checkouts, compared byte for byte.

Usage, from the root of a checkout:

    mkdir ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 tools/same_outputs.py --parent ../parent --change . [--expect-changed NAME ...]

Each checkout runs one fixed matrix of commands (``MATRIX``) in a fresh empty
directory, in one subprocess with ``PYTHONPATH=<checkout>/src``: seeded
``synth`` of both rules (one of them with a fixed element count, which draws no
count), float64 categorical and continuous ``train`` with
``--checkpoint-every`` and a resumed run next to a straight one, a float32 run,
``sample --labels`` and ``--conditions``, with one batch of a single row (which
samples in one process) next to batches of three rows and more (which the sampler
splits into forked shards where there are several usable CPUs, step 10's three rows
unevenly) and a batch of two rows of 36 labels, the most that a layout holds, four
``eval`` variants (one of them on layouts of up to 36 elements, whose label runs
above six take Max IoU's Hungarian path), ``render``, the estimator's losses,
``score`` and raw and clamped layouts as JSON (fitted on a loaded dataset, and on its
layouts as a plain list, whose head the estimator works out), a resume with
``--max-steps`` below the checkpoint's step (which trains nothing and saves once),
``eval --frechet files`` on two feature files that a Python step writes, with its report
on stdout (no ``-o``), and ``render`` of a continuous layout.
Each step's exit code, stdout and stderr go into ``<step>.log``.  Every file
name starts with the number of the step that writes it, so the sorted walk of
the two directories follows the matrix.

Prints ``byte-identical (N files)`` and exits 0, or names the first file that
differs, with the offset of its first differing byte, or is missing from one
side, and exits 1.  ``--expect-changed NAME`` exempts the file at that path
relative to the run directory.  A step that fails in either checkout ends that
run, and the tool prints the step's log and exits 2: the sizes are chosen so
that every step succeeds.  The matrix runs in a few seconds per checkout.
Uses numpy and the standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

NET = ["--d-model", "16", "--num-layers", "2", "--num-heads", "2", "--ffn-dim", "32",
       "--timesteps", "20", "--learning-rate", "1e-3", "--batch-size", "8",
       "--init-seed", "0", "--train-seed", "1"]

# A continuous dataset: the grid file with each label replaced by three features.
FEATURES = """
import json
with open("01-grid.json") as fh:
    doc = json.load(fh)
doc["feature_dim"] = 3
del doc["labels"]
for layout in doc["layouts"]:
    for element in layout["elements"]:
        k = element.pop("label")
        element["feature"] = [0.25 * k, 1.0 - 0.125 * k, 0.5]
with open("03-features.json", "w") as fh:
    json.dump(doc, fh, indent=1, sort_keys=True)
"""

ESTIMATOR = """
import json
import layoutdiffusion as ld

def run(path, out, as_list=False, **params):
    data = ld.load_dataset(path)
    fit_on = list(data.layouts) if as_list else data
    model = ld.LayoutDiffusion(d_model=16, num_layers=2, num_heads=2, ffn_dim=32,
                               timesteps=20, learning_rate=1e-3, batch_size=8, max_steps=10,
                               init_seed=0, train_seed=1, **params).fit(fit_on)
    conditions = [l.labels if l.labels is not None else l.features for l in data.layouts[:6]]
    doc = {"losses": [repr(loss) for loss in model.loss_history_],
           "score": repr(model.score(fit_on))}
    for key, raw in (("raw", True), ("clamped", False)):
        layouts = model.sample(conditions, seed=9, return_raw=raw)
        doc[key] = [layout.geometry.tolist() for layout in layouts]
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)

run("01-grid.json", "19-estimator.json")
run("01-grid.json", "19-estimator-float32.json", precision="float32")
run("03-features.json", "19-estimator-continuous.json")
run("01-grid.json", "19-estimator-layouts.json", as_list=True)
run("03-features.json", "19-estimator-layouts-continuous.json", as_list=True)
"""

# Two feature matrices for ``eval --frechet files``, of more rows than columns.
FEATURE_FILES = """
import json
for name, shift in (("generated", 0.0), ("reference", 0.5)):
    rows = [[i % 5 / 4 + shift, i * 3 % 4 / 3, i * i % 3 / 2] for i in range(8)]
    with open(f"25-{name}-features.json", "w") as fh:
        json.dump({"features": rows, "provenance": name}, fh)
"""

# (step, "cli" or "python", argv or code).  Paths are relative to the run directory.
MATRIX = [
    ("01-synth-grid", "cli", ["synth", "--rule", "grid_by_label", "--layouts", "64",
                              "--classes", "5", "--seed", "3", "-o", "01-grid.json"]),
    ("02-synth-boxes", "cli", ["synth", "--rule", "random_boxes", "--layouts", "64",
                               "--classes", "5", "--min-elements", "1", "--max-elements", "36",
                               "--seed", str(2**64 - 1), "-o", "02-boxes.json"]),
    ("03-features", "python", FEATURES),
    ("04-train", "cli", ["train", "--dataset", "01-grid.json", "--checkpoint", "04-cat.ckpt",
                         *NET, "--max-steps", "12", "--checkpoint-every", "5"]),
    ("05-train-straight", "cli", ["train", "--dataset", "01-grid.json", "--checkpoint",
                                  "05-straight.ckpt", *NET, "--max-steps", "24",
                                  "--checkpoint-every", "5"]),
    ("06-train-resumed", "cli", ["train", "--dataset", "01-grid.json", "--checkpoint",
                                 "06-resumed.ckpt", "--resume", "04-cat.ckpt",
                                 "--max-steps", "24"]),
    ("07-train-continuous", "cli", ["train", "--dataset", "03-features.json", "--checkpoint",
                                    "07-cont.ckpt", *NET, "--max-steps", "12",
                                    "--checkpoint-every", "4"]),
    ("08-train-continuous-resumed", "cli", ["train", "--dataset", "03-features.json",
                                            "--checkpoint", "08-cont-resumed.ckpt",
                                            "--resume", "07-cont.ckpt", "--max-steps", "20"]),
    ("09-train-float32", "cli", ["train", "--dataset", "01-grid.json", "--checkpoint",
                                 "09-f32.ckpt", *NET, "--max-steps", "8", "--precision",
                                 "float32", "--activation", "relu", "--positional-encoding"]),
    ("10-sample-labels", "cli", ["sample", "--checkpoint", "06-resumed.ckpt", "--labels",
                                 "0,1,2,4", "--num-samples", "3", "--seed", "5",
                                 "-o", "10-labels.json"]),
    ("11-sample-conditions", "cli", ["sample", "--checkpoint", "06-resumed.ckpt",
                                     "--conditions", "01-grid.json", "--seed", "6",
                                     "-o", "11-conditions.json"]),
    ("12-sample-continuous", "cli", ["sample", "--checkpoint", "08-cont-resumed.ckpt",
                                     "--conditions", "03-features.json", "--seed", "7",
                                     "-o", "12-continuous.json"]),
    ("13-sample-float32", "cli", ["sample", "--checkpoint", "09-f32.ckpt", "--conditions",
                                  "02-boxes.json", "--seed", "8", "-o", "13-float32.json"]),
    ("14-eval", "cli", ["eval", "--generated", "11-conditions.json", "--reference",
                        "01-grid.json", "-o", "14-eval.json"]),
    ("15-eval-trivial", "cli", ["eval", "--generated", "11-conditions.json", "--reference",
                                "01-grid.json", "--frechet", "trivial",
                                "--alignment-include-y", "-o", "15-eval-trivial.json"]),
    ("16-eval-continuous", "cli", ["eval", "--generated", "12-continuous.json", "--reference",
                                   "03-features.json", "-o", "16-eval-continuous.json"]),
    ("17-render", "cli", ["render", "--input", "11-conditions.json", "-o", "17-svg"]),
    ("18-render-index", "cli", ["render", "--input", "02-boxes.json", "--index", "3",
                                "-o", "18-one.svg"]),
    ("19-estimator", "python", ESTIMATOR),
    ("20-train-resumed-below", "cli", ["train", "--dataset", "01-grid.json", "--checkpoint",
                                       "20-below.ckpt", "--resume", "04-cat.ckpt",
                                       "--max-steps", "6"]),
    ("21-eval-boxes", "cli", ["eval", "--generated", "13-float32.json", "--reference",
                              "02-boxes.json", "-o", "21-eval-boxes.json"]),
    ("22-sample-one", "cli", ["sample", "--checkpoint", "06-resumed.ckpt", "--labels", "3,1",
                              "--num-samples", "1", "--seed", "4", "-o", "22-one.json"]),
    ("23-synth-fixed", "cli", ["synth", "--rule", "random_boxes", "--layouts", "40",
                               "--classes", "3", "--min-elements", "4", "--max-elements", "4",
                               "--seed", "9", "-o", "23-fixed.json"]),
    ("24-sample-limit", "cli", ["sample", "--checkpoint", "06-resumed.ckpt", "--labels",
                                ",".join(str(k % 5) for k in range(36)), "--num-samples", "2",
                                "--seed", "10", "-o", "24-limit.json"]),
    ("25-feature-files", "python", FEATURE_FILES),
    ("26-eval-files-stdout", "cli", ["eval", "--generated", "11-conditions.json", "--reference",
                                     "01-grid.json", "--frechet", "files",
                                     "--features-generated", "25-generated-features.json",
                                     "--features-reference", "25-reference-features.json"]),
    ("27-render-continuous", "cli", ["render", "--input", "03-features.json", "--index", "2",
                                     "-o", "27-features.svg"]),
]

# Runs in the checkout's interpreter.  ``run_steps`` runs the steps in order up to the first
# that fails, each one's log written next to its outputs, and prints one "<step> <exit code>"
# line per step on stdout.  It imports the package when it is called, so that a tracer set
# before the call (tools/lines_reached.py) sees the import too.
STEPS = """
import contextlib, io, json, sys

def run_steps(matrix):
    from layoutdiffusion.cli import main
    for step, kind, payload in matrix:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(payload) if kind == "cli" else exec(payload, {}) or 0
            except SystemExit as exc:
                code = exc.code
        with open(step + ".log", "w") as fh:
            fh.write(f"exit {code}\\n--- stdout\\n{out.getvalue()}--- stderr\\n{err.getvalue()}")
        print(step, code)
        if code != 0:
            return
"""
DRIVER = STEPS + "run_steps(json.load(sys.stdin))\n"


class MatrixError(Exception):
    """A step of the matrix failed, so the comparison would check nothing."""


def run_matrix(checkout, workdir, matrix=MATRIX, driver=DRIVER, argv=()):
    """Run ``matrix`` with ``checkout``'s package in the empty directory ``workdir``: the
    code ``driver`` reads it as JSON on stdin and takes ``argv`` as its arguments."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src")}
    proc = subprocess.run([sys.executable, "-c", driver, *argv], input=json.dumps(matrix),
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise MatrixError(f"the matrix stopped in {checkout}:\n{proc.stderr[-2000:]}")
    step, code = proc.stdout.splitlines()[-1].split()
    if code != "0":
        with open(os.path.join(workdir, step + ".log")) as fh:
            raise MatrixError(f"step {step} failed in {checkout}:\n{fh.read()}")


def walk(root) -> dict:
    """Relative path (with ``/``) -> path of every file under ``root``."""
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            files[os.path.relpath(path, root).replace(os.sep, "/")] = path
    return files


def compare(parent_dir, change_dir, expect_changed=()) -> tuple:
    """``(files compared, None)``, or ``(files compared, message)`` for the first file in
    sorted order that differs or is on one side only; names in ``expect_changed`` are
    skipped."""
    parent, change = walk(parent_dir), walk(change_dir)
    names = sorted((parent.keys() | change.keys()) - set(expect_changed))
    for name in names:
        if name not in change or name not in parent:
            side = "change" if name not in change else "parent"
            return len(names), f"{name}: missing in the {side} run"
        with open(parent[name], "rb") as fh:
            a = fh.read()
        with open(change[name], "rb") as fh:
            b = fh.read()
        if a != b:
            offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                          min(len(a), len(b)))
            return len(names), (f"{name}: differs at byte {offset} (parent "
                                f"{a[offset:offset + 24]!r}, change {b[offset:offset + 24]!r})")
    return len(names), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--expect-changed", nargs="+", default=[], metavar="NAME",
                        help="output paths, relative to the run directory, allowed to differ")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {}
        for side in ("parent", "change"):
            dirs[side] = os.path.join(tmp, side)
            os.mkdir(dirs[side])
            try:
                run_matrix(getattr(args, side), dirs[side])
            except MatrixError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        count, difference = compare(dirs["parent"], dirs["change"], args.expect_changed)
    if difference is not None:
        print(difference)
        return 1
    print(f"byte-identical ({count} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
