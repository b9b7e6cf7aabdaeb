"""Wall time, CPU time, peak memory and page faults of the desk pipeline, phase by phase,
for alternating parent and change runs.

Usage, from the root of a checkout:

    mkdir ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 tools/desk_time.py --parent ../parent --change . --pairs 3 --out BENCH_<n>.json

A run is the desk experiment of ``tests/test_acceptance.py`` (its ``desk_run``
fixture): ``synth``, ``train`` for 4000 steps, ``sample`` of 64 layouts over 1000
reverse steps, and ``eval``, with the fixture's arguments (``PHASES``), each phase in
its own process of ``python -m layoutdiffusion.cli`` with
``PYTHONPATH=<checkout>/src``, in a fresh temporary directory, and BLAS on one
thread as in perfbench.  Per phase it records the wall time, the user plus system
CPU time, ``ru_maxrss`` and ``ru_minflt``, read by ``os.wait4``, so that the
children that ``sample`` forks and reaps are counted too.  After the run it records
the three quantities that the desk test pins, with the floors it pins them to: the
loss ratio, the rule fraction and the alignment ratio, computed as the test computes
them, by the checkout's own package.

Pair ``i`` runs the parent first in even pairs and the change first in odd ones.  The
runs and each side's quartiles per phase and quantity go under ``desk`` in
``--out``; an existing file keeps its other keys.  These are facts: no gate reads
them.  A pair takes about three minutes on a 2-core x86_64 host.  Uses numpy and the
standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import git_commit, quartiles, tree_digest  # noqa: E402

# The argument lists of the desk_run fixture, in its order; a test keeps them in step.
PHASES = {
    "synth": ["synth", "--rule", "grid_by_label", "--layouts", "512", "--classes", "4",
              "--min-elements", "2", "--max-elements", "6", "--seed", "7",
              "-o", "data.json"],
    "train": ["train", "--dataset", "data.json", "--checkpoint", "model.ckpt",
              "--d-model", "64", "--num-layers", "3", "--num-heads", "4",
              "--ffn-dim", "128", "--learning-rate", "2e-3", "--batch-size", "64",
              "--max-steps", "4000", "--init-seed", "0", "--train-seed", "1"],
    "sample": ["sample", "--checkpoint", "model.ckpt", "--conditions", "cond64.json",
               "--seed", "99", "-o", "samples.json"],
    "eval": ["eval", "--generated", "samples.json", "--reference", "data.json",
             "-o", "report.json"],
}
MEASURES = ("wall_s", "cpu_s", "maxrss_mb", "minflt")
# What the desk test asserts of each quantity: the loss ratio and the alignment ratio
# at most their floor, the rule fraction at least its floor.
FLOORS = {"loss_ratio": 0.10, "rule_fraction": 0.99, "alignment_ratio": 1.0}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Run in the work directory by the checkout's package; prints the quantities as JSON.
QUALITY = """
import json, sys
import numpy as np
import layoutdiffusion as ld

with open("model.ckpt.loss.csv") as fh:
    losses = np.array([float(row.split(",")[1]) for row in fh.read().split()[1:]])
samples = ld.load_dataset("samples.json", strict_geometry=False)
errors = np.array([np.abs(element.geometry - ld.grid_rule_box(element.label, 4)).max()
                   for layout in samples.layouts for element in layout.elements])
with open("report.json") as fh:
    alignment = json.load(fh)["metrics"]["alignment"]["kikuchi"]
json.dump({"loss_ratio": losses[-100:].mean() / losses[:100].mean(),
           "rule_fraction": float((errors <= 0.1).mean()),
           "alignment_ratio": alignment["generated"]["value"]
           / alignment["reference"]["value"]}, sys.stdout)
"""


def write_conditions(work):
    """The fixture's ``cond64.json``: ``data.json`` cut to its first 64 layouts."""
    with open(os.path.join(work, "data.json")) as fh:
        doc = json.load(fh)
    conditions = {k: v for k, v in doc.items() if k != "meta"}
    conditions["layouts"] = conditions["layouts"][:64]
    with open(os.path.join(work, "cond64.json"), "w") as fh:
        json.dump(conditions, fh)


def run_phase(args, work, env) -> dict:
    """One CLI command in its own process; its wall time and ``wait4`` usage."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "layoutdiffusion.cli", *args], cwd=work,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stderr.close()
    if proc.returncode != 0:
        raise SystemExit(f"error: {args[0]} exited with code {proc.returncode} in {work}\n"
                         f"{stderr.decode(errors='replace')[-2000:]}")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt}


def run_desk(checkout) -> dict:
    """The four phases and the three pinned quantities of one desk run."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"),
           **{var: "1" for var in THREAD_VARS}}
    with tempfile.TemporaryDirectory(prefix="desk-") as work:
        phases = {}
        for phase, args in PHASES.items():
            if phase == "sample":
                write_conditions(work)
            phases[phase] = run_phase(args, work, env)
        proc = subprocess.run([sys.executable, "-c", QUALITY], cwd=work, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: the quality check failed in {work}\n{proc.stderr}")
    return {"phases": phases, "quality": json.loads(proc.stdout)}


def summarize(runs) -> dict:
    """Each side's quartiles of every measure of every phase, and of each quantity."""
    def per_side(value):
        return {side: quartiles([value(run) for run in runs if run["side"] == side])
                for side in ("parent", "change")}

    return {"phases": {phase: {measure: per_side(lambda run: run["phases"][phase][measure])
                               for measure in MEASURES}
                       for phase in PHASES},
            "quality": {name: {**per_side(lambda run: run["quality"][name]), "floor": floor}
                        for name, floor in FLOORS.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_desk(checkouts[side])
            runs.append({"pair": pair, "side": side, "first": order[0], **run})
            phases = "  ".join(f"{phase} {m['wall_s']:.2f} s {m['maxrss_mb']:.1f} MB "
                               f"{m['minflt']} flt" for phase, m in run["phases"].items())
            print(f"pair {pair} {side:6s} {phases}  {run['quality']}", flush=True)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["desk"] = {
        "command": f"tools/desk_time.py --pairs {args.pairs}: the desk_run fixture's "
                   f"commands, one process each, BLAS on 1 thread",
        "parent_commit": git_commit(checkouts["parent"]),
        "change_commit": git_commit(checkouts["change"]),
        "parent_tree": tree_digest(checkouts["parent"]),
        "change_tree": tree_digest(checkouts["change"]),
        "cpu_count": os.cpu_count(),
        "summary": summarize(runs), "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    summary = doc["desk"]["summary"]
    for phase, measures in summary["phases"].items():
        print(f"  {phase:6s} " + "  ".join(
            f"{measure} {s['parent']['median']:.6g} -> {s['change']['median']:.6g}"
            for measure, s in measures.items()))
    for name, s in summary["quality"].items():
        print(f"  {name:15s} {s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
              f"(floor {s['floor']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
