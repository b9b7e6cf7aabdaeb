"""Alternating parent/change runs of perfbench, summarized into one BENCH file.

Usage, from the root of a checkout:

    mkdir ../parent && git archive <parent-commit> | tar -x -C ../parent
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload train --pairs 10 --seed 5000 --seconds 40 --out BENCH_<n>.json

Pair ``i`` runs ``perfbench/run.py --workload W --seed <seed + i>`` once in
each checkout, the parent first in even pairs and the change first in odd
ones, so that a drift of the host's speed does not favour one side.  Each
run's end-to-end metrics and checks go into ``--out`` with, per metric, each
side's median and quartiles and the change's win count, and each checkout's
``src/`` digest (``parent_tree``, ``change_tree``).  The two parts of each
run's ``setup_s`` go in too, as ungated facts: ``import_s``, one sample per
process, and ``setup_run_s``, the median of the run's timed setups, both
read from the run's result file under ``.bench_build/perfbench``; each
side's quartiles of them go under ``setup_parts``, so that a ``setup_s``
claim shows which part moved.  An existing
``--out`` keeps its other workloads, so one file can hold every workload of
a change.

A gain counts only over at least ten pairs, when the change wins at least
nine pairs in ten (ties count for neither side), the medians differ by more
than the parent's interquartile range, and the change's runs fail no larger
share of their operations than the parent's.  A metric is "within bound"
when the change's median is no worse than the parent's by more than the
bound in ``BENCHMARK.json``, and "unresolved" when the parent's
interquartile range exceeds that bound and not every change run reads
better than every parent run.  Uses numpy and the standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

WIN_SHARE = 0.9
MIN_PAIRS = 10  # fewer pairs can show no regression, but never a gain


def git_commit(path):
    """Short commit id, ``-dirty`` when the tree has changes; None outside git."""
    proc = subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_digest(checkout) -> str:
    """SHA-256 over the sorted relative paths and bytes of the files under
    ``checkout/src``, skipping ``__pycache__``; names the code a run measured
    even where the checkout is not a git repository."""
    root = os.path.join(checkout, "src")
    paths = []
    for folder, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        rel = os.path.relpath(folder, root)
        paths += [os.path.normpath(os.path.join(rel, name)).replace(os.sep, "/") for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(os.path.join(root, path), "rb") as fh:
            data = fh.read()
        digest.update(f"{path}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def setup_parts(checkout, workload, seed) -> dict:
    """The two parts of ``setup_s`` in the result file of an untraced run."""
    path = os.path.join(checkout, ".bench_build", "perfbench",
                        f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        detail = json.load(fh)
    return {"import_s": detail["import_s"],
            "setup_run_s": float(np.median(detail["setup_runs_s"]))}


def run_once(checkout, workload, seed, seconds) -> dict:
    """One untraced perfbench run; its result line, plus the machine facts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with code "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
            "setup_parts": setup_parts(checkout, workload, seed), "machine": machine}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def failed_share(runs, side) -> float:
    """Failed operations over attempted ones, across one side's runs."""
    attempted = sum(run["attempted"] for run in runs if run["side"] == side)
    return sum(run["failed"] for run in runs if run["side"] == side) / max(attempted, 1)


def summarize(runs, declared) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the three rules."""
    pairs = sorted({run["pair"] for run in runs})
    side = {(run["pair"], run["side"]): run["metrics"] for run in runs}
    fails_no_more = failed_share(runs, "change") <= failed_share(runs, "parent")
    out = {}
    for name, spec in declared.items():
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = [side[(p, "parent")][name] for p in pairs]
        change = [side[(p, "change")][name] for p in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        a, b = quartiles(parent), quartiles(change)
        gain = sign * (b["median"] - a["median"])
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "parent": a, "change": b,
            "gain_pct": 100.0 * gain / abs(a["median"]) if a["median"] else None,
            "wins": int(wins), "pairs": len(pairs),
            "gain_holds": bool(len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                               and gain > a["q3"] - a["q1"] and fails_no_more),
            "within_bound": bool(gain >= -spec["bound"] * abs(a["median"])),
            "unresolved": bool(a["q3"] - a["q1"] > spec["bound"] * abs(a["median"])
                               and min(sign * c for c in change) <= max(sign * p for p in parent)),
        }
    return out


def summarize_setup_parts(runs) -> dict:
    """Per part of ``setup_s``: each side's quartiles over its runs; no rule applies."""
    return {part: {side: quartiles([run["setup_parts"][part] for run in runs
                                    if run["side"] == side])
                   for side in ("parent", "change")}
            for part in ("import_s", "setup_run_s")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("train", "sample", "eval"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs, machine = [], None
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            facts = run.pop("machine")
            machine = machine or facts
            runs.append({"pair": pair, "seed": seed, "side": side, "first": order[0], **run})
            metrics = "  ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items())
            print(f"pair {pair} seed {seed} {side:6s} correct {run['correct']} "
                  f"failed {run['failed']}/{run['attempted']}  {metrics}", flush=True)

    summary = summarize(runs, declared)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("workloads", {})[args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g}"
                   f" --trace 0, seeds {args.seed}-{args.seed + args.pairs - 1}",
        "parent_commit": git_commit(checkouts["parent"]),
        "change_commit": git_commit(checkouts["change"]),
        "parent_tree": tree_digest(checkouts["parent"]),
        "change_tree": tree_digest(checkouts["change"]),
        "machine": machine,
        "all_correct": all(run["correct"] and run["failed"] == 0 for run in runs),
        "summary": summary, "setup_parts": summarize_setup_parts(runs), "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"\n{args.workload}: {args.pairs} pairs, all correct: "
          f"{doc['workloads'][args.workload]['all_correct']}")
    for name, s in summary.items():
        a, b = s["parent"], s["change"]
        print(f"  {name:18s} parent {a['median']:.6g} [{a['q1']:.6g}-{a['q3']:.6g}]  "
              f"change {b['median']:.6g} [{b['q1']:.6g}-{b['q3']:.6g}]  "
              f"wins {s['wins']}/{s['pairs']}  gain holds: {s['gain_holds']}  "
              f"within bound: {s['within_bound']}  unresolved: {s['unresolved']}")
    for part, sides in doc["workloads"][args.workload]["setup_parts"].items():
        a, b = sides["parent"], sides["change"]
        print(f"  {part:18s} parent {a['median']:.6g} [{a['q1']:.6g}-{a['q3']:.6g}]  "
              f"change {b['median']:.6g} [{b['q1']:.6g}-{b['q3']:.6g}]  (ungated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
