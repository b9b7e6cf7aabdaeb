"""Benchmark of the layoutdiffusion package: train, sample and eval workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, in which operations alternate between untraced and
traced so that the tracing overhead is measured in the same run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run files, traces and results go
under ``.bench_build/perfbench`` in the checkout.
"""
import os
import sys
import time

PROCESS_START = time.perf_counter()

# Pinned before numpy is imported; one thread keeps the figures steady on a
# shared machine and measured no slower than two for these sizes.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 5
MIN_UNITS = 2
WORKLOAD_NAMES = ("train", "sample", "eval")


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "layoutdiffusion", "__init__.py")):
        raise SystemExit(f"error: no layoutdiffusion package under {src}")
    sys.path.insert(0, src)
    ld = importlib.import_module("layoutdiffusion")
    for module in ("checkpoint", "data", "denoiser", "diffusion", "metrics", "optim",
                   "rng", "tensor"):
        importlib.import_module(f"layoutdiffusion.{module}")
    if not os.path.abspath(ld.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported layoutdiffusion from {ld.__file__}, not {src}")
    return ld


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def end_to_end(units, setup_s: float) -> dict:
    """Set-up time, the throughput that nine units in ten reach, and peak memory.

    A shared machine runs for stretches of tens of seconds up to a third
    faster or slower than usual, and brief stalls land on single steps.
    Step-time quantiles and the mean move with the share of a run these
    cover; the slow decile of whole units moved least.
    """
    rates = [u.layouts / u.seconds for u in units]
    return {
        "setup_s": (setup_s, "s"),
        "layouts_per_s_p10": (float(np.percentile(rates, 10)), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def ungated(units) -> dict:
    """Mean throughput and step-time quantiles: printed, but too unsteady to gate."""
    steps = [s for u in units for s in u.step_seconds]
    return {"layouts_per_s_mean": sum(u.layouts for u in units) / sum(u.seconds for u in units),
            "step_ms_p50": 1e3 * float(np.percentile(steps, 50)),
            "step_ms_p90": 1e3 * float(np.percentile(steps, 90))}


def per_layer(tracer, traced, untraced, facts: dict) -> dict:
    """Per-layer figures of the traced units; see perfbench/README.md for the map."""
    from bench_trace import TENSOR_OPS, summarize
    op_ids = {i for u in traced for i in u.op_ids}
    steps = sum(len(u.step_seconds) for u in traced)
    spans = summarize(tracer.spans, op_ids)
    every = summarize(tracer.spans)  # set-up too: some file calls happen only there
    counts = tracer.counts

    def per_step(name, kind="total"):
        return 1e3 * spans.get(name, {}).get(kind, 0.0) / steps

    def per_call(name):
        entry = every.get(name)
        return 1e3 * entry["total"] / entry["calls"] if entry else 0.0

    out = {}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_ms"] = (per_step(f"tensor.{op}.fwd"), "ms")
        out[f"tensor.{op}.bwd_ms"] = (per_step(f"tensor.{op}.bwd"), "ms")
    out["tensor.backward_ms"] = (per_step("tensor.backward"), "ms")
    out["tensor.tape_nodes_per_step"] = (counts["tensor.tape_nodes"] / steps, "count")
    out["tensor.matmul.gflop_per_step"] = (counts["tensor.matmul.flop"] / steps / 1e9, "GFLOP")
    out["denoiser.denoise_ms"] = (per_step("denoiser.denoise"), "ms")
    out["optim.adam_step_ms"] = (per_step("optim.adam_step"), "ms")
    out["diffusion.training_step_self_ms"] = (per_step("diffusion.training_step", "self"), "ms")
    out["diffusion.q_sample_ms"] = (per_step("diffusion.q_sample"), "ms")
    out["diffusion.p_sample_step_self_ms"] = (per_step("diffusion.p_sample_step", "self"), "ms")
    out["diffusion.posterior_mean_ms"] = (per_step("diffusion.posterior_mean"), "ms")
    out["rng.gaussian_ms"] = (per_step("rng.gaussian"), "ms")
    out["rng.integers_ms"] = (per_step("rng.integers"), "ms")
    out["rng.words_per_step"] = (counts["rng.words"] / steps, "count")
    for name in ("pad_batch", "load_dataset", "save_dataset", "batch_to_layouts"):
        out[f"data.{name}_ms"] = (per_call(f"data.{name}"), "ms")
    out["checkpoint.save_ms"] = (per_call("checkpoint.save"), "ms")
    out["checkpoint.load_ms"] = (per_call("checkpoint.load"), "ms")
    out["checkpoint.bytes"] = (facts.get("checkpoint.bytes", 0), "bytes")
    for name in ("alignment_kikuchi", "alignment_blt", "overlap_kikuchi", "overlap_blt",
                 "perceptual_iou", "max_iou"):
        out[f"metrics.{name}_ms"] = (per_step(f"metrics.{name}", "direct"), "ms")
    out["metrics.pair_max_iou_ms"] = (per_step("metrics.pair_max_iou", "self"), "ms")
    out["metrics.pair_max_iou_calls"] = (
        spans.get("metrics.pair_max_iou", {}).get("calls", 0) / steps, "count")
    out["metrics.assignment_ms"] = (per_step("metrics.assignment"), "ms")
    out["metrics.assignment_calls"] = (
        spans.get("metrics.assignment", {}).get("calls", 0) / steps, "count")
    out["metrics.largest_group"] = (facts.get("largest_group", 0), "count")
    out["metrics.greedy_groups"] = (facts.get("greedy_groups", 0), "count")
    traced_step = statistics.median(s for u in traced for s in u.step_seconds)
    plain_step = statistics.median(s for u in untraced for s in u.step_seconds)
    out["trace.overhead_pct"] = (100.0 * (traced_step / plain_step - 1.0), "%")
    return out


def run_workload(args) -> int:
    ld = import_package()
    import_s = time.perf_counter() - PROCESS_START
    from bench_trace import Tracer
    from bench_workloads import FULL, INPUT_SETS, WORKLOADS

    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)[args.workload].get(str(args.seed % INPUT_SETS))
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer(ld) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](ld, args.seed, workdir, FULL, pins)
        op_index = [-1]

        def begin_op():
            op_index[0] += 1
            if tracer is not None:
                tracer.op_id = op_index[0]

        workload.begin_op = begin_op
        setups = []
        if tracer is not None:
            tracer.install()
        try:
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.counts.clear()
        setup_s = import_s + statistics.median(setups)
        units = run_units(workload, tracer, args.seconds, op_index)
        workload_facts = workload.facts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    if args.trace:
        traced = [u for u in units if u.traced]
        untraced = [u for u in units if not u.traced]
        metrics = per_layer(tracer, traced, untraced, workload_facts)
    else:
        metrics = end_to_end(units, setup_s)

    facts = machine_facts()
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    detail = {"workload": args.workload, "seed": args.seed,
              "input_set": args.seed % INPUT_SETS, "pinned": pins is not None,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "setup_runs_s": setups, "import_s": import_s, "units": len(units),
              "steps": sum(len(u.step_seconds) for u in units), "ungated": ungated(units),
              "problems": problems[:20], "result": result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.json"))

    print(f"workload {args.workload}  seed {args.seed} (input set {args.seed % INPUT_SETS})"
          f"  trace {args.trace}  units {len(units)}  steps {detail['steps']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print("  ungated: " + "  ".join(f"{k} {v:.6g}" for k, v in detail["ungated"].items()))
    print(f"  checks: {'passed' if result['correct'] else 'FAILED'}"
          f" ({attempted} operations, {failed} failed)")
    for problem in problems[:5]:
        print(f"    {problem}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_units(workload, tracer, seconds, op_index) -> list:
    """Closed loop: units back to back until the next would end past ``seconds``.

    With a tracer, every second unit is traced.
    """
    units = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(units) % 2 == 1
        first_op = op_index[0] + 1
        if traced:
            tracer.install()
        try:
            unit = workload.run_unit()
        finally:
            if traced:
                tracer.uninstall()
        unit.traced = traced
        unit.op_ids = range(first_op, op_index[0] + 1)
        workload.check(unit)
        unit.output = None  # checked; kept outputs would grow peak_rss_mb with the unit count
        units.append(unit)
        elapsed = time.perf_counter() - start
        if len(units) >= MIN_UNITS and elapsed + unit.seconds > seconds:
            return units


def run_all(args) -> int:
    """Each workload in its own process, then one table and one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
