"""Tests of the benchmark itself: tracing changes no output, undoes every
rebinding, and computes self time correctly.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import layoutdiffusion as ld
import layoutdiffusion.checkpoint  # noqa: F401  (not imported by the package itself)
from bench_trace import Tracer, self_times, summarize
from bench_workloads import WORKLOADS, Scale

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

SMALL = Scale(train_layouts=32, batch_size=8, episode_steps=6, checkpoint_every=3,
              loss_window=2, sample_conditions=4, sample_timesteps=5, eval_layouts=48,
              warmup_layouts=8)


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".bench_build", "perfbench", "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_units(name, workdir, tracer=None, units=2):
    os.makedirs(workdir)
    workload = WORKLOADS[name](ld, 5, workdir, SMALL)
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
        out = []
        for _ in range(units):
            unit = workload.run_unit()
            workload.check(unit)
            assert not unit.problems, unit.problems
            out.append(unit.output)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out


def same_output(a, b):
    if isinstance(a, tuple):
        return all(np.array_equal(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name,span", [("train", "denoiser.denoise"),
                                       ("sample", "diffusion.p_sample_step"),
                                       ("eval", "metrics.pair_max_iou")])
def test_tracing_leaves_outputs_bit_identical(name, span, workdir):
    plain = run_units(name, os.path.join(workdir, "plain"))
    tracer = Tracer(ld)
    traced = run_units(name, os.path.join(workdir, "traced"), tracer)
    assert all(same_output(a, b) for a, b in zip(plain, traced))
    assert span in {s[0] for s in tracer.spans}


def package_state():
    """Identity of every attribute, default tuple and RngStream method of the package."""
    state = {}
    for mod_name, module in sys.modules.items():
        if mod_name == "layoutdiffusion" or mod_name.startswith("layoutdiffusion."):
            for attr, value in vars(module).items():
                state[(mod_name, attr)] = id(value)
                if isinstance(value, types.FunctionType):
                    state[(mod_name, attr, "__defaults__")] = id(value.__defaults__)
    for attr, value in vars(ld.rng.RngStream).items():
        state[("RngStream", attr)] = id(value)
    return state


def test_uninstall_undoes_every_rebinding(workdir):
    before = package_state()
    tracer = Tracer(ld)
    tracer.install()
    assert package_state() != before
    tracer.uninstall()
    assert package_state() == before

    run_units("train", os.path.join(workdir, "traced"), tracer, units=1)
    assert package_state() == before
    recorded = len(tracer.spans), dict(tracer.counts)
    run_units("train", os.path.join(workdir, "plain"), units=1)
    assert (len(tracer.spans), dict(tracer.counts)) == recorded


def test_self_time_on_nested_spans():
    spans = [
        ("a.root", 0.0, 10.0, -1, 0),
        ("b.child", 1.0, 4.0, 0, 0),
        ("b.child", 3.0, 6.0, 0, 0),   # overlaps its sibling: counted once
        ("c.late", 9.0, 12.0, 0, 0),   # runs past its parent: clipped
        ("b.grandchild", 2.0, 3.0, 1, 0),
        ("a.other_op", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0, 1.0])
    summary = summarize(spans, op_ids={0})
    assert summary["b.child"] == pytest.approx(
        {"calls": 2, "total": 6.0, "self": 5.0, "direct": 6.0})
    assert summary["b.grandchild"]["direct"] == 0.0  # parent is in the same layer
    assert "a.other_op" not in summary


def run_bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes_checks_with_the_declared_metrics(name):
    """A seed outside the ten used to set the bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench("--workload", name, "--seed", "1234", "--seconds", "1",
                           "--trace", str(trace))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
