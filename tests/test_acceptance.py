"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end
criterion trains a real (small) model and takes a few minutes; thresholds
marked "pinned" were recorded from the first green run and act as
regression floors on top of the primary limits.
"""
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import layoutdiffusion as ld
from layoutdiffusion.metrics import pair_max_iou
from layoutdiffusion.tensor import Tensor, collect_grads, mul, sub, tsum

CLI = [sys.executable, "-m", "layoutdiffusion.cli"]
# The CLI runs in a temporary directory, where a relative PYTHONPATH would
# not resolve; point it at the package this suite imported.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ld.__file__)))


def announce(name, started):
    print(f"ACCEPTANCE {name}: PASS ({time.monotonic() - started:.1f}s)")


def run_cli(args, cwd):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(CLI + args, cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


# -- criterion: noise schedule ------------------------------------------------


def test_schedule_values_and_product_oracle():
    started = time.monotonic()
    sched = ld.build_schedule(1000, 1e-4, 0.02)
    assert sched.timesteps == 1000
    assert sched.beta[0] == 1e-4
    assert sched.beta[-1] == 0.02
    assert sched.alpha_bar[0] == 0.9999

    b1, bt = Fraction(1e-4), Fraction(0.02)
    step = (bt - b1) / 999
    exact = Fraction(1)
    for i in range(1000):
        exact *= 1 - (b1 + i * step)
    exact = float(exact)
    assert abs(sched.alpha_bar[-1] - exact) / exact < 1e-12
    assert time.monotonic() - started < 1.0
    announce("schedule", started)


# -- criterion: forward-process statistics --------------------------------------


def test_forward_process_monte_carlo_statistics():
    started = time.monotonic()
    sched = ld.build_schedule(1000, 1e-4, 0.02)
    g0 = np.array([0.42, -0.37, 0.11, 0.83])
    draws = 100_000
    stream = ld.RngStream(314159)
    for t in (1, 500, 1000):
        ab = sched.alpha_bar[t - 1]
        noise = stream.gaussian((draws, 4))
        samples = ld.q_sample(np.broadcast_to(g0, (draws, 4)).copy(), t, noise, sched)
        target_mean = np.sqrt(ab) * g0
        # "within 1%" read on the coordinate scale: the target mean itself
        # crosses zero as t grows, so a relative bound is ill-posed at t=T.
        assert np.abs(samples.mean(axis=0) - target_mean).max() < 0.01
        var_ratio = samples.var(axis=0) / (1.0 - ab)
        assert np.all(np.abs(var_ratio - 1.0) < 0.02)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce("forward-statistics", started)


# -- criterion: reverse-mean cancellation ----------------------------------------


def test_posterior_mean_cancellation_at_t1():
    started = time.monotonic()
    sched = ld.build_schedule(1000, 1e-4, 0.02)
    rng = np.random.default_rng(7)
    g0 = rng.uniform(-1, 1, (16, 6, 4))
    noise = rng.normal(size=g0.shape)
    g1 = ld.q_sample(g0, 1, noise, sched)
    recovered = ld.posterior_mean(g1, 1, noise, sched)
    assert np.abs(recovered - g0).max() < 1e-10
    announce("perfect-denoiser-cancellation", started)


# -- criterion: gradient correctness ----------------------------------------------


def worst_gradient_error(labels, mask):
    """Largest relative error of the tape's parameter gradients against
    central differences, for a squared-error loss on a tiny denoiser."""
    config = ld.DenoiserConfig(d_model=16, num_layers=2, num_heads=4, ffn_dim=24,
                               num_classes=3)
    params = ld.init_denoiser_params(config, ld.RngStream(42))
    rng = np.random.default_rng(1)
    geometry = rng.normal(size=mask.shape + (4,))
    target = rng.normal(size=mask.shape + (4,))

    def loss_fn(store):
        pred = ld.denoise(geometry, [5], labels, mask, store, config)
        diff = sub(pred, Tensor(target))
        return mul(tsum(mul(diff, diff)), 1.0 / target.size)

    grads = collect_grads(loss_fn(params), params)
    fd = ld.finite_difference_grad(lambda s: float(loss_fn(s).data), params, h=1e-5)
    worst = 0.0
    for name in params.names():
        a, b = grads[name], fd[name]
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
        worst = max(worst, float(rel.max()))
    return worst


def test_gradients_match_finite_differences_on_tiny_config():
    started = time.monotonic()
    worst = worst_gradient_error(np.array([[0, 1, 2]]), np.ones((1, 3), dtype=bool))
    assert worst < 1e-4, f"max relative gradient error {worst}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce("gradient-correctness", started)


def test_gradients_match_finite_differences_on_a_ragged_batch():
    # Two layouts of 2 and 4 elements padded to 4: the packed path.
    started = time.monotonic()
    labels = np.array([[2, 0, 0, 0], [0, 1, 2, 1]])
    mask = np.array([[True, False, True, False], [True, True, True, True]])
    worst = worst_gradient_error(labels, mask)
    assert worst < 1e-4, f"max relative gradient error {worst}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    announce("gradient-correctness-ragged", started)


# -- criterion: permutation equivariance --------------------------------------------


def test_permutation_equivariance_and_positional_sensitivity():
    started = time.monotonic()
    rng = np.random.default_rng(3)
    n = 6
    geometry = rng.normal(size=(2, n, 4))
    labels = rng.integers(0, 3, size=(2, n))
    mask = np.ones((2, n), dtype=bool)
    t = np.array([17, 800])

    config = ld.DenoiserConfig(d_model=32, num_layers=2, num_heads=4, ffn_dim=48,
                               num_classes=3)
    params = ld.init_denoiser_params(config, ld.RngStream(0))
    base = ld.denoise(geometry, t, labels, mask, params, config).data
    worst = 0.0
    for _ in range(100):
        perm = rng.permutation(n)
        out = ld.denoise(geometry[:, perm], t, labels[:, perm], mask[:, perm],
                         params, config).data
        worst = max(worst, float(np.abs(out - base[:, perm]).max()))
    assert worst < 1e-6, f"equivariance deviation {worst}"

    config_pe = ld.DenoiserConfig(d_model=32, num_layers=2, num_heads=4, ffn_dim=48,
                                  num_classes=3, positional_encoding=True)
    params_pe = ld.init_denoiser_params(config_pe, ld.RngStream(0))
    base_pe = ld.denoise(geometry, t, labels, mask, params_pe, config_pe).data
    deviations = []
    for _ in range(10):
        perm = rng.permutation(n)
        out = ld.denoise(geometry[:, perm], t, labels[:, perm], mask[:, perm],
                         params_pe, config_pe).data
        deviations.append(float(np.abs(out - base_pe[:, perm]).max()))
    assert max(deviations) > 1e-3, "positional encoding should break equivariance"
    announce("permutation-equivariance", started)


# -- criterion: metric oracle pins ------------------------------------------------------


def unit_layout(*boxes, id="r"):
    """Layout from unit-square frame boxes ``(cx, cy, w, h)`` or ``(cx, cy, w, h, label)``."""
    geometry = 2.0 * np.array([b[:4] for b in boxes], dtype=float) - 1.0
    return ld.Layout(geometry=geometry, labels=[b[4] if len(b) > 4 else 0 for b in boxes], id=id)


def test_metric_oracle_pins():
    started = time.monotonic()
    toy = unit_layout((0.25, 0.05, 0.5, 0.1), (0.65, 0.05, 0.1, 0.1), (0.70, 0.05, 0.1, 0.1),
                      id="toy")
    assert ld.perceptual_iou(toy) == pytest.approx(1.0 / 13.0, abs=1e-9)

    twins = unit_layout((0.5, 0.5, 0.3, 0.3), (0.5, 0.5, 0.3, 0.3), id="twins")
    assert ld.overlap_kikuchi(twins) == pytest.approx(100.0, abs=1e-9)
    assert ld.overlap_blt(twins) == pytest.approx(2.0, abs=1e-12)

    grid = unit_layout(*[(0.25 + 0.5 * c, 0.25 + 0.5 * r, 0.2, 0.2)
                         for r in range(2) for c in range(2)], id="grid")
    assert ld.alignment_kikuchi(grid) == 0.0
    assert ld.alignment_blt([grid]) == 0.0

    rng = np.random.default_rng(5)

    def rand_layout():
        boxes = []
        for label in (0, 0, 1):
            w, h = rng.uniform(0.1, 0.4, 2)
            cx = rng.uniform(w / 2, 1 - w / 2)
            cy = rng.uniform(h / 2, 1 - h / 2)
            boxes.append((cx, cy, w, h, label))
        return unit_layout(*boxes)

    collection = [rand_layout() for _ in range(4)]
    assert ld.max_iou(collection, collection) == 1.0

    generated = [rand_layout() for _ in range(4)]
    reference = [rand_layout() for _ in range(4)]
    weights = np.array([[pair_max_iou(g, r) for r in reference] for g in generated])
    oracle = max(sum(weights[i, p[i]] for i in range(4))
                 for p in itertools.permutations(range(4)))
    assert ld.max_iou(generated, reference) == oracle / 4.0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce("metric-pins", started)


# -- criterion: frechet kernel ------------------------------------------------------------


def test_frechet_kernel_cases():
    started = time.monotonic()
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(60, 5))
    same = ld.FeatureSet(features=feats, provenance="a")
    assert ld.frechet_distance(same, same) == pytest.approx(0.0, abs=1e-8)

    base = rng.normal(size=(80, 4))
    base = base - base.mean(axis=0)
    base = base @ np.linalg.inv(np.linalg.cholesky(np.cov(base, rowvar=False))).T
    shift = np.array([0.3, -0.8, 1.1, 0.05])
    d2 = float(shift @ shift)
    assert ld.frechet_distance(
        ld.FeatureSet(base, "a"), ld.FeatureSet(base + shift, "b")
    ) == pytest.approx(d2, abs=1e-8)

    scipy_linalg = pytest.importorskip("scipy.linalg")
    a = rng.normal(size=(64, 5))
    b = rng.normal(size=(64, 5)) @ np.diag([1.0, 2.0, 0.5, 1.5, 0.8]) - 0.4
    cov_a, cov_b = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    oracle = float((mu_a - mu_b) @ (mu_a - mu_b)
                   + np.trace(cov_a + cov_b - 2 * scipy_linalg.sqrtm(cov_a @ cov_b).real))
    ours = ld.frechet_distance(ld.FeatureSet(a, "a"), ld.FeatureSet(b, "b"))
    assert ours == pytest.approx(oracle, abs=1e-8)
    announce("frechet-kernel", started)


# -- criterion: end-to-end desk experiment ---------------------------------------------------


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """synth -> train -> sample -> eval, all through the CLI."""
    work = tmp_path_factory.mktemp("desk")
    started = time.monotonic()
    run_cli(["synth", "--rule", "grid_by_label", "--layouts", "512", "--classes", "4",
             "--min-elements", "2", "--max-elements", "6", "--seed", "7",
             "-o", "data.json"], work)
    run_cli(["train", "--dataset", "data.json", "--checkpoint", "model.ckpt",
             "--d-model", "64", "--num-layers", "3", "--num-heads", "4",
             "--ffn-dim", "128", "--learning-rate", "2e-3", "--batch-size", "64",
             "--max-steps", "4000", "--init-seed", "0", "--train-seed", "1"], work)
    doc = json.loads((work / "data.json").read_text())
    conditions = {k: v for k, v in doc.items() if k != "meta"}
    conditions["layouts"] = conditions["layouts"][:64]
    (work / "cond64.json").write_text(json.dumps(conditions))
    run_cli(["sample", "--checkpoint", "model.ckpt", "--conditions", "cond64.json",
             "--seed", "99", "-o", "samples.json"], work)
    run_cli(["eval", "--generated", "samples.json", "--reference", "data.json",
             "-o", "report.json"], work)
    return work, time.monotonic() - started


def test_end_to_end_desk_experiment(desk_run):
    started = time.monotonic()
    work, pipeline_seconds = desk_run
    assert pipeline_seconds < 1800.0, "pipeline exceeded the 30 minute budget"

    # training progress: final loss well below the starting plateau
    rows = (work / "model.ckpt.loss.csv").read_text().strip().splitlines()[1:]
    losses = np.array([float(r.split(",")[1]) for r in rows])
    ratio = losses[-100:].mean() / losses[:100].mean()
    assert ratio < 0.25, f"loss ratio {ratio}"
    assert ratio < 0.10  # pinned from the first green run (attained 0.025)

    samples = ld.load_dataset(work / "samples.json", strict_geometry=False)
    errors = []
    for layout in samples.layouts:
        for element in layout.elements:
            rule = ld.grid_rule_box(element.label, 4)
            errors.append(np.abs(element.geometry - rule).max())
    errors = np.array(errors)
    fraction = float((errors <= 0.1).mean())
    assert fraction >= 0.80, f"only {fraction:.1%} of elements near their rule box"
    assert fraction >= 0.99  # pinned from the first green run (attained 1.0)

    report = json.loads((work / "report.json").read_text())
    gen_alignment = report["metrics"]["alignment"]["kikuchi"]["generated"]["value"]
    ref_alignment = report["metrics"]["alignment"]["kikuchi"]["reference"]["value"]
    assert gen_alignment <= 2.0 * ref_alignment
    assert gen_alignment <= 1.0 * ref_alignment  # pinned (attained ratio 0.78)

    # conditioning matters: on the trained model, changing one element's
    # label changes its predicted noise
    from layoutdiffusion.checkpoint import load_checkpoint
    params, _, header = load_checkpoint(work / "model.ckpt")
    config = ld.TrainConfig.from_dict(header["config"]["train"])
    geometry = np.zeros((1, 2, 4))
    mask = np.ones((1, 2), dtype=bool)
    base = ld.denoise(geometry, [500], np.array([[0, 1]]), mask, params,
                      config.denoiser).data
    changed = ld.denoise(geometry, [500], np.array([[2, 1]]), mask, params,
                         config.denoiser).data
    assert np.abs(changed[0, 0] - base[0, 0]).max() > 0.0
    announce("end-to-end-desk-experiment", started)


# -- criterion: full-pipeline determinism -------------------------------------------------------


def test_full_pipeline_determinism(tmp_path):
    started = time.monotonic()

    def pipeline(work):
        work.mkdir()
        run_cli(["synth", "--rule", "grid_by_label", "--layouts", "48", "--classes", "3",
                 "--min-elements", "2", "--max-elements", "4", "--seed", "21",
                 "-o", "data.json"], work)
        run_cli(["train", "--dataset", "data.json", "--checkpoint", "model.ckpt",
                 "--d-model", "16", "--num-layers", "1", "--num-heads", "2",
                 "--ffn-dim", "16", "--timesteps", "60", "--learning-rate", "1e-3",
                 "--batch-size", "8", "--max-steps", "120",
                 "--init-seed", "0", "--train-seed", "1"], work)
        run_cli(["sample", "--checkpoint", "model.ckpt", "--labels", "0,1,2",
                 "--num-samples", "8", "--seed", "5", "-o", "samples.json"], work)
        run_cli(["eval", "--generated", "samples.json", "--reference", "data.json",
                 "-o", "report.json"], work)

    pipeline(tmp_path / "run_a")
    pipeline(tmp_path / "run_b")
    for name in ("data.json", "model.ckpt", "model.ckpt.loss.csv",
                 "samples.json", "report.json"):
        a = (tmp_path / "run_a" / name).read_bytes()
        b = (tmp_path / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    announce("pipeline-determinism", started)
