import json

import numpy as np
import pytest

from layoutdiffusion.checkpoint import load_checkpoint, save_checkpoint
from layoutdiffusion.cli import main
from layoutdiffusion.denoiser import DenoiserConfig
from layoutdiffusion.diffusion import DiffusionConfig, TrainConfig
from layoutdiffusion.tensor import ParameterStore, Tensor

TRAIN_FLAGS = ["--d-model", "16", "--num-layers", "1", "--num-heads", "2",
               "--ffn-dim", "16", "--timesteps", "20", "--learning-rate", "1e-3",
               "--batch-size", "4", "--init-seed", "0", "--train-seed", "1"]


def run(argv):
    return main(argv)


def synth(tmp_path, name="data.json", layouts=24, seed=7):
    path = tmp_path / name
    code = run(["synth", "--rule", "grid_by_label", "--layouts", str(layouts),
                "--classes", "3", "--min-elements", "2", "--max-elements", "4",
                "--seed", str(seed), "-o", str(path)])
    assert code == 0
    return path


def train(tmp_path, data, steps=4, name="model.ckpt", extra=()):
    ckpt = tmp_path / name
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--max-steps", str(steps), *TRAIN_FLAGS, *extra])
    assert code == 0
    return ckpt


def test_synth_is_byte_deterministic(tmp_path, capsys):
    a = synth(tmp_path, "a.json")
    b = synth(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "24 layouts" in out
    assert "class_0" in out  # label histogram printed


def test_synth_rejects_zero_classes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--classes", "0", "--seed", "1", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_synth_invalid_element_range(tmp_path, capsys):
    code = run(["synth", "--classes", "2", "--min-elements", "5", "--max-elements", "2",
                "--seed", "1", "-o", str(tmp_path / "x.json")])
    assert code == 3


def test_train_writes_checkpoint_and_loss_log(tmp_path):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=5)
    assert ckpt.exists()
    log = tmp_path / "model.ckpt.loss.csv"
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 6
    assert lines[1].startswith("1,")


def test_train_missing_dataset_is_data_error(tmp_path, capsys):
    code = run(["train", "--dataset", str(tmp_path / "nope.json"),
                "--checkpoint", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_train_resume_matches_uninterrupted_run(tmp_path):
    data = synth(tmp_path)
    full = train(tmp_path, data, steps=6, name="full.ckpt")
    part = train(tmp_path, data, steps=3, name="part.ckpt")
    code = run(["train", "--dataset", str(data), "--checkpoint", str(part),
                "--resume", str(part), "--max-steps", "6"])
    assert code == 0
    # the resumed log keeps steps 1-3 and appends 4-6
    assert ((tmp_path / "part.ckpt.loss.csv").read_bytes()
            == (tmp_path / "full.ckpt.loss.csv").read_bytes())
    full_bytes = full.read_bytes()
    part_bytes = part.read_bytes()
    # headers differ only in the original checkpoint path echo; compare blobs
    h1, b1 = full_bytes.split(b"\n", 1)
    h2, b2 = part_bytes.split(b"\n", 1)
    assert b1 == b2
    j1, j2 = json.loads(h1), json.loads(h2)
    assert j1["rng"] == j2["rng"]
    assert j1["train_step"] == j2["train_step"] == 6
    assert j1["manifest"] == j2["manifest"]


def blob_of(ckpt):
    return ckpt.read_bytes().split(b"\n", 1)[1]


def test_train_resume_into_another_checkpoint_keeps_history(tmp_path):
    data = synth(tmp_path)
    train(tmp_path, data, steps=6, name="full.ckpt")
    full_log = (tmp_path / "full.ckpt.loss.csv").read_bytes()
    part = train(tmp_path, data, steps=3, name="part.ckpt")
    other = tmp_path / "other.ckpt"
    assert run(["train", "--dataset", str(data), "--checkpoint", str(other),
                "--resume", str(part), "--max-steps", "6"]) == 0
    assert (tmp_path / "other.ckpt.loss.csv").read_bytes() == full_log
    assert blob_of(other) == blob_of(tmp_path / "full.ckpt")

    # An explicit --loss-log is read before the log next to --resume.
    log = tmp_path / "custom.csv"
    logged = train(tmp_path, data, steps=3, name="logged.ckpt", extra=["--loss-log", str(log)])
    (tmp_path / "logged.ckpt.loss.csv").write_text("step,loss\n1,0.0\n2,0.0\n3,0.0\n")
    assert run(["train", "--dataset", str(data), "--checkpoint", str(tmp_path / "c.ckpt"),
                "--resume", str(logged), "--max-steps", "6", "--loss-log", str(log)]) == 0
    assert log.read_bytes() == full_log


def legacy_header(ckpt, **train_echo):
    """Rewrite a checkpoint header as older versions wrote it: Adam's betas and
    eps in the optimizer block and in the config echo, and no digest."""
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header.pop("sha256", None)
    header["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-8)
    header["config"]["train"].update({"adam_beta1": 0.9, "adam_beta2": 0.999,
                                      "adam_eps": 1e-8, **train_echo})
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)


def test_train_resumes_a_legacy_checkpoint_bit_identically(tmp_path):
    data = synth(tmp_path)
    full = train(tmp_path, data, steps=6, name="full.ckpt")
    part = train(tmp_path, data, steps=3, name="part.ckpt")
    legacy_header(part)
    assert run(["train", "--dataset", str(data), "--checkpoint", str(part),
                "--resume", str(part), "--max-steps", "6"]) == 0
    assert blob_of(part) == blob_of(full)
    assert ((tmp_path / "part.ckpt.loss.csv").read_bytes()
            == (tmp_path / "full.ckpt.loss.csv").read_bytes())


def test_unsupported_legacy_adam_beta_is_a_data_error(tmp_path, capsys):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    legacy_header(ckpt)
    assert run(sample_args(ckpt, tmp_path / "ok.json")) == 0
    legacy_header(ckpt, adam_beta1=0.8)
    assert run(sample_args(ckpt, tmp_path / "bad.json")) == 3
    assert "adam_beta1" in capsys.readouterr().err
    assert run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--resume", str(ckpt), "--max-steps", "4"]) == 3
    assert "adam_beta1" in capsys.readouterr().err


def test_train_resume_rejects_a_different_dataset(tmp_path, capsys):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    log = tmp_path / "model.ckpt.loss.csv"
    before = ckpt.read_bytes(), log.read_bytes()
    other = tmp_path / "two_classes.json"
    assert run(["synth", "--layouts", "8", "--classes", "2", "--seed", "1",
                "-o", str(other)]) == 0
    code = run(["train", "--dataset", str(other), "--checkpoint", str(ckpt),
                "--resume", str(ckpt), "--max-steps", "4"])
    assert code == 3
    assert "labels" in capsys.readouterr().err
    assert (ckpt.read_bytes(), log.read_bytes()) == before


DROP = object()


def set_header_entry(ckpt, keys, value=DROP):
    """Set (or, with ``DROP``, delete) one header entry, and delete the digest, so the
    load reaches the check of that entry."""
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["sha256"]
    *parents, last = keys
    target = header
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)


def header_entry_id(keys):
    return ".".join(map(str, keys))


@pytest.mark.parametrize("keys", [("manifest", 0, "shape"), ("optimizer",),
                                  ("config", "dataset"), ("config", "dataset", "canvas"),
                                  ("rng", "train"), ("rng", "train", "seed"), ("train_step",)],
                         ids=header_entry_id)
def test_train_resume_rejects_a_header_without_an_entry(tmp_path, capsys, keys):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    set_header_entry(ckpt, keys)
    log = tmp_path / "model.ckpt.loss.csv"
    before = ckpt.read_bytes(), log.read_bytes()
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--resume", str(ckpt), "--max-steps", "4"])
    assert code == 3
    assert str(ckpt) in capsys.readouterr().err
    assert (ckpt.read_bytes(), log.read_bytes()) == before


def assert_both_commands_exit_3(tmp_path, capsys, data, ckpt):
    """``sample`` and ``train --resume`` on ``ckpt`` exit 3 naming it, and write nothing."""
    log = tmp_path / "model.ckpt.loss.csv"
    before = ckpt.read_bytes(), log.read_bytes()
    out = tmp_path / "s.json"
    assert run(sample_args(ckpt, out)) == 3
    assert str(ckpt) in capsys.readouterr().err
    assert not out.exists()
    assert run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--resume", str(ckpt), "--max-steps", "4"]) == 3
    assert str(ckpt) in capsys.readouterr().err
    assert (ckpt.read_bytes(), log.read_bytes()) == before


ODD_HEADER_VALUES = [(("config", "train", "diffusion", "timesteps"), "10"),
                     (("optimizer", "lr"), 10**400), (("rng", "train", "counter"), 2**70),
                     (("precision",), ["float64"]),
                     # A config echo without a field must not fall back to its default.
                     (("config", "train", "diffusion", "timesteps"), DROP),
                     (("config", "train", "diffusion"), [])]


@pytest.mark.parametrize("keys, value", ODD_HEADER_VALUES,
                         ids=["timesteps='10'", "lr=10**400", "counter=2**70",
                              "precision=['float64']", "timesteps missing", "diffusion=[]"])
def test_an_odd_header_value_exits_3_without_output(tmp_path, capsys, keys, value):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    set_header_entry(ckpt, keys, value)
    assert_both_commands_exit_3(tmp_path, capsys, data, ckpt)


@pytest.mark.parametrize("case", ["head.bias of shape [3]", "head.bias missing"])
def test_parameters_that_do_not_fit_the_config_exit_3_without_output(tmp_path, capsys, case):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    params, adam, header = load_checkpoint(ckpt)
    arrays = dict(params.items())
    if case == "head.bias missing":
        for store in (arrays, adam.m, adam.v):
            del store["head.bias"]
    else:
        arrays["head.bias"] = Tensor(np.zeros(3))
    save_checkpoint(ckpt, ParameterStore(arrays), adam, header["config"], header["rng"],
                    header["train_step"])
    assert_both_commands_exit_3(tmp_path, capsys, data, ckpt)


def test_train_d_model_flag_sizes_the_default_ffn(tmp_path):
    data = synth(tmp_path)
    ckpt = tmp_path / "wide.ckpt"
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--d-model", "32", "--num-layers", "1", "--max-steps", "0"])
    assert code == 0
    echo = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["config"]["train"]
    assert echo["denoiser"]["d_model"] == 32
    assert echo["denoiser"]["ffn_dim"] == 128


def test_train_config_file_and_flag_precedence(tmp_path):
    data = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "denoiser": {"d_model": 16, "num_layers": 1, "num_heads": 2, "ffn_dim": 16},
        "diffusion": {"timesteps": 20},
        "learning_rate": 1e-3, "batch_size": 4, "max_steps": 3,
        "init_seed": 0, "train_seed": 1,
    }))
    ckpt = tmp_path / "cfgd.ckpt"
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--config", str(cfg), "--max-steps", "2"])
    assert code == 0
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    echo = header["config"]["train"]
    assert echo["max_steps"] == 2  # flag wins over file
    assert echo["denoiser"]["d_model"] == 16  # file wins over default
    assert echo["diffusion"]["timesteps"] == 20


def test_train_flags_reach_their_config_sections(tmp_path):
    data = synth(tmp_path)
    ckpt = tmp_path / "flags.ckpt"
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--d-model", "24", "--num-layers", "2", "--num-heads", "3", "--ffn-dim", "40",
                "--activation", "relu", "--positional-encoding", "--timesteps", "30",
                "--beta-start", "2e-4", "--beta-end", "0.03", "--learning-rate", "3e-3",
                "--batch-size", "5", "--max-steps", "0", "--precision", "float32",
                "--init-seed", "7", "--train-seed", "8", "--checkpoint-every", "9"])
    assert code == 0
    echo = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["config"]["train"]
    assert echo == TrainConfig(
        denoiser=DenoiserConfig(d_model=24, num_layers=2, num_heads=3, ffn_dim=40,
                                num_classes=3, activation="relu", positional_encoding=True),
        diffusion=DiffusionConfig(timesteps=30, beta_start=2e-4, beta_end=0.03),
        learning_rate=3e-3, batch_size=5, max_steps=0, precision="float32",
        init_seed=7, train_seed=8, checkpoint_every=9).to_dict()


@pytest.mark.parametrize("doc", [[], None, 5, {"denoiser": 5}, {"denoiser": None},
                                 {"diffusion": [1, 2]}])
def test_train_config_must_be_objects(tmp_path, capsys, doc):
    data = synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code = run(["train", "--dataset", str(data), "--checkpoint",
                str(tmp_path / "x.ckpt"), "--config", str(cfg), "--max-steps", "0"])
    assert code == 3
    assert "error" in capsys.readouterr().err


MISTYPED_CONFIGS = [{"diffusion": {"timesteps": "10"}},
                    {"diffusion": {"beta_start": 0.5, "beta_end": 0.1}},
                    {"learning_rate": "x"}, {"batch_size": 2.5}, {"denoiser": {"ffn_dim": "8"}}]


@pytest.mark.parametrize("doc", MISTYPED_CONFIGS, ids=[json.dumps(d) for d in MISTYPED_CONFIGS])
def test_train_config_values_are_checked_before_training(tmp_path, capsys, doc):
    data = synth(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    code = run(["train", "--dataset", str(data), "--checkpoint", str(tmp_path / "x.ckpt"),
                "--config", str(cfg), "--d-model", "8", "--num-layers", "1",
                "--num-heads", "2", "--max-steps", "1"])
    assert code == 3
    assert "invalid training configuration" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_train_unknown_config_key_rejected(tmp_path, capsys):
    data = synth(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"optimzer": "adam"}))
    code = run(["train", "--dataset", str(data), "--checkpoint",
                str(tmp_path / "x.ckpt"), "--config", str(cfg)])
    assert code == 3


def sample_args(ckpt, out, labels="0,1,1,2", seed=3, n=2):
    return ["sample", "--checkpoint", str(ckpt), "--labels", labels,
            "--num-samples", str(n), "--seed", str(seed), "-o", str(out)]


def test_sample_is_deterministic_and_shaped(tmp_path):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run(sample_args(ckpt, out1)) == 0
    assert run(sample_args(ckpt, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert len(doc["layouts"]) == 2
    assert all(len(l["elements"]) == 4 for l in doc["layouts"])
    assert doc["meta"]["seed"] == 3
    first = doc["layouts"][0]["elements"][0]
    assert "bbox" in first and "bbox_clamped" in first
    assert [e["label"] for e in doc["layouts"][0]["elements"]] == [0, 1, 1, 2]


@pytest.mark.parametrize("keys", [("manifest", 0, "shape"), ("optimizer",),
                                  ("config", "dataset"), ("config", "dataset", "canvas"),
                                  ("config", "dataset", "labels"), ("rng", "train")],
                         ids=header_entry_id)
def test_sample_rejects_a_header_without_an_entry(tmp_path, capsys, keys):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    set_header_entry(ckpt, keys)
    out = tmp_path / "s.json"
    assert run(sample_args(ckpt, out)) == 3
    assert str(ckpt) in capsys.readouterr().err
    assert not out.exists()


def test_sample_with_non_finite_parameters_exits_4_without_output(tmp_path, capsys):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    params, adam, header = load_checkpoint(ckpt)
    params = params.replace({"head.bias": np.full(4, np.nan)})
    save_checkpoint(ckpt, params, adam, header["config"], header["rng"], header["train_step"])
    out = tmp_path / "s.json"
    assert run(sample_args(ckpt, out)) == 4
    assert "non-finite values at reverse step 20" in capsys.readouterr().err
    assert not out.exists()


def test_sample_seed_changes_output(tmp_path):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run(sample_args(ckpt, out1, seed=3)) == 0
    assert run(sample_args(ckpt, out2, seed=4)) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_sample_unknown_label_rejected(tmp_path, capsys):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    code = run(sample_args(ckpt, tmp_path / "bad.json", labels="0,9"))
    assert code == 3
    assert "9" in capsys.readouterr().err


def test_sample_conditions_file(tmp_path):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    out = tmp_path / "cond.json"
    code = run(["sample", "--checkpoint", str(ckpt), "--conditions", str(data),
                "--seed", "5", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    ref = json.loads(data.read_text())
    assert len(doc["layouts"]) == len(ref["layouts"])
    for gen, orig in zip(doc["layouts"], ref["layouts"]):
        assert [e["label"] for e in gen["elements"]] == [e["label"] for e in orig["elements"]]


def test_sample_continuous_conditions_file(tmp_path, capsys):
    def features_file(name, feature_dim):
        doc = {"canvas": {"width": 100, "height": 100}, "feature_dim": feature_dim,
               "layouts": [{"id": f"f{i}", "elements": [
                   {"feature": [0.1 * (i + k)] * feature_dim, "bbox": [20 + 10 * k, 30, 10, 10]}
                   for k in range(n)]} for i, n in enumerate((2, 3, 1, 2))]}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    data = features_file("features.json", 3)
    ckpt = train(tmp_path, data, steps=2)
    out = tmp_path / "cont.json"
    code = run(["sample", "--checkpoint", str(ckpt), "--conditions", str(data),
                "--seed", "5", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    ref = json.loads(data.read_text())
    assert doc["feature_dim"] == 3
    for gen, orig in zip(doc["layouts"], ref["layouts"]):
        assert [e["feature"] for e in gen["elements"]] == [e["feature"] for e in orig["elements"]]

    wrong_dim = features_file("features2.json", 2)
    code = run(["sample", "--checkpoint", str(ckpt), "--conditions", str(wrong_dim),
                "--seed", "5", "-o", str(tmp_path / "bad.json")])
    assert code == 3
    assert "expected [n, 3] features" in capsys.readouterr().err


def test_eval_self_comparison(tmp_path):
    data = synth(tmp_path)
    report_path = tmp_path / "report.json"
    code = run(["eval", "--generated", str(data), "--reference", str(data),
                "-o", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    metrics = report["metrics"]
    assert metrics["max_iou"]["value"] == pytest.approx(1.0, abs=1e-12)
    assert (metrics["overlap"]["kikuchi"]["generated"]["value"]
            == metrics["overlap"]["kikuchi"]["reference"]["value"])
    assert (metrics["alignment"]["blt"]["generated"]["value"]
            == metrics["alignment"]["blt"]["reference"]["value"])
    assert report["config"]["generated"] == str(data)


def test_eval_reports_known_iou_ratio(tmp_path):
    doc = {
        "canvas": {"width": 10, "height": 10},
        "labels": ["a", "b", "c"],
        "layouts": [{
            "id": "toy",
            "elements": [
                {"label": 0, "bbox": [2.5, 0.5, 5, 1]},
                {"label": 1, "bbox": [6.5, 0.5, 1, 1]},
                {"label": 2, "bbox": [7.0, 0.5, 1, 1]},
            ],
        }],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    report_path = tmp_path / "toy_report.json"
    assert run(["eval", "--generated", str(path), "--reference", str(path),
                "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    value = report["metrics"]["perceptual_iou"]["generated"]["value"]
    assert value == pytest.approx(1.0 / 13.0, abs=1e-9)


def test_eval_malformed_generated_fails_before_output(tmp_path, capsys):
    data = synth(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    report_path = tmp_path / "r.json"
    code = run(["eval", "--generated", str(bad), "--reference", str(data),
                "-o", str(report_path)])
    assert code == 3
    assert not report_path.exists()


def test_eval_malformed_values_are_data_errors(tmp_path, capsys):
    data = synth(tmp_path, layouts=8)
    bad = json.loads(data.read_text())
    bad["layouts"][2]["elements"][0]["label"] = "zz"
    bad_path = tmp_path / "bad_label.json"
    bad_path.write_text(json.dumps(bad))
    assert run(["eval", "--generated", str(bad_path), "--reference", str(data)]) == 3
    assert "synth-000002" in capsys.readouterr().err

    features = tmp_path / "features.json"
    features.write_text(json.dumps({"features": [["a", "b"], ["c", "d"], ["e", "f"]]}))
    code = run(["eval", "--generated", str(data), "--reference", str(data),
                "--frechet", "files", "--features-generated", str(features),
                "--features-reference", str(features)])
    assert code == 3
    assert "features.json" in capsys.readouterr().err


def test_eval_incompatible_vocabularies(tmp_path, capsys):
    data = synth(tmp_path)
    other = json.loads(data.read_text())
    other["labels"] = ["x", "y", "z"]
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    code = run(["eval", "--generated", str(data), "--reference", str(other_path)])
    assert code == 3
    assert "vocabular" in capsys.readouterr().err


def test_eval_trivial_frechet_zero_for_self(tmp_path):
    data = synth(tmp_path, layouts=40)
    report_path = tmp_path / "fr.json"
    code = run(["eval", "--generated", str(data), "--reference", str(data),
                "--frechet", "trivial", "-o", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["metrics"]["frechet"]["value"] == pytest.approx(0.0, abs=1e-8)


def test_eval_frechet_feature_files(tmp_path):
    data = synth(tmp_path, layouts=8)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(30, 4)).tolist()
    fa = tmp_path / "fa.json"
    fb = tmp_path / "fb.json"
    fa.write_text(json.dumps({"provenance": "ext", "features": feats}))
    fb.write_text(json.dumps({"provenance": "ext", "features": feats}))
    report_path = tmp_path / "r.json"
    code = run(["eval", "--generated", str(data), "--reference", str(data),
                "--frechet", "files", "--features-generated", str(fa),
                "--features-reference", str(fb), "-o", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["metrics"]["frechet"]["value"] == pytest.approx(0.0, abs=1e-8)
    assert report["metrics"]["frechet"]["feature_provenance"] == ["ext", "ext"]


def test_render_single_layout(tmp_path):
    doc = {
        "canvas": {"width": 100, "height": 100},
        "labels": ["text"],
        "layouts": [{"id": "one", "elements": [{"label": 0, "bbox": [50, 50, 20, 10]}]}],
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    svg_path = tmp_path / "one.svg"
    assert run(["render", "--input", str(path), "--index", "0",
                "-o", str(svg_path)]) == 0
    svg = svg_path.read_text()
    # one element rect plus the canvas background rect
    assert svg.count("<rect") == 2
    assert "text" in svg

    svg_path2 = tmp_path / "two.svg"
    assert run(["render", "--input", str(path), "--index", "0",
                "-o", str(svg_path2)]) == 0
    assert svg_path.read_text() == svg_path2.read_text()


def test_render_clamps_overshoot(tmp_path):
    doc = {
        "canvas": {"width": 100, "height": 100},
        "labels": ["text"],
        "layouts": [{"id": "o", "elements": [{"label": 0, "bbox": [110, 50, 20, 10]}]}],
    }
    path = tmp_path / "over.json"
    path.write_text(json.dumps(doc))
    svg_path = tmp_path / "over.svg"
    assert run(["render", "--input", str(path), "--index", "0",
                "-o", str(svg_path)]) == 0
    svg = svg_path.read_text()
    # cx=1.2 normalized: left edge clamps to the canvas edge
    assert 'x="100.0000"' in svg


def test_render_directory_mode(tmp_path):
    data = synth(tmp_path, layouts=3)
    out_dir = tmp_path / "renders"
    assert run(["render", "--input", str(data), "-o", str(out_dir)]) == 0
    assert len(list(out_dir.glob("*.svg"))) == 3


def test_render_bad_index(tmp_path, capsys):
    data = synth(tmp_path, layouts=3)
    code = run(["render", "--input", str(data), "--index", "99",
                "-o", str(tmp_path / "x.svg")])
    assert code == 3
