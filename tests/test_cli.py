import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from checkpoint_signing import resign

import layoutdiffusion
from layoutdiffusion import cli
from layoutdiffusion.checkpoint import load_checkpoint, save_checkpoint
from layoutdiffusion.cli import main
from layoutdiffusion.denoiser import DenoiserConfig
from layoutdiffusion.diffusion import DiffusionConfig, TrainConfig, read_loss_log

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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_synth_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    out = tmp_path / "x.json"
    assert run(["synth", "--classes", "2", "--seed", seed, "-o", str(out)]) == 3
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_train_keeps_the_largest_64_bit_seeds_through_a_resume(tmp_path):
    data = synth(tmp_path)
    top = str(2**64 - 1)
    seeds = ["--init-seed", top, "--train-seed", top]
    part = train(tmp_path, data, steps=2, name="part.ckpt", extra=seeds)
    _, _, header = load_checkpoint(part)
    assert header["config"]["train"]["init_seed"] == 2**64 - 1
    assert header["rng"]["train"]["seed"] == 2**64 - 1
    resumed = tmp_path / "resumed.ckpt"
    assert run(["train", "--dataset", str(data), "--checkpoint", str(resumed),
                "--resume", str(part), "--max-steps", "4"]) == 0
    whole = train(tmp_path, data, steps=4, name="whole.ckpt", extra=seeds)
    resumed_params, _, resumed_header = load_checkpoint(resumed)
    whole_params, _, _ = load_checkpoint(whole)
    assert resumed_header["config"]["train"]["train_seed"] == 2**64 - 1
    for name in whole_params:
        assert np.array_equal(resumed_params[name], whole_params[name])


@pytest.mark.parametrize("flag", ["--init-seed", "--train-seed"])
def test_train_rejects_a_seed_of_2_to_the_64(tmp_path, capsys, flag):
    data = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt), "--max-steps", "1",
                *TRAIN_FLAGS, flag, str(2**64)])
    assert code == 3
    assert "seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.json"]


@pytest.mark.parametrize("flag", ["--init-seed", "--train-seed"])
def test_train_rejects_a_negative_seed(tmp_path, capsys, flag):
    data = synth(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    # The last occurrence of a flag wins over the one in TRAIN_FLAGS.
    code = run(["train", "--dataset", str(data), "--checkpoint", str(ckpt), "--max-steps", "1",
                *TRAIN_FLAGS, flag, "-1"])
    assert code == 3
    assert "seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [data]


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


@pytest.mark.parametrize("place", ["next to --resume", "at --loss-log"])
def test_a_foreign_loss_log_does_not_reach_the_resumed_log(tmp_path, place):
    """The history comes from the checkpoint alone, never from a log found on disk."""
    data = synth(tmp_path)
    train(tmp_path, data, steps=6, name="full.ckpt")
    full_log = (tmp_path / "full.ckpt.loss.csv").read_bytes()
    train(tmp_path, data, steps=6, name="foreign.ckpt", extra=["--train-seed", "2"])
    foreign_log = (tmp_path / "foreign.ckpt.loss.csv").read_bytes()
    assert foreign_log != full_log
    part = train(tmp_path, data, steps=3, name="part.ckpt")
    if place == "next to --resume":
        (tmp_path / "part.ckpt.loss.csv").write_bytes(foreign_log)
        log, extra = tmp_path / "c.ckpt.loss.csv", []
    else:
        log = tmp_path / "custom.csv"
        log.write_bytes(foreign_log)
        extra = ["--loss-log", str(log)]
    assert run(["train", "--dataset", str(data), "--checkpoint", str(tmp_path / "c.ckpt"),
                "--resume", str(part), "--max-steps", "6", *extra]) == 0
    assert log.read_bytes() == full_log


EVERY_2 = ["--checkpoint-every", "2"]


@pytest.mark.parametrize("stop", [2, 4])
def test_a_run_interrupted_after_a_checkpoint_resumes_to_the_same_files(tmp_path, monkeypatch,
                                                                        stop):
    data = synth(tmp_path)
    whole = train(tmp_path, data, steps=6, name="whole.ckpt", extra=EVERY_2)
    real_save = cli.save_checkpoint

    def save_then_stop(*args, **kwargs):
        real_save(*args, **kwargs)
        if args[5] == stop:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "save_checkpoint", save_then_stop)
    cut = tmp_path / "cut.ckpt"
    with pytest.raises(KeyboardInterrupt):
        run(["train", "--dataset", str(data), "--checkpoint", str(cut), "--max-steps", "6",
             *TRAIN_FLAGS, *EVERY_2])
    monkeypatch.undo()
    assert load_checkpoint(cut)[2]["train_step"] == stop
    assert run(["train", "--dataset", str(data), "--checkpoint", str(cut),
                "--resume", str(cut)]) == 0
    assert cut.read_bytes() == whole.read_bytes()
    assert ((tmp_path / "cut.ckpt.loss.csv").read_bytes()
            == (tmp_path / "whole.ckpt.loss.csv").read_bytes())


@pytest.mark.parametrize("steps, saved, resume_to, resaved", [
    (4, [2, 4], None, [4]), (5, [2, 4, 5], None, [5]), (0, [0], None, [0]),
    (3, [2, 3], 7, [4, 6, 7]), (3, [2, 3], 1, [3])])
def test_train_saves_each_checkpoint_step_once(tmp_path, monkeypatch, steps, saved, resume_to,
                                               resaved):
    """A resume saves every checkpoint_every steps above its start, then at the end.  A
    run that trains no step, such as a resume at or past its last step, saves once."""
    data = synth(tmp_path)
    real_save = cli.save_checkpoint
    recorded = []

    def recording_save(*args, **kwargs):
        recorded.append(args[5])
        real_save(*args, **kwargs)

    monkeypatch.setattr(cli, "save_checkpoint", recording_save)
    ckpt = train(tmp_path, data, steps=steps, extra=EVERY_2)
    assert recorded == saved
    recorded.clear()
    to = [] if resume_to is None else ["--max-steps", str(resume_to)]
    assert run(["train", "--dataset", str(data), "--checkpoint", str(ckpt),
                "--resume", str(ckpt), *to]) == 0
    assert recorded == resaved
    losses = load_checkpoint(ckpt)[2]["losses"]
    assert len(losses) == resaved[-1]
    assert read_loss_log(tmp_path / "model.ckpt.loss.csv") == list(enumerate(losses, start=1))


def test_a_killed_run_resumes_to_the_same_files(tmp_path):
    data = synth(tmp_path)
    steps = 600
    flags = ["--dataset", str(data), "--max-steps", str(steps), *TRAIN_FLAGS,
             "--checkpoint-every", "10"]
    killed = tmp_path / "killed.ckpt"
    package_root = os.path.dirname(os.path.dirname(layoutdiffusion.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from layoutdiffusion.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "train", "--checkpoint", str(killed), *flags],
        env={**os.environ, "PYTHONPATH": package_root},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not killed.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert load_checkpoint(killed)[2]["train_step"] < steps  # the run really was cut
    assert run(["train", "--dataset", str(data), "--checkpoint", str(killed),
                "--resume", str(killed)]) == 0
    whole = tmp_path / "whole.ckpt"
    assert run(["train", "--checkpoint", str(whole), *flags]) == 0
    assert killed.read_bytes() == whole.read_bytes()
    assert ((tmp_path / "killed.ckpt.loss.csv").read_bytes()
            == (tmp_path / "whole.ckpt.loss.csv").read_bytes())


def format_2_copy(ckpt):
    """Rewrite a checkpoint as format 2 wrote it: no loss history, and a digest that
    covers the header."""
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    del header["losses"]
    header["format_version"] = 2
    resign(header, blob)
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)


def test_train_resumes_a_format_2_checkpoint_with_the_history_of_its_log(tmp_path, capsys):
    data = synth(tmp_path)
    full = train(tmp_path, data, steps=6, name="full.ckpt")
    full_log = tmp_path / "full.ckpt.loss.csv"
    part = train(tmp_path, data, steps=3, name="part.ckpt")
    format_2_copy(part)
    assert run(["train", "--dataset", str(data), "--checkpoint", str(part),
                "--resume", str(part), "--max-steps", "6"]) == 0
    assert part.read_bytes() == full.read_bytes()
    assert load_checkpoint(part)[2]["losses"] == [loss for _, loss in read_loss_log(full_log)]
    assert (tmp_path / "part.ckpt.loss.csv").read_bytes() == full_log.read_bytes()

    # Without its log, a format 2 checkpoint has no history to carry on.
    old = train(tmp_path, data, steps=3, name="old.ckpt")
    format_2_copy(old)
    (tmp_path / "old.ckpt.loss.csv").unlink()
    before = old.read_bytes()
    assert run(["train", "--dataset", str(data), "--checkpoint", str(old),
                "--resume", str(old), "--max-steps", "6"]) == 3
    assert "old.ckpt.loss.csv" in capsys.readouterr().err
    assert old.read_bytes() == before
    assert not (tmp_path / "old.ckpt.loss.csv").exists()


def legacy_header(ckpt, **train_echo):
    """Rewrite a checkpoint header as version 1 wrote it: Adam's betas and eps in the
    optimizer block and in the config echo, no loss history and no digest."""
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header.pop("sha256", None)
    header.pop("losses", None)
    header["format_version"] = 1
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


def set_header_entry(ckpt, keys, value=DROP, sign=True):
    """Set (or, with ``DROP``, delete) one header entry and, unless ``sign`` is false,
    re-sign the header, so the load reaches the check of that entry."""
    head, blob = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    *parents, last = keys
    target = header
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    if sign:
        resign(header, blob)
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)


def header_entry_id(keys):
    return ".".join(map(str, keys))


@pytest.mark.parametrize("keys", [("manifest", 0, "shape"), ("optimizer",),
                                  ("config", "dataset"), ("config", "dataset", "canvas"),
                                  ("rng", "train"), ("rng", "train", "seed"), ("train_step",),
                                  ("losses",)],
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
                     (("config", "train", "diffusion"), []),
                     # The fixture trained 2 steps, so it holds 2 losses.
                     (("losses",), "x"), (("losses",), [True]), (("losses",), [0.5]),
                     # ``true`` and ``1.0`` equal 1 in Python, and ``3.0`` equals 3.
                     (("format_version",), True), (("format_version",), 1.0),
                     (("format_version",), 3.0), (("format_version",), "3")]


@pytest.mark.parametrize("keys, value", ODD_HEADER_VALUES,
                         ids=["timesteps='10'", "lr=10**400", "counter=2**70",
                              "precision=['float64']", "timesteps missing", "diffusion=[]",
                              "losses='x'", "losses=[True]", "losses one short",
                              "format_version=true", "format_version=1.0",
                              "format_version=3.0", "format_version='3'"])
def test_an_odd_header_value_exits_3_without_output(tmp_path, capsys, keys, value):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    set_header_entry(ckpt, keys, value)
    assert_both_commands_exit_3(tmp_path, capsys, data, ckpt)


@pytest.mark.parametrize("case", ["format 3 without digest", "format 2 without digest",
                                  "echo of 2 labels", "echo of features"])
def test_an_unsigned_or_mismatched_checkpoint_exits_3_without_output(tmp_path, capsys, case):
    """Only version 1 files may lack a digest, and the dataset echo must name the classes
    or the feature width of the denoiser's attribute head (3 classes here)."""
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    if case == "format 2 without digest":
        format_2_copy(ckpt)
    if case.endswith("without digest"):
        set_header_entry(ckpt, ("sha256",), sign=False)
    elif case == "echo of 2 labels":
        set_header_entry(ckpt, ("config", "dataset", "labels"), ["class_0", "class_1"])
    else:
        set_header_entry(ckpt, ("config", "dataset"), {"canvas": [1.0, 1.0], "feature_dim": 3})
    assert_both_commands_exit_3(tmp_path, capsys, data, ckpt)


@pytest.mark.parametrize("case", ["head.bias of shape [3]", "head.bias missing"])
def test_parameters_that_do_not_fit_the_config_exit_3_without_output(tmp_path, capsys, case):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    params, adam, header = load_checkpoint(ckpt)
    if case == "head.bias missing":
        for store in (params, adam.m, adam.v):
            del store["head.bias"]
    else:
        params["head.bias"] = np.zeros(3)
    save_checkpoint(ckpt, params, adam, header["config"], header["rng"],
                    header["train_step"], losses=header["losses"])
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
                    {"learning_rate": "x"}, {"batch_size": 2.5}, {"denoiser": {"ffn_dim": "8"}},
                    # A rate of 0 trains nothing and a negative one climbs the loss; a
                    # negative interval would save every few steps (``step % -3 == 0``).
                    {"learning_rate": 0.0}, {"learning_rate": -1e-3}, {"checkpoint_every": -1}]


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
    params = {**params, "head.bias": np.full(4, np.nan)}
    save_checkpoint(ckpt, params, adam, header["config"], header["rng"], header["train_step"],
                    losses=header["losses"])
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


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    data = synth(tmp_path)
    ckpt = train(tmp_path, data)
    out = tmp_path / "bad.json"
    assert run(sample_args(ckpt, out, seed=seed)) == 3
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


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


def features_file(tmp_path, name, feature_dim):
    """A dataset file of four layouts whose elements carry ``feature_dim`` features."""
    doc = {"canvas": {"width": 100, "height": 100}, "feature_dim": feature_dim,
           "layouts": [{"id": f"f{i}", "elements": [
               {"feature": [0.1 * (i + k)] * feature_dim, "bbox": [20 + 10 * k, 30, 10, 10]}
               for k in range(n)]} for i, n in enumerate((2, 3, 1, 2))]}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_sample_continuous_conditions_file(tmp_path, capsys):
    data = features_file(tmp_path, "features.json", 3)
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

    wrong_dim = features_file(tmp_path, "features2.json", 2)
    code = run(["sample", "--checkpoint", str(ckpt), "--conditions", str(wrong_dim),
                "--seed", "5", "-o", str(tmp_path / "bad.json")])
    assert code == 3
    assert "expected [n, 3] features" in capsys.readouterr().err


def test_float32_runs_on_continuous_features_stay_float32(tmp_path):
    data = features_file(tmp_path, "features.json", 2)
    ckpt = train(tmp_path, data, steps=2, extra=["--precision", "float32"])
    assert run(["sample", "--checkpoint", str(ckpt), "--conditions", str(data),
                "--seed", "5", "-o", str(tmp_path / "s.json")]) == 0
    resumed = tmp_path / "resumed.ckpt"
    assert run(["train", "--dataset", str(data), "--checkpoint", str(resumed),
                "--resume", str(ckpt), "--max-steps", "4"]) == 0
    for path in (ckpt, resumed):
        params, adam, header = load_checkpoint(path)
        assert header["precision"] == "float32"
        for arrays in (params, adam.m, adam.v):
            assert {arr.dtype for arr in arrays.values()} == {np.dtype(np.float32)}


REFUSED_COMMANDS = [
    ("sample --labels from a continuous checkpoint",
     ["sample", "--checkpoint", "{continuous_ckpt}", "--labels", "0,1"],
     "trained on continuous attributes"),
    ("sample with malformed --labels",
     ["sample", "--checkpoint", "{categorical_ckpt}", "--labels", "0,x"], "bad --labels"),
    ("sample --conditions of the other attribute mode",
     ["sample", "--checkpoint", "{categorical_ckpt}", "--conditions", "{continuous}"],
     "attribute mode does not match"),
    ("train with an unreadable --config",
     ["train", "--dataset", "{categorical}", "--checkpoint", "{out}", "--config", "{missing}"],
     "cannot read config"),
    ("train into a missing directory",
     ["train", "--dataset", "{categorical}", "--checkpoint", "{missing}/model.ckpt"],
     "output directory does not exist"),
    ("eval of two attribute modes",
     ["eval", "--generated", "{categorical}", "--reference", "{continuous}"],
     "attribute modes differ"),
    ("eval --frechet trivial on continuous layouts",
     ["eval", "--generated", "{continuous}", "--reference", "{continuous}",
      "--frechet", "trivial"], "trivial features require categorical layouts"),
    ("eval --frechet files with one feature file",
     ["eval", "--generated", "{categorical}", "--reference", "{categorical}",
      "--frechet", "files", "--features-generated", "{categorical}"],
     "needs --features-generated and --features-reference"),
    ("eval with an unreadable feature file",
     ["eval", "--generated", "{categorical}", "--reference", "{categorical}",
      "--frechet", "files", "--features-generated", "{missing}",
      "--features-reference", "{missing}"], "cannot read feature file"),
    ("eval with a feature file without features",
     ["eval", "--generated", "{categorical}", "--reference", "{categorical}",
      "--frechet", "files", "--features-generated", "{categorical}",
      "--features-reference", "{categorical}"], "must contain a 'features' matrix"),
    ("eval with a feature file of numeric strings",
     ["eval", "--generated", "{categorical}", "--reference", "{categorical}",
      "--frechet", "files", "--features-generated", "{string_features}",
      "--features-reference", "{string_features}"], "string_features.json: features must be"),
    ("eval with a feature file of bools",
     ["eval", "--generated", "{categorical}", "--reference", "{categorical}",
      "--frechet", "files", "--features-generated", "{bool_features}",
      "--features-reference", "{bool_features}"], "bool_features.json: features must be"),
    ("eval --frechet trivial with an empty generated file",
     ["eval", "--generated", "{empty}", "--reference", "{categorical}", "--frechet", "trivial"],
     "evaluation needs non-empty collections"),
    ("eval --frechet trivial with an empty reference file",
     ["eval", "--generated", "{categorical}", "--reference", "{empty}", "--frechet", "trivial"],
     "evaluation needs non-empty collections"),
    ("synth of more elements than a dataset file may hold",
     ["synth", "--classes", "2", "--min-elements", "37", "--max-elements", "40", "--seed", "1"],
     "need integers 1 <= min <= max <= 36"),
]


@pytest.mark.parametrize("argv, message", [case[1:] for case in REFUSED_COMMANDS],
                         ids=[case[0] for case in REFUSED_COMMANDS])
def test_a_refused_command_exits_3_naming_the_problem_without_output(tmp_path, capsys, argv,
                                                                     message):
    paths = {"categorical": synth(tmp_path), "missing": tmp_path / "missing",
             "continuous": features_file(tmp_path, "features.json", 2), "out": tmp_path / "out"}
    for name, value in (("string_features", "1"), ("bool_features", True)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"features": [[value, value]] * 4}))
    paths["empty"] = tmp_path / "empty.json"
    paths["empty"].write_text(json.dumps({**json.loads(paths["categorical"].read_text()),
                                          "layouts": []}))
    for mode in ("categorical", "continuous"):
        if f"{{{mode}_ckpt}}" in argv:
            paths[f"{mode}_ckpt"] = train(tmp_path, paths[mode], steps=1, name=f"{mode}.ckpt")
    outputs = {"sample": ["--seed", "1", "-o", "{out}"], "eval": ["-o", "{out}"], "train": [],
               "synth": ["-o", "{out}"]}
    before = sorted(tmp_path.rglob("*"))
    argv = [arg.format(**paths) for arg in argv + outputs[argv[0]]]
    assert run(argv) == 3
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


UNREAD_FLAGS = [
    ("sample --num-samples with --conditions",
     ["sample", "--checkpoint", "{missing}", "--conditions", "{missing}", "--num-samples", "5",
      "--seed", "1", "-o", "{out}"], "--num-samples"),
    ("eval --features-generated without --frechet",
     ["eval", "--generated", "{missing}", "--reference", "{missing}", "--features-generated",
      "{missing}", "-o", "{out}"], "--features-generated"),
    ("eval --features-reference with --frechet trivial",
     ["eval", "--generated", "{missing}", "--reference", "{missing}", "--frechet", "trivial",
      "--features-reference", "{missing}", "-o", "{out}"], "--features-reference"),
    ("train --resume with --config and config flags",
     ["train", "--dataset", "{missing}", "--checkpoint", "{out}", "--resume", "{missing}",
      "--learning-rate", "0.5", "--d-model", "64", "--config", "{missing}"],
     "refused: --config --d-model --learning-rate\n"),
]


@pytest.mark.parametrize("argv, flag", [case[1:] for case in UNREAD_FLAGS],
                         ids=[case[0] for case in UNREAD_FLAGS])
def test_a_flag_the_command_would_ignore_is_a_usage_error_before_any_file(tmp_path, capsys,
                                                                          argv, flag):
    paths = {"missing": tmp_path / "missing", "out": tmp_path / "out"}
    with pytest.raises(SystemExit) as exc:
        run([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


RESUME_REFUSED = [*zip(TRAIN_FLAGS[::2], TRAIN_FLAGS[1::2]), ("--activation", "relu"),
                  ("--positional-encoding", None), ("--beta-start", "1e-4"),
                  ("--beta-end", "0.02"), ("--precision", "float64"),
                  ("--checkpoint-every", "2"), ("--config", "config.json")]


def test_train_resume_refuses_each_config_flag_it_would_ignore(tmp_path, capsys):
    args = vars(cli.build_parser().parse_args(["train", "--dataset", "d", "--checkpoint", "c"]))
    fields = {f.name for cls in (DenoiserConfig, DiffusionConfig, TrainConfig)
              for f in dataclasses.fields(cls)}
    assert ({flag[2:].replace("-", "_") for flag, _ in RESUME_REFUSED}
            == (args.keys() & fields) - {"max_steps"} | {"config"})
    data = synth(tmp_path)
    ckpt = train(tmp_path, data, steps=2)
    (tmp_path / "config.json").write_text("{}")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    resume = ["train", "--dataset", str(data), "--checkpoint", str(ckpt), "--resume", str(ckpt),
              "--max-steps", "3"]
    for flag, value in RESUME_REFUSED:
        with pytest.raises(SystemExit) as exc:
            run([*resume, flag, *([] if value is None else [value])])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"refused: {flag}\n"), flag
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
    assert run(resume) == 0
    assert load_checkpoint(ckpt)[2]["train_step"] == 3


def test_sample_refuses_more_labels_than_a_layout_holds(tmp_path, capsys):
    ckpt = train(tmp_path, synth(tmp_path), steps=1)
    before = sorted(tmp_path.iterdir())
    too_many = ",".join(["1"] * 37)
    assert run(sample_args(ckpt, tmp_path / "s.json", labels=too_many)) == 3
    assert "--labels has 37 labels, limit is 36" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    # 36 labels make a file that the other commands read back.
    out = tmp_path / "s36.json"
    assert run(sample_args(ckpt, out, labels=",".join(["1"] * 36))) == 0
    assert run(["render", "--input", str(out), "--index", "1", "-o",
                str(tmp_path / "one.svg")]) == 0
    assert run(["eval", "--generated", str(out), "--reference", str(out)]) == 0


def test_sample_labels_draws_one_layout_without_num_samples(tmp_path):
    ckpt = train(tmp_path, synth(tmp_path), steps=1)
    out = tmp_path / "s.json"
    assert run(["sample", "--checkpoint", str(ckpt), "--labels", "0,1", "--seed", "1",
                "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["layouts"]) == 1


def test_eval_self_comparison(tmp_path, capsys):
    data = synth(tmp_path)
    report_path = tmp_path / "report.json"
    code = run(["eval", "--generated", str(data), "--reference", str(data),
                "-o", str(report_path)])
    assert code == 0
    capsys.readouterr()
    # Without -o the same report goes to stdout.
    assert run(["eval", "--generated", str(data), "--reference", str(data)]) == 0
    assert capsys.readouterr().out == report_path.read_text()
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


class HalfWrite:
    """A text file whose write stores half of the text and then fails, like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("command", ["eval", "render"])
def test_a_failed_report_or_svg_write_leaves_the_previous_file(tmp_path, monkeypatch, command):
    data = synth(tmp_path, layouts=3)
    if command == "eval":
        out = tmp_path / "report.json"
        argv = ["eval", "--generated", str(data), "--reference", str(data), "-o", str(out)]
    else:
        out = tmp_path / "layout.svg"
        argv = ["render", "--input", str(data), "--index", "0", "-o", str(out)]
    assert run(argv) == 0
    before = out.read_bytes()
    real_open = open
    monkeypatch.setattr(cli, "open", lambda path, mode="r": (HalfWrite(real_open(path, mode))
                                                             if "w" in mode
                                                             else real_open(path, mode)),
                        raising=False)
    assert run(argv) == 3
    monkeypatch.undo()
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([data.name, out.name])


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


def layouts_with_ids(tmp_path, ids):
    doc = {"canvas": {"width": 100, "height": 100}, "labels": ["text"],
           "layouts": [{"id": lid, "elements": [{"label": 0, "bbox": [50, 50, 20, 10]}]}
                       for lid in ids]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("ids, culprit", [
    (["a", "../escaped", "b"], "../escaped"), (["a", "dup", "dup"], "dup"),
    (["/abs/escaped"], "/abs/escaped"), ([""], ""), (["a", "."], "."), ([".."], ".."),
    (["nul\0id"], "nul\0id"), (["a/b"], "a/b")])
def test_render_refuses_an_id_that_is_no_unique_file_name(tmp_path, capsys, ids, culprit):
    path = layouts_with_ids(tmp_path, ids)
    assert run(["render", "--input", str(path), "-o", str(tmp_path / "renders")]) == 3
    assert f"error: layout {culprit!r}: its id is" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


def test_render_index_mode_writes_any_id_to_the_output_path(tmp_path):
    path = layouts_with_ids(tmp_path, ["a", "../escaped"])
    assert run(["render", "--input", str(path), "--index", "1",
                "-o", str(tmp_path / "one.svg")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "one.svg"]


def test_render_bad_index(tmp_path, capsys):
    data = synth(tmp_path, layouts=3)
    code = run(["render", "--input", str(data), "--index", "99",
                "-o", str(tmp_path / "x.svg")])
    assert code == 3
