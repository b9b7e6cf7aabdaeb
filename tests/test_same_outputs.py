import importlib.util
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("same_outputs",
                                              os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)


@pytest.fixture(scope="module")
def this_run(tmp_path_factory):
    """The matrix run once on this checkout."""
    out = tmp_path_factory.mktemp("this")
    same_outputs.run_matrix(ROOT, out)
    return out


def test_a_checkout_against_itself_is_byte_identical(this_run, tmp_path):
    same_outputs.run_matrix(ROOT, tmp_path)
    count, difference = same_outputs.compare(this_run, tmp_path)
    assert difference is None
    assert count == len(same_outputs.walk(this_run)) > 40
    # Every step ran and exited 0.
    for step, _, _ in same_outputs.MATRIX:
        assert (tmp_path / f"{step}.log").read_text().startswith("exit 0\n"), step


def test_one_changed_constant_is_reported_at_the_first_checkpoint(this_run, tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "src"), checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    optim = checkout / "src" / "layoutdiffusion" / "optim.py"
    text = optim.read_text()
    assert "BETA1, BETA2, EPS = 0.9," in text
    optim.write_text(text.replace("BETA1, BETA2, EPS = 0.9,", "BETA1, BETA2, EPS = 0.8,"))
    changed = tmp_path / "changed"
    changed.mkdir()
    same_outputs.run_matrix(checkout, changed)
    _, difference = same_outputs.compare(this_run, changed)
    assert difference.startswith("04-cat.ckpt: differs at byte ")


def test_a_failing_step_is_an_error_that_shows_its_log(tmp_path):
    checkout = tmp_path / "checkout"
    package = checkout / "src" / "layoutdiffusion"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print('no such command')\n"
                                    "    return 3\n")
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(same_outputs.MatrixError, match="no such command"):
        same_outputs.run_matrix(checkout, out)


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_compare_names_the_file_and_byte_offset_of_the_first_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    files = {"01-x.json": b"abcdef", "02-dir/y.svg": b"0123456789", "03-z.log": b"same"}
    write_tree(a, files)
    write_tree(b, {**files, "02-dir/y.svg": b"0123456X89", "03-z.log": b"SAME"})
    count, difference = same_outputs.compare(a, b)
    assert count == 3
    assert difference.startswith("02-dir/y.svg: differs at byte 7 ")
    # Exempting that file moves the report on to the next one.
    assert same_outputs.compare(a, b, ["02-dir/y.svg"])[1].startswith(
        "03-z.log: differs at byte 0 ")
    assert same_outputs.compare(a, b, ["02-dir/y.svg", "03-z.log"]) == (1, None)


def test_compare_counts_a_missing_or_truncated_file_as_a_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"01-x": b"abc", "02-y": b"abc"})
    write_tree(b, {"01-x": b"abcd", "03-z": b"abc"})
    assert same_outputs.compare(a, b)[1].startswith("01-x: differs at byte 3 ")
    assert same_outputs.compare(a, b, ["01-x"])[1] == "02-y: missing in the change run"
    assert same_outputs.compare(a, b, ["01-x", "02-y"])[1] == "03-z: missing in the parent run"
    assert same_outputs.compare(a, b, ["01-x", "02-y", "03-z"]) == (0, None)


def test_main_prints_the_verdict_and_exits_nonzero_on_a_difference(tmp_path, capsys,
                                                                   monkeypatch):
    outputs = {"parent": b"abc", "change": b"abd"}

    def fake_run(checkout, workdir):
        with open(os.path.join(workdir, "01-out"), "wb") as fh:
            fh.write(outputs[checkout])

    monkeypatch.setattr(same_outputs, "run_matrix", fake_run)
    assert same_outputs.main(["--parent", "parent", "--change", "change"]) == 1
    assert capsys.readouterr().out.startswith("01-out: differs at byte 2 ")
    assert same_outputs.main(["--parent", "parent", "--change", "change",
                              "--expect-changed", "01-out"]) == 0
    assert capsys.readouterr().out == "byte-identical (0 files)\n"
    outputs["change"] = b"abc"
    assert same_outputs.main(["--parent", "parent", "--change", "change"]) == 0
    assert capsys.readouterr().out == "byte-identical (1 files)\n"
