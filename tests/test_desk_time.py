import ast
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("desk_time",
                                              os.path.join(ROOT, "tools", "desk_time.py"))
desk_time = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(desk_time)


def test_phases_are_the_argument_lists_of_the_desk_fixture():
    with open(os.path.join(ROOT, "tests", "test_acceptance.py")) as fh:
        tree = ast.parse(fh.read())
    fixture = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "desk_run")
    calls = [node for node in ast.walk(fixture) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "run_cli"]
    calls.sort(key=lambda node: node.lineno)
    assert [ast.literal_eval(call.args[0]) for call in calls] == list(desk_time.PHASES.values())
    assert list(desk_time.PHASES) == [args[0] for args in desk_time.PHASES.values()]


def run(pair, side, wall, loss_ratio):
    phases = {phase: {"wall_s": wall, "cpu_s": 2 * wall, "maxrss_mb": 50.0, "minflt": 1000}
              for phase in desk_time.PHASES}
    return {"pair": pair, "side": side, "phases": phases,
            "quality": {"loss_ratio": loss_ratio, "rule_fraction": 1.0,
                        "alignment_ratio": 0.78}}


def test_summary_gives_each_side_its_quartiles_per_phase_and_quantity():
    runs = [run(0, "parent", 10.0, 0.03), run(0, "change", 8.0, 0.025),
            run(1, "change", 9.0, 0.025), run(1, "parent", 12.0, 0.03),
            run(2, "parent", 11.0, 0.03), run(2, "change", 7.0, 0.025)]
    summary = desk_time.summarize(runs)
    train = summary["phases"]["train"]
    assert set(train) == set(desk_time.MEASURES)
    assert train["wall_s"]["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert train["wall_s"]["change"] == {"median": 8.0, "q1": 7.5, "q3": 8.5}
    assert train["cpu_s"]["change"]["median"] == 16.0
    assert summary["quality"]["loss_ratio"]["parent"]["median"] == pytest.approx(0.03)
    assert summary["quality"]["loss_ratio"]["floor"] == 0.10
    assert summary["quality"]["rule_fraction"]["floor"] == 0.99
    assert summary["quality"]["alignment_ratio"]["floor"] == 1.0


def test_a_phase_reports_wait4_usage_and_a_failure_names_the_command(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    args = ["synth", "--rule", "grid_by_label", "--layouts", "4", "--classes", "3",
            "--seed", "1", "-o", "small.json"]
    measures = desk_time.run_phase(args, str(tmp_path), env)
    assert set(measures) == set(desk_time.MEASURES)
    assert measures["wall_s"] > 0 and measures["cpu_s"] > 0
    assert measures["maxrss_mb"] > 1 and measures["minflt"] > 0
    assert (tmp_path / "small.json").exists()
    with pytest.raises(SystemExit, match="eval exited with code"):
        desk_time.run_phase(["eval", "--generated", "missing.json", "--reference",
                             "small.json", "-o", "r.json"], str(tmp_path), env)
