import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("bench_pairs",
                                              os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

DECLARED = {"rate": {"unit": "1/s", "better": "higher", "bound": 0.25},
            "rss": {"unit": "MB", "better": "lower", "bound": 0.1}}


def summary(parent, change, failed=(0, 0)):
    """Both declared metrics of each run take the same value; each run attempts
    10 operations, of which the parent's fail ``failed[0]`` and the change's
    ``failed[1]``."""
    runs = [{"pair": pair, "side": side, "metrics": {"rate": value, "rss": value},
             "attempted": 10, "failed": fails}
            for pair, values in enumerate(zip(parent, change))
            for side, value, fails in zip(("parent", "change"), values, failed)]
    return bench_pairs.summarize(runs, DECLARED)


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    s = summary(parent, [p + 20 for p in parent])["rate"]
    assert s["wins"] == 10 and s["gain_holds"] and s["within_bound"]
    assert s["parent"]["median"] == pytest.approx(104.5)
    assert s["gain_pct"] == pytest.approx(100 * 20 / 104.5)

    # Eight wins, one tie, one loss: ties count for neither side.
    change = [p + 20 for p in parent[:8]] + [parent[8], parent[9] - 1]
    s = summary(parent, change)["rate"]
    assert s["wins"] == 8 and not s["gain_holds"]

    # Every pair won, but by less than the parent's interquartile range.
    s = summary(parent, [p + 1 for p in parent])["rate"]
    assert s["wins"] == 10 and not s["gain_holds"]

    # Five pairs won by far are too few to claim a gain.
    s = summary(parent[:5], [p + 20 for p in parent[:5]])["rate"]
    assert s["wins"] == 5 and not s["gain_holds"] and s["within_bound"]


def test_lower_is_better_and_the_bound_is_relative():
    parent = [50.0] * 10
    s = summary(parent, [40.0] * 10)["rss"]
    assert s["wins"] == 10 and s["gain_holds"]
    assert summary(parent, [54.9] * 10)["rss"]["within_bound"]
    assert not summary(parent, [55.1] * 10)["rss"]["within_bound"]


def test_a_larger_failed_share_voids_a_gain():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [p + 20 for p in parent]
    assert summary(parent, change, failed=(1, 1))["rate"]["gain_holds"]
    assert not summary(parent, change, failed=(0, 1))["rate"]["gain_holds"]


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    narrow = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert not summary(narrow, narrow)["rate"]["unresolved"]
    # Interquartile range 100 on a median of 100: wider than both bounds.
    wide = [50, 150] * 5
    s = summary(wide, [100] * 10)
    assert s["rate"]["within_bound"] and s["rate"]["unresolved"]
    assert s["rss"]["within_bound"] and s["rss"]["unresolved"]
    # Unless every change run reads better than every parent run.
    assert not summary(wide, [151] * 10)["rate"]["unresolved"]
    assert not summary(wide, [49] * 10)["rss"]["unresolved"]


def test_tree_digest_names_the_bytes_of_src(tmp_path):
    a = tmp_path / "a"
    (a / "src" / "pkg").mkdir(parents=True)
    (a / "src" / "pkg" / "mod.py").write_bytes(b"x = 1\n")
    (a / "src" / "top.py").write_bytes(b"")
    (a / "README.md").write_text("outside src/")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    (b / "README.md").write_text("other text")
    (b / "src" / "pkg" / "__pycache__").mkdir()
    (b / "src" / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"compiled")
    assert bench_pairs.tree_digest(a) == bench_pairs.tree_digest(b)

    (b / "src" / "pkg" / "mod.py").write_bytes(b"x = 2\n")
    assert bench_pairs.tree_digest(a) != bench_pairs.tree_digest(b)
    (b / "src" / "pkg" / "mod.py").write_bytes(b"x = 1\n")
    (b / "src" / "pkg" / "mod.py").rename(b / "src" / "pkg" / "moe.py")
    assert bench_pairs.tree_digest(a) != bench_pairs.tree_digest(b)


def test_setup_parts_are_read_from_each_result_file_and_summarized_per_side(tmp_path):
    runs = []
    for pair in range(4):
        for side, offset in (("parent", 0.0), ("change", 1.0)):
            checkout = tmp_path / side
            result = checkout / ".bench_build" / "perfbench"
            result.mkdir(parents=True, exist_ok=True)
            (result / f"result-eval-seed{pair}-trace0.json").write_text(json.dumps(
                {"import_s": offset + pair, "setup_runs_s": [9.0, offset + 0.1 * pair, -9.0]}))
            runs.append({"pair": pair, "side": side,
                         "setup_parts": bench_pairs.setup_parts(str(checkout), "eval", pair)})
    assert runs[3]["setup_parts"] == {"import_s": 2.0, "setup_run_s": 1.1}
    parts = bench_pairs.summarize_setup_parts(runs)
    assert parts["import_s"]["parent"] == {"median": 1.5, "q1": 0.75, "q3": 2.25}
    assert parts["import_s"]["change"]["median"] == pytest.approx(2.5)
    assert parts["setup_run_s"]["parent"]["median"] == pytest.approx(0.15)
    assert parts["setup_run_s"]["change"]["median"] == pytest.approx(1.15)


def test_main_adds_its_workload_to_an_out_file_that_holds_other_blocks(tmp_path, monkeypatch):
    def run_once(checkout, workload, seed, seconds):
        value = 2.0 if checkout.endswith("change") else 1.0
        return {"correct": True, "attempted": 10, "failed": 0, "machine": {"cpus": 2},
                "metrics": {"setup_s": value, "layouts_per_s_p10": value, "peak_rss_mb": value},
                "setup_parts": {"import_s": value, "setup_run_s": value}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src").mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), change / "BENCHMARK.json")
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"desk": {"runs": []}}))
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload",
                             "eval", "--pairs", "2", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["desk"] == {"runs": []}
    assert doc["workloads"]["eval"]["summary"]["peak_rss_mb"]["change"]["median"] == 2.0
