"""tools/bench_pairs.py: the summary every BENCH_*.json records."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRIC = {"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.25}


def ok(value):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_ref_s": {"value": value, "unit": "s"}}}


def failed():
    # what perfbench() records for a run that printed no JSON line
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "exit_code": 1}


def summary(parent, change, better="lower"):
    entry = {"runs": {"parent": parent, "change": change}}
    bench_pairs.summarize(entry, [{**METRIC, "better": better}])
    return entry


def test_stats_linear_quartiles_and_empty():
    assert bench_pairs.stats([4.0, 1.0, 3.0, 2.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4}
    assert bench_pairs.stats([]) == {"median": None, "q1": None, "q3": None, "runs": 0}


def test_summarize_tie_counts_for_neither_side():
    entry = summary([ok(1.0), ok(2.0), ok(3.0)], [ok(1.0), ok(1.5), ok(4.0)])
    s = entry["summary"]["wall_ref_s"]
    assert s["change_wins"] == "1/3"  # pair 1 tied, pair 2 won, pair 3 lost
    assert s["median_ratio_change_over_parent"] == pytest.approx(1.5 / 2.0)
    assert entry["correct"] == {"parent": True, "change": True}
    assert entry["cells_failed"] == {"parent": "0/9", "change": "0/9"}


def test_summarize_failed_run_lowers_runs_and_correct():
    entry = summary([ok(1.0), ok(2.0), ok(3.0)], [ok(0.5), failed(), ok(2.0)])
    s = entry["summary"]["wall_ref_s"]
    assert (s["parent"]["runs"], s["change"]["runs"]) == (3, 2)
    assert s["change"]["median"] == 1.25
    assert s["change_wins"] == "2/2"  # the failed run's pair counts for no one
    assert entry["correct"] == {"parent": True, "change": False}
    assert entry["cells_failed"] == {"parent": "0/9", "change": "0/6"}


def test_summarize_higher_is_better_flips_wins():
    parent, change = [ok(1.0), ok(2.0), ok(3.0)], [ok(1.0), ok(1.5), ok(1.8)]
    assert summary(parent, change, "lower")["summary"]["wall_ref_s"]["change_wins"] == "2/3"
    higher = summary(parent, change, "higher")["summary"]["wall_ref_s"]
    assert higher["change_wins"] == "0/3"
    assert higher["better"] == "higher"
    assert summary(change, parent, "higher")["summary"]["wall_ref_s"]["change_wins"] == "2/3"


def test_line_counts_per_module_sum_to_src_lines(tmp_path):
    pkg = tmp_path / "src" / "anonlearn"
    pkg.mkdir(parents=True)
    (pkg / "b.py").write_text("x = 1\ny = 2\n")
    (pkg / "a.py").write_text("z = 3\nno trailing newline")
    (pkg / "notes.txt").write_text("not a module\n")
    assert bench_pairs.module_lines(tmp_path) == {"a.py": 1, "b.py": 2}
    assert list(bench_pairs.module_lines(tmp_path)) == ["a.py", "b.py"]
    assert bench_pairs.src_lines(tmp_path) == 3


def test_failures_name_each_workload_and_side_with_a_bad_run():
    doc = {"workloads": {
        "a/seed0": {"runs": {"parent": [ok(1.0), ok(2.0)], "change": [ok(1.0), failed()]}},
        "b/seed0": {"runs": {"parent": [{**ok(1.0), "failed": 1}], "change": [ok(1.0)]}},
        "c/seed0": {"runs": {"parent": [ok(1.0)], "change": [ok(1.0)]}},
    }}
    assert bench_pairs.failures(doc) == ["a/seed0 change", "b/seed0 parent"]
    assert bench_pairs.failures({"workloads": {}}) == []


def test_gain_rule_needs_ten_pairs_nine_wins_and_more_than_the_parent_iqr():
    def met(parent, change, better="lower"):
        entry = summary([ok(v) for v in parent], [ok(v) for v in change], better)
        return entry["summary"]["wall_ref_s"]["gain_rule_met"]

    parent = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, q1 1.0225, q3 1.0675
    assert met(parent, [v - 0.1 for v in parent])  # 10/10, medians 0.1 apart
    assert not met(parent[:9], [v - 0.1 for v in parent[:9]])  # 9/9: too few pairs
    assert met(parent, [v - 0.1 for v in parent[:9]] + [2.0])  # 9/10
    assert not met(parent, [v - 0.1 for v in parent[:8]] + [2.0, 2.0])  # 8/10
    assert not met(parent, [v - 0.04 for v in parent])  # 10/10, within the IQR 0.045
    assert not met(parent, [v + 0.1 for v in parent])  # worse, by more than the IQR
    assert met(parent, [v + 0.1 for v in parent], "higher")
    entry = summary([ok(v) for v in parent], [ok(v - 0.1) for v in parent[:9]] + [failed()])
    assert entry["summary"]["wall_ref_s"]["change_wins"] == "9/9"
    assert entry["summary"]["wall_ref_s"]["gain_rule_met"]  # 9 of the 10 pairs run
    entry = summary([ok(v) for v in parent], [ok(v - 0.1) for v in parent[:8]] + [failed()] * 2)
    assert not entry["summary"]["wall_ref_s"]["gain_rule_met"]  # 8 of 10
    assert summary([], [])["summary"]["wall_ref_s"]["gain_rule_met"] is False


def test_environment_records_machine_once_and_bytecode_writes(monkeypatch):
    env = {"cpu_model": "x", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "other": 1}
    doc = {"parent": {}}
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench_pairs.record_environment(doc, "parent", env)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    bench_pairs.record_environment(doc, "parent", {**env, "nproc": 4})  # a later run's line
    assert doc == {"parent": {}, "machine": {"cpu_model": "x", "nproc": 2},
                   "PYTHONDONTWRITEBYTECODE": True, "python": "3.11.7", "numpy": "2.4.6"}
    for value, was_set in ((None, False), ("", False), ("x", True)):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        doc = {"change": {}}
        bench_pairs.record_environment(doc, "change", env)
        assert doc["PYTHONDONTWRITEBYTECODE"] is was_set


def test_src_sha256_is_the_one_a_sides_environment_line_reports(monkeypatch, tmp_path):
    def fake_run(stdout):
        return lambda *args, **kwargs: subprocess.CompletedProcess(args, 0, stdout, "")

    env = {"cpu_model": "x", "src_sha256": "ab" * 32}
    stdout = f"environment: {json.dumps(env)}\n{json.dumps(ok(1.0))}\n"
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run(stdout))
    line, reported = bench_pairs.perfbench(tmp_path, "w", 0, 1.0)
    assert (line, reported) == (ok(1.0), env)
    doc = {"parent": {"src_lines": 3}, "change": {"src_lines": 4}}
    bench_pairs.record_environment(doc, "change", reported)
    assert doc["change"] == {"src_lines": 4, "src_sha256": "ab" * 32}
    assert doc["parent"] == {"src_lines": 3}
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run(""))  # a run that printed nothing
    line, reported = bench_pairs.perfbench(tmp_path, "w", 0, 1.0)
    assert (line["correct"], reported) == (False, {})
    bench_pairs.record_environment(doc, "change", reported)
    assert doc["change"]["src_sha256"] == "ab" * 32
