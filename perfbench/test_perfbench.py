"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench

Each workload runs end to end and traced, and a wrong exit code or a
corrupted report must be counted as a failed invocation, not pass.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import trace_child

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke(workload: str, trace: int = 0) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]


def last_result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_and_reports_every_metric(workload, trace, capsys):
    code = bench.main(smoke(workload, trace))
    result = last_result(capsys)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace else "end_to_end"
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK[section]
    ]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _truncate(work):
    path = work / "report.json"
    path.write_text(path.read_text()[:-40])


def _shift_rct_estimate(work):
    path = work / "report.json"
    report = json.loads(path.read_text())
    report["methods"]["rct"]["per_treatment"]["1"]["estimate"] += 1e-6
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("corrupt", [_truncate, _shift_rct_estimate])
@pytest.mark.parametrize("bad_index", [0, 1])
def test_corrupted_report_counts_as_failure(corrupt, bad_index, monkeypatch, capsys):
    real_launch, seen = bench.launch, []

    def launch(argv, work, env, timeout):
        invocation = real_launch(argv, work, env, timeout)
        if len(seen) == bad_index:
            corrupt(work)
        seen.append(invocation)
        return invocation

    monkeypatch.setattr(bench, "launch", launch)
    assert bench.main(smoke("run-tall")) == 1
    result = last_result(capsys)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(seen) >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_exit_code_counts_as_failure(workload, monkeypatch, capsys):
    real_launch, seen = bench.launch, []

    def launch(argv, work, env, timeout):
        invocation = real_launch(argv, work, env, timeout)
        if not seen:
            invocation.exit_code = 1
        seen.append(invocation)
        return invocation

    monkeypatch.setattr(bench, "launch", launch)
    assert bench.main(smoke(workload)) == 1
    output = capsys.readouterr().out.strip().splitlines()
    result = json.loads(output[-1])
    assert result["failed"] == 1 and result["attempted"] == len(seen)
    assert f"ratio (1 of {len(seen)})" in output[-2]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *smoke("run-tall")],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_self_time_subtracts_child_spans():
    trace = {"spans": [["a", 0, 10, -1], ["b", 2, 5, 0], ["c", 6, 7, 0], ["b", 3, 4, 1]]}
    self_s, calls = bench.self_times(trace)
    assert self_s == pytest.approx({"a": 6e-9, "b": 3e-9, "c": 1e-9}, rel=1e-12)
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_every_timed_layer_metric_has_a_span():
    spans = {name for name, *_ in trace_child.SPANS}
    timed = {m["name"].rpartition(".")[0] for m in BENCHMARK["per_layer"]
             if m["name"].endswith(".self_s")}
    assert timed <= spans


def test_workloads_match_benchmark_json():
    if str(bench.SRC) not in sys.path:
        sys.path.insert(0, str(bench.SRC))
    import workloads

    assert list(workloads.workloads()) == WORKLOADS == list(workloads.workloads(smoke=True))


def test_upper_quartile_interpolates_between_samples():
    assert bench.upper_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == 4.0
    assert bench.upper_quartile([1.0, 2.0]) == pytest.approx(1.75)
    assert bench.upper_quartile([7.0]) == 7.0


def test_warns_when_the_run_limit_cuts_the_minimum(monkeypatch, capsys):
    real_launch = bench.launch
    monkeypatch.setattr(bench, "launch", lambda argv, work, env, timeout: real_launch(argv, work, env, 60))
    monkeypatch.setattr(bench, "RUN_LIMIT_S", 0)
    assert bench.main(smoke("run-wide")) == 0
    captured = capsys.readouterr()
    assert "warning: only 1 untraced invocations" in captured.err
    assert json.loads(captured.out.strip().splitlines()[-1])["attempted"] == 1
