"""The summary of ``scripts/bench_pairs.py`` on fixed numbers, the host it records, and a
stopped run."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "units_per_s", "better": "higher", "bound": 0.25}]


def pairs_of(base, change, name="wall_s"):
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


def test_quartiles_and_wins_of_a_lower_is_better_metric():
    base = [0.60, 0.62, 0.64, 0.66, 0.61, 0.63, 0.65, 0.67, 0.60, 0.62]
    change = [0.50, 0.52, 0.54, 0.56, 0.51, 0.53, 0.55, 0.57, 0.60, 0.70]
    s = bench_pairs.summarize(pairs_of(base, change), METRICS[:1])["wall_s"]
    assert s["base"]["median"] == pytest.approx(0.625)
    assert (s["base"]["q1"], s["base"]["q3"]) == (pytest.approx(0.6125), pytest.approx(0.6475))
    assert s["change"]["median"] == pytest.approx(0.545)
    assert s["change_wins"] == 8  # one tie (0.60) and one loss
    assert s["median_gap"] == pytest.approx(0.08) and s["base_iqr"] == pytest.approx(0.035)
    assert not s["claim_holds"]  # 8 wins of 10 are fewer than 9


def test_the_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_spread():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    s = bench_pairs.summarize(pairs_of(base, [b - 0.5 for b in base]), METRICS[:1])["wall_s"]
    assert s["change_wins"] == 10 and s["median_gap"] == pytest.approx(0.5)
    assert s["base_iqr"] == pytest.approx(0.45) and s["claim_holds"]
    s = bench_pairs.summarize(pairs_of(base, [b - 0.4 for b in base]), METRICS[:1])["wall_s"]
    assert s["change_wins"] == 10 and not s["claim_holds"]  # gap 0.4 within spread 0.45


def test_higher_is_better_metrics_count_a_larger_value_as_a_win():
    base = [100.0, 100.0, 100.0]
    change = [120.0, 100.0, 90.0]
    s = bench_pairs.summarize(pairs_of(base, change, "units_per_s"), METRICS[1:])["units_per_s"]
    assert s["change_wins"] == 1 and s["median_gap"] == 0.0 and not s["claim_holds"]


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]  # (q3 - q1) / median 0.015
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]  # (q3 - q1) / median 0.35


@pytest.mark.parametrize("base, change, result", [
    pytest.param(TIGHT, [b * 1.25 for b in TIGHT], "within bound", id="worse-by-the-bound"),
    pytest.param(TIGHT, [b * 0.5 for b in TIGHT], "within bound", id="better"),
    pytest.param(TIGHT, [b * 1.3 for b in TIGHT], "worse", id="worse-beyond-a-tight-spread"),
    pytest.param(WIDE, WIDE, "unresolved", id="the-same-within-a-wide-spread"),
    pytest.param(WIDE, [b + 1.0 for b in WIDE], "unresolved", id="worse-within-a-wide-spread"),
    pytest.param(WIDE, [b * 0.3 for b in WIDE], "within bound", id="every-change-run-better"),
])
def test_the_no_regression_rule_of_a_lower_is_better_metric(base, change, result):
    s = bench_pairs.summarize(pairs_of(base, change), METRICS[:1])["wall_s"]
    assert s["no_regression"] == result and s["bound"] == 0.25


@pytest.mark.parametrize("factor, result", [(0.8, "within bound"), (0.7, "worse")])
def test_the_no_regression_rule_of_a_higher_is_better_metric(factor, result):
    base = [100 * b for b in TIGHT]
    pairs = pairs_of(base, [b * factor for b in base], "units_per_s")
    s = bench_pairs.summarize(pairs, METRICS[1:])["units_per_s"]
    assert s["no_regression"] == result


def test_one_pair_has_no_spread():
    s = bench_pairs.summarize(pairs_of([2.0], [1.0]), METRICS[:1])["wall_s"]
    assert (s["base"]["q1"], s["base"]["median"], s["base"]["q3"]) == (2.0, 2.0, 2.0)
    assert s["change_wins"] == 1 and s["claim_holds"]


@pytest.mark.parametrize("value, compiles", [("1", True), ("x", True), ("", False), (None, False)])
def test_the_host_records_whether_cli_runs_compile_their_imports(monkeypatch, value, compiles):
    """Python writes no bytecode when PYTHONDONTWRITEBYTECODE is set to a nonempty value."""
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    got = bench_pairs.host()
    assert got["pythondontwritebytecode"] is compiles
    assert sorted(got) == ["nproc", "numpy", "python", "pythondontwritebytecode"]
    assert got["python"] == sys.version.split()[0] and got["nproc"] >= 1


def _perfbench_child(pid: int, deadline: float) -> int:
    """The pid of the perfbench run that process ``pid`` started, once it runs."""
    while time.monotonic() < deadline:
        for kid in Path(f"/proc/{pid}/task/{pid}/children").read_text().split():
            try:
                if b"perfbench/run.py" in Path(f"/proc/{kid}/cmdline").read_bytes():
                    return int(kid)
            except FileNotFoundError:  # a git call that ended meanwhile
                pass
        time.sleep(0.05)
    raise AssertionError("no perfbench run started")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads children from /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
def test_a_stopped_run_stops_its_perfbench_run_and_removes_its_tree(tmp_path, signum):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--base", "HEAD", "--workload", "simulate-iv",
         "--seed", "1", "--pairs", "1", "--seconds", "30"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        child = _perfbench_child(proc.pid, time.monotonic() + 60)
        assert [p.name for p in tmp_path.iterdir()][0].startswith("bench-base-")
        time.sleep(0.5)  # into set-up or the timed invocations
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == 128 + signum, err
    assert not Path(f"/proc/{child}").exists()
    assert list(tmp_path.iterdir()) == []
