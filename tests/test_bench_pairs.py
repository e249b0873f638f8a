"""The summary of ``scripts/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "units_per_s", "better": "higher"}]


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


def test_one_pair_has_no_spread():
    s = bench_pairs.summarize(pairs_of([2.0], [1.0]), METRICS[:1])["wall_s"]
    assert (s["base"]["q1"], s["base"]["median"], s["base"]["q3"]) == (2.0, 2.0, 2.0)
    assert s["change_wins"] == 1 and s["claim_holds"]
