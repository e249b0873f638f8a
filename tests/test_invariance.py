"""Metamorphic invariances of ``finitepop run`` that hold today, pinned byte for byte.

A run report depends on the populations as multisets of records: shuffling the
records of both CSVs changes nothing, and neither does doubling both populations
with each record repeated under a new id (every mean, share and propensity is
the same, and exactly rounded sums of doubled terms double exactly).
"""

import random

import pytest

from finitepop.cli import main
from finitepop.io import save_future_csv, save_observed_csv
from finitepop.simulate import ScenarioSpec, generate

SPEC = ScenarioSpec(
    n_observed=48, n_future=30, levels=("a", "b", "c", "d"),
    base_outcomes=(("a", (6.0, 10.0)), ("b", (2.0, 4.0)), ("c", (1.0, 3.5)), ("d", (5.0, 5.5))),
    noise_sd=1.5, assignment="balanced", future_outcome_shift=(("a", 0.75), ("c", -0.5)),
    future_level_weights=(("a", 1.0), ("b", 3.0), ("c", 2.0), ("d", 1.0)), seed=11,
)
PARTITION = "schema: 1\ncells:\n  ab: [{level: a}, {level: b}]\n  cd: [{level: c}, {level: d}]\n"
PREDICTOR = "schema: 1\nentries:\n" + "".join(
    f"  - {{x: {{level: {lv}}}, t: {t}, p: {p}}}\n"
    for lv, t, p in (("a", 0, 5.5), ("a", 1, 9.25), ("b", 0, 2.5), ("b", 1, 3.0),
                     ("c", 0, 0.75), ("c", 1, 4.0), ("d", 0, 6.0), ("d", 1, 5.0))
)
METHODS = ("methods: [rct, matching, {{name: coarsened, partition: {part}}},"
           " {{name: plugin, predictor: {pred}, partition: {part}}},"
           " {{name: dr, predictor: {pred}}}]\n")


def shuffled(records: list[str]) -> list[str]:
    out = list(records)
    random.Random(7).shuffle(out)
    return out


def doubled(records: list[str]) -> list[str]:
    """Each record, then each again under its id plus 10,000."""
    copies = [f"{int(r.split(',', 1)[0]) + 10_000},{r.split(',', 1)[1]}" for r in records]
    return records + copies


def run(tmp_path, name: str, observed: list[str], future: list[str], mode: str):
    """The exit code and report bytes of a run of every point method on these records."""
    d = tmp_path / name
    d.mkdir()
    (d / "observed.csv").write_text("\n".join(observed) + "\n")
    (d / "future.csv").write_text("\n".join(future) + "\n")
    (d / "part.yaml").write_text(PARTITION)
    (d / "pred.yaml").write_text(PREDICTOR)
    (d / "run.yaml").write_text(
        f"schema: 1\nmode: {mode}\nobserved: {d / 'observed.csv'}\nfuture: {d / 'future.csv'}\n"
        f"out: {d / 'r.json'}\n" + METHODS.format(part=d / "part.yaml", pred=d / "pred.yaml"))
    code = main(["run", "--config", str(d / "run.yaml")])
    return code, (d / "r.json").read_bytes()


@pytest.mark.parametrize("transform", [shuffled, doubled], ids=["shuffled", "doubled"])
@pytest.mark.parametrize("mode", ["data", "oracle"])
def test_a_run_report_depends_on_the_records_as_a_multiset(tmp_path, mode, transform):
    scenario = generate(SPEC)
    save_observed_csv(scenario.observed, tmp_path / "observed.csv")
    save_future_csv(scenario.future, tmp_path / "future.csv")
    (obs_head, *obs), (fut_head, *fut) = (
        (tmp_path / f"{side}.csv").read_text().splitlines() for side in ("observed", "future"))
    code, report = run(tmp_path, "base", [obs_head, *obs], [fut_head, *fut], mode)
    assert code in (0, 1) and report.count(b'"estimate"') == 5 * 3  # APO at 0, 1 and the ATE
    assert (b'"verdicts"' in report) == (mode == "oracle")
    got = run(tmp_path, "changed", [obs_head, *transform(obs)], [fut_head, *transform(fut)], mode)
    assert got == (code, report)
