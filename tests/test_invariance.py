"""Metamorphic invariances of ``finitepop run``, pinned byte for byte or bit for bit.

A run report depends on the populations as multisets of records: shuffling the
records of both CSVs changes nothing, and neither does doubling both populations
with each record repeated under a new id (every mean, share and propensity is
the same, and exactly rounded sums of doubled terms double exactly).

Nor does it depend on the unit of the outcomes: multiplying every outcome,
prediction and bound parameter by 2^k scales every number of the report by
exactly 2^k, away from overflow and underflow, and leaves every verdict as it was.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop.cli import ConfigError, PreconditionError, main, run_methods
from finitepop.core import CovariatePartition, FuturePopulation, ObservedDataset
from finitepop.estimate import Tabular
from finitepop.io import save_future_csv, save_observed_csv
from finitepop.simulate import InstrumentSpec, ScenarioSpec, generate

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


def ordinary(lo: float, hi: float):
    """Floats in [lo, hi] that are 0 or at least 2^-20 in magnitude, so that no value, sum
    or difference of them becomes subnormal at 2^-60."""
    return st.floats(lo, hi).filter(lambda v: v == 0 or abs(v) >= 2.0**-20)


@st.composite
def unit_cases(draw):
    """(scenario, method entries, loaded files): an instrumented scenario with a shifted and
    reweighted future, dominance broken or not, every point method with a random predictor
    table and partition, and both bounds with small or zero slack, so verdicts fail too."""
    levels = ("a", "b", "c")[:draw(st.integers(1, 3))]
    per_level = lambda lo, hi: tuple((lv, draw(ordinary(lo, hi))) for lv in levels)  # noqa: E731
    scenario = generate(ScenarioSpec(
        n_observed=draw(st.integers(8 * len(levels), 60)),
        n_future=draw(st.integers(len(levels), 60)),
        levels=levels,
        base_outcomes=tuple((lv, (draw(ordinary(0, 10)), draw(ordinary(0, 10))))
                            for lv in levels),
        noise_sd=draw(st.sampled_from([0.0, 0.5, 2.0])),
        future_level_weights=per_level(0.1, 3.0),
        future_outcome_shift=per_level(-2.0, 2.0),
        instrument=InstrumentSpec(
            z_probability=draw(st.sampled_from([0.3, 0.5, 0.7])),
            take_probability=((0, draw(st.sampled_from([0.1, 0.3]))),
                              (1, draw(st.sampled_from([0.7, 0.9])))),
            dominance_break=draw(st.sampled_from([0.0, 1.0, 3.0]))),
        seed=draw(st.integers(0, 2**31 - 1)),
    ))
    xs = scenario.observed.xs()
    table = Tabular({(x, t): draw(ordinary(-10, 10)) for x in xs for t in (0, 1)})
    cells = draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    members: dict = {}
    for x, c in zip(xs, cells):
        members.setdefault(f"c{c}", []).append(x)
    slack = st.sampled_from([0.0, 0.05, 0.5])
    methods = ["rct", "matching", {"name": "coarsened", "partition": "part"},
               {"name": "plugin", "predictor": "pred", "partition": "part"},
               {"name": "dr", "predictor": "pred"},
               {"name": "rm_bounds", "k0": 0.0, "k1": 10.0, "delta": draw(slack)},
               {"name": "iv_lower", "eps": draw(slack), "delta": draw(slack)}]
    files = {("partition", "part"): CovariatePartition.from_members(members),
             ("predictor", "pred"): table}
    return scenario, methods, files


def scaled_reports(case, f: float) -> list:
    """Each method's run report, or the error it raises, with every outcome, prediction and
    bound parameter times f.  A run exits 1 exactly when some report is not ``ok``."""
    scenario, methods, files = case
    d, fu = scenario.observed, scenario.future
    data = ObservedDataset.from_columns(d.ids, d.values, d.codes, d.t, [y * f for y in d.y],
                                        d.z, d.treatments)
    future = FuturePopulation.from_columns(
        fu.ids, fu.values, fu.codes, {t: [y * f for y in ys] for t, ys in fu.outcomes.items()},
        fu.compliance)
    loaded = {**files, ("predictor", "pred"): Tabular(
        {key: p * f for key, p in files[("predictor", "pred")].table.items()})}
    reports = []
    for entry in methods:
        if isinstance(entry, dict):
            entry = {k: v * f if isinstance(v, float) else v for k, v in entry.items()}
        try:
            reports.append(run_methods({"methods": [entry]}, data, future, loaded=dict(loaded)))
        except (ConfigError, PreconditionError) as exc:
            reports.append(type(exc))
    return reports


def assert_scaled(got, want, f: float, at: str = "report") -> None:
    """``got`` is ``want`` with every float times f, and every other value the same."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), at
        for key in want:
            assert_scaled(got[key], want[key], f, f"{at}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), at
        for i, (g, w) in enumerate(zip(got, want)):
            assert_scaled(g, w, f, f"{at}[{i}]")
    elif isinstance(want, float):
        assert got == want * f, (at, got, want)
    else:
        assert got == want, (at, got, want)


@settings(max_examples=300, deadline=None)
@given(unit_cases(), st.integers(-60, 60))
def test_a_verdict_does_not_depend_on_the_unit_of_the_outcomes(case, k):
    f = math.ldexp(1.0, k)
    assert_scaled(scaled_reports(case, f), scaled_reports(case, 1.0), f)
