import re

import pytest
from fixtures import XA, XB, p8_future, p8_observed

from finitepop.core import Covariate, FuturePopulation, ObservedDataset, Row, SchemaError, Unit
from finitepop.io import (
    load_future_csv,
    load_observed_csv,
    save_future_csv,
    save_observed_csv,
)


def test_observed_roundtrip(tmp_path):
    d = p8_observed()
    path = tmp_path / "obs.csv"
    save_observed_csv(d, path)
    assert load_observed_csv(path).rows == d.rows


def test_observed_roundtrip_with_instrument(tmp_path):
    d = p8_observed(with_instrument=True)
    path = tmp_path / "obs.csv"
    save_observed_csv(d, path)
    back = load_observed_csv(path)
    assert back.has_instrument
    assert back.rows == d.rows


def test_future_roundtrip(tmp_path):
    f = p8_future()
    path = tmp_path / "fut.csv"
    save_future_csv(f, path)
    back = load_future_csv(path)
    assert back.apo(1) == 7.0
    assert back.ate() == 3.0
    assert [u.x for u in back.units] == [u.x for u in f.units]


def test_future_roundtrip_keeps_every_oracle_column(tmp_path):
    units = (Unit(11, XA), Unit(12, XB))
    f = FuturePopulation(
        units,
        outcomes={2: [5.0, -0.0], 0: [1.0, 2.0], 1: [3.0, 4.5]},
        compliance={1: [2, 0], 0: [0, 1]},
    )
    path = tmp_path / "fut.csv"
    save_future_csv(f, path)
    assert path.read_text().splitlines()[0] == "id,xc_level,y_t0,y_t1,y_t2,s_z0,s_z1"
    back = load_future_csv(path)
    assert back == f and repr(back.outcomes) == repr(f.outcomes)


def test_a_repeated_oracle_key_keeps_its_last_column(tmp_path):
    path = tmp_path / "fut.csv"
    path.write_text("id,xc_level,y_t1,y_t01\n11,a,1.0,2.0\n")
    assert load_future_csv(path).outcomes == {1: (2.0,)}
    path.write_text("id,xc_level,y_t1,y_t01\n11,a,x,2.0\n")
    with pytest.raises(SchemaError, match="line 2: column y_t1: not a number"):
        load_future_csv(path)


def test_missing_header_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,treat,y\n1,1,2.0\n")
    with pytest.raises(SchemaError, match="line 1"):
        load_observed_csv(path)


def test_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,t,y\n1,1,2.0\n2,1,not_a_number\n")
    with pytest.raises(SchemaError, match="line 3"):
        load_observed_csv(path)


def test_bad_covariate_number_reports_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,t,y,xn_age\n1,1,2.0,forty\n")
    with pytest.raises(SchemaError, match="xn_age"):
        load_observed_csv(path)


def test_empty_observed_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,t,y\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_observed_csv(path)


def test_future_requires_id(tmp_path):
    path = tmp_path / "fut.csv"
    path.write_text("xc_level,y_t0\na,1.0\n")
    with pytest.raises(SchemaError, match="line 1"):
        load_future_csv(path)


def test_future_without_oracle_columns(tmp_path):
    path = tmp_path / "fut.csv"
    path.write_text("id,xc_level\n11,a\n12,b\n")
    back = load_future_csv(path)
    assert back.outcomes is None
    assert len(back) == 2


def test_float_precision_survives_roundtrip(tmp_path):
    from finitepop.core import Covariate, ObservedDataset, Row

    y = 1.0 / 3.0
    d = ObservedDataset(
        (Row(1, Covariate.of(v=0.1), 1, y), Row(2, Covariate.of(v=0.1), 0, 2.0))
    )
    path = tmp_path / "obs.csv"
    save_observed_csv(d, path)
    assert load_observed_csv(path).rows[0].y == y


@pytest.mark.parametrize("where, text", [
    ("line 3: column y:", "id,t,y,xn_age\n1,1,2.0,40\n2,0,nan,41\n"),
    ("line 2: column y:", "id,t,y,xn_age\n1,1,inf,40\n"),
    ("line 3: column xn_age:", "id,t,y,xn_age\n1,1,2.0,40\n2,0,1.0,-inf\n"),
])
def test_non_finite_observed_value_rejected_with_line_and_column(tmp_path, where, text):
    path = tmp_path / "obs.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=where):
        load_observed_csv(path)


def test_non_finite_oracle_value_rejected(tmp_path):
    path = tmp_path / "fut.csv"
    path.write_text("id,xc_level,y_t0,y_t1\n11,a,1.0,2.0\n12,b,3.0,NaN\n")
    with pytest.raises(SchemaError, match="line 3: column y_t1:") as info:
        load_future_csv(path)
    assert info.value.path == str(path)


def test_save_observed_csv_reads_has_instrument_once_per_call(tmp_path):
    from finitepop.core import ObservedDataset

    reads = []

    class Counting(ObservedDataset):
        @property
        def has_instrument(self):
            reads.append(1)
            return super().has_instrument

    d = p8_observed(with_instrument=True)
    counting = Counting(d.rows, d.treatments)
    save_observed_csv(counting, tmp_path / "a.csv")
    save_observed_csv(counting, tmp_path / "b.csv")
    assert len(reads) == 2 and len(d.rows) > 1
    assert load_observed_csv(tmp_path / "a.csv").rows == d.rows


@pytest.mark.parametrize("load, text, message", [
    pytest.param(load_observed_csv, "id,t,y,xc_level\n1,1,2.5,a\n2,0,1.5,a\n3,1,2.5\n",
                 "line 4: 3 cells where the header has 4", id="observed-short"),
    pytest.param(load_observed_csv, "id,t,y,xc_level\n1,1,2.5,a\n2,0,1.5,a,b\n",
                 "line 3: 5 cells where the header has 4", id="observed-long"),
    pytest.param(load_future_csv, "id,xc_level,y_t0,y_t1\n11,a,1.0\n",
                 "line 2: 3 cells where the header has 4", id="future-short"),
    pytest.param(load_future_csv, "id,xc_level,y_t0,y_t1\n11,a,1.0,2.0,3.0\n",
                 "line 2: 5 cells where the header has 4", id="future-long"),
    pytest.param(load_future_csv, "id,xc_level\n11,a\n11,b\n", "unit ids must be unique",
                 id="future-duplicate-id"),
    pytest.param(load_future_csv, "id,xc_level,y_tx\n11,a,1.0\n",
                 "line 1: column y_tx: 'x' is not an integer", id="future-oracle-column"),
    # a line is the physical line where the record starts
    pytest.param(load_observed_csv, "id,t,y\n\n1,1,x\n", "line 3: column y: not a number: 'x'",
                 id="after-blank-line"),
    pytest.param(load_observed_csv, 'id,t,y,xc_a\n1,1,2.0,"a\nb"\n2,0,x,a\n',
                 "line 4: column y: not a number: 'x'", id="after-quoted-cell-spanning-lines"),
    pytest.param(load_observed_csv, 'id,xc_a,t,y\n1,"a\nb",1,x\n',
                 "line 2: column y: not a number: 'x'", id="record-spanning-lines"),
    pytest.param(load_future_csv, 'id,xc_a\n\n1,"a\n\nb"\n2\n',
                 "line 6: 1 cells where the header has 2", id="short-record-after-both"),
])
def test_malformed_records_are_schema_errors_naming_the_file(tmp_path, load, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as info:
        load(path)
    assert str(info.value) == message and info.value.path == str(path)


def test_blank_lines_are_skipped(tmp_path):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("id,t,y,xc_level\n1,1,2.5,a\n2,0,1.5,a\n")
    blank.write_text("id,t,y,xc_level\n\n1,1,2.5,a\n\n\n2,0,1.5,a\n\n")
    assert load_observed_csv(blank) == load_observed_csv(plain)


def test_one_covariate_per_distinct_raw_value(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("id,t,y,xn_v\n1,1,2.5,1\n2,0,1.5,1\n3,1,2.0,1.0\n4,0,1.0,-0.0\n5,1,1.0,0.0\n")
    xs = [r.x for r in load_observed_csv(path).rows]
    assert xs[0] is xs[1] and xs[1] is not xs[2] and xs[1] == xs[2]
    assert [x.get("v") for x in xs] == [1.0, 1.0, 1.0, -0.0, 0.0]
    assert repr(xs[3]) == "Covariate(v=-0.0)"


@pytest.mark.parametrize("second", [Covariate.of(age=3.0), Covariate.of(level=3.0),
                                    Covariate.of(level="b", age=3.0)])
def test_writers_reject_mixed_covariate_columns_before_opening_the_file(tmp_path, second):
    xs = (Covariate.of(level="a"), Covariate.of(level="b"), second, second)
    observed = ObservedDataset(tuple(Row(i, x, i % 2, 1.0) for i, x in enumerate(xs, 1)))
    future = FuturePopulation(tuple(Unit(i, x) for i, x in enumerate(xs, 1)))
    for save, population in ((save_observed_csv, observed), (save_future_csv, future)):
        path = tmp_path / "mixed.csv"
        with pytest.raises(ValueError, match=rf"^unit 3: covariate {re.escape(repr(second))} "):
            save(population, path)
        assert not path.exists()


def test_generate_readers_writers_and_methods_leave_rows_and_units_unbuilt(tmp_path):
    """The hot paths work on columns: no ``Row`` or ``Unit`` view is built."""
    from finitepop.audit import audit_compliance_stability, audit_dominance
    from finitepop.cli import run_methods
    from finitepop.core import CovariatePartition
    from finitepop.estimate import Tabular
    from finitepop.simulate import InstrumentSpec, ScenarioSpec, generate

    levels = ("a", "b", "c")
    scenario = generate(ScenarioSpec(
        n_observed=60, n_future=60, levels=levels, noise_sd=1.0, shared_unit_noise=True,
        base_outcomes=tuple((lv, (2.0 + i, 4.0 + i)) for i, lv in enumerate(levels)),
        instrument=InstrumentSpec(), seed=3,
    ))
    save_observed_csv(scenario.observed, tmp_path / "o.csv")
    save_future_csv(scenario.future, tmp_path / "f.csv")
    loaded = (load_observed_csv(tmp_path / "o.csv"), load_future_csv(tmp_path / "f.csv"))
    xs = [Covariate.of(level=lv) for lv in levels]
    files = {("partition", "p.yaml"): CovariatePartition.from_members({"ab": xs[:2], "c": xs[2:]}),
             ("predictor", "q.yaml"): Tabular({(x, t): 3.0 for x in xs for t in (0, 1)})}
    cfg = {"methods": [
        "rct", "matching", {"name": "coarsened", "partition": "p.yaml"},
        {"name": "plugin", "predictor": "q.yaml", "partition": "p.yaml"},
        {"name": "dr", "predictor": "q.yaml"}, {"name": "iv_lower", "eps": 0.1, "delta": 0.1},
        {"name": "rm_bounds", "k0": 0.0, "k1": 10.0, "delta": 5.0},
    ]}
    for data, future in ((scenario.observed, scenario.future), loaded):
        report = run_methods(cfg, data, future, loaded=files)
        assert len(report["methods"]) == 7
        audit_dominance(future)
        audit_compliance_stability(data, future)
        assert "rows" not in vars(data) and "units" not in vars(future)
    assert loaded == (scenario.observed, scenario.future)
