import math

import covariate_reference as reference
import pytest
from fixtures import XA, XB, p8_future, p8_observed
from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop.core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    OracleError,
    Row,
    SupportError,
    Unit,
    approx_eq,
    average,
    common_support_check,
    empirical_propensity,
    fsum,
    mean_of,
)
from finitepop.estimate import exact_matching_estimate


def test_approx_eq_is_strict():
    assert not approx_eq(1.0, 1.0, 0.0)
    assert approx_eq(3.0, 3.4, 0.5)
    assert not approx_eq(3.0, 3.5, 0.5)


def test_approx_eq_rejects_negative_eps():
    with pytest.raises(ValueError):
        approx_eq(0.0, 0.0, -1.0)


def test_covariate_normalizes_field_order():
    assert Covariate.of(a=1, b="x") == Covariate.of(b="x", a=1.0)


def test_covariate_rejects_bool_fields():
    with pytest.raises(ValueError):
        Covariate.of(flag=True)


def test_covariate_numeric_equality_is_bitwise():
    assert Covariate.of(v=0.1 + 0.2) != Covariate.of(v=0.3)


def test_treatment_partition():
    """The outcome groups of the treatments hold every row once."""
    d = p8_observed()
    groups = [ys for t in sorted(d.treatments) for ys in d.ys(t).values()]
    assert sorted(y for ys in groups for y in ys) == sorted(d.y)


def test_duplicate_unit_ids_rejected():
    r = Row(unit=1, x=XA, t=1, y=2.0)
    with pytest.raises(ValueError):
        ObservedDataset((r, r))


def test_declared_treatment_set_enforced():
    with pytest.raises(ValueError):
        ObservedDataset((Row(unit=1, x=XA, t=3, y=2.0),))


def test_empirical_propensity_p8():
    d = p8_observed()
    prop = empirical_propensity(d, 1)
    assert prop == {XA: 0.5, XB: 0.5}


def test_propensities_sum_to_one_per_x():
    d = p8_observed()
    for x in d.xs():
        total = math.fsum(empirical_propensity(d, t)[x] for t in sorted(d.treatments))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_empty_treated_cell_gives_zero_propensity():
    rows = (
        Row(unit=1, x=XA, t=0, y=1.0),
        Row(unit=2, x=XB, t=1, y=2.0),
        Row(unit=3, x=XB, t=0, y=3.0),
    )
    d = ObservedDataset(rows)
    assert empirical_propensity(d, 1)[XA] == 0.0


def test_common_support_p8_ok():
    report = common_support_check(p8_observed())
    assert report.ok
    assert report.violations == ()


def test_common_support_missing_control():
    d = p8_observed()
    rows = tuple(r for r in d.rows if r.unit != 2)  # drop the control at x=a
    report = common_support_check(ObservedDataset(rows))
    assert not report.ok
    assert report.violations == ((repr(XA), 0),)


def test_common_support_empty_dataset():
    report = common_support_check(ObservedDataset(()))
    assert not report.ok
    assert report.note is not None


def test_mean_of_empty_errors():
    with pytest.raises(SupportError):
        mean_of(())


def test_a_sum_of_infinities_of_both_signs_is_arithmetic():
    with pytest.raises(ArithmeticError, match="-inf \\+ inf in fsum") as info:
        fsum([math.inf, 1.0, -math.inf])
    assert not isinstance(info.value, ValueError)
    with pytest.raises(OverflowError):
        fsum([1e308, 1e308])
    with pytest.raises(ArithmeticError):
        average(lambda x: math.inf if x == XA else -math.inf, {XA: 1, XB: 1})


def test_a_value_error_of_the_averaged_function_stays_one():
    def cell(x):
        raise ValueError(f"covariate {x!r} lies in no partition cell")
    with pytest.raises(ValueError, match="lies in no partition cell"):
        average(cell, {XA: 2})


def test_partition_cells_must_be_exhaustive():
    part = CovariatePartition.from_members({"only_a": [XA]})
    with pytest.raises(ValueError):
        part.cell_of(XB)


def test_partition_singletons_and_single_cell():
    part = CovariatePartition.singletons([XA, XB, XA])
    assert len(part.cells) == 2
    whole = CovariatePartition.from_members({"all": [XA, XB]})
    assert whole.cell_of(XA).name == whole.cell_of(XB).name == "all"


def test_partition_rejects_a_value_listed_in_two_cells():
    with pytest.raises(ValueError, match=r"Covariate\(level='b'\) is listed in cells 'p' and 'q'"):
        CovariatePartition.from_members({"p": [XA, XB], "q": [XB]})
    # of several shared values the first in repr order is named, whatever the set order
    with pytest.raises(ValueError, match=r"Covariate\(level='a'\) is listed in cells 'p' and 'q'"):
        CovariatePartition.from_members({"p": [XA, XB], "q": [XB, XA]})
    many = [Covariate.of(level=f"v{i:02d}") for i in range(40)]
    with pytest.raises(ValueError, match=r"Covariate\(level='v00'\) is listed in cells 'p' and 'q'"):
        CovariatePartition.from_members({"p": many, "q": many[::-1]})


def test_partitions_with_different_members_are_unequal():
    one = CovariatePartition.from_members({"p": [XA], "q": [XB]})
    assert one == CovariatePartition.from_members({"p": [XA], "q": [XB]})
    assert one != CovariatePartition.from_members({"p": [XB], "q": [XA]})
    assert hash(one) == hash(CovariatePartition.from_members({"p": [XA], "q": [XB]}))


def test_partition_groups_keep_order_and_leave_out_uncovered_values():
    xc = Covariate.of(level="c")
    part = CovariatePartition.from_members({"p": [XA, XB], "q": [], "r": [xc]})
    assert part.groups([XB, xc, Covariate.of(level="d"), XA]) == {
        "p": [XB, XA], "q": [], "r": [xc]
    }
    assert part.cell_of(XB).name == "p"
    with pytest.raises(ValueError, match="lies in no partition cell"):
        part.cell_of(Covariate.of(level="d"))


def test_partition_groups_partition_the_data():
    d = p8_observed()
    part = CovariatePartition.singletons(d.xs())
    members = list(part.groups(d.xs()).values())
    assert sorted(x for xs in members for x in xs) == list(d.xs())
    assert sum(d.n_x[x] for xs in members for x in xs) == len(d)


def test_oracle_reads_are_stable():
    f = p8_future()
    assert f.y(11, 1) == f.y(11, 1) == 10.0


def test_oracle_columns_answer_y_and_s():
    units = (Unit(11, XA), Unit(12, XB))
    f = FuturePopulation(units, {1: [10.0, 4.0]}, {0: [1, 0]})
    assert f.require_oracle() is f and f.require_compliance() is f
    assert (f.y(12, 1), f.s(11, 0)) == (4.0, 1)
    assert f.outcomes == {1: (10.0, 4.0)}
    for read in (lambda: f.y(12, 0), lambda: f.y(13, 1), lambda: f.s(11, 1),
                 lambda: f.s(13, 0), lambda: f.ys(0)):
        with pytest.raises(OracleError, match="undefined at"):
            read()
    bare = FuturePopulation(units)
    with pytest.raises(OracleError, match="requires the outcome oracle"):
        bare.y(11, 1)
    with pytest.raises(OracleError, match="requires the compliance oracle"):
        bare.s(11, 0)


@pytest.mark.parametrize("oracle, read, message", [
    ("none", "y", "operation requires the outcome oracle (oracle mode only)"),
    ("none", "s", "operation requires the compliance oracle (oracle mode only)"),
    ("other_key", "y", "outcome oracle undefined at t=0"),
    ("other_key", "s", "compliance oracle undefined at z=0"),
    ("unit", "y", "oracle undefined at unit=13: not in the future population"),
    ("unit", "s", "oracle undefined at unit=13: not in the future population"),
])
def test_a_missing_oracle_read_names_the_first_missing_part(oracle, read, message):
    """No oracle, then an unknown t or z, then an unknown unit: a read missing several
    parts names the first.  Each read asks for t or z = 0 of unit 13, which is not there."""
    units = (Unit(11, XA), Unit(12, XB))
    columns = {"none": None, "other_key": {1: [1, 0]}, "unit": {0: [1, 0]}}[oracle]
    f = FuturePopulation(units, columns, columns)
    with pytest.raises(OracleError) as info:
        getattr(f, read)(13, 0)
    assert str(info.value) == message


@pytest.mark.parametrize("name, columns, message", [
    ("outcomes", {0: [1.0]}, "outcomes column 0 has 1 values for 2 units"),
    ("compliance", {1: [0, 1, 1]}, "compliance column 1 has 3 values for 2 units"),
])
def test_oracle_column_length_must_match_the_units(name, columns, message):
    with pytest.raises(ValueError, match=message):
        FuturePopulation((Unit(11, XA), Unit(12, XB)), **{name: columns})


def test_future_population_apo_ate():
    f = p8_future()
    assert f.apo(1) == 7.0
    assert f.apo(0) == 4.0
    assert f.ate() == 3.0


def test_instrument_detection():
    assert not p8_observed().has_instrument
    d = p8_observed(with_instrument=True)
    assert d.has_instrument
    assert d.instrument_values() == (0, 1)


def test_covariates_of_mixed_kinds_sort_numbers_before_strings():
    xa, x3, x1 = Covariate.of(level="a"), Covariate.of(level=3.0), Covariate.of(level=1.0)
    rows = [(xa, 0, 1.0), (xa, 1, 2.0), (x3, 0, 3.0), (x3, 1, 5.0), (x1, 0, 4.0), (x1, 1, 8.0)]
    data = ObservedDataset(tuple(Row(i, x, t, y) for i, (x, t, y) in enumerate(rows)))
    assert data.xs() == (x1, x3, xa)
    assert list(data.n_x) == [x1, x3, xa]
    units = tuple(Unit(10 + i, x) for i, x in enumerate((xa, x3, x1, xa)))
    future = FuturePopulation(units, {0: [1.0] * 4, 1: [2.0] * 4})
    assert future.xs() == (x1, x3, xa)
    assert future.n_x == {x1: 1, x3: 1, xa: 2}
    singletons = CovariatePartition.singletons([xa, x3, x1, xa])
    assert [cell.values for cell in singletons.cells] == [{x1}, {x3}, {xa}]
    assert exact_matching_estimate(data, 1).estimate == (2.0 + 5.0 + 8.0) / 3
    assert sorted([Covariate.of(level="b"), xa]) == [xa, Covariate.of(level="b")]
    assert x1 < x3 < xa and xa > x1 and x3 <= x3


FIELD_VALUES = st.one_of(st.text(max_size=2), st.integers(-2, 2),
                         st.sampled_from([-0.0, 0.0, 0.5, -1.5, 1e300]))
RECORDS = st.dictionaries(st.sampled_from(["a", "b", "level"]), FIELD_VALUES, max_size=3)


def field(x, name: str) -> str:
    """The repr of ``x.get(name)``, or "KeyError"."""
    try:
        return repr(x.get(name))
    except KeyError:
        return "KeyError"


def first_equal(xs) -> list[int]:
    """For each value, the index of the first value equal to it, found through a dict."""
    first: dict = {}
    return [first.setdefault(x, i) for i, x in enumerate(xs)]


@settings(max_examples=300, deadline=None)
@given(st.lists(RECORDS, min_size=1, max_size=10))
def test_covariates_agree_with_the_dataclass_reference(records):
    """Covariates of two separately built populations against the frozen dataclass they once
    were: the same sorted order, equality, order, hash classes, repr and field access."""
    data = ObservedDataset(Row(i, Covariate.of(**f), i % 2, 0.0) for i, f in enumerate(records))
    future = FuturePopulation([Unit(i, Covariate.of(**f)) for i, f in enumerate(records[::-1])])
    new = [r.x for r in data.rows] + [u.x for u in future.units]
    old = [reference.Covariate.of(**f) for f in records + records[::-1]]
    positions = range(len(new))
    assert sorted(positions, key=new.__getitem__) == sorted(positions, key=old.__getitem__)
    assert first_equal(new) == first_equal(old)
    for i in positions:
        assert [(new[i] == y, new[i] < y, new[i] <= y) for y in new] == \
               [(old[i] == y, old[i] < y, old[i] <= y) for y in old]
        assert (repr(new[i]), new[i].names(), new[i].items) == \
               (repr(old[i]), old[i].names(), old[i].items)
        names = ("a", "b", "level", "other")
        assert [field(new[i], n) for n in names] == [field(old[i], n) for n in names]


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b"]), st.one_of(
    FIELD_VALUES, st.booleans(), st.none(), st.just([1]), st.just(10**400)), max_size=2))
def test_covariate_of_fails_as_the_dataclass_reference_does(fields):
    def outcome(of):
        try:
            return repr(of(**fields))
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(Covariate.of) == outcome(reference.Covariate.of)
