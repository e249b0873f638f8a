"""The CSV readers against their ``csv.DictReader`` references, and the writers against
their ``csv.writer`` references.

``csv_reference`` keeps the readers that turn every record into a dict and
build one ``Covariate`` per row.  On CSV text whose every nonblank record has
the header's cell count, both must load equal datasets (signed zeros
included), or fail with the same message.  A record with another cell count
is a schema error naming its line, unless an earlier record already failed.  Both
writers must write the reference's bytes.
"""

import csv
import io
import re

import csv_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop.core import Covariate, FuturePopulation, ObservedDataset, SchemaError
from finitepop.io import load_future_csv, load_observed_csv, save_future_csv, save_observed_csv

EXAMPLES = settings(max_examples=200, deadline=None)
OBSERVED_COLUMNS = ("id", "t", "y", "z", "xc_a", "xc_b", "xn_v", "xn_w")
FUTURE_COLUMNS = ("id", "xc_a", "xn_v", "xn_w", "y_t0", "y_t1", "s_z0", "s_z1")
CELLS = (  # any cell: many are invalid in some column
    "0", "1", "2", "-0", "+1", " 1", "1.0", "0.0", "-0.0", "2.5", "1e3", "-7.25",
    "nan", "inf", "-inf", "NaN", "abc", "", "a,b", 'x"y', "a\nb",
)
VALID = {  # valid cells by column kind: signed zeros and integer-looking numbers included
    "int": ("0", "1", "-0", "+1", " 1"),
    "num": ("0", "-0", "0.0", "-0.0", "1", "1.0", "2.5", "1e3", "-7.25"),
    "str": ("a", "b", "", "a,b", 'x"y', "a\nb", "1"),
}


def kind(column: str) -> str:
    if column in ("t", "z") or column.startswith("s_z"):
        return "int"
    return "str" if column.startswith("xc_") else "num"


@st.composite
def csv_texts(draw, columns) -> str:
    """Mostly loadable CSV text: now and then a column is missing or repeated, a cell is
    invalid, an id repeats, a record has a cell too few or too many."""
    required = columns[: 3 if columns is OBSERVED_COLUMNS else 1]
    header = [c for c in columns if draw(st.integers(0, 19 if c in required else 1))]
    header += draw(st.lists(st.sampled_from(columns), max_size=1))
    header = draw(st.permutations(header))
    records = []
    for i in range(draw(st.integers(0, 6))):
        record = []
        for c in header:
            if draw(st.integers(0, 14)) == 0:
                record.append(draw(st.sampled_from(CELLS)))
            elif c == "id":
                record.append(str(i) if draw(st.integers(0, 9)) else "0")
            else:
                record.append(draw(st.sampled_from(VALID[kind(c)])))
        if draw(st.integers(0, 9)) == 0:
            record = record[:-1] if record and draw(st.booleans()) else record + ["1"]
        records.append(record)
    buf = io.StringIO()
    quoting = draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
    csv.writer(buf, quoting=quoting, lineterminator="\n").writerows([header, *records])
    lines = buf.getvalue().split("\n")
    for _ in range(draw(st.integers(0, 3))):  # blank lines, anywhere after the header
        lines.insert(draw(st.integers(1, len(lines))), "")
    return "\n".join(lines)


def first_misshapen_record(text: str) -> int | None:
    """The physical line on which the first nonblank record whose cell count differs from
    the header's starts."""
    rows = csv.reader(io.StringIO(text, newline=""))
    header = next(rows, [])
    start = rows.line_num + 1
    for record in rows:
        if record and len(record) != len(header):
            return start
        start = rows.line_num + 1
    return None


def outcome(load, path):
    try:
        return load(path)
    except SchemaError as exc:
        return ("SchemaError", str(exc), exc.path)
    except ValueError as exc:
        return (type(exc).__name__, str(exc), None)


def assert_matches_reference(load, load_ref, text, path, shown):
    path.write_text(text, encoding="utf-8")
    got, want = outcome(load, path), outcome(load_ref, path)
    bad = first_misshapen_record(text)
    if bad is None:
        if isinstance(want, tuple) and want[0] == "SchemaError":
            assert got == want
        elif isinstance(want, tuple):  # the reference lets a ValueError escape
            assert got == ("SchemaError", want[1], str(path))
        else:
            assert got == want and shown(got) == shown(want)
        return
    assert isinstance(got, tuple) and got[0] == "SchemaError" and got[2] == str(path)
    failed_at = isinstance(want, tuple) and want[0] == "SchemaError" and re.match(
        r"line (\d+): ", want[1])
    if failed_at and int(failed_at[1]) < bad:
        assert got == want
    else:
        assert got[1].startswith(f"line {bad}: ") and " cells where the header has " in got[1]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@EXAMPLES
@given(text=csv_texts(OBSERVED_COLUMNS))
def test_observed_reader_matches_reference(csv_path, text):
    assert_matches_reference(
        load_observed_csv, ref.load_observed_csv, text, csv_path,
        lambda d: (repr(d.rows), d.treatments),
    )


@EXAMPLES
@given(text=csv_texts(FUTURE_COLUMNS))
def test_future_reader_matches_reference(csv_path, text):
    assert_matches_reference(
        load_future_csv, ref.load_future_csv, text, csv_path,
        lambda f: repr((f.units, f.outcomes, f.compliance)),
    )


@pytest.mark.parametrize("text", [
    "id,t,y,xn_v\n1,1,2.5,-0.0\n2,0,1.5,0\n3,1,2.0,0.0\n4,0,1.0,-0\n",
    'id,t,y,xc_a\n"1","1","2.5","a,b"\n\n2,0,1.5,"a,b"\n3,1,1.0,"x\ny"\n4,0,1.0,"x\ny"\n',
])
def test_shared_covariates_keep_each_raw_value(csv_path, text):
    csv_path.write_text(text, encoding="utf-8")
    got, want = load_observed_csv(csv_path), ref.load_observed_csv(csv_path)
    assert got == want and repr(got.rows) == repr(want.rows)


CELL_TEXTS = ("", " ", " a ", "a", "a,b", 'x"y', '"', "a\nb", "a\r\nb", "\r", "é", "日本", "\u2028")
TEXTS = st.sampled_from(CELL_TEXTS) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
NUMBERS = st.sampled_from((-0.0, 0.0, 1e16, 5e-324, -1.5, 1.0)) | st.floats(allow_nan=False)
REALS = st.sampled_from((-0.0, 0.0, 1e16, 5e-324, 2.5)) | st.floats()


@st.composite
def populations(draw):
    """(observed data, future population) sharing 1 to 3 covariate columns, each of strings or
    of numbers; the data with or without z, the future with no oracle, with outcomes only or
    with outcomes and compliance."""
    kinds = draw(st.dictionaries(st.sampled_from("abc"), st.sampled_from((TEXTS, NUMBERS)),
                                 min_size=1, max_size=3))
    values = draw(st.lists(st.fixed_dictionaries(kinds), min_size=1, max_size=4))
    values = [Covariate.of(**fields) for fields in values]
    n, m = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    codes = st.integers(0, len(values) - 1)
    t = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    z = draw(st.none() | st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    data = ObservedDataset.from_columns(
        draw(st.permutations(range(n))), values, draw(st.lists(codes, min_size=n, max_size=n)),
        t, draw(st.lists(REALS, min_size=n, max_size=n)), z, frozenset({0, 1, 2}))
    oracle = draw(st.sampled_from(("none", "outcomes", "both")))
    outcomes = compliance = None
    if oracle != "none":
        outcomes = {t: draw(st.lists(REALS, min_size=m, max_size=m)) for t in (0, 1)}
    if oracle == "both":
        compliance = {z: draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)) for z in (0, 1)}
    future = FuturePopulation.from_columns(
        range(-m, 0), values, draw(st.lists(codes, min_size=m, max_size=m)), outcomes, compliance)
    return data, future


@EXAMPLES
@given(pops=populations())
def test_writers_write_the_reference_bytes(csv_path, pops):
    data, future = pops
    want = csv_path.with_name("reference.csv")
    for save, save_ref, pop in ((save_observed_csv, ref.save_observed_csv, data),
                                (save_future_csv, ref.save_future_csv, future)):
        save(pop, csv_path)
        save_ref(pop, want)
        assert csv_path.read_bytes() == want.read_bytes()
