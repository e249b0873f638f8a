"""Record-by-record reference implementations of the CSV readers and writers.

Each reader here turns every data record into a dict, as ``csv.DictReader``
does, and builds one ``Covariate`` per row.  That is slow but easy to check by
eye.  ``test_csv_differential.py`` asserts that the readers in
``finitepop.io`` load what these load, and fail with the same message where
these raise a ``SchemaError``.  These readers never check a record's cell
count: a short record fills its missing cells with ``None`` and a long one
drops its extra cells.  A line number is the physical line where the record
starts.

Each writer here hands every record, as a list of cells, to ``csv.writer``;
the writers in ``finitepop.io`` must write the same bytes.
"""

from __future__ import annotations

import csv
import functools
import math
from itertools import zip_longest
from pathlib import Path

from fixtures import columns

import finitepop.io
from finitepop.core import (
    Covariate,
    FuturePopulation,
    ObservedDataset,
    Row,
    SchemaError,
    Unit,
)


def _names_file(load):
    @functools.wraps(load)
    def wrapper(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except SchemaError as exc:
            exc.path = str(path)
            raise

    return wrapper


def _records(reader, header: list[str]):
    """(line, record) for each nonblank record that ``reader`` has left: the physical line the
    record starts on, and its cells by column name, where the last of repeated names holds."""
    start = reader.line_num + 1
    for row in reader:
        if row:
            yield start, dict(zip_longest(header, row[: len(header)]))
        start = reader.line_num + 1


def _covariate_columns(header: list[str]) -> list[str]:
    return [c for c in header if c.startswith("xc_") or c.startswith("xn_")]


def _parse_covariate(record: dict[str, str], cov_cols: list[str], line: int) -> Covariate:
    fields: dict[str, str | float] = {}
    for col in cov_cols:
        raw = record[col]
        name = col[3:]
        fields[name] = raw if col.startswith("xc_") else _parse_float(record, col, line)
    return Covariate.of(**fields)


def _parse_int(record: dict[str, str], col: str, line: int) -> int:
    try:
        return int(record[col])
    except (ValueError, TypeError):
        raise SchemaError(f"line {line}: column {col}: not an integer: {record.get(col)!r}") from None


def _parse_float(record: dict[str, str], col: str, line: int) -> float:
    try:
        value = float(record[col])
    except (ValueError, TypeError):
        raise SchemaError(f"line {line}: column {col}: not a number: {record.get(col)!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"line {line}: column {col}: not a finite number: {record[col]!r}")
    return value


@_names_file
def load_observed_csv(path: str | Path, treatments: frozenset[int] | None = None) -> ObservedDataset:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for required in ("id", "t", "y"):
            if required not in header:
                raise SchemaError(f"line 1: observed CSV header must contain {required!r}, got {header}")
        cov_cols = _covariate_columns(header)
        has_z = "z" in header
        rows = []
        for line, record in _records(reader, header):
            rows.append(
                Row(
                    unit=_parse_int(record, "id", line),
                    x=_parse_covariate(record, cov_cols, line),
                    t=_parse_int(record, "t", line),
                    y=_parse_float(record, "y", line),
                    z=_parse_int(record, "z", line) if has_z else None,
                )
            )
    if not rows:
        raise SchemaError("observed CSV has no data rows")
    if treatments is None:
        treatments = frozenset({0, 1} | {r.t for r in rows})
    try:
        return ObservedDataset(tuple(rows), treatments)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


@_names_file
def load_future_csv(path: str | Path) -> FuturePopulation:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if "id" not in header:
            raise SchemaError(f"line 1: future CSV header must contain 'id', got {header}")
        cov_cols = _covariate_columns(header)
        y_cols = {c: int(c[3:]) for c in header if c.startswith("y_t")}
        s_cols = {c: int(c[3:]) for c in header if c.startswith("s_z")}
        units = []
        outcomes: dict[tuple[int, int], float] = {}
        compliance: dict[tuple[int, int], int] = {}
        for line, record in _records(reader, header):
            unit = _parse_int(record, "id", line)
            units.append(Unit(unit, _parse_covariate(record, cov_cols, line)))
            for col, t in y_cols.items():
                outcomes[(unit, t)] = _parse_float(record, col, line)
            for col, z in s_cols.items():
                compliance[(unit, z)] = _parse_int(record, col, line)
    if not units:
        raise SchemaError("future CSV has no data rows")
    return FuturePopulation(
        tuple(units),
        outcomes=columns(units, outcomes),
        compliance=columns(units, compliance),
    )


def _cells(pop) -> list[list[str]]:
    return [[v if isinstance(v, str) else repr(v) for _, v in x.items] for x in pop.values]


def save_observed_csv(data: ObservedDataset, path: str | Path) -> None:
    has_z = data.has_instrument
    header = ["id", "t", "y"] + (["z"] if has_z else []) + finitepop.io._covariate_columns(data)
    heads = zip(data.ids, data.t, map(repr, data.y), *([data.z] if has_z else []))
    cells = _cells(data)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([*head, *cells[code]] for head, code in zip(heads, data.codes))


def save_future_csv(future: FuturePopulation, path: str | Path) -> None:
    outcomes, compliance = future.outcomes or {}, future.compliance or {}
    header = ["id"] + finitepop.io._covariate_columns(future)
    header += [f"y_t{t}" for t in outcomes] + [f"s_z{z}" for z in compliance]
    cells = _cells(future)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([unit, *cells[code], *oracle] for unit, code, *oracle
                         in zip(future.ids, future.codes, *outcomes.values(), *compliance.values()))
