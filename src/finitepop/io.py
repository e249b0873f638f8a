"""CSV readers and writers for observed datasets and future populations.

Observed header: ``id,t,y[,z],xc_<name>...,xn_<name>...`` where ``xc_`` columns
are categorical and ``xn_`` columns are numeric.  Future header: ``id`` plus
covariate columns, with optional oracle columns: one ``y_t<k>`` per treatment k
in the outcome oracle and one ``s_z<k>`` per instrument value k in the
compliance oracle, written in key order.  UTF-8 (other bytes are a schema
error), ``.`` decimal separator.  Numbers must be finite.  Blank lines are
skipped; every other record has as many cells as the header.  A schema error
names the file and the line at fault.
"""

from __future__ import annotations

import csv
import functools
import math
from pathlib import Path

from .core import Covariate, FuturePopulation, ObservedDataset, SchemaError


def not_utf8(exc: UnicodeDecodeError) -> str:
    """The message for input bytes that do not decode as UTF-8."""
    return f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"


def _names_file(load):
    """Schema errors and undecodable bytes met while loading a file carry its path."""

    @functools.wraps(load)
    def wrapper(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except SchemaError as exc:
            exc.path = str(path)
            raise
        except UnicodeDecodeError as exc:
            error = SchemaError(not_utf8(exc))
            error.path = str(path)
            raise error from None

    return wrapper


def _table(path: Path, what: str, required: tuple[str, ...], fields_of):
    """The header; the columns that ``fields_of(header)`` names (one record's checks in
    order, as (column, int or float)), converted whole, the numeric covariates aside; and
    the covariate values and each record's code into them.

    A repeated name's last column holds.  Each distinct tuple of raw covariate
    cells gets one code and is parsed once, so ``-0.0`` and ``0.0`` stay apart.
    Where a conversion fails, the first fault in file order is reported at the physical
    line where its record starts; a decode error, once the records before it pass.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        pos = {name: i for i, name in enumerate(header)}
        for name in required:
            if name not in pos:
                raise SchemaError(f"line 1: {what} CSV header must contain {name!r}, got {header}")
        fields, records, stopped = fields_of(header), [], None
        try:
            records.extend(filter(None, reader))
        except UnicodeDecodeError as exc:
            stopped = exc
    cols = [c for c in header if c.startswith(("xc_", "xn_"))]
    columns = numeric = None
    if records and set(map(len, records)) == {len(header)}:
        table = list(zip(*records))
        index: dict[tuple[str, ...], int] = {}
        raw = list(zip(*(table[pos[c]] for c in cols))) or [()] * len(records)
        codes = [index.setdefault(cells, len(index)) for cells in raw]
        columns = _convert(table, [(c, pos[c], kind) for c, kind in fields if c[:3] != "xn_"])
        numeric = _convert(list(zip(*index)), [(c, j, float) for j, c in enumerate(cols)
                                                if c[:3] == "xn_"])
    if columns is None or numeric is None:
        for record, line in zip(records, _record_lines(path)):  # no read past the records
            if len(record) != len(header):
                raise SchemaError(
                    f"line {line}: {len(record)} cells where the header has {len(header)}")
            for c, kind in fields:
                _check_cell(record[pos[c]], c, line, kind)
    if stopped is not None:
        raise stopped
    if not records:
        raise SchemaError(f"{what} CSV has no data rows")
    values = [Covariate.of(**{c[3:]: numeric[c][k] if c in numeric else cells[j]
                              for j, c in enumerate(cols)}) for k, cells in enumerate(index)]
    return header, columns, values, codes


def _record_lines(path: Path):
    """The physical line on which each nonblank record after the header starts: a second
    read of the file, made only to name a fault."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        start = reader.line_num + 1
        for record in reader:
            if record:
                yield start
            start = reader.line_num + 1


def _convert(table: list[tuple[str, ...]], fields) -> dict[str, list] | None:
    """The (name, position, kind) columns of ``table`` converted whole; None if a cell fails."""
    columns = {}
    for name, i, kind in fields:
        try:
            columns[name] = list(map(kind, table[i]))
        except ValueError:
            return None
        if kind is float and not all(map(math.isfinite, columns[name])):
            return None
    return columns


def _oracle_columns(header: list[str], prefix: str) -> list[tuple[str, int]]:
    """(column, key) of each distinct ``prefix<key>`` column, in header order."""
    cols = []
    for c in dict.fromkeys(c for c in header if c.startswith(prefix)):
        try:
            cols.append((c, int(c[3:])))
        except ValueError:
            raise SchemaError(f"line 1: column {c}: {c[3:]!r} is not an integer") from None
    return cols


def _check_cell(raw: str, col: str, line: int, kind: type) -> None:
    """The schema error of a cell that ``kind`` does not convert; a float must be finite."""
    try:
        value = kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise SchemaError(f"line {line}: column {col}: not {what}: {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise SchemaError(f"line {line}: column {col}: not a finite number: {raw!r}")


@_names_file
def load_observed_csv(path: str | Path) -> ObservedDataset:
    _, columns, values, codes = _table(Path(path), "observed", ("id", "t", "y"), lambda header: [
        ("id", int), *((c, float) for c in header if c.startswith("xn_")), ("t", int),
        ("y", float), *((c, int) for c in header if c == "z")])
    try:
        return ObservedDataset.from_columns(
            columns["id"], values, codes, columns["t"], columns["y"], columns.get("z"),
            frozenset({0, 1, *columns["t"]}),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _covariate_columns(pop) -> list[str]:
    """The ``xc_``/``xn_`` columns of the first member's covariate; a member whose covariate
    has other names or kinds is a ValueError naming the first such member."""
    kinds = [[("xc_" if isinstance(v, str) else "xn_") + n for n, v in x.items] for x in pop.values]
    columns = kinds[pop.codes[0]] if pop.codes else []
    bad = {code for code, cols in enumerate(kinds) if cols != columns}
    for unit, code in zip(pop.ids, pop.codes) if bad else ():
        if code in bad:
            x = pop.values[code]
            raise ValueError(f"unit {unit}: covariate {x!r} does not fit the columns {columns}")
    return columns


class _Line:
    """A file whose ``write`` returns its text, so ``csv.writer(_Line()).writerow`` returns
    the line it formats."""

    write = staticmethod(str)


def _covariate_cells(pop, columns: list[str]) -> list:
    """Each unit's covariate cells, joined as ``csv`` quotes them inside a record, as one
    column (none without covariate columns).  Each value is formatted once, behind a leading
    cell, so that a lone empty cell is not the ``""`` of a one-cell record."""
    if not columns:
        return []
    line = csv.writer(_Line()).writerow
    cells = [line(["0", *(v if isinstance(v, str) else repr(v) for _, v in x.items)])[2:-2]
             for x in pop.values]
    return [map(cells.__getitem__, pop.codes)]


def _few_ints(column) -> map:
    """``str`` of each int of a column of few distinct values, each value formatted once."""
    text = {v: str(v) for v in set(column)}
    return map(text.__getitem__, column)


def _write(path: Path, header: list[str], columns: list) -> None:
    """The header through ``csv``, then one record per unit, its cells of ``columns``
    (formatted strings) joined, all in one write."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.write("\r\n".join([*map(",".join, zip(*columns)), ""]))


def save_observed_csv(data: ObservedDataset, path: str | Path) -> None:
    """Ints through ``str``, floats through ``repr`` and covariate cells as ``csv`` quotes
    them: the bytes that ``csv.writer`` writes."""
    has_z = data.has_instrument
    covariates = _covariate_columns(data)
    header = ["id", "t", "y"] + (["z"] if has_z else []) + covariates
    _write(Path(path), header, [map(str, data.ids), _few_ints(data.t), map(repr, data.y),
                                *([_few_ints(data.z)] if has_z else []),
                                *_covariate_cells(data, covariates)])


@_names_file
def load_future_csv(path: str | Path) -> FuturePopulation:
    header, columns, values, codes = _table(Path(path), "future", ("id",), lambda header: [
        ("id", int), *((c, float) for c in header if c.startswith("xn_")),
        *((c, float) for c, _ in _oracle_columns(header, "y_t")),
        *((c, int) for c, _ in _oracle_columns(header, "s_z"))])
    try:  # where two columns name one key, such as y_t1 and y_t01, the last one holds
        return FuturePopulation.from_columns(
            columns["id"], values, codes,
            outcomes={t: columns[c] for c, t in _oracle_columns(header, "y_t")} or None,
            compliance={z: columns[c] for c, z in _oracle_columns(header, "s_z")} or None,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def save_future_csv(future: FuturePopulation, path: str | Path) -> None:
    """One ``y_t<k>`` column per treatment and one ``s_z<k>`` per instrument value in the
    oracle, each in key order; cells formatted as ``save_observed_csv`` formats them."""
    outcomes, compliance = future.outcomes or {}, future.compliance or {}
    covariates = _covariate_columns(future)
    header = ["id"] + covariates + [f"y_t{t}" for t in outcomes] + [f"s_z{z}" for z in compliance]
    _write(Path(path), header, [map(str, future.ids), *_covariate_cells(future, covariates),
                                *(map(repr, ys) for ys in outcomes.values()),
                                *map(_few_ints, compliance.values())])
