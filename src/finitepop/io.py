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

from .core import Covariate, FuturePopulation, ObservedDataset, Row, SchemaError, Unit


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


def _records(reader, header: list[str]):
    """The data records after the header, each with its line number; blank records are skipped.

    A line number counts the header and the nonblank records before it.  A
    record whose cell count differs from the header's is a schema error.
    """
    line = 1
    for record in reader:
        if not record:
            continue
        line += 1
        if len(record) != len(header):
            raise SchemaError(
                f"line {line}: {len(record)} cells where the header has {len(header)}"
            )
        yield line, record


def _covariate_reader(header: list[str], pos: dict[str, int]):
    """A function of (record, line) giving the record's ``Covariate``.

    Records repeat few distinct covariate values, so each distinct tuple of
    raw cells is parsed once and its ``Covariate`` shared.
    """
    cols = [c for c in header if c.startswith(("xc_", "xn_"))]
    at = [pos[c] for c in cols]
    seen: dict[tuple[str, ...], Covariate] = {}

    def covariate(record: list[str], line: int) -> Covariate:
        raw = tuple([record[i] for i in at])
        x = seen.get(raw)
        if x is None:
            fields: dict[str, str | float] = {}
            for c, value in zip(cols, raw):
                fields[c[3:]] = value if c.startswith("xc_") else _parse_float(value, c, line)
            x = seen[raw] = Covariate.of(**fields)
        return x

    return covariate


def _oracle_columns(header: list[str], pos: dict[str, int], prefix: str):
    """(column, position, key, values) of each distinct ``prefix<key>`` column, in header
    order; ``values`` is the empty list the column's values go to."""
    cols = []
    for c in dict.fromkeys(c for c in header if c.startswith(prefix)):
        try:
            cols.append((c, pos[c], int(c[3:]), []))
        except ValueError:
            raise SchemaError(f"line 1: column {c}: {c[3:]!r} is not an integer") from None
    return cols


def _parse_int(raw: str, col: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(f"line {line}: column {col}: not an integer: {raw!r}") from None


def _parse_float(raw: str, col: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise SchemaError(f"line {line}: column {col}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"line {line}: column {col}: not a finite number: {raw!r}")
    return value


def _header(reader) -> tuple[list[str], dict[str, int]]:
    """The header and each name's position (the last, where a name repeats)."""
    header = next(reader, [])
    return header, {name: i for i, name in enumerate(header)}


@_names_file
def load_observed_csv(path: str | Path) -> ObservedDataset:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, pos = _header(reader)
        for required in ("id", "t", "y"):
            if required not in pos:
                raise SchemaError(f"line 1: observed CSV header must contain {required!r}, got {header}")
        covariate = _covariate_reader(header, pos)
        i_id, i_t, i_y, i_z = pos["id"], pos["t"], pos["y"], pos.get("z")
        rows = []
        for line, record in _records(reader, header):
            rows.append(
                Row(
                    unit=_parse_int(record[i_id], "id", line),
                    x=covariate(record, line),
                    t=_parse_int(record[i_t], "t", line),
                    y=_parse_float(record[i_y], "y", line),
                    z=None if i_z is None else _parse_int(record[i_z], "z", line),
                )
            )
    if not rows:
        raise SchemaError("observed CSV has no data rows")
    try:
        return ObservedDataset(tuple(rows), frozenset({0, 1} | {r.t for r in rows}))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _covariate_columns(members) -> list[str]:
    """The ``xc_``/``xn_`` columns of the first member's covariate; a member whose covariate
    has other names or kinds is a ValueError naming it."""
    columns: list[str] = []
    for i, x in enumerate(dict.fromkeys(m.x for m in members)):
        cols = [("xc_" if isinstance(v, str) else "xn_") + n for n, v in x.items]
        if i and cols != columns:
            unit = next(m.unit for m in members if m.x == x)
            raise ValueError(f"unit {unit}: covariate {x!r} does not fit the columns {columns}")
        columns = cols
    return columns


def save_observed_csv(data: ObservedDataset, path: str | Path) -> None:
    path = Path(path)
    has_z = data.has_instrument
    header = ["id", "t", "y"] + (["z"] if has_z else []) + _covariate_columns(data.rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in data.rows:
            record = [r.unit, r.t, repr(r.y)] + ([r.z] if has_z else [])
            record += [v if isinstance(v, str) else repr(v) for _, v in r.x.items]
            writer.writerow(record)


@_names_file
def load_future_csv(path: str | Path) -> FuturePopulation:
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header, pos = _header(reader)
        if "id" not in pos:
            raise SchemaError(f"line 1: future CSV header must contain 'id', got {header}")
        covariate = _covariate_reader(header, pos)
        y_cols = _oracle_columns(header, pos, "y_t")
        s_cols = _oracle_columns(header, pos, "s_z")
        i_id = pos["id"]
        units = []
        for line, record in _records(reader, header):
            unit = _parse_int(record[i_id], "id", line)
            units.append(Unit(unit, covariate(record, line)))
            for name, i, _, values in y_cols:
                values.append(_parse_float(record[i], name, line))
            for name, i, _, values in s_cols:
                values.append(_parse_int(record[i], name, line))
    if not units:
        raise SchemaError("future CSV has no data rows")
    try:  # where two columns name one key, such as y_t1 and y_t01, the last one holds
        return FuturePopulation(
            tuple(units),
            outcomes={t: values for _, _, t, values in y_cols} or None,
            compliance={z: values for _, _, z, values in s_cols} or None,
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def save_future_csv(future: FuturePopulation, path: str | Path) -> None:
    """One ``y_t<k>`` column per treatment and one ``s_z<k>`` per instrument value in the
    oracle, each in key order."""
    path = Path(path)
    outcomes, compliance = future.outcomes or {}, future.compliance or {}
    header = ["id"] + _covariate_columns(future.units)
    header += [f"y_t{t}" for t in outcomes] + [f"s_z{z}" for z in compliance]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for u, *oracle in zip(future.units, *outcomes.values(), *compliance.values()):
            record: list = [u.unit]
            record += [v if isinstance(v, str) else repr(v) for _, v in u.x.items]
            writer.writerow(record + oracle)
