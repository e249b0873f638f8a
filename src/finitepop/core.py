"""Finite-population data model.

Everything here is immutable after construction and safe to share across
workers.  All operations are pure functions.

Both populations are columns, with one integer code per member into a table of
covariate values; ``rows`` and ``units`` are built only when read.  Both are
grouped by covariate value on first use, from one stable sort of the codes, and
answer the same three queries: ``xs()``, the sorted distinct values; ``n_x``,
the members per value; and ``ys(t)``, the outcomes under t per value (the
realised outcomes of the rows with treatment t, or the oracle outcomes of every
unit), with ``extent(t)`` their largest magnitude.  Instrument queries add the
observed ``ys_tz``.  Every estimator, audit and bound is a reduction over these,
costing O(|X| * |T|) once they are built.
Sums stay exactly rounded (math.fsum), so a value evaluated once per distinct x
and repeated once per member gives the same bits as the member-by-member sum.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import chain, groupby, repeat
from types import MappingProxyType
from typing import NamedTuple


class FinitePopError(Exception):
    """Base class for all errors raised by this package."""


class SupportError(FinitePopError):
    """A required (x, t) or (cell, t) subgroup is empty."""


class OracleError(FinitePopError):
    """A ground-truth oracle is required but missing (or incomplete)."""


class PredictorError(FinitePopError):
    """A predictor could not be built or evaluated."""


class SchemaError(FinitePopError):
    """Malformed input file or configuration."""

    path: str | None = None  # the input file at fault, when it is not the config


class Covariate(tuple):
    """A record of named covariate fields with exact, hashable equality.

    Categorical fields are strings, numeric fields are floats compared
    bitwise.  Fuzzy grouping of numeric values must go through an explicit
    CovariatePartition.  A covariate is a tuple of (name, is_str, value)
    triples sorted by name, so it hashes, compares and sorts as a tuple does,
    in C: field by field, by name, then numbers before strings, then by value.
    """

    __slots__ = ()

    @classmethod
    def of(cls, **fields: str | float) -> "Covariate":
        norm: list[tuple[str, bool, str | float]] = []
        for name, value in sorted(fields.items()):
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"covariate field {name!r} must be str or real, got {value!r}")
            is_str = isinstance(value, str)
            norm.append((name, is_str, value if is_str else float(value)))
        return tuple.__new__(cls, norm)

    @property
    def items(self) -> tuple[tuple[str, str | float], ...]:  # (name, value), sorted by name
        return tuple((k, v) for k, _, v in self)

    def get(self, name: str) -> str | float:
        for k, _, v in self:
            if k == name:
                return v
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(k for k, _, _ in self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, _, v in self)
        return f"Covariate({inner})"


class Row(NamedTuple):
    unit: int
    x: Covariate
    t: int
    y: float
    z: int | None = None


class _Grouped:
    """Members as columns: ``ids``, and ``codes`` into ``values``, a table of covariate values.

    Shared by ``ObservedDataset`` (rows) and ``FuturePopulation`` (units).  The table
    may hold equal values more than once (a reader keeps one per distinct raw cell text,
    so ``-0.0`` and ``0.0`` stay apart); they share one group.  The groups are built on
    first use, never at construction.
    """

    ids: tuple[int, ...]
    values: tuple[Covariate, ...]
    codes: tuple[int, ...]

    @classmethod
    def from_columns(cls, *columns, **keywords):
        """The population from its columns (see the class); both constructors validate alike."""
        pop = cls.__new__(cls)
        pop._set_columns(*columns, **keywords)
        return pop

    def _set_members(self, ids, values, codes) -> None:
        self.ids, self.values, self.codes = tuple(ids), tuple(values), tuple(codes)
        if len(self.codes) != len(self.ids):
            raise ValueError(f"{len(self.codes)} covariate codes for {len(self.ids)} unit ids")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("unit ids must be unique")
        if self.codes and not 0 <= min(self.codes) <= max(self.codes) < len(self.values):
            raise ValueError(f"covariate codes must lie in [0, {len(self.values)})")

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:  # member by member, whatever the table's layout
        return other.__class__ is self.__class__ and all(
            getattr(self, name) == getattr(other, name) for name in self._COLUMNS)

    @property
    def _xs(self) -> tuple[Covariate, ...]:
        """Each member's covariate value, in member order."""
        return tuple(map(self.values.__getitem__, self.codes))

    @cached_property
    def _at(self) -> dict[Covariate, tuple[int, ...]]:
        """Positions per covariate value, in member order, from one stable sort of group
        codes; values sorted, each keyed by its first member's."""
        group: dict[Covariate, int] = {}  # equal values share a group code
        codes = [group.setdefault(x, len(group)) for x in self.values]
        codes = list(map(codes.__getitem__, self.codes))
        runs = groupby(sorted(range(len(codes)), key=codes.__getitem__), codes.__getitem__)
        at = {self.values[self.codes[pos[0]]]: pos for pos in (tuple(run) for _, run in runs)}
        return {x: at[x] for x in sorted(at)}

    @cached_property
    def n_x(self) -> Mapping[Covariate, int]:
        """Members per covariate value, in the order of xs()."""
        return {x: len(pos) for x, pos in self._at.items()}

    @cached_property
    def _ys(self) -> dict[int, Mapping[Covariate, tuple[float, ...]]]:
        return {}  # ys(t), filled once per t

    @cached_property
    def _extent(self) -> dict[int, float]:
        return {}  # extent(t), found once per t

    def extent(self, t: int) -> float:
        """The largest magnitude among the outcomes under t (0.0 without any), found once."""
        if t not in self._extent:
            self._extent[t] = max(map(abs, chain.from_iterable(self.ys(t).values())), default=0.0)
        return self._extent[t]


def pooled(
    groups: Mapping[Covariate, Sequence[float]], xs: Iterable[Covariate]
) -> tuple[float, ...]:
    """The groups of the covariate values xs, concatenated; absent values add nothing."""
    return tuple(chain.from_iterable(groups.get(x, ()) for x in xs))


class ObservedDataset(_Grouped):
    """Observed triples (x_i, t_i, y_i), optionally carrying an instrument z_i.

    The declared treatment set is explicit; rows must stay inside it.  Built from
    rows, or by ``from_columns(ids, values, codes, t, y, z=None, treatments={0, 1})``;
    row i is (ids[i], values[codes[i]], t[i], y[i], z[i]), and ``z`` may be None.
    """

    _COLUMNS = ("ids", "t", "y", "z", "treatments", "_xs")

    def __init__(self, rows: Iterable[Row] = (), treatments: frozenset[int] = frozenset({0, 1})):
        rows = tuple(rows)
        self._set_columns([r.unit for r in rows], [r.x for r in rows], range(len(rows)),
                          [r.t for r in rows], [r.y for r in rows], [r.z for r in rows], treatments)

    def _set_columns(self, ids, values, codes, t, y, z=None, treatments=frozenset({0, 1})) -> None:
        if len(treatments) < 2:
            raise ValueError("treatment set must have at least two levels")
        self._set_members(ids, values, codes)
        self.t, self.y, self.treatments = tuple(t), tuple(y), frozenset(treatments)
        self.z = None if z is None or all(v is None for v in z) else tuple(z)
        if not len(self.t) == len(self.y) == len(self.z or self.t) == len(self.ids):
            raise ValueError("columns t, y and z must hold one value per row")
        if not self.treatments.issuperset(self.t):
            i = next(i for i, t in enumerate(self.t) if t not in self.treatments)
            raise ValueError(f"row {self.ids[i]}: treatment {self.t[i]} not in declared set")

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """The rows, built on first read."""
        return tuple(map(Row, self.ids, self._xs, self.t, self.y, self.z or repeat(None)))

    def ys(self, t: int) -> Mapping[Covariate, tuple[float, ...]]:
        """Outcomes of the rows with treatment t per covariate value, in row order.

        Only nonempty groups appear, so a treatment without rows gives {}.
        """
        if t not in self._ys:
            y, ts = self.y, self.t
            groups = {x: tuple([y[i] for i in pos if ts[i] == t]) for x, pos in self._at.items()}
            self._ys[t] = {x: ys for x, ys in groups.items() if ys}
        return self._ys[t]

    @cached_property
    def ys_tz(self) -> Mapping[tuple[int, int | None], tuple[float, ...]]:
        """Outcomes per (t, z), in row order; built only for instrument queries."""
        groups: dict[tuple[int, int | None], list[float]] = {}
        for key, y in zip(zip(self.t, self.z or repeat(None)), self.y):
            groups.setdefault(key, []).append(y)
        return {key: tuple(ys) for key, ys in groups.items()}

    @cached_property
    def has_instrument(self) -> bool:
        return self.z is not None and None not in self.z

    def require_instrument(self) -> None:
        if not self.has_instrument:
            raise SchemaError("dataset has no instrument column z")

    def instrument_values(self) -> tuple[int, ...]:
        self.require_instrument()
        return tuple(sorted({z for _, z in self.ys_tz}))  # type: ignore[type-var]

    def xs(self) -> tuple[Covariate, ...]:
        return tuple(self._at)

    def check_treatment(self, t: int) -> None:
        if t not in self.treatments:
            raise ValueError(f"unknown treatment id {t}; declared set is {sorted(self.treatments)}")


def fsum(values: Iterable[float]) -> float:
    """``math.fsum``, where meeting infinities of both signs is an ``ArithmeticError``, as an
    overflow is, not a ``ValueError``.  Any ``ValueError`` inside becomes one, so ``values``
    may only do arithmetic: a call that may raise runs before the sum."""
    try:
        return math.fsum(values)
    except ValueError as exc:  # math.fsum raises it only for -inf + inf
        raise ArithmeticError(str(exc)) from None


def mean_of(values: Sequence[float]) -> float:
    """Exactly rounded mean of a nonempty group."""
    if not values:
        raise SupportError("mean over an empty subgroup")
    return fsum(values) / len(values)


def average(f: Callable[[Covariate], float], n_x: Mapping[Covariate, int]) -> float:
    """Mean of f(x) over a population given by its count per covariate value.

    f runs once per distinct x, before the sum; its value enters the exactly rounded
    sum once per member, so the result is bit-identical to the member-by-member mean.
    """
    per_x = [(f(x), n) for x, n in n_x.items()]
    return fsum(chain.from_iterable(repeat(v, n) for v, n in per_x)) / sum(n_x.values())


class Unit(NamedTuple):
    unit: int
    x: Covariate


class FuturePopulation(_Grouped):
    """The deployment population: unit ids with covariates, plus optional oracle columns.

    ``outcomes[t]`` holds the ground truth y(i, t) and ``compliance[z]`` the
    treatment s(i, z) taken under instrument z, each one value per unit in
    unit order.  Outcomes depend only on the unit's own treatment.  Built
    from units, or with ``from_columns(ids, values, codes, outcomes=None,
    compliance=None)``, where unit i is (ids[i], values[codes[i]]).
    """

    _COLUMNS = ("ids", "outcomes", "compliance", "_xs")

    def __init__(self, units: Iterable[Unit], outcomes: Mapping[int, Sequence[float]] | None = None,
                 compliance: Mapping[int, Sequence[int]] | None = None):
        units = tuple(units)
        self._set_columns([u.unit for u in units], [u.x for u in units], range(len(units)),
                          outcomes, compliance)

    def _set_columns(self, ids, values, codes, outcomes=None, compliance=None) -> None:
        self._set_members(ids, values, codes)
        if not self.ids:
            raise ValueError("future population must be nonempty")
        for name, columns in (("outcomes", outcomes), ("compliance", compliance)):
            for key, column in (columns or {}).items():
                if len(column) != len(self.ids):
                    raise ValueError(f"{name} column {key} has {len(column)} values "
                                     f"for {len(self.ids)} units")
            if columns is not None:
                columns = MappingProxyType({key: tuple(columns[key]) for key in sorted(columns)})
            setattr(self, name, columns)

    @cached_property
    def units(self) -> tuple[Unit, ...]:
        """The units, built on first read."""
        return tuple(map(Unit, self.ids, self._xs))

    @cached_property
    def _position(self) -> dict[int, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    def xs(self) -> tuple[Covariate, ...]:
        return tuple(self._at)

    def ys(self, t: int) -> Mapping[Covariate, tuple[float, ...]]:
        """Oracle outcomes under t per covariate value, in unit order; read once per t."""
        if t not in self._ys:
            column = self.outcome_column(t)
            self._ys[t] = {x: tuple(map(column.__getitem__, pos)) for x, pos in self._at.items()}
        return self._ys[t]

    def outcome_column(self, t: int) -> tuple[float, ...]:
        """y(i, t) of every unit, in unit order."""
        column = self.require_oracle().outcomes.get(t)  # type: ignore[union-attr]
        if column is None:
            raise OracleError(f"outcome oracle undefined at t={t}")
        return column

    def compliance_column(self, z: int) -> tuple[int, ...]:
        """s(i, z) of every unit, in unit order."""
        column = self.require_compliance().compliance.get(z)  # type: ignore[union-attr]
        if column is None:
            raise OracleError(f"compliance oracle undefined at z={z}")
        return column

    def _of_unit(self, column: tuple, unit: int):
        i = self._position.get(unit)
        if i is None:
            raise OracleError(f"oracle undefined at unit={unit}: not in the future population")
        return column[i]

    # y and s try one lookup first; only a miss runs the checks, in the order of their errors:
    # no oracle (None is not subscriptable), then an unknown key, then an unknown unit.
    def y(self, unit: int, t: int) -> float:
        """The ground-truth outcome of ``unit`` under treatment t."""
        try:
            return self.outcomes[t][self._position[unit]]  # type: ignore[index]
        except (TypeError, KeyError):
            return self._of_unit(self.outcome_column(t), unit)

    def s(self, unit: int, z: int) -> int:
        """The treatment ``unit`` takes when assigned instrument z."""
        try:
            return self.compliance[z][self._position[unit]]  # type: ignore[index]
        except (TypeError, KeyError):
            return self._of_unit(self.compliance_column(z), unit)

    def require_oracle(self) -> FuturePopulation:
        if self.outcomes is None:
            raise OracleError("operation requires the outcome oracle (oracle mode only)")
        return self

    def require_compliance(self) -> FuturePopulation:
        if self.compliance is None:
            raise OracleError("operation requires the compliance oracle (oracle mode only)")
        return self

    @cached_property
    def _apo(self) -> dict[int, float]:
        return {}  # apo(t), summed once per t

    def apo(self, t: int) -> float:
        """True average potential outcome under treatment t, from the oracle; summed once."""
        if t not in self._apo:
            self._apo[t] = mean_of(self.outcome_column(t))
        return self._apo[t]

    def ate(self, t1: int = 1, t0: int = 0) -> float:
        return self.apo(t1) - self.apo(t0)


class PartitionCell(NamedTuple):
    name: str
    values: frozenset[Covariate]


class CovariatePartition:
    """Named cells of covariate values; one value -> cell index answers every cell question.

    Partitions with equal cells are equal, and hash alike."""

    __slots__ = ("cells", "_index")

    def __init__(self, cells: tuple[PartitionCell, ...]) -> None:
        self.cells = cells = tuple(cells)
        names = [c.name for c in cells]
        if len(set(names)) != len(names):
            raise ValueError("partition cell names must be unique")
        if not cells:
            raise ValueError("partition must have at least one cell")
        index: dict[Covariate, PartitionCell] = {}
        for cell in cells:
            shared = sorted((x for x in cell.values if x in index), key=repr)
            if shared:  # named in repr order: set order changes from one process to the next
                raise ValueError(f"covariate {shared[0]!r} is listed in cells "
                                 f"{index[shared[0]].name!r} and {cell.name!r}")
            index.update(dict.fromkeys(cell.values, cell))
        self._index = index

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    @classmethod
    def from_members(cls, members: Mapping[str, Iterable[Covariate]]) -> "CovariatePartition":
        return cls(tuple(PartitionCell(name, frozenset(xs)) for name, xs in members.items()))

    @classmethod
    def singletons(cls, xs: Iterable[Covariate]) -> "CovariatePartition":
        return cls.from_members({f"x{i}": [x] for i, x in enumerate(sorted(set(xs)))})

    def cell_of(self, x: Covariate) -> PartitionCell:
        cell = self._index.get(x)
        if cell is None:
            raise ValueError(f"covariate {x!r} lies in no partition cell")
        return cell

    def groups(self, xs: Iterable[Covariate]) -> dict[str, list[Covariate]]:
        """Each cell's members among xs, in the order of xs, by cell name.  Every cell
        appears; values that lie in no cell are left out."""
        out: dict[str, list[Covariate]] = {c.name: [] for c in self.cells}
        for x in xs:
            if x in self._index:
                out[self._index[x].name].append(x)
        return out


def empirical_propensity(
    data: ObservedDataset,
    t: int,
    partition: CovariatePartition | None = None,
) -> dict[Covariate, float] | dict[str, float]:
    """Observed treated fraction per covariate value, or per cell if a partition is given.

    Empty numerators give 0; estimators that divide by a propensity must check
    support themselves.
    """
    data.check_treatment(t)
    ys = data.ys(t)
    if partition is None:
        return {x: len(ys.get(x, ())) / n for x, n in data.n_x.items()}
    return {name: len(pooled(ys, members)) / sum(map(data.n_x.__getitem__, members))
            for name, members in partition.groups(data.xs()).items() if members}
