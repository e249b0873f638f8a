"""Auditors for the testable assumption quantities.

Each auditor returns the realized discrepancy as a real number, not a pass/fail
flag.  All but the instrument audits are views of one residual table.  With
w_I(c) the future share of cell c, and r_J(c) and r_I(c) the mean of p - y over
its observed rows treated with t and over its future units, the error of the
plug-in of p over the observed covariates splits exactly (Kitagawa, JASA 1955;
Oaxaca, IER 1973) as estimate - truth = s_t + kappa_t + tau_t, where

    s_t = mean of p over J - mean of p over I       (covariates only)
    kappa_t = sum_c w_I(c) * r_J(c)                  (no oracle)
    tau_t = sum_c w_I(c) * (r_I(c) - r_J(c)).       Sums are exactly rounded (fsum).

``budget`` prices a point method's verdict from that table; ``AUDITS`` names each audit
that the ``audit`` verb runs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import reduce
from itertools import chain, repeat
from operator import sub
from typing import NamedTuple

from .core import (
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    OracleError,
    SchemaError,
    SupportError,
    fsum,
)


class AuditResult(NamedTuple):
    """Realized discrepancies of one assumption, with optional per-cell breakdown."""

    name: str
    per_treatment: dict
    details: dict | None = None

    def to_json(self) -> dict:
        return {
            "assumption": self.name,
            "per_treatment": {str(k): v for k, v in self.per_treatment.items()},
            "cells": {str(k): v for k, v in (self.details or {}).items()},
        }


class Side(NamedTuple):
    """One population's part of a cell at t: per covariate value, p (``vs``), members (``ks``)
    and outcomes under t (rows treated with t, or units whose outcomes are read).  ``p`` is the
    exactly rounded mean of p over the ``n`` members, and ``y`` and ``r`` those of y and p - y
    over the ``n_t`` outcomes (None over none); each is summed when read."""

    vs: tuple
    ks: tuple
    groups: tuple
    n: int
    n_t: int

    @property
    def p(self) -> float | None:
        values = chain.from_iterable(map(repeat, self.vs, self.ks))
        return fsum(values) / self.n if self.n else None

    @property
    def y(self) -> float | None:
        return fsum(chain.from_iterable(self.groups)) / self.n_t if self.n_t else None

    @property
    def r(self) -> float | None:
        residuals = chain.from_iterable(map(map, repeat(sub), map(repeat, self.vs), self.groups))
        return fsum(residuals) / self.n_t if self.n_t else None  # p - y


class Cell(NamedTuple):
    name: str
    xs: tuple  # its covariate values found in either population
    j: Side  # the observed rows
    i: Side  # the future units


def _rows(p, t: int, observed: tuple, future: tuple) -> dict:
    """Per covariate value of either population, in sorted order (of equal values, the
    future's): p at t, and each side's members and outcomes under t there."""
    (n_j, ys_j), (n_i, ys_i) = observed, future
    extra = [x for x in n_j if x not in n_i]
    xs = sorted([*n_i, *extra]) if extra else n_i  # n_x is in sorted order
    return {x: ((v := p(x, t), n_j.get(x, 0), ys_j.get(x, ())),
                (v, n_i.get(x, 0), ys_i.get(x, ()))) for x in xs}


def _cell(name: str, xs, rows: list) -> Cell:
    sides = [tuple(zip(*side)) for side in zip(*rows)] if rows else [((), (), ())] * 2
    j, i = (Side(vs, ks, ys, sum(ks), sum(map(len, ys))) for vs, ks, ys in sides)
    return Cell(name, tuple(xs), j, i)


def _table(rows: dict, partition: CovariatePartition | None) -> list[Cell]:
    cells = partition.groups(rows) if partition else {f"x{i}": [x] for i, x in enumerate(rows)}
    return [_cell(name, xs, [rows[x] for x in xs]) for name, xs in cells.items()]


def residual_table(p, t: int, observed: tuple, future: tuple,
                   partition: CovariatePartition | None) -> list[Cell]:
    """The residual table of p at t: a ``Cell`` per partition cell, or per covariate value of
    either population (x0, x1, ... in sorted order) without one.  ``observed`` and ``future``
    are ``(pop.n_x, pop.ys(t))``, ``{}`` for outcomes not read.  p runs once per value."""
    return _table(_rows(p, t, observed, future), partition)


def _whole(rows: dict) -> Cell:
    """The table of ``rows`` as one cell of every covariate value of either population."""
    return _cell("all", rows, list(rows.values()))


def _oracle_rows(p, data: ObservedDataset, future: FuturePopulation, t: int) -> dict:
    """The rows at t with the observed outcomes and the future's (OracleError without them)."""
    data.check_treatment(t)
    return _rows(p, t, (data.n_x, data.ys(t)), (future.n_x, future.ys(t)))


def _oracle_cells(rows: dict, t: int, partition, every: bool) -> list[Cell]:
    """The table of ``_oracle_rows``.  Every cell (when ``every``), or only those with future
    units, must hold units and observed rows treated with t: else SupportError."""
    cells = _table(rows, partition)
    for c in cells:
        if every and (not c.i.n or not c.j.n_t):
            raise SupportError(f"cell {c.name}: empty on {'observed' if c.i.n else 'future'} side")
        if c.i.n and not c.j.n_t:
            label = c.name if partition else repr(c.xs[0])
            raise SupportError(f"no observed rows with t={t} in cell {label} (common support)")
    return [c for c in cells if c.i.n]


def budget(p, data: ObservedDataset, future: FuturePopulation, t: int,
           partition: CovariatePartition | None, transfer: str) -> float:
    """|s_t| plus the transfer term that ``transfer`` names, from one table of (p, t, partition):
    ``cfd`` |truth - mean p over I|; ``signed`` |sum_c w_I(c) * (y_I(c) - y_J(c))|; ``cellwise``
    |kappa_t| + max_c |r_I(c) - r_J(c)|, which bounds |kappa_t + tau_t| for any p."""
    if len(data) == 0:
        raise SupportError("observed dataset is empty")
    whole = _whole(rows := _oracle_rows(p, data, future, t))
    sp = abs((p_i := whole.i.p) - whole.j.p)  # each mean is an O(n) sum, so read once
    if transfer == "cfd":
        return sp + abs(whole.i.y - p_i)
    cells = _oracle_cells(rows, t, partition, transfer == "cellwise")
    if transfer == "signed":
        return sp + abs(fsum([c.i.n / len(future) * (c.i.y - c.j.y) for c in cells]))
    terms = [(c.i.n / len(future) * (r_j := c.j.r), abs(c.i.r - r_j)) for c in cells]
    return sp + (abs(fsum([k for k, _ in terms])) + max([0.0, *(g for _, g in terms)]))


def audit_sp(p, data: ObservedDataset, future: FuturePopulation) -> AuditResult:
    """Stable-predictions gap |mean of p over future - mean of p over observed| per treatment.

    Uses covariates only; the future oracle is neither needed nor consulted.
    """
    if len(data) == 0:
        raise SupportError("observed dataset is empty")
    cells = {t: _whole(_rows(p, t, (data.n_x, {}), (future.n_x, {})))
             for t in sorted(data.treatments)}
    return AuditResult("stable_predictions", {t: abs(c.i.p - c.j.p) for t, c in cells.items()})


def audit_cfd(p, future: FuturePopulation, treatments=(0, 1)) -> AuditResult:
    """Calibration-on-future-data gap |true APO - mean prediction over future| per treatment."""
    if future.outcomes is None:
        raise OracleError("CFD unobservable without ground truth")
    cells = {t: _whole(_rows(p, t, ({}, {}), (future.n_x, future.ys(t)))) for t in treatments}
    return AuditResult("calibration_on_future_data",
                       {t: abs(c.i.y - c.i.p) for t, c in cells.items()})


def avg_signed_difference(
    data: ObservedDataset,
    future: FuturePopulation,
    t: int,
    partition: CovariatePartition | None = None,
) -> float:
    """Future-composition-weighted signed gap between true and observed group means.

    Per covariate value (or partition cell when one is given), takes the true
    future mean outcome under t minus the observed treated-group mean, weighted
    by the group's share of the future population.  Signed: opposite-sign local
    gaps cancel.
    """
    cells = _oracle_cells(_oracle_rows(lambda x, t: 0.0, data, future, t), t, partition, False)
    return fsum([c.i.n / len(future) * (c.i.y - c.j.y) for c in cells])


def audit_ml_groupwise(
    p,
    data: ObservedDataset,
    future: FuturePopulation,
    t: int,
    partition: CovariatePartition | None = None,
) -> AuditResult:
    """Area-wise residual-transfer gaps at treatment t for an arbitrary predictor.

    Per cell: mean future residual (prediction minus true outcome under t over
    the cell's future units) minus mean observed residual over the cell's rows
    treated with t.  Its value at t is the max absolute cell gap.  Without a
    partition every covariate value is its own cell.
    """
    cells = _oracle_cells(_oracle_rows(p, data, future, t), t, partition, True)
    details = {(c.name, t): c.i.r - c.j.r for c in cells}
    return AuditResult("groupwise_residual_transfer",
                       {t: max([0.0, *map(abs, details.values())])}, details)


def audit_dr_condition(
    data: ObservedDataset,
    future: FuturePopulation,
    t: int,
    f: Callable[[object, int], float] | float | None = None,
) -> float:
    """Weighted signed sum of x-wise mean-outcome gaps, with observed-composition weights.

    Per covariate value: (observed share of x) * (true future mean under t minus
    observed treated mean) * f(x, t).  f defaults to the constant one; a scalar
    is treated as a constant function.  Note the weights come from the observed
    composition, unlike avg_signed_difference which weights by the future one.
    """
    fn = f if callable(f) else lambda x, t, k=1.0 if f is None else float(f): k
    cells = _oracle_cells(_oracle_rows(lambda x, t: 0.0, data, future, t), t, None, False)
    return fsum([c.j.n / len(data) * (c.i.y - c.j.y) * fn(c.xs[0], t) for c in cells])


def audit_dominance(future: FuturePopulation) -> AuditResult:
    """Group-sum treatment-effect signs on the instrument-defined switch groups.

    For the groups that take t=0 under z=1 and t=1 under z=0, returns the sum of
    y(i,1) minus the sum of y(i,0) over the group.  Dominance holds iff both are
    >= 0; empty groups count as holding.
    """
    future.require_oracle()
    future.require_compliance()
    per: dict[tuple[int, int], float] = {}
    for (t, z) in ((0, 1), (1, 0)):
        takes = future.compliance_column(z)  # an empty group reads no outcome column
        pairs = zip(future.outcome_column(1), future.outcome_column(0), takes) if t in takes else ()
        per[(t, z)] = fsum(y1 - y0 for y1, y0, s in pairs if s == t)
    holds = all(v >= 0 for v in per.values())
    return AuditResult("dominance", per, details={"holds": holds})


def dominance_holds(result: AuditResult) -> bool:
    return bool(result.details and result.details.get("holds"))


def audit_compliance_stability(data: ObservedDataset, future: FuturePopulation) -> AuditResult:
    """Gap between future and observed compliance-group shares, per (t, z)."""
    future.require_compliance()
    if not data.has_instrument:
        raise SchemaError("observed data has no instrument column z")
    per: dict[tuple[int, int], float] = {}
    for z in data.instrument_values():
        for t in sorted(data.treatments):
            i_share = future.compliance_column(z).count(t) / len(future)
            j_share = len(data.ys_tz.get((t, z), ())) / len(data)
            per[(t, z)] = abs(i_share - j_share)
    return AuditResult("compliance_stability", per)


AUDITS = {  # name -> audit of (predictor, data, future, method parameters)
    "sp": lambda p, d, f, _: audit_sp(p, d, f),
    "cfd": lambda p, d, f, _: audit_cfd(p, f, tuple(sorted(d.treatments))),
    "signed_difference": lambda p, d, f, _: AuditResult("avg_signed_difference", {
        t: avg_signed_difference(d, f, t) for t in sorted(d.treatments)}),
    "ml_groupwise": lambda p, d, f, ps: reduce(  # one result per treatment, joined in order
        lambda a, b: AuditResult(a.name, a.per_treatment | b.per_treatment, a.details | b.details),
        [audit_ml_groupwise(p, d, f, t, ps.get("partition")) for t in sorted(d.treatments)]),
    "dr_condition": lambda p, d, f, _: AuditResult("dr_condition", {
        t: audit_dr_condition(d, f, t) for t in sorted(d.treatments)}),
    "dominance": lambda p, d, f, _: audit_dominance(f),
    "compliance_stability": lambda p, d, f, _: audit_compliance_stability(d, f),
}
