"""Auditors for the testable assumption quantities.

Each auditor returns the realized discrepancy as a real number, not a pass/fail
flag.  All but the instrument audits read one residual table.  With w_I(c) the
future share of cell c, and r_J(c) and r_I(c) the mean of p - y over its observed
rows treated with t and over its future units, the error of the plug-in of p over
the observed covariates splits exactly (Kitagawa, JASA 1955; Oaxaca, IER 1973) as
estimate - truth = s_t + kappa_t + tau_t, where

    s_t = mean of p over J - mean of p over I       (covariates only)
    kappa_t = sum_c w_I(c) * r_J(c)                  (no oracle)
    tau_t = sum_c w_I(c) * (r_I(c) - r_J(c)).       Sums are exactly rounded (fsum).

``terms`` builds that table for (p, t, partition) and returns what a verdict reads of it;
``budget`` prices a point method's verdict from them.  ``AUDITS`` names each audit that the
``audit`` verb runs: ``sp``, ``cfd``, ``signed_difference`` and ``ml_groupwise`` read fields
of ``terms`` at each treatment.  Compliance stability compares the future's P(s(z) = t) with
the share of the observed z arm that took t.
"""

from __future__ import annotations

from collections.abc import Callable
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


def _cells(rows: dict, t: int, partition, every: bool) -> list[Cell]:
    """The table of ``rows`` at t, a ``Cell`` per partition cell, or per covariate value of
    either population (x0, x1, ... in sorted order) without one.  Every cell (when
    ``every``), or only those with future units, must hold units and observed rows treated
    with t: else SupportError.  The cells without future units are left out."""
    groups = partition.groups(rows) if partition else {f"x{i}": [x] for i, x in enumerate(rows)}
    cells = [_cell(name, xs, [rows[x] for x in xs]) for name, xs in groups.items()]
    for c in cells:
        if every and (not c.i.n or not c.j.n_t):
            raise SupportError(f"cell {c.name}: empty on {'observed' if c.i.n else 'future'} side")
        if c.i.n and not c.j.n_t:
            label = c.name if partition else repr(c.xs[0])
            raise SupportError(f"no observed rows with t={t} in cell {label} (common support)")
    return [c for c in cells if c.i.n]


class Terms(NamedTuple):
    """The terms of one table of (p, t, partition); see ``terms``."""

    s: float
    transfer: float | None
    gaps: dict
    scale: float


def terms(p, data: ObservedDataset, future: FuturePopulation, t: int,
          partition: CovariatePartition | None, transfer: str | None) -> Terms:
    """The terms of a verdict at t, from one table of (p, t, partition), p run once per
    covariate value of either population: s_t over one cell of every value; the transfer
    term that ``transfer`` names, signed: ``cfd`` the truth - mean p over I, ``signed``
    sum_c w_I(c) * (y_I(c) - y_J(c)), ``cellwise`` kappa_t with the cell gaps
    r_I(c) - r_J(c) by cell name; and M (``scale``), the largest magnitude of p and of the
    outcomes read on either side.  ``None`` reads no outcome and has no transfer term.
    Outcomes are read before p runs."""
    if transfer == "cfd" and future.outcomes is None:
        raise OracleError("CFD unobservable without ground truth")
    if len(data) == 0:
        raise SupportError("observed dataset is empty")
    data.check_treatment(t)
    ys = (data.ys(t), future.ys(t)) if transfer else ({}, {})
    rows = _rows(p, t, (data.n_x, ys[0]), (future.n_x, ys[1]))
    whole = _cell("all", rows, list(rows.values()))
    s = whole.j.p - (p_i := whole.i.p)  # each mean is an O(n) sum, so read once
    extents = (data.extent(t), future.extent(t)) if transfer else ()
    scale = max([*extents, *map(abs, whole.j.vs)])
    if transfer is None:
        return Terms(s, None, {}, scale)
    if transfer == "cfd":
        return Terms(s, future.apo(t) - p_i, {}, scale)
    cells = _cells(rows, t, partition, transfer == "cellwise")
    if transfer == "signed":
        return Terms(s, fsum([c.i.n / len(future) * (c.i.y - c.j.y) for c in cells]), {}, scale)
    r_j = {c.name: c.j.r for c in cells}
    return Terms(s, fsum([c.i.n / len(future) * r_j[c.name] for c in cells]),
                 {c.name: c.i.r - r_j[c.name] for c in cells}, scale)


def budget(p, data: ObservedDataset, future: FuturePopulation, t: int,
           partition: CovariatePartition | None, transfer: str) -> tuple[float, float]:
    """|s_t| + (|transfer term| + max_c |gap|) of ``terms``, and its M, which the verdict's
    slack reads.  For ``cellwise`` the sum bounds |kappa_t + tau_t| for any p."""
    s, term, gaps, scale = terms(p, data, future, t, partition, transfer)
    return abs(s) + (abs(term) + max([0.0, *map(abs, gaps.values())])), scale


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
    composition, unlike the signed difference which weights by the future one.
    """
    fn = f if callable(f) else lambda x, t, k=1.0 if f is None else float(f): k
    data.check_treatment(t)
    rows = _rows(lambda x, t: 0.0, t, (data.n_x, data.ys(t)), (future.n_x, future.ys(t)))
    cells = _cells(rows, t, None, False)
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
    """Gap, per (t, z), between the future's share P(s(z) = t) and the share of the observed
    z arm that took t: the arm share that ``robins_manski_bounds`` reads."""
    future.require_compliance()
    if not data.has_instrument:
        raise SchemaError("observed data has no instrument column z")
    per: dict[tuple[int, int], float] = {}
    for z in data.instrument_values():
        arm = sum(len(ys) for (_, w), ys in data.ys_tz.items() if w == z)
        for t in sorted(data.treatments):
            i_share = future.compliance_column(z).count(t) / len(future)
            per[(t, z)] = abs(i_share - len(data.ys_tz.get((t, z), ())) / arm)
    return AuditResult("compliance_stability", per)


def _groupwise(p, data: ObservedDataset, future: FuturePopulation, params: dict) -> AuditResult:
    """The cell gaps of ``terms`` at each treatment over ``params["partition"]`` (each value
    its own cell without one), and their largest magnitude per treatment."""
    gaps = {t: terms(p, data, future, t, params.get("partition"), "cellwise").gaps
            for t in sorted(data.treatments)}
    return AuditResult("groupwise_residual_transfer",
                       {t: max([0.0, *map(abs, g.values())]) for t, g in gaps.items()},
                       {(name, t): gap for t, g in gaps.items() for name, gap in g.items()})


AUDITS = {  # name -> audit of (predictor, data, future, method parameters)
    "sp": lambda p, d, f, _: AuditResult("stable_predictions", {
        t: abs(terms(p, d, f, t, None, None).s) for t in sorted(d.treatments)}),
    "cfd": lambda p, d, f, _: AuditResult("calibration_on_future_data", {
        t: abs(terms(p, d, f, t, None, "cfd").transfer) for t in sorted(d.treatments)}),
    "signed_difference": lambda p, d, f, _: AuditResult("avg_signed_difference", {
        t: terms(lambda x, t: 0.0, d, f, t, None, "signed").transfer  # reads no p
        for t in sorted(d.treatments)}),
    "ml_groupwise": _groupwise,
    "dr_condition": lambda p, d, f, _: AuditResult("dr_condition", {
        t: audit_dr_condition(d, f, t) for t in sorted(d.treatments)}),
    "dominance": lambda p, d, f, _: audit_dominance(f),
    "compliance_stability": lambda p, d, f, _: audit_compliance_stability(d, f),
}
