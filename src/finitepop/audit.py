"""Auditors for the testable assumption quantities.

Each auditor returns the realized discrepancy as a real number rather than a
pass/fail flag, so callers can verify guarantees of the form
"estimate error <= audited stable-prediction gap + audited calibration gap"
without choosing a budget up front.  Sums are accumulated with compensated
summation (math.fsum).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .core import (
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    OracleError,
    SchemaError,
    SupportError,
    average,
    fsum,
    mean_of,
    pooled,
)

WeightLike = Callable[[object, int], float] | float | None


@dataclass(frozen=True)
class AuditResult:
    """Realized discrepancies of one assumption, with optional per-cell breakdown."""

    name: str
    per_treatment: dict = field(default_factory=dict)
    details: dict | None = None

    def to_json(self) -> dict:
        return {
            "assumption": self.name,
            "per_treatment": {str(k): v for k, v in self.per_treatment.items()},
            "cells": {str(k): v for k, v in (self.details or {}).items()},
        }


def audit_sp(p, data: ObservedDataset, future: FuturePopulation) -> AuditResult:
    """Stable-predictions gap |mean of p over future - mean of p over observed| per treatment.

    Uses covariates only; the future oracle is neither needed nor consulted.
    """
    if len(data) == 0:
        raise SupportError("observed dataset is empty")
    per = {}
    for t in sorted(data.treatments):
        mu = average(lambda x: p(x, t), future.n_x)
        mu_hat = average(lambda x: p(x, t), data.n_x)
        per[t] = abs(mu - mu_hat)
    return AuditResult("stable_predictions", per)


def audit_cfd(p, future: FuturePopulation, treatments=(0, 1)) -> AuditResult:
    """Calibration-on-future-data gap |true APO - mean prediction over future| per treatment."""
    if future.outcomes is None:
        raise OracleError("CFD unobservable without ground truth")
    per = {}
    for t in treatments:
        mu_p = average(lambda x: p(x, t), future.n_x)
        per[t] = abs(future.apo(t) - mu_p)
    return AuditResult("calibration_on_future_data", per)


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
    future.require_oracle()
    data.check_treatment(t)
    truth, observed = future.ys(t), data.ys(t)
    if partition is None:
        groups = [(repr(x), (x,), (x,)) for x in future.xs()]
    else:
        obs = partition.groups(data.xs())
        groups = [(name, members, obs[name])
                  for name, members in partition.groups(future.xs()).items() if members]
    terms = []
    for label, fut_xs, obs_xs in groups:
        obs_ys = pooled(observed, obs_xs)
        if not obs_ys:
            raise SupportError(f"no observed rows with t={t} in group {label} (common support)")
        ys = pooled(truth, fut_xs)
        terms.append(len(ys) / len(future) * (mean_of(ys) - mean_of(obs_ys)))
    return fsum(terms)


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
    future.require_oracle()
    xs = sorted(set(data.xs()) | set(future.xs()))
    cells = (partition or CovariatePartition.singletons(xs)).groups(xs).items()
    truth, observed = future.ys(t), data.ys(t)
    details: dict[tuple[str, int], float] = {}
    worst = 0.0
    for name, members in cells:
        fut = {x: truth[x] for x in members if x in truth}
        obs = {x: observed[x] for x in members if x in observed}
        if not fut or not obs:
            raise SupportError(
                f"cell {name}: empty on {'future' if not fut else 'observed'} side"
            )
        gap = _mean_residual(p, t, fut) - _mean_residual(p, t, obs)
        details[(name, t)] = gap
        worst = max(worst, abs(gap))
    return AuditResult("groupwise_residual_transfer", {t: worst}, details)


def _mean_residual(p, t: int, groups: dict) -> float:
    """Mean of p(x, t) - y over the outcomes y grouped by x; p runs once per x."""
    resid: list[float] = []
    for x, ys in groups.items():
        px = p(x, t)
        resid += [px - y for y in ys]
    return mean_of(resid)


def audit_dr_condition(
    data: ObservedDataset,
    future: FuturePopulation,
    t: int,
    f: WeightLike = None,
) -> float:
    """Weighted signed sum of x-wise mean-outcome gaps, with observed-composition weights.

    Per covariate value: (observed share of x) * (true future mean under t minus
    observed treated mean) * f(x, t).  f defaults to the constant one; a scalar
    is treated as a constant function.  Note the weights come from the observed
    composition, unlike avg_signed_difference which weights by the future one.
    """
    future.require_oracle()
    data.check_treatment(t)
    if f is None:
        fn = lambda x, t: 1.0
    elif callable(f):
        fn = f
    else:
        fn = lambda x, t, _c=float(f): _c
    truth, observed = future.ys(t), data.ys(t)
    terms = []
    for x in future.xs():
        obs_ys = observed.get(x)
        if not obs_ys:
            raise SupportError(f"no observed rows with t={t} at x={x!r} (common support)")
        gap = mean_of(truth[x]) - mean_of(obs_ys)
        terms.append(data.n_x[x] / len(data) * gap * fn(x, t))
    return fsum(terms)


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
