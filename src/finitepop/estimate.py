"""Point estimators: RCT, matching (exact and coarsened), plug-in, doubly
robust, treatment-effect differences, difference-in-differences, and policy
values for deterministic and stochastic treatment rules.  ``METHODS`` gives
each point method's fit, estimator and transfer term.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .audit import audit_cfd, avg_signed_difference, groupwise_transfer
from .core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    PredictorError,
    SupportError,
    SupportReport,
    average,
    common_support_check,
    empirical_propensity,
    fsum,
    mean_of,
    pooled,
)

# ---------------------------------------------------------------------------
# Predictors


class Predictor:
    """An evaluable rule p(x, t) -> real."""

    def __call__(self, x: Covariate, t: int) -> float:
        raise NotImplementedError


def _supported(
    data: ObservedDataset, partition: CovariatePartition | None, treatments
) -> SupportReport:
    """The support report of ``data``; the first of ``treatments`` that some x (or cell)
    lacks is a SupportError naming them."""
    support = common_support_check(data, partition)
    for t in treatments:
        bad = ", ".join(label for label, s in support.violations if s == t)
        if bad:
            raise SupportError(
                f"common support fails for t={t} at {bad}" if partition is None
                else f"empty treated cell for t={t}: {bad}"
            )
    return support


@dataclass(frozen=True)
class RctConstant(Predictor):
    """Per-treatment constant: the observed treatment-group mean outcome."""

    values: Mapping[int, float]

    @classmethod
    def fit(cls, data: ObservedDataset) -> "RctConstant":
        return cls({t: rct_estimate(data, t).estimate for t in sorted(data.treatments)})

    def __call__(self, x: Covariate, t: int) -> float:
        try:
            return self.values[t]
        except KeyError:
            raise PredictorError(f"no constant for treatment {t}") from None


@dataclass(frozen=True)
class ExactMatching(Predictor):
    """Point-wise average predictor: observed treated-group mean per covariate value."""

    table: Mapping[tuple[Covariate, int], float]

    @classmethod
    def fit(cls, data: ObservedDataset) -> "ExactMatching":
        _supported(data, None, sorted(data.treatments))
        return cls({
            (x, t): mean_of(data.ys(t)[x]) for x in data.xs() for t in sorted(data.treatments)
        })

    def __call__(self, x: Covariate, t: int) -> float:
        try:
            return self.table[(x, t)]
        except KeyError:
            raise PredictorError(f"matching predictor has no cell for x={x!r}, t={t}") from None


@dataclass(frozen=True)
class CoarsenedMatching(Predictor):
    """Cell-wise average predictor over a covariate partition."""

    partition: CovariatePartition
    table: Mapping[tuple[str, int], float]

    @classmethod
    def fit(cls, data: ObservedDataset, partition: CovariatePartition) -> "CoarsenedMatching":
        _supported(data, partition, sorted(data.treatments))
        return cls(partition, {
            (name, t): mean_of(pooled(data.ys(t), xs))
            for name, xs in partition.groups(data.xs()).items() if xs
            for t in sorted(data.treatments)
        })

    def __call__(self, x: Covariate, t: int) -> float:
        cell = self.partition.cell_of(x)
        try:
            return self.table[(cell.name, t)]
        except KeyError:
            raise PredictorError(f"coarsened predictor has no cell for U={cell.name}, t={t}") from None


@dataclass(frozen=True)
class Tabular(Predictor):
    """User-supplied (x, t) -> value table."""

    table: Mapping[tuple[Covariate, int], float]

    def __call__(self, x: Covariate, t: int) -> float:
        try:
            return self.table[(x, t)]
        except KeyError:
            raise PredictorError(f"table has no entry for x={x!r}, t={t}") from None


@dataclass(frozen=True)
class External(Predictor):
    """Opaque callable, e.g. a fitted ML model."""

    fn: Callable[[Covariate, int], float] = field(compare=False)

    def __call__(self, x: Covariate, t: int) -> float:
        return float(self.fn(x, t))


# ---------------------------------------------------------------------------
# Policies


@dataclass(frozen=True)
class Policy:
    """A treatment rule: deterministic x -> t, or stochastic x -> distribution over T."""

    assign: Callable[[Covariate], int] | None = field(default=None, compare=False)
    probabilities: Callable[[Covariate], Mapping[int, float]] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if (self.assign is None) == (self.probabilities is None):
            raise ValueError("give exactly one of assign and probabilities")

    @property
    def deterministic(self) -> bool:
        return self.assign is not None

    def probs(self, x: Covariate) -> dict[int, float]:
        assert self.probabilities is not None
        probs = dict(self.probabilities(x))
        total = fsum(probs.values())
        if any(p < 0 for p in probs.values()) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"invalid probability vector {probs} at x={x!r}")
        return probs


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class Guarantee:
    eps: float
    delta: float
    form: str = "eps_plus_delta"

    @property
    def bound(self) -> float:
        return self.eps + self.delta

    def to_json(self) -> dict:
        return {"eps": self.eps, "delta": self.delta, "bound": self.bound, "form": self.form}


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    method: str
    treatment: int | None = None
    guarantee: Guarantee | None = None
    support: SupportReport | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "treatment": self.treatment,
            "estimate": self.estimate,
            "guarantee": self.guarantee.to_json() if self.guarantee else None,
            "support": self.support.to_json() if self.support else None,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Estimators


def rct_estimate(data: ObservedDataset, t: int) -> EstimateReport:
    """Observed treatment-group mean outcome (the degenerate constant predictor plugged in)."""
    data.check_treatment(t)
    ys = pooled(data.ys(t), data.xs())
    if not ys:
        raise SupportError(f"no observed rows for treatment {t}")
    return EstimateReport(mean_of(ys), "rct", t)


def exact_matching_estimate(data: ObservedDataset, t: int) -> EstimateReport:
    """Inverse-propensity-weighted sum over the treated rows, x-wise.

    Algebraically identical to averaging the exact-matching predictor over all
    observed rows; the tests assert the identity.
    """
    return _horvitz_thompson(data, t, None)


def coarsened_matching_estimate(
    data: ObservedDataset, partition: CovariatePartition, t: int
) -> EstimateReport:
    """Inverse cell-propensity weighted sum over the treated rows."""
    return _horvitz_thompson(data, t, partition)


def _horvitz_thompson(
    data: ObservedDataset, t: int, partition: CovariatePartition | None
) -> EstimateReport:
    """Horvitz-Thompson sum over the rows treated with t, weighted per x or per cell.
    Support is checked at t first; the other treatments follow, since the matching
    predictor this sum equals needs them all."""
    data.check_treatment(t)
    support = _supported(data, partition, (t, *sorted(data.treatments - {t})))
    prop = empirical_propensity(data, t, partition)
    if partition is not None:  # every observed value must lie in a cell
        prop = {x: prop[partition.cell_of(x).name] for x in data.xs()}
    terms: list[float] = []
    for x, ys in data.ys(t).items():
        p = prop[x]
        terms += [y / p for y in ys]
    method = "exact_matching" if partition is None else "coarsened_matching"
    return EstimateReport(fsum(terms) / len(data), method, t, support=support)


def plugin_estimate(p: Predictor, data: ObservedDataset, t: int) -> EstimateReport:
    """Mean prediction over the observed covariates."""
    data.check_treatment(t)
    if len(data) == 0:
        raise SupportError("empty dataset")
    return EstimateReport(average(lambda x: p(x, t), data.n_x), "plugin", t)


def doubly_robust_estimate(
    p: Predictor,
    w: Callable[[Covariate, int], float],
    data: ObservedDataset,
    t: int,
) -> EstimateReport:
    """Observed-composition-weighted sum of the augmented cell targets.

    Per covariate value x the target is p(x,t) plus w(x,t) times the residual
    sum over the treated rows at x, normalized by the size of the whole x group
    (not the treated subgroup).
    """
    data.check_treatment(t)
    if len(data) == 0:
        raise SupportError("empty dataset")
    terms, ys = [], data.ys(t)
    for x, n_x in data.n_x.items():
        px = p(x, t)
        resid = fsum(y - px for y in ys.get(x, ())) / n_x
        terms.append(n_x / len(data) * (px + w(x, t) * resid))
    return EstimateReport(fsum(terms), "doubly_robust", t)


def ate_estimate(apo1: EstimateReport, apo0: EstimateReport) -> EstimateReport:
    """Difference of two APO estimates; guarantee budgets add."""
    if apo1.method != apo0.method:
        raise ValueError(
            f"mismatched method families: {apo1.method} vs {apo0.method}"
        )
    guarantee = None
    if apo1.guarantee and apo0.guarantee:
        guarantee = Guarantee(
            apo1.guarantee.eps + apo0.guarantee.eps,
            apo1.guarantee.delta + apo0.guarantee.delta,
        )
    return EstimateReport(
        apo1.estimate - apo0.estimate, f"ate_{apo1.method}", guarantee=guarantee
    )


# ---------------------------------------------------------------------------
# Method registry


@dataclass(frozen=True)
class Method:
    """A point method: the parameters it needs, its predictor, its APO estimator and
    the transfer term of its error budget.

    ``fit(data, params)`` builds the predictor once per run, and
    ``estimate(p, data, t, params)`` estimates the APO under t with it (the matching
    sums read the data alone; the tests assert that they equal the plug-in of p).
    ``params`` holds the method's files and numbers, and ``future``, the future
    population, when the run has one.  ``transfer(p, data, future, t, params)`` is the
    absolute transfer term at t, a view of the residual table that reads the future's
    outcomes under t and no others; the budget at t is the stable-prediction gap of
    ``audit_sp`` plus it.  Entries call estimators and audits through module globals,
    so rebinding one of them reaches every caller.
    """

    needs: tuple[str, ...]
    fit: Callable[[ObservedDataset, dict], Predictor]
    estimate: Callable[[Predictor, ObservedDataset, int, dict], EstimateReport]
    transfer: Callable[..., float]


def _dr_weights(data: ObservedDataset,
                future: FuturePopulation) -> Callable[[Covariate, int], float]:
    """Population-share correction weights |I^x|/|J_t^x| * |J|/|I|, with which the doubly
    robust error is exactly the signed stable-prediction gap of p minus the average signed
    difference, whatever p predicts."""

    def w(x: Covariate, t: int) -> float:
        treated = len(data.ys(t).get(x, ()))
        if treated == 0:
            raise SupportError(f"no observed rows with x={x!r}, t={t}")
        return future.n_x.get(x, 0) / treated * len(data) / len(future)

    return w


METHODS: dict[str, Method] = {
    "rct": Method(
        (),
        lambda d, _: RctConstant.fit(d),
        lambda p, d, t, _: rct_estimate(d, t),
        lambda p, d, f, t, _: audit_cfd(p, f, (t,)).per_treatment[t],
    ),
    "matching": Method(
        (),
        lambda d, _: ExactMatching.fit(d),
        lambda p, d, t, _: exact_matching_estimate(d, t),
        lambda p, d, f, t, _: abs(avg_signed_difference(d, f, t)),
    ),
    "coarsened": Method(
        ("partition",),
        lambda d, ps: CoarsenedMatching.fit(d, ps["partition"]),
        lambda p, d, t, ps: coarsened_matching_estimate(d, ps["partition"], t),
        lambda p, d, f, t, ps: abs(avg_signed_difference(d, f, t, ps["partition"])),
    ),
    "plugin": Method(
        ("predictor",),
        lambda d, ps: ps["predictor"],
        lambda p, d, t, _: plugin_estimate(p, d, t),
        lambda p, d, f, t, ps: groupwise_transfer(p, d, f, t, ps.get("partition")),
    ),
    "dr": Method(
        ("predictor", "future"),
        lambda d, ps: ps["predictor"],
        lambda p, d, t, ps: doubly_robust_estimate(p, _dr_weights(d, ps["future"]), d, t),
        lambda p, d, f, t, _: abs(avg_signed_difference(d, f, t)),
    ),
}


def named_estimator(name: str) -> Callable[[ObservedDataset, int], EstimateReport]:
    """The APO estimator of a registered method that needs no parameters."""
    method = METHODS.get(name)
    if method is None or method.needs:
        free = [n for n, m in METHODS.items() if not m.needs]
        raise ValueError(f"unknown estimator selector {name!r}; known: {', '.join(free)}")
    return lambda data, t: method.estimate(method.fit(data, {}), data, t, {})


# ---------------------------------------------------------------------------
# Difference-in-differences


@dataclass(frozen=True)
class PanelDataset:
    """Three-group, two-step panel.

    Groups A and B are observed at both steps (A under t=1 at step 1, B under
    t=0); group C is observed at step 0 and is the target at step 1.
    """

    a_step0: tuple[float, ...]
    a_step1: tuple[float, ...]
    b_step0: tuple[float, ...]
    b_step1: tuple[float, ...]
    c_step0: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("a_step0", "a_step1", "b_step0", "b_step1", "c_step0"):
            if not getattr(self, name):
                raise ValueError(f"panel group {name} is empty")


def did_predict(panel: PanelDataset) -> tuple[EstimateReport, EstimateReport]:
    """Predicted step-1 mean for group C under t=1 (via A) and under t=0 (via B)."""
    def m(v):
        return fsum(v) / len(v)

    via_a = m(panel.a_step1) - m(panel.a_step0) + m(panel.c_step0)
    via_b = m(panel.b_step1) - m(panel.b_step0) + m(panel.c_step0)
    return (
        EstimateReport(via_a, "did_via_a", 1),
        EstimateReport(via_b, "did_via_b", 0),
    )


# ---------------------------------------------------------------------------
# Policy values

EstimatorSelector = str | Callable[[ObservedDataset, int], EstimateReport]


def policy_value_estimate(
    policy: Policy,
    estimator: EstimatorSelector,
    data: ObservedDataset,
    future: FuturePopulation | Mapping[Covariate, float],
) -> EstimateReport:
    """Value of a deterministic treatment rule via its level sets.

    Splits the observed data by the rule's level sets, runs the chosen APO
    estimator within each sub-population for its own treatment, and combines
    with the future composition weights.  The future side is either a full
    population or an explicit covariate-profile weighting.
    """
    if not policy.deterministic:
        raise ValueError("policy_value_estimate requires a deterministic policy")
    run = estimator if callable(estimator) else named_estimator(estimator)

    # A level set weighs its unit count, or its profile weight, over the total, divided once.
    profile = future.n_x if isinstance(future, FuturePopulation) else future
    total = fsum(profile.values())
    if total <= 0:
        raise ValueError("future profile weights must have positive total")

    level_sets: dict[int, list[Covariate]] = {}
    for x in set(list(profile) + list(data.xs())):
        level_sets.setdefault(policy.assign(x), []).append(x)

    terms = []
    for t, xs in sorted(level_sets.items()):
        data.check_treatment(t)
        weight = fsum(profile.get(x, 0.0) for x in xs) / total
        if weight == 0:
            continue
        members = set(xs)
        sub_rows = tuple(r for r in data.rows if r.x in members)
        if not sub_rows:
            raise SupportError(
                f"policy level set for t={t} is empty in the observed data but has "
                f"future weight {weight}"
            )
        sub = ObservedDataset(sub_rows, data.treatments)
        try:
            report = run(sub, t)
        except SupportError as exc:
            raise SupportError(f"level set t={t}: {exc}") from exc
        terms.append(weight * report.estimate)
    return EstimateReport(fsum(terms), "policy_value")


def stochastic_policy_value(
    p: Predictor, policy: Policy, data: ObservedDataset
) -> EstimateReport:
    """Predictor-based value of a stochastic treatment rule over the observed covariates."""
    if policy.deterministic:
        raise ValueError("stochastic_policy_value requires a stochastic policy")
    if len(data) == 0:
        raise SupportError("empty dataset")
    value = average(
        lambda x: fsum([prob * p(x, t) for t, prob in policy.probs(x).items()]),
        data.n_x,
    )
    return EstimateReport(value, "stochastic_policy_value")
