"""Partial identification: the instrument-based lower bound on the ATE and the
Robins-Manski style interval bounds on APOs from bounded outcomes.

The exclusion restriction and dominance are never assumed silently: data-mode
reports carry an explicit "assumed, untestable" marker, and oracle mode can
audit them (see finitepop.audit.audit_dominance).
"""

from __future__ import annotations

from collections.abc import Callable

from .core import Covariate, ObservedDataset, SchemaError, SupportError, average, mean_of


class OutcomeBounds:
    """Hard bounds on every possible outcome value."""

    __slots__ = ("k0", "k1")

    def __init__(self, k0: float, k1: float) -> None:
        if k0 > k1:
            raise ValueError(f"k0={k0} must be <= k1={k1}")
        self.k0, self.k1 = k0, k1

    def validate(self, data: ObservedDataset) -> None:
        for unit, y in zip(data.ids, data.y):
            if not (self.k0 <= y <= self.k1):
                raise ValueError(
                    f"observed outcome {y} of unit {unit} outside [{self.k0}, {self.k1}]"
                )


class BoundReport:
    __slots__ = ("lower", "upper", "eps", "delta", "method", "treatment", "assumed")

    def __init__(self, lower: float, upper: float | None, eps: float, delta: float, method: str,
                 treatment: int | None = None, assumed: tuple[str, ...] = ()) -> None:
        if upper is not None and lower > upper:
            raise ValueError("lower bound exceeds upper bound")
        self.lower, self.upper, self.eps, self.delta = lower, upper, eps, delta
        self.method, self.treatment, self.assumed = method, treatment, assumed

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "treatment": self.treatment,
            "lower": self.lower,
            "upper": self.upper,
            "eps": self.eps,
            "delta": self.delta,
            "assumed": list(self.assumed),
        }


_IV_ASSUMED = ("exclusion_restriction", "dominance")


def iv_ate_lower_bound(
    py: Callable[[Covariate, int], float], data: ObservedDataset, eps: float, delta: float
) -> BoundReport:
    """ATE lower bound from instrument-wise predictions.

    The contrast of the mean z=1 and z=0 predictions over the observed
    covariates, minus 2*(eps + delta).  Exclusion and dominance are assumed,
    not tested; oracle mode can audit them separately.
    """
    if eps < 0 or delta < 0:
        raise ValueError("eps and delta must be nonnegative")
    data.require_instrument()
    zs = data.instrument_values()
    for z in (0, 1):
        if z not in zs:
            raise SchemaError(f"instrument value z={z} missing from the data")
    mean1 = average(lambda x: py(x, 1), data.n_x)
    mean0 = average(lambda x: py(x, 0), data.n_x)
    lower = mean1 - mean0 - 2 * (eps + delta)
    return BoundReport(lower, None, eps, delta, "iv_ate_lower_bound", assumed=_IV_ASSUMED)


def iv_ate_lower_bound_randomized(
    data: ObservedDataset, eps: float, delta: float
) -> BoundReport:
    """ATE lower bound for a randomised instrument: the z-arm mean-outcome contrast."""
    if eps < 0 or delta < 0:
        raise ValueError("eps and delta must be nonnegative")
    data.require_instrument()
    arm = {}
    for z in (0, 1):
        ys = [y for t in sorted(data.treatments) for y in data.ys_tz.get((t, z), ())]
        if not ys:
            raise SupportError(f"no observed rows with z={z}")
        arm[z] = mean_of(ys)
    lower = arm[1] - arm[0] - 2 * (eps + delta)
    return BoundReport(
        lower, None, eps, delta, "iv_ate_lower_bound_randomized", assumed=_IV_ASSUMED
    )


def robins_manski_bounds(
    data: ObservedDataset, t: int, bounds: OutcomeBounds, delta: float
) -> BoundReport:
    """APO interval from bounded outcomes and a randomised instrument.

    For t=1 the interval combines the share assigned z=1 that took t=0 (bounded
    by the outcome range) with the observed mean of those who took t=1 under
    z=1; for t=0 the symmetric construction uses the z=0 arm.  Relies on stable
    compliance-group shares between observed and future populations.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    data.require_instrument()
    data.check_treatment(t)
    bounds.validate(data)
    if t not in (0, 1):
        raise ValueError("interval bounds are defined for binary treatments only")
    # Of the rows assigned z=t, those that took t give the mean, the others the edge.
    taker_ys = data.ys_tz.get((t, t), ())
    if not taker_ys:
        raise SupportError(f"group (t={t}, z={t}) is empty")
    edge_share = len(data.ys_tz.get((1 - t, t), ())) / len(data)
    mean_share = len(taker_ys) / len(data)
    observed_mean = mean_of(taker_ys)
    lower = edge_share * bounds.k0 - delta + mean_share * observed_mean
    upper = edge_share * bounds.k1 + delta + mean_share * observed_mean
    return BoundReport(
        lower,
        upper,
        0.0,
        delta,
        "robins_manski",
        treatment=t,
        assumed=("instrument_randomization", "compliance_stability", "exclusion_restriction"),
    )
