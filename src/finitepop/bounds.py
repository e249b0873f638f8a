"""Partial identification: the instrument-based lower bound on the ATE and the
Robins-Manski style interval bounds on APOs from bounded outcomes.

The exclusion restriction and dominance are never assumed silently: data-mode
reports carry an explicit "assumed, untestable" marker, and oracle mode can
audit them (see finitepop.audit.audit_dominance).
"""

from __future__ import annotations

from .core import ObservedDataset, SupportError, mean_of


class OutcomeBounds:
    """Hard bounds on every possible outcome value."""

    __slots__ = ("k0", "k1")

    def __init__(self, k0: float, k1: float) -> None:
        if k0 > k1:
            raise ValueError(f"k0={k0} must be <= k1={k1}")
        self.k0, self.k1 = k0, k1

    def validate(self, data: ObservedDataset) -> None:
        """The first observed outcome outside the bounds, NaN included, is a ValueError; the
        rows are searched for it only when the extremes, or the sum (NaN with any NaN), fail."""
        ys = data.y
        total = sum(ys)
        if not ys or self.k0 <= min(ys) and max(ys) <= self.k1 and total == total:
            return
        for unit, y in zip(data.ids, ys):
            if not (self.k0 <= y <= self.k1):
                raise ValueError(
                    f"observed outcome {y} of unit {unit} outside [{self.k0}, {self.k1}]"
                )


class BoundReport:
    """A bound; ``treatment`` (none for an ATE) and ``upper`` (none for a one-sided bound) are
    written only when set."""

    __slots__ = ("lower", "upper", "eps", "delta", "method", "treatment", "assumed")

    def __init__(self, lower: float, upper: float | None, eps: float, delta: float, method: str,
                 treatment: int | None = None, assumed: tuple[str, ...] = ()) -> None:
        if upper is not None and lower > upper:
            raise ValueError("lower bound exceeds upper bound")
        self.lower, self.upper, self.eps, self.delta = lower, upper, eps, delta
        self.method, self.treatment, self.assumed = method, treatment, assumed

    def to_json(self) -> dict:
        out = {"method": self.method, "lower": self.lower, "eps": self.eps, "delta": self.delta,
               "assumed": list(self.assumed)}
        if self.treatment is not None:
            out["treatment"] = self.treatment
        if self.upper is not None:
            out["upper"] = self.upper
        return out


_IV_ASSUMED = ("exclusion_restriction", "dominance")


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

    For t=1 the interval combines the share of the z=1 arm that took t=0 (bounded
    by the outcome range) with the observed mean of those who took t=1 under
    z=1; for t=0 the symmetric construction uses the z=0 arm.  Relies on stable
    compliance-group shares between the observed arm and the future; delta prices
    their gap.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    data.require_instrument()
    data.check_treatment(t)
    bounds.validate(data)
    if t not in (0, 1):
        raise ValueError("interval bounds are defined for binary treatments only")
    # Shares are taken over the z=t arm: its rows that took t give the mean, the rest the edge.
    taker_ys = data.ys_tz.get((t, t), ())
    if not taker_ys:
        raise SupportError(f"group (t={t}, z={t}) is empty")
    arm = sum(len(ys) for (_, z), ys in data.ys_tz.items() if z == t)
    edge_share = (arm - len(taker_ys)) / arm
    mean_share = len(taker_ys) / arm
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
