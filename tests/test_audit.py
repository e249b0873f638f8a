import math

import pytest
from fixtures import XA, XB, External, columns, p8_future, p8_observed

from finitepop.audit import (
    audit_cfd,
    audit_compliance_stability,
    audit_dominance,
    audit_dr_condition,
    audit_ml_groupwise,
    audit_sp,
    avg_signed_difference,
    dominance_holds,
)
from finitepop.core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    OracleError,
    PartitionCell,
    Row,
    SupportError,
    Unit,
    common_support_check,
    empirical_propensity,
)
from finitepop.cli import _AUDITS
from finitepop.estimate import METHODS, ExactMatching, coarsened_matching_estimate


def shifted_p8_future(shift_a=0.0, shift_b=0.0):
    """P8 future with the treated oracle outcome shifted per level."""
    units = (Unit(11, XA), Unit(12, XA), Unit(13, XB), Unit(14, XB))
    table = {}
    for u in units:
        base1, base0 = (10.0, 6.0) if u.x == XA else (4.0, 2.0)
        s = shift_a if u.x == XA else shift_b
        table[(u.unit, 1)] = base1 + s
        table[(u.unit, 0)] = base0
    return FuturePopulation(units, columns(units, table))


def groupwise(p, d, f, part=None):
    """audit_ml_groupwise at each treatment of d in order, merged as the audit verb merges it."""
    return _AUDITS["ml_groupwise"](p, d, f, {"partition": part})


def test_sp_zero_when_compositions_match():
    d, f = p8_observed(), p8_future()
    res = audit_sp(ExactMatching.fit(d), d, f)
    assert res.per_treatment == {0: 0.0, 1: 0.0}


def test_sp_detects_composition_shift():
    d = p8_observed()
    future = FuturePopulation((Unit(11, XA), Unit(12, XA)))
    res = audit_sp(ExactMatching.fit(d), d, future)
    assert res.per_treatment[1] == pytest.approx(3.0)  # |10 - 7|


def test_sp_constant_predictor_always_zero():
    d, f = p8_observed(), p8_future()
    res = audit_sp(External(lambda x, t: 4.25), d, f)
    assert res.per_treatment == {0: 0.0, 1: 0.0}


def test_sp_ignores_the_oracle():
    d = p8_observed()
    with_oracle = p8_future()
    without = FuturePopulation(with_oracle.units)
    p = ExactMatching.fit(d)
    assert audit_sp(p, d, with_oracle).per_treatment == audit_sp(p, d, without).per_treatment


def test_cfd_zero_for_cell_mean_predictor():
    res = audit_cfd(ExactMatching.fit(p8_observed()), p8_future())
    assert res.per_treatment == {0: 0.0, 1: 0.0}


def test_cfd_zero_predictor():
    res = audit_cfd(External(lambda x, t: 0.0), p8_future())
    assert res.per_treatment[1] == pytest.approx(7.0)


def test_cfd_requires_oracle():
    future = FuturePopulation(p8_future().units)
    with pytest.raises(OracleError, match="CFD unobservable without ground truth"):
        audit_cfd(ExactMatching.fit(p8_observed()), future)


def test_signed_difference_zero_on_p8():
    assert avg_signed_difference(p8_observed(), p8_future(), 1) == 0.0


def test_signed_difference_weighted_shift():
    got = avg_signed_difference(p8_observed(), shifted_p8_future(shift_a=2.0), 1)
    assert got == pytest.approx(1.0)  # (2/4)*2 + (2/4)*0


def test_signed_difference_cancellation():
    got = avg_signed_difference(
        p8_observed(), shifted_p8_future(shift_a=2.0, shift_b=-2.0), 1
    )
    assert got == pytest.approx(0.0, abs=1e-12)


def test_signed_difference_needs_support():
    d = p8_observed()
    from finitepop.core import ObservedDataset

    no_treated_a = ObservedDataset(tuple(r for r in d.rows if r.unit != 1))
    with pytest.raises(SupportError):
        avg_signed_difference(no_treated_a, p8_future(), 1)


def test_signed_difference_bounded_by_max_cell_gap():
    f = shifted_p8_future(shift_a=3.0, shift_b=-1.0)
    got = avg_signed_difference(p8_observed(), f, 1)
    assert abs(got) <= 3.0


def test_cfd_matches_abs_signed_difference_for_matching_predictor():
    d = p8_observed()
    f = shifted_p8_future(shift_a=1.5, shift_b=0.5)
    p = ExactMatching.fit(d)
    cfd = audit_cfd(p, f).per_treatment[1]
    asd = avg_signed_difference(d, f, 1)
    assert cfd == pytest.approx(abs(asd), abs=1e-12)


def test_ml_groupwise_zero_for_matching_predictor():
    d, f = p8_observed(), p8_future()
    part = CovariatePartition.singletons(d.xs())
    res = groupwise(ExactMatching.fit(d), d, f, part)
    assert res.per_treatment == {0: 0.0, 1: 0.0}


def test_ml_groupwise_constant_bias_cancels():
    d, f = p8_observed(), p8_future()
    part = CovariatePartition.singletons(d.xs())
    base = ExactMatching.fit(d)
    biased = External(lambda x, t: base(x, t) + 1.0)
    res = audit_ml_groupwise(biased, d, f, 1, part)
    assert res.per_treatment[1] == pytest.approx(0.0, abs=1e-12)


def test_ml_groupwise_future_only_bias_shows():
    d = p8_observed()
    f = shifted_p8_future(shift_a=-1.0, shift_b=-1.0)  # predictor now overshoots future by 1
    part = CovariatePartition.singletons(d.xs())
    res = audit_ml_groupwise(ExactMatching.fit(d), d, f, 1, part)
    assert res.per_treatment[1] == pytest.approx(1.0)


def test_ml_groupwise_without_partition_groups_each_value_by_itself(monkeypatch):
    """Equal to the explicit singleton partition, with no cell membership test."""
    xs = [Covariate.of(v=float(i)) for i in range(12)]
    d = ObservedDataset(tuple(
        Row(2 * i + t, x, t, float(i * i % 7 + t)) for i, x in enumerate(xs) for t in (0, 1)
    ))
    units = tuple(Unit(100 + i, xs[i % 12]) for i in range(30))
    f = FuturePopulation(units, {t: [float(i % 5 + t) for i in range(30)] for t in (0, 1)})
    lopsided = FuturePopulation(units + (Unit(200, Covariate.of(v=-1.0)),),
                                {t: [1.0] * 31 for t in (0, 1)})
    p = External(lambda x, t: x.get("v") / 3 + t)
    want = groupwise(p, d, f, CovariatePartition.singletons(xs))
    with pytest.raises(SupportError) as explicit:
        groupwise(p, d, lopsided, CovariatePartition.singletons([*xs, *lopsided.xs()]))

    def no_membership_test(*args):
        raise AssertionError("CovariatePartition.cell_of called")

    monkeypatch.setattr(CovariatePartition, "cell_of", no_membership_test)
    got = groupwise(p, d, f)
    assert got.per_treatment == want.per_treatment
    assert list(got.details.items()) == list(want.details.items())
    assert list(got.details)[:3] == [("x0", 0), ("x1", 0), ("x2", 0)]
    with pytest.raises(SupportError) as implicit:
        groupwise(p, d, lopsided)
    assert str(implicit.value) == str(explicit.value) == "cell x0: empty on observed side"


def test_dr_condition_zero_on_p8():
    assert audit_dr_condition(p8_observed(), p8_future(), 1) == 0.0


def test_dr_condition_weighted_by_observed_composition():
    f = shifted_p8_future(shift_a=2.0)
    got = audit_dr_condition(p8_observed(), f, 1, f=2.0)
    assert got == pytest.approx((2 / 4) * 2.0 * 2.0)


def test_dr_condition_zero_weight_function():
    f = shifted_p8_future(shift_a=5.0)
    assert audit_dr_condition(p8_observed(), f, 1, f=0.0) == 0.0


def _iv_future(effects, compliance):
    units = tuple(Unit(100 + i, XA) for i in range(len(effects)))
    table = {}
    comp = {}
    for u, (y0, y1) in zip(units, effects):
        table[(u.unit, 0)] = y0
        table[(u.unit, 1)] = y1
    for u, (s0, s1) in zip(units, compliance):
        comp[(u.unit, 0)] = s0
        comp[(u.unit, 1)] = s1
    return FuturePopulation(units, columns(units, table), columns(units, comp))


def test_dominance_pointwise_implies_group():
    f = _iv_future([(1.0, 2.0), (3.0, 3.0)], [(0, 1), (0, 0)])
    res = audit_dominance(f)
    assert dominance_holds(res)


def test_dominance_fails_on_negative_group_sum():
    # the unit takes t=0 under z=1, and treatment lowers its outcome
    f = _iv_future([(5.0, 3.0)], [(0, 0)])
    res = audit_dominance(f)
    assert res.per_treatment[(0, 1)] == pytest.approx(-2.0)
    assert not dominance_holds(res)


def test_dominance_empty_group_vacuous():
    f = _iv_future([(1.0, 0.5)], [(0, 1)])  # complier: never in I_01 or I_10
    assert dominance_holds(audit_dominance(f))


def test_compliance_stability_exact_match():
    d = p8_observed(with_instrument=True)
    # mirror the observed (t, z) composition exactly: (1,1), (0,0) at 1/2 each
    f = _iv_future(
        [(1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0)],
        [(0, 1), (0, 1), (0, 1), (0, 1)],
    )
    res = audit_compliance_stability(d, f)
    assert res.per_treatment[(1, 1)] == pytest.approx(abs(1.0 - 2 / 4))


def test_compliance_stability_requires_z_column():
    from finitepop.core import SchemaError

    with pytest.raises(SchemaError):
        audit_compliance_stability(p8_observed(), _iv_future([(1.0, 2.0)], [(1, 1)]))


def test_audit_result_json_shape():
    res = audit_sp(ExactMatching.fit(p8_observed()), p8_observed(), p8_future())
    js = res.to_json()
    assert set(js) == {"assumption", "per_treatment", "cells"}
    assert js["assumption"] == "stable_predictions"


class _NoMembership(frozenset):
    """A cell's set of values that refuses the question ``x in values``."""

    def __contains__(self, x):
        raise AssertionError("membership tested on a partition cell's values")


def test_no_estimator_or_audit_tests_cell_membership():
    """Every cell question is answered by the partition's value -> cell index."""
    d, f = p8_observed(), p8_future()
    coarsened = METHODS["coarsened"]

    def answers(part):
        params = {"partition": part}
        fitted = coarsened.fit(d, params)
        eps = audit_sp(fitted, d, f).per_treatment
        return [
            empirical_propensity(d, 1, part), common_support_check(d, part),
            [coarsened_matching_estimate(d, part, t).estimate for t in (0, 1)],
            [coarsened.estimate(fitted, d, t, params).estimate for t in (0, 1)],
            [avg_signed_difference(d, f, t, part) for t in (0, 1)],
            [audit_ml_groupwise(ExactMatching.fit(d), d, f, t, part).details for t in (0, 1)],
            {t: (eps[t], coarsened.transfer(fitted, d, f, t, params)) for t in (0, 1)},
        ]

    partitions = [CovariatePartition.singletons(d.xs()),
                  CovariatePartition.from_members({"all": [XA, XB]})]
    guarded = [CovariatePartition(tuple(PartitionCell(c.name, _NoMembership(c.values))
                                        for c in part.cells)) for part in partitions]
    assert [answers(part) for part in guarded] == [answers(part) for part in partitions]
