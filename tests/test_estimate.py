import math

import pytest
from fixtures import XA, XB, External, p8_future, p8_observed

from finitepop.core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    PredictorError,
    Row,
    SupportError,
    Unit,
)
from finitepop.estimate import (
    CoarsenedMatching,
    ExactMatching,
    Policy,
    RctConstant,
    Tabular,
    ate_estimate,
    coarsened_matching_estimate,
    doubly_robust_estimate,
    exact_matching_estimate,
    plugin_estimate,
    policy_value_estimate,
    rct_estimate,
)

XC = Covariate.of(level="c")


def test_rct_p8():
    d = p8_observed()
    assert rct_estimate(d, 1).estimate == 7.0
    assert rct_estimate(d, 0).estimate == 4.0


def test_rct_single_row():
    d = ObservedDataset((Row(1, XA, 1, 5.0), Row(2, XA, 0, 0.0)))
    assert rct_estimate(d, 1).estimate == 5.0


def test_rct_empty_group_errors():
    d = ObservedDataset((Row(1, XA, 0, 5.0), Row(2, XA, 0, 1.0)))
    with pytest.raises(SupportError):
        rct_estimate(d, 1)


def test_exact_matching_p8():
    d = p8_observed()
    assert exact_matching_estimate(d, 1).estimate == pytest.approx(7.0)
    assert exact_matching_estimate(d, 0).estimate == pytest.approx(4.0)


def test_exact_matching_single_x_reduces_to_rct():
    d = ObservedDataset(
        (Row(1, XA, 1, 8.0), Row(2, XA, 1, 6.0), Row(3, XA, 0, 1.0))
    )
    assert exact_matching_estimate(d, 1).estimate == pytest.approx(
        rct_estimate(d, 1).estimate
    )


def test_exact_matching_support_failure_names_x():
    d = ObservedDataset(
        (Row(1, XA, 1, 8.0), Row(2, XA, 0, 6.0), Row(3, XB, 0, 1.0))
    )
    with pytest.raises(SupportError, match="level='b'"):
        exact_matching_estimate(d, 1)


def test_exact_matching_names_its_own_treatment_before_the_others():
    # t=0 lacks support at a, t=1 at b; each estimate names its own treatment first
    d = ObservedDataset((Row(1, XA, 1, 8.0), Row(2, XB, 0, 1.0)))
    with pytest.raises(SupportError, match=r"t=1 at Covariate\(level='b'\)"):
        exact_matching_estimate(d, 1)
    with pytest.raises(SupportError, match=r"t=0 at Covariate\(level='a'\)"):
        exact_matching_estimate(d, 0)


def coarsened_fixture():
    """Six rows, two cells: U1={a,b} holds treated y=10,4 among four rows, U2={c} treated y=8 of two."""
    rows = (
        Row(1, XA, 1, 10.0),
        Row(2, XA, 0, 6.0),
        Row(3, XB, 1, 4.0),
        Row(4, XB, 0, 2.0),
        Row(5, XC, 1, 8.0),
        Row(6, XC, 0, 5.0),
    )
    part = CovariatePartition.from_members({"U1": [XA, XB], "U2": [XC]})
    return ObservedDataset(rows), part


def test_coarsened_fixture_value():
    d, part = coarsened_fixture()
    got = coarsened_matching_estimate(d, part, 1)
    assert got.estimate == pytest.approx(44.0 / 6.0)  # (1/6)((10+4)/0.5 + 8/0.5)


def test_coarsened_singletons_equals_exact():
    d = p8_observed()
    part = CovariatePartition.singletons(d.xs())
    assert coarsened_matching_estimate(d, part, 1).estimate == pytest.approx(
        exact_matching_estimate(d, 1).estimate, rel=1e-12
    )


def test_coarsened_single_cell_equals_rct():
    d = p8_observed()
    part = CovariatePartition.from_members({"all": d.xs()})
    assert coarsened_matching_estimate(d, part, 1).estimate == pytest.approx(
        rct_estimate(d, 1).estimate, rel=1e-12
    )


def test_coarsened_empty_treated_cell_names_it():
    rows = (
        Row(1, XA, 1, 10.0),
        Row(2, XA, 0, 6.0),
        Row(3, XC, 0, 5.0),
    )
    part = CovariatePartition.from_members({"U1": [XA, XB], "U2": [XC]})
    with pytest.raises(SupportError, match="U2"):
        coarsened_matching_estimate(ObservedDataset(rows), part, 1)


def test_plugin_with_matching_predictor():
    d = p8_observed()
    assert plugin_estimate(ExactMatching.fit(d), d, 1).estimate == pytest.approx(7.0)


def test_plugin_constant_predictor():
    d = p8_observed()
    assert plugin_estimate(External(lambda x, t: 3.0), d, 1).estimate == 3.0


def test_plugin_zero_predictor():
    d = p8_observed()
    assert plugin_estimate(External(lambda x, t: 0.0), d, 1).estimate == 0.0


def test_dr_truth_predictor_any_weights():
    d = p8_observed()
    p = Tabular({(XA, 1): 10.0, (XB, 1): 4.0})
    got = doubly_robust_estimate(p, lambda x, t: 1.0, d, 1)
    assert got.estimate == pytest.approx(7.0)


def test_dr_zero_predictor_correct_weights():
    d = p8_observed()
    p = External(lambda x, t: 0.0)
    got = doubly_robust_estimate(p, lambda x, t: 2.0, d, 1)
    assert got.estimate == pytest.approx(7.0)


def test_dr_both_arms_wrong():
    d = p8_observed()
    p = External(lambda x, t: 0.0)
    assert doubly_robust_estimate(p, lambda x, t: 0.0, d, 1).estimate == 0.0


def test_dr_uses_whole_cell_normalization():
    # one treated among three rows at x=a: residual term divides by 3, not 1
    d = ObservedDataset(
        (Row(1, XA, 1, 9.0), Row(2, XA, 0, 1.0), Row(3, XA, 0, 2.0), Row(4, XB, 1, 5.0), Row(5, XB, 0, 3.0))
    )
    p = External(lambda x, t: 0.0)
    got = doubly_robust_estimate(p, lambda x, t: 1.0, d, 1).estimate
    expected = (3 / 5) * (9.0 / 3) + (2 / 5) * (5.0 / 2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_ate_p8():
    d = p8_observed()
    got = ate_estimate(exact_matching_estimate(d, 1), exact_matching_estimate(d, 0))
    assert got.estimate == pytest.approx(3.0)


def test_ate_identical_inputs_zero():
    d = p8_observed()
    r = rct_estimate(d, 1)
    assert ate_estimate(r, r).estimate == 0.0


def test_ate_mismatched_methods_error():
    d = p8_observed()
    with pytest.raises(ValueError):
        ate_estimate(rct_estimate(d, 1), exact_matching_estimate(d, 0))


def test_policy_value_p8():
    d, f = p8_observed(), p8_future()
    pol = Policy(assign=lambda x: 1 if x == XA else 0)
    got = policy_value_estimate(pol, "matching", d, f)
    assert got.estimate == pytest.approx(6.0)


def test_policy_value_constant_policy_matches_single_arm():
    d, f = p8_observed(), p8_future()
    pol = Policy(assign=lambda x: 1)
    got = policy_value_estimate(pol, "matching", d, f)
    assert got.estimate == pytest.approx(exact_matching_estimate(d, 1).estimate, rel=1e-12)


@pytest.mark.parametrize("levels, m", [((XA,), 10), ((XA, XB), 49)])
def test_always_treat_policy_value_equals_rct_to_the_bit(levels, m):
    """Each level set weighs its count of future units over their total, divided once."""
    d = ObservedDataset((Row(1, XA, 1, 4.8), Row(2, XA, 0, 1.0), Row(3, XB, 1, 4.8),
                         Row(4, XB, 0, 2.0)))
    f = FuturePopulation(tuple(Unit(100 + i, levels[i % len(levels)]) for i in range(m)))
    got = policy_value_estimate(Policy(assign=lambda x: 1), "rct", d, f).estimate
    assert got == rct_estimate(d, 1).estimate == 4.8


def test_policy_value_profile_weights():
    d = p8_observed()
    pol = Policy(assign=lambda x: 1 if x == XA else 0)
    got = policy_value_estimate(pol, "matching", d, {XA: 0.5, XB: 0.5})
    assert got.estimate == pytest.approx(6.0)


def test_policy_value_empty_level_set_with_weight_errors():
    d = p8_observed()
    pol = Policy(assign=lambda x: 1 if x == XC else 0)
    with pytest.raises(SupportError):
        policy_value_estimate(pol, "matching", d, {XA: 0.5, XC: 0.5})


def test_policy_value_empty_level_set_zero_weight_skipped():
    d = p8_observed()
    pol = Policy(assign=lambda x: 1 if x == XC else 0)
    got = policy_value_estimate(pol, "matching", d, {XA: 0.5, XB: 0.5})
    assert got.estimate == pytest.approx((6.0 + 2.0) / 2)


def test_rct_constant_predictor_fits_group_means():
    p = RctConstant.fit(p8_observed())
    assert p(XA, 1) == p(XB, 1) == 7.0
    assert p(XA, 0) == 4.0


def test_matching_predictor_missing_cell_errors():
    d = ObservedDataset((Row(1, XA, 1, 1.0), Row(2, XA, 0, 0.0)))
    p = ExactMatching.fit(d)
    with pytest.raises(PredictorError):
        p(XB, 1)


def test_coarsened_predictor_evaluates_by_cell():
    d, part = coarsened_fixture()
    p = CoarsenedMatching.fit(d, part)
    assert p(XA, 1) == p(XB, 1) == pytest.approx(7.0)
    assert p(XC, 1) == pytest.approx(8.0)


def test_estimate_report_json():
    js = rct_estimate(p8_observed(), 1).to_json()
    assert js == {"method": "rct", "treatment": 1, "estimate": 7.0}
    r = exact_matching_estimate(p8_observed(), 1)
    assert r.to_json() == {"method": "exact_matching", "treatment": 1, "estimate": 7.0}
    assert ate_estimate(r, r).to_json() == {"method": "ate_exact_matching", "estimate": 0.0}
