import pytest
from fixtures import XA, XB, p8_future, p8_observed
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitepop.bounds import (
    BoundReport,
    OutcomeBounds,
    iv_ate_lower_bound_randomized,
    robins_manski_bounds,
)
from finitepop.core import ObservedDataset, Row, SchemaError, SupportError


def iv_fixture():
    """z=1 arm outcomes {10, 6}; z=0 arm outcomes {4, 2}."""
    return ObservedDataset(
        (
            Row(1, XA, 1, 10.0, z=1),
            Row(2, XA, 0, 6.0, z=1),
            Row(3, XB, 1, 4.0, z=0),
            Row(4, XB, 0, 2.0, z=0),
        )
    )


def test_iv_lower_bound_requires_both_arms():
    d = ObservedDataset((Row(1, XA, 1, 1.0, z=1), Row(2, XA, 0, 0.0, z=1)))
    with pytest.raises(SupportError, match="no observed rows with z=0"):
        iv_ate_lower_bound_randomized(d, 0.0, 0.0)


def test_iv_lower_bound_marks_untestable_assumptions():
    got = iv_ate_lower_bound_randomized(iv_fixture(), 0.0, 0.0)
    assert "exclusion_restriction" in got.assumed
    assert "dominance" in got.assumed


def test_randomized_iv_fixture():
    got = iv_ate_lower_bound_randomized(iv_fixture(), 0.0, 0.0)
    assert got.lower == pytest.approx(5.0)


def test_randomized_iv_identical_arms():
    d = ObservedDataset(
        (Row(1, XA, 1, 3.0, z=1), Row(2, XA, 0, 3.0, z=0))
    )
    got = iv_ate_lower_bound_randomized(d, 0.1, 0.2)
    assert got.lower == pytest.approx(-0.6)


def test_randomized_iv_budget_arithmetic():
    got = iv_ate_lower_bound_randomized(iv_fixture(), 0.1, 0.4)
    assert got.lower == pytest.approx(4.0)


def test_randomized_iv_needs_instrument():
    with pytest.raises(SchemaError):
        iv_ate_lower_bound_randomized(p8_observed(), 0.0, 0.0)


def rm_fixture():
    """J_01 = {y=6}, J_11 = {y=10}, plus two z=0 rows."""
    return ObservedDataset(
        (
            Row(1, XA, 1, 10.0, z=1),
            Row(2, XA, 0, 6.0, z=1),
            Row(3, XB, 1, 4.0, z=0),
            Row(4, XB, 0, 2.0, z=0),
        )
    )


def test_robins_manski_fixture_exact():
    # the z=1 arm: half took t=0 (the edge), half took t=1 with mean 10
    got = robins_manski_bounds(rm_fixture(), 1, OutcomeBounds(0.0, 10.0), 0.0)
    assert got.lower == 5.0
    assert got.upper == 10.0


def test_robins_manski_delta_widens():
    got = robins_manski_bounds(rm_fixture(), 1, OutcomeBounds(0.0, 10.0), 0.5)
    assert got.lower == pytest.approx(4.5)
    assert got.upper == pytest.approx(10.5)


def test_robins_manski_t0_uses_z0_arm():
    got = robins_manski_bounds(rm_fixture(), 0, OutcomeBounds(0.0, 10.0), 0.0)
    # edge group (t=1, z=0) has one of the arm's two rows; mean group (t=0, z=0) mean 2
    assert got.lower == pytest.approx((1 / 2) * 0.0 + (1 / 2) * 2.0)
    assert got.upper == pytest.approx((1 / 2) * 10.0 + (1 / 2) * 2.0)


def test_robins_manski_shares_are_taken_over_the_z_t_arm():
    # z = t on every row, so every row of an arm took its t: each interval is the
    # arm's mean, which is the future's APO.
    data, future = p8_observed(with_instrument=True), p8_future()
    for t, apo in ((0, 4.0), (1, 7.0)):
        assert future.apo(t) == apo
        got = robins_manski_bounds(data, t, OutcomeBounds(0.0, 12.0), 0.0)
        assert got.lower <= apo <= got.upper, (t, got.lower, got.upper)


def test_robins_manski_degenerate_constant():
    d = ObservedDataset(
        (Row(1, XA, 1, 4.0, z=1), Row(2, XA, 0, 4.0, z=1))
    )
    got = robins_manski_bounds(d, 1, OutcomeBounds(4.0, 4.0), 0.0)
    assert got.lower == got.upper == pytest.approx(4.0)


def test_robins_manski_empty_mean_group():
    d = ObservedDataset(
        (Row(1, XA, 0, 4.0, z=1), Row(2, XA, 0, 3.0, z=0))
    )
    with pytest.raises(SupportError):
        robins_manski_bounds(d, 1, OutcomeBounds(0.0, 10.0), 0.0)


def test_outcome_bounds_validation():
    with pytest.raises(ValueError):
        OutcomeBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        OutcomeBounds(0.0, 5.0).validate(rm_fixture())  # y=10 outside


@settings(max_examples=200, deadline=None)
@given(ys=st.lists(st.floats() | st.sampled_from((0.0, -0.0, 10.0)), min_size=1, max_size=8),
       edges=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted))
@example(ys=[1.0, float("nan"), 2.0], edges=[0.0, 10.0])  # min and max skip a NaN inside
@example(ys=[float("inf"), float("-inf")], edges=[float("-inf"), float("inf")])
def test_outcome_bounds_name_the_first_outcome_a_row_scan_rejects(ys, edges):
    k0, k1 = edges
    data = ObservedDataset.from_columns(
        range(len(ys)), [XA], [0] * len(ys), [i % 2 for i in range(len(ys))], ys)
    want = next((f"observed outcome {y} of unit {unit} outside [{k0}, {k1}]"
                 for unit, y in enumerate(ys) if not k0 <= y <= k1), None)
    try:
        OutcomeBounds(k0, k1).validate(data)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want


def test_interval_width_monotone_in_range():
    narrow = robins_manski_bounds(rm_fixture(), 1, OutcomeBounds(0.0, 10.0), 0.0)
    wide = robins_manski_bounds(rm_fixture(), 1, OutcomeBounds(-5.0, 15.0), 0.0)
    assert (wide.upper - wide.lower) >= (narrow.upper - narrow.lower)


def test_bound_report_rejects_crossed_interval():
    with pytest.raises(ValueError):
        BoundReport(lower=2.0, upper=1.0, eps=0.0, delta=0.0, method="x")


def test_bound_report_json():
    js = robins_manski_bounds(rm_fixture(), 1, OutcomeBounds(0.0, 10.0), 0.0).to_json()
    assert js["lower"] == 5.0 and js["upper"] == 10.0
    assert "compliance_stability" in js["assumed"]
