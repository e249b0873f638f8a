"""Property-based checks of the algebraic identities behind the estimators."""

import math

import rowscan_reference as ref
from hypothesis import given, settings
from fixtures import columns
from hypothesis import strategies as st

from finitepop.audit import audit_cfd, avg_signed_difference
from finitepop.bounds import OutcomeBounds, robins_manski_bounds
from finitepop.core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    Row,
    Unit,
    empirical_propensity,
)
from finitepop.estimate import (
    ExactMatching,
    Policy,
    coarsened_matching_estimate,
    exact_matching_estimate,
    plugin_estimate,
    policy_value_estimate,
    rct_estimate,
)

LEVELS = ("a", "b", "c")

outcomes = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@st.composite
def supported_datasets(draw):
    """Small datasets where every covariate level has both treatments."""
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True))
    rows = []
    unit = 0
    for lv in levels:
        x = Covariate.of(level=lv)
        for t in (0, 1):
            n = draw(st.integers(min_value=1, max_value=4))
            for _ in range(n):
                rows.append(Row(unit, x, t, draw(outcomes)))
                unit += 1
    return ObservedDataset(tuple(rows))


@st.composite
def datasets_with_futures(draw):
    data = draw(supported_datasets())
    xs = list(data.xs())
    n_future = draw(st.integers(min_value=1, max_value=8))
    units = []
    table = {}
    for j in range(n_future):
        uid = 1000 + j
        units.append(Unit(uid, draw(st.sampled_from(xs))))
        table[(uid, 0)] = draw(outcomes)
        table[(uid, 1)] = draw(outcomes)
    return data, FuturePopulation(tuple(units), columns(units, table))


def close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@given(supported_datasets(), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_ht_equals_matching_plugin(data, t):
    ht = exact_matching_estimate(data, t).estimate
    plug = plugin_estimate(ExactMatching.fit(data), data, t).estimate
    assert close(ht, plug)


@given(supported_datasets(), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_singleton_partition_equals_exact_matching(data, t):
    part = CovariatePartition.singletons(data.xs())
    assert close(
        coarsened_matching_estimate(data, part, t).estimate,
        exact_matching_estimate(data, t).estimate,
    )


@given(supported_datasets(), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_single_cell_partition_equals_rct(data, t):
    part = CovariatePartition.from_members({"all": data.xs()})
    assert close(
        coarsened_matching_estimate(data, part, t).estimate,
        rct_estimate(data, t).estimate,
    )


@given(supported_datasets())
@settings(max_examples=100, deadline=None)
def test_propensities_sum_to_one(data):
    for x in data.xs():
        total = math.fsum(empirical_propensity(data, t)[x] for t in sorted(data.treatments))
        assert abs(total - 1.0) <= 1e-12


@given(supported_datasets(), st.sampled_from([0, 1]))
@settings(max_examples=100, deadline=None)
def test_constant_policy_value_equals_single_arm(data, t):
    pol = Policy(assign=lambda x, _t=t: _t)
    profile = {x: 1.0 for x in data.xs()}
    assert close(
        policy_value_estimate(pol, "matching", data, profile).estimate,
        exact_matching_estimate(data, t).estimate,
    )


@given(datasets_with_futures(), st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_cfd_is_abs_signed_difference_for_matching(pair, t):
    data, future = pair
    p = ExactMatching.fit(data)
    cfd = audit_cfd(p, future).per_treatment[t]
    asd = avg_signed_difference(data, future, t)
    assert close(cfd, abs(asd))


@given(datasets_with_futures())
@settings(max_examples=100, deadline=None)
def test_signed_difference_bounded_by_max_group_gap(pair):
    data, future = pair
    asd = avg_signed_difference(data, future, 1)
    worst = 0.0
    for x in future.xs():
        units = ref.units_where(future, x=x)
        mu = math.fsum(future.y(u.unit, 1) for u in units) / len(units)
        rows = ref.rows_where(data, t=1, x=x)
        mu_hat = math.fsum(r.y for r in rows) / len(rows)
        worst = max(worst, abs(mu - mu_hat))
    assert abs(asd) <= worst + 1e-12


@given(
    st.floats(min_value=0, max_value=2),
    st.floats(min_value=0, max_value=2),
    st.floats(min_value=0, max_value=10),
)
@settings(max_examples=200, deadline=None)
def test_interval_width_monotone_in_delta(d1, d2, span):
    rows = (
        Row(1, Covariate.of(level="a"), 1, 5.0, z=1),
        Row(2, Covariate.of(level="a"), 0, 4.0, z=1),
    )
    data = ObservedDataset(rows)
    bounds = OutcomeBounds(0.0, 10.0 + span)
    lo, hi = sorted([d1, d2])
    narrow = robins_manski_bounds(data, 1, bounds, lo)
    wide = robins_manski_bounds(data, 1, bounds, hi)
    assert narrow.lower <= narrow.upper
    assert (wide.upper - wide.lower) >= (narrow.upper - narrow.lower) - 1e-12
