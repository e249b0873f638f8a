"""Indexed reductions against their row-scan references, compared with ``==``.

Every group statistic in ``finitepop`` reads the lazily built cell index of a
dataset or population.  ``rowscan_reference`` keeps the plain form that scans
every row per group.  Sums are exactly rounded, so the two must agree to the
bit, not to a tolerance; and where one raises, so must the other.
"""

import rowscan_reference as ref
from fixtures import columns
from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop import audit, bounds, estimate
from finitepop.bounds import OutcomeBounds
from finitepop.core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    Row,
    Unit,
    common_support_check,
    empirical_propensity,
)
from finitepop.estimate import METHODS, Tabular

# 0.0 and -0.0 are equal covariate values with different reprs; both occur.
POOL = tuple(Covariate.of(g=g, v=v) for g in "abc" for v in (0.0, -0.0, 1.5))
GROUPS = "abc"
values = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
EXAMPLES = settings(max_examples=150, deadline=None)


@st.composite
def scenarios(draw):
    """An observed dataset, a future population, a partition and a predictor table.

    Support is not guaranteed, the partition need not cover every value, and
    the instrument column is present or absent, so error paths are drawn too.
    """
    treatments = draw(st.sampled_from([(0, 1), (0, 1, 2)]))
    with_z = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=30))
    rows = tuple(
        Row(i, draw(st.sampled_from(POOL)), draw(st.sampled_from(treatments)), draw(values),
            draw(st.sampled_from((0, 1))) if with_z else None)
        for i in range(n)
    )
    data = ObservedDataset(rows, frozenset(treatments))
    m = draw(st.integers(min_value=1, max_value=20))
    units = tuple(Unit(100 + j, draw(st.sampled_from(POOL))) for j in range(m))
    oracle = {(u.unit, t): draw(values) for u in units for t in treatments}
    compliance = {(u.unit, z): draw(st.sampled_from((0, 1))) for u in units for z in (0, 1)}
    future = FuturePopulation(units, columns(units, oracle), columns(units, compliance))
    cell_of_group = draw(st.lists(st.sampled_from("PQ-"), min_size=3, max_size=3))
    partition = CovariatePartition.from_members({
        name: [x for x in POOL if cell_of_group[GROUPS.index(x.get("g"))] == name]
        for name in "PQ"
    })
    table = Tabular({(x, t): draw(values) for x in POOL for t in treatments})
    return data, future, partition, table


def same(f, g):
    """Both calls return equal values, or both raise."""
    try:
        want = g()
    except Exception:
        want = "raises"
    try:
        got = f()
    except Exception:
        got = "raises"
    assert got == want


@EXAMPLES
@given(scenarios())
def test_group_queries(case):
    data, future, partition, _ = case
    assert data.xs() == ref.xs(data) and future.xs() == ref.xs(future)
    assert repr(data.xs()) == repr(ref.xs(data))
    same(data.instrument_values, lambda: tuple(sorted({r.z for r in data.rows})) if
         data.has_instrument else 1 / 0)
    for t in sorted(data.treatments):
        assert future.apo(t) == ref.apo(future, t)
    # values and key order; 7 is an undeclared treatment
    assert list(data.n_x.items()) == list(ref.n_x(data).items())
    assert list(future.n_x.items()) == list(ref.n_x(future).items())
    assert list(data.ys_tz.items()) == list(ref.ys_tz(data).items())
    for t in (*sorted(data.treatments), 7):
        assert list(data.ys(t).items()) == list(ref.observed_ys(data, t).items())
        same(lambda: list(future.ys(t).items()), lambda: list(ref.future_ys(future, t).items()))


@EXAMPLES
@given(scenarios())
def test_propensity_and_support(case):
    data, _, partition, _ = case
    for part in (None, partition):
        for t in sorted(data.treatments):
            assert empirical_propensity(data, t, part) == ref.empirical_propensity(data, t, part)
        assert common_support_check(data, part).violations == ref.support_violations(data, part)


@EXAMPLES
@given(scenarios())
def test_estimators(case):
    data, future, partition, table = case
    same(lambda: estimate.RctConstant.fit(data).values, lambda: ref.rct_constants(data))
    same(lambda: dict(estimate.ExactMatching.fit(data).table), lambda: ref.matching_table(data))
    same(lambda: dict(estimate.CoarsenedMatching.fit(data, partition).table),
         lambda: ref.coarsened_table(data, partition))
    weights = estimate._dr_weights(data, future)
    for t in sorted(data.treatments):
        same(lambda: estimate.rct_estimate(data, t).estimate, lambda: ref.rct_estimate(data, t))
        same(lambda: estimate.exact_matching_estimate(data, t).estimate,
             lambda: ref.exact_matching_estimate(data, t)[0])
        same(lambda: estimate.coarsened_matching_estimate(data, partition, t).estimate,
             lambda: ref.coarsened_matching_estimate(data, partition, t)[0])
        same(lambda: estimate.plugin_estimate(table, data, t).estimate,
             lambda: ref.plugin_estimate(table, data, t))
        for x in POOL:
            same(lambda: weights(x, t), lambda: ref.dr_weight(data, future, x, t))
        for w in (weights, lambda x, t: 0.5 + len(repr(x)) % 3):
            same(lambda: estimate.doubly_robust_estimate(table, w, data, t).estimate,
                 lambda: ref.doubly_robust_estimate(table, w, data, t))


@EXAMPLES
@given(scenarios())
def test_audits(case):
    data, future, partition, table = case
    ts = tuple(sorted(data.treatments))
    same(lambda: audit.audit_sp(table, data, future).per_treatment,
         lambda: ref.audit_sp(table, data, future))
    same(lambda: audit.audit_cfd(table, future, ts).per_treatment,
         lambda: ref.audit_cfd(table, future, ts))
    same(lambda: (lambda r: (r.per_treatment, r.details))(
        audit.AUDITS["ml_groupwise"](table, data, future, {"partition": partition})),
         lambda: ref.audit_ml_groupwise(table, data, future, partition))
    same(lambda: audit.audit_compliance_stability(data, future).per_treatment,
         lambda: ref.audit_compliance_stability(data, future))
    for t in ts:
        for part in (None, partition):
            same(lambda: audit.avg_signed_difference(data, future, t, part),
                 lambda: ref.avg_signed_difference(data, future, t, part))
        for f in (None, 2.5, lambda x, t: len(repr(x)) / 7):
            same(lambda: audit.audit_dr_condition(data, future, t, f),
                 lambda: ref.audit_dr_condition(data, future, t, f))


@EXAMPLES
@given(scenarios())
def test_budget(case):
    """Each method's budget, priced as its registry entry names, with the drawn table and the
    observed cell means as predictors, and with each partition the entry may read."""
    data, future, partition, table = case
    try:
        cell_means = Tabular(ref.matching_table(data))
    except Exception:
        cell_means = table
    for method in METHODS.values():
        for part in (None, partition) if method.cells else (None,):
            for p in (table, cell_means):
                for t in sorted(data.treatments):
                    same(lambda: audit.budget(p, data, future, t, part, method.transfer),
                         lambda: ref.budget(p, data, future, t, part, method.transfer))


@EXAMPLES
@given(scenarios())
def test_bounds(case):
    data, _, _, _ = case
    same(lambda: bounds.iv_ate_lower_bound_randomized(data, 0.1, 0.2).lower,
         lambda: ref.iv_ate_lower_bound_randomized(data, 0.1, 0.2)
         if data.has_instrument else 1 / 0)
    k0 = min(r.y for r in data.rows)
    k1 = max(r.y for r in data.rows)
    for t in (0, 1):
        same(lambda: (lambda b: (b.lower, b.upper))(
            bounds.robins_manski_bounds(data, t, OutcomeBounds(k0, k1), 0.25)),
             lambda: ref.robins_manski_bounds(data, t, k0, k1, 0.25)
             if data.has_instrument else 1 / 0)

