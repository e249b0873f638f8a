"""End-to-end guarantees checked at desk scale.

Each test here exercises a headline promise of the toolkit: estimator errors
stay inside their audited budgets, partial-identification intervals cover the
truth on populations built to satisfy the premises, algebraic identities hold
to near machine precision, and everything is bit-reproducible under a seed.
"""

import json
import math
import time

import numpy as np
import rowscan_reference as ref
from fixtures import columns

from finitepop.audit import (
    AUDITS,
    audit_dominance,
    audit_dr_condition,
    dominance_holds,
    terms,
)
from finitepop.bounds import (
    OutcomeBounds,
    iv_ate_lower_bound_randomized,
    robins_manski_bounds,
)
from finitepop.cli import main
from finitepop.core import (
    Covariate,
    CovariatePartition,
    FuturePopulation,
    ObservedDataset,
    Row,
    Unit,
)
from finitepop.estimate import (
    CoarsenedMatching,
    ExactMatching,
    Policy,
    Tabular,
    coarsened_matching_estimate,
    doubly_robust_estimate,
    exact_matching_estimate,
    plugin_estimate,
    policy_value_estimate,
    rct_estimate,
)
from finitepop.regress import fit_linear
from finitepop.simulate import (
    InstrumentSpec,
    ScenarioSpec,
    convergence_check,
    generate,
    generate_compliance_stable_scenario,
    random_partition_concentration,
    scenario_seed,
)

SLACK = 1e-10
LEVELS = ("a", "b", "c", "d", "e", "f")
XA = Covariate.of(x="a")


def random_scenario_spec(rng, master_seed, index, **overrides):
    """Random bounded-outcome scenario: 2-6 levels, both sizes in [20, 200]."""
    k = int(rng.integers(2, 7))
    levels = LEVELS[:k]
    spec = dict(
        n_observed=int(rng.integers(20, 201)),
        n_future=int(rng.integers(20, 201)),
        levels=levels,
        base_outcomes=tuple(
            (lv, (float(rng.uniform(0, 9)), float(rng.uniform(0, 9)))) for lv in levels
        ),
        noise_sd=float(rng.uniform(0, 1.5)),
        observed_level_weights=tuple((lv, float(rng.uniform(0.5, 2))) for lv in levels),
        future_level_weights=tuple((lv, float(rng.uniform(0.5, 2))) for lv in levels),
        future_outcome_shift=tuple((lv, float(rng.uniform(-1, 1))) for lv in levels),
        seed=scenario_seed(master_seed, index),
    )
    spec.update(overrides)
    return ScenarioSpec(**spec)


def random_partition(rng, xs):
    """Partition of the covariate values into 1-4 nonempty named cells."""
    ncells = int(rng.integers(1, min(4, len(xs)) + 1))
    assign = [int(rng.integers(ncells)) for _ in xs]
    assign[0:ncells] = list(range(ncells))
    members = {}
    for x, c in zip(xs, assign):
        members.setdefault(f"c{c}", []).append(x)
    return CovariatePartition.from_members(members), members


# ---------------------------------------------------------------------------
# Audited error budgets for the matching-family estimators


def test_exact_matching_error_within_audited_budget_1000_scenarios():
    rng = np.random.default_rng(101)
    started = time.time()
    for i in range(1000):
        scenario = generate(random_scenario_spec(rng, 101, i))
        p = ExactMatching.fit(scenario.observed)
        for t in (0, 1):
            err = abs(
                exact_matching_estimate(scenario.observed, t).estimate
                - scenario.future.apo(t)
            )
            read = terms(p, scenario.observed, scenario.future, t, None, "signed")
            budget = abs(read.s) + abs(read.transfer)
            assert err <= budget + SLACK, (i, t, err, budget)
    assert time.time() - started < 10.0


def test_coarsened_matching_error_within_audited_budget_1000_scenarios():
    rng = np.random.default_rng(202)
    for i in range(1000):
        scenario = generate(random_scenario_spec(rng, 202, i))
        partition, _ = random_partition(rng, scenario.observed.xs())
        p = CoarsenedMatching.fit(scenario.observed, partition)
        for t in (0, 1):
            err = abs(
                coarsened_matching_estimate(scenario.observed, partition, t).estimate
                - scenario.future.apo(t)
            )
            read = terms(p, scenario.observed, scenario.future, t, partition, "signed")
            budget = abs(read.s) + abs(read.transfer)
            assert err <= budget + SLACK, (i, t, err, budget)


def test_plugin_error_within_stability_plus_groupwise_budget():
    """Perturbed predictors whose observed residuals recentre within each cell."""
    rng = np.random.default_rng(303)
    for i in range(1000):
        scenario = generate(random_scenario_spec(rng, 303, i))
        partition, members = random_partition(rng, scenario.observed.xs())
        base = CoarsenedMatching.fit(scenario.observed, partition)
        table = {}
        for t in (0, 1):
            for cell_xs in members.values():
                offsets = {x: float(rng.normal(0, 2.0)) for x in cell_xs}
                counts = {
                    x: len(ref.rows_where(scenario.observed, t=t, x=x)) for x in cell_xs
                }
                center = math.fsum(offsets[x] * counts[x] for x in cell_xs) / sum(
                    counts.values()
                )
                for x in cell_xs:
                    table[(x, t)] = base(x, t) + offsets[x] - center
        p = Tabular(table)
        for t in (0, 1):
            err = abs(
                plugin_estimate(p, scenario.observed, t).estimate
                - scenario.future.apo(t)
            )
            read = terms(p, scenario.observed, scenario.future, t, partition, "cellwise")
            budget = abs(read.s) + max([0.0, *map(abs, read.gaps.values())])
            assert err <= budget + SLACK, (i, t, err, budget)


# ---------------------------------------------------------------------------
# Doubly robust estimator, both protection arms


def test_dr_correct_predictions_arbitrary_weights_1000_scenarios():
    """With p equal to the true future cell means, any weight function is safe:
    the residual term the weights multiply is bounded by the audited transfer
    discrepancy, and the prediction term is bounded by the audited stability."""
    rng = np.random.default_rng(404)
    for i in range(1000):
        scenario = generate(
            random_scenario_spec(
                rng,
                404,
                i,
                assignment="balanced",
                n_observed=2 * int(rng.integers(10, 101)),
            )
        )
        table = {}
        for x in scenario.observed.xs():
            units = ref.units_where(scenario.future, x=x)
            for t in (0, 1):
                table[(x, t)] = math.fsum(
                    scenario.future.y(u.unit, t) for u in units
                ) / len(units)
        p = Tabular(table)
        weights = {
            (x, t): float(rng.uniform(0, 3))
            for x in scenario.observed.xs()
            for t in (0, 1)
        }
        w = lambda x, t: weights[(x, t)]
        sp = AUDITS["sp"](p, scenario.observed, scenario.future, {})
        for t in (0, 1):
            err = abs(
                doubly_robust_estimate(p, w, scenario.observed, t).estimate
                - scenario.future.apo(t)
            )
            budget = sp.per_treatment[t] + abs(
                audit_dr_condition(scenario.observed, scenario.future, t, f=w)
            )
            assert err <= budget + SLACK, (i, t, err, budget)


def test_dr_correct_weights_arbitrary_predictions_1000_scenarios():
    """With composition-matching weights and noiseless outcomes the residual
    term recovers the prediction bias exactly, whatever p says."""
    rng = np.random.default_rng(405)
    for i in range(1000):
        scenario = generate(
            random_scenario_spec(rng, 405, i, noise_sd=0.0, future_outcome_shift=None)
        )
        n_obs, n_fut = len(scenario.observed), len(scenario.future)

        def w(x, t, _sc=scenario, _n_obs=n_obs, _n_fut=n_fut):
            n_future_x = len(ref.units_where(_sc.future, x=x))
            n_obs_cell = len(ref.rows_where(_sc.observed, t=t, x=x))
            return n_future_x / n_obs_cell * _n_obs / _n_fut

        p = Tabular(
            {
                (x, t): float(rng.uniform(-5, 5))
                for x in scenario.observed.xs()
                for t in (0, 1)
            }
        )
        sp = AUDITS["sp"](p, scenario.observed, scenario.future, {})
        for t in (0, 1):
            assert abs(audit_dr_condition(scenario.observed, scenario.future, t)) < 1e-9
            err = abs(
                doubly_robust_estimate(p, w, scenario.observed, t).estimate
                - scenario.future.apo(t)
            )
            assert err <= sp.per_treatment[t] + SLACK, (i, t, err)


# ---------------------------------------------------------------------------
# Algebraic identities on random small datasets


def small_datasets(count, master_seed):
    rng = np.random.default_rng(master_seed)
    for i in range(count):
        yield rng, generate(
            random_scenario_spec(
                rng,
                master_seed,
                i,
                n_observed=int(rng.integers(14, 30)),
                n_future=int(rng.integers(8, 30)),
            )
        )


def close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_horvitz_thompson_form_equals_matching_plugin():
    """Both matching estimators are Horvitz-Thompson sums, and each equals the plug-in
    of its fitted predictor; the exact one also equals the row-by-row sum."""
    partition_rng = np.random.default_rng(511)
    for _, scenario in small_datasets(200, 501):
        data = scenario.observed
        partition, _ = random_partition(partition_rng, data.xs())
        exact, coarse = ExactMatching.fit(data), CoarsenedMatching.fit(data, partition)
        for t in (0, 1):
            ht_terms = []
            for r in ref.rows_where(data, t=t):
                cell = ref.rows_where(data, t=t, x=r.x)
                prop = len(cell) / len(ref.rows_where(data, x=r.x))
                ht_terms.append(r.y / prop)
            ht = math.fsum(ht_terms) / len(data)
            estimate = exact_matching_estimate(data, t).estimate
            assert close(ht, estimate)
            assert close(estimate, plugin_estimate(exact, data, t).estimate)
            assert close(coarsened_matching_estimate(data, partition, t).estimate,
                         plugin_estimate(coarse, data, t).estimate)


def test_singleton_partition_equals_exact_matching():
    for _, scenario in small_datasets(200, 502):
        data = scenario.observed
        partition = CovariatePartition.singletons(data.xs())
        for t in (0, 1):
            assert close(
                coarsened_matching_estimate(data, partition, t).estimate,
                exact_matching_estimate(data, t).estimate,
            )


def test_single_cell_partition_equals_rct():
    for _, scenario in small_datasets(200, 503):
        data = scenario.observed
        partition = CovariatePartition.from_members({"all": data.xs()})
        for t in (0, 1):
            assert close(
                coarsened_matching_estimate(data, partition, t).estimate,
                rct_estimate(data, t).estimate,
            )


def test_constant_policy_value_equals_single_treatment_estimate():
    for _, scenario in small_datasets(200, 504):
        data = scenario.observed
        for t in (0, 1):
            policy = Policy(assign=lambda x, _t=t: _t)
            got = policy_value_estimate(policy, "matching", data, scenario.future)
            assert close(got.estimate, exact_matching_estimate(data, t).estimate)


# ---------------------------------------------------------------------------
# Instrument-based lower bound and interval coverage


def dominance_scenario_spec(rng, master_seed, index, **overrides):
    """Nonnegative true effects plus shared unit noise, so the compliance
    groups keep pointwise-ordered potential outcomes by construction."""
    k = int(rng.integers(2, 5))
    levels = LEVELS[:k]
    base = []
    for lv in levels:
        y0 = float(rng.uniform(0, 7))
        base.append((lv, (y0, y0 + float(rng.uniform(0, 2.5)))))
    spec = dict(
        n_observed=int(rng.integers(40, 121)),
        n_future=int(rng.integers(30, 121)),
        levels=levels,
        base_outcomes=tuple(base),
        noise_sd=float(rng.uniform(0, 1.0)),
        shared_unit_noise=True,
        instrument=InstrumentSpec(
            z_probability=0.5, take_probability=((0, 0.25), (1, 0.75))
        ),
        seed=scenario_seed(master_seed, index),
    )
    spec.update(overrides)
    return ScenarioSpec(**spec)


def test_iv_lower_bound_sound_and_dominance_violations_detected():
    rng = np.random.default_rng(606)
    for i in range(1000):
        spec = dominance_scenario_spec(rng, 606, i)
        scenario = generate(spec)
        f = scenario.future
        assert dominance_holds(audit_dominance(scenario.future)), i
        delta = max(
            abs(
                math.fsum(f.y(u.unit, f.s(u.unit, z)) for u in f.units) / len(f.units)
                - ref.mean_y(ref.rows_where(scenario.observed, z=z))
            )
            for z in (0, 1)
        )
        bound = iv_ate_lower_bound_randomized(scenario.observed, 0.0, delta)
        assert scenario.future.ate() >= bound.lower - SLACK, (i, delta)

        violating = generate(
            ScenarioSpec(
                **{
                    **spec.__dict__,
                    "instrument": InstrumentSpec(
                        z_probability=0.5,
                        take_probability=((0, 0.25), (1, 0.75)),
                        dominance_break=1.5,
                    ),
                }
            )
        )
        assert not dominance_holds(audit_dominance(violating.future)), i


def test_interval_covers_truth_under_stable_compliance_1000_scenarios():
    rng = np.random.default_rng(707)
    for i in range(1000):
        t = int(rng.integers(0, 2))
        scenario = generate_compliance_stable_scenario(
            int(rng.integers(20, 80)),
            int(rng.integers(1, 4)),
            t,
            seed=scenario_seed(707, i),
        )
        z_arm = 1 if t == 1 else 0
        stable = [
            u
            for u in scenario.future.units
            if scenario.future.s(u.unit, z_arm) == t
        ]
        mu = math.fsum(scenario.future.y(u.unit, t) for u in stable) / len(stable)
        delta = abs(ref.mean_y(ref.rows_where(scenario.observed, t=t, z=z_arm)) - mu)
        interval = robins_manski_bounds(
            scenario.observed, t, OutcomeBounds(0.0, 10.0), delta
        )
        apo = scenario.future.apo(t)
        assert interval.lower - SLACK <= apo <= interval.upper + SLACK, (i, t, delta)


def test_interval_fixture_reproduced_exactly():
    data = ObservedDataset(
        (
            Row(1, XA, 1, 10.0, z=1),
            Row(2, XA, 0, 6.0, z=1),
            Row(3, Covariate.of(x="b"), 1, 4.0, z=0),
            Row(4, Covariate.of(x="b"), 0, 2.0, z=0),
        )
    )
    got = robins_manski_bounds(data, 1, OutcomeBounds(0.0, 10.0), 0.0)
    assert got.lower == 5.0
    assert got.upper == 10.0


# ---------------------------------------------------------------------------
# Regression checks


def grid_data(a=2.0, beta=3.0, c=1.0):
    rows = []
    unit = 0
    for xv in (0.0, 1.0, 2.0, 3.0):
        for t in (0, 1):
            rows.append(Row(unit, Covariate.of(x=xv), t, a * xv + beta * t + c))
            unit += 1
    return ObservedDataset(tuple(rows))


def test_linear_fit_and_ovb_fixtures():
    model = fit_linear(grid_data())
    assert abs(model.a["x"] - 2.0) <= 1e-9
    assert abs(model.beta - 3.0) <= 1e-9
    assert abs(model.c - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Replication-mean convergence and random-split concentration


def test_replication_mean_error_shrinks_monotonically_with_size():
    base = ScenarioSpec(
        n_observed=10,
        n_future=10,
        levels=("a", "b"),
        base_outcomes=(("a", (2.0, 6.0)), ("b", (3.0, 5.0))),
        noise_sd=1.0,
        seed=0,
    )
    started = time.time()
    for estimator in ("rct", "matching"):
        curve = convergence_check(base, estimator, (10, 100, 1000, 10_000), 50, seed=0)
        errors = [err for _, err in curve]
        assert errors == sorted(errors, reverse=True), (estimator, curve)
        assert errors[0] > errors[-1]
    assert time.time() - started < 60.0


def uniform_population(n, seed):
    rng = np.random.default_rng(seed)
    ys = rng.uniform(0, 10, n)
    units = tuple(Unit(i, XA) for i in range(n))
    table = {(i, t): float(ys[i]) for i in range(n) for t in (0, 1)}
    return FuturePopulation(units, columns(units, table))


def test_random_split_disagreement_rate():
    units = tuple(Unit(i, XA) for i in range(4))
    table = {}
    for i, y in enumerate((0.0, 0.0, 10.0, 10.0)):
        table[(i, 1)] = y
        table[(i, 0)] = 0.0
    four_point = FuturePopulation(units, columns(units, table))
    got = random_partition_concentration(four_point, 1, 5.0, 10_000, seed=1)
    assert abs(got - 1 / 3) <= 0.05

    rates = [
        random_partition_concentration(uniform_population(n, 9), 1, 1.5, 3000, seed=3)
        for n in (8, 32, 128, 512)
    ]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] > rates[-1]


# ---------------------------------------------------------------------------
# Bit-level reproducibility of seeded sweeps


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "schema: 1\nseed: 29\nreplications: 6\nmethods: [rct, matching]\n"
        "scenario:\n  n_observed: 30\n  n_future: 40\n  levels: [a, b, c]\n"
        "  base_outcomes:\n    a: [2.0, 6.0]\n    b: [3.0, 5.0]\n    c: [1.0, 4.0]\n"
        "  noise_sd: 0.75\n"
    )
    out1, out2 = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert set(report["summary"]) == {"rct", "matching"}
