import dataclasses
import math

import pytest
import rowscan_reference as ref
from fixtures import XA, columns

from finitepop.audit import (
    AUDITS,
    audit_compliance_stability,
    audit_dominance,
    dominance_holds,
)
from finitepop.core import FuturePopulation, Unit
from finitepop.simulate import (
    InstrumentSpec,
    ScenarioSpec,
    convergence_check,
    generate,
    generate_compliance_stable_scenario,
    random_partition_concentration,
    scenario_seed,
)

BASE = ScenarioSpec(
    n_observed=40,
    n_future=60,
    levels=("a", "b"),
    base_outcomes=(("a", (2.0, 6.0)), ("b", (3.0, 5.0))),
    noise_sd=0.5,
    seed=12,
)


def test_generation_is_deterministic():
    assert generate(BASE).serialized() == generate(BASE).serialized()


def test_different_seeds_differ():
    other = dataclasses.replace(BASE, seed=13)
    assert generate(BASE).serialized() != generate(other).serialized()


def test_ground_truth_matches_oracle():
    sc = generate(BASE)
    assert sc.ground_truth["apo"][1] == sc.future.apo(1)
    assert sc.ground_truth["ate"] == sc.future.ate()


def test_support_holds_by_construction():
    for seed in range(20):
        sc = generate(dataclasses.replace(BASE, seed=seed))
        assert len(sc.observed) > 0 and ref.support_violations(sc.observed) == ()


def test_future_levels_subset_of_observed():
    sc = generate(BASE)
    assert set(sc.future.xs()) <= set(sc.observed.xs())


def test_zero_noise_constant_outcomes():
    spec = ScenarioSpec(
        n_observed=10, n_future=10, levels=("a",),
        base_outcomes=(("a", (4.0, 4.0)),), noise_sd=0.0, seed=1,
    )
    sc = generate(spec)
    assert sc.ground_truth["apo"][0] == 4.0
    assert sc.ground_truth["apo"][1] == 4.0


def test_p8_style_spec_recovers_truth():
    spec = ScenarioSpec(
        n_observed=8, n_future=8, levels=("a", "b"),
        base_outcomes=(("a", (6.0, 10.0)), ("b", (2.0, 4.0))),
        noise_sd=0.0, seed=3,
        observed_level_weights=(("a", 1.0), ("b", 1.0)),
        future_level_weights=(("a", 1.0), ("b", 1.0)),
    )
    sc = generate(spec)
    counts = {lv: 0 for lv in ("a", "b")}
    for u in sc.future.units:
        counts[u.x.get("level")] += 1
    expect1 = (counts["a"] * 10.0 + counts["b"] * 4.0) / len(sc.future)
    assert sc.ground_truth["apo"][1] == pytest.approx(expect1)


def test_outcomes_clamped_to_range():
    spec = dataclasses.replace(BASE, noise_sd=50.0)
    sc = generate(spec)
    k0, k1 = spec.outcome_range
    for r in sc.observed.rows:
        assert k0 <= r.y <= k1
    for u in sc.future.units:
        for t in (0, 1):
            assert k0 <= sc.future.y(u.unit, t) <= k1


def test_outcome_shift_knob_is_monotone_in_signed_difference():
    previous = None
    for shift in (0.0, 0.5, 1.0, 2.0):
        spec = dataclasses.replace(BASE, future_outcome_shift=(("a", shift), ("b", shift)))
        sc = generate(spec)
        asd = AUDITS["signed_difference"](None, sc.observed, sc.future, {}).per_treatment[1]
        if previous is not None:
            assert asd >= previous - 1e-12
        previous = asd


def test_spec_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, n_observed=0)
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, assignment="bogus")
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, base_outcomes=(("a", (2.0, 6.0)),))
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, base_outcomes=(("a", (2.0, 60.0)), ("b", (3.0, 5.0))))
    with pytest.raises(ValueError):
        dataclasses.replace(BASE, propensities=1.5)


def test_balanced_assignment_constant_propensity():
    from finitepop.core import empirical_propensity

    spec = dataclasses.replace(BASE, assignment="balanced")
    sc = generate(spec)
    props = set(empirical_propensity(sc.observed, 1).values())
    assert props == {0.5}


def test_instrument_scenario_dominance_holds():
    spec = dataclasses.replace(
        BASE,
        shared_unit_noise=True,
        instrument=InstrumentSpec(take_probability=((0, 0.2), (1, 0.8))),
    )
    sc = generate(spec)
    assert sc.observed.has_instrument
    assert dominance_holds(audit_dominance(sc.future))


def test_dominance_break_knob_detected():
    spec = dataclasses.replace(
        BASE,
        shared_unit_noise=True,
        instrument=InstrumentSpec(take_probability=((0, 0.2), (1, 0.8)), dominance_break=2.0),
    )
    sc = generate(spec)
    assert not dominance_holds(audit_dominance(sc.future))


def test_scenario_seed_spread():
    seeds = {scenario_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert scenario_seed(7, 3) == scenario_seed(7, 3)


def test_compliance_stable_scenario_shares_match():
    sc = generate_compliance_stable_scenario(30, 4, 1, seed=2)
    res = audit_compliance_stability(sc.observed, sc.future)
    assert res.per_treatment[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert res.per_treatment[(0, 1)] == pytest.approx(0.0, abs=1e-12)


def test_compliance_stable_scenario_t0():
    sc = generate_compliance_stable_scenario(30, 2, 0, seed=9)
    assert all(r.z == 0 for r in sc.observed.rows)
    res = audit_compliance_stability(sc.observed, sc.future)
    assert res.per_treatment[(0, 0)] == pytest.approx(0.0, abs=1e-12)


def _four_point_population():
    units = tuple(Unit(i, XA) for i in range(4))
    table = {}
    for i, y in enumerate((0.0, 0.0, 10.0, 10.0)):
        table[(i, 1)] = y
        table[(i, 0)] = 0.0
    return FuturePopulation(units, columns(units, table))


def test_concentration_constant_outcomes_zero():
    units = tuple(Unit(i, XA) for i in range(6))
    table = {(i, t): 2.0 for i in range(6) for t in (0, 1)}
    pop = FuturePopulation(units, columns(units, table))
    assert random_partition_concentration(pop, 1, 0.5, 200, seed=0) == 0.0


def test_concentration_impossible_gap_zero():
    assert random_partition_concentration(_four_point_population(), 1, 10.1, 500, seed=0) == 0.0


def test_concentration_four_point_one_third():
    got = random_partition_concentration(_four_point_population(), 1, 5.0, 10_000, seed=1)
    assert got == pytest.approx(1 / 3, abs=0.05)


def test_convergence_errors_shrink():
    base = ScenarioSpec(
        n_observed=10, n_future=10, levels=("a", "b"),
        base_outcomes=(("a", (2.0, 6.0)), ("b", (3.0, 5.0))),
        noise_sd=1.0, seed=0,
    )
    curve = convergence_check(base, "rct", [20, 2000], 20, seed=3)
    assert curve[1][1] < curve[0][1]
