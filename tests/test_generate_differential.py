"""Bulk-drawing scenario generators against their scalar references.

``generate_reference`` keeps the generators that draw one scalar per unit per
stream.  The bulk draws consume every stream in the same order and apply the
same floating-point operations in the same order, so the serialized scenarios
must be equal byte for byte, signed zeros included.
"""

import dataclasses

import generate_reference as ref
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finitepop.simulate import (
    InstrumentSpec,
    ScenarioSpec,
    generate,
    generate_compliance_stable_scenario,
)

EXAMPLES = settings(max_examples=200, deadline=None)
RANGES = ((0.0, 10.0), (-1.0, 1.0), (0, 5))  # an int range is cast like a float one
NOISE = (0.0, 0.5, 3.0)
BREAKS = (0.0, 0.5, 2.0)


def assert_same(spec: ScenarioSpec) -> None:
    assert generate(spec).serialized() == ref.generate(spec).serialized()


@st.composite
def specs(draw) -> ScenarioSpec:
    levels = tuple(draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True)))
    k0, k1 = draw(st.sampled_from(RANGES))
    # -0.0 and 0.0 both lie in every range above and take different paths through the clamp
    outcome = st.sampled_from((-0.0, 0.0, k0, k1)) | st.floats(k0, k1)
    weight = st.floats(min_value=0.01, max_value=5.0)

    def per_level(values, keys=levels):
        return tuple((lv, draw(values)) for lv in keys)

    def maybe_per_level(values, keys=levels):
        return per_level(values, keys) if draw(st.booleans()) else None

    assignment = draw(st.sampled_from(("rct", "propensity", "balanced")))
    n_observed = draw(st.integers(2 * len(levels), 2 * len(levels) + 30))
    if assignment == "balanced":
        n_observed += n_observed % 2
    instrument = None
    if draw(st.booleans()):
        instrument = InstrumentSpec(
            z_probability=draw(st.floats(0.0, 1.0)),
            take_probability=((0, draw(st.floats(0.0, 1.0))), (1, draw(st.floats(0.0, 1.0)))),
            dominance_break=draw(st.sampled_from(BREAKS)),
        )
    return ScenarioSpec(
        n_observed=n_observed,
        n_future=draw(st.integers(len(levels), len(levels) + 30)),
        levels=levels,
        base_outcomes=tuple((lv, (draw(outcome), draw(outcome))) for lv in levels),
        noise_sd=draw(st.sampled_from(NOISE)),
        outcome_range=(k0, k1),
        assignment=assignment,
        propensities=maybe_per_level(st.floats(0.0, 1.0)) or draw(st.floats(0.0, 1.0)),
        observed_level_weights=maybe_per_level(weight),
        future_level_weights=maybe_per_level(weight),
        future_outcome_shift=maybe_per_level(
            st.floats(-3.0, 3.0), levels[: draw(st.integers(0, len(levels)))]
        ),
        shared_unit_noise=draw(st.booleans()),
        instrument=instrument,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@given(specs())
@EXAMPLES
def test_generate_matches_reference(spec):
    assert_same(spec)


# Only float outcome ranges: where a clamp hits an int bound the scalar form
# stores that int unconverted, while the bulk form always stores floats.
@given(
    n_observed=st.integers(2, 30),
    clone_factor=st.integers(1, 4),
    t=st.sampled_from((0, 1)),
    seed=st.integers(0, 2**64 - 1),
    outcome_range=st.sampled_from(((0.0, 10.0), (-1.0, 1.0), (2.5, 2.5))),
    noise_sd=st.sampled_from(NOISE),
    take_probability=st.floats(0.0, 1.0),
)
@EXAMPLES
def test_compliance_stable_scenario_matches_reference(**kwargs):
    got = generate_compliance_stable_scenario(**kwargs)
    assert got.serialized() == ref.generate_compliance_stable_scenario(**kwargs).serialized()


def spec_for_seed(seed: int) -> ScenarioSpec:
    """A spec whose every knob is drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    levels = ("a", "b", "c", "d")[: int(rng.integers(1, 5))]
    assignment = str(rng.choice(["rct", "propensity", "balanced"]))
    k0, k1 = RANGES[rng.integers(3)]

    def pairs(values):
        return tuple(zip(levels, (float(v) for v in values)))

    def maybe(values):
        return pairs(values) if rng.random() < 0.5 else None

    return ScenarioSpec(
        n_observed=2 * len(levels) + int(rng.integers(0, 40)) // 2 * 2,
        n_future=len(levels) + int(rng.integers(0, 40)),
        levels=levels,
        base_outcomes=tuple(
            (lv, (-0.0 if i == 0 else float(rng.uniform(k0, k1)), float(rng.uniform(k0, k1))))
            for i, lv in enumerate(levels)
        ),
        noise_sd=NOISE[rng.integers(3)],
        outcome_range=(k0, k1),
        assignment=assignment,
        propensities=maybe(rng.uniform(0, 1, len(levels))) or float(rng.uniform()),
        observed_level_weights=maybe(rng.uniform(0.1, 3, len(levels))),
        future_level_weights=maybe(rng.uniform(0.1, 3, len(levels))),
        future_outcome_shift=maybe(rng.uniform(-2, 2, len(levels))),
        shared_unit_noise=bool(rng.random() < 0.5),
        instrument=InstrumentSpec(dominance_break=BREAKS[rng.integers(3)]),
        seed=seed,
    )


def test_two_hundred_seeds_match_reference():
    for seed in range(200):
        spec = spec_for_seed(seed)
        assert_same(spec)
        assert_same(dataclasses.replace(spec, instrument=None))
        kwargs = dict(
            n_observed=2 + seed % 20, clone_factor=1 + seed % 3, t=seed % 2, seed=seed,
            noise_sd=NOISE[seed % 3],
        )
        got = generate_compliance_stable_scenario(**kwargs)
        assert got.serialized() == ref.generate_compliance_stable_scenario(**kwargs).serialized()
