"""Scalar reference implementations of the scenario generators.

Each function here draws one scalar per unit from each component stream and
builds one ``Covariate`` per row, which is slow but easy to check by eye
against the stream orders documented in ``finitepop.simulate``.
``test_generate_differential.py`` asserts that the bulk-drawing generators in
``src`` produce scenarios whose ``serialized()`` form equals these byte for
byte.
"""

from __future__ import annotations

import numpy as np
from fixtures import columns

from finitepop.core import (
    Covariate,
    FuturePopulation,
    ObservedDataset,
    Row,
    Unit,
)
from finitepop.simulate import (
    _STREAM_ASSIGN,
    _STREAM_FUT_COV,
    _STREAM_FUT_NOISE,
    _STREAM_INSTRUMENT,
    _STREAM_OBS_COV,
    _STREAM_OBS_NOISE,
    Scenario,
    ScenarioSpec,
    component_rng,
)


def _weights(levels: tuple[str, ...], pairs) -> np.ndarray:
    if pairs is None:
        w = np.ones(len(levels))
    else:
        lookup = dict(pairs)
        w = np.asarray([lookup[level] for level in levels], dtype=float)
    return w / w.sum()


def _draw_levels(levels, weights, n, rng, min_per_level: int) -> list[str]:
    forced = [lv for lv in levels for _ in range(min_per_level)]
    if len(forced) > n:
        raise ValueError(f"population of size {n} cannot hold {min_per_level} of each level")
    drawn = list(rng.choice(len(levels), size=n - len(forced), p=weights))
    out = forced + [levels[i] for i in drawn]
    rng.shuffle(out)
    return out


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, v))


def generate(spec: ScenarioSpec) -> Scenario:
    base = dict(spec.base_outcomes)
    shift = dict(spec.future_outcome_shift or ())
    k0, k1 = spec.outcome_range
    rng_obs = component_rng(spec.seed, _STREAM_OBS_COV)
    rng_assign = component_rng(spec.seed, _STREAM_ASSIGN)
    rng_noise = component_rng(spec.seed, _STREAM_OBS_NOISE)
    rng_fut = component_rng(spec.seed, _STREAM_FUT_COV)
    rng_fut_noise = component_rng(spec.seed, _STREAM_FUT_NOISE)

    if spec.assignment == "balanced":
        obs_levels = even_cell_levels(
            spec.levels, spec.observed_level_weights, spec.n_observed, rng_obs
        )
    else:
        obs_levels = _draw_levels(
            spec.levels, _weights(spec.levels, spec.observed_level_weights),
            spec.n_observed, rng_obs, min_per_level=2,
        )

    if spec.instrument is None:
        if spec.assignment == "balanced":
            ts = _balanced_assignment(obs_levels, rng_assign)
        else:
            ts = [int(rng_assign.random() < spec.propensity(lv)) for lv in obs_levels]
            _force_support(obs_levels, ts)
        zs: list[int | None] = [None] * len(obs_levels)
    else:
        inst = spec.instrument
        rng_z = component_rng(spec.seed, _STREAM_INSTRUMENT)
        zs = [int(rng_z.random() < inst.z_probability) for _ in obs_levels]
        compliance_obs = [
            {z: int(rng_z.random() < inst.take_prob(z)) for z in (0, 1)} for _ in obs_levels
        ]
        ts = [compliance_obs[i][zs[i]] for i in range(len(obs_levels))]

    def observed_outcome(i: int, level: str, t: int) -> float:
        if spec.shared_unit_noise:
            noise = spec.noise_sd * obs_shared_noise[i]
        else:
            noise = spec.noise_sd * rng_noise.standard_normal()
        return float(_clamp(base[level][t] + noise, k0, k1))

    obs_shared_noise = rng_noise.standard_normal(len(obs_levels)) if spec.shared_unit_noise else None
    rows = []
    for i, (level, t) in enumerate(zip(obs_levels, ts)):
        rows.append(
            Row(unit=i, x=Covariate.of(level=level), t=t, y=observed_outcome(i, level, t), z=zs[i])
        )
    observed = ObservedDataset(tuple(rows))

    present = tuple(sorted(set(obs_levels)))
    fut_weights = _weights(present, None if spec.future_level_weights is None else tuple(
        (lv, w) for lv, w in spec.future_level_weights if lv in present
    ))
    fut_levels = _draw_levels(present, fut_weights, spec.n_future, rng_fut, min_per_level=1)

    outcomes: dict[tuple[int, int], float] = {}
    compliance: dict[tuple[int, int], int] = {}
    units = []
    fut_shared_noise = (
        rng_fut_noise.standard_normal(len(fut_levels)) if spec.shared_unit_noise else None
    )
    rng_fut_inst = (
        component_rng(spec.seed, _STREAM_INSTRUMENT + 100) if spec.instrument else None
    )
    for j, level in enumerate(fut_levels):
        unit = spec.n_observed + j
        units.append(Unit(unit, Covariate.of(level=level)))
        local_shift = shift.get(level, 0.0)
        if spec.instrument is not None:
            for z in (0, 1):
                compliance[(unit, z)] = int(
                    rng_fut_inst.random() < spec.instrument.take_prob(z)
                )
        for t in (0, 1):
            if spec.shared_unit_noise:
                noise = spec.noise_sd * fut_shared_noise[j]
            else:
                noise = spec.noise_sd * rng_fut_noise.standard_normal()
            outcomes[(unit, t)] = float(_clamp(base[level][t] + local_shift + noise, k0, k1))
        if spec.instrument is not None and spec.instrument.dominance_break > 0:
            if compliance[(unit, 1)] == 0:
                outcomes[(unit, 1)] = outcomes[(unit, 0)] - spec.instrument.dominance_break

    future = FuturePopulation(
        tuple(units),
        outcomes=columns(units, outcomes),
        compliance=columns(units, compliance),
    )
    return Scenario(observed, future, spec)


def _force_support(levels: list[str], ts: list[int]) -> None:
    by_level: dict[str, list[int]] = {}
    for i, lv in enumerate(levels):
        by_level.setdefault(lv, []).append(i)
    for idxs in by_level.values():
        assigned = {ts[i] for i in idxs}
        if 1 not in assigned:
            ts[idxs[0]] = 1
        if 0 not in assigned:
            ts[idxs[-1]] = 0


def _balanced_assignment(levels: list[str], rng) -> list[int]:
    ts = [0] * len(levels)
    by_level: dict[str, list[int]] = {}
    for i, lv in enumerate(levels):
        by_level.setdefault(lv, []).append(i)
    for idxs in by_level.values():
        chosen = rng.permutation(len(idxs))[: len(idxs) // 2]
        for c in chosen:
            ts[idxs[c]] = 1
    return ts


def even_cell_levels(levels: tuple[str, ...], weights, n: int, rng) -> list[str]:
    if n % 2:
        raise ValueError("population size must be even for balanced cells")
    draws = _draw_levels(levels, _weights(levels, weights), n, rng, min_per_level=2)
    counts: dict[str, int] = {}
    for lv in draws:
        counts[lv] = counts.get(lv, 0) + 1
    odd = [lv for lv, c in counts.items() if c % 2]
    for a, b in zip(odd[::2], odd[1::2]):
        counts[a] += 1
        counts[b] -= 1
    out = [lv for lv, c in counts.items() for _ in range(c)]
    rng.shuffle(out)
    return out


def generate_compliance_stable_scenario(
    n_observed: int,
    clone_factor: int,
    t: int,
    seed: int,
    outcome_range: tuple[float, float] = (0.0, 10.0),
    noise_sd: float = 1.0,
    take_probability: float = 0.6,
) -> Scenario:
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    z_arm = 1 if t == 1 else 0
    k0, k1 = outcome_range
    rng = component_rng(seed, _STREAM_INSTRUMENT)
    rng_noise = component_rng(seed, _STREAM_OBS_NOISE)
    rng_fut = component_rng(seed, _STREAM_FUT_NOISE)

    takes = [int(rng.random() < take_probability) for _ in range(n_observed)]
    takes[0], takes[1] = 1, 0
    off_arm = [int(rng.random() < 0.5) for _ in range(n_observed)]

    def draw_pair(r) -> tuple[float, float]:
        y0 = _clamp(k0 + (k1 - k0) * 0.3 + noise_sd * r.standard_normal(), k0, k1)
        y1 = _clamp(y0 + (k1 - k0) * 0.2, k0, k1)
        return y0, y1

    x = Covariate.of(level="all")
    rows = []
    for i, take in enumerate(takes):
        y0, y1 = draw_pair(rng_noise)
        rows.append(Row(unit=i, x=x, t=take, y=(y1 if take else y0), z=z_arm))
    observed = ObservedDataset(tuple(rows))

    units, outcomes, compliance = [], {}, {}
    unit = n_observed
    for i, take in enumerate(takes):
        for _ in range(clone_factor):
            y0, y1 = draw_pair(rng_fut)
            units.append(Unit(unit, x))
            outcomes[(unit, 0)], outcomes[(unit, 1)] = y0, y1
            compliance[(unit, z_arm)] = takes[i]
            compliance[(unit, 1 - z_arm)] = off_arm[i]
            unit += 1
    future = FuturePopulation(
        tuple(units), columns(units, outcomes), columns(units, compliance)
    )
    return Scenario(observed, future, ScenarioSpec(
        n_observed=n_observed, n_future=len(units), levels=("all",),
        base_outcomes=(("all", ((k0 + k1) / 2, (k0 + k1) / 2)),),
        outcome_range=outcome_range, seed=seed,
    ))
