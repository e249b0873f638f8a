"""Synthetic finite populations with known ground truth.

Generation is deterministic given the spec's seed.  Independent RNG streams
are used per component (covariates, assignment, noise, instrument, future
side) so that turning one violation knob does not reshuffle the others.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import (
    ComplianceOracle,
    Covariate,
    FuturePopulation,
    ObservedDataset,
    OutcomeOracle,
    Row,
    Unit,
)
from .estimate import PanelDataset, named_estimator

# Component stream ids; changing one knob must not reshuffle the other streams.
_STREAM_OBS_COV = 0
_STREAM_ASSIGN = 1
_STREAM_OBS_NOISE = 2
_STREAM_FUT_COV = 3
_STREAM_FUT_NOISE = 4
_STREAM_INSTRUMENT = 5


def component_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def scenario_seed(master_seed: int, index: int) -> int:
    """Per-scenario seed for sweeps: derived from (master seed, scenario index)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class InstrumentSpec:
    """Instrument assignment and compliance behaviour.

    take_probability maps instrument value z to P(taking t=1 | z).  With
    shared unit noise and nonnegative per-level effects, treatment dominance
    holds by construction; dominance_break subtracts a positive amount from
    y(i, 1) for future units that would not take treatment under z=1.
    """

    z_probability: float = 0.5
    take_probability: tuple[tuple[int, float], ...] = ((0, 0.2), (1, 0.8))
    dominance_break: float = 0.0

    def take_prob(self, z: int) -> float:
        return dict(self.take_probability)[z]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one scenario deterministically."""

    n_observed: int
    n_future: int
    levels: tuple[str, ...]
    base_outcomes: tuple[tuple[str, tuple[float, float]], ...]  # level -> (y|t=0, y|t=1)
    noise_sd: float = 0.0
    outcome_range: tuple[float, float] = (0.0, 10.0)
    assignment: str = "rct"  # rct | propensity | balanced
    propensities: tuple[tuple[str, float], ...] | float = 0.5
    observed_level_weights: tuple[tuple[str, float], ...] | None = None
    future_level_weights: tuple[tuple[str, float], ...] | None = None
    future_outcome_shift: tuple[tuple[str, float], ...] | None = None
    shared_unit_noise: bool = False
    instrument: InstrumentSpec | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_observed < 1 or self.n_future < 1:
            raise ValueError("population sizes must be >= 1")
        if self.assignment not in ("rct", "propensity", "balanced"):
            raise ValueError(f"unknown assignment mechanism {self.assignment!r}")
        k0, k1 = self.outcome_range
        if k0 > k1:
            raise ValueError("outcome_range lower bound exceeds upper bound")
        base = dict(self.base_outcomes)
        if set(base) != set(self.levels):
            raise ValueError("base_outcomes must cover exactly the declared levels")
        for level, (y0, y1) in base.items():
            for v in (y0, y1):
                if not (k0 <= v <= k1):
                    raise ValueError(
                        f"base outcome {v} at level {level} outside range [{k0}, {k1}]"
                    )
        if isinstance(self.propensities, (int, float)):
            probs = [float(self.propensities)]
        else:
            probs = [p for _, p in self.propensities]
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("propensities must lie in [0, 1]")

    def propensity(self, level: str) -> float:
        if isinstance(self.propensities, (int, float)):
            return float(self.propensities)
        return dict(self.propensities)[level]


@dataclass(frozen=True)
class Scenario:
    observed: ObservedDataset
    future: FuturePopulation
    spec: ScenarioSpec
    ground_truth: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        spec = asdict(self.spec)
        return {
            "spec": spec,
            "observed": [
                [r.unit, list(r.x.items), r.t, r.y, r.z] for r in self.observed.rows
            ],
            "future": [[u.unit, list(u.x.items)] for u in self.future.units],
            "oracle": sorted(
                [list(k) + [v] for k, v in self.future.oracle.table.items()]
            ) if self.future.oracle else None,
            "compliance": sorted(
                [list(k) + [v] for k, v in self.future.instrument_oracle.table.items()]
            ) if self.future.instrument_oracle else None,
            "ground_truth": self.ground_truth,
        }

    def serialized(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _weights(levels: tuple[str, ...], pairs) -> np.ndarray:
    if pairs is None:
        w = np.ones(len(levels))
    else:
        lookup = dict(pairs)
        w = np.asarray([lookup[level] for level in levels], dtype=float)
    return w / w.sum()


def _draw_levels(levels, weights, n, rng, min_per_level: int) -> list[str]:
    """n draws from the level weights, with at least min_per_level of each level."""
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
    """Generate an observed dataset and an oracle-equipped future population.

    Observed covariate cells are guaranteed to contain both treatments (support
    holds by construction), and every level present in the future side occurs
    in the observed side.
    """
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

    # --- treatment assignment (instrument-free case)
    if spec.instrument is None:
        if spec.assignment == "balanced":
            ts = _balanced_assignment(obs_levels, rng_assign)
        else:
            ts = [int(rng_assign.random() < spec.propensity(lv)) for lv in obs_levels]
            _force_support(obs_levels, ts)
        zs: list[int | None] = [None] * len(obs_levels)
        compliance_obs = None
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

    # --- future side: draw only levels that occur in the observed data
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
            if compliance[(unit, 1)] == 0:  # would not take treatment under z=1
                outcomes[(unit, 1)] = outcomes[(unit, 0)] - spec.instrument.dominance_break

    future = FuturePopulation(
        tuple(units),
        oracle=OutcomeOracle(outcomes),
        instrument_oracle=ComplianceOracle(compliance) if compliance else None,
    )
    apo = {t: future.apo(t) for t in (0, 1)}
    return Scenario(observed, future, spec, {"apo": apo, "ate": apo[1] - apo[0]})


def _force_support(levels: list[str], ts: list[int]) -> None:
    """Flip one unit per deficient covariate cell so every cell has both treatments."""
    by_level: dict[str, list[int]] = {}
    for i, lv in enumerate(levels):
        by_level.setdefault(lv, []).append(i)
    for idxs in by_level.values():
        assigned = {ts[i] for i in idxs}
        if 1 not in assigned:
            ts[idxs[0]] = 1
        if 0 not in assigned:
            ts[idxs[-1]] = 0


def _balanced_assignment(levels: list[str], rng: np.random.Generator) -> list[int]:
    """Treat exactly half of each covariate cell (cells are padded to even size upstream).

    On an odd cell the extra unit is moved to control, so the realized treated
    fraction is constant across cells only when every cell is even.
    """
    ts = [0] * len(levels)
    by_level: dict[str, list[int]] = {}
    for i, lv in enumerate(levels):
        by_level.setdefault(lv, []).append(i)
    for idxs in by_level.values():
        chosen = rng.permutation(len(idxs))[: len(idxs) // 2]
        for c in chosen:
            ts[idxs[c]] = 1
    return ts


def even_cell_levels(levels: tuple[str, ...], weights, n: int, rng: np.random.Generator) -> list[str]:
    """Level draws with every cell count even (for exactly-balanced assignment)."""
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
    """Scenario whose compliance-group shares match exactly between populations.

    All observed units sit on one instrument arm (z=1 when bounding the APO of
    t=1, z=0 for t=0), and the future population replicates the observed
    compliance composition clone_factor times, so the group-share premise of
    the interval bounds holds with equality.
    """
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    z_arm = 1 if t == 1 else 0
    k0, k1 = outcome_range
    rng = component_rng(seed, _STREAM_INSTRUMENT)
    rng_noise = component_rng(seed, _STREAM_OBS_NOISE)
    rng_fut = component_rng(seed, _STREAM_FUT_NOISE)

    takes = [int(rng.random() < take_probability) for _ in range(n_observed)]
    takes[0], takes[1] = 1, 0  # both compliance groups nonempty
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
        tuple(units), OutcomeOracle(outcomes), ComplianceOracle(compliance)
    )
    truth = {"apo": {s: future.apo(s) for s in (0, 1)}, "ate": future.ate()}
    return Scenario(observed, future, ScenarioSpec(
        n_observed=n_observed, n_future=len(units), levels=("all",),
        base_outcomes=(("all", ((k0 + k1) / 2, (k0 + k1) / 2)),),
        outcome_range=outcome_range, seed=seed,
    ), truth)


def random_partition_concentration(
    pop: FuturePopulation, t: int, eps: float, trials: int, seed: int
) -> float:
    """Fraction of uniform random half-splits whose half means differ by >= eps.

    Odd population sizes split floor(n/2) against ceil(n/2).
    """
    oracle = pop.require_oracle()
    n = len(pop)
    if n < 2:
        raise ValueError("need at least two units to split")
    if trials < 1:
        raise ValueError("trials must be positive")
    ys = np.asarray([oracle.y(u.unit, t) for u in pop.units])
    half = n // 2
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(trials):
        perm = rng.permutation(n)
        m1 = ys[perm[:half]].mean()
        m2 = ys[perm[half:]].mean()
        if abs(m1 - m2) >= eps:
            violations += 1
    return violations / trials


def convergence_check(
    base_spec: ScenarioSpec,
    estimator: str,
    sizes: Sequence[int],
    replications: int,
    seed: int,
) -> list[tuple[int, float]]:
    """Replication-mean absolute estimation error of the APO of t=1, per population size."""
    run = named_estimator(estimator)
    curve = []
    for si, size in enumerate(sizes):
        errors = []
        for rep in range(replications):
            spec = replace(
                base_spec,
                n_observed=size,
                n_future=size,
                seed=scenario_seed(seed, si * replications + rep),
            )
            scenario = generate(spec)
            errors.append(abs(run(scenario.observed, 1).estimate - scenario.ground_truth["apo"][1]))
        curve.append((size, math.fsum(errors) / len(errors)))
    return curve


@dataclass(frozen=True)
class PanelSpec:
    """Three-group two-step panel with a parallel-trends violation knob."""

    group_sizes: tuple[int, int, int] = (20, 20, 20)  # A, B, C
    base_means: tuple[float, float, float] = (5.0, 3.0, 6.0)
    trend: float = 1.0
    treatment_effect: float = 2.0
    noise_sd: float = 1.0
    violation: float = 0.0
    seed: int = 0


def generate_panel(spec: PanelSpec) -> tuple[PanelDataset, dict]:
    """Panel plus recorded true step-1 means for group C under both treatments.

    The truth is defined through the parallel-difference identity on realized
    sample means, offset by the violation knob, so the prediction error of each
    route equals the violation exactly.
    """
    rng = component_rng(spec.seed, _STREAM_OBS_NOISE)
    na, nb, nc = spec.group_sizes
    ma, mb, mc = spec.base_means

    def sample(mean: float, n: int) -> tuple[float, ...]:
        return tuple(float(v) for v in mean + spec.noise_sd * rng.standard_normal(n))

    panel = PanelDataset(
        a_step0=sample(ma, na),
        a_step1=sample(ma + spec.trend + spec.treatment_effect, na),
        b_step0=sample(mb, nb),
        b_step1=sample(mb + spec.trend, nb),
        c_step0=sample(mc, nc),
    )

    def m(v):
        return math.fsum(v) / len(v)

    truth = {
        "c_step1_t1": m(panel.a_step1) - m(panel.a_step0) + m(panel.c_step0) + spec.violation,
        "c_step1_t0": m(panel.b_step1) - m(panel.b_step0) + m(panel.c_step0) + spec.violation,
        "violation": spec.violation,
    }
    return panel, truth
