"""Synthetic finite populations with known ground truth.

Generation is deterministic given the spec's seed.  Independent RNG streams
are used per component (covariates, assignment, noise, instrument, future
side) so that turning one violation knob does not reshuffle the others.

numpy is imported inside the functions that draw, and the CLI imports this
module only inside the verbs that draw, so no other verb loads either.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

from .core import Covariate, FuturePopulation, ObservedDataset, fsum
from .estimate import PanelDataset, named_estimator

if TYPE_CHECKING:
    import numpy as np

# Component stream ids; changing one knob must not reshuffle the other streams.
_STREAM_OBS_COV = 0
_STREAM_ASSIGN = 1
_STREAM_OBS_NOISE = 2
_STREAM_FUT_COV = 3
_STREAM_FUT_NOISE = 4
_STREAM_INSTRUMENT = 5


def component_rng(seed: int, stream: int) -> np.random.Generator:
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def scenario_seed(master_seed: int, index: int) -> int:
    """Per-scenario seed for sweeps: derived from (master seed, scenario index)."""
    import numpy as np
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

    def __post_init__(self) -> None:
        if not 0.0 <= self.z_probability <= 1.0:
            raise ValueError(f"z_probability must lie in [0, 1], got {self.z_probability}")
        take = dict(self.take_probability)
        if not {0, 1} <= set(take):
            raise ValueError("take_probability must give P(t=1 | z) for both z=0 and z=1")
        if any(not 0.0 <= p <= 1.0 for p in take.values()):
            raise ValueError("take probabilities must lie in [0, 1]")

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
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if self.n_observed < 2 * len(self.levels) or self.n_future < len(set(self.levels)):
            raise ValueError("every level needs 2 observed units and 1 future unit")
        if self.assignment not in ("rct", "propensity", "balanced"):
            raise ValueError(f"unknown assignment mechanism {self.assignment!r}")
        if self.assignment == "balanced" and self.n_observed % 2:
            raise ValueError("balanced assignment needs an even n_observed")
        if not self.noise_sd >= 0:
            raise ValueError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
            _require_levels(self.propensities, self.levels, "propensities")
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("propensities must lie in [0, 1]")
        for name in ("observed_level_weights", "future_level_weights"):
            if getattr(self, name) is not None:
                w = _require_levels(getattr(self, name), self.levels, name)
                if not all(0 <= v < math.inf for v in w) or not fsum(w) > 0:
                    raise ValueError(f"{name} must be finite, nonnegative and not all zero")
        if not all(math.isfinite(v) for _, v in self.future_outcome_shift or ()):
            raise ValueError("future_outcome_shift values must be finite")

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
            "oracle": self._triples(self.future.outcomes),
            "compliance": self._triples(self.future.compliance),
            "ground_truth": self.ground_truth,
        }

    def _triples(self, columns) -> list | None:
        """Sorted ``[unit, key, value]`` triples of oracle columns; None without them."""
        if columns is None:
            return None
        ids = [u.unit for u in self.future.units]
        return sorted([i, k, v] for k, column in columns.items() for i, v in zip(ids, column))

    def serialized(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _require_levels(pairs, levels: tuple[str, ...], name: str) -> list:
    """The values of ``pairs`` at each distinct level; every level must have one."""
    lookup = dict(pairs)
    missing = sorted(set(levels) - set(lookup))
    if missing:
        raise ValueError(f"{name} missing levels {missing}")
    return [lookup[level] for level in sorted(set(levels))]


def _weights(levels: tuple[str, ...], pairs) -> np.ndarray:
    import numpy as np
    if pairs is None:
        w = np.ones(len(levels))
    else:
        lookup = dict(pairs)
        w = np.asarray([lookup[level] for level in levels], dtype=float)
    return w / w.sum()


def _draw_levels(levels, weights, n, rng, min_per_level: int) -> np.ndarray:
    """n draws from the level weights, with at least min_per_level of each level.

    Returns codes into ``sorted(set(levels))``.  The shuffle permutes an
    integer array exactly as it would permute the list of level strings.
    """
    import numpy as np
    forced = np.repeat(np.arange(len(levels)), min_per_level)
    if len(forced) > n:
        raise ValueError(f"population of size {n} cannot hold {min_per_level} of each level")
    drawn = rng.choice(len(levels), size=n - len(forced), p=weights)
    code = {lv: i for i, lv in enumerate(sorted(set(levels)))}
    out = np.asarray([code[lv] for lv in levels])[np.concatenate([forced, drawn])]
    rng.shuffle(out)
    return out


def _cells(codes: np.ndarray) -> list[np.ndarray]:
    """Positions of the units of each level code, cells in order of first appearance."""
    import numpy as np
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(counts)[:-1])
    return [groups[k] for k in np.argsort(first)]


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Elementwise ``min(hi, max(lo, v))``.

    Not ``np.clip``, which keeps ``-0.0`` at ``lo = 0.0`` where ``max`` gives ``lo``.
    """
    import numpy as np
    w = np.where(v > lo, v, lo)
    return np.where(w < hi, w, hi)


def _ground_truth(y: np.ndarray) -> dict:
    """APOs and ATE of an outcome table with one row per unit and one column per t.

    ``math.fsum`` is exactly rounded, so each APO equals ``future.apo(t)``.
    """
    apo = {t: fsum(y[:, t].tolist()) / len(y) for t in (0, 1)}
    return {"apo": apo, "ate": apo[1] - apo[0]}


def generate(spec: ScenarioSpec) -> Scenario:
    """Generate an observed dataset and an oracle-equipped future population.

    Observed covariate cells are guaranteed to contain both treatments (support
    holds by construction), and every level present in the future side occurs
    in the observed side.

    Each stream is drawn in bulk, in the order of the scalar draws it replaces:
    assignment gives one uniform per observed unit (balanced: one permutation
    per cell, cells in order of first appearance); the instrument gives z per
    observed unit, then a (z=0, z=1) compliance pair per unit, and stream
    ``+ 100`` the future pairs; observed noise one normal per unit; future
    noise one normal per unit when shared, else a (t=0, t=1) pair per unit.
    """
    import numpy as np
    n, m = spec.n_observed, spec.n_future
    k0, k1 = spec.outcome_range
    levels = tuple(sorted(set(spec.levels)))  # every level holds >= 2 observed units
    base_by_level = dict(spec.base_outcomes)
    shift_by_level = dict(spec.future_outcome_shift or ())
    base = np.asarray([base_by_level[lv] for lv in levels], dtype=float)
    shift = np.asarray([shift_by_level.get(lv, 0.0) for lv in levels])
    covariates = [Covariate.of(level=lv) for lv in levels]

    rng_obs = component_rng(spec.seed, _STREAM_OBS_COV)
    if spec.assignment == "balanced":
        codes = _even_cell_codes(spec.levels, spec.observed_level_weights, n, rng_obs)
    else:
        codes = _draw_levels(
            spec.levels, _weights(spec.levels, spec.observed_level_weights),
            n, rng_obs, min_per_level=2,
        )

    # --- treatment assignment (instrument-free case)
    inst = spec.instrument
    if inst is None:
        rng_assign = component_rng(spec.seed, _STREAM_ASSIGN)
        if spec.assignment == "balanced":  # treat exactly half of each (even) cell
            ts = np.zeros(n, dtype=int)
            for idxs in _cells(codes):
                ts[idxs[rng_assign.permutation(len(idxs))[: len(idxs) // 2]]] = 1
        else:
            p = np.asarray([spec.propensity(lv) for lv in levels])
            ts = (rng_assign.random(n) < p[codes]).astype(int)
            for idxs in _cells(codes):  # flip one unit per cell that lacks a treatment
                assigned = set(ts[idxs].tolist())
                if 1 not in assigned:
                    ts[idxs[0]] = 1
                if 0 not in assigned:
                    ts[idxs[-1]] = 0
        zs = None
    else:
        take = np.asarray([inst.take_prob(z) for z in (0, 1)])
        rng_z = component_rng(spec.seed, _STREAM_INSTRUMENT)
        z_drawn = (rng_z.random(n) < inst.z_probability).astype(int)
        ts = (rng_z.random((n, 2)) < take).astype(int)[np.arange(n), z_drawn]
        zs = z_drawn.tolist()

    noise = spec.noise_sd * component_rng(spec.seed, _STREAM_OBS_NOISE).standard_normal(n)
    ys = _clip(base[codes, ts] + noise, k0, k1)
    observed = ObservedDataset.from_columns(
        range(n), covariates, codes.tolist(), ts.tolist(), ys.tolist(), zs
    )

    # --- future side: draw only levels that occur in the observed data
    fut_weights = _weights(levels, None if spec.future_level_weights is None else tuple(
        (lv, w) for lv, w in spec.future_level_weights if lv in levels
    ))
    fut_codes = _draw_levels(
        levels, fut_weights, m, component_rng(spec.seed, _STREAM_FUT_COV), min_per_level=1
    )
    rng_fut_noise = component_rng(spec.seed, _STREAM_FUT_NOISE)
    if spec.shared_unit_noise:
        noise = spec.noise_sd * rng_fut_noise.standard_normal(m)[:, None]
    else:
        noise = spec.noise_sd * rng_fut_noise.standard_normal((m, 2))
    y = _clip((base[fut_codes] + shift[fut_codes, None]) + noise, k0, k1)

    compliance = None
    if inst is not None:
        s = component_rng(spec.seed, _STREAM_INSTRUMENT + 100).random((m, 2)) < take
        compliance = {z: s[:, z].astype(int).tolist() for z in (0, 1)}
        if inst.dominance_break > 0:  # units that would not take treatment under z=1
            y[:, 1] = np.where(s[:, 1], y[:, 1], y[:, 0] - inst.dominance_break)

    future = FuturePopulation.from_columns(
        range(n, n + m), covariates, fut_codes.tolist(),
        outcomes={t: y[:, t].tolist() for t in (0, 1)},
        compliance=compliance,
    )
    return Scenario(observed, future, spec, _ground_truth(y))


def _even_cell_codes(levels, weights, n: int, rng: np.random.Generator) -> np.ndarray:
    """Level codes with every cell count even (for exactly-balanced assignment)."""
    import numpy as np
    if n % 2:
        raise ValueError("population size must be even for balanced cells")
    draws = _draw_levels(levels, _weights(levels, weights), n, rng, min_per_level=2)
    cells = _cells(draws)
    order = np.asarray([draws[cell[0]] for cell in cells])
    counts = np.asarray([len(cell) for cell in cells])
    odd = np.flatnonzero(counts % 2)
    counts[odd[::2]] += 1
    counts[odd[1::2]] -= 1
    out = np.repeat(order, counts)
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

    Streams: the instrument stream gives one take uniform per observed unit,
    then one off-arm uniform per unit; the observed noise stream one normal
    per observed unit; the future noise stream one normal per future clone,
    in (unit, clone) order.
    """
    import numpy as np
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    z_arm = 1 if t == 1 else 0
    k0, k1 = outcome_range
    rng = component_rng(seed, _STREAM_INSTRUMENT)
    takes = (rng.random(n_observed) < take_probability).astype(int)
    takes[0], takes[1] = 1, 0  # both compliance groups nonempty
    off_arm = (rng.random(n_observed) < 0.5).astype(int)

    def draw_pairs(stream: int, size: int) -> np.ndarray:
        normals = component_rng(seed, stream).standard_normal(size)
        y0 = _clip(k0 + (k1 - k0) * 0.3 + noise_sd * normals, k0, k1)
        return np.column_stack([y0, _clip(y0 + (k1 - k0) * 0.2, k0, k1)])

    x = Covariate.of(level="all")
    y_obs = draw_pairs(_STREAM_OBS_NOISE, n_observed)[np.arange(n_observed), takes]
    observed = ObservedDataset.from_columns(
        range(n_observed), [x], [0] * n_observed, takes.tolist(), y_obs.tolist(),
        [z_arm] * n_observed,
    )

    m = n_observed * clone_factor
    y = draw_pairs(_STREAM_FUT_NOISE, m)
    choices = np.repeat(np.column_stack([takes, off_arm]), clone_factor, axis=0)
    future = FuturePopulation.from_columns(
        range(n_observed, n_observed + m), [x], [0] * m,
        {t: y[:, t].tolist() for t in (0, 1)},
        {z_arm: choices[:, 0].tolist(), 1 - z_arm: choices[:, 1].tolist()},
    )
    return Scenario(observed, future, ScenarioSpec(
        n_observed=n_observed, n_future=m, levels=("all",),
        base_outcomes=(("all", ((k0 + k1) / 2, (k0 + k1) / 2)),),
        outcome_range=outcome_range, seed=seed,
    ), _ground_truth(y))


def random_partition_concentration(
    pop: FuturePopulation, t: int, eps: float, trials: int, seed: int
) -> float:
    """Fraction of uniform random half-splits whose half means differ by >= eps.

    Odd population sizes split floor(n/2) against ceil(n/2).
    """
    import numpy as np
    ys = np.asarray(pop.outcome_column(t))
    n = len(pop)
    if n < 2:
        raise ValueError("need at least two units to split")
    if trials < 1:
        raise ValueError("trials must be positive")
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
        curve.append((size, fsum(errors) / len(errors)))
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
        return fsum(v) / len(v)

    truth = {
        "c_step1_t1": m(panel.a_step1) - m(panel.a_step0) + m(panel.c_step0) + spec.violation,
        "c_step1_t0": m(panel.b_step1) - m(panel.b_step0) + m(panel.c_step0) + spec.violation,
        "violation": spec.violation,
    }
    return panel, truth
