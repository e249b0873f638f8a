"""The benchmark's workloads: seeded inputs, reference outputs and checks.

Each workload drives one verb of the unmodified ``finitepop`` CLI.  Set-up
writes every file the CLI reads (scenario CSVs, partition and predictor YAML,
the config) from the workload seed, and computes the reference outputs that
the checks compare against.  The CLI receives only those files, by paths
relative to the work directory it runs in.

Importing this module imports ``finitepop``; the caller puts the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import yaml

from finitepop.core import FinitePopError
from finitepop.io import load_future_csv, load_observed_csv, save_future_csv, save_observed_csv
from finitepop.simulate import InstrumentSpec, ScenarioSpec, generate, scenario_seed

OUTCOME_RANGE = (0.0, 10.0)
NOISE_SD = 1.0
REL_TOL = 1e-9
RUN_METHODS = ("rct", "matching", "coarsened", "plugin", "dr")
# Instrument of the instrumented workloads: P(z=1), and P(take t=1 | z).
Z_PROBABILITY = 0.5
TAKE_PROBABILITY = {0: 0.2, 1: 0.8}


class CheckFailed(Exception):
    """An output of one invocation differs from what the workload expects."""


@dataclasses.dataclass
class Prepared:
    """What set-up leaves for the timed invocations of one run."""

    argv: list[str]  # CLI arguments after the program name
    outputs: tuple[str, ...]  # files an invocation writes, relative to the work directory
    inputs: tuple[str, ...]  # files set-up wrote for the CLI
    reference: dict


def _levels(n: int) -> tuple[str, ...]:
    return tuple(f"l{i:03d}" for i in range(n))


def _base_outcomes(levels: tuple[str, ...]) -> tuple[tuple[str, tuple[float, float]], ...]:
    out = []
    for i, level in enumerate(levels):
        y0 = 2.0 + (i % 7) * 0.5
        out.append((level, (y0, y0 + 0.5 + (i % 5) * 0.3)))
    return tuple(out)


def _scenario_fields(levels: tuple[str, ...]) -> dict:
    """Config keys shared by every generated scenario, as ``finitepop`` YAML."""
    return {
        "levels": list(levels),
        "base_outcomes": {lv: list(ys) for lv, ys in _base_outcomes(levels)},
        "noise_sd": NOISE_SD,
        "outcome_range": list(OUTCOME_RANGE),
    }


def _instrument_yaml() -> dict:
    return {"z_probability": Z_PROBABILITY, "take_probability": dict(TAKE_PROBABILITY)}


def _instrument_spec() -> InstrumentSpec:
    return InstrumentSpec(
        z_probability=Z_PROBABILITY, take_probability=tuple(sorted(TAKE_PROBABILITY.items()))
    )


def _write_yaml(path: Path, tree: dict) -> None:
    path.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")


def _close(label: str, got, want: float) -> None:
    if not isinstance(got, (int, float)) or not math.isclose(
        got, want, rel_tol=REL_TOL, abs_tol=1e-12
    ):
        raise CheckFailed(f"{label}: report has {got!r}, reference {want!r}")


def _read_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name} is not a readable JSON report: {exc}") from None


def _cell_means(levels: np.ndarray, ts: np.ndarray, ys: np.ndarray, n_levels: int):
    """(count, mean) per (level code, t) as arrays of shape (n_levels, 2)."""
    index = levels * 2 + ts
    counts = np.bincount(index, minlength=2 * n_levels).reshape(n_levels, 2)
    sums = np.bincount(index, weights=ys, minlength=2 * n_levels).reshape(n_levels, 2)
    return counts, sums / counts


def _apo_reference(
    obs_levels: np.ndarray, obs_t: np.ndarray, obs_y: np.ndarray, fut_y: np.ndarray, n_levels: int
) -> dict:
    """Truth, RCT mean and exact-matching estimate per treatment, from plain arrays.

    ``fut_y`` has one column per treatment.  Matching is written as the
    observed-composition average of the (x, t) cell means, an algebraically
    equal form to the CLI's inverse-propensity sum.
    """
    counts, means = _cell_means(obs_levels, obs_t, obs_y, n_levels)
    share = counts.sum(axis=1) / len(obs_y)
    ref: dict = {"apo": {}, "rct": {}, "matching": {}, "cell_means": means}
    for t in (0, 1):
        ref["apo"][t] = float(fut_y[:, t].mean())
        ref["rct"][t] = float(obs_y[obs_t == t].mean())
        ref["matching"][t] = float(share @ means[:, t])
    return ref


@dataclasses.dataclass(frozen=True)
class RunWorkload:
    """``finitepop run`` in oracle mode on CSVs generated from the seed."""

    name: str
    n: int  # observed units, and future units
    levels: int  # distinct values of the one categorical covariate
    cells: int  # cells of the coarsening partition

    @property
    def units(self) -> int:
        """Units one invocation processes, observed plus future."""
        return 2 * self.n

    def prepare(self, work: Path, seed: int) -> Prepared:
        levels = _levels(self.levels)
        spec = ScenarioSpec(
            n_observed=self.n,
            n_future=self.n,
            levels=levels,
            base_outcomes=_base_outcomes(levels),
            noise_sd=NOISE_SD,
            outcome_range=OUTCOME_RANGE,
            assignment="propensity",
            propensities=tuple((lv, (0.3, 0.5, 0.7)[i % 3]) for i, lv in enumerate(levels)),
            seed=seed,
        )
        scenario = generate(spec)
        save_observed_csv(scenario.observed, work / "observed.csv")
        save_future_csv(scenario.future, work / "future.csv")
        del scenario

        code = {lv: i for i, lv in enumerate(levels)}
        with (work / "observed.csv").open(newline="", encoding="utf-8") as fh:
            obs = list(csv.DictReader(fh))
        with (work / "future.csv").open(newline="", encoding="utf-8") as fh:
            fut = list(csv.DictReader(fh))
        ref = _apo_reference(
            np.array([code[r["xc_level"]] for r in obs]),
            np.array([int(r["t"]) for r in obs]),
            np.array([float(r["y"]) for r in obs]),
            np.array([[float(r["y_t0"]), float(r["y_t1"])] for r in fut]),
            len(levels),
        )
        # The plug-in premise holds: observed residuals recentre within each cell.
        entries = [
            {"x": {"level": lv}, "t": t, "p": float(ref["cell_means"][i, t])}
            for i, lv in enumerate(levels)
            for t in (0, 1)
        ]
        _write_yaml(work / "predictor.yaml", {"schema": 1, "entries": entries})
        per_cell = math.ceil(len(levels) / self.cells)
        cells = {
            f"c{c:02d}": [{"level": lv} for lv in levels[c * per_cell:(c + 1) * per_cell]]
            for c in range(self.cells)
        }
        _write_yaml(work / "partition.yaml", {"schema": 1, "cells": cells})
        _write_yaml(work / "config.yaml", {
            "schema": 1,
            "mode": "oracle",
            "observed": "observed.csv",
            "future": "future.csv",
            "out": "report.json",
            "methods": [
                "rct",
                "matching",
                {"name": "coarsened", "partition": "partition.yaml"},
                {"name": "plugin", "predictor": "predictor.yaml", "partition": "partition.yaml"},
                {"name": "dr", "predictor": "predictor.yaml"},
            ],
        })
        del ref["cell_means"]
        return Prepared(
            argv=["run", "--config", "config.yaml"],
            outputs=("report.json",),
            inputs=("observed.csv", "future.csv", "predictor.yaml", "partition.yaml", "config.yaml"),
            reference=ref,
        )

    def check(self, prepared: Prepared, work: Path) -> None:
        report = _read_report(work / "report.json")
        ref = prepared.reference
        try:
            if report["ok"] is not True:
                raise CheckFailed(f"report ok is {report['ok']!r}")
            missing = set(RUN_METHODS) - set(report["methods"])
            if missing:
                raise CheckFailed(f"report lacks methods {sorted(missing)}")
            for t in (0, 1):
                _close(f"ground_truth.apo[{t}]", report["ground_truth"]["apo"][str(t)], ref["apo"][t])
                for method in ("rct", "matching"):
                    got = report["methods"][method]["per_treatment"][str(t)]["estimate"]
                    _close(f"{method} estimate t={t}", got, ref[method][t])
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"report lacks field {exc}") from None


@dataclasses.dataclass(frozen=True)
class SweepWorkload:
    """``finitepop sweep`` over instrumented scenarios with shared unit noise."""

    name: str
    n: int  # observed units, and future units, per replication
    levels: int
    replications: int

    @property
    def units(self) -> int:
        return 2 * self.n * self.replications

    def prepare(self, work: Path, seed: int) -> Prepared:
        levels = _levels(self.levels)
        k0, k1 = OUTCOME_RANGE
        scenario = {
            "n_observed": self.n,
            "n_future": self.n,
            **_scenario_fields(levels),
            "shared_unit_noise": True,
            "instrument": _instrument_yaml(),
        }
        # Observed (t, z) shares are taken over the whole sample while only
        # the units on one instrument arm inform an APO, so the compliance
        # shares the interval bound relies on miss by up to the other arm's
        # share; delta prices that gap at the full outcome range.
        delta = (k1 - k0) * (1 - Z_PROBABILITY)
        _write_yaml(work / "config.yaml", {
            "schema": 1,
            "seed": seed,
            "replications": self.replications,
            "out": "report.json",
            "methods": [
                "rct",
                "matching",
                {"name": "iv_lower", "eps": 0.1, "delta": 0.1},
                {"name": "rm_bounds", "k0": k0, "k1": k1, "delta": delta},
            ],
            "scenario": scenario,
        })
        base = ScenarioSpec(
            n_observed=self.n,
            n_future=self.n,
            levels=levels,
            base_outcomes=_base_outcomes(levels),
            noise_sd=NOISE_SD,
            outcome_range=OUTCOME_RANGE,
            shared_unit_noise=True,
            instrument=_instrument_spec(),
        )
        code = {lv: i for i, lv in enumerate(levels)}
        errors: dict[str, list[float]] = {"rct": [], "matching": []}
        for i in range(self.replications):
            sc = generate(dataclasses.replace(base, seed=scenario_seed(seed, i)))
            rows = sc.observed.rows
            oracle = sc.future.require_oracle()
            ref = _apo_reference(
                np.array([code[r.x.get("level")] for r in rows]),
                np.array([r.t for r in rows]),
                np.array([r.y for r in rows], dtype=float),
                np.array([[oracle.y(u.unit, 0), oracle.y(u.unit, 1)] for u in sc.future.units]),
                len(levels),
            )
            for method, errs in errors.items():
                est, apo = ref[method], ref["apo"]
                errs += [abs(est[0] - apo[0]), abs(est[1] - apo[1])]
                errs.append(abs((est[1] - est[0]) - (apo[1] - apo[0])))
        summary = {
            method: {
                "error_q50": float(np.quantile(errs, 0.5)),
                "error_q90": float(np.quantile(errs, 0.9)),
                "error_max": max(errs),
                "judged": len(errs),
            }
            for method, errs in errors.items()
        }
        return Prepared(
            argv=["sweep", "--config", "config.yaml"],
            outputs=("report.json",),
            inputs=("config.yaml",),
            reference={"summary": summary},
        )

    def check(self, prepared: Prepared, work: Path) -> None:
        report = _read_report(work / "report.json")
        try:
            if report["replications"] != self.replications:
                raise CheckFailed(f"report has {report['replications']!r} replications")
            for method, want in prepared.reference["summary"].items():
                got = report["summary"][method]
                if got["pass_rate"] != 1:
                    raise CheckFailed(f"{method} pass_rate is {got['pass_rate']!r}, not 1")
                if got["judged"] != want["judged"]:
                    raise CheckFailed(f"{method} judged {got['judged']!r}, not {want['judged']}")
                for key in ("error_q50", "error_q90", "error_max"):
                    _close(f"{method} {key}", got[key], want[key])
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"report lacks field {exc}") from None


@dataclasses.dataclass(frozen=True)
class SimulateWorkload:
    """``finitepop simulate`` of an instrumented scenario, written as CSV."""

    name: str
    n: int  # observed units, and future units
    levels: int

    @property
    def units(self) -> int:
        return 2 * self.n

    def prepare(self, work: Path, seed: int) -> Prepared:
        levels = _levels(self.levels)
        _write_yaml(work / "config.yaml", {
            "schema": 1,
            "seed": seed,
            "out": "sim",
            "n_observed": self.n,
            "n_future": self.n,
            **_scenario_fields(levels),
            "instrument": _instrument_yaml(),
        })
        spec = ScenarioSpec(
            n_observed=self.n,
            n_future=self.n,
            levels=levels,
            base_outcomes=_base_outcomes(levels),
            noise_sd=NOISE_SD,
            outcome_range=OUTCOME_RANGE,
            instrument=_instrument_spec(),
            seed=seed,
        )
        return Prepared(
            argv=["simulate", "--config", "config.yaml"],
            outputs=("sim/observed.csv", "sim/future.csv", "sim/ground_truth.json"),
            inputs=("config.yaml",),
            reference={"scenario": generate(spec)},
        )

    def check(self, prepared: Prepared, work: Path) -> None:
        scenario = prepared.reference["scenario"]
        sidecar = _read_report(work / "sim" / "ground_truth.json")
        try:
            truth = sidecar["ground_truth"]
            for t in (0, 1):
                _close(f"ground_truth.apo[{t}]", truth["apo"][str(t)], scenario.ground_truth["apo"][t])
            _close("ground_truth.ate", truth["ate"], scenario.ground_truth["ate"])
            if sidecar["spec"]["seed"] != scenario.spec.seed:
                raise CheckFailed(f"sidecar spec seed {sidecar['spec']['seed']!r}")
        except (KeyError, TypeError) as exc:
            raise CheckFailed(f"ground_truth.json lacks field {exc}") from None
        try:
            observed = load_observed_csv(work / "sim" / "observed.csv")
            future = load_future_csv(work / "sim" / "future.csv")
        except (OSError, FinitePopError) as exc:
            raise CheckFailed(f"written CSVs do not load back: {exc}") from None
        if observed != scenario.observed:
            raise CheckFailed("observed.csv does not load back to the generated dataset")
        if future != scenario.future:
            raise CheckFailed("future.csv does not load back to the generated population")


def workloads(smoke: bool = False) -> dict:
    """The benchmark's workloads by name, at full or at smoke size."""
    if smoke:
        return {w.name: w for w in (
            RunWorkload("run-tall", n=400, levels=4, cells=2),
            RunWorkload("run-wide", n=400, levels=40, cells=4),
            SweepWorkload("sweep-iv", n=100, levels=4, replications=3),
            SimulateWorkload("simulate-iv", n=300, levels=4),
        )}
    return {w.name: w for w in (
        RunWorkload("run-tall", n=10_000, levels=4, cells=2),
        RunWorkload("run-wide", n=1_000, levels=200, cells=20),
        SweepWorkload("sweep-iv", n=1_000, levels=4, replications=25),
        SimulateWorkload("simulate-iv", n=5_000, levels=4),
    )}
