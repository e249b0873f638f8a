"""Byte-level digests of every rendered CLI output on a fixed corpus.

The corpus is built in a temporary directory from fixed seeds: ``simulate``
writes the scenario CSVs, the test writes partition and predictor YAML, and
``run``, ``audit`` and ``sweep`` read them.  The SHA-256 of each rendered file
and each exit code are pinned, so a refactor or optimisation that changes one
byte of one report fails here.  Regenerate the table only for an intended
change of output, never to absorb a difference.
"""

import csv
import hashlib
import json
import math

import pytest
import yaml

from finitepop.cli import main

WIDE_LEVELS = [f"l{i:03d}" for i in range(200)]
IV_LEVELS = [f"m{i:02d}" for i in range(12)]


def _base_outcomes(levels):
    return {lv: [2.0 + (i % 7) * 0.5, 2.5 + (i % 7) * 0.5 + (i % 5) * 0.3]
            for i, lv in enumerate(levels)}


def _dump(path, tree):
    path.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return str(path)


def _cell_means(observed_csv):
    """Observed mean outcome per (level, t), from the CSV text alone."""
    groups = {}
    with open(observed_csv, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            groups.setdefault((rec["xc_level"], int(rec["t"])), []).append(float(rec["y"]))
    return {k: math.fsum(v) / len(v) for k, v in groups.items()}


def _predictor(path, means, offset=lambda level, t: 0.0):
    entries = [{"x": {"level": lv}, "t": t, "p": m + offset(lv, t)}
               for (lv, t), m in sorted(means.items())]
    return _dump(path, {"schema": 1, "entries": entries})


def _partition(path, levels, n_cells):
    per = math.ceil(len(levels) / n_cells)
    cells = {f"c{c:02d}": [{"level": lv} for lv in levels[c * per:(c + 1) * per]]
             for c in range(n_cells)}
    return _dump(path, {"schema": 1, "cells": cells})


def _corpus(tmp):
    """Build the corpus; return {output name: (path, exit code)}."""
    outputs = {}

    def record(name, verb, config, out):
        code = main([verb, "--config", config, "--out", str(out)])
        if verb == "simulate":
            for f in ("observed.csv", "future.csv", "ground_truth.json"):
                outputs[f"{name}/{f}"] = (out / f, code)
        else:
            outputs[name] = (out, code)

    # run-wide shape: 1,000 + 1,000 units in 200 levels.
    wide = tmp / "wide"
    record("simulate-wide", "simulate", _dump(tmp / "sim_wide.yaml", {
        "schema": 1, "seed": 7, "n_observed": 1000, "n_future": 1000,
        "levels": WIDE_LEVELS, "base_outcomes": _base_outcomes(WIDE_LEVELS),
        "noise_sd": 1.0, "outcome_range": [0.0, 10.0], "assignment": "propensity",
        "propensities": {lv: (0.3, 0.5, 0.7)[i % 3] for i, lv in enumerate(WIDE_LEVELS)},
    }), wide)
    means = _cell_means(wide / "observed.csv")
    exact = _predictor(tmp / "pred_wide.yaml", means)
    shifted = _predictor(
        tmp / "pred_shifted.yaml", means,
        lambda lv, t: (0.25 if int(lv[1:]) % 2 else -0.5) * (1 + t),
    )
    part = _partition(tmp / "part_wide.yaml", WIDE_LEVELS, 20)
    data = {"observed": str(wide / "observed.csv"), "future": str(wide / "future.csv")}
    wide_methods = [
        "rct", "matching",
        {"name": "coarsened", "partition": part},
        {"name": "plugin", "predictor": exact, "partition": part},
        {"name": "dr", "predictor": exact},
    ]
    record("run-wide", "run", _dump(tmp / "run_wide.yaml", {
        "schema": 1, "mode": "oracle", **data, "methods": wide_methods}), tmp / "run_wide.json")
    record("run-wide-data", "run", _dump(tmp / "run_wide_data.yaml", {
        "schema": 1, "mode": "data", **data, "methods": wide_methods}),
        tmp / "run_wide_data.json")
    record("run-wide-shifted", "run", _dump(tmp / "run_shifted.yaml", {
        "schema": 1, "mode": "oracle", **data,
        "methods": [{"name": "plugin", "predictor": shifted},
                    {"name": "dr", "predictor": shifted}]}), tmp / "run_shifted.json")

    # Instrumented scenario with a covariate shift and a dominance break.
    iv = tmp / "iv"
    record("simulate-iv", "simulate", _dump(tmp / "sim_iv.yaml", {
        "schema": 1, "seed": 11, "n_observed": 600, "n_future": 500,
        "levels": IV_LEVELS, "base_outcomes": _base_outcomes(IV_LEVELS),
        "noise_sd": 0.8, "outcome_range": [0.0, 10.0],
        "future_level_weights": {lv: 1.0 + i for i, lv in enumerate(IV_LEVELS)},
        "future_outcome_shift": {IV_LEVELS[0]: 0.4, IV_LEVELS[5]: -0.3},
        "instrument": {"z_probability": 0.4, "take_probability": {0: 0.25, 1: 0.75},
                       "dominance_break": 0.2},
    }), iv)
    iv_data = {"observed": str(iv / "observed.csv"), "future": str(iv / "future.csv")}
    iv_part = _partition(tmp / "part_iv.yaml", IV_LEVELS, 3)
    iv_pred = _predictor(tmp / "pred_iv.yaml", _cell_means(iv / "observed.csv"),
                         lambda lv, t: 0.1 * int(lv[1:]) - 0.3 * t)
    record("run-iv", "run", _dump(tmp / "run_iv.yaml", {
        "schema": 1, "mode": "oracle", **iv_data,
        "methods": ["rct", "matching", {"name": "coarsened", "partition": iv_part},
                    {"name": "iv_lower", "eps": 0.1, "delta": 0.1},
                    {"name": "rm_bounds", "k0": 0.0, "k1": 10.0, "delta": 5.0}]}),
        tmp / "run_iv.json")
    audits = {
        "sp": {"predictor": "rct"},
        "cfd": {"predictor": "coarsened", "partition": iv_part},
        "signed_difference": {},
        "ml_groupwise": {"predictor": iv_pred, "partition": iv_part},
        "dr_condition": {"predictor": "matching"},
        "dominance": {},
        "compliance_stability": {},
    }
    for name, extra in audits.items():
        record(f"audit-{name}", "audit", _dump(tmp / f"audit_{name}.yaml", {
            "schema": 1, "mode": "oracle", **iv_data, **extra, "audits": [name]}),
            tmp / f"audit_{name}.json")

    record("sweep-iv", "sweep", _dump(tmp / "sweep_iv.yaml", {
        "schema": 1, "seed": 29, "replications": 5,
        "methods": ["rct", "matching", {"name": "iv_lower", "eps": 0.1, "delta": 0.1},
                    {"name": "rm_bounds", "k0": 0.0, "k1": 10.0, "delta": 5.0}],
        "scenario": {"n_observed": 150, "n_future": 150, "levels": IV_LEVELS[:4],
                     "base_outcomes": _base_outcomes(IV_LEVELS[:4]), "noise_sd": 1.0,
                     "shared_unit_noise": True,
                     "instrument": {"z_probability": 0.5,
                                    "take_probability": {0: 0.2, 1: 0.8}}},
    }), tmp / "sweep_iv.json")
    return outputs


GOLDEN = {
    "audit-cfd": ("4173390b4ded5be6cc2b6f0e9d56850766b28472922fc45a81dced4216154692", 0),
    "audit-compliance_stability": ("93cced236520cdea055c49dc933469d0c962f8861a5c0abf8981965164e0a66c", 0),
    "audit-dominance": ("7806330a9ee2cf8977ca3b73910c22f7efbad5e07b509085c87b846d8a2266a0", 0),
    "audit-dr_condition": ("9721b2371d89eb4032c764b4734fa5deb26b6a587c122465bf52ef3a44476758", 0),
    "audit-ml_groupwise": ("0db932d17001a9f31ec396361c5b53fe161ae3540cbe304b11d0d6bcb79b956f", 0),
    "audit-signed_difference": ("8a257d46177de722996b008d239c73a7f2d00da5eac89b944640acf0a8f41d78", 0),
    "audit-sp": ("be2e5ade6b3d279483d0f52c80c3aaa4abe8e2979ed143a3b57fb1bb8ee8db87", 0),
    "run-iv": ("2aa5eff2ab88075834797571ce66a7eb032431a8c926b1c9c3bc220fd6a6ad7c", 0),
    "run-wide": ("1f54a6a682f5bc58e663cc07047bab31d3de79b97242df25b432c4a5f71cad7b", 0),
    "run-wide-data": ("6b04c431d115de6463b8175ed93ce9b1652e28fa9b9df9a692d1228e202f2e3b", 0),
    "run-wide-shifted": ("d3e3c453ee8df668e04f536a77fc480db41ba46ae15695fd86deadcfa70a3853", 0),
    "simulate-iv/future.csv": ("648c747d257bf921c1febee6c4436b105e05b9738c298c6dfb5143c02d715965", 0),
    "simulate-iv/ground_truth.json": ("1882db799a12d3ba335974b519297aea5712ac255889fb21383aada5aab127eb", 0),
    "simulate-iv/observed.csv": ("dd83084026b213d238838120f52899c63c14b96f3d0633e628bb64e9095f748d", 0),
    "simulate-wide/future.csv": ("7cef91630a5d5b213e2edfc0eb7df34e4ed2ba6829f497301f575dcd4cf738f6", 0),
    "simulate-wide/ground_truth.json": ("cc1a73b16792b6411556c27a5f13f0c9587261f53a9c8dc0a0a1f2a6ef1f0bad", 0),
    "simulate-wide/observed.csv": ("936f3eae7f70f363e42fcb158a339b5c2d92b318c20a35de08b984664f56e0d2", 0),
    "sweep-iv": ("90a5a4199f22c97f1212095ea680bfcfc564a4abfad4e0d662a8996098cd873f", 0),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    return {name: (path.read_bytes(), code) for name, (path, code) in _corpus(tmp).items()}


@pytest.fixture(scope="module")
def corpus(outputs):
    return {name: (hashlib.sha256(data).hexdigest(), code)
            for name, (data, code) in outputs.items()}


def test_corpus_covers_every_pinned_output(corpus):
    assert sorted(corpus) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rendered_output_matches_pinned_digest(corpus, name):
    assert corpus[name] == GOLDEN[name]


def test_reports_carry_only_the_keys_a_run_fills(outputs):
    """A run's per-treatment and ATE entries hold no null, ``guarantee``, ``notes`` or
    ``support.note``, and a sweep summary holds no "nan" error quantile."""
    runs = [json.loads(data) for name, (data, _) in outputs.items() if name.startswith("run-")]
    entries = [e for report in runs for method in report["methods"].values()
               for e in [*method.get("per_treatment", {}).values(), method.get("ate")] if e]
    assert len(runs) == 4 and len(entries) > 40
    for entry in entries:
        assert None not in entry.values() and not {"guarantee", "notes"} & set(entry), entry
        assert "note" not in entry.get("support", {}), entry
    summary = json.loads(outputs["sweep-iv"][0])["summary"]
    for name, row in summary.items():
        assert "nan" not in row.values(), name
