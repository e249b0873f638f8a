import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest
import yaml
from fixtures import XA, XB, External, p8_future, p8_observed

from finitepop import audit, cli, core
from finitepop.cli import main, render_report
from finitepop.core import Covariate, CovariatePartition, FuturePopulation, Unit
from finitepop.estimate import (
    METHODS,
    CoarsenedMatching,
    ExactMatching,
    exact_matching_estimate,
)
from finitepop.io import load_observed_csv, save_future_csv, save_observed_csv
from finitepop.simulate import InstrumentSpec, ScenarioSpec


@pytest.fixture
def p8_files(tmp_path):
    obs = tmp_path / "observed.csv"
    fut = tmp_path / "future.csv"
    save_observed_csv(p8_observed(with_instrument=True), obs)
    save_future_csv(p8_future(), fut)
    return obs, fut


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_p8_oracle_mode(tmp_path, p8_files):
    obs, fut = p8_files
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path,
        "run.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n"
        f"methods: [rct, matching]\nout: {out}\n",
    )
    assert main(["run", "--config", cfg]) == 0
    report = json.loads(out.read_text())
    for method in ("rct", "matching"):
        entry = report["methods"][method]
        assert entry["per_treatment"]["1"]["estimate"] == 7.0
        assert entry["per_treatment"]["0"]["estimate"] == 4.0
        assert entry["verdicts"]["1"]["budget"] == 0.0
        assert entry["verdicts"]["1"]["pass"] is True
    assert report["ground_truth"]["ate"] == 3.0
    assert report["ok"] is True


def test_run_data_mode_no_verdicts(tmp_path, p8_files):
    obs, _ = p8_files
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nmode: data\nobserved: {obs}\nmethods: [rct]\nout: {out}\n",
    )
    assert main(["run", "--config", cfg]) == 0
    report = json.loads(out.read_text())
    assert "verdicts" not in report["methods"]["rct"]
    assert "ground_truth" not in report


def test_audit_cfd_data_mode_exits_3(tmp_path, p8_files, capsys):
    obs, fut = p8_files
    cfg = write_config(
        tmp_path, "audit.yaml",
        f"schema: 1\nmode: data\nobserved: {obs}\nfuture: {fut}\naudits: [cfd]\n",
    )
    assert main(["audit", "--config", cfg]) == 3
    assert "CFD unobservable without ground truth" in capsys.readouterr().err


def test_malformed_csv_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,treat,y\n1,1,2.0\n")
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nobserved: {bad}\nmethods: [rct]\nout: {out}\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert "line 1" in capsys.readouterr().err
    assert not out.exists()  # no partial report


def test_unsupported_schema_version_exits_2(tmp_path, p8_files, capsys):
    obs, _ = p8_files
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 2\nobserved: {obs}\nmethods: [rct]\nout: {out}\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert not out.exists()


def test_missing_schema_key_exits_2(tmp_path, p8_files):
    obs, _ = p8_files
    cfg = write_config(tmp_path, "run.yaml", f"observed: {obs}\nmethods: [rct]\n")
    assert main(["run", "--config", cfg]) == 2


def test_support_failure_exits_3(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("id,t,y,xc_level\n1,1,2.0,a\n2,0,1.0,a\n3,0,1.0,b\n")
    cfg = write_config(
        tmp_path, "run.yaml", f"schema: 1\nobserved: {obs}\nmethods: [matching]\n"
    )
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "matching" in err


def test_env_overrides_config_and_flag_overrides_env(tmp_path, p8_files, monkeypatch):
    obs, fut = p8_files
    out_cfg = tmp_path / "from_config.json"
    out_env = tmp_path / "from_env.json"
    out_flag = tmp_path / "from_flag.json"
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n"
        f"methods: [rct]\nout: {out_cfg}\n",
    )
    monkeypatch.setenv("FINITEPOP_OUT", str(out_env))
    assert main(["run", "--config", cfg]) == 0
    assert out_env.exists() and not out_cfg.exists()
    assert main(["run", "--config", cfg, "--out", str(out_flag)]) == 0
    assert out_flag.exists() and not out_cfg.exists()


def test_simulate_writes_artifacts(tmp_path):
    out_dir = tmp_path / "sim"
    cfg = write_config(
        tmp_path, "sim.yaml",
        "schema: 1\nn_observed: 20\nn_future: 30\nlevels: [a, b]\n"
        "base_outcomes:\n  a: [2.0, 6.0]\n  b: [3.0, 5.0]\nnoise_sd: 0.4\nseed: 6\n",
    )
    assert main(["simulate", "--config", cfg, "--out", str(out_dir)]) == 0
    assert (out_dir / "observed.csv").exists()
    assert (out_dir / "future.csv").exists()
    sidecar = json.loads((out_dir / "ground_truth.json").read_text())
    assert "ate" in sidecar["ground_truth"]


def test_sweep_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path, "sweep.yaml",
        "schema: 1\nseed: 11\nreplications: 4\nmethods: [rct, matching]\n"
        "scenario:\n  n_observed: 24\n  n_future: 30\n  levels: [a, b]\n"
        "  base_outcomes:\n    a: [2.0, 6.0]\n    b: [3.0, 5.0]\n  noise_sd: 0.5\n",
    )
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["summary"]["rct"]["pass_rate"] == 1.0


SMALL_SCENARIO = (
    "scenario:\n  n_observed: 10\n  n_future: 10\n  levels: [a]\n"
    "  base_outcomes:\n    a: [2.0, 6.0]\n"
)


@pytest.mark.parametrize("replications", [0, -5])
def test_sweep_rejects_replications_below_one(tmp_path, capsys, replications):
    cfg = write_config(
        tmp_path, "sweep.yaml",
        f"schema: 1\nseed: 1\nreplications: {replications}\nmethods: [rct]\n" + SMALL_SCENARIO,
    )
    out = tmp_path / "s.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "replications must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_exits_1_when_a_verdict_fails(tmp_path):
    # The break lowers y(1) of the future's never-takers by 3, so the future's ATE can fall
    # below the arm contrast that iv_lower, with eps and delta 0, reports as its lower bound.
    # Without the break the same sweep passes.
    for dominance_break, code, iv_pass_rate in ((0.0, 0, 1.0), (3.0, 1, 2 / 3)):
        cfg = write_config(
            tmp_path, "sweep.yaml",
            "schema: 1\nseed: 3\nreplications: 3\n"
            "methods: [rct, {name: iv_lower, eps: 0.0, delta: 0.0}]\n"
            "scenario:\n  n_observed: 60\n  n_future: 60\n  levels: [a, b]\n"
            "  base_outcomes:\n    a: [2.0, 6.0]\n    b: [3.0, 5.0]\n  noise_sd: 0.5\n"
            f"  instrument: {{z_probability: 0.5, dominance_break: {dominance_break}}}\n",
        )
        out = tmp_path / "s.json"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == code
        report = json.loads(out.read_text())
        assert report["summary"]["rct"]["pass_rate"] == 1.0
        assert report["summary"]["iv_lower"]["pass_rate"] == iv_pass_rate
        assert report["dominance_fail_rate"] == (0 if code == 0 else 1)


@pytest.mark.parametrize("entry, key", [
    ("{name: rm_bounds, k0: abc, k1: 10}", "k0"),
    ("{name: coarsened, partition: [a, b]}", "partition"),
])
def test_malformed_method_parameter_exits_2(tmp_path, p8_files, capsys, entry, key):
    obs, fut = p8_files
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nobserved: {obs}\nfuture: {fut}\nout: {out}\nmethods: [{entry}]\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_outcome_exits_2_naming_the_csv(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("id,t,y,xc_level\n1,1,2.0,a\n2,0,nan,a\n")
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "run.yaml", f"schema: 1\nobserved: {obs}\nmethods: [rct]\nout: {out}\n"
    )
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{obs}: line 3: column y:")
    assert "run.yaml" not in err
    assert not out.exists()


def test_run_on_simulated_shared_noise_scenario(tmp_path):
    sim = tmp_path / "sim"
    cfg = write_config(
        tmp_path, "sim.yaml",
        "schema: 1\nn_observed: 40\nn_future: 40\nlevels: [a, b]\n"
        "base_outcomes:\n  a: [2.0, 6.0]\n  b: [3.0, 5.0]\nnoise_sd: 0.4\n"
        "shared_unit_noise: true\nseed: 4\n",
    )
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    assert "np.float64" not in (sim / "observed.csv").read_text()
    out = tmp_path / "report.json"
    run = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nmode: oracle\nobserved: {sim / 'observed.csv'}\n"
        f"future: {sim / 'future.csv'}\nmethods: [rct, matching]\nout: {out}\n",
    )
    assert main(["run", "--config", run]) == 0
    assert json.loads(out.read_text())["ok"] is True


def test_run_parses_each_partition_and_predictor_file_once(tmp_path, p8_files, monkeypatch):
    import finitepop.cli as cli

    obs, fut = p8_files
    part = write_config(
        tmp_path, "part.yaml", "schema: 1\ncells:\n  all: [{level: a}, {level: b}]\n"
    )
    pred = write_config(
        tmp_path, "pred.yaml",
        "schema: 1\nentries:\n"
        + "".join(f"  - {{x: {{level: {lv}}}, t: {t}, p: {p}}}\n"
                  for lv, t, p in (("a", 0, 6.0), ("a", 1, 10.0), ("b", 0, 2.0), ("b", 1, 4.0))),
    )
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nout: {tmp_path / 'r.json'}\n"
        f"methods:\n  - {{name: coarsened, partition: {part}}}\n"
        f"  - {{name: plugin, predictor: {pred}, partition: {part}}}\n"
        f"  - {{name: dr, predictor: {pred}}}\n",
    )
    loaded = []
    real = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(path) or real(path))
    assert main(["run", "--config", cfg]) == 0
    assert sorted(loaded) == sorted([cfg, part, pred])


def test_render_report_17_significant_digits():
    text = render_report({"v": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_render_report_sorted_and_stable():
    a = render_report({"b": 1, "a": [2.0, None, True]})
    b = render_report({"a": [2.0, None, True], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [2.0, None, True], "b": 1}


SWEEP_HEAD = "schema: 1\nseed: 1\nreplications: 2\n" + SMALL_SCENARIO


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("run", "methods: [coarsened]\n",
                 "method coarsened needs parameter 'partition'", id="run-coarsened"),
    pytest.param("sweep", "methods: [coarsened]\n",
                 "method coarsened needs parameter 'partition'", id="sweep-coarsened"),
    pytest.param("run", "methods: [plugin]\n",
                 "method plugin needs parameter 'predictor'", id="plugin"),
    pytest.param("run", "methods: [dr]\n", "method dr needs parameter 'predictor'", id="dr"),
    pytest.param("audit", "predictor: plugin\naudits: [sp]\n",
                 "predictor plugin needs parameter 'predictor'", id="audit-plugin"),
    pytest.param("audit", "predictor: coarsened\naudits: [sp]\n",
                 "predictor coarsened needs parameter 'partition'", id="audit-coarsened"),
    pytest.param("run", "methods: [{name: iv_lower, eps: -1, delta: 0}]\n",
                 "method iv_lower: eps and delta", id="iv-negative-eps"),
    pytest.param("run", "methods: [{name: rm_bounds, k0: 10, k1: 0}]\n",
                 "method rm_bounds: k0=10.0", id="rm-crossed-range"),
    pytest.param("run", "methods: [{name: rm_bounds, k0: 0, k1: 10, delta: -1}]\n",
                 "method rm_bounds: delta must be nonnegative", id="rm-negative-delta"),
    pytest.param("run", "methods: [bogus]\n",
                 "unknown method 'bogus'; known: rct, matching, coarsened", id="unknown-method"),
    pytest.param("audit", "audits: [bogus]\n",
                 "unknown audit 'bogus'; known: sp, cfd", id="unknown-audit"),
    pytest.param("run", "methods: [3]\n", "method entry 3 needs a 'name'", id="nameless"),
])
def test_method_boundary_errors_exit_2(tmp_path, p8_files, capsys, verb, body, message):
    obs, fut = p8_files
    out = tmp_path / "report.json"
    head = SWEEP_HEAD if verb == "sweep" else (
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n")
    cfg = write_config(tmp_path, "c.yaml", head + f"out: {out}\n" + body)
    assert main([verb, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert err.count(message) == 1  # named once, not once per wrapping handler
    assert not out.exists()


@pytest.mark.parametrize("config_mode, env_mode", [
    pytest.param("orcale", None, id="typo"),
    pytest.param('"data\\nx"', None, id="newline"),
    pytest.param("oracle", "orcale", id="env"),
])
def test_mode_other_than_data_or_oracle_exits_2(
    tmp_path, p8_files, capsys, monkeypatch, config_mode, env_mode
):
    obs, _ = p8_files
    out = tmp_path / "report.json"
    if env_mode:
        monkeypatch.setenv("FINITEPOP_MODE", env_mode)
    cfg = write_config(
        tmp_path, "run.yaml",
        f"schema: 1\nobserved: {obs}\nmode: {config_mode}\nmethods: [rct]\nout: {out}\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert "line 3: mode must be data or oracle" in capsys.readouterr().err
    assert not out.exists()


def test_render_report_escapes_control_characters():
    text = render_report({"note\t": "a\nb\x01\"\\"})
    assert json.loads(text) == {"note\t": "a\nb\x01\"\\"}
    assert render_report({"k": "é/ü"}) == '{"k":"é/ü"}\n'


@pytest.mark.parametrize("verb, body", [
    pytest.param("run", "out: {tmp}/missing/dir/report.json\nmethods: [rct]\n",
                 id="report-in-missing-dir"),
    pytest.param("run", "methods: [{{name: coarsened, partition: {tmp}/part.yaml}}]\n",
                 id="bare-partition-strings"),
    pytest.param("audit", "partition: 42\naudits: [sp]\n", id="audit-partition-not-a-path"),
])
def test_bad_paths_and_partition_records_exit_2(tmp_path, p8_files, capsys, verb, body):
    obs, fut = p8_files
    write_config(tmp_path, "part.yaml", "schema: 1\ncells:\n  c1: [a, b]\n")
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n" + body.format(tmp=tmp_path),
    )
    assert main([verb, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.out == ""  # no report on stdout
    assert not (tmp_path / "missing").exists()


def test_audit_parses_the_partition_file_once(tmp_path, p8_files, monkeypatch):
    import finitepop.cli as cli

    obs, fut = p8_files
    part = write_config(
        tmp_path, "part.yaml", "schema: 1\ncells:\n  all: [{level: a}, {level: b}]\n"
    )
    cfg = write_config(
        tmp_path, "audit.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nout: {tmp_path / 'a.json'}\n"
        f"predictor: coarsened\npartition: {part}\naudits: [sp, ml_groupwise]\n",
    )
    loaded = []
    real = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(path) or real(path))
    assert main(["audit", "--config", cfg]) == 0
    assert sorted(loaded) == sorted([cfg, part])


def test_sweep_parses_the_partition_file_once(tmp_path, monkeypatch):
    import finitepop.cli as cli

    part = write_config(
        tmp_path, "part.yaml", "schema: 1\ncells:\n  all: [{level: a}, {level: b}]\n"
    )
    cfg = write_config(
        tmp_path, "sweep.yaml",
        f"schema: 1\nseed: 5\nreplications: 5\nmethods:\n  - {{name: coarsened, partition: {part}}}\n"
        "scenario:\n  n_observed: 24\n  n_future: 30\n  levels: [a, b]\n"
        "  base_outcomes:\n    a: [2.0, 6.0]\n    b: [3.0, 5.0]\n  noise_sd: 0.5\n",
    )
    loaded = []
    real = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: loaded.append(path) or real(path))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 0
    assert loaded == [cfg, part]


@pytest.mark.parametrize("entry, text, message", [
    pytest.param("{{name: coarsened, partition: {path}}}", "schema: 1\ncells:\n  c1: [a, b]\n",
                 "line 1: partition cell 'c1' must list covariate records", id="partition-record"),
    pytest.param("{{name: coarsened, partition: {path}}}", "schema: 1\ncells:\n  c1: [{level: a}\n",
                 "line 4: config parse error", id="partition-parse"),
    pytest.param("{{name: plugin, predictor: {path}}}", "schema: 1\nentries: []\n",
                 "line 1: predictor file needs a nonempty 'entries' list", id="predictor-entries"),
    pytest.param("{{name: plugin, predictor: {path}}}", "schema: 2\nentries: []\n",
                 "line 1: unsupported schema version 2", id="predictor-schema"),
])
def test_method_file_errors_name_that_file(tmp_path, p8_files, capsys, entry, text, message):
    obs, fut = p8_files
    bad = write_config(tmp_path, "bad_file.yaml", text)
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n"
        f"methods:\n  - {entry.format(path=bad)}\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"{bad}: {message}")


def test_proposition_sweep_config_passes(tmp_path):
    cfg = Path(__file__).resolve().parents[1] / "scripts" / "proposition_sweep.yaml"
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(cfg), "--replications", "50", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    for method in ("rct", "matching"):
        assert summary[method]["pass_rate"] == 1
        assert summary[method]["judged"] == 50 * 3  # t=0, t=1 and the ATE


TWO_LEVELS = (
    "schema: 1\nn_observed: 20\nn_future: 20\nlevels: [a, b]\n"
    "base_outcomes: {a: [2.0, 6.0], b: [3.0, 5.0]}\n"
)


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("simulate", "schema: 1\nn_observed: 20\nn_future: 20\nlevels: []\n"
                 "base_outcomes: {}\n", "levels must be nonempty", id="no-levels"),
    pytest.param("simulate", TWO_LEVELS.replace("n_observed: 20", "n_observed: 3"),
                 "every level needs 2 observed units and 1 future unit", id="n-observed-small"),
    pytest.param("simulate", TWO_LEVELS.replace("n_future: 20", "n_future: 1"),
                 "every level needs 2 observed units and 1 future unit", id="n-future-small"),
    pytest.param("simulate", TWO_LEVELS.replace("n_observed: 20", "n_observed: 21")
                 + "assignment: balanced\n", "balanced assignment needs an even",
                 id="balanced-odd"),
    pytest.param("simulate", TWO_LEVELS + "instrument: {take_probability: {0: 0.2}}\n",
                 "for both z=0 and z=1", id="take-without-z1"),
    pytest.param("simulate", TWO_LEVELS + "instrument: {take_probability: {0: 0.2, 1: 1.5}}\n",
                 "take probabilities must lie in [0, 1]", id="take-out-of-range"),
    pytest.param("simulate", TWO_LEVELS + "observed_level_weights: {a: 1.0}\n",
                 "observed_level_weights missing levels ['b']", id="observed-weights-missing"),
    pytest.param("simulate", TWO_LEVELS + "future_level_weights: {b: 1.0}\n",
                 "future_level_weights missing levels ['a']", id="future-weights-missing"),
    pytest.param("simulate", TWO_LEVELS + "propensities: {a: 0.5}\n",
                 "propensities missing levels ['b']", id="propensities-missing"),
    pytest.param("simulate", TWO_LEVELS + "observed_level_weights: {a: -1.0, b: 2.0}\n",
                 "observed_level_weights must be finite, nonnegative", id="negative-weight"),
    pytest.param("simulate", TWO_LEVELS + "future_level_weights: {a: 0.0, b: 0.0}\n",
                 "future_level_weights must be finite, nonnegative and not all zero",
                 id="zero-weights"),
    pytest.param("simulate", TWO_LEVELS + "instrument: 5\n", "bad scenario spec",
                 id="instrument-5"),
    pytest.param("simulate", TWO_LEVELS + "instrument: {z_probability: 2}\n",
                 "z_probability must lie in [0, 1]", id="z-probability-2"),
    pytest.param("simulate", TWO_LEVELS + "noise_sd: -1\n", "noise_sd must be nonnegative",
                 id="negative-noise"),
    pytest.param("simulate", TWO_LEVELS + "seed: -1\n", "seed must be nonnegative",
                 id="negative-seed"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\nmethods: [rct]\nscenario: 5\n",
                 "bad scenario spec", id="sweep-scenario-5"),
    pytest.param("sweep", "schema: 1\nseed: -1\nreplications: 2\nmethods: [rct]\n"
                 + SMALL_SCENARIO, "line 2: seed must be nonnegative", id="sweep-negative-seed"),
])
def test_scenario_that_cannot_be_drawn_exits_2(tmp_path, capsys, verb, body, message):
    cfg = write_config(tmp_path, "c.yaml", body)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("run", "methods: [rct, coarsened]\n",
                 "line 6: method coarsened needs parameter 'partition'", id="run-methods"),
    pytest.param("audit", "audits: [sp, bogus]\n", "line 6: unknown audit 'bogus'", id="audits"),
    pytest.param("audit", "predictor: coarsened\naudits: [sp]\n",
                 "line 6: auditing predictor coarsened needs parameter", id="predictor"),
    pytest.param("run", "methods: [{name: rm_bounds, k0: 10, k1: 0}]\n",
                 "line 6: method rm_bounds: k0=10.0", id="method-value-error"),
])
def test_config_errors_name_the_line_of_their_key(
    tmp_path, p8_files, capsys, verb, body, message
):
    obs, fut = p8_files
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nout: {tmp_path / 'r.json'}\n"
        + body,
    )
    assert main([verb, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"{cfg}: {message}")


@pytest.mark.parametrize("last_row, cells", [
    pytest.param("3,1,2.5", 3, id="short"),
    pytest.param("3,1,2.5,a,9", 5, id="long"),
])
def test_malformed_csv_row_exits_2_naming_file_and_line(tmp_path, capsys, last_row, cells):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"id,t,y,xc_level\n1,1,2.5,a\n\n2,0,1.5,a\n{last_row}\n")
    out = tmp_path / "report.json"
    cfg = write_config(
        tmp_path, "run.yaml", f"schema: 1\nobserved: {bad}\nmethods: [rct]\nout: {out}\n"
    )
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: line 5: {cells} cells where the header has 4")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\nmethods: 7\n" + SMALL_SCENARIO,
                 "line 4: config needs a nonempty 'methods' list", id="sweep-methods-7"),
    pytest.param("run", "schema: 1\nobserved: [1, 2]\nmethods: [rct]\n",
                 "line 2: observed must be a file path, got [1, 2]", id="observed-list"),
    pytest.param("run", "schema: 1\nobserved: {obs}\nfuture: 3\nmethods: [rct]\n",
                 "line 3: future must be a file path, got 3", id="future-number"),
])
def test_mistyped_config_values_exit_2_at_their_line(
    tmp_path, p8_files, capsys, verb, body, message
):
    cfg = write_config(tmp_path, "c.yaml", body.format(obs=p8_files[0]))
    out = tmp_path / "out.json"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}: {message}") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("simulate", TWO_LEVELS + "instrument: 5\n",
                 "line 6: bad scenario spec: instrument must be a mapping", id="instrument-5"),
    pytest.param("simulate", TWO_LEVELS + "future_outcome_shift: 5\n",
                 "line 6: bad scenario spec: future_outcome_shift must be a mapping",
                 id="shift-5"),
    pytest.param("simulate", TWO_LEVELS.replace("n_observed: 20\n", ""),
                 "line 1: bad scenario spec: missing required key 'n_observed'",
                 id="missing-n-observed"),
    pytest.param("simulate", TWO_LEVELS.replace("{a: [2.0, 6.0]", "{a: 2"),
                 "line 5: bad scenario spec: base_outcomes must be a mapping from level to "
                 "[y(t=0), y(t=1)]", id="base-outcome-not-a-pair"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\n"
                 + SMALL_SCENARIO.replace("  n_observed: 10\n", ""),
                 "line 4: bad scenario spec: missing required key 'n_observed'",
                 id="sweep-missing-n-observed"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\n" + SMALL_SCENARIO
                 + "  instrument:\n    dominance_break: 0\n    z_probability: x\n",
                 "line 12: bad scenario spec: instrument.z_probability must be a number",
                 id="sweep-nested-key"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\nscenario: 5\n",
                 "line 4: bad scenario spec: scenario must be a mapping", id="sweep-scenario-5"),
])
def test_scenario_errors_name_their_key_at_its_line(tmp_path, capsys, verb, body, message):
    cfg = write_config(tmp_path, "c.yaml", body)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{cfg}: {message}") and "Traceback" not in err
    assert not out.exists()


def test_failed_report_write_leaves_the_old_report_and_no_temporary_file(
    tmp_path, p8_files, capsys, monkeypatch
):
    obs, _ = p8_files
    out = tmp_path / "report.json"
    out.write_text("old report\n")
    cfg = write_config(
        tmp_path, "run.yaml", f"schema: 1\nobserved: {obs}\nmethods: [rct]\nout: {out}\n"
    )
    before = sorted(tmp_path.iterdir())

    def no_space(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr("finitepop.cli.os.replace", no_space)
    assert main(["run", "--config", cfg]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_text() == "old report\n"
    assert sorted(tmp_path.iterdir()) == before


def test_unwritable_report_target_exits_2_and_leaves_no_file(tmp_path, p8_files, capsys):
    obs, _ = p8_files
    out = tmp_path / "report.json"
    out.mkdir()  # a directory where the report should go cannot be replaced by it
    cfg = write_config(
        tmp_path, "run.yaml", f"schema: 1\nobserved: {obs}\nmethods: [rct]\nout: {out}\n"
    )
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--config", cfg]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before and not any(out.iterdir())


def test_report_write_replaces_the_old_report(tmp_path, p8_files):
    obs, _ = p8_files
    out = tmp_path / "report.json"
    out.write_text("old report\n")
    cfg = write_config(
        tmp_path, "run.yaml", f"schema: 1\nobserved: {obs}\nmethods: [rct]\nout: {out}\n"
    )
    assert main(["run", "--config", cfg]) == 0
    assert json.loads(out.read_text())["ok"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["observed.csv", "future.csv", "run.yaml", "report.json"])


@pytest.mark.parametrize("target", ["observed", "future", "config", "partition"])
def test_undecodable_input_exits_2_naming_the_file(tmp_path, p8_files, capsys, target):
    obs, fut = p8_files
    files = {"observed": obs, "future": fut, "partition": tmp_path / "part.yaml"}
    files["partition"].write_text("schema: 1\ncells: {c: [{level: a}, {level: b}]}\n")
    bad = files.get(target, tmp_path / "c.yaml")
    body = (
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n"
        f"methods: [{{name: coarsened, partition: {files['partition']}}}]\n"
        f"out: {tmp_path / 'r.json'}\n"
    )
    cfg = write_config(tmp_path, "c.yaml", body)
    lines = bad.read_bytes().split(b"\n")
    lines[1] += b" # caf\xe9"  # a comment or a categorical cell: \xe9 is Latin-1
    bad.write_bytes(b"\n".join(lines))
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: ") and "not UTF-8 text: byte 0xe9" in err
    assert "Traceback" not in err and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("loader", ["libyaml", "pure"])
@pytest.mark.parametrize("scalar, tag", [
    ("!!float abc", "!!float"), ("!!int x", "!!int"), ("!!timestamp x", "!!timestamp"),
    ("!!bool x", "!!bool"),
])
def test_bad_explicit_yaml_tag_exits_2_at_its_line(
    tmp_path, p8_files, capsys, monkeypatch, loader, scalar, tag
):
    if loader == "pure":
        monkeypatch.setattr(cli, "_LOADER", yaml.SafeLoader)
    obs, _ = p8_files
    cfg = write_config(
        tmp_path, "c.yaml", f"schema: 1\nobserved: {obs}\n\nmethods:\n  - rct\n  - {scalar}\n"
    )
    assert main(["run", "--config", cfg]) == 2
    value = scalar.split()[1]
    assert capsys.readouterr().err.startswith(
        f"{cfg}: line 6: config parse error: {value!r} is not a valid {tag}\n"
    )


def test_audit_reads_its_list_from_audits_only(tmp_path, p8_files, capsys):
    obs, fut = p8_files
    cfg = write_config(
        tmp_path, "c.yaml", f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n"
        f"out: {tmp_path / 'r.json'}\nmethods: [sp]\n",
    )
    assert main(["audit", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"{cfg}: line 6: unknown key 'methods' for audit\n"


P8_PREDICTOR = "schema: 1\nentries:\n" + "".join(
    f"  - {{x: {{level: {lv}}}, t: {t}, p: {p}}}\n"
    for lv, t, p in (("a", 0, 6.0), ("a", 1, 10.0), ("b", 0, 2.0), ("b", 1, 4.0))
)
PARTITION_USES = [
    pytest.param("run", "methods: [{{name: coarsened, partition: {part}}}]\n", id="coarsened"),
    pytest.param("run", "methods: [{{name: plugin, predictor: {pred}, partition: {part}}}]\n",
                 id="plugin"),
    pytest.param("audit", "predictor: {pred}\npartition: {part}\naudits: [ml_groupwise]\n",
                 id="ml_groupwise"),
]


@pytest.mark.parametrize("cells, message", [
    pytest.param("  c1: [{level: a}]\n",
                 "covariate Covariate(level='b') lies in no partition cell", id="misses-b"),
    pytest.param("  c1: [{level: a}, {level: b}]\n  c2: [{level: b}]\n",
                 "line 2: covariate Covariate(level='b') is listed in cells 'c1' and 'c2'",
                 id="repeats-b"),
])
@pytest.mark.parametrize("verb, body", PARTITION_USES)
def test_a_partition_that_misses_or_repeats_a_value_exits_2(
    tmp_path, p8_files, capsys, verb, body, cells, message
):
    obs, fut = p8_files
    part = write_config(tmp_path, "part.yaml", "schema: 1\ncells:\n" + cells)
    pred = write_config(tmp_path, "pred.yaml", P8_PREDICTOR)
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nout: {tmp_path / 'r.json'}\n"
        + body.format(part=part, pred=pred),
    )
    assert main([verb, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"{part}: {message}")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("verb, body", PARTITION_USES)
def test_a_partition_must_cover_the_future_values_too(tmp_path, p8_files, capsys, verb, body):
    obs, _ = p8_files
    xc = Covariate.of(level="c")
    units = (*p8_future().units, Unit(15, xc))
    fut = tmp_path / "future_c.csv"
    save_future_csv(FuturePopulation(units, {t: [1.0] * len(units) for t in (0, 1)}), fut)
    part = write_config(tmp_path, "part.yaml", "schema: 1\ncells:\n  ab: [{level: a}, {level: b}]\n")
    pred = write_config(tmp_path, "pred.yaml", P8_PREDICTOR + "".join(
        f"  - {{x: {{level: c}}, t: {t}, p: 1.0}}\n" for t in (0, 1)))
    cfg = write_config(
        tmp_path, "c.yaml", f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\n"
        + body.format(part=part, pred=pred),
    )
    assert main([verb, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        f"{part}: covariate {xc!r} lies in no partition cell; cells must cover every observed "
        "and future value\n"
    )


SWEEP_WITH_TWO_SEEDS = (
    "schema: 1\nreplications: 2\nscenario:\n  n_observed: 24\n  n_future: 30\n"
    "  levels: [a, b]\n  seed: 5\n  base_outcomes: {a: [2.0, 6.0], b: [3.0, 5.0]}\nseed: -1\n"
)


def test_a_key_is_looked_up_inside_its_parent_mapping(tmp_path, capsys):
    cfg = write_config(tmp_path, "sweep.yaml", SWEEP_WITH_TWO_SEEDS)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == f"{cfg}: line 9: seed must be nonnegative, got -1\n"
    assert cli._key_line(SWEEP_WITH_TWO_SEEDS, "scenario.seed") == 7
    assert cli._key_line(SWEEP_WITH_TWO_SEEDS, "scenario.instrument") == 3
    assert cli._key_line(SWEEP_WITH_TWO_SEEDS, "levels") == 1
    assert cli._key_line("schema: 1\nseed: 5\nseed: -1\n", "seed") == 3  # the value that holds


def test_a_config_nested_too_deeply_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.yaml", "schema: 1\ny: " + "[" * 3000 + "]" * 3000 + "\nz: [")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"{cfg}: line 1: config parse error: nested too deeply\n"


def _outputs(path) -> bytes:
    """The bytes of a report file, or of every file in a simulate directory."""
    if path.is_dir():
        return b"".join(p.read_bytes() for p in sorted(path.iterdir()))
    return path.read_bytes()


def _verb_config(tmp_path, p8_files, verb, out) -> str:
    obs, fut = p8_files
    body = {
        "run": f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nmethods: [rct]\n",
        "audit": f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\naudits: [sp]\n",
        "simulate": TWO_LEVELS,
        "sweep": "schema: 1\nseed: 1\nreplications: 2\nmethods: [rct]\n" + SMALL_SCENARIO,
    }[verb]
    return write_config(tmp_path, "c.yaml", body + f"out: {out}\n")


SETTINGS = {
    "run": ("mode", "out"),
    "audit": ("mode", "out"),
    "simulate": ("seed", "out"),
    "sweep": ("seed", "replications", "out"),
}
KEPT = [(verb, key) for verb, keys in SETTINGS.items() for key in keys]
DROPPED = [(verb, key) for verb in SETTINGS for key in ("mode", "seed", "replications")
           if key not in SETTINGS[verb]]


@pytest.mark.parametrize("verb", SETTINGS)
def test_help_lists_exactly_the_verb_settings(capsys, verb):
    with pytest.raises(SystemExit) as exit_:
        main([verb, "--help"])
    assert exit_.value.code == 0
    flags = re.findall(r"^  (--\w+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(flags) == sorted(["--config"] + [f"--{key}" for key in SETTINGS[verb]])


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("verb, key", KEPT)
def test_each_kept_setting_changes_the_output(tmp_path, p8_files, monkeypatch, via, verb, key):
    base = tmp_path / "base"
    cfg = _verb_config(tmp_path, p8_files, verb, base)
    assert main([verb, "--config", cfg]) == 0
    before = _outputs(base)
    other = tmp_path / "other"
    value = {"mode": "data", "seed": "7", "replications": "3", "out": str(other)}[key]
    argv = [verb, "--config", cfg]
    if via == "flag":
        argv += [f"--{key}", value]
    else:
        monkeypatch.setenv(f"FINITEPOP_{key.upper()}", value)
    assert main(argv) == 0
    if key == "out":
        assert _outputs(other) == before
    else:
        assert _outputs(base) != before


@pytest.mark.parametrize("verb, key", DROPPED)
def test_a_setting_the_verb_does_not_read_is_no_flag_and_its_variable_is_ignored(
    tmp_path, p8_files, monkeypatch, capsys, verb, key
):
    out = tmp_path / "out"
    cfg = _verb_config(tmp_path, p8_files, verb, out)
    with pytest.raises(SystemExit) as exit_:
        main([verb, "--config", cfg, f"--{key}", "data" if key == "mode" else "3"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
    monkeypatch.setenv(f"FINITEPOP_{key.upper()}", "abc")
    assert main([verb, "--config", cfg]) == 0


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("run", "schema: 1\nmethods: [rct]\notu: r.json\nmode: data\nalpha: 1\n",
                 "line 3: unknown key 'otu' for run", id="run"),
    pytest.param("audit", "schema: 1\nmode: data\nmethods: [sp]\naudits: [sp]\nbeta: 1\n",
                 "line 3: unknown key 'methods' for audit", id="audit"),
    pytest.param("simulate", TWO_LEVELS + "mode: oracle\nreplications: 2\n",
                 "line 6: unknown key 'mode' for simulate", id="simulate"),
    pytest.param("sweep", "schema: 1\nseed: 1\nzeta: 2\nmode: oracle\n" + SMALL_SCENARIO,
                 "line 3: unknown key 'zeta' for sweep", id="sweep"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\n" + SMALL_SCENARIO
                 + "  nosie_sd: 1\n  alpha: 2\n",
                 "line 10: unknown key 'nosie_sd' for scenario", id="sweep-scenario"),
    pytest.param("simulate", TWO_LEVELS + "instrument: {z_probabilty: 0.9, a: 1}\n",
                 "line 6: unknown key 'z_probabilty' for instrument", id="instrument"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\n" + SMALL_SCENARIO
                 + "  instrument:\n    z_probability: 0.5\n    dominance_brake: 1\n",
                 "line 12: unknown key 'dominance_brake' for instrument", id="sweep-instrument"),
])
def test_an_unknown_key_exits_2_naming_the_first_at_its_line(tmp_path, capsys, verb, body, message):
    cfg = write_config(tmp_path, "c.yaml", body)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{cfg}: {message}\n"
    assert not out.exists()


def test_the_conversions_cover_exactly_the_spec_fields():
    fields = dataclasses.fields(ScenarioSpec) + dataclasses.fields(InstrumentSpec)
    assert sorted(cli._CONVERSIONS) == sorted(f.name for f in fields)


HUGE = 10**400  # an integer that no float holds


@pytest.mark.parametrize("verb, body, message", [
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2.7\n" + SMALL_SCENARIO,
                 "line 3: replications and seed must be integers", id="replications-float"),
    pytest.param("sweep", "schema: 1\nseed: 1.9\nreplications: 2\n" + SMALL_SCENARIO,
                 "line 2: replications and seed must be integers", id="seed-float"),
    pytest.param("simulate", TWO_LEVELS.replace("n_observed: 20", "n_observed: 20.9"),
                 "line 2: bad scenario spec: n_observed must be an integer, got 20.9",
                 id="n-observed-float"),
    pytest.param("simulate", TWO_LEVELS + 'shared_unit_noise: "no"\n',
                 "line 6: bad scenario spec: shared_unit_noise must be a boolean, got 'no'",
                 id="shared-noise-no"),
    pytest.param("simulate", TWO_LEVELS + 'shared_unit_noise: "false"\n',
                 "line 6: bad scenario spec: shared_unit_noise must be a boolean, got 'false'",
                 id="shared-noise-false"),
    pytest.param("simulate", TWO_LEVELS + "propensities: true\n",
                 "line 6: bad scenario spec: propensities must be a number or a mapping from "
                 "level to number, got True", id="propensities-true"),
    pytest.param("simulate", TWO_LEVELS + f"noise_sd: {HUGE}\n",
                 f"line 6: bad scenario spec: noise_sd must be a number, got {HUGE}",
                 id="noise-sd-too-large-for-a-float"),
    pytest.param("sweep", "schema: 1\nseed: 1\nreplications: 2\n" + SMALL_SCENARIO
                 + f"  noise_sd: {HUGE}\n",
                 f"line 10: bad scenario spec: noise_sd must be a number, got {HUGE}",
                 id="sweep-noise-sd-too-large-for-a-float"),
])
def test_a_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, verb, body, message):
    cfg = write_config(tmp_path, "c.yaml", body)
    out = tmp_path / "out"
    assert main([verb, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"{cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("params, message", [
    pytest.param("k0: false, k1: 10", "parameter k0 must be a number, got False", id="k0-false"),
    pytest.param('k0: 0, k1: "10"', "parameter k1 must be a number, got '10'", id="k1-string"),
    pytest.param(f"k0: 0, k1: {HUGE}", f"parameter k1 must be a number, got {HUGE}",
                 id="k1-too-large-for-a-float"),
])
def test_a_method_parameter_of_the_wrong_type_exits_2(tmp_path, p8_files, capsys, params, message):
    obs, _ = p8_files
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nobserved: {obs}\nmethods: [{{name: rm_bounds, {params}}}]\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"{cfg}: line 3: method rm_bounds: {message}\n"


@pytest.mark.parametrize("entry", [
    "{x: {level: a}, t: 1.0, p: 10.0}", "{x: {level: a}, t: true, p: 10.0}",
    '{x: {level: a}, t: 1, p: "10.0"}', "{x: {level: a}, t: 1, p: false}",
])
def test_a_predictor_entry_of_the_wrong_type_exits_2(tmp_path, p8_files, capsys, entry):
    obs, _ = p8_files
    text = P8_PREDICTOR.replace("{x: {level: a}, t: 1, p: 10.0}", entry)
    pred = write_config(tmp_path, "pred.yaml", text)
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nobserved: {obs}\nmethods: [{{name: plugin, predictor: {pred}}}]\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"{pred}: line 2: bad predictor entry ")


NON_FINITE = {".nan": "nan", ".inf": "inf", "-.inf": "-inf"}
BOUND_PARAMETERS = {"k0": "rm_bounds, k0: {v}, k1: 12", "k1": "rm_bounds, k0: 0, k1: {v}",
                    "delta": "rm_bounds, k0: 0, k1: 12, delta: {v}",
                    "eps": "iv_lower, eps: {v}, delta: 0"}


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("key", BOUND_PARAMETERS)
def test_a_non_finite_method_parameter_exits_2(tmp_path, p8_files, capsys, key, value):
    """At the line of the methods list, as a parameter of the wrong type does."""
    obs, _ = p8_files
    entry = BOUND_PARAMETERS[key].format(v=value)
    cfg = write_config(tmp_path, "c.yaml", f"schema: 1\nobserved: {obs}\nmethods:\n"
                       f"  - {{name: {entry}}}\n")
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    method = entry.split(",")[0]
    assert capsys.readouterr().err == (f"{cfg}: line 3: method {method}: parameter {key} must be "
                                       f"a finite number, got {NON_FINITE[value]}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", NON_FINITE)
def test_a_non_finite_prediction_exits_2_at_the_entries_line(tmp_path, p8_files, capsys, value):
    obs, fut = p8_files
    text = P8_PREDICTOR.replace("p: 10.0", f"p: {value}")
    pred = write_config(tmp_path, "pred.yaml", text)
    cfg = write_config(tmp_path, "c.yaml", f"schema: 1\nmode: oracle\nobserved: {obs}\n"
                       f"future: {fut}\nmethods: [{{name: plugin, predictor: {pred}}}]\n")
    out = tmp_path / "r.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"{pred}: line 2: bad predictor entry {{'x': {{'level': 'a'}}, 't': 1, "
        f"'p': {NON_FINITE[value]}}}: p must be a finite number\n")
    assert not out.exists()


def test_oracle_mode_without_a_future_exits_2_at_the_mode_line(tmp_path, p8_files, capsys):
    obs, _ = p8_files
    cfg = write_config(
        tmp_path, "c.yaml", f"schema: 1\nobserved: {obs}\nmethods: [rct]\nmode: oracle\n"
    )
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"{cfg}: line 4: oracle mode requires a future population with outcomes\n"
    )


@pytest.mark.parametrize("keep, missing", [
    pytest.param("0", "y_t1", id="no-y_t1"), pytest.param("", "y_t0, y_t1", id="no-outcomes"),
])
def test_oracle_mode_without_the_future_outcomes_exits_2_naming_the_csv(
    tmp_path, p8_files, capsys, keep, missing
):
    obs, _ = p8_files
    units = p8_future().units
    fut = tmp_path / "future_part.csv"
    outcomes = {int(t): [1.0] * len(units) for t in keep} or None
    save_future_csv(FuturePopulation(units, outcomes), fut)
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nmethods: [rct]\n",
    )
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"{fut}: line 1: header lacks {missing}, which oracle mode needs\n"
    )


@pytest.fixture
def p8_files_with_compliance(tmp_path, p8_files):
    obs, _ = p8_files
    future = p8_future()
    fut = tmp_path / "future_s.csv"
    compliance = {0: [0, 0, 1, 0], 1: [1, 1, 1, 0]}
    save_future_csv(FuturePopulation(future.units, future.outcomes, compliance), fut)
    return obs, fut


def test_data_mode_reads_no_oracle_column(tmp_path, p8_files_with_compliance, monkeypatch):
    obs, fut = p8_files_with_compliance
    part = write_config(
        tmp_path, "part.yaml", "schema: 1\ncells:\n  all: [{level: a}, {level: b}]\n"
    )
    pred = write_config(tmp_path, "pred.yaml", P8_PREDICTOR)
    out = tmp_path / "r.json"
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: data\nobserved: {obs}\nfuture: {fut}\nout: {out}\nmethods:\n"
        f"  - rct\n  - matching\n  - {{name: coarsened, partition: {part}}}\n"
        f"  - {{name: plugin, predictor: {pred}, partition: {part}}}\n"
        f"  - {{name: dr, predictor: {pred}}}\n",
    )
    read = []
    for name in ("outcome_column", "compliance_column"):
        real = getattr(FuturePopulation, name)
        monkeypatch.setattr(
            FuturePopulation, name,
            lambda self, key, real=real, name=name: read.append(name) or real(self, key),
        )
    assert main(["run", "--config", cfg]) == 0
    assert read == []
    report = json.loads(out.read_text())
    assert sorted(report["methods"]) == sorted(METHODS)
    assert "ground_truth" not in report


@pytest.mark.parametrize("audit, message", [
    ("cfd", "CFD unobservable without ground truth"),
    ("signed_difference", "operation requires the outcome oracle (oracle mode only)"),
    ("ml_groupwise", "operation requires the outcome oracle (oracle mode only)"),
    ("dr_condition", "operation requires the outcome oracle (oracle mode only)"),
    ("dominance", "operation requires the outcome oracle (oracle mode only)"),
    ("compliance_stability", "operation requires the compliance oracle (oracle mode only)"),
])
def test_an_oracle_audit_in_data_mode_exits_3_with_its_own_message(
    tmp_path, p8_files_with_compliance, capsys, audit, message
):
    obs, fut = p8_files_with_compliance
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: data\nobserved: {obs}\nfuture: {fut}\naudits: [sp, {audit}]\n",
    )
    assert main(["audit", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"precondition failed: audit {audit}: {message}\n"
    oracle = Path(cfg).read_text().replace("mode: data", "mode: oracle")
    assert main(["audit", "--config", write_config(tmp_path, "c.yaml", oracle)]) == 0


def test_each_transfer_audit_covers_every_observed_treatment(tmp_path):
    obs, fut, out = tmp_path / "o.csv", tmp_path / "f.csv", tmp_path / "r.json"
    obs.write_text("id,t,y,xc_level\n" + "".join(
        f"{i},{i % 3},{i}.0,{'ab'[i % 2]}\n" for i in range(1, 13)))
    fut.write_text("id,xc_level,y_t0,y_t1,y_t2\n21,a,1.0,2.0,3.0\n22,b,2.0,3.0,5.0\n")
    cfg = write_config(
        tmp_path, "c.yaml", f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nout: {out}\n"
        "audits: [sp, cfd, signed_difference, ml_groupwise, dr_condition]\n",
    )
    assert main(["audit", "--config", cfg]) == 0
    for name, result in json.loads(out.read_text())["audits"].items():
        assert sorted(result["per_treatment"]) == ["0", "1", "2"], name


def test_plugin_and_dr_budgets_hold_for_a_predictor_far_from_the_cell_means(tmp_path):
    """A zero predictor on a future weighted 3:1 towards level a.  Its observed calibration
    term enters the plug-in budget, and doubly robust weights follow the future's composition,
    so the error is its signed stable-prediction gap minus the average signed difference."""
    obs = write_config(tmp_path, "obs.csv", "id,t,y,xc_level\n1,1,10,a\n2,0,6,a\n3,1,4,b\n4,0,2,b\n")
    fut = write_config(tmp_path, "fut.csv", "id,xc_level,y_t0,y_t1\n11,a,6,10\n12,a,6,10\n"
                       "13,a,6,10\n14,b,2,4\n")
    pred = write_config(tmp_path, "zero.yaml", "schema: 1\nentries:\n" + "".join(
        f"  - {{x: {{level: {lv}}}, t: {t}, p: 0}}\n" for lv in "ab" for t in (0, 1)))
    out = tmp_path / "r.json"
    cfg = write_config(
        tmp_path, "c.yaml",
        f"schema: 1\nmode: oracle\nobserved: {obs}\nfuture: {fut}\nout: {out}\n"
        f"methods: [matching, {{name: dr, predictor: {pred}}}, {{name: plugin, predictor: {pred}}}]\n",
    )
    assert main(["run", "--config", cfg]) == 0
    methods = json.loads(out.read_text())["methods"]
    for name in ("matching", "dr", "plugin"):
        for v in methods[name]["verdicts"].values():
            assert v["pass"] and set(v) == {"truth", "error", "budget", "pass"}, name
    # dr weighs the treated rows 3 at level a and 1 at b, which reaches the truth (30 + 4) / 4
    assert methods["dr"]["per_treatment"]["1"]["estimate"] == 8.5
    assert methods["plugin"]["verdicts"]["1"]["error"] == 8.5
    assert methods["plugin"]["verdicts"]["1"]["budget"] == 8.5  # |kappa| = 8.5, no gap


@pytest.mark.parametrize("mode", ["data", "oracle"])
def test_dr_exits_3_naming_a_future_value_without_observed_rows(tmp_path, capsys, mode):
    """The future's unit at level c has no observed rows: its share of the future cannot be
    reweighted, so dr stops in data mode as it does in oracle mode, not with APO(1) = 5."""
    obs = write_config(tmp_path, "obs.csv", "id,t,y,xc_level\n1,1,10,a\n2,0,6,a\n3,1,4,b\n4,0,2,b\n")
    fut = write_config(tmp_path, "fut.csv", "id,xc_level,y_t0,y_t1\n11,a,6,10\n12,c,1,3\n")
    pred = write_config(tmp_path, "zero.yaml", "schema: 1\nentries:\n" + "".join(
        f"  - {{x: {{level: {lv}}}, t: {t}, p: 0}}\n" for lv in "abc" for t in (0, 1)))
    cfg = write_config(tmp_path, "c.yaml", f"schema: 1\nmode: {mode}\nobserved: {obs}\n"
                       f"future: {fut}\nmethods: [{{name: dr, predictor: {pred}}}]\n")
    assert main(["run", "--config", cfg]) == 3
    assert capsys.readouterr().err == ("precondition failed: method dr: "
                                       "no observed rows with x=Covariate(level='c'), t=0\n")


def test_a_dr_run_without_a_future_exits_2_at_the_future_key(tmp_path, p8_files, capsys):
    obs, _ = p8_files
    pred = write_config(tmp_path, "pred.yaml", P8_PREDICTOR)
    cfg = write_config(tmp_path, "c.yaml", f"schema: 1\nobserved: {obs}\n"
                       f"methods: [rct, {{name: dr, predictor: {pred}}}]\nfuture:\n")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"{cfg}: line 4: method dr needs parameter 'future'\n"


def test_each_transfer_term_reads_the_future_outcomes_under_its_treatment_only(monkeypatch):
    d, full = p8_observed(), p8_future()
    part = CovariatePartition.from_members({"all": [XA, XB]})
    params = {"partition": part, "predictor": External(lambda x, t: 5.0)}
    read = []
    real = FuturePopulation.outcome_column
    monkeypatch.setattr(FuturePopulation, "outcome_column",
                        lambda self, t: read.append(t) or real(self, t))
    for name, method in METHODS.items():
        read.clear()
        future = FuturePopulation(full.units, {1: full.outcomes[1]})  # y(t=1) only, read afresh
        audit.budget(method.fit(d, params), d, future, 1, part if method.cells else None,
                     method.transfer)
        assert set(read) == {1}, name


def test_an_oracle_run_fits_each_matching_predictor_once(monkeypatch):
    calls = []
    for cls in (ExactMatching, CoarsenedMatching):
        monkeypatch.setattr(cls, "fit", lambda *args, real=cls.fit, name=cls.__name__:
                            calls.append(name) or real(*args))
    files = {("partition", "p.yaml"): CovariatePartition.from_members({"all": [XA, XB]})}
    cfg = {"methods": ["matching", {"name": "coarsened", "partition": "p.yaml"}]}
    report = cli.run_methods(cfg, p8_observed(), p8_future(), loaded=files)
    assert report["ok"] and sorted(calls) == ["CoarsenedMatching", "ExactMatching"]


def counted(monkeypatch, module, name) -> list:
    """The arguments of every call to ``module.name`` from now on, recorded by a wrapper
    rebound in each ``finitepop`` module that holds the function, as the benchmark's tracer
    rebinds its spans."""
    real, calls = getattr(module, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "finitepop"]:
        for key, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, key, wrapper)
    return calls


ONE_CELL = "schema: 1\ncells:\n  all: [{level: a}, {level: b}]\n"
EVERY_POINT_METHOD = ("methods: [rct, matching, {name: coarsened, partition: part.yaml},"
                      " {name: plugin, predictor: pred.yaml, partition: part.yaml},"
                      " {name: dr, predictor: pred.yaml}]\n")


def test_a_run_checks_support_once_per_partition_and_prices_each_signed_difference_once(
        tmp_path, monkeypatch):
    """matching and coarsened each fit and estimate twice from one support report per
    partition, and each method prices each treatment's verdict with one budget, read per cell
    of its partition where its registry entry says so."""
    save_observed_csv(p8_observed(), tmp_path / "observed.csv")
    save_future_csv(p8_future(), tmp_path / "future.csv")
    (tmp_path / "part.yaml").write_text(ONE_CELL)
    (tmp_path / "pred.yaml").write_text(P8_PREDICTOR)
    cfg = write_config(tmp_path, "run.yaml", "schema: 1\nmode: oracle\nobserved: observed.csv\n"
                       "future: future.csv\nout: run.json\n" + EVERY_POINT_METHOD)
    monkeypatch.chdir(tmp_path)
    support = counted(monkeypatch, core, "common_support_check")
    budgets = counted(monkeypatch, audit, "budget")
    assert main(["run", "--config", cfg]) == 0
    part = cli.load_partition_file("part.yaml")
    assert [p for _, p in support] == [None, part]  # matching's, then coarsened's
    assert [(t, p, transfer) for _, _, _, t, p, transfer in budgets] == [
        (0, None, "cfd"), (1, None, "cfd"), (0, None, "signed"), (1, None, "signed"),
        (0, part, "signed"), (1, part, "signed"), (0, part, "cellwise"), (1, part, "cellwise"),
        (0, None, "signed"), (1, None, "signed")]


def test_a_partition_key_on_rct_matching_or_dr_leaves_its_report_as_it_is(tmp_path,
                                                                          monkeypatch):
    """Which cells a budget reads is fixed by the method's registry entry: only coarsened and
    plugin read their partition.  Over one cell of both levels the signed difference here
    would be 2.85, against 0.75 over single levels."""
    (tmp_path / "observed.csv").write_text("id,t,y,xc_level\n1,1,10,a\n2,0,6,a\n3,1,10,a\n"
                                           "4,0,6,a\n5,1,4,b\n6,1,4,b\n7,1,4,b\n8,0,2,b\n")
    (tmp_path / "future.csv").write_text("id,xc_level,y_t0,y_t1\n11,a,6,11\n12,a,6,11\n"
                                         "13,a,6,11\n14,b,2,4\n")
    (tmp_path / "part.yaml").write_text(ONE_CELL)
    (tmp_path / "pred.yaml").write_text(P8_PREDICTOR)
    monkeypatch.chdir(tmp_path)
    reports = []
    for extra in ("", ", partition: part.yaml"):
        methods = ", ".join(f"{{name: {m}{extra}}}" for m in ("rct", "matching",
                                                               "dr, predictor: pred.yaml"))
        cfg = write_config(tmp_path, "run.yaml", "schema: 1\nmode: oracle\nobserved: observed.csv"
                           f"\nfuture: future.csv\nout: run.json\nmethods: [{methods}]\n")
        reports.append((main(["run", "--config", cfg]), (tmp_path / "run.json").read_bytes()))
    assert reports[0] == reports[1]


def test_a_sweep_computes_each_shared_term_once_per_replication(tmp_path, monkeypatch):
    """Three replications: three datasets, each with its own support reports and budgets, so
    nothing computed for one replication is read in another."""
    (tmp_path / "part.yaml").write_text(ONE_CELL)
    (tmp_path / "pred.yaml").write_text(P8_PREDICTOR)
    cfg = write_config(tmp_path, "sweep.yaml", "schema: 1\nseed: 4\nreplications: 3\n"
                       "scenario:\n  n_observed: 40\n  n_future: 20\n  levels: [a, b]\n"
                       "  base_outcomes: {a: [6.0, 10.0], b: [2.0, 4.0]}\n" + EVERY_POINT_METHOD)
    monkeypatch.chdir(tmp_path)
    support = counted(monkeypatch, core, "common_support_check")
    budgets = counted(monkeypatch, audit, "budget")
    assert main(["sweep", "--config", cfg, "--out", "sweep.json"]) in (0, 1)
    datasets = {id(args[0]): args[0] for args in support}
    assert len(datasets) == 3  # kept alive by the recorded calls, so the ids are distinct
    for data in datasets.values():
        assert len([a for a in support if a[0] is data]) == 2
        assert len([a for a in budgets if a[1] is data]) == 10  # 5 methods, 2 treatments


@pytest.mark.parametrize("method", ["matching", "coarsened"])
@pytest.mark.parametrize("missing", [0, 1])
def test_a_run_names_the_first_treatment_without_support(tmp_path, capsys, method, missing):
    obs = tmp_path / "obs.csv"
    obs.write_text(f"id,t,y,xc_level\n1,1,2.0,a\n2,0,1.0,a\n3,{1 - missing},1.0,b\n")
    part = write_config(tmp_path, "p.yaml", "schema: 1\ncells:\n  A: [{level: a}]\n  B: [{level: b}]\n")
    entry = method if method == "matching" else f"{{name: coarsened, partition: {part}}}"
    cfg = write_config(tmp_path, "run.yaml", f"schema: 1\nobserved: {obs}\nmethods: [{entry}]\n")
    assert main(["run", "--config", cfg]) == 3
    cause = (f"common support fails for t={missing} at Covariate(level='b')" if method == "matching"
             else f"empty treated cell for t={missing}: B")
    assert capsys.readouterr().err == f"precondition failed: method {method}: {cause}\n"


OVERFLOWING = "id,t,y,xc_level\n1,1,1e308,a\n2,1,1e308,a\n3,0,1.0,a\n4,0,2.0,a\n"
# The Horvitz-Thompson terms of the treated rows are 1e308 / 0.5 = inf and -inf.
OPPOSITE_INFINITIES = ("id,t,y,xc_level\n1,1,1e308,a\n2,0,1.0,a\n3,1,-1e308,b\n4,0,1.0,b\n"
                       "5,0,2.0,a\n6,0,2.0,b\n")


@pytest.mark.parametrize("verb, observed, body, cause", [
    ("run", OVERFLOWING, "methods: [rct]\n", "intermediate overflow in fsum"),
    ("audit", OVERFLOWING, "future: {fut}\naudits: [sp]\n", "intermediate overflow in fsum"),
    ("run", OPPOSITE_INFINITIES, "methods: [matching]\n", "-inf + inf in fsum"),
], ids=["run", "audit", "run-opposite-infinities"])
def test_an_outcome_sum_that_overflows_exits_3(tmp_path, capsys, verb, observed, body, cause):
    obs, fut = tmp_path / "obs.csv", tmp_path / "fut.csv"
    obs.write_text(observed)
    fut.write_text("id,xc_level\n9,a\n")
    cfg = write_config(tmp_path, "c.yaml", f"schema: 1\nobserved: {obs}\n" + body.format(fut=fut))
    assert main([verb, "--config", cfg]) == 3
    assert capsys.readouterr().err == f"precondition failed: {cause}\n"


# Treated outcomes near +1e6 in cell a and near -1e6 in cell b cancel, so the
# Horvitz-Thompson sum (about -1.24) and the plug-in of the matching predictor,
# equal in exact arithmetic, differ after rounding by about 2e-11.
CANCELLING = (
    "id,t,y,xc_level\n1,1,999996.875,a\n2,1,999988.25,a\n3,1,1000000.875,a\n"
    "4,1,1000005.375,a\n5,0,1.0,a\n6,0,2.0,a\n7,1,-999991.375,b\n8,1,-1000011.375,b\n"
    "9,1,-999998.25,b\n10,0,8.0,b\n11,0,6.0,b\n12,0,8.0,b\n"
)


@pytest.mark.parametrize("method", ["matching", "coarsened"])
def test_a_matching_run_reports_the_horvitz_thompson_sum_when_outcomes_cancel(tmp_path, method):
    obs, out = tmp_path / "obs.csv", tmp_path / "r.json"
    obs.write_text(CANCELLING)
    part = write_config(tmp_path, "p.yaml", "schema: 1\ncells:\n  A: [{level: a}]\n  B: [{level: b}]\n")
    entry = method if method == "matching" else f"{{name: coarsened, partition: {part}}}"
    cfg = write_config(tmp_path, "run.yaml",
                       f"schema: 1\nobserved: {obs}\nout: {out}\nmethods: [{entry}]\n")
    assert main(["run", "--config", cfg]) == 0
    data = load_observed_csv(str(obs))
    per_t = json.loads(out.read_text())["methods"][method]["per_treatment"]
    for t in (0, 1):
        assert per_t[str(t)]["estimate"] == exact_matching_estimate(data, t).estimate
