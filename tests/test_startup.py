"""Start-up: what ``import finitepop.cli`` and each verb load, what the process entry sets
and how it ends, and how configs are parsed.

Verbs that never draw must not pay for importing numpy, ``finitepop.simulate`` or
``dataclasses``, ``simulate`` must not pay for the estimators, audits and bounds, and no
verb loads ``finitepop.regress``.  The process entry caps OpenBLAS at one thread unless
the user sized its pool, and ends the process without interpreter teardown, with the
code, output and messages of ``main``; ``main`` changes nothing process-wide.  Configs are parsed by libyaml where it is available; its trees must
equal the pure-Python loader's, and a syntax error must be reported at the pure
loader's line.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finitepop import cli
from finitepop.cli import ConfigError, _parse_yaml, load_config

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = settings(max_examples=200, deadline=None)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python(code: str, cwd=None, **variables: str) -> str:
    """The standard output of ``code`` in a fresh interpreter, with none of the BLAS thread
    variables set but ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_package_loads_no_submodule_and_the_cli_no_numpy():
    """Nor does importing any module set an environment variable."""
    python(
        "import os, sys\nbefore = dict(os.environ)\nimport finitepop\n"
        "assert not [m for m in sys.modules if m.startswith('finitepop.')], sys.modules\n"
        "import finitepop.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "import finitepop.regress\n"
        "assert dict(os.environ) == before\n"
    )


P8_OBSERVED = "id,t,y,z,xc_level\n1,1,10.0,1,a\n2,0,6.0,0,a\n3,1,4.0,1,b\n4,0,2.0,0,b\n"
P8_FUTURE = ("id,xc_level,y_t0,y_t1,s_z0,s_z1\n11,a,6.0,10.0,0,1\n12,a,6.0,10.0,0,1\n"
             "13,b,2.0,4.0,0,1\n14,b,2.0,4.0,0,1\n")
P8_PARTITION = "schema: 1\ncells:\n  c1: [{level: a}]\n  c2: [{level: b}]\n"
P8_PREDICTOR = "schema: 1\nentries:\n" + "".join(
    f"  - {{x: {{level: {lv}}}, t: {t}, p: {p}}}\n"
    for lv, t, p in (("a", 0, 6.0), ("a", 1, 10.0), ("b", 0, 2.0), ("b", 1, 4.0))
)


SCENARIO = ("n_observed: 8\nn_future: 8\nlevels: [a, b]\n"
            "base_outcomes: {a: [6.0, 10.0], b: [2.0, 4.0]}\n")


def write_configs(tmp_path):
    """A config per verb, with its input files: every point method in oracle mode, every
    audit with partition and predictor files, a simulation and a sweep."""
    files = {"observed.csv": P8_OBSERVED, "future.csv": P8_FUTURE,
             "part.yaml": P8_PARTITION, "pred.yaml": P8_PREDICTOR}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    common = "schema: 1\nmode: oracle\nobserved: observed.csv\nfuture: future.csv\n"
    (tmp_path / "run.yaml").write_text(
        common + "out: run.json\nmethods: [rct, matching, {name: coarsened, partition: part.yaml},"
        " {name: plugin, predictor: pred.yaml, partition: part.yaml},"
        " {name: dr, predictor: pred.yaml}]\n")
    (tmp_path / "audit.yaml").write_text(
        common + "out: audit.json\npredictor: pred.yaml\npartition: part.yaml\naudits: [sp, cfd,"
        " signed_difference, ml_groupwise, dr_condition, dominance, compliance_stability]\n")
    (tmp_path / "simulate.yaml").write_text("schema: 1\nout: sim\n" + SCENARIO)
    (tmp_path / "sweep.yaml").write_text(
        "schema: 1\nout: sweep.json\nreplications: 2\nscenario:\n"
        + "".join(f"  {line}\n" for line in SCENARIO.splitlines()))


def test_run_and_audit_load_no_numpy(tmp_path):
    """Neither ``run`` nor ``audit`` imports numpy, ``finitepop.simulate`` or
    ``dataclasses``.  Then simulate and sweep run in the same process, and no verb imports
    ``finitepop.regress``."""
    write_configs(tmp_path)
    python(
        "import sys\nfrom finitepop.cli import main\n"
        "assert main(['run', '--config', 'run.yaml']) == 0\n"
        "assert main(['audit', '--config', 'audit.yaml']) == 0\n"
        "loaded = {'numpy', 'finitepop.simulate', 'dataclasses'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert main(['simulate', '--config', 'simulate.yaml']) == 0\n"
        "assert main(['sweep', '--config', 'sweep.yaml']) == 0\n"
        "assert {'numpy', 'finitepop.simulate'} <= set(sys.modules)\n"
        "assert 'finitepop.regress' not in sys.modules\n",
        cwd=tmp_path,
    )
    assert (tmp_path / "sim" / "future.csv").is_file() and (tmp_path / "sweep.json").is_file()
    report = json.loads((tmp_path / "run.json").read_text())
    assert sorted(report["methods"]) == ["coarsened", "dr", "matching", "plugin", "rct"]
    assert report["ok"] is True
    assert len(json.loads((tmp_path / "audit.json").read_text())["audits"]) == 7


def test_simulate_loads_no_analysis_and_no_verb_registers_an_exit_callback(tmp_path):
    """``simulate`` imports none of ``finitepop.estimate``, ``audit`` and ``bounds``; run and
    sweep then run in the same process.  After each verb, as many ``atexit`` callbacks are
    registered as in a bare interpreter: the process entry's exit would skip them."""
    write_configs(tmp_path)
    python(
        "import atexit, sys\nbare = atexit._ncallbacks()\nfrom finitepop.cli import main\n"
        "assert main(['simulate', '--config', 'simulate.yaml']) == 0\n"
        "loaded = {'finitepop.estimate', 'finitepop.audit', 'finitepop.bounds'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert atexit._ncallbacks() == bare\n"
        "for verb in ('run', 'sweep', 'audit'):\n"
        "    assert main([verb, '--config', f'{verb}.yaml']) == 0, verb\n"
        "    assert atexit._ncallbacks() == bare, verb\n",
        cwd=tmp_path,
    )
    assert json.loads((tmp_path / "run.json").read_text())["ok"] is True
    assert (tmp_path / "sim" / "observed.csv").is_file() and (tmp_path / "sweep.json").is_file()


P8_GAP = "id,t,y,xc_level\n1,1,10.0,a\n2,0,6.0,a\n3,1,4.0,b\n4,1,2.0,b\n"  # no (b, t=0) row


@pytest.mark.parametrize("config, code", [
    ("schema: 1\nobserved: observed.csv\nfuture: future.csv\nmethods: [rct, matching]\n", 0),
    (None, 2),
    ("schema: 1\nobserved: gap.csv\nmethods: [matching]\n", 3),
], ids=["report", "missing-config", "empty-cell"])
def test_the_process_entry_ends_with_mains_code_output_and_message(
        tmp_path, monkeypatch, capsys, config, code):
    """``python -m finitepop.cli run``, with the report on stdout, a missing config and an
    empty (x, t) cell: the exit code, stdout bytes and stderr are ``main``'s."""
    (tmp_path / "observed.csv").write_text(P8_OBSERVED)
    (tmp_path / "future.csv").write_text(P8_FUTURE)
    (tmp_path / "gap.csv").write_text(P8_GAP)
    if config is not None:
        (tmp_path / "run.yaml").write_text(config)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--config", "run.yaml"]) == code
    want = capsys.readouterr()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffered
    done = subprocess.run([sys.executable, "-m", "finitepop.cli", "run", "--config", "run.yaml"],
                          capture_output=True, timeout=60, cwd=tmp_path,
                          env={**env, "PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stdout, done.stderr.decode()) == (
        code, want.out.encode(), want.err)
    assert bool(want.out) == (code == 0) and bool(want.err) == (code != 0)


# The process entry's ``start`` runs with the arguments of ``python -m finitepop.cli``, then
# prints the OpenBLAS variable and the threads the process holds.
ENTRY = (
    "import os, sys\nfrom finitepop.cli import start\n"
    "sys.argv = ['finitepop', 'simulate', '--config', 'simulate.yaml']\n"
    "assert start() == 0\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n"
)
BARE_NUMPY = "import os, numpy\nprint(len(os.listdir('/proc/self/task')))\n"
needs_threads = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counting threads needs /proc/self/task and two CPUs")


@needs_threads
def test_the_process_entry_caps_openblas_at_one_thread(tmp_path):
    (tmp_path / "simulate.yaml").write_text("schema: 1\nout: sim\n" + SCENARIO)
    assert python(ENTRY, cwd=tmp_path) == "1 1\n"
    assert (tmp_path / "sim" / "observed.csv").is_file()


@needs_threads
def test_the_process_entry_leaves_a_sized_pool_alone(tmp_path):
    (tmp_path / "simulate.yaml").write_text("schema: 1\nout: sim\n" + SCENARIO)
    pool = python(BARE_NUMPY, OPENBLAS_NUM_THREADS="2")
    assert python(ENTRY, cwd=tmp_path, OPENBLAS_NUM_THREADS="2") == f"2 {pool}"


class Exited(Exception):
    pass


class BrokenStream(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_the_entry_ends_through_sys_exit_where_a_flush_fails(monkeypatch):
    """With flushed streams the entry calls ``os._exit`` with ``start``'s code; where a flush
    fails it raises ``SystemExit`` with that code instead, and teardown reports the failure."""
    def exit_now(code):
        raise Exited(code)

    monkeypatch.setattr(cli, "start", lambda: 3)
    monkeypatch.setattr(cli.os, "_exit", exit_now)
    with pytest.raises(Exited) as info:
        cli.entry()
    assert info.value.args == (3,)
    monkeypatch.setattr(sys, "stdout", BrokenStream())
    with pytest.raises(SystemExit) as stopped:
        cli.entry()
    assert stopped.value.code == 3


@pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
def test_a_blas_thread_variable_the_user_set_overrides_the_cap(monkeypatch, variable):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv(variable, "3")
    monkeypatch.setattr(cli, "main", lambda: 0)
    assert cli.start() == 0
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES} == {
        name: "3" if name == variable else None for name in BLAS_THREAD_VARIABLES}


def test_main_leaves_the_environment_alone(tmp_path, monkeypatch):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    (tmp_path / "simulate.yaml").write_text("schema: 1\n" + SCENARIO)
    before = dict(os.environ)
    assert cli.main(["simulate", "--config", str(tmp_path / "simulate.yaml"),
                     "--out", str(tmp_path / "sim")]) == 0
    assert dict(os.environ) == before


def parsed(parse, text):
    """("tree", its repr, in which signed zeros count) or ("error", the message)."""
    try:
        return "tree", repr(parse(text))
    except yaml.YAMLError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def pure(text):
    return yaml.load(text, Loader=yaml.SafeLoader)


def libyaml(text):
    return yaml.load(text, Loader=yaml.CSafeLoader)


scalars = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False) | st.sampled_from((-0.0, 0.0, 1e300, "yes", "0x1f", "1_0"))
)
trees = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=20,
)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_and_pure_loader_build_equal_trees_on_the_sweep_config():
    text = (ROOT / "scripts" / "proposition_sweep.yaml").read_text(encoding="utf-8")
    assert repr(libyaml(text)) == repr(pure(text))
    assert load_config(str(ROOT / "scripts" / "proposition_sweep.yaml"))[0] == pure(text)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@EXAMPLES
@given(tree=st.dictionaries(st.text(max_size=6), trees, max_size=5),
       style=st.sampled_from(("block", "flow", "json")))
def test_libyaml_and_pure_loader_build_equal_trees(tree, style):
    """Where libyaml builds a tree it is the pure loader's.  It may reject what the pure
    loader takes (JSON escapes of surrogate pairs); the config is then parsed again."""
    if style == "json":
        text = json.dumps(tree)
    else:
        text = yaml.safe_dump(tree, default_flow_style=style == "flow", allow_unicode=True)
    assert parsed(pure, text)[0] == "tree"
    assert parsed(libyaml, text) in (parsed(pure, text), ("error", ANY))
    assert parsed(_parse_yaml, text) == parsed(pure, text)


@EXAMPLES
@given(tree=st.dictionaries(st.text(max_size=6), trees, min_size=1, max_size=5),
       cuts=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
       junk=st.sampled_from("[]{}:,-'\"\t\n#&*!|>?%@` \ufeff\x85\u2028"))
@example(tree={"a": {"": None}}, cuts=[1, 11], junk="!")  # "a!:\n  ? ''\n!  : null\n"
def test_configs_parse_as_the_pure_loader_parses_them(tree, cuts, junk):
    """Valid configs with a character inserted here and there: the pure loader's tree,
    or its error; or libyaml's tree where only the pure loader rejects the text."""
    text = yaml.safe_dump(tree, default_flow_style=cuts[0] % 2 == 0, allow_unicode=True)
    for cut in cuts:
        cut %= len(text) + 1
        text = text[:cut] + junk + text[cut:]
    got, want = parsed(_parse_yaml, text), parsed(pure, text)
    if want[0] == "tree" or got[0] == "error":
        assert got == want
    else:
        assert got == parsed(libyaml, text)


@pytest.mark.parametrize("text", [
    "\ufeffschema: 1\na: 2\n",
    "x:\n\ufeff  level: b\n",  # libyaml skips the mark and nests level under x
    "a: 1\n\ufeffb: 2\n",
])
def test_byte_order_marks_parse_as_the_pure_loader_parses_them(text):
    assert parsed(_parse_yaml, text) == parsed(pure, text)


@pytest.mark.parametrize("text, line", [
    ("schema: 1\na: [1,\n b", 3),  # libyaml marks line 4
    ("schema: 1\ncells:\n  c1: [{level: a}\n", 4),
    ("schema: 1\na: {b: 1\nc: 2\n", 3),
    ("schema: 1\n\ta: 1\n", 2),
    ("schema: 1\na:\t!!float x\n", 2),  # libyaml takes the tab, then float('x') fails
])
def test_config_parse_errors_carry_the_pure_loaders_line(tmp_path, text, line):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(yaml.YAMLError) as pure_error:
        pure(text)
    assert pure_error.value.problem_mark.line + 1 == line
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert info.value.line == line and str(pure_error.value) in str(info.value)
