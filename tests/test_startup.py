"""Start-up: what ``import finitepop.cli`` loads, and how configs are parsed.

Verbs that never draw must not pay for importing numpy.  Configs are parsed
by libyaml where it is available; its trees must equal the pure-Python
loader's, and a syntax error must be reported at the pure loader's line.
"""

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

from finitepop.cli import ConfigError, _parse_yaml, load_config

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = settings(max_examples=200, deadline=None)


def test_cli_import_loads_no_numpy_and_lazy_names_resolve():
    code = (
        "import sys, finitepop, finitepop.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "from finitepop import LinearModel, fit_linear, generate\n"
        "import finitepop.regress as regress\n"
        "assert fit_linear is regress.fit_linear and LinearModel is regress.LinearModel\n"
        "try:\n    finitepop.no_such_name\nexcept AttributeError as e:\n    print(e)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "module 'finitepop' has no attribute 'no_such_name'\n"


P8_OBSERVED = "id,t,y,z,xc_level\n1,1,10.0,1,a\n2,0,6.0,0,a\n3,1,4.0,1,b\n4,0,2.0,0,b\n"
P8_FUTURE = ("id,xc_level,y_t0,y_t1,s_z0,s_z1\n11,a,6.0,10.0,0,1\n12,a,6.0,10.0,0,1\n"
             "13,b,2.0,4.0,0,1\n14,b,2.0,4.0,0,1\n")
P8_PARTITION = "schema: 1\ncells:\n  c1: [{level: a}]\n  c2: [{level: b}]\n"
P8_PREDICTOR = "schema: 1\nentries:\n" + "".join(
    f"  - {{x: {{level: {lv}}}, t: {t}, p: {p}}}\n"
    for lv, t, p in (("a", 0, 6.0), ("a", 1, 10.0), ("b", 0, 2.0), ("b", 1, 4.0))
)


def test_run_and_audit_load_no_numpy(tmp_path):
    """Every point method in oracle mode, then every audit, with partition and predictor
    files: neither verb imports numpy."""
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
    code = (
        "import sys\nfrom finitepop.cli import main\n"
        "assert main(['run', '--config', 'run.yaml']) == 0\n"
        "assert main(['audit', '--config', 'audit.yaml']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "run.json").read_text())
    assert sorted(report["methods"]) == ["coarsened", "dr", "matching", "plugin", "rct"]
    assert report["ok"] is True
    assert len(json.loads((tmp_path / "audit.json").read_text())["audits"]) == 7


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
