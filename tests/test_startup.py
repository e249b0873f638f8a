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
from hypothesis import given, settings
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
