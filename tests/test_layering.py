"""The grouping layout stays behind ``core``, and numpy stays out of module loading.

Every other module reads a population through its queries only: ``xs()``,
``n_x``, ``ys(t)`` and ``ys_tz``.  How ``core`` stores the groups can then
change without touching an estimator, audit or bound.  A module that needs
numpy imports it inside the functions that use it, so that the verbs that
never draw or fit do not load it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "finitepop"
LAYOUT_ATTRIBUTES = {"index", "_at", "_ys"}
LAYOUT_CLASSES = {"ObservedIndex", "FutureIndex"}


def layout_reads(tree: ast.AST) -> list[int]:
    """Lines that touch a layout attribute or name a layout class."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRIBUTES
        or isinstance(node, ast.Name) and node.id in LAYOUT_CLASSES
        or isinstance(node, ast.alias) and node.name in LAYOUT_CLASSES
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "core.py"), ids=lambda p: p.name
)
def test_only_core_reads_the_grouping_layout(path):
    lines = layout_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not lines, f"{path.name} reads the grouping layout on lines {lines}"


def test_layout_reads_are_found():
    tree = ast.parse(
        "from .core import ObservedIndex\n"
        "a = data.index.n_x\nb = future._at\nc = data._ys[t]\nd = ys.get(x)\n"
    )
    assert layout_reads(tree) == [1, 2, 3, 4]


def load_time_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each import run when the module loads: outside any function
    and any ``if TYPE_CHECKING:`` block."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            todo += node.orelse
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, node.module or ""))
        todo += ast.iter_child_nodes(node)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy_when_it_loads(path):
    imports = load_time_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    lines = [line for line, module in imports if module.split(".")[0] == "numpy"]
    assert not lines, f"{path.name} imports numpy at module level on lines {lines}"


def test_load_time_imports_are_found():
    tree = ast.parse(
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import numpy.random\nelse:\n    import json\n"
        "try:\n    from numpy import linalg\nexcept ImportError:\n    pass\n"
        "def f():\n    import numpy\n"
        "class C:\n    import math\n    def g(self):\n        import numpy\n"
    )
    assert load_time_imports(tree) == [
        (1, "numpy"), (2, "typing"), (6, "json"), (8, "numpy"), (14, "math"),
    ]
