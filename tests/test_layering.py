"""The grouping layout stays behind ``core``.

Every other module reads a population through its queries only: ``xs()``,
``n_x``, ``ys(t)`` and ``ys_tz``.  How ``core`` stores the groups can then
change without touching an estimator, audit or bound.
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
