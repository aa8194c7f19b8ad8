"""Dependencies between the package modules flow one way.

Each module may import only from modules before it in LAYERS; a relative
import that points up (or sideways into a module not listed) fails here.
"""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "winterres"
LAYERS = ["errors", "gpi", "riccati", "krein", "polefinder", "asymptotics",
          "report", "cli"]


def _relative_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PKG.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down(module):
    rank = LAYERS.index(module)
    for target in _relative_imports(PKG / f"{module}.py"):
        assert target in LAYERS[:rank], f"{module} imports .{target}"
