"""Dependencies between the package modules flow one way.

Each module may import only from modules before it in LAYERS; a relative
import that points up (or sideways into a module not listed) fails here.
Interaction classes are known to ``asymptotics`` alone: the search imports
none of the class machinery.
"""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "winterres"
LAYERS = ["errors", "gpi", "riccati", "krein", "asymptotics", "polefinder",
          "report", "cli"]


def _relative_imports(path: pathlib.Path) -> list[ast.ImportFrom]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PKG.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down(module):
    rank = LAYERS.index(module)
    for node in _relative_imports(PKG / f"{module}.py"):
        assert node.module in LAYERS[:rank], f"{module} imports .{node.module}"


def test_search_knows_no_interaction_classes():
    names = {alias.name for node in _relative_imports(PKG / "polefinder.py")
             for alias in node.names}
    assert not names & {"GpiClass", "classify", "canonical_real_gamma"}


@pytest.mark.parametrize("module", ["riccati", "krein", "polefinder"])
def test_one_arithmetic(module):
    # numpy alone computes the Riccati functions, det lambda and the search's
    # sums, for one point as for many; cmath would bring back a second arithmetic
    tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "cmath" not in imported
