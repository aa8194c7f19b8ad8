"""Dependencies between the package modules flow one way.

Each module may import only from modules before it in LAYERS; a relative
import that points up (or sideways into a module not listed) fails here.
Interaction classes are known to ``asymptotics`` alone: the search imports
none of the class machinery.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

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


def test_a_search_never_imports_numpy_ma():
    # a first np.unique(x) or np.union1d call imports numpy.ma (10-25 ms, ~1.7 MB), which a
    # search would pay once per process; np.unique(x, return_index=True) does not.  A
    # search, a count that hits the floor and a separated CLI call go without it
    code = textwrap.dedent("""
        import contextlib, io, os, sys, tempfile
        import winterres.cli
        from winterres import (BoundaryZero, Channel, GpiParams, SearchRegion, count_zeros,
                               find_poles)
        delta = GpiParams(50, 0, 0)
        assert find_poles(delta, Channel(0, 1.0), 40.0)
        try:   # the bottom edge runs through a pole
            count_zeros(delta, Channel(0, 1.0), SearchRegion(2.5, 3.5, -0.0036939673286052818, 0))
        except BoundaryZero:
            pass
        else:
            sys.exit("no BoundaryZero")
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            code = winterres.cli.main(["poles", "--alpha=4", "--beta=1", "--gamma=0", "--l=1",
                                       "--re-max=20", "--csv", os.path.join(out, "p.csv"),
                                       "--svg", os.path.join(out, "p.svg")])
        assert code == 0, code
        print("numpy.ma" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
