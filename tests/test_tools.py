"""The result comparison tool: poles may move by rounding, nothing else may change."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "near_results.py"
spec = importlib.util.spec_from_file_location("near_results", TOOL)
near_results = importlib.util.module_from_spec(spec)
spec.loader.exec_module(near_results)

INPUTS = "[50.0, 0.0, 0.0, 0.0, 0, 1.0, 40.0, false]"
CLI_INPUTS = "[50.0, 0.0, 0.0, 0.0, 0, 1.0, 40.0, true]"


def _pole(k: complex, residual: float = 1e-15) -> str:
    return f"{k.real.hex()},{k.imag.hex()},{residual.hex()}"


def _write(path, poles, raised="NonConvergence", code=0, csv="aa", totals=(9, 900)):
    path.write_text("\n".join([
        f"wide 0 {INPUTS} {' '.join(_pole(k) for k in poles)}",
        f"wide 1 {INPUTS} ",
        f"wide 2 {INPUTS} {raised}",
        f"sweep 0 {CLI_INPUTS} exit {code} csv {csv} svg bb",
        f"wide det_lambda calls {totals[0]} points {totals[1]}",
        "sweep det_lambda calls 3 points 30",
    ]) + "\n")
    return str(path)


POLES = [3.08 - 0.0037j, 120.5 - 2.25j]


def test_rounding_moves_pass(tmp_path, capsys):
    old = _write(tmp_path / "old", POLES)
    new = _write(tmp_path / "new", [k * (1 + 4e-16) for k in POLES], csv="cc", totals=(9, 901))
    assert near_results.main([old, new]) == 0
    wide, sweep = capsys.readouterr().out.splitlines()
    assert wide.startswith("wide: largest relative pole move 4")
    assert "det_lambda calls 9 points 900 -> calls 9 points 901" in wide
    assert "1 CLI calls with changed bytes" in sweep


@pytest.mark.parametrize("change", [
    dict(poles=[POLES[0] * (1 + 1e-12), POLES[1]]),
    dict(poles=POLES[:1]),
    dict(poles=POLES, raised="BoundaryZero"),
    dict(poles=POLES, code=3),
], ids=["pole-moved", "pole-lost", "exception-class", "exit-code"])
def test_any_other_change_is_a_mismatch(tmp_path, capsys, change):
    old = _write(tmp_path / "old", POLES)
    new = _write(tmp_path / "new", **change)
    assert near_results.main([old, new]) == 1
    assert capsys.readouterr().out.count("MISMATCH") == 1


def test_a_search_missing_from_one_side_is_a_mismatch(tmp_path, capsys):
    old = _write(tmp_path / "old", POLES)
    new = tmp_path / "new"
    new.write_text("".join(pathlib.Path(old).read_text().splitlines(True)[1:]))
    assert near_results.main([old, str(new)]) == 1
    assert "only in" in capsys.readouterr().out
