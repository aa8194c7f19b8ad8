"""The result tools: one line per search with its det lambda counts, and a
comparison where poles may move by rounding and nothing else may change."""

import importlib.util
import pathlib
import re

import pytest

from winterres import polefinder

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


near_results = _load("near_results")
same_results = _load("same_results")

INPUTS = "[50.0, 0.0, 0.0, 0.0, 0, 1.0, 40.0, false]"
CLI_INPUTS = "[50.0, 0.0, 0.0, 0.0, 0, 1.0, 40.0, true]"


def _pole(k: complex, residual: float = 1e-15) -> str:
    return f"{k.real.hex()},{k.imag.hex()},{residual.hex()}"


def _write(path, poles, raised="NonConvergence", code=0, csv="aa", totals=(9, 900), calls=5):
    path.write_text("\n".join([
        f"wide 0 {INPUTS} {' '.join(_pole(k) for k in poles)} | det_lambda calls 3 points 300",
        f"wide 1 {INPUTS}  | det_lambda calls 1 points 200",
        f"wide 2 {INPUTS} {raised} | det_lambda calls {calls} points 400",
        f"sweep 0 {CLI_INPUTS} exit {code} csv {csv} svg bb | det_lambda calls 3 points 30",
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


def test_changed_search_counts_are_printed_not_mismatched(tmp_path, capsys):
    old = _write(tmp_path / "old", POLES)
    new = _write(tmp_path / "new", POLES, calls=8)
    assert near_results.main([old, new]) == 0
    changed = capsys.readouterr().out.splitlines()[2:]
    assert changed == [f"wide 2 {INPUTS}: det_lambda calls 5 points 400 -> calls 8 points 400"]


def test_each_search_line_ends_with_its_counts(monkeypatch, capsys):
    w = same_results.workloads
    delta = w.Coupling(50.0, 0.0, 0j)
    searches = (w.Search(delta, 0, 1.0, 20.0), w.Search(delta, 1, 1.0, 10.0, via_cli=True))
    monkeypatch.setattr(w, "GENERATORS", {"tiny": None})
    monkeypatch.setattr(w, "make", lambda name, seed: w.Workload(name, searches, searches[0]))
    det = polefinder.det_lambda_balanced
    assert same_results.main([str(ROOT)]) == 0
    assert polefinder.det_lambda_balanced is det
    *lines, total = capsys.readouterr().out.splitlines()
    counts = [re.fullmatch(r"tiny \d .*\| det_lambda calls (\d+) points (\d+)", line).groups()
              for line in lines]
    assert len(counts) == 2 and all(int(c) > 0 for pair in counts for c in pair)
    assert total == (f"tiny det_lambda calls {sum(int(c) for c, _ in counts)} "
                     f"points {sum(int(p) for _, p in counts)}")


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
