"""The result tools: one line per search with its det lambda, split program
and riccati_s counts, a comparison where poles, of a search or in a CLI call's CSV, may
move by rounding and nothing else may change, and an in-process A/B of two checkouts."""

import importlib.util
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from winterres import Channel, GpiParams, find_poles, krein, polefinder, real_axis_roots

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


def _write(path, poles, raised="NonConvergence", code=0, csv="aa", totals=(9, 900), calls=5,
           cli_poles=("1.5707963267948966,0", "4.7123889803846897,0"), riccati=(40, 44),
           splits=(2, 3)):
    path.write_text("\n".join([
        f"wide 0 {INPUTS} {' '.join(_pole(k) for k in poles)} "
        f"| det_lambda calls 3 points 300 | split programs {splits[0]} | riccati_s calls 1",
        f"wide 1 {INPUTS}  | det_lambda calls 1 points 200 | split programs 0 "
        "| riccati_s calls 0",
        f"wide 2 {INPUTS} {raised} | det_lambda calls {calls} points 400 | split programs 1 "
        "| riccati_s calls 0",
        f"sweep 0 {CLI_INPUTS} exit {code} csv {csv} svg bb poles {' '.join(cli_poles)} "
        f"| det_lambda calls 0 points 0 | split programs 0 | riccati_s calls {riccati[0]}",
        f"wide det_lambda calls {totals[0]} points {totals[1]} | split programs {splits[1]} "
        "| riccati_s calls 1",
        f"sweep det_lambda calls 0 points 0 | split programs 0 | riccati_s calls {riccati[1]}",
    ]) + "\n")
    return str(path)


POLES = [3.08 - 0.0037j, 120.5 - 2.25j]


def test_rounding_moves_pass(tmp_path, capsys):
    old = _write(tmp_path / "old", POLES)
    new = _write(tmp_path / "new", [k * (1 + 4e-16) for k in POLES], csv="cc", totals=(9, 901),
                 cli_poles=("1.5707963267948970,0", "4.7123889803846897,0"), riccati=(5, 9))
    assert near_results.main([old, new]) == 0
    wide, sweep, changed = capsys.readouterr().out.splitlines()
    assert wide.startswith("wide: largest relative pole move 4")
    assert ("det_lambda calls 9 points 900 -> calls 9 points 901, split programs 3 -> 3, "
            "riccati_s calls 1 -> 1" in wide)
    assert sweep.startswith("sweep: largest relative pole move 2.")
    assert "1 CLI calls with changed bytes" in sweep
    assert sweep.endswith("riccati_s calls 44 -> 9")
    assert changed.endswith("riccati_s calls 40 -> 5")


def test_changed_search_counts_are_printed_not_mismatched(tmp_path, capsys):
    old = _write(tmp_path / "old", POLES)
    new = _write(tmp_path / "new", POLES, calls=8, splits=(1, 2))
    assert near_results.main([old, new]) == 0
    wide, _, *changed = capsys.readouterr().out.splitlines()
    assert wide.endswith("split programs 3 -> 2, riccati_s calls 1 -> 1")
    assert changed == [
        f"wide 0 {INPUTS}: det_lambda calls 3 points 300 -> calls 3 points 300, "
        "split programs 2 -> 1, riccati_s calls 1 -> 1",
        f"wide 2 {INPUTS}: det_lambda calls 5 points 400 -> calls 8 points 400, "
        "split programs 1 -> 1, riccati_s calls 0 -> 0"]


def test_each_search_line_ends_with_its_counts(monkeypatch, capsys):
    w = same_results.workloads
    delta, separated = w.Coupling(50.0, 0.0, 0j), w.Coupling(4.0, 1.0, 0j)
    searches = (w.Search(delta, 0, 1.0, 20.0), w.Search(delta, 1, 1.0, 10.0, via_cli=True),
                w.Search(separated, 1, 1.0, 10.0, via_cli=True))
    monkeypatch.setattr(w, "GENERATORS", {"tiny": None})
    monkeypatch.setattr(w, "make", lambda name, seed: w.Workload(name, searches, searches[0]))
    patched = polefinder.det_lambda_balanced, polefinder._resolve, polefinder._boundary
    riccati_s = krein.riccati_s
    assert same_results.main([str(ROOT)]) == 0
    assert (polefinder.det_lambda_balanced, polefinder._resolve, polefinder._boundary) == patched
    assert krein.riccati_s is riccati_s
    *lines, total = capsys.readouterr().out.splitlines()
    found = [re.fullmatch(r"tiny \d (.*\]) (.*) \| det_lambda calls (\d+) points (\d+) "
                          r"\| split programs (\d+) \| riccati_s calls (\d+)", line).groups()
             for line in lines]
    counts = [tuple(map(int, match[2:])) for match in found]
    # only real-axis roots take riccati_s; a window of 6 zeros is split once, one of 2
    # not at all
    assert counts[0][:2] > (0, 0) and counts[0][2:] == (1, 0)
    assert counts[1][2:] == (0, 0)
    assert counts[2] == (0, 0, 0, counts[2][3]) and counts[2][3] > 1
    assert total == "tiny det_lambda calls {} points {} | split programs {} " \
                    "| riccati_s calls {}".format(*map(sum, zip(*counts)))
    # a CLI call's line lists its CSV poles: the embedded eigenvalues, as written
    result = found[2][1]
    assert result.startswith("exit 0 csv ") and " poles " in result
    assert near_results._poles(result) == [
        complex(k) for k in real_axis_roots(GpiParams(4.0, 1.0, 0), Channel(1, 1.0), 10.0)]


@pytest.mark.parametrize("change", [
    dict(poles=[POLES[0] * (1 + 1e-12), POLES[1]]),
    dict(poles=POLES[:1]),
    dict(poles=POLES, raised="BoundaryZero"),
    dict(poles=POLES, code=3),
    dict(poles=POLES, cli_poles=("1.5707963267950966,0", "4.7123889803846897,0")),
    dict(poles=POLES, cli_poles=("1.5707963267948966,0",)),
], ids=["pole-moved", "pole-lost", "exception-class", "exit-code", "cli-pole-moved",
        "cli-pole-lost"])
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


def test_ab_passes_runs_a_checkout_against_itself(monkeypatch):
    # the in-process A/B of two checkouts: both import under names of their own, their
    # results must agree, and the pass times, page faults and det lambda work are only
    # printed
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_passes.py"), str(ROOT),
                           str(ROOT), "--passes", "2"], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "wide-l0: 4 searches, results bitwise equal"
    assert [line.split(":")[0] for line in lines[1:3]] == ["old", "new"]
    # each side's det lambda array calls and points of one pass, as the searches make them
    made, det = [0, 0], polefinder.det_lambda_balanced

    def count(p, ch, k):
        made[0] += 1
        made[1] += k.size
        return det(p, ch, k)

    monkeypatch.setattr(polefinder, "det_lambda_balanced", count)
    for s in same_results.workloads.make("wide-l0", 1).searches:
        c = s.coupling
        find_poles(GpiParams(c.alpha, c.beta, c.gamma), Channel(s.l, s.radius), s.re_max)
    for line in lines[1:3]:
        assert line.endswith(f", det lambda calls {made[0]} points {made[1]} per pass")
    assert re.fullmatch(r"new / old pass time: median \d+\.\d+ over 2 pairs, new faster in \d",
                        lines[3])


def test_ab_passes_runs_the_sweep_searches_find_poles_calls():
    # a sweep search is a CLI call: its find_poles call runs alone, and a separated
    # coupling's, which makes none, is left out; the per-search thread-time minima are
    # summed on each side
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_passes.py"), str(ROOT),
                           str(ROOT), "--workload", "sweep", "--passes", "1"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    found = re.fullmatch(r"sweep: (\d+) searches, results bitwise equal", lines[0])
    assert found and 0 < int(found[1]) < 150
    assert re.fullmatch(r"new / old pass time: median \d+\.\d+ over 1 pairs, new faster in \d",
                        lines[3])
    assert re.fullmatch(r"new / old sum of per-search least thread times: \d+\.\d+", lines[4])


@pytest.mark.parametrize("factor, code", [("(1 + 2e-15)", 0), ("(1 + 1e-12)", 1)],
                         ids=["rounding", "beyond-rounding"])
def test_ab_passes_times_results_that_differ_by_rounding(tmp_path, factor, code):
    # a checkout whose poles move in their last bits is timed, and the largest move is
    # printed; one whose poles move by more than near_results' tolerance is not
    pkg = tmp_path / "src" / "winterres"
    shutil.copytree(ROOT / "src" / "winterres", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source, pole = (pkg / "polefinder.py").read_text(), "range(roots.size), roots.tolist()"
    assert source.count(pole) == 1
    (pkg / "polefinder.py").write_text(
        source.replace(pole, f"range(roots.size), (roots * {factor}).tolist()"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_passes.py"), str(ROOT),
                           str(tmp_path), "--passes", "1"], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == code, done.stderr
    first = done.stdout.splitlines()[0]
    if code:
        assert first == "wide-l0 search 0 differs:"
    else:
        found = re.fullmatch(r"wide-l0: 4 searches, poles within 1e-13 relative, "
                             r"largest move (\S+)", first)
        assert found and 1e-15 < float(found[1]) < 3e-15
