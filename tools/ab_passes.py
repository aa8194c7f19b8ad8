#!/usr/bin/env python3
"""Time two checkouts' ``find_poles`` against each other in one process.

    python3 tools/ab_passes.py OLD NEW [--workload wide-l0|high-l|sweep] [--passes N]

imports ``OLD/src/winterres`` and ``NEW/src/winterres`` under distinct
module names and runs the ``find_poles`` call of each search of a bench
workload (``bench/workloads.make(name, 1)`` of this checkout).  A sweep
search is a ``winterres poles`` call; its ``find_poles`` call is run
alone, and one of a separated coupling, which makes none, is left out.
It first checks that both return the same results up to rounding, by
``tools/near_results.py``'s rule: the same exception class a search
raised, or as many poles, each within its REL_TOL relative of its old
place.  It says whether the results (each pole's k and residual) are
bitwise equal, or else prints the largest move; that check runs with each
side's ``polefinder.det_lambda_balanced`` wrapped, to count the det lambda
array calls and points of one pass.  It then runs N passes of the whole
workload on each side, unwrapped, alternating which side goes first, and
prints each side's median pass time with its quartiles, the minor page
faults (``getrusage`` ru_minflt) per pass and its det lambda calls and
points per pass, then the median of the per-pair ratios new / old.  Both
sides share the process, its heap and the machine's speed at the moment,
so the ratio is steadier than two benchmark processes are.  Last comes
the ratio new / old of the sums, over the searches, of each search's least
thread time over the passes: a pass's wall time also takes in what else
runs on the machine, and on a workload of many short searches that read as
a speed-up of one side in an A/A run.  It reports and gates nothing; it
exits 1 when the results differ otherwise.

    python3 tools/ab_passes.py ../parent . --passes 30
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import near_results  # noqa: E402  (beside this script)
import workloads  # noqa: E402  (needs bench/ on the path)

WORKLOADS = ("wide-l0", "high-l", "sweep")


def load(checkout: str, name: str):
    """The package in ``checkout/src/winterres``, imported as ``name``."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "winterres")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # its relative imports resolve under this name
    spec.loader.exec_module(module)
    return module


def calls(pkg, searches) -> list[tuple]:
    """The ``find_poles`` arguments of each search, in ``pkg``'s types, but for a CLI
    call of a separated coupling, which finds embedded eigenvalues instead."""
    out = []
    for s in searches:
        c = s.coupling
        p = pkg.GpiParams(c.alpha, c.beta, c.gamma)
        if not (s.via_cli and pkg.is_separated(p)):
            out.append((p, pkg.Channel(s.l, s.radius), s.re_max))
    return out


def results(pkg, args: list[tuple]) -> tuple[list[str], list[float]]:
    """Each call's poles as float hex, or the class of the exception it raised, and each
    call's thread time."""
    out, seconds = [], []
    for a in args:
        t0 = time.thread_time()
        try:
            poles = pkg.find_poles(*a)
        except Exception as exc:  # noqa: BLE001 -- the class is the result
            out.append(type(exc).__name__)
        else:
            out.append(" ".join(f"{q.k.real.hex()},{q.k.imag.hex()},{q.residual.hex()}"
                                for q in poles))
        seconds.append(time.thread_time() - t0)
    return out, seconds


def counted(pkg, args) -> tuple[list[str], tuple[int, int]]:
    """Each call's result as ``results`` gives it, and the det lambda array calls and
    points of the pass, counted by wrapping ``pkg``'s ``polefinder.det_lambda_balanced``."""
    made, det = [0, 0], pkg.polefinder.det_lambda_balanced

    def count(p, ch, k):
        made[0] += 1
        made[1] += k.size
        return det(p, ch, k)

    pkg.polefinder.det_lambda_balanced = count
    try:
        return results(pkg, args)[0], (made[0], made[1])
    finally:
        pkg.polefinder.det_lambda_balanced = det


def one_pass(pkg, args) -> tuple[float, int, list[float]]:
    """Seconds and minor page faults of one run of every call, and each call's thread time."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    _, seconds = results(pkg, args)
    t1 = time.perf_counter()
    return t1 - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, seconds


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.2f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.2f} (quartiles {q1:.2f}, {q3:.2f})"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", choices=WORKLOADS, default="wide-l0")
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be 1 or more")
    searches = workloads.make(args.workload, 1).searches
    old, new = load(args.old, "winterres_old"), load(args.new, "winterres_new")
    pkgs = {"old": (old, calls(old, searches)), "new": (new, calls(new, searches))}
    checked = {side: counted(*pkgs[side]) for side in ("old", "new")}
    worst, same = 0.0, True
    for i, (a, b) in enumerate(zip(*(checked[side][0] for side in ("old", "new")))):
        try:
            move = near_results.pole_move(a, b)
        except ValueError:
            move = math.inf
        if move > near_results.REL_TOL:
            print(f"{args.workload} search {i} differs:\n  old {a[:200]}\n  new {b[:200]}")
            return 1
        worst, same = max(worst, move), same and a == b
    print(f"{args.workload}: {len(pkgs['new'][1])} searches, " + (
        "results bitwise equal" if same else
        f"poles within {near_results.REL_TOL:g} relative, largest move {worst:.3g}"))
    times, faults = {"old": [], "new": []}, {"old": [], "new": []}
    least = {"old": [], "new": []}   # each search's least thread time so far
    for i in range(args.passes):   # alternate which side goes first
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            t, f, seconds = one_pass(*pkgs[side])
            times[side].append(1e3 * t)
            faults[side].append(f)
            least[side] = list(map(min, least[side], seconds)) if i else seconds
    for side in ("old", "new"):
        print(f"{side}: pass ms {_quartiles(times[side])}, "
              f"minor faults per pass {statistics.median(faults[side]):.0f}, "
              "det lambda calls {} points {} per pass".format(*checked[side][1]))
    ratios = [b / a for a, b in zip(times["old"], times["new"])]
    print(f"new / old pass time: median {statistics.median(ratios):.3f} over {args.passes} "
          f"pairs, new faster in {sum(r < 1.0 for r in ratios)}")
    print(f"new / old sum of per-search least thread times: "
          f"{sum(least['new']) / sum(least['old']):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
