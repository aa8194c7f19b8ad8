#!/usr/bin/env python3
"""Print what every seed-1 bench search returns, for comparing two checkouts.

    python3 tools/same_results.py CHECKOUT

imports ``winterres`` from ``CHECKOUT/src`` and runs the searches of the
three bench workloads (``bench/workloads.make(name, 1)`` of this checkout)
in order.  It prints one line per search: a ``find_poles`` search gives each
pole's k and residual as float hex, or the exception class it raised; a
``winterres poles`` call gives its exit code and the sha256 of the CSV and
SVG files it wrote.  Each search's line ends with ``| det_lambda calls C
points P``, the det lambda array calls and points the pole finder made in
it, and last comes one line per workload with their totals.  Two checkouts
give the same results when the outputs are equal.  Each search runs under
the bench's memory cap, so a runaway ends as a MemoryError line:

    diff <(python3 tools/same_results.py ../parent) <(python3 tools/same_results.py .)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (needs bench/ on the path)


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _search(pkg, cli, s: workloads.Search, out_dir: str) -> str:
    """One search's poles, or its exit code and file hashes, or its exception class."""
    paths = [os.path.join(out_dir, name) for name in ("poles.csv", "poles.svg")]
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    c, sink = s.coupling, io.StringIO()
    try:
        with workloads.memory_cap(), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if s.via_cli:
                code = cli.main(s.cli_argv(*paths))
                return f"exit {code} csv {_digest(paths[0])} svg {_digest(paths[1])}"
            poles = pkg.find_poles(pkg.GpiParams(c.alpha, c.beta, c.gamma),
                                   pkg.Channel(s.l, s.radius), s.re_max)
    except Exception as exc:  # noqa: BLE001 -- the class is the result
        return type(exc).__name__
    return " ".join(f"{q.k.real.hex()},{q.k.imag.hex()},{q.residual.hex()}" for q in poles)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[0]), "src"))
    import winterres
    import winterres.cli
    import winterres.polefinder as pf

    det, counts = pf.det_lambda_balanced, [0, 0]

    def counted(p, ch, k):
        counts[0] += 1
        counts[1] += np.size(k)
        return det(p, ch, k)

    totals = []
    with tempfile.TemporaryDirectory() as out_dir, \
            mock.patch.object(pf, "det_lambda_balanced", counted):
        for name in workloads.GENERATORS:
            calls = points = 0
            for i, s in enumerate(workloads.make(name, 1).searches):
                counts[:] = [0, 0]
                result = _search(winterres, winterres.cli, s, out_dir)
                print(f"{name} {i} {workloads.to_json(s)} {result} "
                      f"| det_lambda calls {counts[0]} points {counts[1]}")
                calls, points = calls + counts[0], points + counts[1]
            totals.append(f"{name} det_lambda calls {calls} points {points}")
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:   # the reader stopped early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # no flush error at exit
        status = 141   # 128 + SIGPIPE, as a shell reports a writer the pipe ended
    sys.exit(status)
