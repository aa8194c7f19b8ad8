#!/usr/bin/env python3
"""Print what every seed-1 bench search returns, for comparing two checkouts.

    python3 tools/same_results.py CHECKOUT

imports ``winterres`` from ``CHECKOUT/src`` and runs the searches of the
three bench workloads (``bench/workloads.make(name, 1)`` of this checkout)
in order.  It prints one line per search: a ``find_poles`` search gives each
pole's k and residual as float hex, or the exception class it raised; a
``winterres poles`` call gives its exit code, the sha256 of the CSV and SVG
files it wrote and, after ``poles``, the ``re_k,im_k`` columns of its CSV
rows as written.  Each search's line ends with ``| det_lambda calls C points
P | split programs S | riccati_s calls N``: the det lambda array calls and
points the pole finder made in it, its split programs (the counts of its
cells' strips, one ``_resolve`` call each beside the window's) and the calls
of ``riccati_s`` that ``krein`` made, those of real-axis roots alone.
Last comes one line per workload with their totals.  Two checkouts give the
same results when the outputs are equal.  Each search runs under the
bench's memory cap, so a runaway ends as a MemoryError line:

    diff <(python3 tools/same_results.py ../parent) <(python3 tools/same_results.py .)
"""

from __future__ import annotations

import contextlib
import csv
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


def _csv_poles(path: str) -> str:
    if not os.path.exists(path):
        return ""
    with open(path, encoding="utf-8", newline="") as fh:
        return " ".join(f"{row['re_k']},{row['im_k']}" for row in csv.DictReader(fh))


def _search(pkg, cli, s: workloads.Search, out_dir: str) -> str:
    """One search's poles, or its exit code, file hashes and CSV poles, or its
    exception class."""
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
                return (f"exit {code} csv {_digest(paths[0])} svg {_digest(paths[1])} "
                        f"poles {_csv_poles(paths[0])}").rstrip()
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
    import winterres.krein as kr
    import winterres.polefinder as pf

    det, riccati_s, counts = pf.det_lambda_balanced, kr.riccati_s, [0, 0, 0, 0]
    resolve, boundary = pf._resolve, pf._boundary

    def counted_det(p, ch, k):
        counts[0] += 1
        counts[1] += np.size(k)
        return det(p, ch, k)

    def counted_resolve(*args):
        counts[2] += 1
        return resolve(*args)

    def counted_boundary(*args):   # its one _resolve call is not a split
        counts[2] -= 1
        return boundary(*args)

    def counted_riccati_s(l, z):
        counts[3] += 1
        return riccati_s(l, z)

    def text(c):
        return (f"det_lambda calls {c[0]} points {c[1]} | split programs {c[2]} "
                f"| riccati_s calls {c[3]}")

    totals = []
    with tempfile.TemporaryDirectory() as out_dir, \
            mock.patch.object(pf, "det_lambda_balanced", counted_det), \
            mock.patch.object(pf, "_resolve", counted_resolve), \
            mock.patch.object(pf, "_boundary", counted_boundary), \
            mock.patch.object(kr, "riccati_s", counted_riccati_s):
        for name in workloads.GENERATORS:
            total = [0, 0, 0, 0]
            for i, s in enumerate(workloads.make(name, 1).searches):
                counts[:] = [0, 0, 0, 0]
                result = _search(winterres, winterres.cli, s, out_dir)
                print(f"{name} {i} {workloads.to_json(s)} {result} | {text(counts)}")
                total = [t + c for t, c in zip(total, counts)]
            totals.append(f"{name} {text(total)}")
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
