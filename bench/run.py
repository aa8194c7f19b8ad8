#!/usr/bin/env python3
"""Pole-search benchmark of winterres.

    python3 bench/run.py [--workload wide-l0|high-l|sweep|all] [--seed N]
                         [--seconds S] [--trace 0|1]

``--trace 0`` (default) prints the end-to-end metrics, measured with no
instrumentation; ``--trace 1`` wraps the package's public functions and
prints per-layer metrics and the tracing overhead instead.  Either way every
returned pole is checked against the independent reference in ``oracle.py``
and the command exits 1, after printing ``"correct": false``, on a mismatch.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` each workload runs in a process of its own, so its peak
memory and warm caches are its own; the metrics are then prefixed with the
workload name.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the command exits 2 and prints no result.
Temporary files go to ``.bench_out/`` in the same checkout.  See README.md in
this directory for the workloads, the metric definitions and the
repetition scheme.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)

WORKLOADS = ("wide-l0", "high-l", "sweep")
SETUP_PROBES = (3, 9)     # fresh processes per run, fewest and most; setup_s is their median
SETUP_BUDGET_S = 2.0      # probes past the fewest run while they took less than this
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900  # one workload under --workload all

END_TO_END = {
    "setup_s": "s", "poles_per_s": "1/s", "search_ms.p50": "ms",
    "search_ms.tail": "ms", "ok_frac": "frac", "poles_certified": "count",
    "oracle_digits": "digits", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "riccati.calls": "count", "riccati.us_per_call": "us", "riccati.self_s": "s",
    "krein.det_calls": "count", "krein.det_us_per_call": "us", "krein.self_s": "s",
    "krein.det_per_pole": "count", "krein.real_axis_calls": "count",
    "krein.real_axis_s": "s", "polefinder.find_poles_s": "s",
    "polefinder.self_s": "s", "polefinder.winding_det_share": "frac",
    "polefinder.newton_det_per_pole": "count", "polefinder.refine_per_pole": "frac",
    "polefinder.refine_fail_frac": "frac", "polefinder.index_s": "s",
    "asymptotics.predict_calls": "count", "asymptotics.s": "s",
    "report.csv_s": "s", "report.svg_s": "s", "report.bytes": "bytes",
    "cli.self_s": "s", "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package, a failed probe)."""


def load_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "winterres", "__init__.py")):
        raise BenchError(f"no winterres package under {src}")
    sys.path.insert(0, src)
    import winterres
    import winterres.cli
    if not os.path.realpath(winterres.__file__).startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"imported winterres from {winterres.__file__}, not from {src}")
    return winterres, winterres.cli


def measure_setup(search: workloads.Search, out_dir: str) -> tuple[list[float], list[float]]:
    """Cold starts of fresh processes, run one after another.

    Returns the raw seconds and the same times at the reference speed.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT,
           workloads.to_json(search), out_dir]
    raw, scaled = [], []
    fewest, most = SETUP_PROBES
    start = time.perf_counter()
    while len(raw) < fewest or (len(raw) < most
                                and time.perf_counter() - start < SETUP_BUDGET_S):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-800:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["raw_s"])
        scaled.append(probe["setup_s"])
    return raw, scaled


@dataclass
class Pass:
    raw: list[float]         # seconds per search
    scaled: list[float]      # the same at the reference speed
    outcomes: list[workloads.Outcome]


def run_pass(pkg, cli, wl, out_dir, tracer=None, pass_no=0) -> Pass:
    """One closed-loop pass over the workload, with the machine's speed traced."""
    spans, outcomes = [], []
    with workloads.SpeedTrace() as speed:
        for i, s in enumerate(wl.searches):
            if tracer is not None:
                tracer.search_id = pass_no * len(wl.searches) + i
            t0, t1, out = workloads.run(pkg, cli, s, out_dir, i)
            spans.append((t0, t1))
            outcomes.append(out)
    return Pass([t1 - t0 for t0, t1 in spans],
                 [speed.scaled(t0, t1) for t0, t1 in spans], outcomes)


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (inclusive), pct in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_rank(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it.

    Below 20 samples no such percentile lies above the median, and the tail
    is the slowest sample instead.
    """
    return math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 20 else 100


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def name_cli_failure(pkg, cli, s, out_dir) -> tuple[str, bool]:
    """The exception behind a CLI call that exited non-zero, and whether it is typed.

    Replays the call under the tracer and takes the exception that left a
    wrapped function straight into ``cli.main``, which turned it into the
    exit code.
    """
    from tracer import Tracer
    with Tracer() as tr:
        _, _, out = workloads.run_cli(cli, s, out_dir, "replay")
    mains = {span[0] for span in tr.spans if span is not None and span[1] == "cli.main"}
    for _, parent, error in reversed(tr.escapes):
        if parent in mains:
            return error.__name__, issubclass(error, pkg.WinterresError)
    if out.ok:
        return "not reproduced", False
    # raised by code the tracer does not wrap; exit 3 means a WinterresError
    return f"unnamed ({out.error})", out.exit_code == cli.SOLVER_EXIT


def tally_failures(pkg, cli, wl, outcomes, out_dir):
    """Typed failures by class name, untyped ones, capped ones, CLI exit codes."""
    typed, untyped, capped, exits = Counter(), Counter(), Counter(), Counter()
    for s, out in zip(wl.searches, outcomes):
        if s.via_cli:
            exits[out.exit_code if out.exit_code is not None else "raised"] += 1
        if out.ok:
            continue
        if out.capped:
            capped[out.error] += 1
            continue
        if out.exit_code is not None:
            name, is_typed = name_cli_failure(pkg, cli, s, out_dir)
        else:
            name, is_typed = out.error, out.typed
        (typed if is_typed else untyped)[name] += 1
    return typed, untyped, capped, exits


def peak_rss_mb(pkg, cli, wl, out_dir) -> tuple[float, list[bool]]:
    """Largest peak memory over the searches that stay under the cap, one fork each.

    Also returns which searches were capped, to check against the passes.
    """
    peaks = []
    for i, s in enumerate(wl.searches):
        try:
            peaks.append(workloads.peak_rss_mb_forked(pkg, cli, s, out_dir, i))
        except RuntimeError as exc:
            raise BenchError(str(exc)) from exc
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max((mb for mb, capped in peaks if not capped), default=own), [c for _, c in peaks]


def check_against_oracle(wl, outcomes):
    import oracle
    total = oracle.CheckResult()
    for s, out in zip(wl.searches, outcomes):
        if out.ok:
            total.merge(oracle.check_poles(s.coupling, s.l, s.radius, s.re_max,
                                           list(out.poles), embedded=out.embedded))
    return total


def layer_metrics(tr, outcomes, n_passes: int, overhead: float) -> dict[str, float]:
    det = "krein.det_lambda_balanced"
    det_calls = tr.calls(det)
    poles = tr.items("polefinder.find_poles")
    refines = tr.calls("polefinder.refine")
    ric = ("riccati.riccati_s", "riccati.riccati_xi")
    ric_calls = sum(tr.calls(n) for n in ric)
    per_pass = {
        "riccati.calls": ric_calls,
        "riccati.self_s": sum(tr.self_s(n) for n in ric),
        "krein.det_calls": det_calls,
        "krein.self_s": sum(tr.self_s(n) for n in (det, "krein.det_lambda", "krein.phi_boundary")),
        "krein.real_axis_calls": tr.calls("krein.real_axis_roots"),
        "krein.real_axis_s": tr.inclusive_s("krein.real_axis_roots"),
        "polefinder.find_poles_s": tr.inclusive_s("polefinder.find_poles"),
        "polefinder.self_s": tr.self_s("polefinder.find_poles"),
        "polefinder.index_s": tr.inclusive_s("polefinder.index_poles"),
        "asymptotics.predict_calls": tr.calls("asymptotics.predict"),
        "asymptotics.s": tr.self_s("asymptotics.compare") + tr.self_s("asymptotics.predict"),
        "report.csv_s": tr.inclusive_s("report.write_csv"),
        "report.svg_s": tr.inclusive_s("report.write_pole_svg"),
        "cli.self_s": tr.self_s("cli.main"),
    }
    m = {name: value / n_passes for name, value in per_pass.items()}
    m.update({
        "report.bytes": sum(out.bytes_written for out in outcomes),   # one pass
        "riccati.us_per_call": 1e6 * ratio(sum(tr.inclusive_s(n) for n in ric), ric_calls),
        "krein.det_us_per_call": 1e6 * ratio(tr.inclusive_s(det), det_calls),
        "krein.det_per_pole": ratio(det_calls, poles),
        "polefinder.winding_det_share": ratio(tr.calls(det, "polefinder.find_poles"), det_calls),
        "polefinder.newton_det_per_pole": ratio(tr.calls(det, "polefinder.refine"), poles),
        "polefinder.refine_per_pole": ratio(poles, refines),
        "polefinder.refine_fail_frac": ratio(tr.raised("polefinder.refine"), refines),
        "trace.overhead_frac": overhead,
    })
    return {name: m[name] for name in PER_LAYER}


def source_size(pkg) -> tuple[int, int]:
    """Line count of the package sources and the size of its ``__all__``."""
    lines = 0
    for path in glob.glob(os.path.join(os.path.dirname(pkg.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return lines, len(pkg.__all__)


def run_workload(pkg, cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.make(name, seed)
    n = len(wl.searches)
    os.makedirs(OUT, exist_ok=True)
    out_dir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(out_dir)
    passes: list[Pass] = []
    try:
        setup = None if trace else measure_setup(wl.first, out_dir)
        workloads.run(pkg, cli, wl.first, out_dir, n)   # warm-up, not timed
        if not trace:
            peak_mb, capped_in_probe = peak_rss_mb(pkg, cli, wl, out_dir)
        start = time.perf_counter()
        if trace:
            from tracer import Tracer
            untraced = run_pass(pkg, cli, wl, out_dir)
            with Tracer() as tr:
                while not passes or time.perf_counter() - start < seconds:
                    passes.append(run_pass(pkg, cli, wl, out_dir, tr, len(passes)))
            base = untraced.outcomes
        else:
            while not passes or time.perf_counter() - start < seconds:
                passes.append(run_pass(pkg, cli, wl, out_dir))
            base = passes[0].outcomes
        deterministic = all(p.outcomes == base for p in passes) and (
            trace or capped_in_probe == [out.capped for out in base])
        typed, untyped, capped, exits = tally_failures(pkg, cli, wl, base, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(not out.ok for out in base)
    certified = sum(len(out.poles) for out in base if out.ok)
    import oracle
    mismatch = None
    try:
        checked = check_against_oracle(wl, base)
    except oracle.OracleMismatch as exc:
        mismatch, checked = str(exc), oracle.CheckResult()

    print(f"workload {name}  seed {seed}  {n} searches per pass, {len(passes)} "
          f"{'traced ' if trace else ''}passes  (closed loop, 1 process, no extra threads)")
    print(f"  failed searches: {failed}/{n} per pass  typed {dict(typed)}  "
          f"untyped {dict(untyped)}  capped {dict(capped)}"
          + (f"  exit codes {dict(exits)}" if exits else ""))
    print(f"  oracle: {checked.poles} poles ({checked.by_closed_form} closed form, "
          f"{checked.by_polish} mpmath-polished), max |k - k_ref| {checked.max_err:.3g}, "
          f"max relative {checked.max_rel_err:.3g}" + (f"  MISMATCH: {mismatch}" if mismatch else ""))
    if not deterministic:
        print("  MISMATCH: passes returned different results for the same inputs")
    lines, names = source_size(pkg)
    print(f"  static: src/ {lines} lines, __all__ {names} names")

    if trace:
        traced_s = statistics.median(sum(p.scaled) for p in passes)
        overhead = traced_s / sum(untraced.scaled) - 1.0
        span_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
        tr.write_spans(span_path)
        print(f"  tracing: untraced pass {sum(untraced.scaled):.3f} s, traced pass median "
              f"{traced_s:.3f} s (reference speed); {len(tr.spans)} spans in "
              f"{os.path.relpath(span_path, ROOT)}"
              + (f"; not found: {tr.missing}" if tr.missing else ""))
        metrics = layer_metrics(tr, base, len(passes), overhead)
        units = PER_LAYER
    else:
        setup_raw, setup_scaled = setup
        per_search = [statistics.median(p.scaled[i] for p in passes) for i in range(n)]
        raw_search = [statistics.median(p.raw[i] for p in passes) for i in range(n)]
        rank = tail_rank(n)
        # a capped search runs until the cap stops it: its time measures the cap
        counted = [i for i, out in enumerate(base) if not out.capped]
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "poles_per_s": statistics.median(certified / sum(p.scaled[i] for i in counted)
                                             for p in passes),
            "search_ms.p50": 1e3 * statistics.median(per_search),
            "search_ms.tail": 1e3 * percentile(per_search, rank),
            "ok_frac": (n - failed) / n,
            "poles_certified": certified,
            # the error is never 0 over a pole list; the floor only guards log10
            "oracle_digits": -math.log10(max(checked.max_rel_err, 1e-18)),
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END
        print(f"  setup_s over {len(setup_raw)} fresh processes, raw: "
              + ", ".join(f"{t:.3f}" for t in setup_raw))
        print(f"  search_ms: median over {len(passes)} passes of each of {n} searches; "
              f"tail = p{rank} of those {n}; raw wall-clock p50 "
              f"{1e3 * statistics.median(raw_search):.3f} ms, "
              f"p{rank} {1e3 * percentile(raw_search, rank):.3f} ms")
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    return {"correct": deterministic and mismatch is None,
            "attempted": n * len(passes), "failed": failed * len(passes),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Each workload in a process of its own; one JSON line with prefixed metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    final = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": {f"{w}/{k}": v for w, r in results.items()
                         for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measure passes until this much time has gone")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    try:
        pkg, cli = load_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        final = run_workload(pkg, cli, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
