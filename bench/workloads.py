"""Seeded workloads of the pole-search benchmark and the code that runs one search.

A workload is a fixed list of searches whose order the run seed sets, so two
runs with one seed send the program identical inputs; the program only ever
sees the generated couplings, channels and windows.  Every workload is a
closed loop in one process: each search starts when the previous one returns.

This module does not import ``winterres`` itself: the caller passes the
imported package in, so the set-up probe can time the import.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import os
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Coupling:
    """Interaction data (alpha, beta, gamma) of one search."""

    alpha: float
    beta: float
    gamma: complex


@dataclass(frozen=True)
class Search:
    """One search: ``find_poles`` through the API, or ``winterres poles`` in-process."""

    coupling: Coupling
    l: int
    radius: float
    re_max: float
    via_cli: bool = False

    def cli_argv(self, csv_path: str, svg_path: str) -> list[str]:
        g = self.coupling.gamma
        gamma = f"{g.real!r}{'+' if g.imag >= 0 else '-'}{abs(g.imag)!r}i"
        return ["poles", f"--alpha={self.coupling.alpha!r}", f"--beta={self.coupling.beta!r}",
                f"--gamma={gamma}", f"--l={self.l}", f"--radius={self.radius!r}",
                f"--re-max={self.re_max!r}", "--csv", csv_path, "--svg", svg_path]


@dataclass(frozen=True)
class Workload:
    name: str
    searches: tuple[Search, ...]   # in run order
    first: Search                  # the search that set-up time includes


@dataclass(frozen=True)
class Outcome:
    """What one search returned; equal outcomes mean bitwise-equal results."""

    poles: tuple[complex, ...] = ()   # certified poles, or the CSV rows of a CLI call
    embedded: bool = False            # rows are embedded eigenvalues (separated coupling)
    error: str | None = None          # exception class name, or "exit <code>" for the CLI
    typed: bool = True                # the exception is a WinterresError
    capped: bool = False              # a MemoryError under the address-space cap
    exit_code: int | None = None      # CLI calls only
    csv_text: str = ""
    bytes_written: int = 0            # CSV + SVG size of a CLI call

    @property
    def ok(self) -> bool:
        return self.error is None


# The four couplings of the figures: delta alpha=50, intermediate gamma=1+1i,
# delta-prime beta=0.1 and beta=0.01.
FIGURE_COUPLINGS = (Coupling(50.0, 0.0, 0j), Coupling(0.0, 0.0, 1 + 1j),
                    Coupling(0.0, 0.1, 0j), Coupling(0.0, 0.01, 0j))

SWEEP_CALLS = 150
SWEEP_CLASSES = ("delta", "intermediate", "delta-prime", "separated")
SWEEP_L = (0, 1, 2)
SWEEP_RADII = (0.5, 1.0, 2.0)


def _wide_l0(rng: random.Random) -> list[Search]:
    return [Search(c, 0, 1.0, 2000.0) for c in FIGURE_COUPLINGS]


def _high_l(rng: random.Random) -> list[Search]:
    return [Search(c, l, 1.0, 400.0) for l in (1, 5, 20) for c in FIGURE_COUPLINGS]


def _draw_coupling(rng: random.Random, cls: str) -> Coupling:
    sign = rng.choice((-1.0, 1.0))
    if cls == "delta":
        # |alpha| >= 5 keeps alpha' R away from -1, where two l = 0 poles meet at k = 0
        return Coupling(sign * rng.uniform(5.0, 60.0), 0.0, complex(0.0, rng.uniform(-2.0, 2.0)))
    if cls == "intermediate":
        return Coupling(0.0, 0.0, complex(sign * rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)))
    if cls == "delta-prime":
        # Im gamma != 0 keeps the coupling off the separated locus
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        return Coupling(rng.uniform(-5.0, 5.0), sign * 10.0 ** rng.uniform(-2.0, 0.0),
                        complex(rng.uniform(-1.0, 1.0), im))
    # separated: alpha beta + |gamma|^2 = 4 with real gamma
    g = rng.uniform(-1.5, 1.5)
    beta = sign * rng.uniform(0.2, 2.0)
    return Coupling((4.0 - g * g) / beta, beta, complex(g, 0.0))


def _sweep(rng: random.Random) -> list[Search]:
    # Stratified: every (class, l, R) cell appears SWEEP_CALLS // 36 times and
    # the remainder goes to cells drawn from rng, so the mix of classes is
    # fixed; make() draws with PANEL_SEED, so the run seed sets only the order.
    cells = [(cls, l, r) for cls in SWEEP_CLASSES for l in SWEEP_L for r in SWEEP_RADII]
    plan = cells * (SWEEP_CALLS // len(cells)) + rng.sample(cells, SWEEP_CALLS % len(cells))
    return [Search(_draw_coupling(rng, cls), l, r, 40.0 / r, via_cli=True)
            for cls, l, r in plan]


GENERATORS = {"wide-l0": _wide_l0, "high-l": _high_l, "sweep": _sweep}


PANEL_SEED = 1


def make(name: str, seed: int) -> Workload:
    """The workload's searches for this seed, in run order.

    The searches themselves come from the fixed PANEL_SEED and the run seed
    shuffles their order.  Drawing the sweep's couplings from the run seed
    instead moved ok_frac and poles_certified by ~5% and peak_rss_mb by up to
    2x between seeds (one report._ticks runaway in 3 of 10 seeds), which
    would hide a change of the program behind a change of the inputs.
    """
    canonical = GENERATORS[name](random.Random(f"{name}:{PANEL_SEED}"))
    order = list(canonical)
    random.Random(f"{name}:{seed}").shuffle(order)
    return Workload(name, tuple(order), canonical[0])


# Reference speed.  The machine this benchmark was built on changes speed by
# up to 2x within seconds (other tenants), and every search time follows.  A
# fixed kernel written like the package's hot path (frozen dataclasses,
# small calls, cmath) runs from SIGALRM every TICK_S while a pass runs;
# each search is reported as it would read at the speed where one kernel
# evaluation takes CAL_NOMINAL_S.  The kernel runs no package code, so a
# faster program does not make it faster.
CAL_EVALS = 150
CAL_NOMINAL_S = 3e-6
TICK_S = 0.03
WINDOW_S = 0.25    # ticks this close to a search also describe its speed


@dataclass(frozen=True)
class _Pair:
    value: complex
    derivative: complex


def _kernel(k: complex) -> float:
    """|e^{-ik} (-1 - 50 Phi1(k))| at l = 0, R = 1, spelled like the package."""
    s = _Pair(cmath.sin(k), cmath.cos(k))
    e = cmath.exp(1j * k)
    x = _Pair(-1j * e, e)
    phi1 = (1j / k) * s.value * x.value
    return abs(cmath.exp(-1j * k) * (-1.0 - 50.0 * phi1))


def calibrate() -> float:
    """Seconds per kernel evaluation now."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_EVALS):
        acc += _kernel(complex(1.0 + 1e-3 * i, -0.5))
    return (time.perf_counter() - t0) / CAL_EVALS


class SpeedTrace:
    """Calibration samples taken from SIGALRM while the ``with`` block runs.

    Signals run in the main thread between bytecodes, so no thread is
    started; the time the samples take is subtracted from the searches.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []   # start, s/eval, duration
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        per_eval = calibrate()
        self.samples.append((t0, per_eval, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedTrace":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds in [t0, t1], minus ticks, at the reference speed."""
        inside = sum(d for t, _, d in self.samples if t0 <= t < t1)
        near = [c for t, c, _ in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:   # ticks wait while one C call runs; use the whole trace
            near = [c for _, c, _ in self.samples]
        return (t1 - t0 - inside) * CAL_NOMINAL_S * len(near) / sum(near)


def to_json(s: Search) -> str:
    c = s.coupling
    return json.dumps([c.alpha, c.beta, c.gamma.real, c.gamma.imag,
                       s.l, s.radius, s.re_max, s.via_cli])


def from_json(text: str) -> Search:
    alpha, beta, g_re, g_im, l, radius, re_max, via_cli = json.loads(text)
    return Search(Coupling(alpha, beta, complex(g_re, g_im)), l, radius, re_max, via_cli)


# Address space one search may add.  The cap is a safety net: it exists so
# that a runaway allocation (report._ticks on a one-ulp axis span appends to a
# list without end, at ~100 MB/s) ends as a MemoryError instead of exhausting
# the machine's memory.  It is set far above what a search needs: the largest
# search here (delta, l=0, re_max=2000) adds a few MB.  A search that hits it
# is recorded as "capped", apart from typed and untyped failures; if one that
# used to succeed shows up as capped, the change needs more memory in one
# search than this, and the margin has to be raised.
MEMORY_MARGIN = 128 * 2 ** 20


@contextlib.contextmanager
def memory_cap():
    """Cap the address space at its current size plus MEMORY_MARGIN."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:   # no procfs: run uncapped
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + MEMORY_MARGIN
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _timed(call):
    """Run call() under the memory cap: (start, end, result, exception class or None).

    Only the class leaves this function, so the traceback (and whatever a
    runaway call allocated) is freed before the caller goes on.
    """
    with memory_cap():
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 -- every failure is recorded
            return t0, time.perf_counter(), None, type(exc)
        return t0, time.perf_counter(), result, None


def _failure(pkg, error: type) -> Outcome:
    return Outcome(error=error.__name__, typed=issubclass(error, pkg.WinterresError),
                   capped=issubclass(error, MemoryError))


def run_api(pkg, s: Search) -> tuple[float, float, Outcome]:
    """Time one ``find_poles`` call; the result is consumed inside the timing."""
    c = s.coupling
    p = pkg.GpiParams(c.alpha, c.beta, c.gamma)
    ch = pkg.Channel(s.l, s.radius)
    t0, t1, poles, error = _timed(lambda: tuple(q.k for q in pkg.find_poles(p, ch, s.re_max)))
    if error is not None:
        return t0, t1, _failure(pkg, error)
    return t0, t1, Outcome(poles=poles)


def read_rows(text: str) -> tuple[tuple[complex, ...], bool]:
    """Pole momenta of a ``winterres poles`` CSV, and whether they are embedded."""
    rows = list(csv.DictReader(io.StringIO(text)))
    poles = tuple(complex(float(r["re_k"]), float(r["im_k"])) for r in rows)
    return poles, any(r["embedded"] == "true" for r in rows)


def run_cli(cli, s: Search, out_dir: str, idx: int) -> tuple[float, float, Outcome]:
    """Time one in-process ``winterres poles ... --csv --svg`` call."""
    csv_path = os.path.join(out_dir, f"{idx}.csv")
    svg_path = os.path.join(out_dir, f"{idx}.svg")
    for path in (csv_path, svg_path):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    argv = s.cli_argv(csv_path, svg_path)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0, t1, code, error = _timed(lambda: cli.main(argv))
    if error is not None:   # cli.main turns every WinterresError into exit code 3
        return t0, t1, _failure(cli, error)
    if code != 0:
        return t0, t1, Outcome(error=f"exit {code}", exit_code=code)
    with open(csv_path, encoding="utf-8") as fh:
        text = fh.read()
    poles, embedded = read_rows(text)
    size = os.path.getsize(csv_path) + os.path.getsize(svg_path)
    return t0, t1, Outcome(poles=poles, embedded=embedded, exit_code=0,
                           csv_text=text, bytes_written=size)


def run(pkg, cli, s: Search, out_dir: str, idx: int) -> tuple[float, float, Outcome]:
    """Run one search: its start and end on the perf_counter clock, and its outcome."""
    if s.via_cli:
        return run_cli(cli, s, out_dir, idx)
    return run_api(pkg, s)


FORK_TIMEOUT_S = 120


def peak_rss_mb_forked(pkg, cli, s: Search, out_dir: str, idx: int) -> tuple[float, bool]:
    """Run one search in a fork of this process: its peak resident memory and whether it was capped.

    The child starts with this process's memory, so the peak is what the
    process would reach running this search, whatever other searches
    (a capped runaway among them) did before.  The peak comes from the
    child's resource usage as the parent reaps it.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:   # child: never return into the caller's code
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(FORK_TIMEOUT_S)   # ends a child that hangs
            code = 2 if run(pkg, cli, s, out_dir, idx)[2].capped else 0
        finally:
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) not in (0, 2):
        raise RuntimeError(f"memory probe of search {idx} ended with status {status}")
    return usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status) == 2
