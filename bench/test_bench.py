"""Tests of the benchmark itself: its reference, its gate and its tracer.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import importlib
import os
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import winterres  # noqa: E402
import winterres.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def delta_poles():
    p = winterres.GpiParams(50.0, 0.0, 0j)
    return [q.k for q in winterres.find_poles(p, winterres.Channel(0, 1.0), 400.0)]


def test_oracle_reproduces_find_poles_delta_l0(delta_poles):
    res = oracle.check_poles(workloads.Coupling(50.0, 0.0, 0j), 0, 1.0, 400.0, delta_poles)
    assert res.by_closed_form == len(delta_poles) == 127
    assert res.max_err < oracle.SAME_POLE_TOL


def test_perturbed_pole_trips_gate(delta_poles):
    c = workloads.Coupling(50.0, 0.0, 0j)
    moved = list(delta_poles)
    moved[60] += 1e-9
    with pytest.raises(oracle.OracleMismatch, match="from the reference"):
        oracle.check_poles(c, 0, 1.0, 400.0, moved)
    with pytest.raises(oracle.OracleMismatch, match="closed form has"):
        oracle.check_poles(c, 0, 1.0, 400.0, delta_poles[:-1])


def test_perturbed_polished_pole_trips_gate():
    p = winterres.GpiParams(0.0, 0.1, 0j)
    poles = [q.k for q in winterres.find_poles(p, winterres.Channel(5, 1.0), 40.0)]
    c = workloads.Coupling(0.0, 0.1, 0j)
    assert oracle.check_poles(c, 5, 1.0, 40.0, poles).by_polish == len(poles)
    poles[-1] -= 1e-9j
    with pytest.raises(oracle.OracleMismatch):
        oracle.check_poles(c, 5, 1.0, 40.0, poles)


def test_failing_gate_makes_the_run_incorrect(monkeypatch, capsys):
    real = workloads.run_api

    def shifted(pkg, s):
        t0, t1, out = real(pkg, s)
        return t0, t1, workloads.Outcome(poles=tuple(k + 1e-9 for k in out.poles))

    monkeypatch.setattr(workloads, "run_api", shifted)
    monkeypatch.setitem(workloads.GENERATORS, "wide-l0", lambda rng: [
        workloads.Search(workloads.Coupling(50.0, 0.0, 0j), 0, 1.0, 40.0)])
    monkeypatch.setattr(run, "SETUP_PROBES", (1, 1))
    assert run.main(["--workload", "wide-l0", "--seconds", "0"]) == 1
    assert '"correct": false' in capsys.readouterr().out


@pytest.mark.parametrize("l", [0, 3, 20])
def test_reference_riccati_matches_mpmath_bessel(l):
    for z in (mp.mpc(0.7, -0.3), mp.mpc(25.0, -4.0)):
        with mp.workdps(oracle.working_dps(l, abs(complex(z)))):
            s, ds, x, dx = oracle.riccati_pair(l, z)
            root = mp.sqrt(mp.pi * z / 2)
            assert abs(s - root * mp.besselj(l + 0.5, z)) < mp.mpf(10) ** -25 * abs(s)
            assert abs(x - root * mp.hankel1(l + 0.5, z)) < mp.mpf(10) ** -25 * abs(x)
            assert abs(ds - mp.diff(lambda t: oracle.riccati_pair(l, t)[0], z)) < 1e-20 * abs(ds)


def test_reference_derivative_matches_numerical():
    c = workloads.Coupling(3.0, 0.2, 0.5 + 0.25j)
    with mp.workdps(50):
        k = mp.mpc(7.3, -0.8)
        _, fp = oracle.det_and_derivative(c, 2, 1.5, k)
        num = mp.diff(lambda t: oracle.det_and_derivative(c, 2, 1.5, t)[0], k)
        assert abs(fp - num) < mp.mpf(10) ** -30 * abs(fp)


def _current_globals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracer.PATCH_POINTS}


def test_tracer_restores_every_patched_global(tmp_path):
    before = _current_globals()
    search = workloads.Search(workloads.Coupling(0.0, 0.0, 1 + 1j), 1, 1.0, 10.0, via_cli=True)
    with tracer.Tracer() as tr:
        assert not tr.missing
        during = _current_globals()
        assert all(during[key] is not before[key] for key in before)
        _, _, out = workloads.run(winterres, winterres.cli, search, str(tmp_path), 0)
    assert _current_globals() == before
    assert all(_current_globals()[key] is before[key] for key in before)
    assert out.ok
    assert tr.calls("cli.main") == 1
    assert tr.calls("krein.det_lambda_balanced", "polefinder.refine") > 0
    assert tr.items("polefinder.find_poles") == len(out.poles)


def test_tracer_restores_after_an_exception():
    before = _current_globals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(_current_globals()[key] is before[key] for key in before)


def test_workloads_are_seeded():
    assert workloads.make("sweep", 3) == workloads.make("sweep", 3)
    assert workloads.make("sweep", 3) != workloads.make("sweep", 4)
    sweep = workloads.make("sweep", 3).searches
    assert len(sweep) == workloads.SWEEP_CALLS
    assert all(workloads.from_json(workloads.to_json(s)) == s for s in sweep)


def test_tail_rank():
    assert run.tail_rank(150) == 93
    assert run.tail_rank(12) == 100
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_failed_cli_call_is_named_by_replaying_it(tmp_path):
    c = workloads.Coupling(-12.28770714144931, 0.0, 0.3322111503527032j)
    search = workloads.Search(c, 2, 2.0, 20.0, via_cli=True)
    _, _, out = workloads.run(winterres, winterres.cli, search, str(tmp_path), 0)
    assert out.exit_code == winterres.cli.SOLVER_EXIT
    assert run.name_cli_failure(winterres, winterres.cli, search, str(tmp_path)) == (
        "AmbiguousIndex", True)


def _fake_package(find_poles):
    return type("FakePackage", (), {
        "GpiParams": winterres.GpiParams, "Channel": winterres.Channel,
        "WinterresError": winterres.WinterresError,
        "find_poles": staticmethod(find_poles)})


def _runaway(*args):
    grow = []
    while True:
        grow.append(bytearray(2 ** 20))


def test_runaway_is_capped_and_left_out_of_the_peak(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "MEMORY_MARGIN", 64 * 2 ** 20)
    search = workloads.Search(workloads.Coupling(50.0, 0.0, 0j), 0, 1.0, 10.0)
    _, _, out = workloads.run_api(_fake_package(_runaway), search)
    assert out.capped and not out.ok and out.error == "MemoryError"

    def holds_32_mb(*args):
        block = bytearray(32 * 2 ** 20)
        block[::4096] = b"\1" * len(block[::4096])
        return []

    idle, capped = workloads.peak_rss_mb_forked(
        _fake_package(lambda *a: []), None, search, str(tmp_path), 0)
    busy, _ = workloads.peak_rss_mb_forked(
        _fake_package(holds_32_mb), None, search, str(tmp_path), 0)
    _, runaway_capped = workloads.peak_rss_mb_forked(
        _fake_package(_runaway), None, search, str(tmp_path), 0)
    assert not capped and runaway_capped
    assert 30 < busy - idle < 40
