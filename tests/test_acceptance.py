"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
come.  Every tolerance is pinned here; nothing is deferred to calibration.
Criterion 3's real-part envelope is not a free tolerance: it is the bound
alpha/(4 pi n) that the exact l=0 pole equation e^{2ikR} = 1 - 2ik/alpha
puts on the offset from the delta lattice.
"""

import cmath
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from winterres import (Channel, GpiParams, classify, classify_unitary,
                       boundary_residual, det_lambda, find_poles, index_poles,
                       real_axis_roots, to_transfer, to_unitary,
                       is_separated)
from winterres.cli import main as cli_main

from conftest import eq1_basis, random_params, wronskian

CH = Channel(0, 1.0)
DELTA = GpiParams(50.0, 0.0, 0.0)
INTERMEDIATE = GpiParams(0.0, 0.0, 1 + 1j)
DELTA_PRIME_FIG = GpiParams(0.0, 0.01, 0.0)   # figure-scale coupling
DELTA_PRIME = GpiParams(0.0, 0.1, 0.0)        # desk-scale coupling


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def _indexed_run(p: GpiParams, re_max: float):
    poles = find_poles(p, CH, re_max=re_max)
    return index_poles(poles, p, CH)


def test_criterion_01_free_case_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        l = int(rng.integers(0, 11))
        k = rng.uniform(0.1, 100.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        worst = max(worst, abs(det_lambda(GpiParams(0, 0, 0), Channel(l, 1.0), k) + 1.0))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"free |det+1| worst {worst:.2e} over 1e4 samples, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_wronskian_suite():
    # grid spanning |z| in [1e-2, 1e3] and arg z in (-pi, pi]; points with
    # |Im z| > 4 are outside double-precision reach of the identity
    # (e^{2 Im z} eps exceeds the tolerance there for any evaluator)
    t0 = time.monotonic()
    radii = np.geomspace(1e-2, 1e3, 13)
    angles = np.linspace(-np.pi, np.pi, 17)[1:]
    worst, checked = 0.0, 0
    for l in range(21):
        for r in radii:
            for ang in angles:
                z = complex(r * math.cos(ang), r * math.sin(ang))
                if abs(z.imag) > 4.0:
                    continue
                worst = max(worst, abs(wronskian(l, z) - 1j))
                checked += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    _report(2, ok, f"|W - i| worst {worst:.2e} over {checked} points, {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_03_delta_asymptotics():
    t0 = time.monotonic()
    poles = _indexed_run(DELTA, re_max=41 * math.pi + 0.75 * math.pi + 0.6)
    by_n = {p.index: p for p in poles}
    missing = [n for n in range(10, 41) if n not in by_n]
    assert not missing, f"missing indices {missing}"
    # exact l=0 pole equation e^{2ikR} = 1 - 2ik/alpha: the offset from the
    # lattice is (1/2R) atan((alpha + 2 Im k)/(2 Re k)), in (0, alpha/(4 pi n)]
    alpha = DELTA.alpha
    re_offsets = {n: by_n[n].k.real - (2 * n * math.pi + 1.5 * math.pi) / 2.0
                  for n in range(10, 41)}
    ratios = {n: off / (alpha / (4 * math.pi * n)) for n, off in re_offsets.items()}
    # the index whose ratio is closest to leaving (0, 1], or furthest outside it
    worst_n = max(ratios, key=lambda n: max(ratios[n] - 1.0, -ratios[n]))
    re_ok = all(0 < off <= alpha / (4 * math.pi * n) for n, off in re_offsets.items())
    im_dev = [abs(by_n[n].k.imag + 0.5 * math.log(2 * by_n[n].k.real / 50.0))
              for n in range(10, 41)]
    # decreasing in trend: averaged thirds must descend, final value small
    thirds = [np.mean(im_dev[:10]), np.mean(im_dev[10:20]), np.mean(im_dev[20:])]
    im_ok = thirds[0] > thirds[1] > thirds[2] and im_dev[-1] < 0.05
    elapsed = time.monotonic() - t0
    _report(3, re_ok and im_ok and elapsed < 30.0,
            f"Re offset / (alpha/(4 pi n)) worst {ratios[worst_n]:.3f} at n={worst_n} "
            f"(offset {re_offsets[worst_n]:.4f}), Im trend "
            f"{thirds[0]:.3f}->{thirds[2]:.4f} final {im_dev[-1]:.4f}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert im_ok, f"Im trend {thirds}, final {im_dev[-1]}"
    assert re_ok, (
        f"Re lattice offset / (alpha/(4 pi n)) is {ratios[worst_n]:.4f} at "
        f"n={worst_n} (offset {re_offsets[worst_n]:.4f}); it must lie in (0, 1]")


def test_criterion_04_intermediate_asymptotics():
    t0 = time.monotonic()
    poles = _indexed_run(INTERMEDIATE, re_max=40.5 * math.pi + 0.7)
    target = -0.5 * math.log(1.5)
    sub = [p for p in poles if 20 <= p.index <= 40]
    assert len(sub) == 21
    worst = max(abs(p.k.imag - target) for p in sub)
    elapsed = time.monotonic() - t0
    ok = worst < 0.01 and elapsed < 30.0
    _report(4, ok, f"|Im - ({target:.5f})| worst {worst:.2e} for n=20..40, {elapsed:.1f}s")
    assert worst < 0.01
    assert elapsed < 30.0


def test_criterion_05_delta_prime_asymptotics():
    t0 = time.monotonic()
    poles = _indexed_run(DELTA_PRIME, re_max=81 * math.pi + 0.5 * math.pi + 0.6)
    by_n = {p.index: p for p in poles}
    devs = []
    for n in range(40, 81):
        k0 = n * math.pi + 0.5 * math.pi
        devs.append(abs(by_n[n].k.imag * (0.1 * k0) ** 2 + 1.0))
    worst = max(devs)
    elapsed = time.monotonic() - t0
    ok = worst < 0.1 and elapsed < 60.0
    _report(5, ok, f"|Im (beta R k0)^2 + 1| worst {worst:.3f} for n=40..80, {elapsed:.1f}s")
    assert worst < 0.1
    assert elapsed < 60.0


def test_criterion_06_class_ordering_at_n100():
    t0 = time.monotonic()
    re_max = 101 * math.pi + 0.75 * math.pi + 0.6
    ims = {}
    for label, p in (("delta", DELTA), ("intermediate", INTERMEDIATE),
                     ("delta-prime", DELTA_PRIME)):
        by_n = {q.index: q for q in _indexed_run(p, re_max)}
        ims[label] = abs(by_n[100].k.imag)
    floor = math.log(100.0) / 4.0
    ordered = ims["delta-prime"] < ims["intermediate"] < ims["delta"]
    deep = ims["delta"] > floor
    elapsed = time.monotonic() - t0
    ok = ordered and deep and elapsed < 60.0
    _report(6, ok, f"|Im| at n=100: dp {ims['delta-prime']:.2e} < int "
            f"{ims['intermediate']:.4f} < d {ims['delta']:.4f} (> {floor:.4f}), "
            f"{elapsed:.1f}s")
    assert ordered
    assert deep
    assert elapsed < 60.0


def test_criterion_07_pole_pair_symmetry():
    runs = [
        (DELTA, 41 * math.pi + 0.75 * math.pi + 0.6),
        (INTERMEDIATE, 40.5 * math.pi + 0.7),
        (DELTA_PRIME, 81 * math.pi + 0.5 * math.pi + 0.6),
    ]
    worst = 0.0
    count = 0
    for p, re_max in runs:
        for pole in find_poles(p, CH, re_max=re_max):
            worst = max(worst, abs(det_lambda(p, CH, -pole.k.conjugate())))
            count += 1
    ok = worst < 1e-8
    _report(7, ok, f"mirror |det| worst {worst:.2e} over {count} poles")
    assert worst < 1e-8


def test_criterion_08_conversion_oracle():
    rng = np.random.default_rng(77)
    worst_res, worst_det = 0.0, 0.0
    for _ in range(1000):
        p = random_params(rng, scale=4.0)
        u = to_unitary(p)
        for data in eq1_basis(p):
            worst_res = max(worst_res, boundary_residual(u, data))
        assert classify_unitary(u) is classify(p)
        if not is_separated(p):
            t = to_transfer(p)
            worst_det = max(worst_det, abs(t.a * t.d - t.b * t.c - 1.0))
    ok = worst_res < 1e-10 and worst_det < 1e-12
    _report(8, ok, f"unitary residual worst {worst_res:.2e}, "
            f"|ad-bc-1| worst {worst_det:.2e} over 1000 params")
    assert worst_res < 1e-10
    assert worst_det < 1e-12


def test_criterion_09_separated_case():
    p = GpiParams(0.0, 0.0, 2.0)
    poles = find_poles(p, CH, re_max=40.0, im_min=-2.0)
    off_axis = [q for q in poles
                if 0.1 <= q.k.real <= 40.0 and -2.0 <= q.k.imag <= -1e-4]
    roots = real_axis_roots(p, CH, 40.0)
    residuals = [abs(det_lambda(p, CH, complex(r))) for r in roots]
    ok = not off_axis and len(roots) >= 10 and max(residuals) < 1e-10
    _report(9, ok, f"{len(off_axis)} off-axis poles, {len(roots)} embedded "
            f"eigenvalues, residual worst {max(residuals):.2e}")
    assert not off_axis
    assert len(roots) >= 10
    assert max(residuals) < 1e-10


def test_criterion_10_figure_reproduction(tmp_path):
    svg_path = tmp_path / "fig1.svg"
    code = cli_main(["poles", "--re-max", "40", "--im-min", "-3",
                     "--interaction", "50,0,0",
                     "--interaction", "0,0,1+1i",
                     "--interaction", "0,0.01,0",
                     "--svg", str(svg_path)])
    assert code == 0
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring(svg_path.read_text())
    classes = [g.get("class") for g in root.iter(f"{ns}g") if g.get("class")]
    three_series = classes == ["series-plus", "series-cross", "series-star"]
    labels = [t.text for t in root.iter(f"{ns}text")]
    labeled = "Re k" in labels and "Im k" in labels

    # shape checks on the actual pole data, not on the rendering
    ims_delta = [p.k.imag for p in find_poles(DELTA, CH, 40.0, -3.0)]
    ims_inter = [p.k.imag for p in find_poles(INTERMEDIATE, CH, 40.0, -3.0)]
    ims_dp = [p.k.imag for p in find_poles(DELTA_PRIME_FIG, CH, 40.0, -3.0)]
    descending = all(b < a for a, b in zip(ims_delta, ims_delta[1:]))
    flat = max(abs(v + 0.5 * math.log(1.5)) for v in ims_inter) < 0.02
    hugging = all(b > a for a, b in zip(ims_dp, ims_dp[1:])) and ims_dp[-1] > -1.0
    ok = three_series and labeled and descending and flat and hugging
    _report(10, ok, f"series {classes}, delta descending={descending}, "
            f"intermediate flat={flat}, delta-prime axis-hugging={hugging}")
    assert three_series and labeled
    assert descending
    assert flat
    assert hugging
