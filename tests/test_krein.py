"""Krein denominator tests: boundary values, det lambda, embedded eigenvalues."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import winterres.krein
from winterres import (Channel, GpiParams, OriginSingularity, WinterresError,
                       det_lambda, det_lambda_balanced, find_poles, phi_boundary,
                       real_axis_roots, riccati_s, riccati_xi)

from conftest import (MPMATH_GRID, MPMATH_ORDERS, bessel_j_series, hankel1_halfint,
                      mpmath_det_lambda, mpmath_riccati)

CH = Channel(0, 1.0)
FREE = GpiParams(0, 0, 0)

# frozen at the first correct build: smallest-Re fourth-quadrant pole of the
# alpha=50 shell, cross-checked against a 30-digit root solve
FIRST_POLE_ALPHA50 = 3.0802868857096793 - 0.0036939673286052818j


class TestPhiBoundary:
    def test_vanishes_at_interior_dirichlet_point(self):
        assert abs(phi_boundary(CH, math.pi).phi1_at_R) < 1e-14

    def test_closed_form_at_k_one(self):
        want = math.sin(1.0) * cmath.exp(1j)
        assert abs(phi_boundary(CH, 1.0).phi1_at_R - want) < 1e-15

    def test_jump_of_second_solution_is_one(self):
        # one-sided values i S' xi and i S xi' differ by exactly -i W = 1
        for l, k in ((0, 2.3), (2, 5.0 - 0.7j), (5, 11.0 + 1.2j)):
            z = k * CH.radius
            s = riccati_s(l, z)
            x = riccati_xi(l, z)
            jump = 1j * s.derivative * x.value - 1j * s.value * x.derivative
            assert abs(jump - 1.0) < 1e-10

    def test_matches_cylinder_series(self):
        # prefactor bookkeeping: (i pi / 2) R J_nu(kR) H1_nu(kR) from the
        # 30-term ascending series against the Riccati route
        rng = np.random.default_rng(10)
        for _ in range(100):
            l = int(rng.integers(0, 4))
            k = complex(rng.uniform(0.3, 6.0), rng.uniform(-1.5, 1.5))
            r = float(rng.uniform(0.5, 1.4))
            nu = l + 0.5
            ref = 0.5j * math.pi * r * bessel_j_series(nu, k * r) * hankel1_halfint(l, k * r)
            got = phi_boundary(Channel(l, r), k).phi1_at_R
            assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))

    def test_origin_raises(self):
        with pytest.raises(OriginSingularity):
            phi_boundary(CH, 0)

    def test_one_s_eta_call_gives_riccati_s_and_riccati_xi(self, monkeypatch):
        # S_l and xi_l = e^{iz} eta_l from one _s_eta call, bitwise the values of riccati_s
        # and riccati_xi, each of which makes a call of its own
        calls, s_eta = [], winterres.krein._s_eta

        def counted(l, z):
            calls.append(np.size(z))
            return s_eta(l, z)

        k = np.array([0.3, 1.7 - 0.2j, 12.5 - 3.0j, 40.0 - 0.01j, 0.05 - 4.0j, 25.3])
        for l in (0, 1, 2, 5, 20):
            for radius in (0.5, 1.3):
                z = k * radius
                want = winterres.krein._phi(k, riccati_s(l, z), riccati_xi(l, z))
                monkeypatch.setattr(winterres.krein, "_s_eta", counted)
                got = phi_boundary(Channel(l, radius), k)
                monkeypatch.undo()
                assert calls == [k.size]
                calls.clear()
                for name in ("phi1_at_R", "phi2_avg", "phi2_prime"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        with pytest.raises(OriginSingularity):
            phi_boundary(Channel(5, 1.3), np.array([1.0, 0.0]))


class TestDetLambda:
    def test_free_is_minus_one(self):
        for k in (0.5, 3.0 - 1.0j, 40.0 + 7.0j, 0.2j - 5.0):
            assert det_lambda(FREE, CH, k) == -1.0

    def test_free_over_random_annulus(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            l = int(rng.integers(0, 11))
            k = rng.uniform(0.1, 100.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            assert abs(det_lambda(FREE, Channel(l, 1.0), k) + 1.0) < 1e-12

    def test_keyword_arguments(self):
        p, k = GpiParams(50, 0, 0), 3.0 - 0.2j
        want = det_lambda(p, CH, k)
        assert det_lambda(p, CH, k=k) == det_lambda(p=p, ch=CH, k=k) == want
        assert riccati_s(l=2, z=k) == riccati_s(2, k)

    def test_vanishes_at_first_pole(self):
        val = det_lambda(GpiParams(50, 0, 0), CH, FIRST_POLE_ALPHA50)
        assert abs(val) < 1e-9

    def test_regression_snapshot_delta_prime(self):
        # (0, 0.01, 0) at the real lattice point k = 50.5 pi; frozen at the
        # first correct build
        val = det_lambda(GpiParams(0, 0.01, 0), CH, complex(50.5 * math.pi))
        assert abs(val - (-1.0)) < 1e-9

    def test_reflection_symmetry(self):
        # det(-conj k) = conj(det k); holds for every coupling because only
        # Re gamma and |gamma|^2 enter
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = GpiParams(rng.normal() * 3, rng.normal() * 3,
                          complex(rng.normal(), rng.normal()))
            l = int(rng.integers(0, 5))
            k = complex(rng.uniform(0.2, 20.0), rng.uniform(-2.0, 2.0))
            a = det_lambda(p, Channel(l, 1.0), -k.conjugate())
            b = det_lambda(p, Channel(l, 1.0), k).conjugate()
            assert abs(a - b) < 1e-10 * max(1.0, abs(b))


class TestBalanced:
    def test_definition(self):
        # the balanced form never forms e^{ikR}, so it agrees with e^{-ikR}
        # det lambda to rounding, not bit for bit
        p = GpiParams(3.0, -0.2, 0.4 + 0.1j)
        for k in (2.0 - 0.3j, 7.7 + 0.9j):
            want = cmath.exp(-1j * k * CH.radius) * det_lambda(p, CH, k)
            assert abs(det_lambda_balanced(p, CH, k) - want) <= 4 * 2.0 ** -52 * abs(want)

    # worst error in units of 2^-52 of the largest of the five balanced terms;
    # the Riccati recurrences lose digits at l = 20 outside the series disc
    # (see test_riccati)
    ULPS = {0: 6, 1: 6, 2: 8, 5: 8, 20: 1024}

    @pytest.mark.parametrize("l", MPMATH_ORDERS)
    def test_against_mpmath(self, l):
        k = np.array(MPMATH_GRID)
        worst = 0.0
        for a, b, g in ((50, 0, 0), (0, 0, 1 + 1j), (0, 0.1, 0), (0, 0.01, 0),
                        (3.0, -0.2, 0.4 + 0.1j)):
            got = det_lambda_balanced(GpiParams(a, b, g), Channel(l, 1.0), k)
            with mp.workdps(40):
                for point, value in zip(MPMATH_GRID, got):
                    s, sd, x, xd = mpmath_riccati(l, point)
                    w, re_g = mp.mpc(point), mp.mpf(complex(g).real)
                    terms = [mp.mpf(-1), -a * 1j / w * s * x, b * 1j * w * sd * xd,
                             -re_g * 1j * (s * xd + sd * x), -mp.mpf(a * b + abs(g) ** 2) / 4]
                    unit = mp.exp(-1j * w)
                    err = abs(mp.mpc(value) - unit * mp.fsum(terms))
                    worst = max(worst, float(err / (abs(unit) * max(abs(t) for t in terms))))
        assert worst <= self.ULPS[l] * 2.0 ** -52, f"worst error {worst}"

    def test_modulus_matches_on_real_axis(self):
        p = GpiParams(5.0, 0.0, 0.0)
        for k in (1.0, 13.7, 88.2):
            assert abs(det_lambda_balanced(p, CH, k)) == pytest.approx(
                abs(det_lambda(p, CH, k)), rel=1e-15)

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 20])
    @pytest.mark.parametrize("radius", [0.5, 1.3])
    def test_array_matches_scalar(self, l, radius):
        # rings inside and outside |z| = l + 2, where riccati_s switches
        # between its series and its recurrence, with -3 <= Im z < 0; the
        # ring at 0.95 (l + 2) is where the series cancels most.  One point
        # runs the same numpy code as an array; numpy's array loops may fuse
        # the multiply-adds of a complex product where its scalar arithmetic
        # does not, so the two agree to the last bits, not bit for bit.
        z = [cmath.rect(rho * (l + 2), -math.asin(min(depth, 0.9 * rho * (l + 2))
                                                    / (rho * (l + 2))))
             for rho in (0.5, 0.75, 0.95, 1.1, 1.6) for depth in (0.01, 0.5, 1.5, 3.0)]
        k = np.array(z) / radius
        ch = Channel(l, radius)
        for p in (GpiParams(50, 0, 0), GpiParams(0, 0, 1 + 1j), GpiParams(0, 0.1, 0),
                  GpiParams(3.0, -0.2, 0.4 + 0.1j)):
            got = det_lambda_balanced(p, ch, k)
            assert isinstance(got, np.ndarray) and got.shape == k.shape
            for kk, value in zip(k.tolist(), got):
                want = det_lambda_balanced(p, ch, kk)
                assert type(want) is complex
                assert abs(value - want) <= 1e-12 * abs(want)

    def test_zero_sets_coincide(self):
        p = GpiParams(50, 0, 0)
        for pole in find_poles(p, CH, re_max=12.0, im_min=-2.0):
            assert abs(det_lambda(p, CH, pole.k)) < 1e-9
            assert abs(det_lambda_balanced(p, CH, pole.k)) < 1e-9


def five_terms(p: GpiParams, ch: Channel, k) -> tuple:
    """(balanced, det lambda) with all five terms formed, in the order of the formula.

    Built from ``krein._phi`` on one ``_s_eta`` call: the reference that the evaluator,
    which forms only the terms a coupling has, must match bitwise.  A Python number
    runs as a numpy scalar, as ``pointwise`` runs it.
    """
    k = np.complex128(k) if isinstance(k, complex) else np.asarray(k)
    s, eta, unit = winterres.krein._s_eta(ch.l, k * ch.radius)
    phi = winterres.krein._phi(k, s, eta)
    balanced = (-unit - p.alpha * phi.phi1_at_R + p.beta * phi.phi2_prime
                - 2.0 * p.gamma.real * phi.phi2_avg - 0.25 * p.coupling_product * unit)
    return balanced, balanced / unit


class TestTerms:
    """det lambda forms only the terms whose coefficient is nonzero, bitwise the full sum."""

    # free; alpha, beta, Re gamma or Im gamma alone; alpha beta + |gamma|^2 = 0 with
    # alpha, beta != 0 (with and without Re gamma); every term; the intermediate coupling
    COUPLINGS = [GpiParams(0, 0, 0), GpiParams(50, 0, 0), GpiParams(0, 0.1, 0),
                 GpiParams(0, 0, 0.7), GpiParams(0, 0, 1j), GpiParams(2.0, -0.5, 1.0),
                 GpiParams(3.0, -3.0, 3j), GpiParams(3.0, -0.2, 0.4 + 0.1j),
                 GpiParams(0, 0, 1 + 1j)]
    K = np.array([0.3, 1.7 - 0.2j, 12.5 - 3.0j, 40.0 - 0.01j, 0.05 - 4.0j, 25.3,
                  3.1 - 0.9j, 7.0 + 0.4j])

    @pytest.mark.parametrize("l", [0, 1, 2, 5, 20])
    @pytest.mark.parametrize("radius", [0.5, 1.3])
    def test_matches_all_five_terms(self, l, radius):
        block = np.empty((self.K.size, 3), complex)
        block[:, 0], block[:, 1:] = self.K, 1.0
        inputs = [self.K, self.K.reshape(2, 4), block[:, 0], complex(self.K[2])]
        ch = Channel(l, radius)
        assert GpiParams(2.0, -0.5, 1.0).coupling_product == 0.0
        assert GpiParams(3.0, -3.0, 3j).coupling_product == 0.0
        for p in self.COUPLINGS:
            for k in inputs:
                got = det_lambda_balanced(p, ch, k), det_lambda(p, ch, k)
                for value, want in zip(got, five_terms(p, ch, k)):
                    assert type(value) is (complex if isinstance(k, complex) else np.ndarray)
                    assert np.shape(value) == np.shape(k)
                    assert np.complex128(value).tobytes() == np.complex128(want).tobytes()

    @pytest.mark.parametrize("p, formed", [
        (GpiParams(0, 0, 0), []), (GpiParams(50, 0, 0), ["phi1_at_R"]),
        (GpiParams(0, 0.1, 0), ["phi2_prime"]), (GpiParams(0, 0, 1 + 1j), ["phi2_avg"]),
        (GpiParams(0, 0, 1j), []),
        (GpiParams(3.0, -0.2, 0.4 + 0.1j), ["phi1_at_R", "phi2_prime", "phi2_avg"]),
    ], ids=["free", "delta", "delta-prime", "intermediate", "im-gamma", "all"])
    def test_forms_only_the_terms_a_coupling_has(self, p, formed, monkeypatch):
        calls = []
        for name, phi in list(winterres.krein._PHI.items()):
            def counted(*args, _name=name, _phi=phi):
                calls.append(_name)
                return _phi(*args)
            monkeypatch.setitem(winterres.krein._PHI, name, counted)
        det_lambda_balanced(p, Channel(2, 1.0), self.K)
        assert calls == formed


def mpmath_real_root(p: GpiParams, ch: Channel, k0: float) -> float:
    """The zero of c1 S_l(kR) + c2 k S_l'(kR) next to k0, at 40 digits from besselj.

    (c1, c2) are the package's own coefficients taken as exact, so the root is
    that of the function ``real_axis_roots`` solves; ``test_roots_kill_det_lambda``
    and ``test_general_separated_family`` check the coefficients through det lambda.
    """
    c1, c2 = (mp.mpf(c) for c in winterres.krein._inside_condition(p))
    l = ch.l

    def g(k):
        z = k * ch.radius
        pre = mp.sqrt(mp.pi * z / 2)
        s, s_prev = (pre * mp.besselj(n + mp.mpf(1) / 2, z) for n in (l, l - 1))
        return c1 * s + c2 * k * (s_prev - l / z * s)

    with mp.workdps(40):
        return mp.findroot(g, mp.mpf(k0))


# three separated couplings, with an l = 1 coupling of the bench sweep whose root
# near k = 0.716 is ill-conditioned: |g'| ~ 0.025 there
SEPARATED_ROOT_INPUTS = [
    *((p, Channel(l, radius), 20.0 / radius)
      for p in (GpiParams(0, 0, 2), GpiParams(4, 1, 0), GpiParams(3, 1, 1))
      for l in (0, 1, 2, 5) for radius in (0.5, 2.0)),
    (GpiParams(-2.0957895394274355, -1.526762720696827, -0.8945538892519659),
     Channel(1, 1.0), 40.0),
]
SEPARATED_ROOT_IDS = [f"{p.alpha:g}-{p.beta:g}-{p.gamma.real:g}-l{ch.l}-R{ch.radius:g}"
                      for p, ch, _ in SEPARATED_ROOT_INPUTS]


class TestRealAxisRoots:
    @pytest.mark.parametrize("p, ch, k_max", SEPARATED_ROOT_INPUTS, ids=SEPARATED_ROOT_IDS)
    def test_roots_match_mpmath(self, p, ch, k_max):
        roots = real_axis_roots(p, ch, k_max)
        assert len(roots) >= 4
        for root in roots:
            want = mpmath_real_root(p, ch, root)
            assert abs(root - want) <= 4e-15 * want

    @pytest.mark.parametrize("p, ch, k_max", SEPARATED_ROOT_INPUTS, ids=SEPARATED_ROOT_IDS)
    def test_rounds_per_search(self, monkeypatch, p, ch, k_max):
        # one Riccati array call for the grid and one a round; Newton from each
        # bracket's midpoint takes ~4 rounds, where bisection to 1e-15 took ~45
        calls, riccati = [0], winterres.krein.riccati_s

        def counted(l, z):
            calls[0] += 1
            return riccati(l, z)

        monkeypatch.setattr(winterres.krein, "riccati_s", counted)
        assert real_axis_roots(p, ch, k_max)
        assert calls[0] <= 1 + 8

    def test_roots_are_zeros_of_det_lambda(self):
        # the bench sweep's coupling: its l = 1 root near k = 0.716 moves with any
        # rounding in (c1, c2), so each root is held to a 40-digit zero of det
        # lambda itself, not of the package's own interior function
        p, ch, k_max = SEPARATED_ROOT_INPUTS[-1]
        roots = real_axis_roots(p, ch, k_max)
        assert len(roots) >= 4
        for root in roots:
            with mp.workdps(40):
                want = complex(mp.findroot(lambda k: mpmath_det_lambda(p, ch, k),
                                           mp.mpc(root)))
            assert abs(root - want) <= 5e-16 * max(1.0, abs(root))

    def test_neumann_lattice_for_gamma_two(self):
        # gamma = +-2 with beta = 0 decouples into an interior Neumann or Dirichlet
        # condition: (0, 0, 2) has cos(kR) = 0, k = (n + 1/2) pi / R, and (5, 0, -2)
        # and (3, 0, -2), one through each pair of _inside_condition, sin(kR) = 0,
        # k = (n + 1) pi / R
        for p, phase in ((GpiParams(0, 0, 2), 0.5), (GpiParams(5, 0, -2), 1.0),
                         (GpiParams(3, 0, -2), 1.0)):
            for radius in (1.0, 0.5, 2.0):
                roots = real_axis_roots(p, Channel(0, radius), 40.0)
                lattice = [(n + phase) * math.pi / radius
                           for n in range(int(40.0 * radius / math.pi - phase) + 1)]
                assert len(roots) == len(lattice) >= 6
                assert all(type(root) is float for root in roots)
                assert roots == pytest.approx(lattice, abs=1e-9)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k_max", [
        lambda r: 0.9 * math.pi / (2 * r),   # below the first root
        lambda r: 1e-3 / r,                  # on the edge of the excluded disc
        lambda r: 5e-4 / r,                  # inside it
    ], ids=["below-first-root", "disc-edge", "inside-disc"])
    def test_empty_window(self, radius, k_max):
        assert real_axis_roots(GpiParams(0, 0, 2), Channel(0, radius), k_max(radius)) == []

    def test_roots_kill_det_lambda(self):
        p = GpiParams(4, 1, 0)
        roots = real_axis_roots(p, CH, 30.0)
        assert len(roots) >= 8
        for root in roots:
            assert abs(det_lambda(p, CH, complex(root))) < 1e-10

    # alpha beta + gamma^2 = 4 with all three couplings active; (0.5, 6, 1) takes
    # the (2 - gamma, beta) pair of _inside_condition, (3, 1, 1) the (alpha, 2 + gamma) one
    @pytest.mark.parametrize("l", [0, 1, 3], ids=["l0", "l1", "l3"])
    @pytest.mark.parametrize("p", [GpiParams(3.0, 1.0, 1.0), GpiParams(0.5, 6.0, 1.0)],
                             ids=["3-1-1", "0.5-6-1"])
    def test_general_separated_family(self, p, l):
        assert p.coupling_product == 4.0
        ch = Channel(l, 1.0)
        roots = real_axis_roots(p, ch, 25.0)
        assert len(roots) >= 7
        for root in roots:
            assert abs(det_lambda(p, ch, complex(root))) < 1e-10

    def test_requires_separation(self):
        with pytest.raises(ValueError, match="separated"):
            real_axis_roots(FREE, CH, 10.0)

    def test_a_grid_over_the_budget_makes_no_call(self, monkeypatch):
        # 7.64e9 grid points would take ~61 GB before the first sign check
        calls = []
        monkeypatch.setattr(winterres.krein, "riccati_s", lambda l, z: calls.append(z))
        with pytest.raises(WinterresError, match="real-axis root search up to k_max=1e[+]09 "
                           "would take 7639437270 grid points, over the budget of 1e[+]06"):
            real_axis_roots(GpiParams(4, 1, 0), CH, 1e9)
        assert calls == []

    def test_the_grid_budget_counts_what_the_grid_lays(self, monkeypatch):
        # the count is the points of the first Riccati call: a budget one under it
        # raises before that call, and one at it runs
        sizes, riccati = [], winterres.krein.riccati_s

        def counted(l, z):
            sizes.append(z.size)
            return riccati(l, z)

        p = GpiParams(4, 1, 0)
        monkeypatch.setattr(winterres.krein, "riccati_s", counted)
        roots = real_axis_roots(p, CH, 30.0)
        made = len(sizes)
        monkeypatch.setattr(winterres.krein, "_MAX_SAMPLES", sizes[0] - 1)
        with pytest.raises(WinterresError, match=f"would take {sizes[0]} grid points"):
            real_axis_roots(p, CH, 30.0)
        assert len(sizes) == made
        monkeypatch.setattr(winterres.krein, "_MAX_SAMPLES", sizes[0])
        assert real_axis_roots(p, CH, 30.0) == roots
