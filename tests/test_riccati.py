"""Riccati-Bessel function tests: closed forms, recurrence, Wronskian."""

import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from winterres import Channel, OriginSingularity, riccati_s, riccati_xi
from winterres.riccati import _series_tables, _trig, _zeros

from conftest import (MPMATH_GRID, MPMATH_ORDERS, mpmath_riccati, riccati_xi_series,
                      wronskian)


def closed_s(l: int, z: complex) -> complex:
    """Hand-written trigonometric forms for l <= 5."""
    s, c = cmath.sin(z), cmath.cos(z)
    if l == 0:
        return s
    if l == 1:
        return s / z - c
    if l == 2:
        return (3 / z**2 - 1) * s - (3 / z) * c
    if l == 3:
        return (15 / z**3 - 6 / z) * s - (15 / z**2 - 1) * c
    if l == 4:
        return (105 / z**4 - 45 / z**2 + 1) * s - (105 / z**3 - 10 / z) * c
    return (945 / z**5 - 420 / z**3 + 15 / z) * s - (945 / z**4 - 105 / z**2 + 1) * c


def closed_xi(l: int, z: complex) -> complex:
    """xi_l = (-i)^{l+1} e^{iz} sum_m (l+m)!/(m!(l-m)!) (i/2z)^m, l <= 5."""
    total = sum(
        math.factorial(l + m) / (math.factorial(m) * math.factorial(l - m))
        * (1j / (2 * z)) ** m
        for m in range(l + 1)
    )
    return (-1j) ** (l + 1) * cmath.exp(1j * z) * total


def trig_by_parts(z):
    """sin z, cos z and e^{-iz}, each assembled from a real and an imaginary part array."""
    x, y = z.real, z.imag
    sin_x, cos_x, exp_y, sinh_y = np.sin(x), np.cos(x), np.exp(y), np.sinh(y)
    cosh_y, msin_x = 0.5 * (exp_y + 1 / exp_y), -sin_x

    def assemble(re, im):
        out = np.empty(np.shape(re), complex)
        out.real, out.imag = re, im
        return out[()]

    return (assemble(sin_x * cosh_y, cos_x * sinh_y), assemble(cos_x * cosh_y, msin_x * sinh_y),
            assemble(exp_y * cos_x, exp_y * msin_x))


class TestTrig:
    """_trig writes its three rows into one block, bitwise the values built part by part."""

    Z = np.array([0.3, 1.7 - 0.2j, 12.5 - 3.0j, -40.0 - 0.01j, 0.05 - 40.0j, 25.3 + 2.0j,
                  1e-9 + 1e-12j, -3.0 + 700.0j, 2.0 - 720.0j, 1e5 - 0.5j])

    @pytest.mark.parametrize("shape", ["1-d", "2-d", "strided", "point"])
    def test_rows_match_the_parts(self, shape):
        block = np.empty((self.Z.size, 2), complex)
        block[:, 0], block[:, 1] = self.Z, np.nan
        z = {"1-d": self.Z, "2-d": self.Z.reshape(2, 5), "strided": block[:, 0],
             "point": self.Z[2]}[shape]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _trig(z), trig_by_parts(z)
        assert len(got) == 3
        for row, value in zip(got, want):
            assert type(row) is type(value) and np.shape(row) == np.shape(z)
            assert row.tobytes() == value.tobytes()


class TestChannel:
    def test_fields(self):
        ch = Channel(2, 0.5)
        assert ch.l == 2 and ch.radius == 0.5

    @pytest.mark.parametrize("l,r", [(-1, 1.0), (201, 1.0), (0, 0.0), (0, -2.0), (0, math.inf)])
    def test_rejects_bad_channel(self, l, r):
        with pytest.raises(ValueError):
            Channel(l, r)


@pytest.mark.parametrize("fn", [riccati_s, riccati_xi], ids=["s", "xi"])
@pytest.mark.parametrize("l", [1.5, 2.0, -1, 201])
def test_order_must_be_a_nonnegative_int(fn, l):
    with pytest.raises(ValueError, match="nonnegative integer"):
        fn(l, 1 + 0.5j)


class TestRiccatiS:
    def test_l0_at_half_pi(self):
        assert abs(riccati_s(0, math.pi / 2).value - 1.0) < 1e-15

    def test_l1_at_half_pi(self):
        assert abs(riccati_s(1, math.pi / 2).value - 2.0 / math.pi) < 1e-15

    def test_l0_at_pi(self):
        out = riccati_s(0, math.pi)
        assert abs(out.value) < 1e-15
        assert abs(out.derivative + 1.0) < 1e-15

    def test_entire_at_origin(self):
        assert riccati_s(0, 0).value == 0
        assert riccati_s(0, 0).derivative == 1
        assert riccati_s(3, 0).value == 0
        assert riccati_s(3, 0).derivative == 0

    @pytest.mark.parametrize("l", range(6))
    def test_matches_closed_forms(self, l):
        for z in (0.7, 2.5, 9.0 - 0.5j, 1.3 + 2.2j, 20.0, 4.0 - 3.0j):
            ref = closed_s(l, complex(z))
            got = riccati_s(l, complex(z)).value
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_parity(self):
        # S_l(-z) = (-1)^{l+1} S_l(z), exact for this evaluator
        for l in range(0, 21, 4):
            for z in (0.03 + 0.01j, 1.7 - 0.4j, 12.0 + 3.0j, 80.0 - 2.0j):
                a = riccati_s(l, z).value
                b = riccati_s(l, -z).value
                assert abs(b - (-1) ** (l + 1) * a) <= 1e-12 * max(1.0, abs(a))

    def test_conjugation(self):
        for l in (0, 1, 5, 13):
            for z in (2.0 + 1.0j, 0.05 - 0.02j, 30.0 + 4.0j):
                a = riccati_s(l, z).value
                b = riccati_s(l, z.conjugate()).value
                assert abs(b - a.conjugate()) <= 1e-13 * max(1.0, abs(a))

    def test_series_recurrence_agree_at_switchover(self):
        # both paths valid in a band around |z| ~ l + 2
        for l in (3, 8, 15):
            for radius in (l + 1.5, l + 2.5):
                for ang in (0.0, 0.8, -2.2):
                    z = radius * cmath.exp(1j * ang)
                    v = riccati_s(l, z)
                    ref = closed_s(l, z) if l <= 5 else None
                    if ref is not None:
                        assert abs(v.value - ref) < 1e-11 * max(1.0, abs(ref))

    @pytest.mark.parametrize("l", [*range(1, 61), 100, 200])
    def test_series_table_reaches_the_switch(self, l):
        # on |z| = l + 2, where the series' terms are largest against its sum, the
        # table's last term lies under 1e-18 of the partial sum (t_0 taken as 1)
        ratio_den, _, _ = _series_tables(l)
        z = (l + 2) * np.exp(2j * np.pi * np.arange(720) / 720)
        terms = np.cumprod(np.concatenate([np.ones((1, z.size)), -0.5 * z * z / ratio_den]),
                           axis=0)
        assert (abs(terms[-1]) < 1e-18 * abs(terms.cumsum(axis=0)[-1])).all()


class TestRiccatiXi:
    def test_l0_at_one(self):
        want = complex(math.sin(1.0), -math.cos(1.0))  # -i e^{i}
        assert abs(riccati_xi(0, 1.0).value - want) < 1e-15

    def test_l0_at_i(self):
        assert abs(riccati_xi(0, 1j).value - (-1j * math.exp(-1.0))) < 1e-16

    def test_l1_at_one_vs_series_oracle(self):
        got = riccati_xi(1, 1.0).value
        ref = riccati_xi_series(1, 1.0)
        assert abs(got - ref) < 1e-12
        assert abs(got - (0.3011686789397568 - 1.3817732906760363j)) < 1e-12

    @pytest.mark.parametrize("l", range(6))
    def test_matches_closed_forms(self, l):
        for z in (0.6, 3.1, 7.0 - 1.0j, 2.0 + 2.0j, 15.0 - 0.1j):
            ref = closed_xi(l, complex(z))
            got = riccati_xi(l, complex(z)).value
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_far_above_the_axis(self):
        # e^{iz} underflows to 0; S_l, computed beside eta_l and dropped, overflows
        # there without a warning
        xi = riccati_xi(3, 1 + 800j)
        assert xi.value == xi.derivative == 0

    def test_origin_raises(self):
        with pytest.raises(OriginSingularity):
            riccati_xi(0, 0)
        with pytest.raises(OriginSingularity):
            riccati_xi(4, 0)


class TestWronskian:
    def test_example_l0(self):
        assert abs(wronskian(0, 1 + 0.3j) - 1j) < 1e-14

    def test_example_l3(self):
        assert abs(wronskian(3, 5 - 2j) - 1j) < 1e-10

    def test_small_argument(self):
        assert abs(wronskian(0, 1e-3) - 1j) < 1e-8

    def test_origin_raises(self):
        with pytest.raises(OriginSingularity):
            wronskian(2, 0)

    def test_identity_on_grid(self):
        # radii spanning [1e-2, 1e3] and angles spanning (-pi, pi].  Points
        # with |Im z| > 4 are skipped: there the identity pits e^{2|Im z|}
        # against machine epsilon and is unverifiable in double precision
        # regardless of the evaluator.
        radii = np.geomspace(1e-2, 1e3, 13)
        angles = np.linspace(-np.pi, np.pi, 25)[1:]
        checked = 0
        worst = 0.0
        for l in range(21):
            for r in radii:
                for ang in angles:
                    z = complex(r * math.cos(ang), r * math.sin(ang))
                    if abs(z.imag) > 4.0:
                        continue
                    worst = max(worst, abs(wronskian(l, z) - 1j))
                    checked += 1
        assert checked > 2000
        assert worst < 1e-10, f"worst Wronskian defect {worst}"


class TestAgainstMpmath:
    # worst relative error in units of 2^-52 over MPMATH_GRID.  At l = 20 both
    # recurrences lose some outside the series disc, near |z| = 30, Im z = -13
    # (worst at 27.04 - 13i); elsewhere a few ulps hold
    S_ULPS = {0: 4, 1: 4, 2: 6, 5: 6, 20: 1024}
    XI_ULPS = {0: 4, 1: 4, 2: 6, 5: 6, 20: 1024}

    @staticmethod
    def worst_errors(l, points):
        # worst relative errors of S_l, S_l', xi_l, xi_l' over the points, each
        # function called once on the array of them
        z = np.array(points)
        s, x = riccati_s(l, z), riccati_xi(l, z)
        got = zip(s.value, s.derivative, x.value, x.derivative)
        worst = np.zeros(4)
        for point, values in zip(points, got):
            for i, (a, want) in enumerate(zip(values, mpmath_riccati(l, point))):
                worst[i] = max(worst[i], float(abs(mp.mpc(a) - want) / abs(want)))
        return worst

    @pytest.mark.parametrize("l", MPMATH_ORDERS)
    def test_riccati_functions(self, l):
        worst = self.worst_errors(l, MPMATH_GRID)
        bound = np.array([self.S_ULPS[l]] * 2 + [self.XI_ULPS[l]] * 2) * 2.0 ** -52
        assert np.all(worst <= bound), f"worst S, S', xi, xi' errors {worst}"

    def test_series_where_the_hankel_terms_overflow(self):
        # eta_l ~ (2l-1)!!/z^l passes 1e308 at l = 100, |z| = 0.05; S_l is subnormal there
        for z in (0.05, 0.05 - 0.02j, 1e-3 - 1e-3j):
            s = riccati_s(100, z)
            want = mpmath_riccati(100, z)
            assert abs(s.value - complex(want[0])) <= 1e-322
            assert abs(s.derivative - complex(want[1])) <= 1e-320

    def test_s1_near_the_origin(self):
        # sin z / z - cos z cancels there; the series keeps every digit
        for z in (1e-3, 1e-3 - 1e-3j, 1e-2 - 3e-3j):
            want = mpmath_riccati(1, z)[0]
            assert float(abs(mp.mpc(riccati_s(1, z).value) - want) / abs(want)) <= 2.0 ** -50

    # deep in the series disc, where the upward recurrence of xi_l cancels and the
    # product over its zeros does not.  S_l takes the Hankel terms or the series,
    # whichever cancels less; at l = 30 both lose some on a ring about |z| = 0.75 l
    # (up to 4e-13 on this grid), which bounds S there
    DISC_S_TOL = {12: 1e-14, 30: 1e-12}

    @pytest.mark.parametrize("l", [12, 30])
    def test_deep_in_the_series_disc(self, l):
        points = [complex(x, y) for y in (-0.5, -2.0, -5.0, -9.0, -15.0)
                  for x in np.linspace(0.5, l, 9) if abs(complex(x, y)) < l]
        worst = self.worst_errors(l, points)
        assert np.all(worst <= [self.DISC_S_TOL[l]] * 2 + [1e-14] * 2), \
            f"worst S, S', xi, xi' errors {worst}"

    def test_s20_inside_the_switch(self):
        # on |z| = 21.9, just inside the series disc of l = 20, the series' terms
        # reach 1e4 times its sum; the Hankel terms keep every digit there
        z = np.array([cmath.rect(21.9, -math.asin(depth / 21.9))
                      for depth in (3.0, 2.0, 1.5, 0.9, 0.5, 0.1, 0.01)])
        s = riccati_s(20, z)
        for point, value, derivative in zip(z.tolist(), s.value, s.derivative):
            want = mpmath_riccati(20, point)
            for got, ref in ((value, want[0]), (derivative, want[1])):
                assert float(abs(mp.mpc(got) - ref) / abs(ref)) <= 1e-14, point

    # inside the series disc, near the ring about |z| = 0.75 l where neither sum for
    # S_l is exact (errors 1.3e-13, 8.1e-14, 4.2e-13 in S' and 3.1e-11); xi_l takes
    # the product there and keeps ~1e-14
    @pytest.mark.parametrize("l, z, s_tol", [(15, 12, 3e-13), (20, 16, 3e-13),
                                              (30, 22.625 - 5j, 1e-12),
                                              (40, 30.32 - 5.31j, 1e-10)])
    def test_on_the_ring(self, l, z, s_tol):
        worst = self.worst_errors(l, [complex(z)])
        assert np.all(worst <= [s_tol] * 2 + [1e-14] * 2), \
            f"S, S', xi, xi' errors {worst}"


@pytest.mark.parametrize("l", [2, 5, 12, 20, 30, 40])
def test_zeros_of_xi(l):
    # zeta_j = i/x_j for the zeros x_j of the Bessel polynomial
    # y_l(x) = sum_m (l+m)!/(m!(l-m)!) (x/2)^m.  Newton on y_l at 60 digits from
    # each x_j moves it by under 1e-15 relative, onto l distinct zeros
    zeta = _zeros(l)
    assert zeta.shape == (l,)
    with mp.workdps(60):
        coeffs = [mp.factorial(l + m) / (mp.factorial(m) * mp.factorial(l - m) * 2 ** m)
                  for m in range(l, -1, -1)]
        roots = []
        for start in zeta:
            x = mp.mpc(1j / start)
            for _ in range(8):
                value, slope = mp.polyval(coeffs, x, derivative=True)
                x -= value / slope
            roots.append(x)
        for start, x in zip(zeta, roots):
            assert float(abs(mp.mpc(start) - 1j / x) * abs(x)) <= 1e-15
        assert min(abs(a - b) for a, b in itertools.combinations(roots, 2)) > 1e-3 / l
