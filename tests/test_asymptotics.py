"""Predictor tests: frozen arithmetic, branch structure, comparison rows, one lattice."""

import cmath
import math

import pytest

from winterres import (Channel, GpiParams, Resonance, SeparatedInteraction, ZeroCoupling,
                       compare, det_lambda, find_poles, index_poles, is_separated, predict)
from winterres.asymptotics import _lattice

CH = Channel(0, 1.0)


def _delta(alpha):
    return GpiParams(alpha, 0, 0)


def _intermediate(gamma):
    return GpiParams(0, 0, gamma)


class TestPredictDelta:
    def test_frozen_example(self):
        out = predict(_delta(50.0), CH, 10)
        assert out.k_pred.real == pytest.approx(33.772121026090275, abs=1e-12)
        assert out.k_pred.imag == pytest.approx(-0.15037990777743557, abs=1e-12)

    def test_negative_alpha_shifts_lattice(self):
        plus = predict(_delta(50.0), CH, 10)
        minus = predict(_delta(-50.0), CH, 10)
        assert plus.k_pred.real - minus.k_pred.real == pytest.approx(math.pi / 2)

    def test_lattice_spacing_is_pi_over_r(self):
        for r in (1.0, 0.5, 2.0):
            ch = Channel(0, r)
            for n in (1, 7, 30):
                d = predict(_delta(5.0), ch, n + 1).k_pred.real - predict(
                    _delta(5.0), ch, n).k_pred.real
                assert abs(d - math.pi / r) < 1e-12

    def test_error_scale(self):
        assert predict(_delta(5.0), CH, 20).error_scale == pytest.approx(
            math.log(20) / 20)

    def test_zero_coupling_raises(self):
        with pytest.raises(ZeroCoupling):
            predict(_delta(0.0), CH, 5)
        with pytest.raises(ValueError):
            predict(_delta(5.0), CH, 0)


class TestPredictIntermediate:
    def test_frozen_example(self):
        out = predict(_intermediate(1 + 1j), CH, 10)
        assert out.k_pred.real == pytest.approx(32.98672286269283, abs=1e-12)
        assert out.k_pred.imag == pytest.approx(-0.2027325540540822, abs=1e-12)
        assert out.error_scale == pytest.approx(0.1)

    def test_separated_edge_degenerates_to_real_axis(self):
        # gamma = 2 is separated; just off it the width is ~1e-13
        assert is_separated(_intermediate(2.0))
        assert not is_separated(_intermediate(2.000001))
        out = predict(_intermediate(2.000001), CH, 10)
        assert -1e-12 < out.k_pred.imag < 0.0

    def test_negative_branch(self):
        # at l = 0 the poles solve e^{2ikR} = -(1 + |gamma|^2/4) / Re gamma exactly,
        # here 1.25 > 0: Re k sits on the multiples of pi/R (n = 10 on 11 pi, half a
        # spacing above the Re gamma > 0 lattice) and Im k = -ln(1.25) / 2R
        out = predict(_intermediate(-1.0), CH, 10)
        assert out.k_pred.real == pytest.approx((10 + 1) * math.pi, abs=1e-12)
        assert out.k_pred.imag == pytest.approx(-0.5 * math.log(1.25), abs=1e-12)
        assert abs(cmath.exp(2j * out.k_pred) - 1.25) < 1e-12

    def test_imaginary_part_never_positive(self):
        # (1 + |g|^2/4) >= |Re g| with equality only on the separated locus
        for g in (0.3, -2.7, 1 + 4j, 0.1 - 0.1j, 2.000001):
            assert predict(_intermediate(g), CH, 5).k_pred.imag <= 0.0


class TestPredictDeltaPrime:
    def test_frozen_example(self):
        out = predict(GpiParams(0, 0.1, 0), CH, 50)
        k0 = 50 * math.pi + 0.5 * math.pi
        assert out.k_pred.real == pytest.approx(k0 + 10.0 / k0, abs=1e-12)
        assert out.k_pred.imag == pytest.approx(-1.0 / (0.1 * k0) ** 2, abs=1e-15)
        assert out.error_scale == pytest.approx(50.0 ** -3)

    def test_huge_beta_leaves_centrifugal_shift(self):
        ch = Channel(2, 1.0)
        out = predict(GpiParams(0, 1e9, 0), ch, 20)
        k0 = 20 * math.pi + 1.5 * math.pi
        want = k0 - (2 * 2 + 2) / 2.0 / k0  # -(l^2+l)/(2 R^2 k0)
        assert out.k_pred.real == pytest.approx(want, abs=1e-6)

    def test_width_scales_as_inverse_square(self):
        p = GpiParams(0, 0.1, 0)
        im1 = predict(p, CH, 1).k_pred.imag
        im2 = predict(p, CH, 2).k_pred.imag
        k01 = math.pi + 0.5 * math.pi
        k02 = 2 * math.pi + 0.5 * math.pi
        assert im1 / im2 == pytest.approx((k02 / k01) ** 2, rel=1e-12)


    @pytest.mark.parametrize("beta", [1e-163, 5e-324, 1e200], ids=["tiny", "subnormal", "huge"])
    def test_beta_k0_squared_out_of_the_double_range(self, beta):
        # (beta k0)^2 R underflows to 0 or overflows; the width then is divided out by
        # beta k0 twice, and comes out -inf here
        assert predict(GpiParams(1, beta, 1), CH, 1).k_pred.imag == -math.inf

    def test_width_near_the_underflow_is_the_plain_quotient(self):
        # the delta-prime law's own arithmetic, where (beta k0)^2 R is still a normal double
        p, n, q = GpiParams(1, 1e-150, 1), 3, 1 + 1e-150
        k0 = n * math.pi + 0.5 * math.pi
        bracket = 1.0 + 0.5 - 1.0 - 0.5 * 1e-150 + q * q / 16.0
        assert predict(p, CH, n).k_pred.imag == -bracket / ((1e-150 * k0) ** 2 * 1.0)

    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_width_scales_with_radius(self, radius):
        # l = 0, alpha = gamma = 0: det lambda = -1 + (i beta k / 2)(e^{2ikR} + 1), so
        # the poles solve e^{2ikR} = -1 - 2i/(beta k) and Im k_n -> -1/(beta^2 R k0_n^2)
        p, ch = GpiParams(0, 1.0, 0), Channel(0, radius)
        pred = predict(p, ch, 40).k_pred
        k = pred
        for _ in range(20):   # Newton on the exact equation
            e = cmath.exp(2j * k * radius)
            k -= (e + 1 + 2j / k) / (2j * radius * e - 2j / (k * k))
        assert abs(det_lambda(p, ch, k)) < 1e-10
        assert pred.imag == pytest.approx(k.imag, rel=0.02)


class TestPredictDispatch:
    # each class shows itself by its remainder scale
    def test_routes_delta(self):
        assert predict(_delta(50.0), CH, 10).error_scale == math.log(10) / 10

    def test_routes_delta_prime(self):
        assert predict(GpiParams(0, 0.01, 0), CH, 7).error_scale == 7 ** -3.0

    def test_routes_intermediate_without_canonicalizing(self):
        out = predict(_intermediate(1 + 1j), CH, 7)
        assert out.error_scale == 1 / 7
        # |gamma|^2 = 2 enters as given: (1 + 2/4) / |Re gamma| = 1.5
        assert out.k_pred.real == pytest.approx(7.5 * math.pi, abs=1e-12)
        assert out.k_pred.imag == pytest.approx(-0.5 * math.log(1.5), abs=1e-12)

    def test_imaginary_gamma_reduces_to_rescaled_delta(self):
        # (alpha, 0, i y) is equivalent to alpha' = 4 alpha/(y^2 + 4)
        assert predict(GpiParams(50, 0, 2j), CH, 10) == predict(_delta(25.0), CH, 10)

    def test_free_equivalent_raises_zero_coupling(self):
        with pytest.raises(ZeroCoupling):
            predict(GpiParams(0, 0, 2j), CH, 10)

    def test_separated_raises(self):
        with pytest.raises(SeparatedInteraction):
            predict(GpiParams(0, 0, 2.0), CH, 3)


class TestSignConsistency:
    def test_fig1_parameter_sets_lie_below_axis(self):
        assert predict(GpiParams(50, 0, 0), CH, 10).k_pred.imag < 0
        assert predict(GpiParams(0, 0, 1 + 1j), CH, 10).k_pred.imag < 0
        assert predict(GpiParams(0, 0.01, 0), CH, 10).k_pred.imag < 0

    def test_class_ordering_at_n100(self):
        im_d = abs(predict(GpiParams(50, 0, 0), CH, 100).k_pred.imag)
        im_i = abs(predict(GpiParams(0, 0, 1 + 1j), CH, 100).k_pred.imag)
        im_dp = abs(predict(GpiParams(0, 0.1, 0), CH, 100).k_pred.imag)
        assert im_dp < im_i < im_d


class TestCompare:
    def test_empty(self):
        assert compare([], GpiParams(50, 0, 0), CH) == []

    def test_delta_prime_scaled_errors_bounded(self):
        p = GpiParams(0, 0.1, 0)
        poles = find_poles(p, CH, re_max=42 * math.pi, im_min=-1.0)
        poles = index_poles(poles, p, CH)
        rows = compare([q for q in poles if 20 <= q.index <= 40], p, CH)
        assert len(rows) == 21
        # remainder is O(n^-3): the scaled error must not blow up with n
        scaled = [row.scaled_err for row in rows]
        assert max(scaled) < 10 * min(scaled) + 10.0

    def test_intermediate_width_error_shrinks(self):
        p = GpiParams(0, 0, 1 + 1j)
        poles = find_poles(p, CH, re_max=35.0, im_min=-1.0)
        poles = index_poles(poles, p, CH)
        rows = [row for row in compare(poles, p, CH) if row.k_pred is not None]
        im_err = [abs(row.k.imag - row.k_pred.imag) for row in rows]
        assert im_err[-1] <= im_err[0] + 1e-12

    def test_rows_carry_consistent_errors(self):
        p = GpiParams(50, 0, 0)
        poles = find_poles(p, CH, re_max=25.0, im_min=-2.0)
        poles = index_poles(poles, p, CH)
        for row in compare(poles, p, CH):
            if row.k_pred is None:
                continue
            assert row.abs_err == abs(row.k - row.k_pred)
            assert row.scaled_err >= row.abs_err  # scales here are < 1


class TestCompareKeepsEveryPole:
    def test_one_record_per_pole_in_order(self):
        p = GpiParams(50, 0, 0)
        poles = index_poles(find_poles(p, CH, re_max=25.0, im_min=-2.0), p, CH)
        assert poles[0].index == 0  # the first pole sits below lattice point 1
        rows = compare(poles, p, CH)
        assert [(row.index, row.k, row.residual) for row in rows] == \
            [(pole.index, pole.k, pole.residual) for pole in poles]
        for pole, row in zip(poles, rows):
            if pole.index < 1:
                assert row == pole
                assert row.k_pred is row.abs_err is row.scaled_err is None
            else:
                pred = predict(p, CH, pole.index)
                assert row.k_pred == pred.k_pred
                assert row.abs_err == abs(row.k - row.k_pred)
                assert row.scaled_err == row.abs_err / pred.error_scale
                assert not row.embedded

    def test_input_order_is_kept(self):
        p = GpiParams(0, 0, 1 + 1j)
        poles = [Resonance(3, 10.0 - 0.2j, 1e-13), Resonance(0, 1.0 - 0.1j, 2e-13),
                 Resonance(1, 4.0 - 0.2j, 3e-13)]
        assert [row.index for row in compare(poles, p, CH)] == [3, 0, 1]


class TestOneLattice:
    # beta = +-1 and n >= 10 keep the delta-prime next-order shift below a
    # quarter of the spacing pi/R for every (l, R) below
    @pytest.mark.parametrize("p, ns", [
        (GpiParams(50, 0, 0), (1, 2, 3, 7, 20)),
        (GpiParams(-7, 0, 0.5j), (1, 2, 3, 7, 20)),
        (GpiParams(0, 0, 1 + 1j), (1, 2, 3, 7, 20)),
        (GpiParams(0, 0, -0.5 + 0.3j), (1, 2, 3, 7, 20)),
        (GpiParams(0, 1.0, 0), (10, 11, 12, 30)),
        (GpiParams(2, -1.0, 0.5 - 0.5j), (10, 11, 12, 30)),
    ], ids=["delta+", "delta-", "intermediate+", "intermediate-",
            "delta-prime+", "delta-prime-"])
    @pytest.mark.parametrize("l", [0, 2, 5])
    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_predictions_index_to_their_n(self, p, ns, l, radius):
        ch = Channel(l, radius)
        preds = [predict(p, ch, n).k_pred for n in ns]
        if p.beta:
            for n, k in zip(ns, preds):
                k0 = n * math.pi / radius + (l + 1) * math.pi / (2 * radius)
                assert abs(k.real - k0) < 0.25 * math.pi / radius
        poles = [Resonance(0, k, 0.0) for k in preds]
        assert [q.index for q in index_poles(poles, p, ch)] == list(ns)


class TestLawAudit:
    """Found poles against the leading lattice and the class rate, on every branch.

    The window ends half a spacing past lattice point 30, so the poles with
    n in [10, 30] are checked.  Under a wrong lattice they sit half a spacing
    off, and under a wrong rate the scaled error grows like n.
    """

    @pytest.mark.parametrize("p", [
        GpiParams(10, 0, 0), GpiParams(-10, 0, 0),
        GpiParams(0, 0, 1.5 + 0.5j), GpiParams(0, 0, -1.5 + 0.5j),
        GpiParams(0, 1.0, 0), GpiParams(0, -1.0, 0),
    ], ids=["delta+", "delta-", "intermediate+", "intermediate-",
            "delta-prime+", "delta-prime-"])
    @pytest.mark.parametrize("l", [0, 1, 3])
    @pytest.mark.parametrize("radius", [0.5, 2.0])
    def test_poles_follow_the_class_law(self, p, l, radius):
        ch = Channel(l, radius)
        spacing = math.pi / radius
        offset = _lattice(p, ch, 0)[2]
        poles = find_poles(p, ch, offset + 30.5 * spacing)
        high = [(x, q) for x, q in (((q.k.real - offset) / spacing, q) for q in poles)
                if round(x) >= 10]
        assert [round(x) for x, _ in high] == list(range(10, 31))
        assert max(abs(x - round(x)) for x, _ in high) <= 0.1
        rows = compare([Resonance(round(x), q.k, q.residual) for x, q in high], p, ch)
        scaled = [row.scaled_err for row in rows]
        assert max(scaled) <= 5.0
        assert max(scaled[-7:]) <= 1.4 * max(scaled[:7]) + 1e-9
