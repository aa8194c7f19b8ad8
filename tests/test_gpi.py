"""Boundary-condition parameterizations: classes, conversions, equivalences."""

import math

import numpy as np
import pytest

from winterres import (BoundaryData, DegenerateDenominator, GpiClass,
                       GpiParams, SeparatedInteraction, TransferForm,
                       UnitaryForm, boundary_residual, canonical_real_gamma,
                       classify, classify_unitary, from_scale_invariant,
                       is_separated, to_transfer, to_unitary)

from conftest import eq1_basis, random_params

FIG1_DELTA = GpiParams(50.0, 0.0, 0.0)
FIG1_INTERMEDIATE = GpiParams(0.0, 0.0, 1 + 1j)
FIG1_DELTA_PRIME = GpiParams(0.0, 0.01, 0.0)


class TestClassify:
    def test_fig1_parameter_sets(self):
        assert classify(FIG1_DELTA) is GpiClass.DELTA
        assert classify(FIG1_INTERMEDIATE) is GpiClass.INTERMEDIATE
        assert classify(FIG1_DELTA_PRIME) is GpiClass.DELTA_PRIME

    def test_imaginary_gamma_is_delta(self):
        assert classify(GpiParams(0, 0, 2j)) is GpiClass.DELTA

    def test_trichotomy(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = random_params(rng)
            cls = classify(p)
            matches = [cls is GpiClass.DELTA, cls is GpiClass.INTERMEDIATE,
                       cls is GpiClass.DELTA_PRIME]
            assert sum(matches) == 1
            if p.beta != 0:
                assert cls is GpiClass.DELTA_PRIME
            elif p.gamma.real != 0:
                assert cls is GpiClass.INTERMEDIATE
            else:
                assert cls is GpiClass.DELTA

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GpiParams(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            GpiParams(0.0, math.inf, 0.0)


class TestSeparation:
    def test_examples(self):
        assert is_separated(GpiParams(4, 1, 0))
        assert is_separated(GpiParams(0, 0, 2))
        assert not is_separated(FIG1_DELTA)

    def test_needs_real_gamma(self):
        assert not is_separated(GpiParams(0, 0, 2j))  # |gamma|^2 = 4 but Im != 0


class TestToUnitary:
    def test_free_interaction(self):
        u = to_unitary(GpiParams(0, 0, 0))
        assert abs(u.xi - math.pi / 2) < 1e-15
        assert abs(u.u1) < 1e-15
        assert abs(abs(u.u2) - 1.0) < 1e-15

    def test_normalization_always_holds(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            u = to_unitary(random_params(rng, scale=8.0))
            assert abs(abs(u.u1) ** 2 + abs(u.u2) ** 2 - 1.0) < 1e-12
            assert 0.0 <= u.xi < math.pi

    def test_tan_xi_matches_coupling_combination(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_params(rng)
            if abs(p.alpha - p.beta) < 1e-6:
                continue
            u = to_unitary(p)
            q = p.coupling_product
            assert math.tan(u.xi) == pytest.approx((q + 4) / (2 * (p.alpha - p.beta)),
                                                   rel=1e-9, abs=1e-9)

    def test_equal_couplings_give_half_pi(self):
        assert to_unitary(GpiParams(3, 3, 1 + 2j)).xi == pytest.approx(math.pi / 2)

    def test_real_gamma_gives_purely_imaginary_u2(self):
        # the oracle-fixed phase puts the Im-gamma content in Re u2
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_params(rng)
            p = GpiParams(p.alpha, p.beta, p.gamma.real)
            assert abs(to_unitary(p).u2.real) < 1e-15

    def test_residual_oracle_on_jump_solutions(self):
        # alpha=50 example plus random interactions: Eq-solutions must satisfy
        # the unitary condition with the converted matrix, and conversely
        rng = np.random.default_rng(4)
        for p in [FIG1_DELTA] + [random_params(rng, 5.0) for _ in range(200)]:
            u = to_unitary(p)
            for data in eq1_basis(p):
                assert boundary_residual(u, data) < 1e-10
            # converse: random data off the solution plane must be rejected
            bad = BoundaryData(0.3 + 1j, -0.7, 2.1j, 0.9 - 0.2j)
            if boundary_residual(p, bad) > 1e-6:
                assert boundary_residual(u, bad) > 1e-8


class TestToTransfer:
    def test_free_interaction_is_identity(self):
        t = to_transfer(GpiParams(0, 0, 0))
        assert t.chi == 0.0
        assert (t.a, t.b, t.c, t.d) == pytest.approx((1.0, 0.0, 0.0, 1.0))

    def test_separated_raises(self):
        with pytest.raises(SeparatedInteraction):
            to_transfer(GpiParams(4, 1, 0))

    def test_diagonal_for_zero_couplings(self):
        t = to_transfer(GpiParams(0, 0, 2j))
        assert t.b == 0.0 and t.c == 0.0

    def test_unimodular(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = random_params(rng, 6.0)
            if is_separated(p, tol=1e-6):
                continue
            t = to_transfer(p)
            assert abs(t.a * t.d - t.b * t.c - 1.0) < 1e-12
            assert 0.0 <= t.chi < math.pi

    def test_residual_oracle_on_jump_solutions(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = random_params(rng, 5.0)
            if is_separated(p, tol=1e-6):
                continue
            t = to_transfer(p)
            for data in eq1_basis(p):
                assert boundary_residual(t, data) < 1e-10

    @pytest.mark.parametrize("p", [GpiParams(5, 1, 0), GpiParams(0, 0, 3), GpiParams(-2, -3, 0.5),
                                   GpiParams(0, 0, complex(0.5, -1e-20))],
                             ids=["delta-prime", "intermediate", "mixed", "phase-below-zero"])
    def test_phase_reduces_to_zero(self, p):
        # real gamma with q > 4 has phase(-1/den) = pi exactly; in the last case the
        # phase is -1.07e-20, phase + pi rounds to pi, and a second reduction makes it 0
        t = to_transfer(p)
        assert t.chi == 0.0
        assert abs(t.a * t.d - t.b * t.c - 1.0) < 1e-12
        for data in eq1_basis(p):
            assert boundary_residual(t, data) < 1e-10


class TestClassifyUnitary:
    def test_agrees_with_parameter_classification(self):
        for p in (FIG1_DELTA, FIG1_INTERMEDIATE, FIG1_DELTA_PRIME):
            assert classify_unitary(to_unitary(p)) is classify(p)

    def test_agreement_on_randoms(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = random_params(rng)
            assert classify_unitary(to_unitary(p)) is classify(p)


class TestCanonicalRealGamma:
    def test_delta_reduction_rule(self):
        # alpha' = 4 alpha / ((Im gamma)^2 + 4)
        out = canonical_real_gamma(GpiParams(50, 0, 2j))
        assert out.alpha == pytest.approx(25.0, abs=1e-12)
        assert out.beta == 0.0 and out.gamma == 0.0

    def test_real_gamma_unchanged(self):
        p = GpiParams(1.5, -0.3, 0.7)
        assert canonical_real_gamma(p) is p

    def test_u2_modulus_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            p = random_params(rng, 4.0)
            if p.gamma.imag == 0:
                continue
            out = canonical_real_gamma(p)
            assert out.gamma.imag == 0.0
            assert abs(to_unitary(out).u2) == pytest.approx(abs(to_unitary(p).u2),
                                                            abs=1e-12)

    def test_negative_branch(self):
        # here q + 4 ~ -(q - 4), so the s = +1 trace + 2 falls under its guard
        p = GpiParams(1e6, -1e6, 1e-3j)
        out = canonical_real_gamma(p)
        assert out.gamma.imag == 0.0
        assert abs(to_unitary(out).u2) == pytest.approx(abs(to_unitary(p).u2), abs=1e-12)


class TestScaleInvariant:
    def test_trivial_case(self):
        assert from_scale_invariant(1.0, 0.0).gamma == 0

    def test_metric_tree_with_four_branches(self):
        # h = sqrt(N) with N = 4, phi = 0
        p = from_scale_invariant(2.0, 0.0)
        assert p.gamma == pytest.approx(1.0 / 3.0)
        assert p.alpha == 0.0 and p.beta == 0.0

    def test_quarter_turn_lands_in_delta(self):
        p = from_scale_invariant(1.0, math.pi / 2)
        assert abs(p.gamma - 1j) < 1e-15
        assert classify(p) is GpiClass.DELTA

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            from_scale_invariant(1.0, math.pi)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            from_scale_invariant(0.0, 0.0)


class TestBoundaryResidual:
    def test_free_continuity(self):
        data = BoundaryData(1, 1, 0, 0)
        assert boundary_residual(GpiParams(0, 0, 0), data) == 0.0

    def test_delta_jump(self):
        alpha = 7.3
        data = BoundaryData(1, 1, alpha / 2, -alpha / 2)
        assert boundary_residual(GpiParams(alpha, 0, 0), data) < 1e-15

    def test_violations_are_positive(self):
        rng = np.random.default_rng(9)
        p = GpiParams(2.0, 0.5, 0.3 - 0.8j)
        hits = 0
        for _ in range(50):
            vals = rng.normal(size=4) + 1j * rng.normal(size=4)
            data = BoundaryData(*vals)
            if boundary_residual(p, data) > 1e-8:
                hits += 1
        assert hits >= 49  # random data essentially never satisfies the condition

    def test_rejects_unknown_form(self):
        with pytest.raises(TypeError):
            boundary_residual("nonsense", BoundaryData(1, 1, 0, 0))


class TestFormValidation:
    def test_unitary_norm_enforced(self):
        with pytest.raises(ValueError):
            UnitaryForm(0.1, 0.9, 0.9)

    def test_transfer_det_enforced(self):
        with pytest.raises(ValueError):
            TransferForm(0.0, 1.0, 0.5, 0.5, 1.0)

    def test_phase_ranges(self):
        with pytest.raises(ValueError):
            UnitaryForm(math.pi, 1.0, 0.0)
        with pytest.raises(ValueError):
            TransferForm(-0.1, 1.0, 0.0, 0.0, 1.0)
