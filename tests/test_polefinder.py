"""Pole search tests: winding counts, refinement, indexing, symmetries."""

import cmath
import math

import numpy as np
import pytest

import winterres.polefinder as pf
from winterres import (AmbiguousIndex, BoundaryZero, Channel, ClusteredZeros, GpiParams,
                       NonConvergence, SearchRegion, count_zeros, det_lambda,
                       det_lambda_balanced, find_poles, index_poles, refine)

CH = Channel(0, 1.0)
FREE = GpiParams(0, 0, 0)
DELTA = GpiParams(50, 0, 0)
INTERMEDIATE = GpiParams(0, 0, 1 + 1j)
DELTA_PRIME = GpiParams(0, 0.1, 0)

FIRST_POLE_ALPHA50 = 3.0802868857096793 - 0.0036939673286052818j


class TestSearchRegion:
    def test_valid(self):
        r = SearchRegion(0.1, 5.0, -2.0, 0.0)
        assert r.width == 4.9 and r.height == 2.0

    @pytest.mark.parametrize("args", [
        (-1.0, 5.0, -2.0, 0.0),   # negative left edge
        (5.0, 1.0, -2.0, 0.0),    # inverted real range
        (0.1, 5.0, -2.0, 0.5),    # pokes into the upper half-plane
        (0.1, 5.0, -1.0, -1.0),   # zero height
        (0.1, math.inf, -2.0, 0.0),   # infinite right edge
        (0.1, 5.0, -math.inf, 0.0),   # infinite floor
    ])
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            SearchRegion(*args)

    def test_containment(self):
        r = SearchRegion(1.0, 2.0, -1.0, 0.0)
        assert r.contains(1.5 - 0.5j)
        assert not r.contains(2.5 - 0.5j)


class TestCountZeros:
    def test_free_has_none(self):
        assert count_zeros(FREE, CH, SearchRegion(0.5, 30.0, -4.0, 0.0)) == 0

    def test_regression_window_holds_two(self):
        assert count_zeros(DELTA, CH, SearchRegion(30.0, 36.0, -3.0, 0.0)) == 2

    def test_counts_add_over_a_split(self):
        whole = SearchRegion(5.0, 40.0, -2.5, -0.0005)
        left = SearchRegion(5.0, 17.3, -2.5, -0.0005)
        right = SearchRegion(17.3, 40.0, -2.5, -0.0005)
        n_whole = count_zeros(DELTA, CH, whole)
        assert n_whole > 0
        assert count_zeros(DELTA, CH, left) + count_zeros(DELTA, CH, right) == n_whole

    def test_rejects_window_inside_excluded_disc(self):
        with pytest.raises(ValueError):
            count_zeros(FREE, CH, SearchRegion(1e-5, 1.0, -1.0, 0.0))

    def test_boundary_zero_raises(self):
        # bottom edge running exactly through a pole: the count answers only
        # for the rectangle it was given, so it raises instead of guessing
        region = SearchRegion(2.5, 3.5, FIRST_POLE_ALPHA50.imag, 0.0)
        with pytest.raises(BoundaryZero):
            count_zeros(DELTA, CH, region)


class TestSubdivide:
    """Children counted from the cut alone agree with counts sampled afresh."""

    @pytest.mark.parametrize("p", [DELTA, INTERMEDIATE, DELTA_PRIME],
                             ids=["delta", "intermediate", "delta-prime"])
    @pytest.mark.parametrize("l", [0, 1, 5])
    @pytest.mark.parametrize("region", [
        SearchRegion(4.0, 14.0, -3.0, -0.0005),   # wide: vertical cut first
        SearchRegion(9.0, 13.0, -6.0, -0.0005),   # tall: horizontal cut first
    ], ids=["wide", "tall"])
    def test_child_counts_match_fresh_counts(self, p, l, region):
        ch = Channel(l, 1.0)
        fn = lambda k: det_lambda_balanced(p, ch, k)
        edges, count = pf._winding(fn, region, pf._boundary(fn, region))
        assert count == count_zeros(p, ch, region)
        vertical = set()   # orientation of every cut made
        level = [(region, edges, count)]
        for _ in range(3):   # grandchildren inherit pieces of earlier cuts
            nxt = []
            for parent, edges, count in level:
                children = pf._subdivide(fn, parent, edges, count)
                vertical.add(children[0][0].re_max < parent.re_max)
                for child, child_edges, c in children:
                    assert [e.z[0] for e in child_edges] == child.corners()
                    assert all(e.z[-1] == f.z[0] for e, f in
                               zip(child_edges, child_edges[1:] + child_edges[:1]))
                    for e in child_edges:   # the state carried down to the next cut
                        assert e.wide == ()
                        assert e.mag == [abs(v) for v in e.f]
                        assert len(e.phase) == len(e.f) - 1
                        for i, step in enumerate(e.phase):
                            assert abs(step - cmath.phase(e.f[i + 1] / e.f[i])) < 1e-12
                            assert abs(step) < 0.5 * math.pi
                    assert c == count_zeros(p, ch, child)
                nxt.extend(children)
            level = nxt
        assert vertical == {True, False}


def _depth_first(fn, edge):
    """Reference: bisect each step of an edge on its own, depth first, one point a call.

    Returns the edge's samples with the midpoints inserted and the depth of
    the deepest split.
    """
    z, deepest = [edge.z[0]], 0

    def split(za, fa, zb, fb, depth):
        nonlocal deepest
        if abs(cmath.phase(fb / fa)) < 0.5 * math.pi:
            z.append(zb)
            return
        deepest = max(deepest, depth + 1)
        zm = 0.5 * (za + zb)
        fm = fn(zm)
        split(za, fa, zm, fm, depth + 1)
        split(zm, fm, zb, fb, depth + 1)

    for i in range(len(edge.z) - 1):
        split(edge.z[i], edge.f[i], edge.z[i + 1], edge.f[i + 1], 0)
    return z, deepest


class TestResolve:
    """Wide steps are bisected in rounds, one det lambda call for all four edges."""

    @pytest.mark.parametrize("l, pole", [
        (0, 3.0802868857096795 - 0.003693967328605281j),
        (0, 9.24742800027077 - 0.03150504620697397j),
        (5, 3.635604255785985 - 2.3689752879144055j),
        (5, 9.178035661750446 - 0.025440106693191022j),
    ])
    @pytest.mark.parametrize("offset", [1e-6, 1e-4])
    def test_rounds_insert_the_depth_first_samples(self, l, pole, offset):
        # the bottom edge passes just under the pole, the top edge near others
        ch = Channel(l, 1.0)
        calls = []

        def fn(k):
            calls.append(np.size(k))
            return det_lambda_balanced(DELTA, ch, k)

        region = SearchRegion(round(pole.real) - 1.0, round(pole.real) + 1.0,
                              pole.imag - offset, 0.0)
        edges = pf._boundary(fn, region)
        # the reference takes one point at a time, through the array path
        reference = [_depth_first(lambda k: complex(fn(np.array([k]))[0]), edge)
                     for edge in edges]
        del calls[:]
        resolved, _ = pf._winding(fn, region, edges)
        assert [edge.z for edge in resolved] == [z for z, _ in reference]
        rounds = max(depth for _, depth in reference)
        assert rounds >= 3
        assert len(calls) == rounds   # one call per round, every edge in it

    def test_midpoint_under_the_floor_raises(self):
        # a zero exactly at the midpoint of a bottom-edge step
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        k0 = complex(1.0 + 3.5 / 8, -1.0)
        fn = lambda k: k - k0
        edges = pf._boundary(fn, region)
        assert edges[0].wide == (3,)
        with pytest.raises(BoundaryZero, match="below the floor"):
            pf._winding(fn, region, edges)

    def test_exact_zero_on_a_short_edge_raises(self):
        # densifying a two-sample edge puts a sample on the zero of f
        k0 = complex(1.5, -1.0)
        fn = lambda k: k - k0
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        c = region.corners()
        short = pf._Edge(c[:2], [fn(c[0]), fn(c[1])], [0.5, 0.5], [math.pi], (0,))
        others = tuple(pf._edge(fn, c[i], c[(i + 1) % 4]) for i in (1, 2, 3))
        with pytest.raises(BoundaryZero):
            pf._winding(fn, region, (short,) + others)

    def test_sign_jump_hits_the_depth_cap(self):
        # |f| = 1 everywhere, and f changes sign at a non-dyadic Re k: the
        # step across the jump stays wide however often it is halved
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        fn = lambda k: np.where(k.real < 1.0 + 1.0 / 3.0, -1.0, 1.0).astype(complex)
        edges = pf._boundary(fn, region)
        assert edges[0].wide and edges[2].wide
        with pytest.raises(BoundaryZero, match="cannot be resolved"):
            pf._winding(fn, region, edges)


def _scalar_newton(p, ch, k):
    """Reference: the same damped Newton rules, one seed and one point at a time."""
    f = det_lambda_balanced(p, ch, k)
    for _ in range(100):
        if abs(f) * math.exp(-ch.radius * k.imag) < 1e-12:
            return k
        h = 1e-6 * max(1.0, abs(k))
        deriv = (det_lambda_balanced(p, ch, k + h) - det_lambda_balanced(p, ch, k - h)) / (2.0 * h)
        step = -f / deriv
        if abs(step) < 1e-12 * max(1.0, abs(k)):
            return k + step
        for t in 0.5 ** np.arange(11):
            f_trial = det_lambda_balanced(p, ch, k + t * step)
            if abs(f_trial) < abs(f):
                k, f = k + t * step, f_trial
                break
        else:
            raise NonConvergence(k)
    raise NonConvergence(k)


class TestRefine:
    def test_exact_seed_is_fixed_point(self):
        k, residual = refine(DELTA, CH, FIRST_POLE_ALPHA50)
        assert abs(k - FIRST_POLE_ALPHA50) < 1e-10
        assert residual < 1e-11

    def test_converges_from_offset_seed(self):
        k0 = 50 * math.pi + math.pi / 2
        seed = complex(k0 + 0.09, -0.05)
        k, residual = refine(DELTA_PRIME, CH, seed)
        assert abs(k - (158.71310560766085 - 0.003937124682068256j)) < 1e-9
        assert residual < 1e-10

    def test_no_zero_means_no_convergence(self):
        with pytest.raises(NonConvergence):
            refine(FREE, CH, 3.0 - 1.0j)

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            refine(DELTA, CH, 0)
        with pytest.raises(ValueError):
            refine(DELTA, CH, np.array([3.0 - 0.1j, 0j]))

    def test_scalar_seed_gives_python_numbers(self):
        k, residual = refine(DELTA, CH, 3.0 - 0.1j)
        assert type(k) is complex and type(residual) is float

    def test_array_matches_scalar(self):
        # the last seed, next to k = 0, is stuck at a residual floor
        seeds = np.array([FIRST_POLE_ALPHA50 + 0.05, 3.0 - 0.1j, 0.5 - 10j, 40 - 40j,
                          100 - 1e-4j, 1e-3 - 1e-3j])
        roots, residuals = refine(DELTA, CH, seeds)
        assert roots.shape == residuals.shape == seeds.shape
        for seed, k, residual in zip(seeds[:-1], roots, residuals):
            want, want_residual = refine(DELTA, CH, complex(seed))
            assert abs(k - want) <= 1e-12 * abs(want)
            assert residual < 1e-9 and want_residual < 1e-9
            assert abs(k - _scalar_newton(DELTA, CH, complex(seed))) <= 1e-11 * abs(want)
        with pytest.raises(NonConvergence):
            refine(DELTA, CH, complex(seeds[-1]))
        assert np.isnan(roots[-1]) and np.isnan(residuals[-1])

    def test_array_without_zeros_is_all_nan(self):
        roots, residuals = refine(FREE, CH, np.array([[3.0 - 1.0j], [5.0 - 2.0j]]))
        assert roots.shape == (2, 1)
        assert np.isnan(roots).all() and np.isnan(residuals).all()


class TestFindPoles:
    def test_free_is_empty(self):
        assert find_poles(FREE, CH, re_max=25.0) == []

    def test_intermediate_plateau(self):
        poles = find_poles(INTERMEDIATE, CH, re_max=40.0, im_min=-1.0)
        tail = [p for p in poles if p.k.real > 25.0]
        assert tail
        target = -0.5 * math.log(1.5)
        for pole in tail:
            assert abs(pole.k.imag - target) < 0.1 * abs(target)

    def test_delta_prime_width_law(self):
        poles = find_poles(DELTA_PRIME, CH, re_max=52 * math.pi, im_min=-1.0)
        k0 = 50 * math.pi + math.pi / 2
        nearest = min(poles, key=lambda p: abs(p.k.real - k0))
        want = -1.0 / (0.1 * k0) ** 2
        assert abs(nearest.k.imag - want) < 0.1 * abs(want)

    def test_guarantees(self):
        poles = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        assert poles
        res = sorted(p.k.real for p in poles)
        assert res == [p.k.real for p in poles]  # sorted by Re k
        for pole in poles:
            assert abs(det_lambda(DELTA, CH, pole.k)) < 1e-9
            assert 1e-3 <= pole.k.real <= 40.0 and -3.0 <= pole.k.imag <= 0.0

    def test_matches_independent_count(self):
        poles = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        n = count_zeros(DELTA, CH, SearchRegion(1e-3, 40.0, -3.0, 0.0))
        assert len(poles) == n

    def test_det_budget_per_pole(self, monkeypatch):
        # every contour sample is computed once: subdivision samples only cuts.
        # Points are counted, not calls, so batching cannot hide evaluations.
        points = [0]

        def counted(p, ch, k):
            points[0] += np.size(k)
            return det_lambda_balanced(p, ch, k)

        monkeypatch.setattr(pf, "det_lambda_balanced", counted)
        poles = find_poles(DELTA, CH, re_max=400.0)
        assert len(poles) == 127
        assert points[0] <= 100 * len(poles)

    def test_newton_points_per_pole(self, monkeypatch):
        # moment seeds and full steps that carry their next derivative: ~9 points
        # per pole, against ~18 for scalar Newton from the cell centroids
        points, inside = [0], [False]
        refine_, det = pf.refine, pf.det_lambda_balanced

        def counted_refine(*args):
            inside[0] = True
            try:
                return refine_(*args)
            finally:
                inside[0] = False

        def counted_det(p, ch, k):
            points[0] += np.size(k) if inside[0] else 0
            return det(p, ch, k)

        monkeypatch.setattr(pf, "refine", counted_refine)
        monkeypatch.setattr(pf, "det_lambda_balanced", counted_det)
        poles = find_poles(DELTA, CH, re_max=400.0)
        assert len(poles) == 127
        assert points[0] <= 12 * len(poles)

    @pytest.mark.parametrize("p, l", [(DELTA, 0), (INTERMEDIATE, 1), (DELTA_PRIME, 5)],
                             ids=["delta-l0", "intermediate-l1", "delta-prime-l5"])
    def test_moment_is_near_the_root(self, p, l, monkeypatch):
        # the centroid, which seeds a cell whose moment is off, reaches 0.5 diagonals
        cells = []
        seed_of = pf._seed

        def recorded(region, edges):
            cells.append((region, seed_of(region, edges)))
            return cells[-1][1]

        monkeypatch.setattr(pf, "_seed", recorded)
        poles = find_poles(p, Channel(l, 1.0), re_max=400.0)
        assert len(cells) >= len(poles)
        for region, seed in cells:
            (root,) = [q.k for q in poles if region.contains(q.k)]
            assert abs(seed - root) <= 0.05 * abs(complex(region.width, region.height))

    def test_failed_cell_is_split_and_refined_again(self, monkeypatch):
        want = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        refine_, calls = pf.refine, []

        def first_cell_fails(p, ch, seeds):
            roots, residuals = refine_(p, ch, seeds)
            if not calls:
                roots[0] = residuals[0] = np.nan
            calls.append(len(seeds))
            return roots, residuals

        monkeypatch.setattr(pf, "refine", first_cell_fails)
        got = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        assert calls == [len(want), 1]
        assert len(got) == len(want)
        assert all(abs(a.k - b.k) < 1e-12 * abs(b.k) for a, b in zip(got, want))

    def test_cell_failing_twice_raises(self, monkeypatch):
        refine_ = pf.refine

        def outside(p, ch, seeds):
            roots, residuals = refine_(p, ch, seeds)
            return roots + 1000.0, residuals   # every root lands outside its cell

        monkeypatch.setattr(pf, "refine", outside)
        with pytest.raises(NonConvergence):
            find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)

    def test_determinism(self):
        a = find_poles(INTERMEDIATE, CH, re_max=30.0, im_min=-1.5)
        b = find_poles(INTERMEDIATE, CH, re_max=30.0, im_min=-1.5)
        assert a == b  # bitwise-identical dataclasses

    def test_pair_symmetry(self):
        for p in (DELTA, INTERMEDIATE):
            for pole in find_poles(p, CH, re_max=30.0, im_min=-2.0):
                assert abs(det_lambda(p, CH, -pole.k.conjugate())) < 1e-8

    def test_separated_has_no_off_axis_poles(self):
        assert find_poles(GpiParams(0, 0, 2), CH, re_max=30.0, im_min=-2.0) == []

    @pytest.mark.xfail(strict=True, raises=BoundaryZero, reason=(
        "an embedded eigenvalue 1e-7/R above the lowered top edge pulls |det lambda| "
        "there under the floor; separated couplings need their own search"))
    def test_separated_search_returns_certified_poles(self):
        poles = find_poles(GpiParams(4, 1, 0), CH, 20.0)
        assert all(pole.k.imag < 0.0 and pole.residual < 1e-9 for pole in poles)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            find_poles(DELTA, CH, re_max=1e-4)
        with pytest.raises(ValueError):
            find_poles(DELTA, CH, re_max=10.0, im_min=0.0)
        with pytest.raises(ValueError):
            find_poles(DELTA, CH, re_max=math.inf)


class TestRegressions:
    """Searches where Newton from a cell centroid ran off and the search gave up."""

    @pytest.mark.parametrize("p, l, re_max, n", [
        (DELTA, 5, 60.0, 18), (INTERMEDIATE, 1, 400.0, 127), (DELTA_PRIME, 5, 400.0, 128),
    ], ids=["delta-l5", "intermediate-l1", "delta-prime-l5"])
    def test_certified_list_matches_count(self, p, l, re_max, n):
        ch = Channel(l, 1.0)
        poles = find_poles(p, ch, re_max)
        window = SearchRegion(1e-3, re_max, pf.default_im_min(re_max, 1.0), 0.0)
        assert len(poles) == count_zeros(p, ch, window) == n
        for pole in poles:
            assert pole.residual < 1e-9
            assert abs(det_lambda(p, ch, pole.k)) < 1e-9

    def test_delta_l5_low_poles(self):
        # the two poles below the lattice make index_poles raise AmbiguousIndex
        # on this list, so it is checked unindexed
        poles = find_poles(DELTA, Channel(5, 1.0), 60.0)
        assert len(poles) == 18
        assert all(pole.residual < 1e-9 for pole in poles)
        for want in (1.7732297568788675 - 3.4128463437592464j,
                     3.635604255785985 - 2.3689752879144095j):
            assert min(abs(pole.k - want) for pole in poles) < 1e-9


class TestDoubleZero:
    @pytest.mark.xfail(strict=True, raises=BoundaryZero, reason=(
        "a double zero within one sample step of a cell edge turns the phase by "
        "nearly 2 pi between two samples, which the pi/2 rule does not see; the "
        "cell counts 1 and no clean split line is found"))
    def test_double_zero_reports_clustered_zeros(self, monkeypatch):
        k0 = 3.3 - 0.7j
        det = lambda p, ch, k: (k - k0) ** 2 * (k + 5)
        monkeypatch.setattr(pf, "det_lambda_balanced", det)
        monkeypatch.setattr(pf, "det_lambda", det)
        with pytest.raises(ClusteredZeros):
            find_poles(DELTA, CH, 6.0, -2.0)


class TestIndexPoles:
    def test_delta_prime_lattice(self):
        poles = find_poles(DELTA_PRIME, CH, re_max=52 * math.pi, im_min=-1.0)
        poles = index_poles(poles, DELTA_PRIME, CH)
        k0 = 50 * math.pi + math.pi / 2
        nearest = min(poles, key=lambda p: abs(p.k.real - k0))
        assert nearest.index == 50

    def test_delta_lattice(self):
        poles = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        poles = index_poles(poles, DELTA, CH)
        target = 10 * math.pi + 0.75 * math.pi
        nearest = min(poles, key=lambda p: abs(p.k.real - target))
        assert nearest.index == 10

    def test_indices_strictly_increase(self):
        poles = find_poles(INTERMEDIATE, CH, re_max=35.0, im_min=-1.0)
        poles = index_poles(poles, INTERMEDIATE, CH)
        idx = [p.index for p in poles]
        assert all(b > a for a, b in zip(idx, idx[1:]))

    def test_empty_passthrough(self):
        assert index_poles([], DELTA, CH) == []

    def test_collision_raises(self):
        poles = find_poles(DELTA, CH, re_max=12.0, im_min=-2.0)
        duplicated = poles + poles  # two poles per lattice point
        with pytest.raises(AmbiguousIndex):
            index_poles(duplicated, DELTA, CH)
