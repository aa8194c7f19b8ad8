"""Pole search tests: winding counts, refinement, indexing, symmetries."""

import bisect
import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import winterres.polefinder as pf
from winterres import (AmbiguousIndex, BoundaryZero, Channel, ClusteredZeros, GpiParams,
                       NonConvergence, SearchRegion, WinterresError, count_zeros, det_lambda,
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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 13: zeros just outside the left edge turn det lambda along one "
        "sampled step by 2 pi less than its end values show (-6.21 rad against +0.07 "
        "for two zeros 0.002 outside, -4.77 against +1.51 for one 0.001 outside), so "
        "the pi/2 rule does not bisect it and the count reads 1"))
    @pytest.mark.parametrize("p, ch, region", [
        (GpiParams(-10.153856357759496, -0.380926874988312, 0.36348759065265357),
         Channel(1, 0.5), SearchRegion(0.002, 80.0, -17.37775890822787, -1.0)),
        # the zero at k = -2i; a 200,000-point dense count gives 0, and so does
        # the same region from re_min = 0.002
        (GpiParams(3, 1, 1), Channel(1, 1.0),
         SearchRegion(0.001, 5.0, -7.99573227355399, -1e-7)),
    ], ids=["two-zeros", "one-zero"])
    def test_zeros_just_outside_an_edge_are_not_counted(self, p, ch, region):
        assert count_zeros(p, ch, region) == 0

    def test_boundary_zero_raises(self):
        # bottom edge running exactly through a pole: the count answers only
        # for the rectangle it was given, so it raises instead of guessing
        region = SearchRegion(2.5, 3.5, FIRST_POLE_ALPHA50.imag, 0.0)
        with pytest.raises(BoundaryZero):
            count_zeros(DELTA, CH, region)

    def test_given_sample_under_the_floor_raises(self, monkeypatch):
        # a zero on the lower left corner, a given sample, or 1e-12 off it: the
        # floor against its neighbours catches it before any bisection
        for k0 in (2 - 1j, complex(2 - 1e-12, -1)):
            monkeypatch.setattr(pf, "det_lambda_balanced", lambda p, ch, k: (k - k0) * (k + 5))
            with pytest.raises(BoundaryZero, match="zero of det lambda on the boundary"):
                count_zeros(DELTA, CH, SearchRegion(2, 6, -1, 0))


def _phases(zf):
    """The phase f turns through on each step of samples z over values f."""
    return np.angle(zf[1, 1:] / zf[1, :-1])


def _assert_carried(child, loop):
    """A child's loop closes, runs through its corners and is resolved."""
    assert loop._fields == ("zf", "corners")   # samples, values and corners alone
    assert loop.zf[0, loop.corners].tolist() == child.corners()
    assert loop.zf[:, -1].tolist() == loop.zf[:, 0].tolist()
    assert (np.abs(_phases(loop.zf)) < 0.5 * math.pi).all()


def _sides(loop):
    """A loop's four sides (bottom, right, top, left), each with both its corners."""
    ends = list(loop.corners) + [loop.zf.shape[1] - 1]
    return [loop.zf[:, a:b + 1] for a, b in zip(ends, ends[1:])]


def _fresh_sides(fn, region):
    """A region's four sides, freshly sampled, each with both its corners."""
    c = region.corners()
    zf, starts = pf._sample(fn, [(c[i], c[(i + 1) % 4]) for i in range(4)])
    return np.split(zf, starts[1:-1], axis=1)


def _resolve_one(fn, region, sides):
    """The (region, loop, count, seeds) of a region counted from its four given sides.

    The sides close into a loop as ``_boundary`` closes them: each but the
    left one without its last sample.
    """
    zf = np.concatenate([side[:, :-1] for side in sides[:3]] + [sides[3]], axis=1)
    corners = np.cumsum([side.shape[1] - 1 for side in sides[:3]])
    counted = pf._resolve(fn, zf, np.array([0, zf.shape[1]]), corners[None])
    return pf._strips([region], *counted)[0]


def _zeros_at(*zeros):
    """A polynomial with the given simple zeros, evaluated elementwise."""
    return lambda k: np.prod([k - z for z in zeros], axis=0)


def _cut_once(side, point, key):
    """Reference: split a side at one point (z, f) on it, as a bisection does."""
    z = side[0].tolist()
    i = bisect.bisect_left(z, key(point[0]), key=key)
    j = bisect.bisect_right(z, key(point[0]), key=key)
    point = np.array(point)[:, None]
    return (np.concatenate([side[:, :i], point], axis=1),
            np.concatenate([point, side[:, j:]], axis=1))


class TestSample:
    SEGMENTS = [(3.0 - 2.5j, 3.0 - 0.0005j), (7.3 - 0.0005j, 7.3 - 2.5j),   # vertical
                (1e-3 - 3.1j, 40.0 - 3.1j), (2000.0 + 0j, 1e-3 + 0j),      # horizontal
                (4.0 - 1e-7j, 4.7 - 1e-7j), (9.9 - 13.2j, 0.3 - 13.2j)]

    @staticmethod
    def _python(a, b):
        """Reference: the side from a to b in Python complex arithmetic."""
        n = max(8, int(abs(b - a) / 0.4) + 1)
        return [a] + [a + (b - a) * j / n for j in range(1, n)] + [b]

    def test_points_are_the_python_sum(self):
        rng = np.random.default_rng(7)
        segments = list(self.SEGMENTS)
        for _ in range(200):   # random vertical and horizontal sides
            a, length = rng.uniform(1e-3, 50.0), rng.uniform(-40.0, 40.0)
            across = rng.uniform(-20.0, 0.0)
            if rng.random() < 0.5:
                segments.append((complex(across + 30, -a), complex(across + 30, -a + length)))
            else:
                segments.append((complex(a, across), complex(a + length, across)))
        zf, starts = pf._sample(lambda k: 2 * k, segments)
        sides = np.split(zf, starts[1:-1], axis=1)
        assert len(sides) == len(segments)
        for side, (a, b) in zip(sides, segments):
            # bitwise, zero signs included
            assert side[0].tobytes() == np.array(self._python(a, b)).tobytes()
            assert side[1].tobytes() == (2 * side[0]).tobytes()


class TestSubdivide:
    """Children counted from the cuts alone agree with counts sampled afresh."""

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
        _, loop, count, _ = pf._boundary(fn, region)
        assert count == count_zeros(p, ch, region)
        vertical = set()   # orientation of every cut made
        level = [(region, loop, count)]
        for _ in range(3):   # grandchildren inherit pieces of earlier cuts
            nxt = []
            for parent, loop, count in level:
                children = pf._subdivide(fn, parent, loop, count)
                vertical.add(children[0][0].re_max < parent.re_max)
                for child, child_loop, c, _ in children:
                    _assert_carried(child, child_loop)
                    assert c == count_zeros(p, ch, child)
                nxt.extend(cell[:3] for cell in children)
            level = nxt
        assert vertical == {True, False}

    # zeros stacked along Im k in a tall cell; none lies near a cut at frac 0.5
    STACKED = [5.1 - 0.45j - 0.87j * j for j in range(8)]

    @staticmethod
    def _split(fn, region, count):
        """Split a freshly counted region, recording the points of every det lambda call."""
        calls = []

        def recorded(k):
            calls.append(k)
            return fn(k)

        _, loop, got, _ = pf._boundary(fn, region)
        assert got == count
        return pf._subdivide(recorded, region, loop, count), calls

    @pytest.mark.parametrize("fn, region, count", [
        (lambda k: det_lambda_balanced(DELTA, CH, k), SearchRegion(4.0, 40.0, -3.0, -0.0005), 11),
        (_zeros_at(*STACKED), SearchRegion(4.0, 6.0, -8.0, -0.1), 8),
    ], ids=["wide-delta", "tall-stacked"])
    def test_strips_partition_the_parent(self, fn, region, count):
        # a cell of c >= 6 zeros is cut into c // 2 strips across its longer side in one pass
        strips, calls = self._split(fn, region, count)
        m = count // 2
        assert len(strips) == m >= 3
        vertical = region.width >= region.height
        lo, hi = ("re_min", "re_max") if vertical else ("im_min", "im_max")
        start, side = getattr(region, lo), getattr(region, hi) - getattr(region, lo)
        at = [start + (j / m) * side for j in range(1, m)]   # frac 0.5: equal strips
        assert [getattr(s, lo) for s, *_ in strips] == [getattr(region, lo)] + at
        assert [getattr(s, hi) for s, *_ in strips] == at + [getattr(region, hi)]
        for strip, *_ in strips:   # the other side is the parent's
            assert ((strip.im_min, strip.im_max) == (region.im_min, region.im_max) if vertical
                    else (strip.re_min, strip.re_max) == (region.re_min, region.re_max))
        for strip, strip_loop, c, _ in strips:
            _assert_carried(strip, strip_loop)
            assert c == pf._boundary(fn, strip)[2]
        assert sum(cell[2] for cell in strips) == count
        # the first call samples all m - 1 cuts, each as a freshly sampled edge would be
        span = region.height if vertical else region.width
        per_cut = max(8, int(span / 0.4) + 1) + 1
        first = calls[0].reshape(m - 1, per_cut)
        across = first.real if vertical else first.imag
        assert (across == np.array(at)[:, None]).all()

    @pytest.mark.parametrize("fn, region, levels", [
        (lambda k: det_lambda_balanced(DELTA, CH, k), SearchRegion(4.0, 14.0, -3.0, -0.0005), 3),
        (lambda k: det_lambda_balanced(DELTA, CH, k), SearchRegion(9.0, 13.0, -6.0, -0.0005), 3),
        (_zeros_at(*STACKED), SearchRegion(4.0, 6.0, -8.0, -0.1), 1),
    ], ids=["wide", "tall", "tall-stacked"])
    def test_short_sides_get_the_halved_samples(self, fn, region, levels, monkeypatch):
        # a strip's short sides, pieces of its parent's, have every step halved until
        # they have 8 steps or more
        short, resolve = [], pf._resolve

        def recorded(fn, zf, offsets, corners):
            out = resolve(fn, zf, offsets, corners)
            loop = lambda zf, offsets, corners, s: pf._Loop(zf[:, offsets[s]:offsets[s + 1]],
                                                            [0, *corners[s]])
            for s in range(len(corners)):
                given, resolved = loop(zf, offsets, corners, s), loop(*out[:3], s)
                short.extend((side, got) for side, got in zip(_sides(given), _sides(resolved))
                             if side.shape[1] < 9)   # a side of fewer than 8 steps
            return out

        _, loop, count, _ = pf._boundary(fn, region)
        level = [(region, loop, count)]
        monkeypatch.setattr(pf, "_resolve", recorded)
        for _ in range(levels):
            level = [cell[:3] for parent in level for cell in pf._subdivide(fn, *parent)]
        assert len(short) >= 4
        one = lambda k: complex(fn(np.array([k]))[0])
        for given, resolved in short:
            assert resolved[0].tolist() == _resolved_side(one, given)[0]

    def test_multi_point_cut_matches_successive_cuts(self):
        fn = lambda k: det_lambda_balanced(DELTA, CH, k)
        region = SearchRegion(4.0, 40.0, -3.0, -0.0005)
        bottom = _sides(pf._boundary(fn, region)[1])[0]
        xs = [7.3, 7.31, 7.32,              # three points inside one step
              19.0,
              bottom[0, 40].real,           # a point on a sample, which gives way to it
              33.333]
        cuts, offsets = pf._sample(fn, [(complex(x, region.im_min), complex(x, region.im_max))
                                        for x in xs])
        points = [cuts[:, i] for i in offsets[:-1]]
        key = lambda z: z.real
        want, rest = [], bottom
        for point in points:
            piece, rest = _cut_once(rest, point, key)
            want.append(piece)
        want.append(rest)
        base, length = np.zeros((len(xs) + 1, 3), int), np.zeros((len(xs) + 1, 3), int)
        pf._cut(base, length, 0, key(bottom[0]), np.array(xs), bottom.shape[1] + offsets[:-1])
        runs = pf._runs(base.ravel(), np.ones(base.size, int), length.ravel())
        got = np.split(np.concatenate([bottom, cuts], axis=1)[:, runs],
                       np.cumsum(length.sum(axis=1))[:-1], axis=1)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert sum(piece.shape[1] for piece in want) == bottom.shape[1] - 1 + 2 * len(xs)

    def test_neighbours_agree_on_their_shared_cut(self, monkeypatch):
        # both strips by a cut bisect their own copy of it, one walked back: the
        # copies must agree, sample for sample, in z and in f
        splits, subdivide = [], pf._subdivide

        def recorded_split(fn, region, loop, count):
            strips = subdivide(fn, region, loop, count)
            splits.append((region, strips))
            return strips

        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        for p, l, re_max in [(DELTA, 0, 400.0), (DELTA_PRIME, 5, 400.0), (DELTA, 5, 60.0)]:
            find_poles(p, Channel(l, 1.0), re_max)
        shared = []
        for region, strips in splits:
            vertical = strips[0][0].re_max < region.re_max
            for (_, below, _, _), (_, above, _, _) in zip(strips, strips[1:]):
                walked = _sides(below)[1 if vertical else 2]
                assert walked[:, ::-1].tobytes() == _sides(above)[3 if vertical else 0].tobytes()
                shared.append(vertical)
        assert len(shared) >= 100 and set(shared) == {True, False}

    def test_zero_on_a_cut_shifts_every_cut(self):
        # an exact zero on the first cut at frac 0.5 makes the split retry at 0.53125
        region = SearchRegion(1.0, 10.0, -2.0, -0.2)
        on_cut = complex(region.re_min + (1 / 3) * region.width, -0.77)
        fn = _zeros_at(1.7 - 0.5j, 2.9 - 1.1j, on_cut, 5.3 - 0.6j, 8.1 - 1.3j, 9.2 - 0.4j)
        strips, calls = self._split(fn, region, 6)
        frac = 0.53125
        at = [region.re_min + ((j + 2.0 * frac - 1.0) / 3) * region.width for j in (1, 2)]
        assert [s.re_min for s, *_ in strips] == [region.re_min] + at
        assert [s.re_max for s, *_ in strips] == at + [region.re_max]
        assert [cell[2] for cell in strips] == [3, 1, 2]
        for strip, strip_loop, c, _ in strips:
            _assert_carried(strip, strip_loop)
            assert c == pf._boundary(fn, strip)[2]
        assert on_cut.real in {k.real for k in calls[0]}   # the first try sampled the zero's line


def _depth_first(fn, side):
    """Reference: bisect each step of a side on its own, depth first, one point a call.

    Returns the side's samples with the midpoints inserted and the depth of
    the deepest split.
    """
    zs, fs = side.tolist()
    z, deepest = [zs[0]], 0

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

    for i in range(len(zs) - 1):
        split(zs[i], fs[i], zs[i + 1], fs[i + 1], 0)
    return z, deepest


def _halved(z):
    """Reference: halve every step of a side until it has 8 steps or more."""
    z = list(z)
    while len(z) < 9:
        z = [w for a, b in zip(z, z[1:]) for w in (a, 0.5 * (a + b))] + z[-1:]
    return z


def _resolved_side(one, side):
    """Reference: a side's samples after its count, one point a call of one.

    A short side is halved, then bisected depth first.  Returns the
    samples and the depth of the deepest phase split.
    """
    known = dict(zip(*side.tolist()))
    dense = _halved(side[0].tolist())
    values = [known[w] if w in known else one(w) for w in dense]
    return _depth_first(one, np.array([dense, values]))


def _resolved(fn, sides):
    """Reference: the loop through four sides after its count, closed, and the deepest split."""
    one = lambda k: complex(fn(np.array([k]))[0])
    resolved = [_resolved_side(one, side) for side in sides]
    return ([w for z, _ in resolved for w in z[:-1]] + [sides[0][0, 0]],
            max(depth for _, depth in resolved))


class TestResolve:
    """Wide steps are bisected in rounds, one det lambda call for every side."""

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
        sides = _fresh_sides(fn, region)
        # the reference takes one point at a time, through the array path
        reference = [_depth_first(lambda k: complex(fn(np.array([k]))[0]), side) for side in sides]
        del calls[:]
        resolved = _resolve_one(fn, region, sides)[1]
        want = [w for z, _ in reference for w in z[:-1]] + [sides[0][0, 0]]   # closed again
        assert resolved.zf[0].tolist() == want
        rounds = max(depth for _, depth in reference)
        assert rounds >= 3
        assert len(calls) == rounds   # one call per round, every side in it

    def test_short_sides_share_the_rounds(self):
        # sides of 1, 3 and 5 steps; the left side, sampled afresh, passes 1e-3 from a zero
        calls = []
        zero = _zeros_at(complex(1.0 - 1e-3, -0.77))

        def fn(k):
            calls.append(np.array(k))
            return zero(k)

        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        c = region.corners()
        sides = [[c[0], c[1]],
                 [c[1], 2.0 - 0.95j, 2.0 - 0.75j, c[2]],   # steps 0.05, 0.2 and 0.25
                 [c[2] + (c[3] - c[2]) * j / 5 for j in range(5)] + [c[3]]]
        sides = ([np.array([z, fn(np.array(z))]) for z in sides]
                 + [pf._sample(fn, [(c[3], c[0])])[0]])
        want, deepest = _resolved(fn, sides)
        del calls[:]
        _, resolved, count, _ = _resolve_one(fn, region, sides)
        assert count == 0
        assert resolved.zf[0].tolist() == want
        assert 2.0 - 0.975j in want   # every step of a short side is halved, the 0.05 one too
        # halving shares the first round's call with the wide steps of the left side
        first = calls[0].tolist()
        assert {1.5 - 1.0j, 2.0 - 0.85j, 2.0 - 0.625j} <= set(first)
        assert any(k.real == 1.0 for k in first)
        assert len(calls) == max(3, deepest)   # a one-step side takes three rounds

    def test_midpoint_under_the_floor_raises(self):
        # a zero exactly at the midpoint of a bottom-edge step
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        k0 = complex(1.0 + 3.5 / 8, -1.0)
        fn = lambda k: k - k0
        sides = _fresh_sides(fn, region)
        assert [np.flatnonzero(np.abs(_phases(side)) >= 0.5 * math.pi).tolist()
                for side in sides] == [[3], [], [], []]
        with pytest.raises(BoundaryZero, match="below the floor"):
            _resolve_one(fn, region, sides)

    def test_exact_zero_on_a_short_edge_raises(self):
        # the first round bisects the one step of a two-sample side, on the zero of f
        k0 = complex(1.5, -1.0)
        fn = lambda k: k - k0
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        c = region.corners()
        short = np.array([c[:2], [fn(c[0]), fn(c[1])]])
        others = _fresh_sides(fn, region)[1:]
        with pytest.raises(BoundaryZero, match="below the floor"):
            _resolve_one(fn, region, [short] + others)

    def test_sign_jump_hits_the_depth_cap(self):
        # |f| = 1 everywhere, and f changes sign at a non-dyadic Re k: the
        # step across the jump stays wide however often it is halved
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        fn = lambda k: np.where(k.real < 1.0 + 1.0 / 3.0, -1.0, 1.0).astype(complex)
        sides = _fresh_sides(fn, region)
        bottom, _, top, _ = sides
        assert (np.abs(_phases(bottom)) >= 0.5 * math.pi).any()
        assert (np.abs(_phases(top)) >= 0.5 * math.pi).any()
        with pytest.raises(BoundaryZero, match="cannot be resolved"):
            _resolve_one(fn, region, sides)


def _inside(region, z):
    return region.re_min < z.real < region.re_max and region.im_min < z.imag < region.im_max


@st.composite
def _rectangles_with_zeros(draw):
    """A rectangle and simple zeros 0.5 apart or more, none within 1e-3 of a side's line."""
    re_min, im_max = draw(st.floats(0.5, 10.0)), draw(st.floats(-3.0, 0.0))
    region = SearchRegion(re_min, re_min + draw(st.floats(0.5, 12.0)),
                          im_max - draw(st.floats(0.5, 6.0)), im_max)
    zeros = []
    for _ in range(draw(st.integers(0, 10))):
        z = complex(draw(st.floats(region.re_min - 1.0, region.re_max + 1.0)),
                    draw(st.floats(region.im_min - 1.0, region.im_max + 1.0)))
        if (min(abs(z.real - region.re_min), abs(z.real - region.re_max),
                abs(z.imag - region.im_min), abs(z.imag - region.im_max)) >= 1e-3
                and all(abs(z - w) >= 0.5 for w in zeros)):
            zeros.append(z)
    return region, zeros


class TestExactZeros:
    """Counts, strip loops and seeds agree with the simple zeros a polynomial has inside.

    Double and clustered zeros are left out: they hit the aliasing defect
    that TestDoubleZero pins.
    """

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_rectangles_with_zeros())
    def test_counts_match_the_zeros_inside(self, case):
        region, zeros = case
        fn = _zeros_at(-5.0, *zeros)   # -5 lies outside every rectangle
        _, loop, count, _ = pf._boundary(fn, region)
        assert count == sum(_inside(region, z) for z in zeros)
        if count > 2:
            for strip, strip_loop, c, seeds in pf._subdivide(fn, region, loop, count):
                _assert_carried(strip, strip_loop)
                assert all(side.shape[1] > 8 for side in _sides(strip_loop))   # 8 steps or more
                inside = [z for z in zeros if _inside(strip, z)]
                assert c == len(inside)
                assert len(seeds) == (c if c <= 2 else 0)
                if c <= 2:   # each seed within 5% of the strip's diagonal of a zero of its own
                    reach = 0.05 * abs(complex(strip.width, strip.height))
                    assert any(all(abs(seed - z) <= reach for seed, z in zip(seeds, order))
                               for order in itertools.permutations(inside))


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
        with pytest.raises(NonConvergence, match="no convergence after 100 damped steps"):
            refine(FREE, CH, 3.0 - 1.0j)

    def test_flat_function_has_a_vanishing_derivative(self, monkeypatch):
        monkeypatch.setattr(pf, "det_lambda_balanced", lambda p, ch, k: np.ones_like(k))
        with pytest.raises(NonConvergence, match="vanishing derivative"):
            refine(DELTA, CH, 3.0 - 0.1j)

    def test_seed_next_to_the_origin_is_stuck(self):
        with pytest.raises(NonConvergence, match="stuck at residual floor"):
            refine(DELTA, CH, 1e-3 - 1e-3j)

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
        # a contour sample is computed once, but for the midpoints of cut steps,
        # which both strips by a cut bisect: subdivision samples the cuts and
        # little else.  Points are counted, not calls, so batching cannot hide
        # evaluations.
        points = [0]

        def counted(p, ch, k):
            points[0] += np.size(k)
            return det_lambda_balanced(p, ch, k)

        monkeypatch.setattr(pf, "det_lambda_balanced", counted)
        poles = find_poles(DELTA, CH, re_max=400.0)
        assert len(poles) == 127
        assert points[0] <= 45 * len(poles)

    @staticmethod
    def _calls(monkeypatch, p, re_max):
        """The poles of a search and the number of det lambda array calls it made."""
        calls, det = [0], pf.det_lambda_balanced

        def counted_det(p, ch, k):
            calls[0] += 1
            return det(p, ch, k)

        monkeypatch.setattr(pf, "det_lambda_balanced", counted_det)
        return find_poles(p, CH, re_max), calls[0]

    def test_count_budget_per_pole(self, monkeypatch):
        # a cell is cut into count // 2 strips at once, a strip of two zeros goes
        # straight to Newton, and every round of a split's counts is one call:
        # 22 det lambda calls (0.17 per pole), against 27 with a call per strip
        # and round and 0.80 per pole when every cell was bisected
        poles, calls = self._calls(monkeypatch, DELTA, 400.0)
        assert len(poles) == 127
        assert calls <= 0.2 * len(poles)

    def test_call_budget_of_a_long_window(self, monkeypatch):
        # 27 calls; 113 with one call per strip and bisection round
        poles, calls = self._calls(monkeypatch, INTERMEDIATE, 2000.0)
        assert len(poles) == 637
        assert calls <= 30

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
        # each seed of a one- or two-zero cell starts near a root of its own;
        # the centroid, which seeds a cell whose moment is off, reaches 0.5 diagonals
        cells, split_counts = [], []
        subdivide = pf._subdivide

        def recorded_split(fn, region, loop, count):
            split_counts.append(count)
            strips = subdivide(fn, region, loop, count)
            cells.extend((strip, seeds) for strip, _, c, seeds in strips if c in (1, 2))
            return strips

        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        poles = find_poles(p, Channel(l, 1.0), re_max=400.0)
        assert sum(len(seeds) for _, seeds in cells) == len(poles)
        assert {len(seeds) for _, seeds in cells} == {1, 2}
        assert 2 not in split_counts   # every two-zero cell is solved, none split
        for region, seeds in cells:
            roots = [q.k for q in poles if region.contains(q.k)]
            assert len(roots) == len(seeds)
            reach = 0.05 * abs(complex(region.width, region.height))
            assert any(all(abs(seed - root) <= reach for seed, root in zip(seeds, order))
                       for order in itertools.permutations(roots))

    @staticmethod
    def _per_strip_seeds(region, loop, count):
        """A strip's seeds by its own sums: complex log of the step ratios, np.dot, cmath.sqrt."""
        z, f = loop.zf
        dlog = np.log(f[1:] / f[:-1])
        c = 0.5 * complex(region.re_min + region.re_max, region.im_min + region.im_max)
        w = 0.5 * (z[1:] + z[:-1]) - c
        s1 = complex(np.dot(w, dlog)) / (2j * math.pi)
        ks = [c + s1]
        if count == 2:
            half = cmath.sqrt(2 * (complex(np.dot(w * w, dlog)) / (2j * math.pi)) - s1 * s1)
            ks = [c + 0.5 * (s1 + half), c + 0.5 * (s1 - half)]
        slop = pf._SEED_SLOP * abs(complex(region.width, region.height))
        return [k if region.contains(k, slop) else c for k in ks]

    @pytest.mark.parametrize("p, l", [(DELTA, 0), (DELTA_PRIME, 5)],
                             ids=["delta-l0", "delta-prime-l5"])
    def test_seeds_match_the_per_strip_sums(self, p, l, monkeypatch):
        # every strip's seeds, summed for all loops at once, are its own sums to rounding
        strips_, seeded = pf._strips, []

        def recorded_strips(*args):
            strips = strips_(*args)
            seeded.extend(strip for strip in strips if strip[2] in (1, 2))
            return strips

        monkeypatch.setattr(pf, "_strips", recorded_strips)
        find_poles(p, Channel(l, 1.0), re_max=400.0)
        assert len(seeded) > 50
        for region, loop, count, seeds in seeded:
            want = self._per_strip_seeds(region, loop, count)
            assert len(seeds) == count
            diagonal = abs(complex(region.width, region.height))
            assert all(abs(a - b) <= 1e-12 * diagonal for a, b in zip(seeds, want))

    def test_failed_cell_is_split_and_refined_again(self, monkeypatch):
        # the first one-zero cell in Newton's order fails: it alone is split from the
        # loop it was counted on, and its one zero refined in a second call.  Of the
        # 11 zeros here, a strip of three is split into cells of one and two.
        want = find_poles(DELTA, CH, re_max=37.0, im_min=-3.0)
        boundary, subdivide, refine_ = pf._boundary, pf._subdivide, pf.refine
        single, fresh, splits, failed, calls = [], [], [], [], []

        def recorded_boundary(fn, region):
            fresh.append(region)
            return boundary(fn, region)

        def recorded_split(fn, region, loop, count):
            splits.append((region, loop, count))
            strips = subdivide(fn, region, loop, count)
            single.extend((seeds[0], strip, strip_loop)
                          for strip, strip_loop, c, seeds in strips if c == 1)
            return strips

        def first_single_fails(p, ch, seeds):
            roots, residuals = refine_(p, ch, seeds)
            if not calls:
                i, cell = next((i, (region, loop)) for i, k in enumerate(seeds)
                               for seed, region, loop in single if k == seed)
                roots[i] = residuals[i] = np.nan
                failed.append(cell)
            calls.append(len(seeds))
            return roots, residuals

        monkeypatch.setattr(pf, "_boundary", recorded_boundary)
        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        monkeypatch.setattr(pf, "refine", first_single_fails)
        got = find_poles(DELTA, CH, re_max=37.0, im_min=-3.0)
        assert calls == [len(want), 1]
        assert len(fresh) == 1   # the whole window; the failed cell is not counted again
        ((region, loop),) = failed
        assert [(r, c) for r, e, c in splits if e is loop] == [(region, 1)]
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

    @staticmethod
    def _force_first_pair(monkeypatch, forced):
        """Replace the pencil roots of the first two-zero strip a split makes by forced(seeds).

        Returns a log of that cell and its loop ("pair"), of the regions whose
        boundary is sampled afresh ("fresh") and of the cells split ("split",
        as (region, loop, count)) as the search goes on.
        """
        boundary, subdivide = pf._boundary, pf._subdivide
        log = {"pair": [], "fresh": [], "split": []}

        def recorded_boundary(fn, region):
            log["fresh"].append(region)
            return boundary(fn, region)

        def recorded_split(fn, region, loop, count):
            log["split"].append((region, loop, count))
            strips = subdivide(fn, region, loop, count)
            for i, (strip, strip_loop, c, seeds) in enumerate(strips):
                if c == 2 and not log["pair"]:
                    log["pair"].append((strip, strip_loop))
                    strips[i] = (strip, strip_loop, c, forced(seeds))
            return strips

        monkeypatch.setattr(pf, "_boundary", recorded_boundary)
        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        return log

    @pytest.mark.parametrize("forced", [lambda seeds: [complex(math.nan, math.nan)] * 2,
                                        lambda seeds: seeds[:1] * 2],
                             ids=["nan", "shared-root"])
    def test_rejected_pair_is_split_from_its_own_loop(self, forced, monkeypatch):
        want = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        log = self._force_first_pair(monkeypatch, forced)
        got = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        ((pair, loop),) = log["pair"]
        assert len(log["fresh"]) == 1   # the whole window; the pair is not counted again
        assert [(r, c) for r, e, c in log["split"] if e is loop] == [(pair, 2)]
        assert len(got) == len(want)
        assert all(abs(a.k - b.k) < 1e-12 * abs(b.k) for a, b in zip(got, want))

    def test_rejected_pair_leaves_its_children_a_rebisection(self, monkeypatch):
        # a child of the split pair cell fails Newton once and is split once more
        want = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        log = self._force_first_pair(monkeypatch, lambda seeds: [complex(math.nan, math.nan)] * 2)
        refine_, calls = pf.refine, []

        def first_child_fails(p, ch, seeds):
            roots, residuals = refine_(p, ch, seeds)
            if len(calls) == 1:
                roots[0] = residuals[0] = np.nan
            calls.append(len(seeds))
            return roots, residuals

        monkeypatch.setattr(pf, "refine", first_child_fails)
        got = find_poles(DELTA, CH, re_max=40.0, im_min=-3.0)
        assert calls == [len(want), 2, 1]
        assert len(log["fresh"]) == 1   # neither the pair nor its child is counted again
        ((pair, loop),) = log["pair"]
        assert [(r, c) for r, e, c in log["split"] if e is loop] == [(pair, 2)]
        child, _, count = log["split"][-1]   # the failed child, split with its one zero
        assert count == 1 and all(pair.contains(z) for z in child.corners())
        assert len(got) == len(want)
        assert all(abs(a.k - b.k) < 1e-12 * abs(b.k) for a, b in zip(got, want))

    def test_bookkeeping_failure_raises(self, monkeypatch):
        # a dedupe radius of half |k| merges two distinct poles, so fewer come
        # back than the window counts
        monkeypatch.setattr(pf, "_DEDUPE_REL", 0.5)
        with pytest.raises(WinterresError, match="pole bookkeeping failed: counted 3, refined 2"):
            find_poles(DELTA, CH, 12.0, -2.0)

    def test_residual_over_the_tolerance_raises(self, monkeypatch):
        refine_ = pf.refine

        def one_residual_high(p, ch, seeds):
            roots, residuals = refine_(p, ch, seeds)
            residuals[0] = 2e-9
            return roots, residuals

        monkeypatch.setattr(pf, "refine", one_residual_high)
        with pytest.raises(NonConvergence, match="1 poles above the residual tolerance"):
            find_poles(DELTA, CH, 12.0, -2.0)

    def test_cell_under_the_size_floor_raises(self, monkeypatch):
        # a floor of 10/R makes the window itself a cluster
        monkeypatch.setattr(pf, "_MIN_CELL_FACTOR", 10.0)
        with pytest.raises(ClusteredZeros, match="12 zeros in cell .* below the size floor"):
            find_poles(DELTA, CH, 40.0, -3.0)

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

    def test_separated_search_returns_certified_poles(self):
        # embedded eigenvalues 1e-7/R above the lowered top edge are not under
        # the floor of any step there
        p = GpiParams(4, 1, 0)
        poles = find_poles(p, Channel(1, 1.0), 20.0)
        assert len(poles) == 1
        assert abs(poles[0].k - complex(math.sqrt(3) / 2, -1.5)) < 1e-14
        assert poles[0].residual < 1e-9
        assert find_poles(p, CH, 20.0) == []

    @pytest.mark.parametrize("p, l, radius", [(DELTA, 0, 1.0), (DELTA, 3, 2.0),
                                              (DELTA_PRIME, 0, 1.0), (INTERMEDIATE, 0, 1.0)],
                             ids=["delta-l0", "delta-l3-R2", "delta-prime", "intermediate"])
    def test_tiny_window_gets_a_floor_below_the_axis(self, p, l, radius):
        # ln(re_max R) < 0 here: the default floor stays at -5/R, not above the axis
        assert pf.default_im_min(0.005, radius) == -5.0 / radius
        assert find_poles(p, Channel(l, radius), 0.005) == []

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

    @pytest.mark.parametrize("p, l, radius, im_min, n", [
        (DELTA, 1, 1.0, -30.0, 31), (DELTA_PRIME, 0, 3.0, -25.0 / 3.0, 32),
        (INTERMEDIATE, 3, 1.0, -25.0, 31), (DELTA, 0, 3.0, -10.0, 31),
    ], ids=["delta-l1", "delta-prime-R3", "intermediate-l3", "delta-R3"])
    def test_deep_window_finds_the_default_windows_poles(self, p, l, radius, im_min, n):
        # |det lambda| grows like e^{R |Im k|} down a deep window's sides, which
        # must not lift the floor of the steps near the axis
        ch = Channel(l, radius)
        deep = find_poles(p, ch, 100.0 / radius, im_min)
        want = find_poles(p, ch, 100.0 / radius)
        assert len(deep) == len(want) == n
        for pole, ref in zip(deep, want):
            assert pole.residual < 1e-9
            assert abs(pole.k - ref.k) <= 1e-12 * abs(ref.k)

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


class TestTwoZeroCells:
    """A cell that counts two zeros is solved from its contour moments, or split."""

    K1 = 3.1 - 0.9j

    @staticmethod
    def _search(monkeypatch, det, re_max=6.0):
        monkeypatch.setattr(pf, "det_lambda_balanced", det)
        monkeypatch.setattr(pf, "det_lambda", det)
        return find_poles(DELTA, CH, re_max, -2.0)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-5])
    def test_close_pair_is_returned(self, gap, monkeypatch):
        k2 = self.K1 + gap
        poles = self._search(monkeypatch, lambda p, ch, k: (k - self.K1) * (k - k2) * (k + 5))
        assert len(poles) == 2
        for pole, want in zip(poles, (self.K1, k2)):
            assert abs(pole.k - want) <= 1e-12 * abs(want)

    def test_pair_inside_the_dedupe_radius_is_a_cluster(self, monkeypatch):
        # 1.2e-6 apart passes the 1e-6/R floor but not 1e-8 |k| = 1.5e-6
        k1 = 150.3 - 0.9j
        with pytest.raises((BoundaryZero, ClusteredZeros)):
            self._search(monkeypatch, lambda p, ch, k: (k - k1) * (k - k1 - 1.2e-6) * (k + 5),
                         re_max=152.0)

    @pytest.mark.parametrize("k0", [K1, 2 - 1.3j, 4.77 - 0.41j])
    def test_double_zero_is_never_returned(self, k0, monkeypatch):
        with pytest.raises((BoundaryZero, ClusteredZeros)):
            self._search(monkeypatch, lambda p, ch, k: (k - k0) ** 2 * (k + 5))


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
