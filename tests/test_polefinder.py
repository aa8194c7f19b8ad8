"""Pole search tests: winding counts, refinement, indexing, symmetries."""

import bisect
import cmath
import itertools
import math
import re
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import winterres.polefinder as pf
from winterres import (AmbiguousIndex, BoundaryZero, Channel, ClusteredZeros, GpiParams,
                       NonConvergence, SearchRegion, WinterresError, count_zeros,
                       default_im_min, det_lambda, det_lambda_balanced, find_poles,
                       index_poles, refine)

from conftest import mpmath_pole

CH = Channel(0, 1.0)
FREE = GpiParams(0, 0, 0)
DELTA = GpiParams(50, 0, 0)
INTERMEDIATE = GpiParams(0, 0, 1 + 1j)
DELTA_PRIME = GpiParams(0, 0.1, 0)

FIRST_POLE_ALPHA50 = 3.0802868857096793 - 0.0036939673286052818j


INVALID = [
    (-1.0, 5.0, -2.0, 0.0),   # negative left edge
    (5.0, 1.0, -2.0, 0.0),    # inverted real range
    (0.1, 5.0, -1.0, -1.0),   # zero height
    (0.1, math.inf, -2.0, 0.0),   # infinite right edge
    (0.1, 5.0, -math.inf, 0.0),   # infinite floor
    (0.1, 5.0, -2.0, math.inf),   # infinite top edge
]


class TestSearchRegion:
    def test_valid(self):
        r = SearchRegion(0.1, 5.0, -2.0, 0.0)
        assert r.width == 4.9 and r.height == 2.0
        # a rectangle may reach into the upper half-plane, as the window of a coupling
        # that is not separated does
        lifted = SearchRegion(0.1, 5.0, -2.0, 0.5)
        assert lifted.height == 2.5 and lifted.corners()[2] == 5.0 + 0.5j

    @pytest.mark.parametrize("args", INVALID)
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            SearchRegion(*args)

    @pytest.mark.parametrize("args", INVALID + [
        (2.0, 2.0, -1.0, 0.0),    # empty
        (0.1, 5.0, 0.0, -1.0),    # upside down
        (math.nan, 5.0, -1.0, 0.0),
    ])
    def test_box_check_raises_the_region_error(self, args):
        # the pole finder checks a split's strip boxes, columns of one array, by the rules
        # SearchRegion applies, and raises SearchRegion's error for the first one it rejects
        with pytest.raises(ValueError) as want:
            SearchRegion(*args)
        good, worse = (1.0, 2.0, -1.0, 0.0), (3.0, 1.0, -1.0, 0.0)
        with pytest.raises(ValueError) as got:
            pf._check(np.array([good, args, worse, good]).T)
        assert str(got.value) == str(want.value)
        pf._check(np.array([good, (1.5, 2.5, -3.0, -1.0), (1e-3, 4.0, -1.0, -1e-7)]).T)

    def test_containment(self):
        # the closed rectangle, its edges in, and widened by a slop
        r = SearchRegion(1.0, 2.0, -1.0, 0.0)
        assert _contains(r, 1.5 - 0.5j) and _contains(r, 2.0 + 0.0j)
        assert not _contains(r, 2.5 - 0.5j)
        assert _contains(r, 2.5 - 0.5j, 0.5) and not _contains(r, 2.5 + 0.1j, 0.05)


def _contains(region, k, slop=0.0):
    """Whether k lies in the closed region widened by slop, by the pole finder's one test."""
    return bool(pf._inside(_box(region)[:, 0], np.complex128(k), slop))


def _box(region):
    """The region as one column of rows re_min, re_max, im_min, im_max, as ``pf._Cells.box``."""
    return np.array([[region.re_min], [region.re_max], [region.im_min], [region.im_max]])


class _Loop(NamedTuple):
    """A cell's loop: views of its rows z, f and d, and its corners' columns."""

    zfd: tuple
    corners: list


class _Cell(NamedTuple):
    """One cell of a ``pf._Cells`` record, read back one cell at a time."""

    region: SearchRegion
    loop: _Loop
    count: int
    seeds: list   # its first count seeds, none for three zeros or more
    vertical: bool


def _cells(record):
    """Each cell of a record as a _Cell, its loop views into its program's rows."""
    out = []
    for i, (rows, heads) in enumerate(zip(record.rows, record.heads.tolist())):
        count = int(record.count[i])
        out.append(_Cell(SearchRegion(*record.box[:, i].tolist()),
                         _Loop(tuple(row[heads[0]:heads[4] + 1] for row in rows),
                               [h - heads[0] for h in heads[:4]]),
                         count, record.seeds[i, :count].tolist() if count < 3 else [],
                         bool(record.vertical[i])))
    return out


def _per_cell(cells, strips):
    """The strips ``pf._subdivide`` cut from the record cells, as each cell's list of _Cells."""
    bounds = np.cumsum([0] + np.maximum(2, cells.count // 2).tolist()).tolist()
    views = _cells(strips)
    assert len(views) == bounds[-1]
    return [views[a:b] for a, b in zip(bounds, bounds[1:])]


def _same_loop(a, b):
    """Whether two loops are the same columns of the same rows, not a copy or a recount."""
    return a.corners == b.corners and all(
        (x.ctypes.data, x.size) == (y.ctypes.data, y.size) for x, y in zip(a.zfd, b.zfd))


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

    @pytest.mark.parametrize("l", [0, 1, 5, 20])
    @pytest.mark.parametrize("p", [DELTA, INTERMEDIATE, DELTA_PRIME, GpiParams(0, 0.01, 0)],
                             ids=["delta", "intermediate", "beta0.1", "beta0.01"])
    def test_the_slab_above_the_axis_holds_no_zero(self, p, l):
        # a self-adjoint coupling has no zero with Im k > 0 off the imaginary axis, and one
        # that is not separated none on the real axis either: the slab that lifts the top
        # edge of such a coupling's window to +1/(2R) adds no zero to its count
        ch = Channel(l, 2.0)
        slab = SearchRegion(1e-3 / ch.radius, 60.0 / ch.radius, 1e-4 / ch.radius,
                            0.5 / ch.radius)
        assert count_zeros(p, ch, slab) == 0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 13: zeros just outside the left edge turn det lambda along one "
        "sampled step by 2 pi less than its end values show (-6.21 rad against +0.07 "
        "for two zeros 0.002 outside, -4.77 against +1.51 for the double zero of "
        "GpiParams(3, 1, 1), l = 1, at k = -2i, 0.001 outside), so the pi/2 rule does "
        "not cut it and the count reads 1"))
    @pytest.mark.parametrize("p, ch, region", [
        (GpiParams(-10.153856357759496, -0.380926874988312, 0.36348759065265357),
         Channel(1, 0.5), SearchRegion(0.002, 80.0, -17.37775890822787, -1.0)),
        # the double zero at k = -2i; a 200,000-point dense count gives 0, and so
        # does the same region from re_min = 0.002
        (GpiParams(3, 1, 1), Channel(1, 1.0),
         SearchRegion(0.001, 5.0, -7.99573227355399, -1e-7)),
    ], ids=["two-zeros", "double-zero"])
    def test_zeros_just_outside_an_edge_are_not_counted(self, p, ch, region):
        assert count_zeros(p, ch, region) == 0

    def test_double_zero_on_the_imaginary_axis(self):
        # the zero of the double-zero case above: det lambda winds twice around
        # k = -2i, in steps far under pi/2, and keeps one sign along the axis
        p, ch = GpiParams(3, 1, 1), Channel(1, 1.0)
        turn = np.exp(2j * np.pi * np.arange(4097) / 4096)
        for radius in (1e-2, 1e-3):
            f = det_lambda_balanced(p, ch, -2j + radius * turn)
            steps = np.angle(f[1:] / f[:-1])
            assert np.abs(steps).max() < 0.5 * math.pi
            assert round(steps.sum() / (2 * math.pi)) == 2
        for k in (-1.9j, -2.1j):
            f = det_lambda_balanced(p, ch, k)
            assert f.real < 0 and abs(f.imag) <= 1e-12 * abs(f.real)

    def test_boundary_zero_raises(self):
        # bottom edge running exactly through a pole: the count answers only
        # for the rectangle it was given, so it raises instead of guessing
        region = SearchRegion(2.5, 3.5, FIRST_POLE_ALPHA50.imag, 0.0)
        with pytest.raises(BoundaryZero):
            count_zeros(DELTA, CH, region)

    def test_given_sample_under_the_floor_raises(self, monkeypatch):
        # a zero on the lower left corner, a given sample, or 1e-12 off it: the
        # floor against its neighbours catches it before any round
        for k0 in (2 - 1j, complex(2 - 1e-12, -1)):
            monkeypatch.setattr(pf, "det_lambda_balanced", lambda p, ch, k: (k - k0) * (k + 5))
            with pytest.raises(BoundaryZero, match="zero of det lambda on the boundary"):
                count_zeros(DELTA, CH, SearchRegion(2, 6, -1, 0))

    @pytest.mark.parametrize("samples", [[0, 1], [3, 4], [3]], ids=["corner-pair", "pair", "one"])
    def test_exact_zero_on_given_samples_is_named(self, samples, monkeypatch):
        # f = 0 exactly at samples of the bottom side: the step between two of them has the
        # ratio 0/0, which floors too, so the message names the first zero along the loop
        region = SearchRegion(2, 6, -1, 0)
        bottom = pf._sample(lambda k: k, [tuple(region.corners()[:2])])[0][0]
        zeros = [bottom[j] for j in samples]
        monkeypatch.setattr(pf, "det_lambda_balanced",
                            lambda p, ch, k: _zeros_at(-5.0, *zeros)(k))
        with pytest.raises(BoundaryZero, match=rf"on the boundary at {re.escape(str(zeros[0]))}$"):
            count_zeros(DELTA, CH, region)


def _phases(zf):
    """The phase f turns through on each step of rows z and f."""
    f = zf[1]
    return np.angle(f[1:] / f[:-1])


def _assert_carried(child, loop):
    """A child's loop closes, runs through its corners, is resolved and carries its steps."""
    z, f, _ = loop.zfd
    assert z[loop.corners].tolist() == child.corners()
    assert [z[-1], f[-1]] == [z[0], f[0]]
    assert (np.abs(_phases(loop.zfd)) < 0.5 * math.pi).all()
    _assert_steps(loop.zfd)


def _assert_steps(zfd):
    """Row d of one loop holds _dlog of its consecutive values bitwise, and 0 on its closing
    step."""
    f, d = zfd[1:]
    assert d[:-1].tobytes() == pf._dlog(f[:-1], f[1:]).tobytes()
    assert d[-1] == 0.0


def _measured(zf, offsets):
    """Loops of samples z over values f, loop s in columns offsets[s] to offsets[s + 1] - 1,
    with the row d that ``_resolve`` takes: each step's log ratio, 0 on each closing step."""
    d = np.zeros(zf.shape[1], complex)
    d[:-1] = pf._dlog(zf[1, :-1], zf[1, 1:])
    d[np.asarray(offsets[1:]) - 1] = 0.0
    return [zf[0], zf[1], d]


def _heads(offsets, corners):
    """``_resolve``'s heads of the loops in columns offsets[s] to offsets[s + 1] - 1, with
    their corners at offsets[s] + corners[s]."""
    offsets = np.asarray(offsets)
    return np.column_stack([offsets[:-1], offsets[:-1, None] + corners, offsets[1:] - 1])


def _sides(loop):
    """A loop's four sides (bottom, right, top, left), z over f, each with both its corners."""
    zf, ends = np.array(loop.zfd[:2]), list(loop.corners) + [loop.zfd[0].size - 1]
    return [zf[:, a:b + 1] for a, b in zip(ends, ends[1:])]


def _fresh_sides(fn, region):
    """A region's four sides, freshly sampled, each with both its corners."""
    c = region.corners()
    zf, starts = pf._sample(fn, [(c[i], c[(i + 1) % 4]) for i in range(4)])
    return np.split(zf, starts[1:-1], axis=1)


def _resolve_one(fn, region, sides):
    """The cell of a region counted from its four given sides.

    The sides close into a loop as ``_boundary`` closes them: each but the
    left one without its last sample; and as there, a loop that hits a floor
    raises BoundaryZero.
    """
    zf = np.concatenate([side[:, :-1] for side in sides[:3]] + [sides[3]], axis=1)
    corners = np.cumsum([side.shape[1] - 1 for side in sides[:3]])
    offsets = [0, zf.shape[1]]
    *counted, why = pf._resolve(fn, _measured(zf, offsets), _heads(offsets, corners[None]))
    if why:
        raise BoundaryZero(why[0])
    return _cells(pf._strips(_box(region), np.zeros(1, int), np.zeros(1, bool), *counted))[0]


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
        level = pf._boundary(fn, region)
        assert level.count.tolist() == [count_zeros(p, ch, region)]
        vertical = set()   # orientation of every cut made
        for _ in range(3):   # grandchildren inherit pieces of earlier cuts
            strips = pf._subdivide(fn, level)   # one generation
            for parent, children in zip(_cells(level), _per_cell(level, strips)):
                cut_vertically = children[0].region.re_max < parent.region.re_max
                assert cut_vertically == parent.vertical
                vertical.add(cut_vertically)
                for child in children:
                    _assert_carried(child.region, child.loop)
                    assert child.count == count_zeros(p, ch, child.region)
            level = strips
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

        cell = pf._boundary(fn, region)
        assert cell.count.tolist() == [count]
        (strips,) = _per_cell(cell, pf._subdivide(recorded, cell))
        return _cells(cell)[0], strips, calls

    PARTITIONED = [
        (lambda k: det_lambda_balanced(DELTA, CH, k), SearchRegion(4.0, 40.0, -3.0, -0.0005), 11),
        (_zeros_at(*STACKED), SearchRegion(4.0, 6.0, -8.0, -0.1), 8),
    ]

    @pytest.mark.parametrize("fn, region, count", PARTITIONED, ids=["wide-delta", "tall-stacked"])
    def test_strips_partition_the_parent(self, fn, region, count):
        # a cell of c >= 6 zeros is cut into c // 2 strips in one pass, across the way its
        # zeros spread: across the row in the wide cell, across the column in the tall one
        cell, strips, calls = self._split(fn, region, count)
        m = count // 2
        assert len(strips) == m >= 3
        vertical = region.width >= region.height
        assert cell.vertical == vertical
        lo, hi = ("re_min", "re_max") if vertical else ("im_min", "im_max")
        start, side = getattr(region, lo), getattr(region, hi) - getattr(region, lo)
        at = [start + (j / m) * side for j in range(1, m)]   # frac 0.5: equal strips
        assert [getattr(s.region, lo) for s in strips] == [getattr(region, lo)] + at
        assert [getattr(s.region, hi) for s in strips] == at + [getattr(region, hi)]
        for strip in strips:   # the other side is the parent's
            r = strip.region
            assert ((r.im_min, r.im_max) == (region.im_min, region.im_max) if vertical
                    else (r.re_min, r.re_max) == (region.re_min, region.re_max))
        for strip in strips:
            _assert_carried(strip.region, strip.loop)
            assert strip.count == pf._boundary(fn, strip.region).count[0]
        assert sum(strip.count for strip in strips) == count
        # the first call samples all m - 1 cuts, each as a freshly sampled edge would be
        span = region.height if vertical else region.width
        per_cut = max(8, int(span / 0.4) + 1) + 1
        first = calls[0].reshape(m - 1, per_cut)
        across = first.real if vertical else first.imag
        assert (across == np.array(at)[:, None]).all()

    @pytest.mark.parametrize("fn, region, vertical", [
        (lambda k: det_lambda_balanced(DELTA, CH, k),
         SearchRegion(1e-3, 400.0, pf.default_im_min(400.0, 1.0), 0.0), True),
        (_zeros_at(*STACKED), SearchRegion(4.0, 6.0, -8.0, -0.1), False),
    ], ids=["vertical-long-window", "horizontal-across-rows"])
    def test_strips_tile_their_parent(self, fn, region, vertical):
        # a split's strips, columns of one box array: neighbours share their cut bitwise, the
        # outer bounds and the other side are the parent's, and the counts add up
        cell = pf._boundary(fn, region)
        strips = pf._subdivide(fn, cell)
        assert cell.vertical.tolist() == [vertical]
        lo, hi, other = (0, 1, [2, 3]) if vertical else (2, 3, [0, 1])
        box, parent, m = strips.box, cell.box[:, 0], strips.count.size
        assert m == max(2, cell.count[0] // 2) and m > 2
        assert box[hi, :-1].tobytes() == box[lo, 1:].tobytes()
        assert (box[lo] < box[hi]).all()
        assert box[lo, :1].tobytes() + box[hi, -1:].tobytes() == parent[[lo, hi]].tobytes()
        assert box[other].tobytes() == parent[other].repeat(m).tobytes()
        assert strips.count.sum() == cell.count[0]
        assert strips.depth.tolist() == [1] * m and strips.resplit.tolist() == [False] * m

    def test_strip_moments_come_from_their_own_loop(self):
        # one reduceat pass over a program's loops gives each strip, bit for bit, the seeds
        # and cut direction that a pass over its loop alone gives: no sum takes in a step
        # past its loop, not even the zero one onto the next (a segment's length would set
        # numpy's pairwise summation)
        fn = lambda k: det_lambda_balanced(DELTA, CH, k)
        strips = pf._subdivide(fn, pf._boundary(fn, SearchRegion(4.0, 40.0, -3.0, -0.0005)))
        m = strips.count.size
        assert m == 5 and strips.count.sum() == 11
        for i in range(m):
            part = pf._take(strips, np.array([i]))
            first, last = part.heads[0, [0, 4]].tolist()
            rows = [row[first:last + 1] for row in strips.rows[i]]
            own = pf._strips(part.box, part.depth, part.resplit, rows, part.heads - first,
                             part.count)
            n = strips.count[i]
            assert own.seeds[0, :n].tobytes() == strips.seeds[i, :n].tobytes()
            assert own.vertical[0] == strips.vertical[i]

    def test_every_loop_carries_its_steps(self):
        # d holds each step's log ratio bitwise after the window's count and after every
        # generation of splits, with cuts run both ways
        vertical = set()
        for fn, region, _ in self.PARTITIONED:
            level = pf._boundary(fn, region)
            _assert_steps(_cells(level)[0].loop.zfd)
            while level.count.size:
                split = pf._subdivide(fn, level)
                for parent, strips in zip(_cells(level), _per_cell(level, split)):
                    vertical.add(parent.vertical)
                    for strip in strips:
                        _assert_steps(strip.loop.zfd)
                level = pf._take(split, split.count > 2)
        assert vertical == {True, False}

    def test_a_split_measures_no_inherited_step(self, monkeypatch):
        # the log ratios a split takes: each step of its cuts both ways, the steps that join
        # a cut's end to its parent's loop, and the pieces of steps cut into eighths; none of the
        # parent's own steps, which its strips inherit
        dlog = pf._dlog
        for fn, region, _ in self.PARTITIONED:
            cell = pf._boundary(fn, region)
            seen, made = set(), []

            def recorded_dlog(fa, fb):
                seen.update(zip(fa.tolist(), fb.tolist()))
                return dlog(fa, fb)

            def recorded(k):
                made.append(fn(k))
                return made[-1]

            monkeypatch.setattr(pf, "_dlog", recorded_dlog)
            strips = _cells(pf._subdivide(recorded, cell))
            monkeypatch.undo()
            cuts, pieces = made[0].tolist(), set(np.concatenate(made[1:]).tolist())
            ahead = set(zip(cuts, cuts[1:]))   # with the steps from one cut to the next
            back = {(b, a) for a, b in ahead}
            per_cut = len(cuts) // (len(strips) - 1)
            ends = set(cuts[::per_cut] + cuts[per_cut - 1::per_cut])
            # the parent's steps; a sample of the parent's on a cut gives way to the cut's end
            f = _cells(cell)[0].loop.zfd[1].tolist()
            inherited = {(a, b) for a, b in zip(f, f[1:]) if not {a, b} & ends}
            assert pieces and not seen & inherited
            assert ahead | back <= seen
            for a, b in seen - ahead - back:
                assert a in pieces or b in pieces or (
                    {a, b} & ends and {a, b} <= ends | set(f))   # a piece or a junction

    @pytest.mark.parametrize("fn, region, levels", [
        (lambda k: det_lambda_balanced(DELTA, CH, k), SearchRegion(4.0, 14.0, -3.0, -0.0005), 3),
        (lambda k: det_lambda_balanced(DELTA, CH, k), SearchRegion(9.0, 13.0, -6.0, -0.0005), 3),
        (_zeros_at(*STACKED), SearchRegion(4.0, 6.0, -8.0, -0.1), 1),
    ], ids=["wide", "tall", "tall-stacked"])
    def test_short_sides_get_the_cut_samples(self, fn, region, levels, monkeypatch):
        # a strip's short sides, pieces of its parent's, have every step cut into eighths
        # in the first round, so that they have 8 steps or more
        short, resolve = [], pf._resolve

        def recorded(fn, zfd, heads):
            out = resolve(fn, zfd, heads)
            loop = lambda zfd, heads, s: _Loop(
                tuple(row[heads[s, 0]:heads[s, 4] + 1] for row in zfd),
                (heads[s, :4] - heads[s, 0]).tolist())
            for s in range(len(heads)):
                given, resolved = loop(zfd, heads, s), loop(*out[:2], s)
                short.extend((side, got) for side, got in zip(_sides(given), _sides(resolved))
                             if side.shape[1] < 9)   # a side of fewer than 8 steps
            return out

        level = pf._boundary(fn, region)
        monkeypatch.setattr(pf, "_resolve", recorded)
        for _ in range(levels):
            level = pf._subdivide(fn, level)
        assert len(short) >= 4
        one = lambda k: complex(fn(np.array([k]))[0])
        for given, resolved in short:
            assert resolved[0].tolist() == _resolved_side(one, given)[0]

    def test_multi_point_cut_matches_successive_cuts(self):
        fn = lambda k: det_lambda_balanced(DELTA, CH, k)
        region = SearchRegion(4.0, 40.0, -3.0, -0.0005)
        bottom = _sides(_cells(pf._boundary(fn, region))[0].loop)[0]
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
        each = length.ravel()   # the runs end to end, each[i] columns from base[i] on
        runs = np.arange(each.sum()) + (base.ravel() - each.cumsum() + each).repeat(each)
        got = np.split(np.concatenate([bottom, cuts], axis=1)[:, runs],
                       np.cumsum(length.sum(axis=1))[:-1], axis=1)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert sum(piece.shape[1] for piece in want) == bottom.shape[1] - 1 + 2 * len(xs)

    def test_neighbours_agree_on_their_shared_cut(self, monkeypatch):
        # both strips by a cut resolve their own copy of it, one walked back: the
        # copies must agree, sample for sample, in z and in f
        splits, subdivide = [], pf._subdivide

        def recorded_split(fn, cells):
            strips = subdivide(fn, cells)
            splits.extend(zip(_cells(cells), _per_cell(cells, strips)))
            return strips

        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        for p, l, re_max in [(DELTA, 0, 400.0), (DELTA_PRIME, 5, 400.0), (DELTA, 5, 60.0)]:
            find_poles(p, Channel(l, 1.0), re_max)
        # zeros in a column are cut apart by cuts parallel to the real axis
        column = _zeros_at(-5.0, *self.STACKED)
        monkeypatch.setattr(pf, "det_lambda_balanced", lambda p, ch, k: column(k))
        monkeypatch.setattr(pf, "det_lambda", lambda p, ch, k: column(k))
        assert len(find_poles(DELTA, CH, 6.0, -8.0)) == len(self.STACKED)
        shared = []
        for cell, strips in splits:
            vertical = strips[0].region.re_max < cell.region.re_max
            for below, above in zip(strips, strips[1:]):
                walked = _sides(below.loop)[1 if vertical else 2]
                assert (walked[:, ::-1].tobytes()
                        == _sides(above.loop)[3 if vertical else 0].tobytes())
                shared.append(vertical)
        assert len(shared) >= 100 and set(shared) == {True, False}

    def test_a_cell_that_never_splits_cleanly_raises(self, monkeypatch):
        # every try's strips hit a floor: after the last fraction the cell's region is named
        fn, region = _zeros_at(*self.STACKED), SearchRegion(4.0, 6.0, -8.0, -0.1)
        cell = pf._boundary(fn, region)
        resolve, programs = pf._resolve, []

        def floored(fn, zfd, heads):
            programs.append(len(heads))
            return (*resolve(fn, zfd, heads)[:3], {0: "a zero on a cut"})

        monkeypatch.setattr(pf, "_resolve", floored)
        text = f"no clean split line found inside {region}"
        with pytest.raises(BoundaryZero, match=re.escape(text)):
            pf._subdivide(fn, cell)
        assert programs == [4] * len(pf._SPLIT_FRACTIONS)

    def test_zero_on_a_cut_shifts_every_cut(self):
        # an exact zero on the first cut at frac 0.5 makes the split retry at 0.53125
        region = SearchRegion(1.0, 10.0, -2.0, -0.2)
        on_cut = complex(region.re_min + (1 / 3) * region.width, -0.77)
        fn = _zeros_at(1.7 - 0.5j, 2.9 - 1.1j, on_cut, 5.3 - 0.6j, 8.1 - 1.3j, 9.2 - 0.4j)
        _, strips, calls = self._split(fn, region, 6)
        frac = 0.53125
        at = [region.re_min + ((j + 2.0 * frac - 1.0) / 3) * region.width for j in (1, 2)]
        assert [s.region.re_min for s in strips] == [region.re_min] + at
        assert [s.region.re_max for s in strips] == at + [region.re_max]
        assert [s.count for s in strips] == [3, 1, 2]
        for strip in strips:
            _assert_carried(strip.region, strip.loop)
            assert strip.count == pf._boundary(fn, strip.region).count[0]
        assert on_cut.real in {k.real for k in calls[0]}   # the first try sampled the zero's line

    @pytest.mark.parametrize("side", [1, -1], ids=["right", "left"])
    def test_a_zero_near_a_cut_is_resolved_in_few_rounds(self, side):
        # a zero 1e-4 from the first cut of a three-strip split, which samples it at steps of
        # 0.225: each round cuts the wide steps near it into eighths, where halving them
        # took 10 rounds
        region = SearchRegion(1.0, 10.0, -2.0, -0.2)
        near = complex(region.re_min + region.width / 3 + side * 1e-4, -0.77)
        fn = _zeros_at(1.7 - 0.5j, 2.9 - 1.1j, near, 5.3 - 0.6j, 8.1 - 1.3j, 9.2 - 0.4j)
        _, strips, calls = self._split(fn, region, 6)
        assert [s.region.re_max for s in strips[:1]] == [region.re_min + region.width / 3]
        assert [s.count for s in strips] == [3 - (side > 0), 1 + (side > 0), 2]
        for strip in strips:
            _assert_carried(strip.region, strip.loop)
        assert 3 <= len(calls) - 1 <= 5   # the rounds, after the call that lays the cuts


def _pieces(za, zb):
    """Reference: the 9 samples of a step cut into 8 equal pieces, in Python arithmetic."""
    return [za] + [za + (zb - za) * (j / 8) for j in range(1, 8)] + [zb]


def _depth_first(fn, side):
    """Reference: cut each wide step of a side into eighths on its own, depth first, one
    point a call.

    Returns the side's samples with the new points inserted and the depth of
    the deepest cut.
    """
    zs, fs = side.tolist()
    z, deepest = [zs[0]], 0

    def split(za, fa, zb, fb, depth):
        nonlocal deepest
        if abs(cmath.phase(fb / fa)) < 0.5 * math.pi:
            z.append(zb)
            return
        deepest = max(deepest, depth + 1)
        points = _pieces(za, zb)
        values = [fa] + [fn(w) for w in points[1:-1]] + [fb]
        for j in range(8):
            split(points[j], values[j], points[j + 1], values[j + 1], depth + 1)

    for i in range(len(zs) - 1):
        split(zs[i], fs[i], zs[i + 1], fs[i + 1], 0)
    return z, deepest


def _eighths(z):
    """Reference: cut every step of a side of fewer than 8 steps into eighths, once."""
    if len(z) >= 9:
        return list(z)
    return [w for a, b in zip(z, z[1:]) for w in _pieces(a, b)[:-1]] + z[-1:]


def _resolved_side(one, side):
    """Reference: a side's samples after its count, one point a call of one.

    A short side is cut into eighths, then each wide step depth first.
    Returns the samples and the rounds the side takes: the depth of its
    deepest phase cut, one more for a short side.
    """
    known = dict(zip(*side.tolist()))
    dense = _eighths(side[0].tolist())
    values = [known[w] if w in known else one(w) for w in dense]
    z, deepest = _depth_first(one, np.array([dense, values]))
    return z, deepest + (len(dense) > side.shape[1])


def _resolved(fn, sides):
    """Reference: the loop through four sides after its count, closed, and the rounds it
    takes."""
    one = lambda k: complex(fn(np.array([k]))[0])
    resolved = [_resolved_side(one, side) for side in sides]
    return ([w for z, _ in resolved for w in z[:-1]] + [sides[0][0, 0]],
            max(depth for _, depth in resolved))


class TestResolve:
    """Wide steps are cut into eighths in rounds, one det lambda call for every side."""

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
        assert resolved.zfd[0].tolist() == want
        rounds = max(depth for _, depth in reference)
        assert 4 <= rounds <= 6   # 10 to 17 rounds when a wide step was halved
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
        cell = _resolve_one(fn, region, sides)
        assert cell.count == 0
        assert cell.loop.zfd[0].tolist() == want
        # every step of a short side is cut into eighths, the 0.05 one too
        assert set(_pieces(c[1], 2.0 - 0.95j)) <= set(want) and 2.0 - 0.975j in want
        # in one round, which shares its call with the wide steps of the left side
        first = calls[0].tolist()
        assert len([k for k in first if k.imag == -1.0]) == 7   # the bottom side's one step
        assert {1.5 - 1.0j, 2.0 - 0.85j, 2.0 - 0.625j} <= set(first)
        assert any(k.real == 1.0 for k in first)
        assert len(calls) == deepest == 2   # the left side's zero takes a second round

    def test_midpoint_under_the_floor_raises(self):
        # a zero exactly at the midpoint of a bottom-edge step
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        k0 = complex(1.0 + 3.5 / 8, -1.0)
        fn = lambda k: k - k0
        sides = _fresh_sides(fn, region)
        assert [np.flatnonzero(np.abs(_phases(side)) >= 0.5 * math.pi).tolist()
                for side in sides] == [[3], [], [], []]
        with pytest.raises(BoundaryZero, match=r"on the boundary at \(1\.4375-1j\)"):
            _resolve_one(fn, region, sides)

    def test_exact_zero_on_a_short_edge_raises(self):
        # the first round cuts the one step of a two-sample side into eighths, one on the zero of f
        k0 = complex(1.5, -1.0)
        fn = lambda k: k - k0
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        c = region.corners()
        short = np.array([c[:2], [fn(c[0]), fn(c[1])]])
        others = _fresh_sides(fn, region)[1:]
        with pytest.raises(BoundaryZero, match=r"on the boundary at \(1\.5-1j\)"):
            _resolve_one(fn, region, [short] + others)

    def test_sign_jump_hits_the_depth_cap(self):
        # |f| = 1 everywhere, and f changes sign at a non-dyadic Re k: the
        # step across the jump stays wide however often it is cut
        region = SearchRegion(1.0, 2.0, -1.0, -0.5)
        fn = lambda k: np.where(k.real < 1.0 + 1.0 / 3.0, -1.0, 1.0).astype(complex)
        sides = _fresh_sides(fn, region)
        bottom, _, top, _ = sides
        assert (np.abs(_phases(bottom)) >= 0.5 * math.pi).any()
        assert (np.abs(_phases(top)) >= 0.5 * math.pi).any()
        with pytest.raises(BoundaryZero, match="cannot be resolved"):
            _resolve_one(fn, region, sides)

    def test_the_closing_step_between_loops_is_not_looked_at(self):
        # two loops in one call; the step from the first one's last sample, 1 - 1j, to the
        # second one's first, 3 - 3j, has a zero at its midpoint, turns by pi/2 or more and
        # falls by 1e-12 on the way, so a cut or a floor there would show.  f is the
        # polynomial times 1e12 left of Re k = 2.5 and times -1 right of it, which moves
        # neither loop's count
        junction = 2.0 - 2.0j
        poly = _zeros_at(junction, 1.5 - 0.75j, 3.4 - 2.8j, 3.6 - 2.7j)
        calls = []

        def fn(k):
            calls.append(np.array(k))
            return np.where(k.real < 2.5, 1e12, -1.0) * poly(k)

        regions = [SearchRegion(1.0, 2.0, -1.0, -0.5), SearchRegion(3.0, 4.0, -3.0, -2.5)]
        loops = []
        for region in regions:
            sides = _fresh_sides(fn, region)
            loops.append((np.concatenate([side[:, :-1] for side in sides[:3]] + [sides[3]],
                                         axis=1),
                          np.cumsum([side.shape[1] - 1 for side in sides[:3]])))
        (first, corners0), (second, corners1) = loops
        assert abs(np.angle(second[1, 0] / first[1, -1])) >= 0.5 * math.pi
        assert abs(second[1, 0]) <= pf._FLOOR_REL * abs(first[1, -1])
        alone = [pf._resolve(fn, _measured(zf, [0, zf.shape[1]]),
                             _heads([0, zf.shape[1]], corners[None]))
                 for zf, corners in loops]
        del calls[:]
        offsets = [0, first.shape[1], first.shape[1] + second.shape[1]]
        zf, heads, counts, why = pf._resolve(
            fn, _measured(np.concatenate([first, second], axis=1), offsets),
            _heads(offsets, np.array([corners0, corners1])))
        assert counts.tolist() == [1, 2] and why == {}
        assert not any(junction in call.tolist() for call in calls)
        # each loop comes back as when it is counted alone, and the two meet as they did
        for s, (zf_alone, heads_alone, _, _) in enumerate(alone):
            assert [row[heads[s, 0]:heads[s, 4] + 1].tolist() for row in zf] == [
                row.tolist() for row in zf_alone]
            assert (heads[s] - heads[s, 0]).tolist() == heads_alone[0].tolist()
        assert heads[1, 0] == heads[0, 4] + 1
        assert zf[0][heads[0, 4]:heads[1, 0] + 1].tolist() == [1.0 - 1.0j, 3.0 - 3.0j]


def _inside(region, z):
    return region.re_min < z.real < region.re_max and region.im_min < z.imag < region.im_max


@st.composite
def _rectangles_with_zeros(draw):
    """A rectangle, simple zeros 0.5 apart or more, none within 1e-3 of a side's line, and
    how they lie: "scattered" in and around it, or in a "row" that shares Im k or a
    "column" that shares Re k, spread along the rectangle's full width or height.
    """
    line = draw(st.sampled_from(["scattered", "row", "column"]))
    if line == "scattered":
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
        return region, zeros, line
    # n zeros, one to each of n equal pieces of the line, each within 0.2 pieces of its
    # piece's middle; the line lies a tenth of the way across or more from either side,
    # and across it the rectangle may be far longer than along it
    n, piece = draw(st.integers(3, 8)), draw(st.floats(0.9, 2.0))
    across, shared = draw(st.floats(0.5, 12.0)), draw(st.floats(0.1, 0.9))
    along = [(j + 0.5 + draw(st.floats(-0.2, 0.2))) * piece for j in range(n)]
    if line == "row":
        region = SearchRegion(1.0, 1.0 + n * piece, -0.5 - across, -0.5)
        zeros = [complex(1.0 + x, region.im_min + shared * across) for x in along]
    else:
        region = SearchRegion(1.0, 1.0 + across, -0.5 - n * piece, -0.5)
        zeros = [complex(region.re_min + shared * across, region.im_min + y) for y in along]
    return region, zeros, line


class TestExactZeros:
    """Counts, strip loops and seeds agree with the simple zeros a polynomial has inside.

    Double and clustered zeros are left out: they hit the aliasing defect
    that TestDoubleZero pins.
    """

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_rectangles_with_zeros())
    def test_counts_match_the_zeros_inside(self, case):
        region, zeros, line = case
        fn = _zeros_at(-5.0, *zeros)   # -5 lies outside every rectangle
        cell = pf._boundary(fn, region)
        assert cell.count.tolist() == [sum(_inside(region, z) for z in zeros)]
        level = pf._take(cell, cell.count > 2)
        while level.count.size:   # one generation at a time, down to cells of one or two zeros
            split = pf._subdivide(fn, level)
            for parent, strips in zip(_cells(level), _per_cell(level, split)):
                if line != "scattered":   # a row is cut across, and so is a column
                    assert parent.vertical == (line == "row")
                for strip in strips:
                    _assert_carried(strip.region, strip.loop)
                    assert all(side.shape[1] > 8 for side in _sides(strip.loop))   # 8 steps or more
                    inside = [z for z in zeros if _inside(strip.region, z)]
                    assert strip.count == len(inside)
                    if line != "scattered":   # every split leaves each strip fewer zeros
                        assert strip.count < parent.count
                    assert len(strip.seeds) == (strip.count if strip.count <= 2 else 0)
                    if strip.count <= 2:   # each seed within 5% of the strip's diagonal of a zero
                        reach = 0.05 * abs(complex(strip.region.width, strip.region.height))
                        assert any(all(abs(seed - z) <= reach
                                       for seed, z in zip(strip.seeds, order))
                                   for order in itertools.permutations(inside))
            level = pf._take(split, split.count > 2)


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

    def test_seed_where_f_is_not_finite_is_stuck_at_once(self, monkeypatch):
        # the balanced terms overflow at 5 - 800i and det lambda reads NaN there: no step
        # can lower |f|, so the seed fails after its first det lambda call
        calls, det = [], pf.det_lambda_balanced
        monkeypatch.setattr(pf, "det_lambda_balanced",
                            lambda p, ch, k: calls.append(k.size) or det(p, ch, k))
        with pytest.raises(NonConvergence,
                           match=r"stuck at residual floor \|f\| = inf near k = \(5-800j\)"):
            refine(DELTA, CH, 5 - 800j)
        assert calls == [3]

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            refine(DELTA, CH, 0)
        with pytest.raises(ValueError):
            refine(DELTA, CH, np.array([3.0 - 0.1j, 0j]))

    def test_scalar_seed_gives_python_numbers(self):
        k, residual = refine(DELTA, CH, 3.0 - 0.1j)
        assert type(k) is complex and type(residual) is float

    def test_array_matches_scalar(self):
        # the two seeds before the last take one and two accepted damped steps, on their
        # way to the poles at 3.08 and 12.34; the last seed, next to k = 0, is stuck at a
        # residual floor
        seeds = np.array([FIRST_POLE_ALPHA50 + 0.05, 3.0 - 0.1j, 0.5 - 10j, 40 - 40j,
                          100 - 1e-4j, 3.6318383229545352 - 2.227839491085471j,
                          13.770937486757735 + 0.20483820898979221j, 1e-3 - 1e-3j])
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
        # a contour sample is computed once, but for the inner points of a cut's wide
        # steps, which both strips by a cut resolve: subdivision samples the cuts and
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
    def _calls(monkeypatch, p, re_max, ch=CH):
        """The poles of a search and the number of det lambda array calls it made."""
        calls, det = [0], pf.det_lambda_balanced

        def counted_det(p, ch, k):
            calls[0] += 1
            return det(p, ch, k)

        monkeypatch.setattr(pf, "det_lambda_balanced", counted_det)
        return find_poles(p, ch, re_max), calls[0]

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

    @pytest.mark.parametrize("p, l, re_max, n, budget", [
        (DELTA_PRIME, 0, 2000.0, 637, 18),   # 17 calls; 32 when wide steps were halved
        (DELTA, 1, 40.0, 12, 12),            # 11 calls; 18 when wide steps were halved
    ], ids=["delta-prime-l0", "delta-l1"])
    def test_call_budget_of_deep_chains(self, p, l, re_max, n, budget, monkeypatch):
        # narrow resonances near the cuts and a zero near the left edge make chains of
        # rounds, each cutting the wide steps into eighths
        poles, calls = self._calls(monkeypatch, p, re_max, Channel(l, 1.0))
        assert len(poles) == n
        assert calls <= budget

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

        def recorded_split(fn, due):
            split_counts.extend(due.count.tolist())
            split = subdivide(fn, due)
            cells.extend((strip.region, strip.seeds) for strip in _cells(split)
                         if strip.count in (1, 2))
            return split

        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        poles = find_poles(p, Channel(l, 1.0), re_max=400.0)
        assert sum(len(seeds) for _, seeds in cells) == len(poles)
        assert {len(seeds) for _, seeds in cells} == {1, 2}
        assert 2 not in split_counts   # every two-zero cell is solved, none split
        for region, seeds in cells:
            roots = [q.k for q in poles if _contains(region, q.k)]
            assert len(roots) == len(seeds)
            reach = 0.05 * abs(complex(region.width, region.height))
            assert any(all(abs(seed - root) <= reach for seed, root in zip(seeds, order))
                       for order in itertools.permutations(roots))

    @staticmethod
    def _per_strip_seeds(region, loop, count):
        """A strip's seeds by its own sums: complex log of the step ratios, np.dot, cmath.sqrt."""
        z, f, _ = loop.zfd
        dlog = np.log(f[1:] / f[:-1])
        c = 0.5 * complex(region.re_min + region.re_max, region.im_min + region.im_max)
        w = 0.5 * (z[1:] + z[:-1]) - c
        s1 = complex(np.dot(w, dlog)) / (2j * math.pi)
        ks = [c + s1]
        if count == 2:
            half = cmath.sqrt(2 * (complex(np.dot(w * w, dlog)) / (2j * math.pi)) - s1 * s1)
            ks = [c + 0.5 * (s1 + half), c + 0.5 * (s1 - half)]
        slop = pf._SEED_SLOP * abs(complex(region.width, region.height))
        return [k if _contains(region, k, slop) else c for k in ks]

    @pytest.mark.parametrize("p, l", [(DELTA, 0), (DELTA_PRIME, 5)],
                             ids=["delta-l0", "delta-prime-l5"])
    def test_seeds_match_the_per_strip_sums(self, p, l, monkeypatch):
        # every strip's seeds, summed for all loops at once, are its own sums to rounding
        strips_, seeded = pf._strips, []

        def recorded_strips(*args):
            strips = strips_(*args)
            seeded.extend(strip for strip in _cells(strips) if strip.count in (1, 2))
            return strips

        monkeypatch.setattr(pf, "_strips", recorded_strips)
        find_poles(p, Channel(l, 1.0), re_max=400.0)
        assert len(seeded) > 50
        for region, loop, count, seeds, *_ in seeded:
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

        def recorded_split(fn, due):
            splits.extend((cell.region, cell.loop, cell.count) for cell in _cells(due))
            split = subdivide(fn, due)
            single.extend((strip.seeds[0], strip.region, strip.loop)
                          for strip in _cells(split) if strip.count == 1)
            return split

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
        assert [(r, c) for r, e, c in splits if _same_loop(e, loop)] == [(region, 1)]
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

        def recorded_split(fn, due):
            log["split"].extend((cell.region, cell.loop, cell.count) for cell in _cells(due))
            split = subdivide(fn, due)
            for i, strip in enumerate(_cells(split)):
                if strip.count == 2 and not log["pair"]:
                    log["pair"].append((strip.region, strip.loop))
                    split.seeds[i] = forced(strip.seeds)
            return split

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
        assert [(r, c) for r, e, c in log["split"] if _same_loop(e, loop)] == [(pair, 2)]
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
        assert [(r, c) for r, e, c in log["split"] if _same_loop(e, loop)] == [(pair, 2)]
        child, _, count = log["split"][-1]   # the failed child, split with its one zero
        assert count == 1 and all(_contains(pair, z) for z in child.corners())
        assert len(got) == len(want)
        assert all(abs(a.k - b.k) < 1e-12 * abs(b.k) for a, b in zip(got, want))

    def test_a_search_builds_one_region(self, monkeypatch):
        # the window is a search's one SearchRegion: every strip is a column of a split's
        # box array, checked by one array test
        built, post_init = [], SearchRegion.__post_init__

        def counted(region):
            built.append(region)
            post_init(region)

        monkeypatch.setattr(SearchRegion, "__post_init__", counted)
        assert len(find_poles(DELTA, CH, 2000.0)) > 600
        assert len(built) == 1

    @pytest.mark.parametrize("p, top", [(DELTA, 0.5), (GpiParams(4, 1, 0), -1e-7)],
                             ids=["not-separated", "separated"])
    def test_window_top_edge(self, p, top, monkeypatch):
        # a coupling that is not separated has its window lifted to +1/(2R); a separated
        # one keeps the sliver below its embedded eigenvalues, and both keep im_min below 0
        windows, boundary = [], pf._boundary

        def recorded_boundary(fn, region):
            windows.append(region)
            return boundary(fn, region)

        monkeypatch.setattr(pf, "_boundary", recorded_boundary)
        ch = Channel(1, 2.0)
        find_poles(p, ch, 10.0, -1.0)
        assert windows == [SearchRegion(pf.EXCLUDED_DISC / 2.0, 10.0, -1.0, top / 2.0)]
        with pytest.raises(ValueError, match=r"im_min must lie below -?\d"):
            find_poles(p, ch, 10.0, top / 2.0 if top < 0 else 0.0)

    @pytest.mark.parametrize("rel, refined", [(0.5, 2), (0.7, 1)], ids=["pair", "chain"])
    def test_bookkeeping_failure_raises(self, monkeypatch, rel, refined):
        # the poles 3.08, 6.16 and 9.25 lie within half |k| of the one below them two at a
        # time and within 0.7 |k| all three in a chain, which counts as one pole: fewer
        # come back than the window counts
        monkeypatch.setattr(pf, "_DEDUPE_REL", rel)
        with pytest.raises(WinterresError,
                           match=f"pole bookkeeping failed: counted 3, refined {refined}$"):
            find_poles(DELTA, CH, 12.0, -2.0)

    def test_window_counted_below_zero_raises(self):
        # this window's count reads -3 (a miscount); no cell is refined and no root comes
        # back, and the count check says so instead of returning no poles
        with pytest.raises(WinterresError,
                           match="pole bookkeeping failed: counted -3, refined 0$"):
            find_poles(GpiParams(0, 12.0, 12.0), Channel(1, 12.0), 12.0, -2.0)

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
        assert a == b  # bitwise-identical rows

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

    @pytest.mark.parametrize("re_max, im_min", [(1e9, None), (40.0, -1e9)], ids=["long", "deep"])
    def test_a_window_over_the_sample_budget_makes_no_call(self, re_max, im_min, monkeypatch):
        # its sides would take 2.5e9 samples each; the window and the count are named
        calls = []
        monkeypatch.setattr(pf, "det_lambda_balanced", lambda p, ch, k: calls.append(k))
        text = (r"window (SearchRegion\(.*\)) would take 5e\+09 boundary samples, "
                r"over the budget of 1e\+06")
        with pytest.raises(WinterresError, match=text) as err:
            find_poles(DELTA, CH, re_max, im_min)
        assert type(err.value) is WinterresError
        region = SearchRegion(*map(float, re.findall(r"=([^,)]+)", re.match(text, str(
            err.value))[1])))
        assert (region.re_max, region.im_min) == (re_max, im_min or default_im_min(re_max, 1.0))
        with pytest.raises(WinterresError, match=text):
            count_zeros(DELTA, CH, region)
        assert calls == []

    def test_the_sample_budget_counts_what_the_window_lays(self, monkeypatch):
        # the count taken from the corners is the points of the window's first call
        sizes, det = [], pf.det_lambda_balanced

        def counted(p, ch, k):
            sizes.append(k.size)
            return det(p, ch, k)

        monkeypatch.setattr(pf, "det_lambda_balanced", counted)
        count = count_zeros(DELTA, CH, SearchRegion(1e-3, 40.0, -3.7, 0.5))
        made = len(sizes)
        monkeypatch.setattr(pf, "_MAX_SAMPLES", sizes[0] - 1)
        with pytest.raises(WinterresError, match=f"would take {sizes[0]} boundary samples"):
            count_zeros(DELTA, CH, SearchRegion(1e-3, 40.0, -3.7, 0.5))
        assert len(sizes) == made
        monkeypatch.setattr(pf, "_MAX_SAMPLES", sizes[0])
        assert count_zeros(DELTA, CH, SearchRegion(1e-3, 40.0, -3.7, 0.5)) == count == 12


class TestGenerations:
    """Each cell is cut across the way its zeros spread, and a whole generation of cells
    is split in one array program."""

    @pytest.mark.parametrize("p", [GpiParams(0, 0.01, 0), DELTA_PRIME, INTERMEDIATE],
                             ids=["beta0.01", "beta0.1", "intermediate"])
    def test_no_split_leaves_every_zero_in_one_strip(self, p, monkeypatch):
        # the window's strips are taller than wide, and a strip of three zeros in a row
        # along Re k is cut across the row, not along it
        splits, subdivide = [], pf._subdivide

        def recorded_split(fn, cells):
            split = subdivide(fn, cells)
            splits.extend((cell.count, [strip.count for strip in strips])
                          for cell, strips in zip(_cells(cells), _per_cell(cells, split)))
            return split

        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        assert len(find_poles(p, CH, 2000.0)) == 637
        assert 3 in [count for count, _ in splits]
        assert all(max(strips) < count for count, strips in splits)

    def test_an_l20_search_runs_two_split_programs(self, monkeypatch):
        # the window's split, then every strip of three in one more program (12 programs
        # when each cell was split on its own, across its longer side)
        programs, resolve, boundary = [0], pf._resolve, pf._boundary

        def counted_resolve(*args):
            programs[0] += 1
            return resolve(*args)

        def counted_boundary(*args):   # the window's count is not a split
            programs[0] -= 1
            return boundary(*args)

        monkeypatch.setattr(pf, "_resolve", counted_resolve)
        monkeypatch.setattr(pf, "_boundary", counted_boundary)
        assert len(find_poles(INTERMEDIATE, Channel(20, 1.0), 400.0)) == 121
        assert programs[0] <= 2

    def test_a_cell_with_a_zero_on_its_cut_retries_alone(self, monkeypatch):
        # the window's 6 zeros: three strips, the middle one empty.  The outer two, of 3
        # zeros each, are one generation; a zero sits on a sample of the first one's cut
        # at frac 0.5, so that cell alone moves its cut to 0.53125 in a second program
        # while the other keeps its strips from the first
        re_floor, re_max = pf.EXCLUDED_DISC, 12.0
        window_cut = re_floor + (1 / 3) * (re_max - re_floor)
        at = lambda start, end, frac: start + ((1 + 2.0 * frac - 1.0) / 2) * (end - start)
        # sample 4 of 8 up the cut, which runs from Im -2 to the lifted top edge at +0.5
        on_cut = complex(at(re_floor, window_cut, 0.5), -0.75)
        zeros = [0.9 - 0.6j, on_cut, 3.1 - 1.4j, 8.7 - 0.9j, 10.3 - 1.3j, 11.2 - 0.6j]
        det = lambda p, ch, k: _zeros_at(-5.0, *zeros)(k)
        monkeypatch.setattr(pf, "det_lambda_balanced", det)
        monkeypatch.setattr(pf, "det_lambda", det)
        generations, segments, subdivide, sample = [], [], pf._subdivide, pf._sample

        def recorded_split(fn, cells):
            split = subdivide(fn, cells)
            generations.append(list(zip(_cells(cells), _per_cell(cells, split))))
            return split

        def recorded_sample(fn, lines):
            segments.append(lines)
            return sample(fn, lines)

        programs, resolve = [], pf._resolve

        def recorded_resolve(*args):
            programs.append(resolve(*args))
            return programs[-1]

        monkeypatch.setattr(pf, "_subdivide", recorded_split)
        monkeypatch.setattr(pf, "_sample", recorded_sample)
        monkeypatch.setattr(pf, "_resolve", recorded_resolve)
        poles = find_poles(DELTA, CH, re_max, -2.0)
        # the generation's program: both strips of the first cell hit the floor at the zero
        assert programs[2][3] == {s: f"zero of det lambda on the boundary at {on_cut}"
                                  for s in (0, 1)}
        window, (first, third) = generations
        assert [strip.count for strip in window[0][1]] == [3, 0, 3]
        assert [cell.region for cell, _ in (first, third)] == [window[0][1][0].region,
                                                               window[0][1][2].region]
        moved = at(re_floor, window_cut, 0.53125)
        kept = at(window[0][1][2].region.re_min, re_max, 0.5)
        # the window's sides and cuts, the generation's cuts at 0.5, then the one moved cut
        assert [[a.real for a, _ in lines] for lines in segments[1:]] == [
            [window[0][1][1].region.re_min, window[0][1][2].region.re_min],
            [on_cut.real, kept], [moved]]
        for (cell, strips), cut in zip((first, third), (moved, kept)):
            assert [strip.region.re_max for strip in strips] == [cut, cell.region.re_max]
            for strip in strips:
                _assert_carried(strip.region, strip.loop)
                assert strip.count == sum(_inside(strip.region, z) for z in zeros)
        assert [strip.count for strip in first[1]] == [2, 1]
        assert [strip.count for strip in third[1]] == [1, 2]
        # every exact zero comes back, as from the search that split one cell at a time
        assert len(poles) == len(zeros)
        for pole, z in zip(poles, sorted(zeros, key=lambda z: (z.real, z.imag))):
            assert abs(pole.k - z) <= 1e-12 * abs(z)

    def test_a_zero_on_a_cut_between_cells_that_pass(self, monkeypatch):
        # the window's 9 zeros: four strips, the last one empty, and a generation of three
        # cells of 3.  A zero sits on a sample of the middle cell's cut, so its strips hold
        # f = 0 between the others' counted strips; it alone moves its cut, and neither
        # that nor the others' moments warn (every warning is an error here)
        re_floor, re_max = pf.EXCLUDED_DISC, 12.0
        cut = lambda start, end, j, m: start + (j / m) * (end - start)
        middle = cut(cut(re_floor, re_max, 1, 4), cut(re_floor, re_max, 2, 4), 1, 2)
        on_cut = complex(middle, -0.75)   # sample 4 of 8 up the cut, from Im -2 to +0.5
        zeros = [0.9 - 0.6j, 1.7 - 1.5j, 2.5 - 0.4j, 3.6 - 0.5j, on_cut, 5.5 - 1.6j,
                 6.6 - 0.7j, 7.4 - 1.3j, 8.3 - 0.5j]
        det = lambda p, ch, k: _zeros_at(-5.0, *zeros)(k)
        monkeypatch.setattr(pf, "det_lambda_balanced", det)
        monkeypatch.setattr(pf, "det_lambda", det)
        programs, resolve = [], pf._resolve

        def recorded_resolve(*args):
            programs.append(resolve(*args))
            return programs[-1]

        monkeypatch.setattr(pf, "_resolve", recorded_resolve)
        poles = find_poles(DELTA, CH, re_max, -2.0)
        # the window, its split, the generation (the middle cell's strips on the floor), then
        # the middle cell alone
        assert [counts.tolist() for _, _, counts, _ in programs] == [
            [9], [3, 3, 3, 0], [1, 2, 0, 0, 2, 1], [2, 1]]
        assert set(programs[2][3]) == {2, 3}
        for pole, z in zip(poles, sorted(zeros, key=lambda z: (z.real, z.imag))):
            assert abs(pole.k - z) <= 1e-12 * abs(z)


class TestHighOrder:
    # ROADMAP item 2: before xi_l took its product over its zeros inside the series
    # disc, these searches raised NonConvergence (delta at l = 20; delta-prime
    # beta=0.1 at l = 30) or returned poles up to ~6e-12 off
    @pytest.mark.parametrize("p,l,re_max", [
        *((p, 20, 40.0) for p in (DELTA, INTERMEDIATE, DELTA_PRIME, GpiParams(0, 0.01, 0))),
        (DELTA_PRIME, 30, 100.0),
    ], ids=["delta-20", "intermediate-20", "beta0.1-20", "beta0.01-20", "beta0.1-30"])
    def test_poles_match_mpmath(self, p, l, re_max):
        ch = Channel(l, 1.0)
        poles = find_poles(p, ch, re_max)
        assert poles
        for pole in poles:
            assert abs(pole.k - mpmath_pole(p, ch, pole.k)) <= 1e-12 * max(1.0, abs(pole.k))


def _closed_form_l0(p: GpiParams, radius: float, re_max: float) -> list[complex]:
    """The l = 0 poles in find_poles' default window, from closed forms at 30 digits.

    With beta = 0, det lambda = -(1 + |gamma|^2/4) - alpha sin(kR) e^{ikR}/k
    - Re(gamma) e^{2ikR}.  Delta (Re gamma = 0): with alpha' = alpha/(1 + |gamma|^2/4),
    e^{2ikR} = 1 - 2ik/alpha', so k = i alpha' (w - 1)/2 on each branch
    alpha' R w = W_n(alpha' R e^{alpha' R}) of Lambert's W.  Intermediate
    (alpha = 0): e^{2ikR} = -(1 + |gamma|^2/4)/Re(gamma) =: rho, so
    k = (arg rho + 2 pi n)/(2R) - i ln|rho|/(2R).
    """
    im_min = -(max(math.log(re_max * radius), 0.0) + 5.0) / radius   # the default floor
    branches = range(-int(re_max * radius / math.pi) - 3, int(re_max * radius / math.pi) + 4)
    with mp.workdps(30):
        scale, r = 1 + mp.mpf(abs(p.gamma) ** 2) / 4, mp.mpf(radius)
        if p.gamma.real == 0.0:
            a = mp.mpf(p.alpha) / scale
            poles = [1j * a * (mp.lambertw(a * r * mp.exp(a * r), n) / (a * r) - 1) / 2
                     for n in branches]
        else:
            rho = -scale / mp.mpf(p.gamma.real)
            poles = [((mp.arg(rho) + 2 * mp.pi * n) - 1j * mp.log(abs(rho))) / (2 * r)
                     for n in branches]
        poles = [complex(k) for k in poles]
    return sorted((k for k in poles if 1e-3 / radius <= k.real <= re_max and im_min <= k.imag < 0),
                  key=lambda k: (k.real, k.imag))


class TestClosedFormL0:
    """find_poles at l = 0 against the exact delta and intermediate poles."""

    @pytest.mark.parametrize("p", [DELTA, GpiParams(-12, 0, 0.8j), INTERMEDIATE,
                                   GpiParams(0, 0, -0.6 + 0.4j)],
                             ids=["delta", "delta-im-gamma", "intermediate", "intermediate-neg"])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("span", [40.0, 400.0])   # re_max R
    def test_poles_match_closed_form(self, p, radius, span):
        want = _closed_form_l0(p, radius, span / radius)
        got = [pole.k for pole in find_poles(p, Channel(0, radius), span / radius)]
        assert len(got) == len(want) > 10
        for k, ref in zip(got, want):
            assert abs(k - ref) <= 1e-12 * max(1.0, abs(ref))


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
        "cell counts 1 and Newton converges to the zero just outside it"))
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

    # at 3.5 - 1.3i and 3.5 - 0.2i the search once ended in an untyped pole count mismatch
    @pytest.mark.parametrize("k0", [K1, 2 - 1.3j, 4.77 - 0.41j, 3.5 - 1.3j, 3.5 - 0.2j])
    def test_double_zero_is_never_returned(self, k0, monkeypatch):
        with pytest.raises((BoundaryZero, ClusteredZeros)):
            self._search(monkeypatch, lambda p, ch, k: (k - k0) ** 2 * (k + 5))

    def test_a_zero_hugging_a_re_split_cell_is_named(self, monkeypatch):
        # the double zero at k0 lies just outside a tiny cell that counts it once; Newton
        # converges to it from that cell twice, and the error names the root and the cell
        k0 = 3.0 - 0.9j
        with pytest.raises(BoundaryZero) as err:
            self._search(monkeypatch, lambda p, ch, k: (k - k0) ** 2 * (k + 5))
        found = re.fullmatch(r"zero of det lambda at \((.*)\) hugs (SearchRegion\(.*\))",
                             str(err.value))
        assert found and abs(complex(found[1]) - k0) < 1e-6
        region = SearchRegion(*map(float, re.findall(r"=([^,)]+)", found[2])))
        assert not _contains(region, k0)
        assert _contains(region, k0, abs(complex(region.width, region.height)))


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
