"""Exhaustive resonance search in the fourth quadrant of the momentum plane.

Zeros of det lambda are localized by the argument principle: the winding
number of the balanced determinant around a rectangle equals the number of
enclosed zeros (all poles of the function live at k = 0, outside every
search region).  A rectangle that counts c > 2 zeros is cut into
max(2, c // 2) equal strips across the way its zeros spread, which its
contour moments tell, and so on until every cell holds at most two zeros;
those cells seed damped Newton iterations, and the refined roots are
deduplicated and checked against the top-level count, so no resonance
inside the requested window can be silently missed.  The poles line up
along Re k about pi/R apart, so a long window is cut once into strips of
about two zeros each, and a strip of three is cut across its row.

A cell's boundary is one closed loop of (z, f) samples; a step through which
f turns by pi/2 or more is bisected, which pins the turn to a multiple of 2 pi
unless a zero sits on the boundary (a step with one end's |f| at most 1e-8
of the other end's, tested at the top of every bisection round, then stops
that loop's count; |f| grows like e^{R |Im k|} down a loop's sides, so a
floor taken from the whole loop would lie above |f| near the axis).  A
split is one array program for a whole generation of cells: every cut is
laid by one det lambda call, each strip's loop is gathered from its
parent's loop and the cuts, a cut walked by both strips it bounds, each
bisection round is one call for every loop, and the strips' loops are views
into one array.  So a sample of the parent's boundary is never computed
again however deep the subdivision goes; a zero on a cut moves every cut of
that cell, in the next program.

A strip of one or two zeros is seeded from its contour moments as its split
is counted; once every cell holds one or two, one ``refine`` call runs
Newton from every queued seed in lockstep, and one array test judges all
the cells.  A two-zero cell is solved when both roots converge inside it at
least _MIN_CELL_FACTOR / R apart (closer pairs are clusters) and farther
apart than deduplication merges.  Any other outcome splits the cell from its
loop; a one-zero cell gets one such pass, and a two-zero cell's children
theirs.

Everything here is deterministic: identical inputs produce bitwise-identical
pole lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotics import Resonance
from .errors import WinterresError
from .gpi import GpiParams, is_separated
from .krein import EXCLUDED_DISC, det_lambda, det_lambda_balanced
from .riccati import Channel

_FLOOR_REL = 1e-8            # boundary-zero floor relative to |f| at a step's ends
_MAX_PHASE_DEPTH = 48        # bisection depth per boundary segment
_MAX_TREE_DEPTH = 40         # rectangle subdivision depth cap
_MIN_CELL_FACTOR = 1e-6      # cells below 1e-6/R with count >= 2 are clusters
_RESIDUAL_TOL = 1e-9         # |det lambda| certified at returned poles
_DEDUPE_REL = 1e-8           # merge poles closer than 1e-8 |k|
_SPLIT_FRACTIONS = (0.5, 0.53125, 0.46875, 0.5625, 0.4375, 0.59375, 0.40625)
_AXIS_SLIVER = 1e-7          # top-edge offset (in 1/R) for separated couplings
_SEED_SLOP = 0.1             # moment seeds may lie this far (in diagonals) outside their cell


class BoundaryZero(WinterresError):
    """A zero of det lambda sits on (or hugs) the requested contour."""


class NonConvergence(WinterresError):
    """Newton refinement failed to converge to a certified root."""


class ClusteredZeros(WinterresError):
    """A near-degenerate pair resisted separation down to the cell floor."""


@dataclass(frozen=True)
class SearchRegion:
    """A rectangle [re_min, re_max] x [im_min, im_max] in the closed lower plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValueError(f"region bounds must be finite, got {self}")
        if not (0.0 < self.re_min < self.re_max):
            raise ValueError(f"need 0 < re_min < re_max, got [{self.re_min}, {self.re_max}]")
        if not (self.im_min <= self.im_max <= 0.0):
            raise ValueError(f"need im_min <= im_max <= 0, got [{self.im_min}, {self.im_max}]")
        if self.im_min == self.im_max:
            raise ValueError("region has zero height")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    def corners(self) -> list[complex]:
        """Counterclockwise boundary vertices, starting at the lower left."""
        return [complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max)]


class _Loop(NamedTuple):
    """A cell's closed boundary from its lower left corner, z over f, and its corners' columns."""

    zf: np.ndarray
    corners: list


class _Cell(NamedTuple):
    """A counted rectangle, from the window through the splits and the Newton queue.

    ``seeds`` are Newton's starts for a cell of one or two zeros (none for
    more); ``vertical`` says its cuts run parallel to the imaginary axis.
    """

    region: SearchRegion
    loop: _Loop
    count: int
    seeds: list
    vertical: bool


def _runs(base, step, length) -> np.ndarray:
    """Indices laid end to end: length[i] of them from base[i] on, step[i] apart."""
    ends = length.cumsum()
    out = np.arange(ends[-1], dtype=np.int32)
    out -= (ends - length).repeat(length)
    out *= step.repeat(length)
    out += base.repeat(length)
    return out


def _sample(fn, segments) -> tuple[np.ndarray, np.ndarray]:
    """Sides a to b for each (a, b), z over f end to end, and their offsets: one det lambda call.

    A side has both ends and n >= 8 steps below 0.4; sample j is
    a + (b - a) * j / n, taken part by part as Python does.
    """
    ab = np.array(segments)
    n = np.maximum(8, (abs(ab[:, 1] - ab[:, 0]) / 0.4).astype(int) + 1)
    starts = np.concatenate([[0], (n + 1).cumsum()])
    side = np.arange(n.size).repeat(n + 1)
    parts = ab.view(float)   # rows (Re a, Im a, Re b, Im b)
    z = (parts[side, :2] + (parts[:, 2:] - parts[:, :2])[side]
         * (np.arange(side.size) - starts[side])[:, None] / n[side, None]).view(complex)[:, 0]
    z[starts[1:] - 1] = ab[:, 1]
    return np.array([z, fn(z)]), starts


def _boundary(fn, region: SearchRegion) -> _Cell:
    """The region's boundary, freshly sampled and counted.

    Its four sides close into a loop: each but the left one stops one
    sample short of its end, the next side's first sample.  Raises
    BoundaryZero when the loop hits a floor.
    """
    c = region.corners()
    zf, starts = _sample(fn, list(zip(c, c[1:] + c[:1])))
    corners = starts[1:4] - [1, 2, 3]
    *counted, why = _resolve(fn, np.delete(zf, starts[1:4] - 1, axis=1),
                             np.array([0, zf.shape[1] - 3]), corners[None])
    if why:
        raise BoundaryZero(why[0])
    return _strips([region], *counted)[0]


def _resolve(fn, zf: np.ndarray, offsets: np.ndarray, corners: np.ndarray):
    """Count the zeros of fn in each region from its loop: the rest of ``_strips``'s
    arguments, then {loop: why} for each loop that hit a floor.

    Loop s is columns offsets[s] to offsets[s + 1] - 1 of zf (z over f),
    closed on its first sample, with its corners at offsets[s] + corners[s]
    (m x 3).  A count is the sum of the phases along its loop's four sides
    (see ``_rounds``), 0 for a loop that hit a floor; the new samples are
    then inserted into the loops.
    """
    heads = np.column_stack([offsets[:-1], offsets[:-1, None] + corners, offsets[1:] - 1])
    total, new, why = _rounds(fn, zf, heads.ravel())
    total = total.reshape(-1, 5).sum(axis=1) / (2.0 * math.pi)
    total[list(why)] = 0.0
    counts = np.rint(total)
    if (abs(total - counts) > 0.25).any():
        raise WinterresError(f"winding sums {2 * math.pi * total} failed to close to integers")
    if new:
        zm, fm, slot = (np.concatenate(part) for part in zip(*new))
        order = np.lexsort((abs(zm - zf[0, slot]), slot))   # in order along each step
        slot = slot[order]
        zf = np.insert(zf, slot + 1, np.array([zm, fm])[:, order], axis=1)
        heads += slot.searchsorted(heads)
    corners, offsets = heads[:, 1:4] - heads[:, :1], np.append(heads[:, 0], heads[-1, 4] + 1)
    return zf, offsets.tolist(), corners.tolist(), counts.astype(int).tolist(), why


def _rounds(fn, zf: np.ndarray, heads: np.ndarray):
    """The phase each side turns through, per round its new samples (z, f, step of zf),
    and {loop: why} for each loop that hit a floor.

    ``heads`` holds the first columns of each loop's four sides and of its
    closing step, to the next loop, which no one looks at.  A round bisects,
    in one det lambda call for all, the steps of pi/2 or more and, in each of
    the first ceil(log2(8 / n)) rounds, every step of a side of n < 8 steps,
    so that every side ends with 8 steps or more.  The floor is local: at the
    top of each round, a step with one end at or under 1e-8 times |f| at its
    other end drops its loop, and so does a step still wide after the last
    round; the phase of its sides then means nothing.
    """
    count, mag = heads.size, abs(zf[1])
    lost, why = np.zeros(count // 5, bool), {}

    def lose(sides, text):
        """Drop the loops of these steps' sides; each keeps text(j) of its first step j."""
        loops, first = np.unique(sides // 5, return_index=True)
        lost[loops] = True
        for s, j in zip(loops.tolist(), first.tolist()):
            why[s] = text(j)

    # the steps to look at, every one at first: their ends z, f, z, f, step of zf and side
    ends = (zf[0, :-1], zf[1, :-1], zf[0, 1:], zf[1, 1:])
    slot = np.arange(zf.shape[1] - 1, dtype=np.int32)
    at = heads.searchsorted(slot, "right") - 1
    closing = heads[4:-1:5]   # the steps between loops
    steps = np.append(np.diff(heads), 8)   # of each side
    steps[4::5] = 8   # a closing step is never short
    halvings = np.ceil(np.log2(8 / steps))   # the rounds that halve every step of a side
    short = halvings.max()   # the rounds in which some side is short
    total, new = np.zeros(count), []
    for depth in range(_MAX_PHASE_DEPTH + 1):
        za, fa, zb, fb = ends
        ma, mb = (abs(fa), abs(fb)) if depth else (mag[:-1], mag[1:])
        low = np.minimum(ma, mb) <= _FLOOR_REL * np.maximum(ma, mb)
        if not depth:
            low[closing] = False
        if low.any():
            bad = low.nonzero()[0]
            given = np.where(mb[bad] < ma[bad], zb[bad], za[bad])
            lose(at[bad], lambda j: f"zero of det lambda on the boundary at {given[j]}")
            keep = ~lost[at // 5]
            slot, at = slot[keep], at[keep]
            ends = np.stack([end[keep] for end in ends])
            za, fa, zb, fb = ends
            closing = (at % 5 == 4).nonzero()[0]
        phase = np.angle(fb / fa)
        if not depth:
            phase[closing] = 0.0
        marked = abs(phase) >= 0.5 * math.pi
        if depth < short:
            marked |= halvings[at] > depth
        split = marked.nonzero()[0]
        phase[split] = 0.0   # looked at again, as two halves
        total += np.bincount(at, phase, count)
        if not split.size:
            return total, new, why
        if depth == _MAX_PHASE_DEPTH:
            lose(at[split], lambda j: f"phase increment from {za[split[j]]} to {zb[split[j]]} "
                                      "cannot be resolved")
            return total, new, why
        zm = 0.5 * (za[split] + zb[split])
        fm = fn(zm)
        new.append((zm, fm, slot[split]))
        # next: the halves of each split step
        n, k = split.size, np.tile(split, 2)
        slot, at = slot[k], at[k]
        ends = ends[:, k] if depth else np.concatenate([zf[:, slot], zf[:, slot + 1]])
        ends[2, :n], ends[3, :n], ends[0, n:], ends[1, n:] = zm, fm, zm, fm


def _boxes(regions) -> np.ndarray:
    """Rows re_min, re_max, im_min, im_max of the regions' rectangles."""
    return np.array([(r.re_min, r.re_max, r.im_min, r.im_max) for r in regions]).T


def _inside(box: np.ndarray, k: np.ndarray, slop) -> np.ndarray:
    """Whether each k lies in its box (rows as ``_boxes``) widened by slop."""
    return ((box[0] - slop <= k.real) & (k.real <= box[1] + slop)
            & (box[2] - slop <= k.imag) & (k.imag <= box[3] + slop))


def _strips(regions, loops: np.ndarray, offsets: list, corners: list, counts: list):
    """The ``_Cell`` of each counted strip, its loop a view into ``loops``.

    Every strip that holds a zero takes its moments s_p, the sums of
    (z_mid - c)^p ln r / 2 pi i over its loop's steps of ratio r, c its
    centroid (Delves & Lyness, Math. Comp. 21, 1967), ln r = ln|r| + i arg r
    as no step turns by pi/2.  A strip of one or two zeros is seeded with
    c + s_1, or c + w for both roots of w^2 - s_1 w + (s_1^2 - s_2)/2
    (Kravanja & Van Barel, LNM 1727, 2000); a seed over _SEED_SLOP diagonals
    outside gives way to c.  A strip of n >= 2 zeros is cut across the way
    they spread: ``vertical`` when Re(s_2/n - (s_1/n)^2), the sum of
    (x - x_mean)^2 - (y - y_mean)^2 over its zeros divided by n, is 0 or
    more.  A strip of one or none is cut across its longer side.
    """
    box = _boxes(regions)[..., None]
    centre = 0.5 * (box[0] + box[1]) + 0.5j * (box[2] + box[3])
    slop, seeds = _SEED_SLOP * np.hypot(box[1] - box[0], box[3] - box[2]), centre.repeat(2, 1)
    spreads = np.zeros(len(counts))   # Re(n s_2 - s_1^2), n^2 times the mean spread
    for lo in range(0, len(counts), 64):   # 64 loops at a time bound the memory
        counted = [s for s in range(lo, min(lo + 64, len(counts))) if counts[s]]
        if not counted:
            continue
        a, b = counted[0], counted[-1] + 1
        n = np.array(counts[a:b])
        starts = np.subtract(offsets[a:b + 1], offsets[a])
        z, f = loops[:, offsets[a]:offsets[b]]
        r = f[1:] / f[:-1]
        dlog = np.empty_like(r)   # ln|r| + i arg r: a complex log is slow at |r| ~ 1
        np.log(abs(r), out=dlog.real)
        np.arctan2(r.imag, r.real, out=dlog.imag)
        dlog[starts[1:-1] - 1] = 0.0   # the steps between loops
        w = 0.5 * (z[1:] + z[:-1]) - centre[a:b, 0].repeat(np.diff(starts))[:-1]
        dlog *= w
        s1 = np.add.reduceat(dlog, starts[:-1]) / (2j * math.pi)
        s2 = np.add.reduceat(dlog * w, starts[:-1]) / (2j * math.pi)
        spreads[a:b] = (n * s2 - s1 * s1).real
        if all(counts[s] > 2 for s in counted):   # none to seed
            continue
        half = np.sqrt(2 * s2 - s1 * s1)
        ks = np.column_stack([np.where(n == 1, s1, 0.5 * (s1 + half)),
                              0.5 * (s1 - half)]) + centre[a:b]
        seeds[a:b] = np.where(_inside(box[:, a:b], ks, slop[a:b]), ks, centre[a:b])
    return [_Cell(region, _Loop(loops[:, a:b], [0] + corner), count,
                  ks[:count] if count < 3 else [],
                  spread >= 0.0 if count >= 2 else region.width >= region.height)
            for region, a, b, corner, count, ks, spread
            in zip(regions, offsets, offsets[1:], corners, counts, seeds.tolist(),
                   spreads.tolist())]


def count_zeros(p: GpiParams, ch: Channel, region: SearchRegion) -> int:
    """Number of zeros of det lambda inside the region, by winding count.

    Raises BoundaryZero when a zero sits on or hugs the boundary.
    """
    re_floor = EXCLUDED_DISC / ch.radius
    if region.re_min < re_floor * (1.0 - 1e-9):
        raise ValueError(f"re_min must stay above the excluded disc {re_floor}")
    fn = lambda k: det_lambda_balanced(p, ch, k)
    return _boundary(fn, region).count


_DAMPING = 0.5 ** np.arange(1, 11)   # t = 1/2 ... 1/1024, tried after a rejected full step
_MAX_STEPS = 100
_FAILURES = {1: "vanishing derivative at k = {k}",
             2: "stuck at residual floor |f| = {f} near k = {k}",
             3: f"no convergence after {_MAX_STEPS} damped steps from {{k0}}"}


def refine(p: GpiParams, ch: Channel, k0):
    """Damped Newton on the balanced determinant from seed k0, or from each of an array of seeds.

    The derivative is a central finite difference with step 1e-6 max(1, |k|)
    (the evaluator is smooth and cheap, and the step is sized for ~1e-10
    relative accuracy on functions of this scale).  A step that does not
    lower |f| is halved, down to t = 1/1024.  Iteration stops when the step
    falls below 1e-12 max(1, |k|) or the raw residual |det lambda| below
    1e-12 (the raw value, not the balanced one: the balanced free
    determinant decays deep in the lower half-plane without any zero
    there).  When the residual stop fires, the derivative at that point is
    already known, and one last correction k - f/f' is applied before the
    final residual: it costs no evaluation.

    All seeds follow these rules each on its own, but advance in lockstep:
    every round is one det lambda call for the points of all of them.  A
    seed with a step ready evaluates the full step together with the two
    difference points around it, so an accepted full step already has its
    next derivative.  Only a seed whose full step was rejected evaluates the
    damped steps t = 1/2 ... 1/1024, all in one round; at the accepted one
    it evaluates f and f' in the next round (as it does at the seed itself)
    before its residual is tested.

    A scalar seed returns (k, |det lambda(k)|) and raises NonConvergence
    after 100 steps, on a vanishing derivative or on a residual floor that
    damping cannot escape.  An array of seeds returns two arrays of its
    shape, NaN where Newton failed.  A zero seed raises ValueError.
    """
    k = np.array(k0, dtype=complex).reshape(-1)
    if not k.all():
        raise ValueError("seed must be nonzero")
    shape, n = np.shape(k0), k.size
    fk = np.full(n, complex(math.inf, 0.0))   # f at k; inf until it is evaluated
    deriv, step = np.zeros(n, complex), np.zeros(n, complex)
    steps, failed = np.zeros(n, int), np.zeros(n, int)   # failed: a key of _FAILURES
    root = np.full(n, complex(math.nan, math.nan))

    def newton(cells):
        """Cells with f and f' at k: stop, fail, or set the next step; returns those to go on."""
        kc, fc, dc = k[cells], fk[cells], deriv[cells]
        sc = -fc / dc
        capped = steps[cells] >= _MAX_STEPS
        # |det lambda| = |balanced| e^{-R Im k}; stopping there, k - f/f' comes free
        stop = ~capped & ((np.abs(fc) * np.exp(-ch.radius * kc.imag) < 1e-12)
                          | (np.abs(sc) < 1e-12 * np.maximum(1.0, np.abs(kc))))
        root[cells[stop]] = (kc + np.where(np.isfinite(sc), sc, 0.0))[stop]
        go = ~stop & ~capped & np.isfinite(sc)   # damping a non-finite step finds no lower |f|
        lost = ~stop & ~go
        failed[cells[lost]] = np.where(capped, 3, np.where(dc == 0, 1, 2))[lost]
        cells = cells[go]
        step[cells] = sc[go]
        steps[cells] += 1
        return cells

    # Each round, a cell of `centre` evaluates k + step and the two difference
    # points around it (with step 0 at the seed and after a damped step); a
    # cell of `ladder` evaluates k + t step for every damping factor t.
    centre, ladder = np.arange(n), np.zeros(0, int)
    with np.errstate(all="ignore"):   # a runaway seed overflows; it then fails on its own
        while centre.size or ladder.size:
            trial = k[centre] + step[centre]
            h = 1e-6 * np.maximum(1.0, np.abs(trial))
            rungs = k[ladder, None] + _DAMPING * step[ladder, None]
            m = trial.size
            values = det_lambda_balanced(
                p, ch, np.concatenate([trial, trial + h, trial - h, rungs.ravel()]))

            lower = np.abs(values[:m]) < np.abs(fk[centre])
            moved = centre[lower]
            k[moved], fk[moved] = trial[lower], values[:m][lower]
            deriv[moved] = ((values[m:2 * m] - values[2 * m:3 * m]) / (2.0 * h))[lower]
            lower_rungs = np.abs(values[3 * m:].reshape(rungs.shape)) < np.abs(fk[ladder, None])
            found = lower_rungs.any(axis=1)
            failed[ladder[~found]] = 2
            damped = ladder[found]
            k[damped] = rungs[found, lower_rungs.argmax(axis=1)[found]]
            fk[damped], step[damped] = math.inf, 0.0
            centre, ladder = np.concatenate([newton(moved), damped]), centre[~lower]

    ok = np.isfinite(root)
    residual = np.full(n, math.nan)
    if ok.any():
        residual[ok] = np.abs(det_lambda(p, ch, root[ok]))
    if shape:
        return root.reshape(shape), residual.reshape(shape)
    if not ok[0]:
        raise NonConvergence(_FAILURES[failed[0]].format(k=complex(k[0]), f=abs(fk[0]),
                                                         k0=complex(k0)))
    return complex(root[0]), float(residual[0])


def default_im_min(re_max: float, radius: float) -> float:
    """Search floor deep enough for the logarithmic descent of delta poles, at most -5/R."""
    return -(max(math.log(re_max * radius), 0.0) + 5.0) / radius


def find_poles(p: GpiParams, ch: Channel, re_max: float,
               im_min: float | None = None) -> list[Resonance]:
    """All zeros of det lambda in [1e-3/R, re_max] x [im_min, 0], refined.

    ``im_min=None`` selects the default floor -(max(ln(re_max R), 0) + 5)/R.  For
    separated interactions the top edge is lowered by a 1e-7/R sliver: their
    real-axis zeros are embedded eigenvalues, which belong to
    ``real_axis_roots``, not to the resonance list, and would sit on a top
    edge at 0.  Below the sliver such a search returns its resonances.

    A cell of c > 2 zeros is cut into max(2, c // 2) strips across the way
    its zeros spread, one generation of cells at a time (see ``_subdivide``),
    until every cell holds one or two, and Newton runs from their moment
    seeds; a cell whose roots are rejected is split from its loop.  A
    two-zero cell's roots must both converge inside it, at least
    max(1e-6/R, 1e-8 |k|) apart, so a double zero raises ClusteredZeros or
    BoundaryZero and never comes back as two poles.

    The returned list is sorted by Re k, deduplicated, every pole carries
    |det lambda| < 1e-9, and its length equals the top-level winding count.
    Indices are ordinals (0, 1, ...) until ``index_poles`` assigns lattice
    positions.
    """
    re_floor = EXCLUDED_DISC / ch.radius
    if not re_max > re_floor:
        raise ValueError(f"re_max must exceed {re_floor}")
    if im_min is None:
        im_min = default_im_min(re_max, ch.radius)
    im_top = -_AXIS_SLIVER / ch.radius if is_separated(p) else 0.0
    if not im_min < im_top:
        raise ValueError(f"im_min must lie below {im_top}")
    top = SearchRegion(re_floor, re_max, im_min, im_top)
    fn = lambda k: det_lambda_balanced(p, ch, k)
    window = _boundary(fn, top)

    min_cell = _MIN_CELL_FACTOR / ch.radius
    found: list[tuple[complex, float]] = []

    def split(due):
        """The (strip, depth, resplit) of each strip that holds zeros, for a generation of
        (cell, depth, resplit), unless a cell is a cluster."""
        if not due:
            return []
        for (region, _, count, _, _), depth, _ in due:
            if count > 1 and min(region.width, region.height) < min_cell:
                raise ClusteredZeros(f"{count} zeros in cell {region} below the size floor")
            if count > 1 and depth >= _MAX_TREE_DEPTH:
                raise ClusteredZeros(f"subdivision depth cap at {region}")
        return [(strip, depth + 1, resplit)
                for (_, depth, resplit), strips in zip(due, _subdivide(fn, [c for c, _, _ in due]))
                for strip in strips if strip.count]

    # a cell, its depth, and whether it is a one-zero cell that has had its re-split pass
    due = [(window, 0, False)] if window.count else []
    while due:
        queue = []   # cells of one or two zeros
        while due:   # one generation: every cell of three zeros or more, in one program
            queue += [item for item in due if item[0].count <= 2]
            due = split([item for item in due if item[0].count > 2])
        cells = [cell for cell, _, _ in queue]
        roots, residuals = refine(p, ch, np.array([k for cell in cells for k in cell.seeds]))
        counts = np.array([cell.count for cell in cells])
        first = counts.cumsum() - counts   # each cell's first root
        inside = _inside(_boxes([cell.region for cell in cells]).repeat(counts, axis=1), roots,
                         1e-9 * np.maximum(1.0, abs(roots)))
        # a pair closer than min_cell is a cluster, and one that dedupe would merge is lost
        ok = np.logical_and.reduceat(inside, first) & ((counts == 1) | (
            abs(roots[first] - roots[first + counts - 1])
            >= np.maximum(min_cell, _DEDUPE_REL * abs(roots[first]))))
        keep = ok.repeat(counts)
        found.extend(zip(roots[keep].tolist(), residuals[keep].tolist()))
        rejected = list(itertools.compress(queue, ~ok))
        for cell, _, resplit in rejected:
            if resplit:
                raise NonConvergence(f"could not pin the single zero of {cell.region}")
        # a one-zero cell's one re-split pass; a two-zero cell leaves its children theirs
        due = split([(cell, depth, cell.count == 1) for cell, depth, _ in rejected])

    found.sort(key=lambda item: (item[0].real, item[0].imag))
    merged: list[tuple[complex, float]] = []
    for k_root, residual in found:
        if merged and abs(k_root - merged[-1][0]) < _DEDUPE_REL * abs(k_root):
            if residual < merged[-1][1]:
                merged[-1] = (k_root, residual)
            continue
        merged.append((k_root, residual))
    if len(merged) != window.count:
        raise WinterresError(
            f"pole bookkeeping failed: counted {window.count}, refined {len(merged)}")
    bad = [item for item in merged if item[1] >= _RESIDUAL_TOL]
    if bad:
        raise NonConvergence(f"{len(bad)} poles above the residual tolerance: {bad}")
    return [Resonance(i, k_root, residual)
            for i, (k_root, residual) in enumerate(merged)]


def _cut(base, length, first: int, keys: np.ndarray, at: np.ndarray, points: np.ndarray):
    """Write into base and length (m x 3) the runs of a side's pieces between cut points.

    The side is columns first, first + 1, ... of nondecreasing keys; a piece is
    the point before it, its columns and the point after it.  A sample at a
    point (key in ``at``, column in ``points``) gives way to it.
    """
    lo, hi = keys.searchsorted(at), keys.searchsorted(at, "right")
    base[1:, 0] = base[:-1, 2] = points
    length[1:, 0] = length[:-1, 2] = 1
    base[0, 1], base[1:, 1] = first, first + hi
    length[:-1, 1], length[-1, 1] = lo, keys.size
    length[1:, 1] -= hi


def _layout(loop: _Loop, vertical: bool, at: np.ndarray, starts: np.ndarray):
    """Each strip's loop as three runs (base, step, length) a side, m x 4 x 3, every side whole.

    The runs index [loop | cuts] with cut j, at ``at[j]``, in its columns
    starts[j] to starts[j + 1] - 1.  From the side that runs like the cuts'
    walk on (the second if ``vertical``, else the third) a strip's sides are
    its piece of `along`, the cut after it or `last`, its piece of `across`
    and the cut before it walked back or `first`; they are then turned back
    to start from side 0.
    """
    m, turn = at.size + 1, 0 if vertical else 1
    # the parent's sides turned so that the cuts run like the second, as columns of its loop
    ends = list(loop.corners) + [loop.zf.shape[1] - 1]
    along, last, across, first = [(ends[i % 4], ends[i % 4 + 1]) for i in range(turn, turn + 4)]
    z = loop.zf[0].real if vertical else loop.zf[0].imag
    # the cuts' ends on `along` and on `across`
    head, tail, size = starts[:-1], starts[1:] - 1, np.diff(starts)
    head, tail = (head, tail) if vertical else (tail, head)
    base, step, length = (np.full((m, 4, 3), v) for v in (0, 1, 0))
    _cut(base[:, 0], length[:, 0], along[0], z[along[0]:along[1] + 1], at, head)
    _cut(base[::-1, 2], length[::-1, 2], across[0], -z[across[0]:across[1] + 1], -at[::-1],
         tail[::-1])
    base[:-1, 1, 1], step[:-1, 1, 1], length[:-1, 1, 1] = head, 1 - 2 * turn, size
    base[1:, 3, 1], step[1:, 3, 1], length[1:, 3, 1] = tail, 2 * turn - 1, size
    base[-1, 1, 1], length[-1, 1, 1] = last[0], last[1] - last[0] + 1
    base[0, 3, 1], length[0, 3, 1] = first[0], first[1] - first[0] + 1
    return [a[:, range(-turn, 4 - turn)] for a in (base, step, length)]


def _subdivide(fn, cells: list) -> list:
    """Cut each cell into strips whose counts add up to its own, from its loop: one array
    program for a whole generation.

    A cell of c zeros is cut into m = max(2, c // 2) equal strips, by cuts
    parallel to the imaginary axis if it is ``vertical`` and to the real
    axis if not.  One det lambda call lays every cut; each strip's loop is
    gathered from its parent's loop and the cuts, a cut walked by both its
    strips, and one ``_resolve`` counts them all.  A cell whose strips hit a
    floor (a zero on or near a cut), or whose counts do not add up, moves
    every cut 2 (frac - 0.5) / m of the side for the next of
    _SPLIT_FRACTIONS, in the next program with the other such cells; the
    rest keep their strips.  Returns each cell's strips left to right (or
    up).
    """
    out, tries, todo = [None] * len(cells), [0] * len(cells), list(range(len(cells)))
    while todo:
        regions, ats, lines = [], [], []
        for i in todo:
            region, _, count, _, vertical = cells[i]
            m, frac = max(2, count // 2), _SPLIT_FRACTIONS[tries[i]]
            start, end = ((region.re_min, region.re_max) if vertical
                          else (region.im_min, region.im_max))
            at = [start + ((j + 2.0 * frac - 1.0) / m) * (end - start) for j in range(1, m)]
            bounds = zip([start] + at, at + [end])
            if vertical:  # cuts parallel to the imaginary axis, sampled and walked upwards
                regions.append([SearchRegion(lo, hi, region.im_min, region.im_max)
                                for lo, hi in bounds])
                lines += [(complex(x, region.im_min), complex(x, region.im_max)) for x in at]
            else:         # cuts parallel to the real axis, sampled rightwards and walked leftwards
                regions.append([SearchRegion(region.re_min, region.re_max, lo, hi)
                                for lo, hi in bounds])
                lines += [(complex(region.re_min, y), complex(region.re_max, y)) for y in at]
            ats.append(np.array(at))
        cuts, offsets = _sample(fn, lines)
        # the strips' loops as runs over [every parent's loop | every cut]
        loops = [cells[i].loop.zf for i in todo]
        column = np.cumsum([0] + [zf.shape[1] for zf in loops])
        layouts, k = [], 0
        for i, at, col in zip(todo, ats, column):
            layouts.append(_layout(cells[i].loop, cells[i].vertical, at,
                                   column[-1] - col + offsets[k:k + at.size + 1]))
            layouts[-1][0] += col
            k += at.size
        base, step, length = (np.concatenate(part) for part in zip(*layouts))
        # every side but the left one stops one sample short of its end
        sides = length.sum(axis=2)
        sides[:, :3] -= 1
        stop = length.cumsum(axis=2)
        length = np.minimum(stop, sides[..., None]) - np.minimum(stop - length, sides[..., None])
        runs = _runs(base.ravel(), step.ravel(), length.ravel())
        # the loops are not held here, so the insert of new samples frees them
        zf, offsets, corners, counts, why = _resolve(
            fn, np.concatenate(loops + [cuts], axis=1)[:, runs],
            np.append(0, sides.sum(axis=1).cumsum()), sides[:, :3].cumsum(axis=1))
        first = np.cumsum([0] + [len(strips) for strips in regions]).tolist()
        # counts that disagree: a zero slipped between the sampled cut lines
        ok = [sum(counts[a:b]) == cells[i].count and not any(a <= s < b for s in why)
              for i, a, b in zip(todo, first, first[1:])]
        # a strip that hit a floor, counted 0, may hold f = 0 among counted strips; its
        # sums go unused
        with np.errstate(divide="ignore", invalid="ignore"):
            strips = _strips([strip for cell in regions for strip in cell], zf, offsets,
                             corners, counts)
        for i, good, a, b in zip(todo, ok, first, first[1:]):
            if good:
                out[i] = strips[a:b]
        todo = [i for i, good in zip(todo, ok) if not good]
        for i in todo:
            tries[i] += 1
            if tries[i] == len(_SPLIT_FRACTIONS):
                raise BoundaryZero(f"no clean split line found inside {cells[i].region}")
    return out
