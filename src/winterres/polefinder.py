"""Exhaustive resonance search in the fourth quadrant of the momentum plane.

Zeros of det lambda are localized by the argument principle: the winding
number of the balanced determinant around a rectangle equals the number of
enclosed zeros (all poles of the function live at k = 0, outside every
search region).  The coupling is self-adjoint, so det lambda has no zero
with Im k > 0 off the imaginary axis, and a real zero only when it is
separated (R. G. Newton, Scattering Theory of Waves and Particles, 2nd ed.,
1982).  So the window of a coupling that is not separated reaches up to
Im k = +1/(2R), and its slab above the axis holds no zero: no resonance,
however narrow, sits on or near its top edge, where the phase rule would
cut deep to resolve it.  A separated coupling's window stops 1e-7/R
below the axis instead, under its embedded eigenvalues.  A rectangle that
counts c > 2 zeros is cut into
max(2, c // 2) equal strips across the way its zeros spread, which its
contour moments tell, and so on until every cell holds at most two zeros;
those cells seed damped Newton iterations, and the refined roots are
checked against the top-level count, no two within 1e-8 |k|, so no resonance
inside the requested window can be silently missed.  The poles line up
along Re k about pi/R apart, so a long window is cut once into strips of
about two zeros each, and a strip of three is cut across its row.

A cell's boundary is one closed loop of samples z, values f and, for the
step from each sample to the next, its log ratio d = ln(f_next / f); a
step through which f turns by pi/2 or more is cut into 8 equal pieces, and
so on round after round, which pins the turn to a multiple of 2 pi unless
a zero sits on the boundary (a step whose |f| falls or grows 1e8 times or
more, tested at the top of every round, then stops that loop's count; |f|
grows like e^{R |Im k|} down a loop's sides, so a floor taken from the
whole loop would lie above |f| near the axis).  A round of eighths does
the work of three halvings in one det lambda call, so a zero near a cut
or an edge costs a third of the calls.  Each step's log ratio is taken as
the step is made (a cut step's pieces once more, as they are put in the
loop) and carried with the loop: the phase, the floor and the contour
moments all read it.  A split is one array program for a whole generation
of cells: every cut is laid by one det lambda call and measured forwards
and walked back, each strip's loop is gathered from its parent's loop and
the cuts, a cut walked by both strips it bounds, and each round is one
call for every loop.  So a sample of the parent's boundary, and a
step between two of them, is never computed again however deep the
subdivision goes; a zero on a cut moves every cut of that cell, in the
next program.

The cells themselves are one record of parallel arrays (``_Cells``), from
the window through every generation to the Newton queue: each cell's box,
count, seeds, cut direction, depth and re-split flag, and its loop's
columns in its program's three rows.  Cut positions and strip boxes are
array arithmetic, ``_good`` judges every box (a strip's or a
``SearchRegion``'s), ``_close`` closes every loop from its sides' runs, and
a loop is read, as views, only when its cell is split; a search builds one
``SearchRegion``, its window, and another only for a message.

A strip of one or two zeros is seeded from its contour moments as its split
is counted, a program's in one pass; once every cell holds one or two, one
``refine`` call runs Newton from every queued seed in lockstep, a rejected
step halved for the next round, and one array test judges all the cells.
A two-zero cell is solved when both roots converge inside it at least
_MIN_CELL_FACTOR / R apart (closer pairs are clusters) and farther apart
than 1e-8 |k|.  Any other outcome splits the cell from its loop; a
one-zero cell gets one such pass, and a two-zero cell's children theirs.

Everything here is deterministic: identical inputs produce bitwise-identical
pole lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotics import Resonance
from .errors import WinterresError
from .gpi import GpiParams, is_separated
from .krein import _MAX_SAMPLES, EXCLUDED_DISC, det_lambda, det_lambda_balanced
from .riccati import Channel

_FLOOR_REL = 1e-8            # boundary-zero floor relative to |f| at a step's ends
_MAX_PHASE_DEPTH = 16        # rounds of eighths per boundary step: 48 halvings
_MAX_TREE_DEPTH = 40         # rectangle subdivision depth cap
_MIN_CELL_FACTOR = 1e-6      # cells below 1e-6/R with count >= 2 are clusters
_RESIDUAL_TOL = 1e-9         # |det lambda| certified at returned poles
_DEDUPE_REL = 1e-8           # no two poles closer than 1e-8 |k|
_SPLIT_FRACTIONS = (0.5, 0.53125, 0.46875, 0.5625, 0.4375, 0.59375, 0.40625)
_AXIS_SLIVER = 1e-7          # top-edge offset (in 1/R) below the axis for separated couplings
_LIFT = 0.5                  # top edge (in 1/R) above the axis for the others
_SEED_SLOP = 0.1             # moment seeds may lie this far (in diagonals) outside their cell
_EIGHTHS = np.arange(1, 8) / 8.0   # a cut step's inner points, as fractions of it


class BoundaryZero(WinterresError):
    """A zero of det lambda sits on (or hugs) the requested contour."""


class NonConvergence(WinterresError):
    """Newton refinement failed to converge to a certified root."""


class ClusteredZeros(WinterresError):
    """A near-degenerate pair resisted separation down to the cell floor."""


@dataclass(frozen=True)
class SearchRegion:
    """A rectangle [re_min, re_max] x [im_min, im_max] right of the imaginary axis.

    It may reach above the real axis, as the window of an interaction that is
    not separated does (see ``find_poles``).
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        if not _good(self.re_min, self.re_max, self.im_min, self.im_max):
            raise ValueError("region bounds must be finite, with 0 < re_min < re_max and "
                             f"im_min < im_max, got {self}")

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


class _Cells(NamedTuple):
    """Counted rectangles as parallel arrays, from the window through each split generation
    to the Newton queue: cell i is column i of ``box`` and entry i of the rest.

    ``box`` holds the rows re_min, re_max, im_min and im_max.  ``seeds``
    (m x 2) are Newton's starts for a cell of one or two zeros, its first
    ``count`` of them; ``vertical`` says its cuts run parallel to the
    imaginary axis; ``depth`` counts the splits above it, and ``resplit``
    marks a one-zero cell that has had its re-split pass.  Its loop is
    columns heads[i, 0] to heads[i, 4] of rows[i], the three rows z, f and
    d of the program that counted it, closed on its first sample, with its
    corners at heads[i, 1:4].
    """

    box: np.ndarray
    count: np.ndarray
    seeds: np.ndarray
    vertical: np.ndarray
    depth: np.ndarray
    resplit: np.ndarray
    heads: np.ndarray
    rows: np.ndarray


def _take(cells: _Cells, which: np.ndarray) -> _Cells:
    """The cells that ``which`` picks (a mask or indices), in its order."""
    if which.dtype == bool:
        which = which.nonzero()[0]
        if which.size == cells.count.size:   # every cell: the record itself
            return cells
    return _Cells(cells.box.take(which, 1), *[field.take(which, 0) for field in cells[1:]])


def _join(parts: list) -> _Cells:
    """The cells of several records, one record after another."""
    parts = [part for part in parts if part.count.size] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    fields = list(zip(*parts))
    return _Cells(np.concatenate(fields[0], axis=1), *map(np.concatenate, fields[1:]))


def _region(cells: _Cells, i) -> SearchRegion:
    """Cell i's rectangle, for a message."""
    return SearchRegion(*cells.box[:, i].tolist())


def _good(re_min, re_max, im_min, im_max):
    """Whether [re_min, re_max] x [im_min, im_max] is a search rectangle, for numbers or arrays:
    every bound finite, 0 < re_min < re_max and im_min < im_max."""
    return ((0.0 < re_min) & (re_min < re_max) & (re_max < math.inf)
            & (-math.inf < im_min) & (im_min < im_max) & (im_max < math.inf))


def _check(box: np.ndarray) -> None:
    """Raise ``SearchRegion``'s ValueError for the first box (a column of rows as
    ``_Cells.box``) that ``_good`` rejects."""
    good = _good(*box)
    if not good.all():
        SearchRegion(*box[:, good.argmin()].tolist())


def _close(base, length):
    """The columns and heads (as ``_Cells``') of closed loops laid end to end, from the runs of
    their sides (m x 4 x r; a run is length columns from base on).  Every side but the left
    one stops one sample short of its end, the next side's first sample."""
    sides = length.sum(axis=2)
    sides[:, :3] -= 1
    stop = length.cumsum(axis=2)
    length = (np.minimum(stop, sides[..., None])
              - np.minimum(stop - length, sides[..., None])).ravel()
    ends = length.cumsum()
    columns = np.arange(ends[-1], dtype=np.int32)
    columns += (base.ravel() - ends + length).repeat(length)
    ends = ends.reshape(stop.shape)[..., -1]   # past each side's last column
    return columns, np.column_stack([ends - sides, ends[:, 3] - 1])


def _dlog(fa, fb) -> np.ndarray:
    """ln r = ln|r| + i arg r of each ratio r = fb / fa: the one place a step's log ratio is formed.

    A complex log is slow at |r| ~ 1.  An f = 0 at an end makes the real
    part infinite or NaN, which the floor of ``_rounds`` catches.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = fb / fa
        d = np.empty_like(r)
        np.log(abs(r), out=d.real)
    np.arctan2(r.imag, r.real, out=d.imag)
    return d


def _steps(length):
    """The steps of a side of this length: 8 or more, each under 0.4, as a float, so that a
    side too long for an integer is counted too."""
    return np.maximum(8.0, np.floor(length / 0.4) + 1.0)


def _sample(fn, segments) -> tuple[np.ndarray, np.ndarray]:
    """Sides a to b for each (a, b), z over f end to end, and their offsets: one det lambda call.

    A side has both ends and n >= 8 steps below 0.4 (``_steps``); sample j is
    a + (b - a) * j / n, taken part by part as Python does.
    """
    a, b = np.asarray(segments, complex).T
    n = _steps(abs(b - a)).astype(int)
    starts = np.concatenate([[0], (n + 1).cumsum()])
    each = n + 1
    j, n = np.arange(starts[-1]) - starts[:-1].repeat(each), n.repeat(each)
    z = np.empty(j.size, complex)
    for part, x, y in ((z.real, a.real, b.real), (z.imag, a.imag, b.imag)):
        part[:] = x.repeat(each) + (y - x).repeat(each) * j / n
    z[starts[1:] - 1] = b
    return np.array([z, fn(z)]), starts


def _boundary(fn, region: SearchRegion) -> _Cells:
    """The region's boundary, freshly sampled and counted: a record of one cell.

    Its four sides close into a loop (see ``_close``).  Raises BoundaryZero
    when the loop hits a floor, and, before any det lambda call,
    WinterresError when its sides would take more than _MAX_SAMPLES samples.
    """
    samples = 2.0 * (_steps(region.width) + _steps(region.height) + 2.0)   # as _sample lays them
    if samples > _MAX_SAMPLES:
        raise WinterresError(f"window {region} would take {samples:.3g} boundary samples, "
                             f"over the budget of {_MAX_SAMPLES:.3g}")
    c = region.corners()
    zf, starts = _sample(fn, list(zip(c, c[1:] + c[:1])))
    columns, heads = _close(starts[:4].reshape(1, 4, 1), np.diff(starts).reshape(1, 4, 1))
    z, f = zf.take(columns, axis=1)
    d = np.zeros(f.size, complex)
    d[:-1] = _dlog(f[:-1], f[1:])
    rows, heads, counts, why = _resolve(fn, [z, f, d], heads)
    if why:
        raise BoundaryZero(why[0])
    box = np.array([[region.re_min], [region.re_max], [region.im_min], [region.im_max]])
    return _strips(box, np.zeros(1, int), np.zeros(1, bool), rows, heads, counts)


def _resolve(fn, zfd, heads: np.ndarray):
    """Count the zeros of fn in each region from its loop: the rows and ``heads`` with the
    new samples in, the counts, and {loop: why} for each loop that hit a floor.

    Loop s is columns heads[s, 0] to heads[s, 4] of the rows zfd (z, f and
    d, as ``_Cells``'), closed on its first sample, with its corners at
    heads[s, 1:4]; each loop starts where the one before it ends.  A count
    is the sum of the phases along its loop's four sides (see ``_rounds``),
    0 for a loop that hit a floor.  The new samples are then put in the
    loops row by row, those of one step in order of their distance from its
    start, and the log ratio of each step that starts at or ends on a new
    sample is taken again, from the same two values the round took it from.
    """
    total, new, why = _rounds(fn, zfd, heads.ravel())
    rows = list(zfd)
    total = total.reshape(-1, 5).sum(axis=1) / (2.0 * math.pi)
    total[list(why)] = 0.0
    counts = np.rint(total)
    if (abs(total - counts) > 0.25).any():
        raise WinterresError(f"winding sums {2 * math.pi * total} failed to close to integers")
    if new:
        zm, fm, slot = (np.concatenate(part) for part in zip(*new))
        n, m = rows[0].size, zm.size
        order = np.lexsort((abs(zm - rows[0][slot]), slot))   # in order along each step
        slot = slot[order]
        at = slot + np.arange(1, m + 1)   # the new samples' columns
        kept = np.ones(n + m, bool)
        kept[at] = False
        for i, row in enumerate(rows):
            rows[i] = np.empty(n + m, complex)
            rows[i][kept] = row
        rows[0][at], rows[1][at] = zm[order], fm[order]
        f, step = rows[1], np.concatenate([at - 1, at])   # the steps on each side of a new sample
        rows[2][step] = _dlog(f[step], f[step + 1])
        heads = heads + slot.searchsorted(heads)
    return rows, heads, counts.astype(int), why


def _rounds(fn, zfd, heads: np.ndarray):
    """The phase each side turns through, per round its new samples (z, f, step of zfd),
    and {loop: why} for each loop that hit a floor.

    ``heads`` holds the first columns of each loop's four sides and of its
    closing step, to the next loop, whose d of 0 neither turns nor floors.
    A round cuts into 8 equal pieces, in one det lambda call for all, the
    steps of pi/2 or more and, in the first round, every step of a side of
    n < 8 steps, so that every side ends with 8 steps or more: step a -> b
    gets the 7 inner points a + (b - a) j / 8, and each piece's log ratio d
    is taken from its two consecutive values as it is made.  A step turns by
    Im d.  The floor is local: at the top of each round, a step with
    |Re d| >= ln 1e8 (|f| at one end at or under 1e-8 times |f| at the
    other) or a NaN ratio (f = 0 at both ends) drops its loop, and so does a
    step still wide after the last round; the phase of its sides then means
    nothing.  The steps stay in order along their loops, each cut step's
    pieces in its place.
    """
    count, floor = heads.size, -math.log(_FLOOR_REL)
    z, f, d = zfd
    lost, why = np.zeros(count // 5, bool), {}

    def lose(sides, text):
        """Drop the loops of these steps' sides; each keeps text(j) of its first step j."""
        loops, first = np.unique(sides // 5, return_index=True)
        lost[loops] = True
        for s, j in zip(loops.tolist(), first.tolist()):
            why[s] = text(j)

    # the steps to look at, every one at first: the step of zfd each lies on, its side and
    # its log ratio; past the first round, its ends z, f, z, f too
    steps = np.zeros_like(heads)   # of each side; the last loop's closing step is none
    steps[:-1] = heads[1:] - heads[:-1]
    slot = np.arange(z.size - 1, dtype=np.int32)
    at, d = np.arange(count, dtype=np.int32).repeat(steps), d[:-1]
    steps[4::5] = 8   # a closing step is never short
    total, new = np.zeros(count), []
    for depth in range(_MAX_PHASE_DEPTH + 1):
        low = ~(abs(d.real) < floor)   # a NaN ratio too
        if low.any():
            bad = low.nonzero()[0]
            za, zb = ends[[0, 2]][:, bad] if depth else z[[slot[bad], slot[bad] + 1]]
            given = np.where(d.real[bad] < 0.0, zb, za)   # the end with the smaller |f|
            lose(at[bad], lambda j: f"zero of det lambda on the boundary at {given[j]}")
            keep = ~lost[at // 5]
            slot, at, d = slot[keep], at[keep], d[keep]
            if depth:
                ends = ends[:, keep]
        marked = abs(d.imag) >= 0.5 * math.pi
        if not depth:
            marked |= (steps < 8)[at]
        # a marked step is looked at again, as eight pieces
        total += np.bincount(at, np.where(marked, 0.0, d.imag), count)
        split = marked.nonzero()[0]
        if not split.size:
            return total, new, why
        if depth == _MAX_PHASE_DEPTH:
            za, zb = ends[[0, 2]][:, split]
            lose(at[split], lambda j: f"phase increment from {za[j]} to {zb[j]} "
                                      "cannot be resolved")
            return total, new, why
        if depth:
            za, fa, zb, fb = ends[:, split]
        else:
            a = slot[split]
            za, fa, zb, fb = z[a], f[a], z[a + 1], f[a + 1]
        zm = za[:, None] + (zb - za)[:, None] * _EIGHTHS
        fm = fn(zm.ravel())
        new.append((zm.ravel(), fm, slot[split].repeat(7)))
        # next: the pieces of each cut step, in order along it
        zs, fs = np.column_stack([za, zm, zb]), np.column_stack([fa, fm.reshape(zm.shape), fb])
        ends = np.array([zs[:, :-1], fs[:, :-1], zs[:, 1:], fs[:, 1:]]).reshape(4, -1)
        slot, at = slot[split].repeat(8), at[split].repeat(8)
        d = _dlog(ends[1], ends[3])


def _inside(box: np.ndarray, k: np.ndarray, slop) -> np.ndarray:
    """Whether each k lies in its box (rows as ``_Cells.box``) widened by slop."""
    return ((box[0] - slop <= k.real) & (k.real <= box[1] + slop)
            & (box[2] - slop <= k.imag) & (k.imag <= box[3] + slop))


def _strips(box: np.ndarray, depth, resplit, zfd: list, heads: np.ndarray,
            counts: np.ndarray) -> _Cells:
    """The record of a program's counted strips, in boxes ``box``, from ``_resolve``'s rows,
    heads and counts.

    Every strip takes its moments s_p, the sums of
    (z_mid - c)^p d / 2 pi i over its loop's steps of log ratio d, c its
    centroid (Delves & Lyness, Math. Comp. 21, 1967), d = ln r as no step
    turns by pi/2.  A strip of one or two zeros is seeded with
    c + s_1, or c + w for both roots of w^2 - s_1 w + (s_1^2 - s_2)/2
    (Kravanja & Van Barel, LNM 1727, 2000); a seed over _SEED_SLOP diagonals
    outside gives way to c.  A strip of n >= 2 zeros is cut across the way
    they spread: ``vertical`` when Re(s_2/n - (s_1/n)^2), the sum of
    (x - x_mean)^2 - (y - y_mean)^2 over its zeros divided by n, is 0 or
    more.  A strip of one or none is cut across its longer side.  The moments
    of all the loops are one ``np.add.reduceat`` pass whose every other sum
    ends at its loop's closing column, so that a loop's sums are those of the
    loop alone.
    """
    z, _, d = zfd
    edge = box[..., None]
    centre = 0.5 * (edge[0] + edge[1]) + 0.5j * (edge[2] + edge[3])
    # in place: fresh arrays the size of a long window's program cost more than its sums
    w = z[1:] + z[:-1]
    w *= 0.5
    w -= centre[:, 0].repeat(heads[:, 4] + 1 - heads[:, 0])[:-1]
    dlog = d[:-1] * w
    loops = heads[:, [0, 4]].ravel()[:-1]   # each loop's steps, then its closing step
    s1 = np.add.reduceat(dlog, loops)[::2] / (2j * math.pi)
    dlog *= w
    s2 = np.add.reduceat(dlog, loops)[::2] / (2j * math.pi)
    half = np.sqrt(2 * s2 - s1 * s1)
    ks = np.column_stack([np.where(counts == 1, s1, 0.5 * (s1 + half)),
                          0.5 * (s1 - half)]) + centre
    slop = _SEED_SLOP * np.hypot(edge[1] - edge[0], edge[3] - edge[2])
    seeds = np.where(_inside(edge, ks, slop), ks, centre)
    vertical = np.where(counts >= 2, (counts * s2 - s1 * s1).real >= 0.0,   # n^2 the spread
                        box[1] - box[0] >= box[3] - box[2])
    rows = np.empty(counts.size, object)
    rows.fill(zfd)
    return _Cells(box, counts, seeds, vertical, depth, resplit, heads, rows)


def count_zeros(p: GpiParams, ch: Channel, region: SearchRegion) -> int:
    """Number of zeros of det lambda inside the region, by winding count.

    Raises BoundaryZero when a zero sits on or hugs the boundary, and
    WinterresError, before any det lambda call, for a region whose sides
    would take more than 1e6 samples.
    """
    re_floor = EXCLUDED_DISC / ch.radius
    if region.re_min < re_floor * (1.0 - 1e-9):
        raise ValueError(f"re_min must stay above the excluded disc {re_floor}")
    fn = lambda k: det_lambda_balanced(p, ch, k)
    return int(_boundary(fn, region).count[0])


_MAX_HALVINGS = 10   # a rejected step is halved in place, down to t = 1/1024
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
    every round is one det lambda call in which each live seed evaluates
    k + step and the two difference points around it, so an accepted point,
    full or damped, already has its next derivative, and a rejected step is
    halved in place for the next round.  A step of j halvings so costs 1 + j
    rounds of 3 points: for j <= 2 no more rounds than all ten damped steps
    tried at once (3 rounds of 16 points in all), for j <= 4 no more points.

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
    step = np.zeros(n, complex)   # 0 at the seed, so its first round evaluates f and f' there
    steps, halvings, failed = np.zeros((3, n), int)   # failed: a key of _FAILURES
    root = np.full(n, complex(math.nan, math.nan))
    live = np.arange(n)
    with np.errstate(all="ignore"):   # a runaway seed overflows; it then fails on its own
        while live.size:
            trial = k[live] + step[live]
            h = 1e-6 * np.maximum(1.0, np.abs(trial))
            f, plus, minus = det_lambda_balanced(
                p, ch, np.concatenate([trial, trial + h, trial - h])).reshape(3, -1)
            lower = np.abs(f) < np.abs(fk[live])

            # a rejected step is halved up to _MAX_HALVINGS times; a rejected seed (step 0) is stuck
            held = live[~lower]
            stuck = (halvings[held] == _MAX_HALVINGS) | (step[held] == 0)
            failed[held[stuck]] = 2
            held = held[~stuck]
            step[held] *= 0.5
            halvings[held] += 1

            # an accepted point stops, fails, or sets its next step
            cells, kc, fc = live[lower], trial[lower], f[lower]
            dc = ((plus - minus) / (2.0 * h))[lower]
            k[cells], fk[cells], halvings[cells] = kc, fc, 0
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
            live = np.concatenate([cells, held])

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

    ``im_min=None`` selects the default floor -(max(ln(re_max R), 0) + 5)/R,
    and im_min must lie below 0 (below the sliver, for a separated
    interaction).  For an interaction that is not separated the window's top
    edge is lifted to +1/(2R): the slab above the axis holds no zero (see the
    module docstring), so the window holds the same zeros, and none of them
    lies near its top edge.  For separated interactions the top edge is
    lowered by a 1e-7/R sliver: their real-axis zeros are embedded
    eigenvalues, which belong to ``real_axis_roots``, not to the resonance
    list, and would sit on a top edge at 0.  Below the sliver such a search
    returns its resonances.  A window whose sides would take more than 1e6
    samples raises WinterresError, naming it and the count, before any det
    lambda call.

    A cell of c > 2 zeros is cut into max(2, c // 2) strips across the way
    its zeros spread, one generation of cells at a time (see ``_subdivide``),
    until every cell holds one or two, and Newton runs from their moment
    seeds; a cell whose roots are rejected is split from its loop.  A
    two-zero cell's roots must both converge inside it, at least
    max(1e-6/R, 1e-8 |k|) apart, so a double zero raises ClusteredZeros or
    BoundaryZero and never comes back as two poles.  A one-zero cell rejected
    after its re-split pass raises BoundaryZero when its root converged
    outside it but within one diagonal of it (a zero hugs the cell, which
    then miscounts), and NonConvergence otherwise.  Every generation, the
    Newton queue, the cluster and depth checks, the test of the roots and
    the re-split pass read the cells' ``_Cells`` record as arrays, in the
    order of their generations.

    The returned list is sorted by Re k (then Im k), has no two roots within
    1e-8 |k|, every pole carries |det lambda| < 1e-9, and its length equals
    the top-level winding count; otherwise WinterresError says "pole
    bookkeeping failed: counted N, refined M".  M leaves out each root within
    1e-8 |k| of the one before it, so a chain of roots, each near the one
    before it, counts as one.
    Indices are ordinals (0, 1, ...) until ``index_poles`` assigns lattice
    positions.
    """
    re_floor = EXCLUDED_DISC / ch.radius
    if not re_max > re_floor:
        raise ValueError(f"re_max must exceed {re_floor}")
    if im_min is None:
        im_min = default_im_min(re_max, ch.radius)
    separated = is_separated(p)
    below = -_AXIS_SLIVER / ch.radius if separated else 0.0   # the results' top edge
    if not im_min < below:
        raise ValueError(f"im_min must lie below {below}")
    top = SearchRegion(re_floor, re_max, im_min, below if separated else _LIFT / ch.radius)
    fn = lambda k: det_lambda_balanced(p, ch, k)
    window = _boundary(fn, top)

    min_cell = _MIN_CELL_FACTOR / ch.radius
    found = [(np.zeros(0, complex), np.zeros(0))]   # the roots and residuals of each batch

    def split(due: _Cells) -> _Cells:
        """The strips of a generation of cells, unless a cell is a cluster."""
        if not due.count.size:
            return due
        box = due.box
        small = np.minimum(box[1] - box[0], box[3] - box[2]) < min_cell
        bad = (due.count > 1) & (small | (due.depth >= _MAX_TREE_DEPTH))
        if bad.any():
            i = bad.argmax()
            if small[i]:
                raise ClusteredZeros(f"{due.count[i]} zeros in cell {_region(due, i)} "
                                     "below the size floor")
            raise ClusteredZeros(f"subdivision depth cap at {_region(due, i)}")
        return _subdivide(fn, due)

    due = window
    while due.count.any():
        queue = []   # cells of one or two zeros, a generation at a time
        while due.count.size:   # one generation: its cells of three zeros or more, in one program
            queue.append(_take(due, (due.count > 0) & (due.count < 3)))
            due = split(_take(due, due.count > 2))
        cells = _join(queue)
        counts = cells.count
        roots, residuals = refine(p, ch, cells.seeds[np.arange(2) < counts[:, None]])
        first = counts.cumsum() - counts   # each cell's first root
        inside = _inside(cells.box.repeat(counts, axis=1), roots,
                         1e-9 * np.maximum(1.0, abs(roots)))
        # a pair closer than min_cell is a cluster, and one within 1e-8 |k| is lost
        ok = np.logical_and.reduceat(inside, first) & ((counts == 1) | (
            abs(roots[first] - roots[first + counts - 1])
            >= np.maximum(min_cell, _DEDUPE_REL * abs(roots[first]))))
        keep = ok.repeat(counts)
        found.append((roots[keep], residuals[keep]))
        lost = ~ok & cells.resplit
        if lost.any():
            # a root within a diagonal of its cell: the zero hugs the cell, which miscounts
            i = lost.argmax()
            k, box = roots[first[i]], cells.box[:, i]
            if np.isfinite(k) and _inside(box, k, math.hypot(box[1] - box[0], box[3] - box[2])):
                raise BoundaryZero(f"zero of det lambda at {k} hugs {_region(cells, i)}")
            raise NonConvergence(f"could not pin the single zero of {_region(cells, i)}")
        # a one-zero cell's one re-split pass; a two-zero cell leaves its children theirs
        rejected = _take(cells, ~ok)
        due = split(rejected._replace(resplit=rejected.count == 1))

    roots, residuals = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((roots.imag, roots.real))   # stable: by Re k, then Im k
    roots, residuals = roots[order], residuals[order]
    # the roots within 1e-8 |k| of the one before them: a chain of m roots counts as one
    near = np.count_nonzero(abs(np.diff(roots)) < _DEDUPE_REL * abs(roots[1:]))
    if roots.size - near != window.count[0]:
        raise WinterresError(
            f"pole bookkeeping failed: counted {window.count[0]}, refined {roots.size - near}")
    bad = residuals >= _RESIDUAL_TOL
    if bad.any():
        raise NonConvergence(f"{np.count_nonzero(bad)} poles above the residual tolerance: "
                             f"{list(zip(roots[bad].tolist(), residuals[bad].tolist()))}")
    return list(map(Resonance, range(roots.size), roots.tolist(), residuals.tolist()))


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


def _layout(z: np.ndarray, ends: list, vertical: bool, at: np.ndarray, starts: np.ndarray,
            back: np.ndarray):
    """Each strip's loop as three runs (base, length) a side, m x 4 x 3, every side whole.

    The parent's loop has samples z and its corners at columns ends[:4],
    and ends on column ends[4].  The runs index [loop | cuts | cuts walked
    back], every one walked
    forwards: cut j, at ``at[j]``, is columns starts[j] to starts[j + 1] - 1,
    and walked back columns back[j + 1] to back[j] - 1.  From the side that
    runs like the cuts' walk on (the second if ``vertical``, else the third)
    a strip's sides are its piece of `along`, the cut after it or `last`,
    its piece of `across` and the cut before it walked back or `first`; they
    are then turned back to start from side 0.  A cut's end on a piece is
    taken where the walk before the piece ends, so that the two run on.
    """
    m, turn = at.size + 1, 0 if vertical else 1
    # the parent's sides turned so that the cuts run like the second, as columns of its loop
    along, last, across, first = [(ends[i % 4], ends[i % 4 + 1]) for i in range(turn, turn + 4)]
    z = z.real if vertical else z.imag
    # each cut's first column on its walk and walked back, and its ends on `along` and on `across`
    size = np.diff(starts)
    walk, walk_back = (starts[:-1], back[1:]) if vertical else (back[1:], starts[:-1])
    head, tail = walk_back + size - 1, walk + size - 1
    base, length = np.zeros((m, 4, 3), int), np.zeros((m, 4, 3), int)
    _cut(base[:, 0], length[:, 0], along[0], z[along[0]:along[1] + 1], at, head)
    _cut(base[::-1, 2], length[::-1, 2], across[0], -z[across[0]:across[1] + 1], -at[::-1],
         tail[::-1])
    base[:-1, 1, 1], base[1:, 3, 1] = walk, walk_back
    length[:-1, 1, 1] = length[1:, 3, 1] = size
    base[-1, 1, 1], length[-1, 1, 1] = last[0], last[1] - last[0] + 1
    base[0, 3, 1], length[0, 3, 1] = first[0], first[1] - first[0] + 1
    return [a[:, range(-turn, 4 - turn)] for a in (base, length)]


def _gather(fn, cells: _Cells, m: np.ndarray, at: np.ndarray):
    """The loops of the strips of the cells, cell i cut at its m[i] - 1 points of ``at``:
    ``_resolve``'s arguments but fn.

    One det lambda call lays every cut.  A cut's steps are measured forwards
    and walked back, each in the order it is walked, and so is the step from
    one cut to the next, which no loop takes.  Each strip's loop is then
    gathered a row at a time from [every cell's loop | every cut | every cut
    walked back]; a step that does not run on in that source joins two runs
    and is measured afresh.  The cells' loops are read as views here alone.
    """
    # a cut parallel to the imaginary axis runs upwards, one parallel to the real axis rightwards
    vertical, box = cells.vertical.repeat(m - 1), cells.box.repeat(m - 1, axis=1)
    lines = np.empty((at.size, 2), complex)
    lines.real = np.where(vertical, at, box[:2]).T
    lines.imag = np.where(vertical, box[2:], at).T
    cuts, offsets = _sample(fn, lines)
    spans = cells.heads.tolist()
    loops = [[row[ends[0]:ends[4] + 1] for row in rows] for rows, ends in zip(cells.rows, spans)]
    column = np.cumsum([0] + [zfd[0].size for zfd in loops])
    layouts, k = [], 0
    for zfd, ends, vertical, n, col in zip(loops, spans, cells.vertical.tolist(),
                                           (m - 1).tolist(), column):
        cut = offsets[k:k + n + 1]
        layouts.append(_layout(zfd[0], [e - ends[0] for e in ends], vertical, at[k:k + n],
                               column[-1] - col + cut, column[-1] + 2 * cuts.shape[1] - col - cut))
        layouts[-1][0] += col
        k += n
    runs, heads = _close(*(np.concatenate(part) for part in zip(*layouts)))
    ahead, back = np.zeros(cuts.shape[1], complex), np.zeros(cuts.shape[1], complex)
    ahead[:-1] = _dlog(cuts[1, :-1], cuts[1, 1:])
    back[:-1] = _dlog(cuts[1, 1:], cuts[1, :-1])[::-1]
    walks = [(cuts[0], cuts[0, ::-1]), (cuts[1], cuts[1, ::-1]), (ahead, back)]
    z, f, d = (np.concatenate(parents + walk).take(runs)   # a row at a time
               for parents, walk in zip(zip(*loops), walks))
    last = heads[:, 4]
    joins = runs[1:] - runs[:-1] != 1
    joins[last[:-1]] = False   # a loop's closing step is none
    joins = joins.nonzero()[0]
    d[joins] = _dlog(f[joins], f[joins + 1])
    d[last] = 0.0
    return [z, f, d], heads


def _subdivide(fn, cells: _Cells) -> _Cells:
    """The strips of a generation of cells, each cell's left to right (or up) and their counts
    adding up to its own, cut from its loop: one array program for the generation.

    A cell of c zeros is cut into m = max(2, c // 2) equal strips, by cuts
    parallel to the imaginary axis if it is ``vertical`` and to the real
    axis if not; every cut position and strip bound is array arithmetic on
    the cells' boxes, and one test checks every strip's box as
    ``SearchRegion`` would.  One det lambda call lays every cut, which is
    measured forwards and walked back; each strip's loop is gathered row by
    row from its parent's loop and the cuts, a cut walked by both its
    strips, so that only the steps where two runs join are measured afresh
    (see ``_gather``), and one ``_resolve`` counts them all.  A cell whose
    strips hit a floor (a zero on or near a cut), or whose counts do not
    add up, moves every cut 2 (frac - 0.5) / m of the side for the next of
    _SPLIT_FRACTIONS, in the next program with the other such cells; the
    rest keep their strips.  A strip is one deeper than its cell and keeps
    its ``resplit``.
    """
    todo, kept, owner = np.ones(cells.count.size, bool), [], []   # the cells still to split
    for frac in _SPLIT_FRACTIONS:   # the cells of a program are all at the same try
        index, part = todo.nonzero()[0], _take(cells, todo)
        m = np.maximum(2, part.count // 2)
        # each cell's first strip, and each cut's cell and the strip before the cut
        first, cell = m.cumsum() - m, np.arange(m.size).repeat(m - 1)
        k = np.arange(cell.size) + cell
        row = np.where(part.vertical, 0, 2)[cell]   # the box row of the strip's lower bound
        box = part.box.repeat(m, axis=1)
        start, end = box[row, k], box[row + 1, k]
        at = start + ((k + 1 - first[cell] + 2.0 * frac - 1.0) / m[cell]) * (end - start)
        box[row, k + 1] = box[row + 1, k] = at
        _check(box)
        zfd, heads, counts, why = _resolve(fn, *_gather(fn, part, m, at))
        # counts that disagree: a zero slipped between the sampled cut lines
        ok = np.add.reduceat(counts, first) == part.count
        strip = np.arange(m.size).repeat(m)
        ok[strip[list(why)]] = False
        # a strip that hit a floor, counted 0, may hold f = 0 and so an infinite or NaN d
        # among counted strips; its sums go unused
        with np.errstate(invalid="ignore"):
            strips = _strips(box, part.depth[strip] + 1, part.resplit[strip], zfd, heads, counts)
        good = ok[strip]
        kept.append(_take(strips, good))
        owner.append(index[strip[good]])
        todo[index[ok]] = False
        if not todo.any():
            break
    else:
        raise BoundaryZero(f"no clean split line found inside {_region(cells, todo.argmax())}")
    if len(kept) == 1:
        return kept[0]
    return _take(_join(kept), np.argsort(np.concatenate(owner), kind="stable"))
