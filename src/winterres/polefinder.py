"""Exhaustive resonance search in the fourth quadrant of the momentum plane.

Zeros of det lambda are localized by the argument principle: the winding
number of the balanced determinant around a rectangle equals the number of
enclosed zeros (all poles of the function live at k = 0, outside every
search region).  A rectangle that counts c > 2 zeros is cut across its longer
side into max(2, c // 2) equal strips, and so on until every cell holds at
most two zeros; those cells seed damped Newton iterations, and the refined
roots are deduplicated and checked against the top-level count, so no
resonance inside the requested window can be silently missed.  The poles
line up along Re k about pi/R apart, so a long window is cut once into
strips of about two zeros each.

A cell's boundary is one closed loop of (z, f) samples, counterclockwise
from its lower left corner back to it, with the indices of its four corners.
The phase f turns through from each sample to the next is taken from the
values whenever a count needs it, and any step of pi/2 or more is bisected,
which pins the total to the correct multiple of 2 pi as long as no zero sits
on the boundary itself.  Boundary hits are detected by a magnitude floor
relative to the median sample and raise BoundaryZero: a count always answers
for exactly the rectangle it was given.

Each cell on the subdivision stack and in the Newton queue keeps its resolved
loop, so a split evaluates det lambda only along the new cuts: a strip's loop
is its pieces of the parent's sides plus the cuts on either side, and every
boundary sample is computed once however deep the subdivision goes.  A strip
inherits samples and values only, never phases: its count takes the phase of
every step afresh, one numpy operation over the loop.  All the cuts of one
split, end points included, are one array call of det lambda.  Steps of pi/2
or more are bisected in rounds, each round one array call for the midpoints of
every such step of the loop; a strip's side that is a short piece of its
parent's gets the longest of its steps bisected in the same rounds until it
has 8.  When a zero sits on (or too close to) a cut, subdivision catches
BoundaryZero and cuts again with every line shifted, so the strips still
partition the parent.

A cell that holds one or two zeros is not refined when it is found, and a
two-zero cell is not split: it waits in the queue.  When the stack is empty,
one ``refine`` call runs Newton in lockstep from one seed per zero of every
queued cell, read off the contour moments of its loop (see ``_seed``), each
round one array call of det lambda.  A two-zero cell is solved when both roots
converge inside it at least _MIN_CELL_FACTOR / R apart (closer pairs are
clusters) and farther apart than deduplication merges.  Any other outcome
splits the cell from the loop it was counted on, so its strips' counts add up
to its own, and the strips go back on the stack; a one-zero cell gets one such
pass, and a two-zero cell's children still get theirs.

Everything here is deterministic: identical inputs produce bitwise-identical
pole lists.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .asymptotics import Resonance
from .errors import WinterresError
from .gpi import GpiParams, is_separated
from .krein import EXCLUDED_DISC, det_lambda, det_lambda_balanced
from .riccati import Channel

_FLOOR_REL = 1e-8            # boundary-zero floor relative to median |f|
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

    def contains(self, k: complex, slop: float = 0.0) -> bool:
        return (self.re_min - slop <= k.real <= self.re_max + slop
                and self.im_min - slop <= k.imag <= self.im_max + slop)


class _Loop(NamedTuple):
    """A cell's boundary once around, counterclockwise from its lower left corner.

    ``zf`` holds the samples z in its first row and det lambda at them in
    its second, the first sample repeated at the end.  ``corners`` are the
    column indices of the four corners; the first is 0.
    """

    zf: np.ndarray
    corners: list


def _sample(fn, segments) -> list[np.ndarray]:
    """Freshly sampled sides, one from a to b for each (a, b): one det lambda call for all.

    Each side is a 2 x n array of z over f, both end points included.  The
    spacing stays below 0.4, which keeps the e^{+-ikR} factors from turning
    far between samples.
    """
    zs = []
    for a, b in segments:
        n = max(8, int(abs(b - a) / 0.4) + 1)
        zs.append([a] + [a + (b - a) * j / n for j in range(1, n)] + [b])
    z = np.array([w for side in zs for w in side])
    return np.split(np.array([z, fn(z)]), np.cumsum([len(side) for side in zs[:-1]]), axis=1)


def _close(sides) -> _Loop:
    """The loop through four sides (bottom, right, top, left), each starting where the last ends."""
    zf = np.concatenate([side[:, :-1] for side in sides] + [sides[0][:, :1]], axis=1)
    return _Loop(zf, list(accumulate((side.shape[1] - 1 for side in sides[:3]), initial=0)))


def _sides(loop: _Loop) -> list[np.ndarray]:
    """The loop's four sides (bottom, right, top, left), each with both its corners."""
    ends = loop.corners + [loop.zf.shape[1] - 1]
    return [loop.zf[:, a:b + 1] for a, b in zip(ends, ends[1:])]


def _boundary(fn, region: SearchRegion) -> _Loop:
    """The region's boundary loop, freshly sampled."""
    corners = region.corners()
    return _close(_sample(fn, [(corners[i], corners[(i + 1) % 4]) for i in range(4)]))


def _insert(fn, loop: _Loop, steps: np.ndarray, z: np.ndarray, floor: float) -> _Loop:
    """The loop with the samples z added, z[i] inside step steps[i], both in loop order.

    The one way a count adds samples to a loop: each round of _winding
    calls it once.  The new values take one det lambda call, and one at
    or under the floor raises BoundaryZero: no phase can be taken through
    it.
    """
    f = fn(z)
    low = np.flatnonzero(np.abs(f) <= floor)
    if low.size:
        raise BoundaryZero(f"|det lambda| below the floor at {z[low[0]]}")
    n, m = loop.zf.shape[1], steps.size
    at = steps + np.arange(1, m + 1)   # the columns of the new samples
    old = np.ones(n + m, bool)
    old[at] = False
    zf = np.empty((2, n + m), complex)
    zf[:, old], zf[0, at], zf[1, at] = loop.zf, z, f
    return _Loop(zf, (loop.corners + np.searchsorted(steps, loop.corners)).tolist())


def _winding(fn, region: SearchRegion, loop: _Loop) -> tuple[_Loop, int]:
    """Winding number of fn along the region's boundary loop (exact integer).

    Returns the resolved loop with the count.  Each round takes the phase
    of every step and bisects those of pi/2 or more, all in one det lambda
    call.  A split depends only on its step's end values, so the rounds
    insert the samples that bisecting each wide step depth first would.
    A side of n < 8 steps (a short piece of a parent's side) also has
    bisected, in the same rounds, its 8 - n longest steps (first on ties)
    among those at least half its longest, until it has 8 steps.  These
    are the samples that bisecting its longest step one at a time adds,
    except that a step as long as half a longer one is taken with it,
    where one at a time leaves that choice to rounding.  Raises BoundaryZero
    when a sample of the given loop falls under 1e-8 times their median,
    a new one at or under that floor, or a step is still wide after
    _MAX_PHASE_DEPTH rounds, all of which signal a zero on or very near
    the contour.
    """
    mag = np.sort(np.abs(loop.zf[1, :-1]))
    med = mag[mag.size // 2]
    floor = _FLOOR_REL * med
    if med == 0.0 or mag[0] < floor:
        raise BoundaryZero(f"zero of det lambda on the boundary of {region}")
    for depth in range(_MAX_PHASE_DEPTH + 1):
        z, f = loop.zf
        phase = np.angle(f[1:] / f[:-1])
        marked = np.abs(phase) >= 0.5 * math.pi
        ends = loop.corners + [z.size - 1]
        for a, b in zip(ends, ends[1:]):
            if b - a < 8:   # short: the 8 - n longest of its steps at least half its longest
                gap = np.abs(np.diff(z[a:b + 1]))
                top = np.argsort(-gap, kind="stable")[:8 - (b - a)]
                marked[a + top[gap[top] >= 0.4999995 * gap.max()]] = True
        split = np.flatnonzero(marked)
        if not split.size:
            break
        if depth == _MAX_PHASE_DEPTH:
            s = split[0]
            raise BoundaryZero(f"phase increment from {z[s]} to {z[s + 1]} cannot be resolved")
        loop = _insert(fn, loop, split, 0.5 * (z[split] + z[split + 1]), floor)
    total = float(phase.sum())
    n = round(total / (2.0 * math.pi))
    if abs(total / (2.0 * math.pi) - n) > 0.25:
        raise WinterresError(f"winding sum {total!r} failed to close to an integer")
    return loop, n


def count_zeros(p: GpiParams, ch: Channel, region: SearchRegion) -> int:
    """Number of zeros of det lambda inside the region, by winding count.

    Raises BoundaryZero when a zero sits on or hugs the boundary.
    """
    re_floor = EXCLUDED_DISC / ch.radius
    if region.re_min < re_floor * (1.0 - 1e-9):
        raise ValueError(f"re_min must stay above the excluded disc {re_floor}")
    fn = lambda k: det_lambda_balanced(p, ch, k)
    return _winding(fn, region, _boundary(fn, region))[1]


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


def _seed(region: SearchRegion, loop: _Loop, count: int) -> list[complex]:
    """Newton seeds of a cell that holds one or two zeros: from its contour moments.

    The moments s_p = (1/2 pi i) of the integral of (z - c)^p f'/f dz around
    the cell, c its centroid, are the power sums of its zeros measured from
    c (Delves & Lyness, Math. Comp. 21, 1967).  Each is summed as
    (z_mid - c)^p ln(f_{i+1} / f_i) over the steps of the resolved loop: the
    samples a count already made, and no det lambda call.  Every resolved
    step turns by less than pi/2, so the principal logarithm is the change
    of ln f along it.  One zero is c + s_1.  Two zeros c + w solve
    w^2 - s_1 w + (s_1^2 - s_2)/2 = 0, whose roots are the eigenvalues of
    the 2 x 2 Hankel pencil of the moments (Kravanja & Van Barel, LNM 1727,
    2000).  A seed farther outside the cell than _SEED_SLOP of its diagonal
    gives way to the centroid.  (A zero that hugs an edge can have its
    moment just outside; the centroid would start Newton far from it.)
    """
    centroid = complex(0.5 * (region.re_min + region.re_max),
                       0.5 * (region.im_min + region.im_max))
    z, f = loop.zf
    dlog = np.log(f[1:] / f[:-1])
    w = 0.5 * (z[1:] + z[:-1]) - centroid
    s1 = np.dot(w, dlog) / (2j * math.pi)
    if count == 1:
        seeds = [complex(centroid + s1)]
    else:
        half_gap = cmath.sqrt(2.0 * complex(np.dot(w * w, dlog) / (2j * math.pi)) - s1 * s1)
        seeds = [complex(centroid + 0.5 * (s1 + half_gap)),
                 complex(centroid + 0.5 * (s1 - half_gap))]
    slop = _SEED_SLOP * abs(complex(region.width, region.height))
    return [seed if region.contains(seed, slop) else centroid for seed in seeds]


def default_im_min(re_max: float, radius: float) -> float:
    """Search floor deep enough for the logarithmic descent of delta poles."""
    return -(math.log(re_max * radius) + 5.0) / radius


def find_poles(p: GpiParams, ch: Channel, re_max: float,
               im_min: float | None = None) -> list[Resonance]:
    """All zeros of det lambda in [1e-3/R, re_max] x [im_min, 0], refined.

    ``im_min=None`` selects the default floor -(ln(re_max R) + 5)/R.  For
    separated interactions the top edge is lowered by a 1e-7/R sliver: their
    real-axis zeros are embedded eigenvalues, which belong to
    ``real_axis_roots``, not to the resonance list.  The sliver does not
    always keep them off the contour: an embedded eigenvalue 1e-7/R above
    the top edge can pull |det lambda| there under the floor, and the
    search then raises BoundaryZero, as
    ``find_poles(GpiParams(4, 1, 0), Channel(0, 1.0), 20.0)`` does.

    The window is cut into strips, and a cell of c > 2 zeros into
    max(2, c // 2) strips again, until every cell holds one or two zeros
    (see ``_subdivide``).  Newton runs from the contour-moment seeds of those
    cells; a cell whose roots are rejected is split in two from the loop it
    was counted on.  A two-zero cell's roots must both converge inside it, at
    least max(1e-6/R, 1e-8 |k|) apart, so a double zero raises
    ClusteredZeros or BoundaryZero and never comes back as two poles.

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
    loop, total = _winding(fn, top, _boundary(fn, top))

    min_cell = _MIN_CELL_FACTOR / ch.radius
    found: list[tuple[complex, float]] = []
    stack = [(top, loop, total, 0, False)] if total else []

    def split(region, loop, count, depth, resplit):
        """Push the strips of a cell with `count` zeros, unless it is a cluster."""
        if count > 1 and min(region.width, region.height) < min_cell:
            raise ClusteredZeros(f"{count} zeros in cell {region} below the size floor")
        if count > 1 and depth >= _MAX_TREE_DEPTH:
            raise ClusteredZeros(f"subdivision depth cap at {region}")
        stack.extend((r, e, c, depth + 1, resplit)
                     for r, e, c in _subdivide(fn, region, loop, count) if c)

    while stack:
        queue = []   # cells (region, loop, count, depth, resplit) of one or two zeros
        while stack:
            cell = stack.pop()
            if cell[2] <= 2:
                queue.append(cell)
            else:
                split(*cell)
        seeds = [k for region, loop, count, _, _ in queue for k in _seed(region, loop, count)]
        roots, residuals = refine(p, ch, np.array(seeds))
        results = iter(zip(roots.tolist(), residuals.tolist()))
        for region, loop, count, depth, resplit in queue:
            cell = [next(results) for _ in range(count)]
            # a pair closer than min_cell is a cluster, and one that dedupe would merge is lost
            if (all(region.contains(k_root, slop=1e-9 * max(1.0, abs(k_root)))
                    for k_root, _ in cell)
                    and (count == 1 or abs(cell[0][0] - cell[1][0])
                         >= max(min_cell, _DEDUPE_REL * abs(cell[0][0])))):
                found.extend(cell)
            elif resplit:
                raise NonConvergence(f"could not pin the single zero of {region}")
            else:   # a one-zero cell's one re-split pass; a two-zero cell leaves its children theirs
                split(region, loop, count, depth, count == 1)

    found.sort(key=lambda item: (item[0].real, item[0].imag))
    merged: list[tuple[complex, float]] = []
    for k_root, residual in found:
        if merged and abs(k_root - merged[-1][0]) < _DEDUPE_REL * abs(k_root):
            if residual < merged[-1][1]:
                merged[-1] = (k_root, residual)
            continue
        merged.append((k_root, residual))
    if len(merged) != total:
        raise WinterresError(
            f"pole bookkeeping failed: counted {total}, refined {len(merged)}")
    bad = [item for item in merged if item[1] >= _RESIDUAL_TOL]
    if bad:
        raise NonConvergence(f"{len(bad)} poles above the residual tolerance: {bad}")
    return [Resonance(i, k_root, residual)
            for i, (k_root, residual) in enumerate(merged)]


def _cut(side: np.ndarray, points: np.ndarray, key) -> list[np.ndarray]:
    """Split a resolved side at points (2 x p, z over f) that lie on it, in the order it runs.

    key(z) never decreases along the side.  A sample at a point gives way
    to it.  Returns p + 1 pieces, each with its end points.
    """
    keys, at = key(side[0]), key(points[0])
    starts = [0] + np.searchsorted(keys, at, "right").tolist()
    stops = np.searchsorted(keys, at, "left").tolist() + [keys.size]
    return [np.concatenate([points[:, max(j - 1, 0):j], side[:, a:b], points[:, j:j + 1]], axis=1)
            for j, (a, b) in enumerate(zip(starts, stops))]


def _subdivide(fn, region: SearchRegion, loop: _Loop, count: int):
    """Cut a rectangle into strips whose counts add up to the parent's.

    ``loop`` is the parent's resolved boundary.  The cuts run across the
    longer side and make m = max(2, count // 2) equal strips, so a strip
    holds two zeros on average; all m - 1 cuts are sampled in one det lambda
    call.  The strips are counted left to right (or bottom to top): each
    one's loop is its pieces of the parent's sides, the cut after it, and
    the cut before it, which its neighbour has resolved and it walks the
    other way.  Only samples and values pass down, so every check of a
    fresh count still applies to each strip.  When a zero sits on (or too
    close to) a cut, or the counts do not add up, every cut is shifted by
    2 (frac - 0.5) / m of the side for the next of _SPLIT_FRACTIONS.  With
    m = 2 the cut lies at frac itself.  Returns [(strip, resolved loop,
    count)] for every strip.
    """
    vertical = region.width >= region.height
    m = max(2, count // 2)
    # the parent's sides turned so that the cuts run like the second one:
    # (bottom, right, top, left) for vertical cuts, (right, top, left, bottom)
    # for horizontal ones
    turn = 0 if vertical else 1
    sides = _sides(loop)
    along, last, across, first = sides[turn:] + sides[:turn]
    if vertical:
        start, end, span, key = region.re_min, region.re_max, region.width, np.real
    else:
        start, end, span, key = region.im_min, region.im_max, region.height, np.imag
    for frac in _SPLIT_FRACTIONS:
        at = [start + ((j + 2.0 * frac - 1.0) / m) * span for j in range(1, m)]
        bounds = zip([start] + at, at + [end])
        if vertical:  # cuts parallel to the imaginary axis, sampled upwards
            strips = [replace(region, re_min=lo, re_max=hi) for lo, hi in bounds]
            cuts = _sample(fn, [(complex(x, region.im_min), complex(x, region.im_max))
                                for x in at])
        else:         # cuts parallel to the real axis, sampled rightwards and walked leftwards
            strips = [replace(region, im_min=lo, im_max=hi) for lo, hi in bounds]
            cuts = [cut[:, ::-1] for cut in _sample(
                fn, [(complex(region.re_min, y), complex(region.re_max, y)) for y in at])]
        pieces = zip(_cut(along, np.stack([cut[:, 0] for cut in cuts], axis=1), key),
                     cuts + [last],
                     _cut(across, np.stack([cut[:, -1] for cut in cuts[::-1]], axis=1),
                          lambda z: -key(z))[::-1])
        out, before = [], first
        try:
            for strip, (a, cut, b) in zip(strips, pieces):
                turned = [a, cut, b, before]   # turned back into loop order below
                strip_loop, c = _winding(fn, strip, _close(turned[4 - turn:] + turned[:4 - turn]))
                before = _sides(strip_loop)[1 + turn][:, ::-1]
                out.append((strip, strip_loop, c))
        except BoundaryZero:
            continue
        if sum(c for _, _, c in out) == count:
            return out
        # counts disagree: a zero slipped between the sampled cut lines
    raise BoundaryZero(f"no clean split line found inside {region}")
