"""Exhaustive resonance search in the fourth quadrant of the momentum plane.

Zeros of det lambda are localized by the argument principle: the winding
number of the balanced determinant around a rectangle equals the number of
enclosed zeros (all poles of the function live at k = 0, outside every
search region).  Rectangles are bisected until each holds at most two zeros,
the surviving cells seed damped Newton iterations, and the refined roots are
deduplicated and checked against the top-level count, so no resonance inside
the requested window can be silently missed.

A boundary is four counterclockwise edges of (z, f) samples.  Phase
increments are accumulated along them and any step of pi/2 or more is
bisected, which pins the total to the correct multiple of 2 pi as long as no
zero sits on the boundary itself.  Boundary hits are detected by a magnitude
floor relative to the median sample and raise BoundaryZero: a count always
answers for exactly the rectangle it was given.

Each rectangle on the subdivision stack keeps its resolved boundary, so a
split evaluates det lambda only along the new cut: a child's boundary is its
pieces of the parent's edges plus the cut, and every edge sample is computed
once however deep the subdivision goes.  An edge carries |f| and the
resolved phase of each step with its samples, so a child's count sums the
phases it inherits and computes (and checks against pi/2) only those of its
new steps: the cut, the step where a parent edge is cut, and the samples
added to short edges.  A cut, end points included, is one array call of det
lambda, and so are the samples added to one child's short edges.  Steps of
pi/2 or more are bisected in rounds, each round one array call for the
midpoints of every such step on the four edges.  When a zero sits on (or
too close to) a cut, subdivision catches BoundaryZero and re-splits at a
shifted fraction, so the children still partition the parent.

A cell that holds one or two zeros is not refined when it is found, and a
two-zero cell is not split: it waits in a queue with one Newton seed per
zero, read off the contour moments of its resolved boundary (see
``_seed``), and keeps no edges.  When the subdivision stack is empty, one
``refine`` call runs Newton on the seeds of every queued cell in lockstep,
each round of it one array call of det lambda.  A two-zero cell is solved
when both roots converge inside it at least _MIN_CELL_FACTOR / R apart
(closer pairs are clusters) and farther apart than deduplication merges.
Any other outcome counts the cell afresh and splits it; a one-zero cell
gets one such pass, and a two-zero cell's children still get theirs.  The
children go back on the stack, and the search ends when both the stack and
the queue are empty.

Everything here is deterministic: identical inputs produce bitwise-identical
pole lists.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
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


class _Edge(NamedTuple):
    """Samples along one side of a boundary, with what a winding count needs.

    ``z`` and ``f`` are the sample points and det lambda there, ``mag`` is
    |f|, and ``phase[i]`` is the phase f turns through from sample i to
    i + 1.  ``wide`` lists the steps whose phase is pi/2 or more in modulus;
    a resolved edge has none.
    """

    z: list
    f: list
    mag: list
    phase: list
    wide: tuple = ()


_HALF_PI = 0.5 * math.pi


def _wide(phase: list, steps) -> tuple:
    """Those of the given steps that turn by pi/2 or more: they need bisecting."""
    return tuple(s for s in steps if abs(phase[s]) >= _HALF_PI)


def _edge(fn, a: complex, b: complex) -> _Edge:
    """A freshly sampled edge from a to b: one det lambda call for all samples.

    The spacing stays below 0.4, which keeps the e^{+-ikR} factors from
    turning far between samples.
    """
    n = max(8, int(abs(b - a) / 0.4) + 1)
    z = [a] + [a + (b - a) * j / n for j in range(1, n)] + [b]
    f = fn(np.array(z))
    phase = np.angle(f[1:] / f[:-1]).tolist()
    f = f.tolist()
    return _Edge(z, f, list(map(abs, f)), phase, _wide(phase, range(len(phase))))


def _boundary(fn, region: SearchRegion) -> tuple:
    """The region's four counterclockwise edges, freshly sampled."""
    corners = region.corners()
    return tuple(_edge(fn, corners[i], corners[(i + 1) % 4]) for i in range(4))


def _reversed(edge: _Edge) -> _Edge:
    """The same edge walked the other way."""
    last = len(edge.phase) - 1
    return _Edge(edge.z[::-1], edge.f[::-1], edge.mag[::-1], [-p for p in reversed(edge.phase)],
                 tuple(last - i for i in reversed(edge.wide)))


def _bisect(piece: tuple, i: int) -> None:
    """Insert the midpoint of step i into a piece (z, f, phase), its value and phases None."""
    z, f, phase = piece
    z.insert(i + 1, 0.5 * (z[i] + z[i + 1]))
    f.insert(i + 1, None)
    phase[i:i + 1] = [None, None]


def _fill(fn, pieces: list, floor: float = 0.0) -> list:
    """Compute the pieces' None values in one det lambda call, then their None phases.

    Returns the new steps of each piece that turn by pi/2 or more.  A new
    value at or under the floor (an exact zero, without one) raises
    BoundaryZero: no phase can be taken through it.
    """
    z_new = [w for z, f, _ in pieces for w, v in zip(z, f) if v is None]
    f_new = fn(np.array(z_new))
    low = np.flatnonzero(np.abs(f_new) <= floor)
    if low.size:
        raise BoundaryZero(f"|det lambda| below the floor at {z_new[low[0]]}")
    values = iter(f_new.tolist())
    wide = []
    for z, f, phase in pieces:
        f[:] = [next(values) if v is None else v for v in f]
        new = [s for s, step in enumerate(phase) if step is None]
        for s in new:
            phase[s] = cmath.phase(f[s + 1] / f[s])
        wide.append(_wide(phase, new))
    return wide


def _densify(fn, edges: tuple) -> tuple:
    """Bisect the widest steps of each short edge until it has at least 8.

    A freshly sampled edge always has 8; a short piece of a parent's edge
    may have fewer.  The new samples of all edges take one det lambda call;
    the steps they split become new steps, and wide steps are tested again.
    """
    short = [i for i, edge in enumerate(edges) if len(edge.z) < 9]
    pieces = [(list(edges[i].z), list(edges[i].f),
               [None if s in edges[i].wide else step for s, step in enumerate(edges[i].phase)])
              for i in short]
    for piece in pieces:
        z = piece[0]
        while len(z) < 9:
            _bisect(piece, max(range(len(z) - 1), key=lambda j: abs(z[j + 1] - z[j])))
    out = list(edges)
    for i, (z, f, phase), wide in zip(short, pieces, _fill(fn, pieces) if short else ()):
        out[i] = _Edge(z, f, list(map(abs, f)), phase, wide)
    return tuple(out)


def _resolve(fn, edges: tuple, floor: float) -> tuple:
    """Bisect the wide steps of all edges until f turns by less than pi/2 between neighbours.

    Each wide step is a piece of its own.  A round bisects every step still
    wide in the pieces of all four edges, in one det lambda call.  A split
    depends only on its step's end values, so the rounds insert the samples
    that bisecting each wide step depth first would.  A step still wide
    after _MAX_PHASE_DEPTH rounds, or a midpoint under the floor, raises
    BoundaryZero.
    """
    pieces = [(edge.z[s:s + 2], edge.f[s:s + 2], [None]) for edge in edges for s in edge.wide]
    if not pieces:
        return edges
    wide = [(0,)] * len(pieces)
    for depth in range(_MAX_PHASE_DEPTH + 1):
        todo = [k for k, w in enumerate(wide) if w]
        if not todo:
            break
        if depth == _MAX_PHASE_DEPTH:
            z, s = pieces[todo[0]][0], wide[todo[0]][0]
            raise BoundaryZero(f"phase increment from {z[s]} to {z[s + 1]} cannot be resolved")
        for k in todo:
            for s in reversed(wide[k]):
                _bisect(pieces[k], s)
        for k, w in zip(todo, _fill(fn, [pieces[k] for k in todo], floor)):
            wide[k] = w
    out, resolved = list(edges), iter(pieces)
    for i, edge in enumerate(edges):   # splice each edge's resolved pieces in, in order
        if edge.wide:
            z, f, phase, start = [], [], [], 0
            for s in edge.wide:
                pz, pf, pphase = next(resolved)
                z += edge.z[start:s] + pz[:-1]
                f += edge.f[start:s] + pf[:-1]
                phase += edge.phase[start:s] + pphase
                start = s + 1
            f += edge.f[start:]
            out[i] = _Edge(z + edge.z[start:], f, list(map(abs, f)), phase + edge.phase[start:])
    return tuple(out)


def _winding(fn, region: SearchRegion, edges: tuple) -> tuple[tuple, int]:
    """Winding number of fn along the region's boundary edges (exact integer).

    Returns the resolved edges with the count.  Raises BoundaryZero when a
    sample falls under 1e-8 times the median sample or a phase increment
    cannot be tamed, both of which signal a zero on or very near the contour.
    """
    edges = _densify(fn, edges)
    bottom, right, top, left = edges
    vals = sorted(bottom.mag[:-1] + right.mag[:-1] + top.mag[:-1] + left.mag[:-1])
    med = vals[len(vals) // 2]
    floor = _FLOOR_REL * med
    if med == 0.0 or vals[0] < floor:
        raise BoundaryZero(f"zero of det lambda on the boundary of {region}")
    edges = _resolve(fn, edges, floor)
    total = sum(sum(edge.phase) for edge in edges)
    n = round(total / (2.0 * math.pi))
    if abs(total / (2.0 * math.pi) - n) > 0.25:
        raise WinterresError(f"winding sum {total!r} failed to close to an integer")
    return edges, n


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
             3: "no convergence after 100 damped steps from {k0}"}


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


def _seed(region: SearchRegion, edges: tuple, count: int) -> list[complex]:
    """Newton seeds of a cell that holds one or two zeros: from its contour moments.

    The moments s_p = (1/2 pi i) of the integral of (z - c)^p f'/f dz around
    the cell, c its centroid, are the power sums of its zeros measured from
    c (Delves & Lyness, Math. Comp. 21, 1967).  Each is summed as
    (z_mid - c)^p (ln(|f_{i+1}| / |f_i|) + i phase_i) over the resolved steps
    of the boundary: the samples a count already made, and no det lambda
    call.  One zero is c + s_1.  Two zeros c + w solve
    w^2 - s_1 w + (s_1^2 - s_2)/2 = 0, whose roots are the eigenvalues of
    the 2 x 2 Hankel pencil of the moments (Kravanja & Van Barel, LNM 1727,
    2000).  A seed farther outside the cell than _SEED_SLOP of its diagonal
    gives way to the centroid.  (A zero that hugs an edge can have its
    moment just outside; the centroid would start Newton far from it.)
    """
    centroid = complex(0.5 * (region.re_min + region.re_max),
                       0.5 * (region.im_min + region.im_max))
    bottom, right, top, left = edges   # the samples once around, the first one again at the end
    z = np.array(bottom.z[:-1] + right.z[:-1] + top.z[:-1] + left.z)
    mag = np.array(bottom.mag[:-1] + right.mag[:-1] + top.mag[:-1] + left.mag)
    dlog = np.log(mag[1:] / mag[:-1]) + 1j * np.array(bottom.phase + right.phase + top.phase
                                                      + left.phase)
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

    Cells that count one or two zeros are not split further: Newton runs
    from their contour-moment seeds.  A two-zero cell whose two roots do
    not both converge inside it, at least max(1e-6/R, 1e-8 |k|) apart, is
    split like a larger cell, so a double zero raises ClusteredZeros or
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
    edges, total = _winding(fn, top, _boundary(fn, top))

    min_cell = _MIN_CELL_FACTOR / ch.radius
    found: list[tuple[complex, float]] = []
    stack = [(top, total, 0, False, edges)] if total else []

    def split(region, count, depth, rebisected, edges):
        """Push the children of a cell with `count` zeros, unless it is a cluster."""
        if count > 1 and min(region.width, region.height) < min_cell:
            raise ClusteredZeros(f"{count} zeros in cell {region} below the size floor")
        if count > 1 and depth >= _MAX_TREE_DEPTH:
            raise ClusteredZeros(f"subdivision depth cap at {region}")
        stack.extend((r, c, depth + 1, rebisected, e)
                     for r, e, c in _subdivide(fn, region, edges, count) if c)

    while stack:
        queue = []   # cells (region, depth, rebisected, seeds) of one or two zeros awaiting Newton
        while stack:
            region, count, depth, rebisected, edges = stack.pop()
            if count <= 2:
                queue.append((region, depth, rebisected, _seed(region, edges, count)))
            else:
                split(region, count, depth, rebisected, edges)
        roots, residuals = refine(p, ch, np.array([k for cell in queue for k in cell[3]]))
        results = iter(zip(roots.tolist(), residuals.tolist()))
        for region, depth, rebisected, seeds in queue:
            cell = [next(results) for _ in seeds]
            # a pair closer than min_cell is a cluster, and one that dedupe would merge is lost
            if (all(region.contains(k_root, slop=1e-9 * max(1.0, abs(k_root)))
                    for k_root, _ in cell)
                    and (len(cell) == 1 or abs(cell[0][0] - cell[1][0])
                         >= max(min_cell, _DEDUPE_REL * abs(cell[0][0])))):
                found.extend(cell)
                continue
            if rebisected:
                raise NonConvergence(f"could not pin the single zero of {region}")
            # count afresh and split; this is a one-zero cell's one re-bisection pass,
            # while a two-zero cell leaves its children theirs
            edges, count = _winding(fn, region, _boundary(fn, region))
            if count != len(cell):
                raise WinterresError(
                    f"pole bookkeeping failed: {len(cell)}-zero cell {region} now counts {count}")
            split(region, count, depth, count == 1, edges)

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


def _cut(edge: _Edge, cut: _Edge, end: int, key) -> tuple[_Edge, _Edge]:
    """Split a resolved edge at the cut's sample ``cut.z[end]``, which lies on it.

    key(z) never decreases along the edge.  Both pieces keep the edge's
    steps; only the step to or from the cut's sample is new.
    """
    z, f, mag = cut.z[end], cut.f[end], cut.mag[end]
    at = key(z)
    i, j = bisect_left(edge.z, at, key=key), bisect_right(edge.z, at, key=key)
    lo_phase = edge.phase[:i - 1] + [cmath.phase(f / edge.f[i - 1])]
    hi_phase = [cmath.phase(edge.f[j] / f)] + edge.phase[j:]
    return (_Edge(edge.z[:i] + [z], edge.f[:i] + [f], edge.mag[:i] + [mag], lo_phase,
                  _wide(lo_phase, [i - 1])),
            _Edge([z] + edge.z[j:], [f] + edge.f[j:], [mag] + edge.mag[j:], hi_phase,
                  _wide(hi_phase, [0])))


def _subdivide(fn, region: SearchRegion, edges: tuple, count: int):
    """Split a rectangle so that the children's counts add up to the parent's.

    ``edges`` is the parent's resolved boundary (bottom, right, top, left).
    The cut is placed on the longer side and sampled in one det lambda
    call; each child's boundary is its pieces of the parent's edges plus the
    cut, which the upper or right child takes reversed and already resolved.  Every check of a fresh count still
    applies to each child.  When a zero sits on (or too close to) the cut
    line, the fraction is shifted.  Returns [(child, resolved edges, count)]
    for both children.
    """
    bottom, right, top, left = edges
    vertical = region.width >= region.height
    for frac in _SPLIT_FRACTIONS:
        if vertical:  # cut parallel to the imaginary axis, sampled upwards
            mid = region.re_min + frac * region.width
            lo, hi = replace(region, re_max=mid), replace(region, re_min=mid)
            a, b = complex(mid, region.im_min), complex(mid, region.im_max)
        else:         # cut parallel to the real axis, sampled rightwards
            mid = region.im_min + frac * region.height
            lo, hi = replace(region, im_max=mid), replace(region, im_min=mid)
            a, b = complex(region.re_min, mid), complex(region.re_max, mid)
        cut = _edge(fn, a, b)
        try:
            if vertical:
                b_lo, b_hi = _cut(bottom, cut, 0, lambda z: z.real)
                t_hi, t_lo = _cut(top, cut, -1, lambda z: -z.real)
                lo_edges, c_lo = _winding(fn, lo, (b_lo, cut, t_lo, left))
                hi_edges, c_hi = _winding(fn, hi, (b_hi, right, t_hi, _reversed(lo_edges[1])))
            else:
                r_lo, r_hi = _cut(right, cut, -1, lambda z: z.imag)
                l_hi, l_lo = _cut(left, cut, 0, lambda z: -z.imag)
                lo_edges, c_lo = _winding(fn, lo, (bottom, r_lo, _reversed(cut), l_lo))
                hi_edges, c_hi = _winding(fn, hi, (_reversed(lo_edges[2]), r_hi, top, l_hi))
        except BoundaryZero:
            continue
        if c_lo + c_hi == count:
            return [(lo, lo_edges, c_lo), (hi, hi_edges, c_hi)]
        # counts disagree: a zero slipped between the sampled cut lines
    raise BoundaryZero(f"no clean split line found inside {region}")
