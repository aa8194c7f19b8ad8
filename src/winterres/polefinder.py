"""Exhaustive resonance search in the fourth quadrant of the momentum plane.

Zeros of det lambda are localized by the argument principle: the winding
number of the balanced determinant around a rectangle equals the number of
enclosed zeros (all poles of the function live at k = 0, outside every
search region).  Rectangles are bisected until each holds at most one zero,
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
lambda, and so are the samples added to one child's short edges; bisection
midpoints are scalar calls.  When a zero sits on (or too close to) a cut,
subdivision catches BoundaryZero and re-splits at a shifted fraction, so the
children still partition the parent.

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
from .krein import det_lambda, det_lambda_balanced
from .riccati import Channel

_RE_FLOOR_FACTOR = 1e-3      # excluded disc |k| < 1e-3 / R around the origin
_FLOOR_REL = 1e-8            # boundary-zero floor relative to median |f|
_MAX_PHASE_DEPTH = 48        # bisection depth per boundary segment
_MAX_TREE_DEPTH = 40         # rectangle subdivision depth cap
_MIN_CELL_FACTOR = 1e-6      # cells below 1e-6/R with count >= 2 are clusters
_RESIDUAL_TOL = 1e-9         # |det lambda| certified at returned poles
_DEDUPE_REL = 1e-8           # merge poles closer than 1e-8 |k|
_SPLIT_FRACTIONS = (0.5, 0.53125, 0.46875, 0.5625, 0.4375, 0.59375, 0.40625)
_AXIS_SLIVER = 1e-7          # top-edge offset (in 1/R) for separated couplings


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


def _densify(fn, edges: tuple) -> tuple:
    """Bisect the widest steps of each short edge until it has at least 8.

    A freshly sampled edge always has 8; a short piece of a parent's edge
    may have fewer.  The new samples of all edges take one det lambda call;
    the steps they split become new steps.
    """
    short = [i for i, edge in enumerate(edges) if len(edge.z) < 9]
    if not short:
        return edges
    plans = []
    for edge in (edges[i] for i in short):
        # None marks a step to compute and test: a new one, or one still wide
        z, f = list(edge.z), list(edge.f)
        phase = [None if s in edge.wide else step for s, step in enumerate(edge.phase)]
        while len(z) < 9:
            i = max(range(len(z) - 1), key=lambda j: abs(z[j + 1] - z[j]))
            z.insert(i + 1, 0.5 * (z[i] + z[i + 1]))
            f.insert(i + 1, None)
            phase[i:i + 1] = [None, None]
        plans.append((z, f, phase))
    values = iter(fn(np.array([w for z, f, _ in plans
                               for w, v in zip(z, f) if v is None])).tolist())
    out = list(edges)
    for i, (z, f, phase) in zip(short, plans):
        f = [next(values) if v is None else v for v in f]
        new = [s for s, step in enumerate(phase) if step is None]
        for s in new:
            phase[s] = cmath.phase(f[s + 1] / f[s])
        out[i] = _Edge(z, f, list(map(abs, f)), phase, _wide(phase, new))
    return tuple(out)


def _bisect(fn, z1: complex, f1: complex, z2: complex, f2: complex,
            floor: float) -> tuple[list, list]:
    """Bisect one step until f turns by less than pi/2 between neighbours.

    Returns the samples inserted between its ends and the phases of the
    steps between them.  A step is bisected at most _MAX_PHASE_DEPTH times;
    failing that, or a midpoint value under the floor, raises BoundaryZero.
    """
    out = [(z1, f1)]
    phases = []
    pending = [((z2, f2), 0)]   # right ends of the steps still to resolve, with their depth
    while pending:
        (zb, fb), depth = pending[-1]
        za, fa = out[-1]
        delta = cmath.phase(fb / fa)
        if abs(delta) < _HALF_PI:
            out.append(pending.pop()[0])
            phases.append(delta)
            continue
        if depth >= _MAX_PHASE_DEPTH:
            raise BoundaryZero(f"phase increment from {za} to {zb} cannot be resolved")
        zm = 0.5 * (za + zb)
        fm = fn(zm)
        if abs(fm) < floor:
            raise BoundaryZero(f"|det lambda| below the floor at {zm}")
        pending[-1] = ((zb, fb), depth + 1)
        pending.append(((zm, fm), depth + 1))
    return out[1:-1], phases


def _resolve(fn, edge: _Edge, floor: float) -> _Edge:
    """Bisect the wide steps of an edge; the others are resolved already."""
    if not edge.wide:
        return edge
    z, f, phase = [], [], []
    start = 0
    for i in edge.wide:   # one scalar det lambda call per midpoint
        inner, steps = _bisect(fn, edge.z[i], edge.f[i], edge.z[i + 1], edge.f[i + 1], floor)
        z += edge.z[start:i + 1] + [w for w, _ in inner]
        f += edge.f[start:i + 1] + [v for _, v in inner]
        phase += edge.phase[start:i] + steps
        start = i + 1
    f += edge.f[start:]
    return _Edge(z + edge.z[start:], f, list(map(abs, f)), phase + edge.phase[start:])


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
    edges = tuple(_resolve(fn, edge, floor) for edge in edges)
    total = sum(sum(edge.phase) for edge in edges)
    n = round(total / (2.0 * math.pi))
    if abs(total / (2.0 * math.pi) - n) > 0.25:
        raise WinterresError(f"winding sum {total!r} failed to close to an integer")
    return edges, n


def count_zeros(p: GpiParams, ch: Channel, region: SearchRegion) -> int:
    """Number of zeros of det lambda inside the region, by winding count.

    Raises BoundaryZero when a zero sits on or hugs the boundary.
    """
    re_floor = _RE_FLOOR_FACTOR / ch.radius
    if region.re_min < re_floor * (1.0 - 1e-9):
        raise ValueError(f"re_min must stay above the excluded disc {re_floor}")
    fn = lambda k: det_lambda_balanced(p, ch, k)
    return _winding(fn, region, _boundary(fn, region))[1]


def refine(p: GpiParams, ch: Channel, k0: complex) -> tuple[complex, float]:
    """Damped Newton on the balanced determinant from seed k0.

    The derivative is a central finite difference with step 1e-6 max(1, |k|)
    (the evaluator is smooth and cheap, and the step is sized for ~1e-10
    relative accuracy on functions of this scale).  Iteration stops when the
    step falls below 1e-12 max(1, |k|) or the raw residual |det lambda|
    below 1e-12 (the raw value, not the balanced one: the balanced free
    determinant decays deep in the lower half-plane without any zero there).
    Returns (k, |det lambda(k)|).  Raises NonConvergence after 100 steps or
    on a residual floor that damping cannot escape.
    """
    if k0 == 0:
        raise ValueError("seed must be nonzero")
    fn = lambda k: det_lambda_balanced(p, ch, k)
    k = complex(k0)
    fk = fn(k)
    for _ in range(100):
        # |det lambda| = |balanced| e^{-R Im k}
        if abs(fk) * math.exp(-ch.radius * k.imag) < 1e-12:
            return k, abs(det_lambda(p, ch, k))
        h = 1e-6 * max(1.0, abs(k))
        deriv = (fn(k + h) - fn(k - h)) / (2.0 * h)
        if deriv == 0:
            raise NonConvergence(f"vanishing derivative at k = {k}")
        step = -fk / deriv
        if abs(step) < 1e-12 * max(1.0, abs(k)):
            k += step
            return k, abs(det_lambda(p, ch, k))
        t = 1.0
        while t >= 1.0 / 1024.0:
            trial = k + t * step
            f_trial = fn(trial)
            if abs(f_trial) < abs(fk):
                k, fk = trial, f_trial
                break
            t *= 0.5
        else:
            raise NonConvergence(f"stuck at residual floor |f| = {abs(fk)} near k = {k}")
    raise NonConvergence(f"no convergence after 100 damped steps from {k0}")


def default_im_min(re_max: float, radius: float) -> float:
    """Search floor deep enough for the logarithmic descent of delta poles."""
    return -(math.log(re_max * radius) + 5.0) / radius


def find_poles(p: GpiParams, ch: Channel, re_max: float,
               im_min: float | None = None) -> list[Resonance]:
    """All zeros of det lambda in [1e-3/R, re_max] x [im_min, 0], refined.

    ``im_min=None`` selects the default floor -(ln(re_max R) + 5)/R.  For
    separated interactions the top edge is lowered by a 1e-7/R sliver: their
    real-axis zeros are embedded eigenvalues, which belong to
    ``real_axis_roots``, not to the resonance list.

    The returned list is sorted by Re k, deduplicated, every pole carries
    |det lambda| < 1e-9, and its length equals the top-level winding count.
    Indices are ordinals (0, 1, ...) until ``index_poles`` assigns lattice
    positions.
    """
    re_floor = _RE_FLOOR_FACTOR / ch.radius
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
    while stack:
        region, count, depth, rebisected, edges = stack.pop()
        if count == 1:
            centroid = complex(0.5 * (region.re_min + region.re_max),
                               0.5 * (region.im_min + region.im_max))
            try:
                k_root, residual = refine(p, ch, centroid)
                in_cell = region.contains(k_root, slop=1e-9 * max(1.0, abs(k_root)))
            except NonConvergence:
                k_root, in_cell = None, False
            if k_root is not None and in_cell:
                found.append((k_root, residual))
                continue
            if rebisected:
                raise NonConvergence(f"could not pin the single zero of {region}")
            rebisected = True   # one re-bisection pass: halve and push the children
        elif min(region.width, region.height) < min_cell:
            raise ClusteredZeros(f"{count} zeros in cell {region} below the size floor")
        elif depth >= _MAX_TREE_DEPTH:
            raise ClusteredZeros(f"subdivision depth cap at {region}")
        stack.extend((r, c, depth + 1, rebisected, e)
                     for r, e, c in _subdivide(fn, region, edges, count) if c)

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
