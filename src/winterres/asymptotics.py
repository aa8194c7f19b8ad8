"""Closed-form high-energy predictors for the resonance momenta k_n, and the
lattice indexing of found poles.

Each interaction class has its own leading lattice and its own law for the
distance of the poles from the real axis:

    delta         Re k_n = (2 n pi + l pi + 3 pi/2) / (2R)        (alpha > 0)
                  Re k_n = (2 n pi + l pi +   pi/2) / (2R)        (alpha < 0)
                  Im k_n = -(1/2R) ln(2 |Re k_n| / |alpha|)
                  remainder O(n^-1 ln n): the width grows logarithmically.
                  For l = 0 the poles solve e^{2ikR} = 1 - 2ik/alpha exactly;
                  its argument gives the real-part correction
                    Re k_n - lattice = (1/2R) atan((alpha + 2 Im k_n) / (2 Re k_n)),
                  which for alpha > 0 lies in (0, alpha/(4 pi n)] while
                  alpha + 2 Im k_n > 0 (atan u <= u, Re k_n >= n pi / R).

    intermediate  Re k_n = (pi n + pi l/2 + pi/2) / R   (Re gamma > 0)
                  Re k_n = (pi n + pi l/2 +   pi) / R   (Re gamma < 0)
                  Im k_n = -(1/2R) ln((1 + |gamma|^2/4) / |Re gamma|)
                  remainder O(n^-1): the width saturates at a constant.

    delta-prime   k0_n  = pi n / R + pi (l+1) / (2R)
                  k_n   = k0_n - (1/k0_n) [ (l^2+l)/(2R^2)
                            + (Re gamma - 1 - (alpha beta + |gamma|^2)/4) / (beta R) ]
                          - i / (beta^2 R k0_n^2) * [ 1 + |gamma|^2/2 - (Re gamma)^2
                            - alpha beta / 2 + (alpha beta + |gamma|^2)^2 / 16 ]
                  remainder O(n^-3): the poles collapse onto the real axis.

The pole condition depends on gamma only through Re gamma and |gamma|^2, so
the intermediate and delta-prime predictors apply verbatim to complex gamma.
A pure delta coupling with Im gamma != 0 is first reduced to its real-gamma
equivalent (alpha' = 4 alpha / ((Im gamma)^2 + 4)); if that leaves the free
interaction, there are no resonances at all and ``predict`` raises
ZeroCoupling rather than fabricating a lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import WinterresError
from .gpi import (GpiClass, GpiParams, SeparatedInteraction, canonical_real_gamma, classify,
                  is_separated)
from .riccati import Channel

_LATTICE_SPAN = 0.6  # accept indices within this fraction of the lattice spacing


class ZeroCoupling(WinterresError):
    """The coupling is equivalent to the free one: there are no resonances."""


class AmbiguousIndex(WinterresError):
    """Two poles compete for the same asymptotic lattice index."""


@dataclass(frozen=True)
class Resonance:
    """A refined zero of det lambda: a pole of the resolvent in the fourth
    quadrant, or, with ``embedded`` set, an embedded eigenvalue (a real zero,
    found for separated interactions).

    ``residual`` is the raw |det lambda| at the returned momentum; ``index``
    is the position on the class lattice once assigned (ordinal before that,
    and for embedded eigenvalues).  ``compare`` fills in the prediction for
    the index and its absolute and scaled error; they stay None where there
    is no prediction.
    """

    index: int
    k: complex
    residual: float
    k_pred: complex | None = None
    abs_err: float | None = None
    scaled_err: float | None = None
    embedded: bool = False

    @property
    def energy_width(self) -> float:
        """Width in the energy plane, 2 |Re k . Im k| (E = k^2)."""
        return 2.0 * abs(self.k.real * self.k.imag)


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Predicted pole position for index n with its stated remainder scale."""

    index: int
    k_pred: complex
    error_scale: float


def _lattice(p: GpiParams, ch: Channel, n: int) -> tuple[GpiClass, float, float]:
    """The class of p, its class coupling c and the leading Re k_n (k0_n for delta-prime).

    c is alpha of the real-gamma equivalent for delta (0 when p is equivalent
    to free), Re gamma for intermediate and beta for delta-prime; the sign
    of c places the delta and intermediate lattices.
    """
    r, l = ch.radius, ch.l
    cls = classify(p)
    if cls is GpiClass.DELTA:
        c = canonical_real_gamma(p).alpha
        phase = 1.5 * math.pi if c > 0 else 0.5 * math.pi
        return cls, c, (2 * n * math.pi + l * math.pi + phase) / (2.0 * r)
    if cls is GpiClass.INTERMEDIATE:
        c = p.gamma.real
        phase = 0.5 * math.pi if c > 0 else math.pi
        return cls, c, (n * math.pi + 0.5 * l * math.pi + phase) / r
    return cls, p.beta, n * math.pi / r + (l + 1) * math.pi / (2.0 * r)


def predict(p: GpiParams, ch: Channel, n: int) -> AsymptoticPrediction:
    """Prediction for the n-th resonance of interaction p by its class law.

    The laws are those of the module docstring, delta-prime with its
    next-order shift; the remainder scale is n^-1 ln n (ln floored at ln 2)
    for delta, n^-1 for intermediate and n^-3 for delta-prime.

    Raises SeparatedInteraction on the embedded-eigenvalue locus,
    ZeroCoupling when the coupling is unitarily equivalent to free (it has no
    resonances), and ValueError for n < 1.
    """
    if is_separated(p):
        raise SeparatedInteraction("separated interaction: embedded eigenvalues, no lattice")
    cls, c, re = _lattice(p, ch, n)
    if c == 0:
        raise ZeroCoupling("delta asymptotics need alpha != 0")
    if n < 1:
        raise ValueError("index n must be >= 1")
    r, g = ch.radius, p.gamma
    if cls is GpiClass.DELTA:
        im = -math.log(2.0 * abs(re) / abs(c)) / (2.0 * r)
        scale = max(math.log(n), math.log(2.0)) / n
    elif cls is GpiClass.INTERMEDIATE:
        ratio = (1.0 + 0.25 * abs(g) ** 2) / abs(g.real)
        im = -math.log(ratio) / (2.0 * r)
        scale = 1.0 / n
    else:
        l, q, k0 = ch.l, p.coupling_product, re
        re = k0 - ((l * l + l) / (2.0 * r * r)
                   + (g.real - 1.0 - 0.25 * q) / (p.beta * r)) / k0
        bracket = (1.0 + 0.5 * abs(g) ** 2 - g.real ** 2
                   - 0.5 * p.alpha * p.beta + q * q / 16.0)
        im = -bracket / ((p.beta * k0) ** 2 * r)
        scale = n ** -3.0
    return AsymptoticPrediction(n, complex(re, im), scale)


def compare(poles: list[Resonance], p: GpiParams, ch: Channel) -> list[Resonance]:
    """The poles in their order, each with its prediction, absolute and
    scaled error filled in.

    ``scaled_err`` divides by the class remainder scale at the pole's index;
    it stays bounded in n exactly when the predictor has the right rate.
    Poles with index 0 (below the first lattice point) come back unchanged:
    the predictors start at n = 1.
    """
    out: list[Resonance] = []
    for pole in poles:
        if pole.index >= 1:
            pred = predict(p, ch, pole.index)
            err = abs(pole.k - pred.k_pred)
            pole = replace(pole, k_pred=pred.k_pred, abs_err=err,
                           scaled_err=err / pred.error_scale)
        out.append(pole)
    return out


def index_poles(poles: list[Resonance], p: GpiParams, ch: Channel) -> list[Resonance]:
    """Assign lattice indices n to poles sorted by Re k.

    The grid is the leading lattice of the class of p (see the module
    docstring), with spacing pi/R.  Each pole takes the nearest n;
    collisions are resolved monotonically and AmbiguousIndex is raised when
    that pushes a pole off its lattice cell.
    """
    if not poles:
        return []
    _, c, off = _lattice(p, ch, 0)
    if c == 0:
        raise ValueError("free interaction has no resonance lattice")
    spacing = math.pi / ch.radius

    out: list[Resonance] = []
    prev_n = -1
    for pole in sorted(poles, key=lambda q: q.k.real):
        nearest = round((pole.k.real - off) / spacing)
        n = max(nearest, prev_n + 1, 0)
        if n != nearest and abs(pole.k.real - (off + n * spacing)) > _LATTICE_SPAN * spacing:
            raise AmbiguousIndex(
                f"poles collide on the lattice near n = {nearest} (Re k = {pole.k.real})")
        out.append(replace(pole, index=n))
        prev_n = n
    return out
