"""Closed-form high-energy predictors for the resonance momenta k_n.

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

    intermediate  Re k_n = (pi n + pi l/2 + pi/2 or 3 pi/2) / R   (sign of Re gamma)
                  Im k_n = -(1/2R) ln((1 + |gamma|^2/4) / |Re gamma|)
                  remainder O(n^-1): the width saturates at a constant.

    delta-prime   k0_n  = pi n / R + pi (l+1) / (2R)
                  k_n   = k0_n - (1/k0_n) [ (l^2+l)/(2R^2)
                            + (Re gamma - 1 - (alpha beta + |gamma|^2)/4) / (beta R) ]
                          - i / (beta R k0_n)^2 * [ 1 + |gamma|^2/2 - (Re gamma)^2
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
from dataclasses import dataclass

from .errors import WinterresError
from .gpi import GpiClass, GpiParams, canonical_real_gamma, classify, is_separated
from .polefinder import Resonance
from .riccati import Channel


class ZeroCoupling(WinterresError):
    """The delta predictor needs alpha != 0."""


class NotIntermediate(WinterresError):
    """The intermediate predictor needs Re gamma != 0."""


class NotDeltaPrime(WinterresError):
    """The delta-prime predictor needs beta != 0."""


class Separated(WinterresError):
    """Separated interactions have embedded eigenvalues, not resonances."""


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Predicted pole position for index n with its stated remainder scale."""

    index: int
    k_pred: complex
    error_scale: float


@dataclass(frozen=True)
class ComparisonRow:
    """One found pole against its prediction."""

    index: int
    k_found: complex
    k_pred: complex
    abs_err: float
    scaled_err: float


def predict_delta(n: int, ch: Channel, alpha: float) -> AsymptoticPrediction:
    """Delta-class prediction; remainder scale n^-1 ln n (ln floored at ln 2).

    For l = 0 the real part omits the exact correction
    (1/2R) atan((alpha + 2 Im k) / (2 Re k)) from e^{2ikR} = 1 - 2ik/alpha;
    for alpha > 0 (and alpha + 2 Im k > 0) it lies in (0, alpha/(4 pi n)].
    """
    if alpha == 0:
        raise ZeroCoupling("delta asymptotics need alpha != 0")
    if n < 1:
        raise ValueError("index n must be >= 1")
    r, l = ch.radius, ch.l
    phase = 1.5 * math.pi if alpha > 0 else 0.5 * math.pi
    re = (2 * n * math.pi + l * math.pi + phase) / (2.0 * r)
    im = -math.log(2.0 * abs(re) / abs(alpha)) / (2.0 * r)
    scale = max(math.log(n), math.log(2.0)) / n
    return AsymptoticPrediction(n, complex(re, im), scale)


def predict_intermediate(n: int, ch: Channel, gamma: complex) -> AsymptoticPrediction:
    """Intermediate-class prediction; remainder scale n^-1."""
    gamma = complex(gamma)
    if gamma.real == 0:
        raise NotIntermediate("intermediate asymptotics need Re gamma != 0")
    if n < 1:
        raise ValueError("index n must be >= 1")
    r, l = ch.radius, ch.l
    phase = 0.5 * math.pi if gamma.real > 0 else 1.5 * math.pi
    re = (n * math.pi + 0.5 * l * math.pi + phase) / r
    ratio = (1.0 + 0.25 * abs(gamma) ** 2) / abs(gamma.real)
    im = -math.log(ratio) / (2.0 * r)
    return AsymptoticPrediction(n, complex(re, im), 1.0 / n)


def predict_delta_prime(n: int, ch: Channel, p: GpiParams) -> AsymptoticPrediction:
    """Delta-prime prediction including the next-order shift; scale n^-3."""
    if p.beta == 0:
        raise NotDeltaPrime("delta-prime asymptotics need beta != 0")
    if n < 1:
        raise ValueError("index n must be >= 1")
    r, l = ch.radius, ch.l
    q = p.coupling_product
    g = p.gamma
    k0 = n * math.pi / r + (l + 1) * math.pi / (2.0 * r)
    re = k0 - ((l * l + l) / (2.0 * r * r)
               + (g.real - 1.0 - 0.25 * q) / (p.beta * r)) / k0
    bracket = (1.0 + 0.5 * abs(g) ** 2 - g.real ** 2
               - 0.5 * p.alpha * p.beta + q * q / 16.0)
    im = -bracket / (p.beta * r * k0) ** 2
    return AsymptoticPrediction(n, complex(re, im), n ** -3.0)


def predict(p: GpiParams, ch: Channel, n: int) -> AsymptoticPrediction:
    """Class-dispatching predictor for the n-th resonance of interaction p.

    Raises Separated on the embedded-eigenvalue locus and ZeroCoupling when
    the coupling is unitarily equivalent to free (it has no resonances).
    """
    if is_separated(p):
        raise Separated("separated interaction: embedded eigenvalues, no lattice")
    cls = classify(p)
    if cls is GpiClass.DELTA:
        return predict_delta(n, ch, canonical_real_gamma(p).alpha)
    if cls is GpiClass.INTERMEDIATE:
        return predict_intermediate(n, ch, p.gamma)
    return predict_delta_prime(n, ch, p)


def compare(poles: list[Resonance], p: GpiParams, ch: Channel) -> list[ComparisonRow]:
    """One row per indexed pole: prediction, absolute and scaled error.

    ``scaled_err`` divides by the class remainder scale at the pole's index;
    it stays bounded in n exactly when the predictor has the right rate.
    Poles with index 0 (below the first lattice point) are skipped: the
    predictors start at n = 1.
    """
    rows: list[ComparisonRow] = []
    for pole in poles:
        if pole.index < 1:
            continue
        pred = predict(p, ch, pole.index)
        err = abs(pole.k - pred.k_pred)
        rows.append(ComparisonRow(pole.index, pole.k, pred.k_pred,
                                  err, err / pred.error_scale))
    return rows
