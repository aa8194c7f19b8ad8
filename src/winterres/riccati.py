"""Riccati-Bessel functions of complex argument.

The radial problem on the half line separates, for angular momentum l, into
free motion inside and outside the sphere.  The two radial solutions that
matter are the regular and the outgoing one,

    S_l(z)  = z j_l(z)        (regular;  S_0(z)  = sin z)
    xi_l(z) = z h1_l(z)       (outgoing; xi_0(z) = -i e^{iz})

where j_l and h1_l are the spherical Bessel / Hankel functions of the first
kind.  For integer l these are elementary (trigonometric and exponential
functions times rational factors), so no special-function library is needed
and the functions extend to the whole punctured complex plane by plain
evaluation.  Their Wronskian is constant,

    S_l(z) xi_l'(z) - S_l'(z) xi_l(z) = i     for every l and z != 0,

which serves as the main cross-consistency oracle in the test suite.

Evaluation strategy:

* closed forms for l <= 1,
* upward recurrence f_{l+1} = ((2l+1)/z) f_l - f_{l-1} for xi_l (always
  stable upward: xi is the dominant solution) and for S_l once |z| is
  comfortably above the order,
* ascending power series for S_l when |z| < l + 2, where the upward
  recurrence would amplify the admixture of the dominant solution.

Derivatives come from the identity f_l' = f_{l-1} - (l/z) f_l, never from
numerical differencing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import WinterresError


class OriginSingularity(WinterresError):
    """xi_l and everything built on it blow up at z = 0."""


@dataclass(frozen=True)
class Channel:
    """One partial wave of the spherical problem.

    Attributes
    ----------
    l : int
        Angular momentum, l >= 0.
    radius : float
        Sphere radius R > 0, in units of length.  Momenta k then carry units
        of 1/length and all Riccati arguments appear as z = k R.
    """

    l: int
    radius: float

    def __post_init__(self) -> None:
        if not isinstance(self.l, int) or self.l < 0:
            raise ValueError(f"angular momentum must be a nonnegative integer, got {self.l!r}")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"sphere radius must be positive and finite, got {self.radius!r}")


@dataclass(frozen=True)
class ValueAndDerivative:
    """A function value together with its derivative in the argument z."""

    value: complex
    derivative: complex


def _dfactorial(n: int) -> float:
    """Double factorial n!! for odd n (as float; may overflow to inf for huge n)."""
    out = 1.0
    for m in range(n, 1, -2):
        out *= m
    return out


def _s_series(l: int, z: complex) -> ValueAndDerivative:
    # S_l(z) = sum_m t_m z^{l+1+2m},  t_0 = 1/(2l+1)!!,
    # t_m = t_{m-1} * (-z^2/2) / (m (2l+2m+1));  derivative termwise.
    zl = z ** (l + 1)  # integer power: exact parity under z -> -z
    t = 1.0 / _dfactorial(2 * l + 1)
    zz = -0.5 * z * z
    s = t
    sp = t * (l + 1)
    for m in range(1, 400):
        t = t * zz / (m * (2 * l + 2 * m + 1))
        s += t
        sp += t * (l + 1 + 2 * m)
        if abs(t) < 1e-18 * abs(s):
            break
    value = zl * s
    # sp accumulated sum_m t_m (l+1+2m) z^{2m}; S' = z^l * sp
    derivative = (zl / z) * sp if z != 0 else (1.0 + 0j if l == 0 else 0j)
    return ValueAndDerivative(value, derivative)


def riccati_s(l: int, z: complex) -> ValueAndDerivative:
    """Regular Riccati-Bessel function S_l(z) = z j_l(z) and its derivative.

    Entire in z; safe at z = 0 where S_l(0) = 0 and S_l'(0) is 1 for l = 0
    and 0 otherwise.
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    z = complex(z)
    if z == 0:
        return ValueAndDerivative(0j, 1.0 + 0j if l == 0 else 0j)
    if l == 0:
        return ValueAndDerivative(cmath.sin(z), cmath.cos(z))
    if l == 1:
        s0 = cmath.sin(z)
        s1 = s0 / z - cmath.cos(z)
        return ValueAndDerivative(s1, s0 - s1 / z)
    if abs(z) < l + 2:
        return _s_series(l, z)
    # upward recurrence in the oscillatory regime |z| >~ l
    prev = cmath.sin(z)
    cur = prev / z - cmath.cos(z)
    for ll in range(1, l):
        prev, cur = cur, ((2 * ll + 1) / z) * cur - prev
    return ValueAndDerivative(cur, prev - (l / z) * cur)


def riccati_xi(l: int, z: complex) -> ValueAndDerivative:
    """Outgoing Riccati-Hankel function xi_l(z) = z h1_l(z) and its derivative.

    Raises OriginSingularity at z = 0 (xi_l ~ -i (2l-1)!! z^{-l} there).
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    z = complex(z)
    if z == 0:
        raise OriginSingularity("xi_l is singular at z = 0")
    e = cmath.exp(1j * z)
    if l == 0:
        return ValueAndDerivative(-1j * e, e)
    prev = -1j * e
    cur = -e * (1 + 1j / z)
    for ll in range(1, l):
        prev, cur = cur, ((2 * ll + 1) / z) * cur - prev
    return ValueAndDerivative(cur, prev - (l / z) * cur)


def wronskian(l: int, z: complex) -> complex:
    """S_l(z) xi_l'(z) - S_l'(z) xi_l(z); analytically the constant i.

    Kept as an explicit operation because it exercises both evaluation paths
    (series and recurrence) against each other.
    """
    s = riccati_s(l, z)
    x = riccati_xi(l, z)
    return s.value * x.derivative - s.derivative * x.value
