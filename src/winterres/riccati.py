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
* upward recurrence f_{l+1} = ((2l+1)/z) f_l - f_{l-1} for xi_l and for S_l
  once |z| is comfortably above the order,
* ascending power series for S_l when |z| < l + 2, where the upward
  recurrence would amplify the admixture of the dominant solution.

The upward recurrence for xi_l is accurate where xi_l is the dominant
solution, which is not everywhere: for |z| <~ l deep in the lower
half-plane its relative error grows like eps e^{2 |Im z|} (about 1e-9 at
l = 20, z = 13 - 8i against a 40-digit reference).

Derivatives come from the identity f_l' = f_{l-1} - (l/z) f_l, never from
numerical differencing.

Every function here takes either one point or a numpy array of points.  A
scalar is evaluated with cmath and returns Python complex values; an array is
evaluated elementwise with numpy and returns arrays of the same shape.  The
formulas and recurrences are the same code for both: the argument's type only
chooses whose sin, cos and exp run, and the S_l series branch is chosen per
element.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

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
    """A function value together with its derivative in the argument z.

    Both are Python complex for a scalar argument and complex arrays for an
    array argument.
    """

    value: complex
    derivative: complex


def _no_zero(z: np.ndarray) -> bool:
    return np.count_nonzero(z) == z.size


# What the argument's type chooses: cmath for one point, numpy (elementwise)
# for an array.
_SCALAR = SimpleNamespace(sin=cmath.sin, cos=cmath.cos, exp=cmath.exp, all=bool, no_zero=bool)
_ARRAY = SimpleNamespace(sin=np.sin, cos=np.cos, exp=np.exp, all=np.ndarray.all,
                         no_zero=_no_zero)
_NDARRAY = np.ndarray   # looked up once: every scalar det lambda call checks it four times


def as_argument(z):
    """z as a complex array or a Python complex, with the arithmetic to use on it.

    The arithmetic is numpy's, elementwise, for an array and cmath's for
    anything else: ``sin``, ``cos`` and ``exp``, ``all`` to reduce a
    comparison, and ``no_zero`` to say whether z has no zero element.
    """
    if isinstance(z, _NDARRAY):
        return z.astype(complex, copy=False), _ARRAY
    return complex(z), _SCALAR


def _dfactorial(n: int) -> float:
    """Double factorial n!! for odd n (as float; may overflow to inf for huge n)."""
    out = 1.0
    for m in range(n, 1, -2):
        out *= m
    return out


def _s_series(l: int, z: complex, ops=_SCALAR) -> ValueAndDerivative:
    # S_l(z) = sum_m t_m z^{l+1+2m},  t_0 = 1/(2l+1)!!,
    # t_m = t_{m-1} * (-z^2/2) / (m (2l+2m+1));  derivative termwise.
    # z != 0 here; an array runs until its slowest element has converged.
    zl = z ** (l + 1)  # integer power: exact parity under z -> -z
    t = 1.0 / _dfactorial(2 * l + 1)
    zz = -0.5 * z * z
    s = t
    sp = t * (l + 1)
    for m in range(1, 400):
        t = t * zz / (m * (2 * l + 2 * m + 1))
        s += t
        sp += t * (l + 1 + 2 * m)
        if ops.all(abs(t) < 1e-18 * abs(s)):
            break
    value = zl * s
    # sp accumulated sum_m t_m (l+1+2m) z^{2m}; S' = z^l * sp
    return ValueAndDerivative(value, (zl / z) * sp)


def _s_upward(l: int, z: complex, ops=_SCALAR) -> ValueAndDerivative:
    # closed forms for l <= 1, upward recurrence in the oscillatory regime |z| >~ l
    prev = ops.sin(z)
    if l == 0:
        return ValueAndDerivative(prev, ops.cos(z))
    cur = prev / z - ops.cos(z)
    if l == 1:
        return ValueAndDerivative(cur, prev - cur / z)
    for ll in range(1, l):
        prev, cur = cur, ((2 * ll + 1) / z) * cur - prev
    return ValueAndDerivative(cur, prev - (l / z) * cur)


def riccati_s(l: int, z: complex) -> ValueAndDerivative:
    """Regular Riccati-Bessel function S_l(z) = z j_l(z) and its derivative.

    Entire in z; safe at z = 0 where S_l(0) = 0 and S_l'(0) is 1 for l = 0
    and 0 otherwise.  z may be a numpy array (see the module docstring).
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    z, ops = as_argument(z)
    if ops is _ARRAY:
        return _s_elementwise(l, z)
    if z == 0:
        return ValueAndDerivative(0j, 1.0 + 0j if l == 0 else 0j)
    if l >= 2 and abs(z) < l + 2:
        return _s_series(l, z)
    return _s_upward(l, z)


def _s_elementwise(l: int, z: np.ndarray) -> ValueAndDerivative:
    """riccati_s on an array: each element takes the branch a scalar would."""
    series = abs(z) < l + 2 if l >= 2 else None
    if (series is None or not series.any()) and _no_zero(z):
        return _s_upward(l, z, _ARRAY)   # the common case: one branch for every element
    origin = z == 0
    series = ~origin & series if l >= 2 else np.zeros(z.shape, bool)
    value = np.zeros_like(z)
    derivative = np.where(origin, 1.0 if l == 0 else 0.0, 0j)
    for part, branch in ((series, _s_series), (~(origin | series), _s_upward)):
        if part.any():
            out = branch(l, z[part], _ARRAY)
            value[part], derivative[part] = out.value, out.derivative
    return ValueAndDerivative(value, derivative)


def riccati_xi(l: int, z: complex) -> ValueAndDerivative:
    """Outgoing Riccati-Hankel function xi_l(z) = z h1_l(z) and its derivative.

    Raises OriginSingularity at z = 0 (xi_l ~ -i (2l-1)!! z^{-l} there), or
    when any element of an array argument is 0.
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    z, ops = as_argument(z)
    if not ops.no_zero(z):
        raise OriginSingularity("xi_l is singular at z = 0")
    e = ops.exp(1j * z)
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
