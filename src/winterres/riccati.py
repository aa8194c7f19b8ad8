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

Every function here computes with numpy on ``np.asarray(z, dtype=complex)``,
one code path for one point and for many: an array gives arrays of its
shape, and a Python number runs as a numpy scalar and gives Python complex
(see ``pointwise``).  numpy's array loops may fuse the multiply-adds of a
complex product where its scalar arithmetic does not, so a point alone can
differ in the last bits from the same point in an array.  The S_l series is
chosen per element, always sums on an array, and stops once every element
has reached a negligible term.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

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

    Both are Python complex for a Python number argument, and numpy values
    of the argument's shape for numpy input.
    """

    value: complex
    derivative: complex


def pointwise(fn):
    """Let fn, written for a complex array of points (its last argument), take one point.

    fn gets ``np.asarray(z, dtype=complex)``, a numpy scalar for one point.
    Numpy input gets numpy values back, a Python number Python complex ones
    (in each field of a result record).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs:   # bound to their positions, so the points are the last argument
            return wrapper(*inspect.signature(fn).bind(*args, **kwargs).args)
        z = args[-1]
        if type(z) not in (complex, float, int):
            z = np.asarray(z, dtype=complex)
            return fn(*args[:-1], z if z.ndim else z[()])
        out = fn(*args[:-1], np.complex128(z))
        if isinstance(out, (np.generic, np.ndarray)):
            return complex(out)
        return type(out)(*map(complex, vars(out).values()))
    return wrapper


def _s_series(l: int, z: np.ndarray) -> ValueAndDerivative:
    # S_l(z) = sum_m t_m z^{l+1+2m},  t_0 = 1/(2l+1)!!,
    # t_m = t_{m-1} * (-z^2/2) / (m (2l+2m+1));  derivative termwise.
    # z is a nonzero 1-d array.  A round sums the next 32 terms of every
    # element by cumulative products and sums; the rounds stop once each
    # element's last term is below 1e-18 of its sum.  The terms after an
    # element's first such term are smaller still and leave its sum as it is.
    zl = z ** (l + 1)  # integer power: exact parity under z -> -z
    m = np.arange(1, 400.0)[:, None]
    ratio_den, weight = m * (2 * l + 2 * m + 1), l + 1 + 2 * m
    t = np.full(z.size, 1 / math.prod(range(2 * l + 1, 1, -2)), complex)   # 1/(2l+1)!!
    s, sp, zz = t, t * (l + 1), -0.5 * z * z
    for start in range(0, 399, 32):
        rows = slice(start, start + 32)
        terms = np.cumprod(np.concatenate([t[None], zz / ratio_den[rows]]), axis=0)[1:]
        s = np.cumsum(np.concatenate([s[None], terms]), axis=0)[-1]
        sp = np.cumsum(np.concatenate([sp[None], terms * weight[rows]]), axis=0)[-1]
        t = terms[-1]
        if np.all(abs(t) < 1e-18 * abs(s)):
            break
    # sp accumulated sum_m t_m (l+1+2m) z^{2m}; S' = z^l * sp
    return ValueAndDerivative(zl * s, (zl / z) * sp)


def _upward(l: int, z: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> ValueAndDerivative:
    # f_l and f_l' from f_0 and f_1 by f_{ll+1} = ((2 ll + 1)/z) f_ll - f_{ll-1}
    prev, cur = f0, f1
    for ll in range(1, l):
        prev, cur = cur, ((2 * ll + 1) / z) * cur - prev
    return ValueAndDerivative(cur, prev - (l / z) * cur)


def _s_upward(l: int, z: np.ndarray) -> ValueAndDerivative:
    # closed forms for l <= 1, upward recurrence in the oscillatory regime |z| >~ l
    s0 = np.sin(z)
    return ValueAndDerivative(s0, np.cos(z)) if l == 0 else _upward(l, z, s0, s0 / z - np.cos(z))


@pointwise
def riccati_s(l: int, z: complex) -> ValueAndDerivative:
    """Regular Riccati-Bessel function S_l(z) = z j_l(z) and its derivative.

    Entire in z; safe at z = 0 where S_l(0) = 0 and S_l'(0) is 1 for l = 0
    and 0 otherwise.  Each element of z takes its own branch: the series
    where l >= 2 and |z| < l + 2, the closed form or recurrence elsewhere.
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    origin = z == 0
    special = origin | (abs(z) < l + 2) if l >= 2 else origin
    if not np.count_nonzero(special):
        return _s_upward(l, z)   # the common case: one branch for every element
    value, derivative = np.zeros_like(z), np.where(origin, 1.0 if l == 0 else 0.0, 0j)
    for part, branch in ((special & ~origin, _s_series), (~special, _s_upward)):
        if part.any():
            out = branch(l, z[part])
            value[part], derivative[part] = out.value, out.derivative
    return ValueAndDerivative(value, derivative)


@pointwise
def riccati_xi(l: int, z: complex) -> ValueAndDerivative:
    """Outgoing Riccati-Hankel function xi_l(z) = z h1_l(z) and its derivative.

    Raises OriginSingularity when z, or any element of it, is 0 (xi_l ~
    -i (2l-1)!! z^{-l} there).
    """
    if l < 0:
        raise ValueError("order l must be >= 0")
    if np.count_nonzero(z == 0):
        raise OriginSingularity("xi_l is singular at z = 0")
    e = np.exp(1j * z)
    xi0 = -1j * e
    return ValueAndDerivative(xi0, e) if l == 0 else _upward(l, z, xi0, xi0 / z - e)
