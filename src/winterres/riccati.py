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

* upward recurrence f_{l+1} = ((2l+1)/z) f_l - f_{l-1} from f_0 and f_1:
  for S_l from sin z and cos z, and for eta_l = e^{-iz} xi_l, a polynomial
  in 1/z, from eta_0 = -i and eta_1 = -i/z - 1; xi_l is e^{iz} eta_l,
* inside the series disc |z| < l + 2 (the one switch):
  - for l >= 2, eta_l as a product over the l zeros zeta_j of xi_l,
    eta_l(z) = (-i)^{l+1} prod_j (1 - zeta_j/z), with zeta_j = i/x_j for the
    zeros x_j of the Bessel polynomial y_l (Grosswald, *Bessel Polynomials*,
    LNM 698, 1978; DLMF 10.49), computed once per l (``_zeros``),
  - for l >= 1, S_l from its ascending power series, where the upward
    recurrence would amplify the admixture of the dominant solution (at
    l = 1, sin z / z - cos z cancels near the origin); for l >= 2, where
    it cancels less, from the two Hankel terms instead,
    S_l = (xi_l + xi_l^(2))/2 with xi_l^(2)(z) = conj(xi_l(conj z)), also a
    product over the conjugate zeros.  Which sum cancels less is decided
    per point from |S_l| times the two condition numbers,
    (|xi_l| + |xi_l^(2)|)/2 and the series' sum of moduli |S_l(i|z|)|.

One evaluator, ``_s_eta``, computes S_l and eta_l: it returns them and
e^{-iz} from one real sine, cosine, exponential and sinh of Re z and Im z,
with S_l and eta_l recurring as the two rows of one stack (not at all when
every point lies in the disc), so e^{iz} is never formed and no complex
transcendental is taken.  ``riccati_s`` is its S_l and ``riccati_xi`` e^{iz}
times its eta_l.  Where e^{|Im z|} overflows (|Im z| >~ 709) so does S_l,
even where S_l itself would be finite.

The upward recurrence for xi_l is accurate where xi_l is the dominant
solution, which is not everywhere: for |z| <~ l deep in the lower
half-plane its relative error grows like eps e^{2 |Im z|} (up to 2e-6 at
l = 20 and 2e-4 at l = 30 against a 40-digit reference).  The product has
no cancellation, so inside the disc xi_l and xi_l' hold ~1e-14 relative
for every l tested (to 40).  Outside the disc the recurrence stays: at
l = 20 it loses up to ~300 ulps near |z| = 30, Im z = -13.  On a ring
about |z| = 0.75 l neither sum for S_l is exact at high l (up to 4e-13 at
l = 30, 1e-10 at l = 40).

Derivatives come from the identity f_l' = f_{l-1} - (l/z) f_l, or, for the
products, from the logarithmic derivative
xi_l'/xi_l = i - l/z + sum_j 1/(z - zeta_j); never from numerical
differencing.

Every function here computes with numpy on ``np.asarray(z, dtype=complex)``,
one code path for one point and for many: an array gives arrays of its
shape, and a Python number runs as a numpy scalar and gives Python complex
(see ``pointwise``).  numpy's array loops may fuse the multiply-adds of a
complex product where its scalar arithmetic does not, so a point alone can
differ in the last bits from the same point in an array.  The S_l series is
chosen per element, always sums on an array, and sums l + 16 terms of every
element, which reach 1e-18 of the sum on its whole disc |z| < l + 2.
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


def _check_order(l) -> None:
    if not isinstance(l, int) or not 0 <= l <= 200:   # the S_l series is shown up to 200
        raise ValueError(f"angular momentum must be a nonnegative integer up to 200, got {l!r}")


@dataclass(frozen=True)
class Channel:
    """One partial wave of the spherical problem.

    Attributes
    ----------
    l : int
        Angular momentum, 0 <= l <= 200.
    radius : float
        Sphere radius R > 0, in units of length.  Momenta k then carry units
        of 1/length and all Riccati arguments appear as z = k R.
    """

    l: int
    radius: float

    def __post_init__(self) -> None:
        _check_order(self.l)
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


def _trig(z: np.ndarray) -> np.ndarray:
    # sin z, cos z and e^{-iz}, the rows of one (3, ...) block, from one real sine, cosine,
    # exponential and sinh of x = Re z and y = Im z (a contiguous copy: exp and sinh run
    # ~3x slower on the strided z.imag), each product written into its part of the block.
    # cosh y = (e^y + e^-y)/2 adds two positive terms; sinh y takes its own call, since
    # (e^y - e^-y)/2 cancels for small y.
    out = np.empty((3,) + np.shape(z), complex)
    rows, w = out.reshape(3, -1), np.reshape(z, -1)   # a point's rows are (3, 1) views
    x, y = w.real, w.imag.copy()
    sin_x, cos_x, exp_y, sinh_y = np.sin(x), np.cos(x), np.exp(y), np.sinh(y)
    cosh_y, msin_x = 0.5 * (exp_y + 1 / exp_y), -sin_x
    for row, re, im in zip(rows, ((sin_x, cosh_y), (cos_x, cosh_y), (exp_y, cos_x)),
                           ((cos_x, sinh_y), (msin_x, sinh_y), (exp_y, msin_x))):
        np.multiply(*re, out=row.real)
        np.multiply(*im, out=row.imag)
    return out


@functools.lru_cache(maxsize=None)
def _series_tables(l: int) -> tuple[np.ndarray, np.ndarray, float]:
    # the term ratios' denominators m (2l+2m+1), m = 1..l+15, the derivative weights
    # l+1+2m, m = 0..l+15, as columns, and t_0 = 1/(2l+1)!!.  |t_m z^{2m}| depends on
    # |z| alone and S_l / z^{l+1} has no zero in |z| <= l + 2 (j_l's first zero lies
    # above), so a term is largest against the sum on |z| = l + 2; there term l + 15
    # is under 1e-18 of it for every l <= 200 (l=1 needs term 14, l=20 term 35, l=50
    # term 59), below half an ulp, as are the terms after it.
    m = np.arange(l + 16.0)[:, None]
    return (m * (2 * l + 2 * m + 1))[1:], l + 1 + 2 * m, 1 / math.prod(range(2 * l + 1, 1, -2))


@functools.lru_cache(maxsize=None)
def _moduli_table(l: int) -> tuple[np.ndarray, np.ndarray]:
    # the powers l+1+2m, m = 0..l+15, and 2 |t_m| (l + 2)^{l+1+2m}, so that
    # 2 |S_l(ir)| = 2 sum_m |t_m| r^{l+1+2m} sums powers of r / (l + 2) <= 1 on the
    # disc and no factor overflows; log |t_m| = -log (2l+1)!! - sum_{k<=m} log(2k(2l+2k+1))
    ratio_den, weight, _ = _series_tables(l)
    log_t = -np.log(np.arange(3, 2 * l + 2, 2.0)).sum() - np.concatenate(
        [[0.0], np.cumsum(np.log(2 * ratio_den[:, 0]))])
    powers = weight[:, 0]
    return powers, 2 * np.exp(log_t + powers * math.log(l + 2))


def _s_series(l: int, z: np.ndarray) -> ValueAndDerivative:
    # S_l(z) = sum_m t_m z^{l+1+2m},  t_0 = 1/(2l+1)!!,
    # t_m = t_{m-1} * (-z^2/2) / (m (2l+2m+1));  derivative termwise.
    # z is a 1-d array; the terms m = 0..l+15 of every element come from one
    # cumulative product and are summed in order (a cumulative sum, not the
    # pairwise one of .sum).
    zl = z ** l  # integer power: exact parity under z -> -z, and 0 at the origin for l >= 1
    ratio_den, weight, t0 = _series_tables(l)
    terms = np.empty((weight.size, z.size), complex)
    terms[0] = t0
    np.divide(-0.5 * z * z, ratio_den, out=terms[1:])
    terms.cumprod(axis=0, out=terms)
    # the second sum is sum_m t_m (l+1+2m) z^{2m}; S' = z^l times it
    s, sp = terms.cumsum(axis=0)[-1], (terms * weight).cumsum(axis=0)[-1]
    return ValueAndDerivative(zl * z * s, zl * sp)


def _upward(l: int, z: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> ValueAndDerivative:
    # f_l and f_l' from f_0 and f_1 by f_{ll+1} = ((2 ll + 1)/z) f_ll - f_{ll-1};
    # the rows of a stack f0, f1 recur together
    prev, cur = f0, f1
    factors = np.arange(3, 2 * l, 2).reshape((-1,) + (1,) * np.ndim(z)) / z   # (2 ll + 1)/z
    for factor in factors:
        prev, cur = cur, factor * cur - prev
    return ValueAndDerivative(cur, prev - (l / z) * cur)


@functools.lru_cache(maxsize=None)
def _zeros(l: int) -> np.ndarray:
    """The l zeros zeta_j = i/x_j of xi_l, from the zeros x_j of the Bessel polynomial y_l.

    Seeds for l <= 20 are the eigenvalues of the tridiagonal matrix of the monic
    recurrence p_{n+1} = x p_n + p_{n-1}/((2n+1)(2n-1)), p_1 = x + 1; for l > 20 the
    zeros of y_{l-1}, interpolated along their arc and scaled by (l-1)/l.  Newton on
    the Stieltjes relations 2 sum_{j != k} 1/(x_k - x_j) + (2 x_k + 2)/x_k^2 = 0
    (from x^2 y'' + (2x + 2) y' = l(l+1) y) then takes them to rounding.
    """
    if l <= 20:
        i = np.arange(l - 1)
        t = np.diag(np.ones(l - 1), 1) + np.diag(-1.0 / ((2 * i + 1) * (2 * i + 3)), -1)
        t[0, 0] = -1.0
        x = np.linalg.eigvals(t)
    else:
        for n in range(21, l):   # fill the cache upward, so no call recurses deeply
            _zeros(n)
        prev = 1j / _zeros(l - 1)   # ordered along the arc by arg(-x)
        at, knots = np.linspace(0, l - 2, l), np.arange(l - 1)
        x = (np.interp(at, knots, prev.real) + 1j * np.interp(at, knots, prev.imag)) * (l - 1) / l
    for _ in range(50):
        d = x[:, None] - x
        np.fill_diagonal(d, 1.0)
        inv = 1 / d
        np.fill_diagonal(inv, 0.0)
        jac = 2 * inv * inv
        np.fill_diagonal(jac, -jac.sum(axis=1) - 2 / x**2 - 4 / x**3)
        step = np.linalg.solve(jac, 2 * inv.sum(axis=1) + (2 * x + 2) / x**2)
        x = x - step
        if np.max(abs(step)) <= 1e-15 * np.max(abs(x)):
            break
    return 1j / x[np.argsort(np.angle(-x))]


@functools.lru_cache(maxsize=None)
def _pair_tables(l: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the zeros of xi_l and their conjugates, the zeros of xi_l^(2), as the rows of a
    # (2, l, 1) array; the prefactors (-i)^{l+1}, i^{l+1}; the terms i, -i of the
    # logarithmic derivatives
    zeta, phase = _zeros(l), (1, -1j, -1, 1j)[(l + 1) % 4]
    return (np.array([zeta, zeta.conj()])[..., None], np.array([[phase], [phase.conjugate()]]),
            np.array([[1j], [-1j]]))


def _eta_pair(l: int, z: np.ndarray) -> np.ndarray:
    # [[eta_l, eta_l^(2)], [D, D^(2)]] at the 1-d points z, from one pass over the zeros
    # of xi_l and their conjugates: eta_l = e^{-iz} xi_l = (-i)^{l+1} prod_j (1 - zeta_j/z)
    # and eta_l^(2) = e^{iz} xi_l^(2) = i^{l+1} prod_j (1 - conj(zeta_j)/z), as
    # xi_l^(2)(z) = conj(xi_l(conj z)), with D = e^{-iz} xi_l' and D^(2) = e^{iz} xi_l^(2)'
    roots, phase, offset = _pair_tables(l)
    d = z - roots
    eta = (d / z).prod(axis=1) * phase
    return np.array([eta, eta * ((1 / d).sum(axis=1) + (offset - l / z))])


def _disc(l: int, z: np.ndarray, unit: np.ndarray) -> np.ndarray:
    # [[S_l, eta_l], [S_l', D]] at the 1-d points z of the series disc, l >= 2, with
    # unit = e^{-iz} there (never cos z - i sin z, which cancels in the lower half-plane).
    # S_l is the mean of the Hankel terms xi_l = e^{iz} eta_l, xi_l^(2) = e^{-iz} eta_l^(2)
    # where that sum cancels less than the series: their condition numbers times |S_l|
    # are (|xi_l| + |xi_l^(2)|)/2 and the series' sum of moduli |S_l(i|z|)|.  Where the
    # Hankel terms overflow (high l, small |z|) the comparison fails and S_l takes the series
    pair = _eta_pair(l, z)
    h = pair * np.array([1 / unit, unit])
    powers, moduli = _moduli_table(l)
    hankel = abs(h[0]).sum(axis=0) < (abs(z) / (l + 2))[:, None] ** powers @ moduli
    pair[:, 1] = 0.5 * h.sum(axis=1)
    if not hankel.all():
        series = ~hankel
        out = _s_series(l, z[series])
        pair[0, 1, series], pair[1, 1, series] = out.value, out.derivative
    return pair[:, ::-1]


def _s_eta(l: int, z: np.ndarray) -> tuple[ValueAndDerivative, ValueAndDerivative, np.ndarray]:
    """S_l, eta_l = e^{-iz} xi_l (with e^{-iz} xi_l' as its derivative) and e^{-iz} at z.

    eta_l is a polynomial in 1/z, so e^{iz} is never formed: by recurrence,
    and inside the series disc, for l >= 2, as the product over the zeros of
    xi_l, with S_l from the series or the Hankel terms there (see the module
    docstring).  Raises OriginSingularity when any element of z is 0.
    """
    if np.count_nonzero(z == 0):
        raise OriginSingularity("xi_l is singular at z = 0")
    sin, cos, unit = _trig(z)
    if l == 0:
        return ValueAndDerivative(sin, cos), ValueAndDerivative(-1j, 1.0), unit
    series = abs(z) < l + 2   # the series disc
    inside = np.count_nonzero(series)
    if l >= 2 and inside == np.size(z):   # the disc alone: no recurrence to overwrite
        f = _disc(l, np.reshape(z, -1), np.reshape(unit, -1)).reshape((2, 2) + np.shape(z))
        return ValueAndDerivative(f[0, 0], f[1, 0]), ValueAndDerivative(f[0, 1], f[1, 1]), unit
    # S_l and eta_l recur as the two rows of one stack, eta_l from eta_0 = -i
    # and eta_1 = -i/z - 1; then the disc points take S_l from the series (l = 1)
    # or both from the disc's own evaluation
    f0 = np.empty((2,) + np.shape(z), complex)
    f0[0], f0[1] = sin, -1j
    f = _upward(l, z, f0, np.array([sin / z - cos, -1j / z - 1]))
    if inside:
        if l == 1:
            out = _s_series(l, z[series])
            f.value[0, series], f.derivative[0, series] = out.value, out.derivative
        else:
            f.value[:, series], f.derivative[:, series] = _disc(l, z[series], unit[series])
    return (ValueAndDerivative(f.value[0], f.derivative[0]),
            ValueAndDerivative(f.value[1], f.derivative[1]), unit)


@pointwise
def riccati_s(l: int, z: complex) -> ValueAndDerivative:
    """Regular Riccati-Bessel function S_l(z) = z j_l(z) and its derivative.

    Entire in z; the S_l of ``_s_eta``, and safe at z = 0, where S_l(0) = 0
    and S_l'(0) is 1 for l = 0 and 0 otherwise.
    """
    _check_order(l)
    origin = z == 0
    # the unused eta_l overflows near the origin at high l
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.count_nonzero(origin):
            return _s_eta(l, z)[0]
        s = _s_eta(l, z[~origin])[0]
    value, derivative = np.zeros_like(z), np.full_like(z, l == 0)
    value[~origin], derivative[~origin] = s.value, s.derivative
    return ValueAndDerivative(value, derivative)


@pointwise
def riccati_xi(l: int, z: complex) -> ValueAndDerivative:
    """Outgoing Riccati-Hankel function xi_l(z) = z h1_l(z) and its derivative.

    e^{iz} times the eta_l of ``_s_eta``.  Raises OriginSingularity when z,
    or any element of it, is 0 (xi_l ~ -i (2l-1)!! z^{-l} there).
    """
    _check_order(l)
    # the unused S_l overflows far off the real axis, eta_l near the origin at high l
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _s_eta(l, z)[1]
    e = np.exp(1j * z)
    return ValueAndDerivative(e * eta.value, e * eta.derivative)
