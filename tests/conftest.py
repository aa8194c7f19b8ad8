"""Shared oracles for the test suite.

Everything here is deliberately independent of the evaluation paths inside
the package: boundary-condition solutions come from a generic null-space
solve of the jump conditions, and cylinder functions come from 30-term
ascending power series of J_nu (with H1_nu assembled through the
half-integer-order reflection Y_nu = (-1)^{l+1} J_{-nu}), or from mpmath's
Bessel and Hankel functions at 40 digits.  The one
exception is ``wronskian``, an identity that checks the package's own
Riccati functions against each other, from the evaluator they share.
"""

from __future__ import annotations

import cmath
import functools
import math

import mpmath as mp
import numpy as np

from winterres import BoundaryData, Channel, GpiParams
from winterres.riccati import _s_eta


def eq1_basis(p: GpiParams) -> list[BoundaryData]:
    """Two independent boundary-data solutions of the jump conditions.

    Rows are the two conditions, columns multiply (f+, f-, f'+, f'-); the
    null space is computed by SVD, so no package conversion code is touched.
    """
    g = p.gamma
    m = np.array([
        [-p.alpha / 2, -p.alpha / 2, 1 - g / 2, -1 - g / 2],
        [1 + np.conj(g) / 2, -1 + np.conj(g) / 2, -p.beta / 2, -p.beta / 2],
    ], dtype=complex)
    _, _, vh = np.linalg.svd(m)
    return [BoundaryData(*vh[row].conj()) for row in (2, 3)]


def random_params(rng: np.random.Generator, scale: float = 3.0) -> GpiParams:
    """A generic interaction; occasionally lands in the thinner classes."""
    kind = rng.integers(0, 4)
    alpha = float(rng.normal() * scale)
    beta = float(rng.normal() * scale)
    gamma = complex(rng.normal(), rng.normal()) * scale / 2
    if kind == 1:      # delta family
        beta, gamma = 0.0, complex(0.0, gamma.imag)
    elif kind == 2:    # intermediate family
        beta = 0.0
    return GpiParams(alpha, beta, gamma)


def bessel_j_series(nu: float, z: complex, terms: int = 30) -> complex:
    """Ascending series of J_nu(z), principal branch (use Re z > 0)."""
    half = z / 2.0
    out = 0j
    for m in range(terms):
        out += (-1) ** m * half ** (2 * m + nu) / (
            math.factorial(m) * math.gamma(m + nu + 1.0))
    return out


def hankel1_halfint(l: int, z: complex, terms: int = 30) -> complex:
    """H1_{l+1/2}(z) = J_{l+1/2}(z) + i (-1)^{l+1} J_{-l-1/2}(z)."""
    nu = l + 0.5
    return (bessel_j_series(nu, z, terms)
            + 1j * (-1) ** (l + 1) * bessel_j_series(-nu, z, terms))


def riccati_s_series(l: int, z: complex, terms: int = 30) -> complex:
    """S_l(z) = sqrt(pi z / 2) J_{l+1/2}(z), via the series oracle."""
    return cmath.sqrt(math.pi * z / 2.0) * bessel_j_series(l + 0.5, z, terms)


def riccati_xi_series(l: int, z: complex, terms: int = 30) -> complex:
    """xi_l(z) = sqrt(pi z / 2) H1_{l+1/2}(z), via the series oracle."""
    return cmath.sqrt(math.pi * z / 2.0) * hankel1_halfint(l, z, terms)


def wronskian(l: int, z: complex) -> complex:
    """S_l(z) xi_l'(z) - S_l'(z) xi_l(z), analytically the constant i.

    S_l and eta_l come from one ``_s_eta`` call, as ``riccati_s`` and
    ``riccati_xi`` take them, and xi_l = e^{iz} eta_l as ``riccati_xi`` forms
    it; so it checks the series and recurrence paths against each other.
    z = 0 raises OriginSingularity.
    """
    z = np.complex128(z)
    # S_l overflows far off the real axis, eta_l near the origin at high l
    with np.errstate(over="ignore", invalid="ignore"):
        s, eta, _ = _s_eta(l, z)
    e = np.exp(1j * z)
    x_value, x_derivative = complex(e * eta.value), complex(e * eta.derivative)
    return complex(s.value) * x_derivative - complex(s.derivative) * x_value


# |z| from near the excluded disc to a deep window's far end; arg z in
# [-pi/2, 0] with Im z >= -13, about the deepest a default search floor goes
MPMATH_ORDERS = (0, 1, 2, 5, 20)
MPMATH_GRID = tuple(
    complex(r * math.cos(t), r * math.sin(t))
    for r in (1e-3, 1e-2, 0.3, 3.0, 30.0, 300.0, 2000.0)
    for t in [*(t for t in np.linspace(-math.pi / 2, 0.0, 7) if r * math.sin(t) >= -13.0),
              *([-math.asin(13.0 / r)] if r > 13.0 else [])])


@functools.lru_cache(maxsize=None)
def mpmath_riccati(l: int, z: complex) -> tuple[mp.mpc, mp.mpc, mp.mpc, mp.mpc]:
    """S_l, S_l', xi_l, xi_l' at z to 40 digits, from mpmath's J_nu and H1_nu.

    f_l = sqrt(pi z / 2) C_{l+1/2}(z) for C = J (S) and H1 (xi), and
    f_l' = f_{l-1} - (l/z) f_l, where order -1/2 gives S_{-1} = cos z and
    xi_{-1} = e^{iz}.
    """
    with mp.workdps(40):
        w = mp.mpc(z)
        pre = mp.sqrt(mp.pi * w / 2)
        s0, s1 = (pre * mp.besselj(n + mp.mpf(1) / 2, w) for n in (l - 1, l))
        x0, x1 = (pre * mp.hankel1(n + mp.mpf(1) / 2, w) for n in (l - 1, l))
        return s1, s0 - l / w * s1, x1, x0 - l / w * x1


def mpmath_det_lambda(p: GpiParams, ch: Channel, k) -> mp.mpc:
    """det lambda(k) at 40 digits from ``mpmath_riccati`` at z = k R (k may be an mpc)."""
    with mp.workdps(40):
        k = mp.mpc(k)
        s, sd, x, xd = mpmath_riccati(ch.l, k * ch.radius)
        return (-1 - p.alpha * 1j / k * s * x + p.beta * 1j * k * sd * xd
                - mp.mpf(p.gamma.real) * 1j * (s * xd + sd * x)
                - mp.mpf(p.alpha * p.beta + abs(p.gamma) ** 2) / 4)


def mpmath_pole(p: GpiParams, ch: Channel, k0: complex) -> complex:
    """The zero of det lambda next to k0, by secant steps at 40 digits from k0."""
    with mp.workdps(40):
        a, b = mp.mpc(k0), mp.mpc(k0) * (1 + mp.mpf(10) ** -7)
        fa, fb = mpmath_det_lambda(p, ch, a), mpmath_det_lambda(p, ch, b)
        for _ in range(30):
            a, b, fa = b, b - fb * (b - a) / (fb - fa), fb
            if abs(b - a) < mp.mpf(10) ** -30 * abs(b):
                return complex(b)
            fb = mpmath_det_lambda(p, ch, b)
    raise AssertionError(f"no zero of det lambda found next to {k0}")
