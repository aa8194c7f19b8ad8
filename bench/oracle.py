"""Independent reference for the resonance poles, in mpmath.

Nothing here imports ``winterres``: the pole condition is written out again
from its definition, so a defect shared by the package's Riccati or Krein
code cannot hide itself.

* l = 0 delta couplings (beta = 0, Re gamma = 0) solve
  e^{2ikR} = 1 - 2ik/alpha', alpha' = alpha / (1 + |gamma|^2/4).  With
  alpha' R w = W_n(alpha' R e^{alpha' R}) every Lambert-W branch n gives
  one pole k = i alpha' (w - 1) / 2 (Corless et al., Adv. Comput. Math. 5,
  1996).
* l = 0 intermediate couplings with alpha = beta = 0 solve
  e^{2ikR} = -(1 + |gamma|^2/4) / Re gamma exactly.

For these two families the reference gives every pole in the window, so
both the positions and the count are checked.  Every other pole (delta-prime,
l >= 1, embedded eigenvalues) is Newton-polished in mpmath at ``DPS`` digits
on det lambda built from the finite Bessel-polynomial forms of the spherical
Hankel functions (couplings ``c`` are any objects with ``alpha``, ``beta``
and ``gamma``):

    xi_l^(+-)(z) = (-+i)^{l+1} e^{+-iz} sum_{m<=l} (+-i)^m (l+m)! / (m! (l-m)! (2z)^m)
    S_l(z) = (xi_l^(+)(z) + xi_l^(-)(z)) / 2
    det lambda = -1 - alpha Phi1 + beta Phi2' - 2 Re gamma Phi2avg
                 - (alpha beta + |gamma|^2) / 4
    Phi1 = (i/k) S xi,  Phi2avg = (i/2)(S xi' + S' xi),  Phi2' = i k S' xi'
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

DPS = 40                 # working digits of every reference evaluation
# |k_found - k_ref| / max(1, |k_ref|) above this fails the gate: the 1e-12
# "same poles" target, scaled like the package's own Newton stopping rule
# (step < 1e-12 max(1, |k|)).  Found poles sit up to 1.0e-12 from the truth
# at |k| ~ 5 on some l = 1 delta-prime couplings.
SAME_POLE_TOL = 1e-12
RE_FLOOR_FACTOR = 1e-3   # the search window starts at Re k = 1e-3 / R


class OracleMismatch(AssertionError):
    """A found pole (or pole count) disagrees with the reference."""


def default_im_min(re_max: float, radius: float) -> float:
    """The documented automatic window floor -(ln(re_max R) + 5)/R."""
    return -(math.log(re_max * radius) + 5.0) / radius


def _hankel_parts(l: int, z, sign: int):
    """(value, derivative) of xi_l^(+) (sign=+1) or xi_l^(-) (sign=-1)."""
    unit = mp.mpc(0, sign)
    poly = mp.mpc(0)
    dpoly = mp.mpc(0)
    for m in range(l + 1):
        a = unit ** m * mp.factorial(l + m) / (
            mp.factorial(m) * mp.factorial(l - m) * mp.mpf(2) ** m)
        poly += a / z ** m
        dpoly -= m * a / z ** (m + 1)
    pref = (-unit) ** (l + 1) * mp.exp(unit * z)
    return pref * poly, pref * (unit * poly + dpoly)


def riccati_pair(l: int, z):
    """S_l, S_l', xi_l, xi_l' at complex z (call inside ``workdps(working_dps(l, |z|))``)."""
    xp, dxp = _hankel_parts(l, z, +1)
    xm, dxm = _hankel_parts(l, z, -1)
    return (xp + xm) / 2, (dxp + dxm) / 2, xp, dxp


def det_and_derivative(c, l: int, radius: float, k):
    """det lambda(k) and d/dk det lambda(k), with S'' = (l(l+1)/z^2 - 1) S."""
    r = mp.mpf(radius)
    z = k * r
    s, ds, x, dx = riccati_pair(l, z)
    v = l * (l + 1) / z ** 2 - 1
    i = mp.mpc(0, 1)
    alpha, beta = mp.mpf(c.alpha), mp.mpf(c.beta)
    gamma = mp.mpc(c.gamma.real, c.gamma.imag)
    q = alpha * beta + abs(gamma) ** 2
    phi1 = (i / k) * s * x
    phi2avg = (i / 2) * (s * dx + ds * x)
    phi2p = i * k * ds * dx
    dphi1 = -(i / k ** 2) * s * x + (i / k) * r * (ds * x + s * dx)
    dphi2avg = i * r * (v * s * x + ds * dx)
    dphi2p = i * ds * dx + i * k * r * v * (s * dx + ds * x)
    f = -1 - alpha * phi1 + beta * phi2p - 2 * gamma.real * phi2avg - q / 4
    fp = -alpha * dphi1 + beta * dphi2p - 2 * gamma.real * dphi2avg
    return f, fp


def working_dps(l: int, z_abs: float) -> int:
    """Digits that leave ``DPS`` correct ones in S_l(z) at |z| = z_abs.

    For |z| below ~l the sum of the two Hankel polynomials cancels down to
    S_l ~ |z|^{l+1} / (2l+1)!!, from terms as large as
    max_m (l+m)! / (m! (l-m)! (2|z|)^m); the ratio is the loss.
    """
    z_abs = max(z_abs, 1e-3)
    log_term = max((math.lgamma(l + m + 1) - math.lgamma(m + 1) - math.lgamma(l - m + 1)
                    - m * math.log(2.0 * z_abs)) for m in range(l + 1))
    log_s = (l + 1) * math.log(z_abs) - (math.lgamma(2 * l + 2) - math.lgamma(l + 1)
                                         - l * math.log(2.0))   # (2l+1)!! = (2l+1)!/(2^l l!)
    return DPS + 10 + int(max(0.0, log_term - log_s) / math.log(10.0))


def polish(c, l: int, radius: float, k0: complex) -> complex:
    """Newton root of det lambda started at k0, to ``DPS`` digits."""
    with mp.workdps(working_dps(l, abs(k0) * radius)):
        k = mp.mpc(k0.real, k0.imag)
        tol = mp.mpf(10) ** (-(DPS - 5)) * max(1, abs(k))
        for _ in range(60):
            f, fp = det_and_derivative(c, l, radius, k)
            step = f / fp
            k -= step
            if abs(step) < tol:
                return complex(k)
    raise OracleMismatch(f"reference Newton did not converge from {k0}")


def closed_form_poles(c, l: int, radius: float, re_max: float) -> list[complex] | None:
    """Every pole in the search window (automatic floor) when a closed form exists."""
    if l != 0 or c.beta != 0.0:
        return None
    im_min = default_im_min(re_max, radius)
    re_lo = RE_FLOOR_FACTOR / radius
    branches = int(math.ceil(re_max * radius / math.pi)) + 3
    out: list[complex] = []
    with mp.workdps(DPS):
        r = mp.mpf(radius)
        g2 = abs(c.gamma) ** 2
        if c.gamma.real == 0.0:
            alpha = mp.mpf(c.alpha) / (1 + mp.mpf(g2) / 4)
            if alpha == 0:
                return []
            arg = alpha * r * mp.exp(alpha * r)
            for n in range(-branches, branches + 1):
                w = mp.lambertw(arg, n) / (alpha * r)
                out.append(complex(mp.mpc(0, 1) * alpha * (w - 1) / 2))
        elif c.alpha == 0.0:
            rhs = -(1 + mp.mpf(g2) / 4) / mp.mpf(c.gamma.real)
            for n in range(-branches, branches + 1):
                out.append(complex((mp.arg(rhs) + 2 * mp.pi * n) / (2 * r)
                                   - mp.mpc(0, 1) * mp.log(abs(rhs)) / (2 * r)))
        else:
            return None
    inside = [k for k in out
              if re_lo <= k.real <= re_max and im_min <= k.imag < 0.0]
    return sorted(inside, key=lambda k: (k.real, k.imag))


@dataclass
class CheckResult:
    poles: int = 0
    max_err: float = 0.0        # largest |k_found - k_ref|
    max_rel_err: float = 0.0    # largest |k_found - k_ref| / max(1, |k_ref|)
    by_closed_form: int = 0
    by_polish: int = 0

    def merge(self, other: "CheckResult") -> None:
        self.poles += other.poles
        self.max_err = max(self.max_err, other.max_err)
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.by_closed_form += other.by_closed_form
        self.by_polish += other.by_polish


def check_poles(c, l: int, radius: float, re_max: float, found: list[complex],
                embedded: bool = False) -> CheckResult:
    """Compare one search result with the reference; raise on a mismatch.

    ``embedded`` marks real embedded-eigenvalue momenta, which are only
    polished (the closed forms describe resonances in the open lower plane).
    """
    found = sorted(found, key=lambda k: (k.real, k.imag))
    ref = None if embedded else closed_form_poles(c, l, radius, re_max)
    res = CheckResult(poles=len(found))
    label = f"{c} l={l} R={radius} re_max={re_max}"
    if ref is not None:
        if len(ref) != len(found):
            raise OracleMismatch(
                f"{label}: found {len(found)} poles, the closed form has {len(ref)}")
        res.by_closed_form = len(found)
    else:
        ref = [polish(c, l, radius, k) for k in found]
        res.by_polish = len(found)
    for k, k_ref in zip(found, ref):
        err = abs(k - k_ref)
        rel = err / max(1.0, abs(k_ref))
        if not rel <= SAME_POLE_TOL:
            raise OracleMismatch(f"{label}: pole {k!r} is {err:.3g} from the reference {k_ref!r}")
        res.max_err = max(res.max_err, err)
        res.max_rel_err = max(res.max_rel_err, rel)
    return res
