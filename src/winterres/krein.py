"""Boundary values of the adjoint solutions and the resonance denominator det lambda.

The resolvent of the coupled operator differs from the free one by a rank-two
correction built on the two solutions of the adjoint radial equation at
energy k^2 that are regular at the origin and outgoing at infinity.  Their
boundary values at the sphere reduce, after stripping cylinder-function
prefactors that cancel systematically, to products of Riccati functions at
z = k R:

    Phi1(R)    = (i / k)  S_l(z) xi_l(z)            (continuous at R)
    Phi2(R+-)  = i S_l'(z) xi_l(z) / i S_l(z) xi_l'(z)   (jumps by exactly 1)
    Phi2(Rbar) = (i / 2) (S_l(z) xi_l'(z) + S_l'(z) xi_l(z))   (mean value)
    Phi2'(R)   = i k S_l'(z) xi_l'(z)

The derivative of Phi2 is the same from both sides (the product rule puts
the discontinuous factor under a derivative on each side and the remaining
factors agree), so no one-sided convention is needed for it.  The correction
coefficients share a common denominator

    det lambda = -1 - alpha Phi1(R) + beta Phi2'(R)
                 - 2 Re(gamma) Phi2(Rbar) - (alpha beta + |gamma|^2) / 4

whose zeros in the open lower momentum half-plane are the resonances; zeros
on the positive real axis occur only for separated interactions and are
embedded eigenvalues.  It is summed in the order shown, with only the terms
whose coefficient is nonzero (one or two for each figure coupling): a finite
term left out would add an exact zero, so the value is bitwise that of all
five.  The displayed expressions are evaluated on the whole punctured plane:
for half-integer cylinder order there are no branch cuts, so analytic
continuation is plain evaluation.

``det_lambda_balanced`` multiplies by the zero-free factor e^{-i k R}.  The
raw determinant contains competing e^{2 i k R} and O(1) parts; one growing
and one flat term make phase tracking along deep contours ill-conditioned,
while the balanced version splits the growth evenly and leaves the zero set
untouched.  Root finding uses the balanced form throughout.  Since xi_l is
e^{iz} times a polynomial in 1/z, the balanced form is computed from S_l and
eta_l = e^{-iz} xi_l (``riccati._s_eta``): the Phi expressions, linear in
xi_l, take eta_l in its place and the constant terms take e^{-ikR}, so
e^{ikR} is never formed.  ``det_lambda`` is e^{ikR} times the balanced
value, which it divides by the e^{-ikR} of the same ``_s_eta`` call.
``phi_boundary`` evaluates the same Phi expressions on S_l and xi_l =
e^{iz} eta_l from one ``_s_eta`` call, the values ``riccati_s`` and
``riccati_xi`` return.

``phi_boundary``, ``det_lambda`` and ``det_lambda_balanced`` take one
momentum or a numpy array of momenta, like the Riccati functions they call,
and compute with numpy through the same expressions: a scalar gives
Python complex values, an array gives arrays of its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WinterresError
from .gpi import GpiParams, is_separated
from .riccati import Channel, ValueAndDerivative, _s_eta, pointwise, riccati_s
from .riccati import riccati_xi  # noqa: F401  (a patch point of bench/tracer.py)


EXCLUDED_DISC = 1e-3   # searches exclude the disc |k| < EXCLUDED_DISC / R around k = 0
_MAX_SAMPLES = 1_000_000   # points a window's boundary or a real-axis root grid may take


@dataclass(frozen=True)
class PhiBoundaryValues:
    """Boundary data of the two adjoint solutions at momentum k (arrays for an array k)."""

    phi1_at_R: complex
    phi2_avg: complex
    phi2_prime: complex


# the boundary values from S_l and X = xi_l, or unit * (each of them) from X = unit * xi_l
_PHI = {"phi1_at_R": lambda k, s, x: (1j / k) * s.value * x.value,
        "phi2_avg": lambda k, s, x: 0.5j * (s.value * x.derivative + s.derivative * x.value),
        "phi2_prime": lambda k, s, x: 1j * k * s.derivative * x.derivative}


def _phi(k: np.ndarray, s: ValueAndDerivative, x: ValueAndDerivative) -> PhiBoundaryValues:
    return PhiBoundaryValues(**{name: phi(k, s, x) for name, phi in _PHI.items()})


def _det(p: GpiParams, k: np.ndarray, s: ValueAndDerivative, x: ValueAndDerivative,
         unit: complex | np.ndarray) -> complex | np.ndarray:
    # unit * det lambda from S_l and X = unit * xi_l, in the formula's order, with only the
    # terms whose coefficient is nonzero: a term left out would add an exact 0
    det, q = -unit, p.coupling_product
    if p.alpha:
        det = det - p.alpha * _PHI["phi1_at_R"](k, s, x)
    if p.beta:
        det = det + p.beta * _PHI["phi2_prime"](k, s, x)
    if p.gamma.real:
        det = det - 2.0 * p.gamma.real * _PHI["phi2_avg"](k, s, x)
    if q:
        det = det - 0.25 * q * unit
    return det


@pointwise
def phi_boundary(ch: Channel, k: complex) -> PhiBoundaryValues:
    """Boundary values Phi1(R), Phi2(Rbar), Phi2'(R); k = 0 raises OriginSingularity."""
    z = k * ch.radius
    # S_l and eta_l from one call, under the errstate riccati_s and riccati_xi each take:
    # S_l overflows far off the real axis, eta_l near the origin at high l
    with np.errstate(over="ignore", invalid="ignore"):
        s, eta, _ = _s_eta(ch.l, z)
    e = np.exp(1j * z)
    return _phi(k, s, ValueAndDerivative(e * eta.value, e * eta.derivative))


@pointwise
def det_lambda(p: GpiParams, ch: Channel, k: complex) -> complex:
    """The pole denominator det lambda(k); analytic on the punctured plane.

    Identically -1 for the free interaction (to rounding: the balanced
    value -e^{-ikR} over e^{-ikR}), which is the cheapest full cross-check
    of the prefactor bookkeeping above.
    """
    s, eta, unit = _s_eta(ch.l, k * ch.radius)
    return _det(p, k, s, eta, unit) / unit


@pointwise
def det_lambda_balanced(p: GpiParams, ch: Channel, k: complex) -> complex:
    """e^{-i k R} det lambda(k): same zeros, balanced growth off the axis.

    Built from S_l and e^{-i k R} xi_l, so e^{i k R} is never formed.
    """
    s, eta, unit = _s_eta(ch.l, k * ch.radius)
    return _det(p, k, s, eta, unit)


def _inside_condition(p: GpiParams) -> tuple[float, float]:
    """(c1, c2) of the interior condition c1 f(R-) + c2 f'(R-) = 0, in closed form.

    With (a, b, g) = (alpha, beta, gamma) and f+- = f(R+-), twice the jump
    conditions read -a f+ + (2 - g) f'+ = a f- + (2 + g) f'- and
    (2 + g) f+ - b f'+ = (2 - g) f- + b f'-.  On the separated locus
    ab + g^2 = 4 (g real) the left sides are proportional; the row weights
    (2 + g, a) and (b, 2 - g) cancel them and leave a f- + (2 + g) f'- = 0
    and (2 - g) f- + b f'- = 0.  Either pair may vanish, so the one of
    larger 1-norm is taken, scaled to max(|c1|, |c2|) = 1.
    """
    a, b, g = p.alpha, p.beta, p.gamma.real
    c1, c2 = (a, 2 + g) if abs(a) + abs(2 + g) > abs(b) + abs(2 - g) else (2 - g, b)
    scale = max(abs(c1), abs(c2))
    return c1 / scale, c2 / scale


def real_axis_roots(p: GpiParams, ch: Channel, k_max: float) -> list[float]:
    """Momenta of the embedded eigenvalues in (1e-3/R, k_max].

    The roots are the zeros of the real interior quantization function
    g(k) = c1 S_l(kR) + c2 k S_l'(kR) (closed-form c1, c2 from
    ``_inside_condition``), each a zero of det lambda: those on a grid of
    steps pi/(24R), and one in each grid step where g changes sign.  Each
    such bracket starts at its midpoint; each round the sign of g narrows
    it, and the iterate takes a Newton step with the exact g'
    (S_l'' = (l(l+1)/z^2 - 1) S_l) where that lands strictly inside it, or
    bisects it.  All brackets run in lockstep, one Riccati array call a
    round over those still running.  A root is the Newton iterate after a
    step of at most 1e-14 of it, or the midpoint of a bracket shrunk below
    1e-15 of it.  A disc |k| < 1e-3/R around k = 0 is excluded.  A coupling
    that is not separated and an infinite k_max raise ValueError, a grid of
    more than _MAX_SAMPLES points WinterresError before any Riccati call.
    """
    if not is_separated(p):
        raise ValueError(f"real-axis root search needs a separated interaction, got {p}")
    if not math.isfinite(k_max):
        raise ValueError(f"k_max must be finite, got {k_max}")
    c1, c2 = _inside_condition(p)
    r, centrifugal = ch.radius, ch.l * (ch.l + 1)

    def g(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # g and g' = (c1 R + c2) S' + c2 k R S'' at the points k
        z = k * r
        s = riccati_s(ch.l, z)
        value, slope = s.value.real, s.derivative.real
        return (c1 * value + c2 * k * slope,
                (c1 * r + c2) * slope + c2 * k * r * (centrifugal / z**2 - 1.0) * value)

    k_lo = EXCLUDED_DISC / r
    if k_max <= k_lo:
        return []
    step = math.pi / (24.0 * r)
    n_steps = max(2, int(math.ceil((k_max - k_lo) / step)))
    if n_steps + 1 > _MAX_SAMPLES:
        raise WinterresError(f"real-axis root search up to k_max={k_max:g} would take "
                             f"{n_steps + 1} grid points, over the budget of {_MAX_SAMPLES:.3g}")
    grid = k_lo + (k_max - k_lo) * np.arange(n_steps + 1) / n_steps
    vals = g(grid)[0]
    on_grid = np.flatnonzero(vals == 0.0)
    bracket = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)   # sign changes in step i
    a, b, fa = grid[bracket], grid[bracket + 1], vals[bracket]
    k, roots = 0.5 * (a + b), np.empty(bracket.size)
    live = np.arange(bracket.size)   # the brackets still running, as indices into roots
    for _ in range(200 if bracket.size else 0):
        f, fp = g(k)
        left = fa * f < 0.0   # the root lies in [a, k]
        a, b, fa = np.where(left, a, k), np.where(left, k, b), np.where(left, fa, f)
        with np.errstate(divide="ignore", invalid="ignore"):
            dk = np.where(f == 0.0, 0.0, f / fp)
        newton, converged = k - dk, abs(dk) <= 1e-14 * k
        mid = 0.5 * (a + b)
        roots[live] = np.where(converged, newton, mid)   # a bracket cut off by the cap keeps mid
        running = ~converged & (b - a >= 1e-15 * k)
        k = np.where((a < newton) & (newton < b), newton, mid)[running]
        a, b, fa, live = a[running], b[running], fa[running], live[running]
        if not live.size:
            break
    roots = np.concatenate([grid[on_grid], roots])
    return roots[np.argsort(np.concatenate([on_grid, bracket]), kind="stable")].tolist()
