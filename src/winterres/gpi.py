"""Generalized point interactions on a sphere: parameterizations and classes.

A rotationally invariant surface interaction of strength (alpha, beta, gamma)
couples the values and radial derivatives of a wavefunction across r = R:

    f'(R+) - f'(R-) =  (alpha/2) (f(R+) + f(R-)) + (gamma/2)  (f'(R+) + f'(R-))
    f(R+)  - f(R-)  = -(conj(gamma)/2) (f(R+) + f(R-)) + (beta/2) (f'(R+) + f'(R-))

with alpha, beta real and gamma complex.  Three families arise:

    delta        Re gamma = 0 and beta = 0   (pure jump in the derivative)
    intermediate Re gamma != 0 and beta = 0
    delta-prime  beta != 0

Two equivalent encodings of the same condition are provided.  The unitary
form characterizes self-adjoint couplings by a 2x2 unitary

    U = e^{i xi} [[u1, u2], [-conj(u2), conj(u1)]],   |u1|^2 + |u2|^2 = 1,

acting through (U - I) F + i (U + I) F' = 0 on the boundary vectors
F = (f(R+), f(R-)) and F' = (f'(R+), -f'(R-)).  The sign on the second
derivative entry is the outward-pointing convention for the exterior side;
it is fixed once and for all by requiring that the free coupling
(alpha = beta = gamma = 0) correspond to plain continuity, and every
conversion below is validated against that convention through
``boundary_residual``.  The transfer form instead propagates the boundary
vector across the shell,

    (f(R+), f'(R+))^T = Lambda (f(R-), f'(R-))^T,
    Lambda = e^{i chi} [[a, b], [c, d]],  chi in [0, pi),  ad - bc = 1.

u2 = 0, equivalently alpha beta + |gamma|^2 = 4 with gamma real, decouples
the inside from the outside ("separated" interaction); the transfer matrix
then does not exist and the spectrum acquires embedded eigenvalues.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import WinterresError

_NORM_TOL = 1e-12
_MATRIX_TOL = 1e-10   # rounding allowance of the matrix criteria in classify_unitary
_SEPARATION_TOL = 1e-12   # distance from the separated locus that is_separated allows


class SeparatedInteraction(WinterresError):
    """Inside and outside decouple: there is no transfer matrix and no resonance lattice."""


class DegenerateDenominator(WinterresError):
    """Scale-invariant parameterization hit its excluded locus h = 1, phi = pi."""


class GpiClass(enum.Enum):
    """The three interaction families, distinguished by (Re gamma, beta)."""

    DELTA = "delta"
    INTERMEDIATE = "intermediate"
    DELTA_PRIME = "delta-prime"


@dataclass(frozen=True)
class GpiParams:
    """Interaction data (alpha, beta, gamma).

    alpha has dimension 1/length, beta has dimension length, gamma is
    dimensionless.  All three enter only through alpha, beta, Re gamma and
    |gamma|^2 in the pole condition, but Im gamma does change the unitary
    and transfer encodings.  Raises ValueError unless alpha beta + |gamma|^2
    is a finite double, which it is only when all three are finite.
    """

    alpha: float
    beta: float
    gamma: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))
        try:
            q = self.coupling_product
        except OverflowError:   # |gamma|^2 beyond the largest double
            q = math.inf
        if not math.isfinite(q):
            raise ValueError("interaction parameters must be finite, and so must "
                             f"alpha beta + |gamma|^2 = {q!r}")

    @property
    def coupling_product(self) -> float:
        """alpha beta + |gamma|^2, the combination steering separation."""
        return self.alpha * self.beta + abs(self.gamma) ** 2


@dataclass(frozen=True)
class UnitaryForm:
    """Boundary condition as (xi, u1, u2) with |u1|^2 + |u2|^2 = 1."""

    xi: float
    u1: complex
    u2: complex

    def __post_init__(self) -> None:
        if not (0.0 <= self.xi < math.pi):
            raise ValueError(f"xi must lie in [0, pi), got {self.xi!r}")
        norm = abs(self.u1) ** 2 + abs(self.u2) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"|u1|^2 + |u2|^2 = {norm!r} violates unitarity")

    def matrix(self) -> np.ndarray:
        """The 2x2 unitary U = e^{i xi} [[u1, u2], [-conj(u2), conj(u1)]]."""
        phase = cmath.exp(1j * self.xi)
        return phase * np.array(
            [[self.u1, self.u2], [-self.u2.conjugate(), self.u1.conjugate()]]
        )


@dataclass(frozen=True)
class TransferForm:
    """Boundary condition as Lambda = e^{i chi} [[a, b], [c, d]], ad - bc = 1.

    ad - bc must lie within 1e-12 max(1, a^2 + b^2 + c^2 + d^2) of 1.
    """

    chi: float
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.chi < math.pi):
            raise ValueError(f"chi must lie in [0, pi), got {self.chi!r}")
        det = self.a * self.d - self.b * self.c
        # ad and bc round at the size of the squared entries, which grow near the separated locus
        if abs(det - 1.0) > _NORM_TOL * max(1.0, self.a ** 2 + self.b ** 2 + self.c ** 2
                                            + self.d ** 2):
            raise ValueError(f"ad - bc = {det!r} violates unimodularity")

    def matrix(self) -> np.ndarray:
        return cmath.exp(1j * self.chi) * np.array(
            [[self.a, self.b], [self.c, self.d]], dtype=complex
        )


@dataclass(frozen=True)
class BoundaryData:
    """Function values and one-sided radial derivatives at r = R.

    Carries (f(R+), f(R-), f'(R+), f'(R-)) with plain (not sign-flipped)
    derivatives; every residual below applies its own convention internally.
    Used only to probe boundary conditions.
    """

    f_plus: complex
    f_minus: complex
    fp_plus: complex
    fp_minus: complex


def classify(p: GpiParams) -> GpiClass:
    """Assign the interaction family from (Re gamma, beta).

    Comparisons against zero are exact on the stored values; inputs carrying
    roundoff should be cleaned upstream.
    """
    if p.beta != 0.0:
        return GpiClass.DELTA_PRIME
    if p.gamma.real != 0.0:
        return GpiClass.INTERMEDIATE
    return GpiClass.DELTA


def is_separated(p: GpiParams) -> bool:
    """True iff alpha beta + |gamma|^2 = 4 and Im gamma = 0, within 1e-12.

    On this locus u2 vanishes, inside and outside decouple, and embedded
    eigenvalues appear on the positive real momentum axis.
    """
    return (abs(p.coupling_product - 4.0) <= _SEPARATION_TOL
            and abs(p.gamma.imag) <= _SEPARATION_TOL)


def to_unitary(p: GpiParams) -> UnitaryForm:
    """Convert (alpha, beta, gamma) to the unitary form (xi, u1, u2).

    With q = alpha beta + |gamma|^2 and D the normalizing square root,

        D  = sqrt(q^2 + 4 alpha^2 + 4 beta^2 + 8 |gamma|^2 + 16)
        u1 = sigma (-2 (alpha + beta) + 4 i Re gamma) / D
        u2 = sigma (4 Im gamma + i (q - 4)) / D
        tan xi = (q + 4) / (2 (alpha - beta)),   xi in [0, pi),

    where sigma = sign(q + 4) (with sign(alpha - beta) breaking the tie at
    q + 4 = 0) selects the branch on which e^{i xi} has nonnegative
    imaginary part.  This is the unique triple whose matrix reproduces the
    coupling: the identity D^2 = 4 (alpha - beta)^2 + (q + 4)^2 makes
    e^{i xi} = sigma (2 (alpha - beta) + i (q + 4)) / D exactly unimodular,
    and |u1|^2 + |u2|^2 = 1 holds identically.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    q = p.coupling_product
    dd = q * q + 4 * a * a + 4 * b * b + 8 * abs(g) ** 2 + 16
    d = math.sqrt(dd)
    sigma = 1.0 if (q + 4 > 0 or (q + 4 == 0 and a - b > 0)) else -1.0
    u1 = sigma * complex(-2 * (a + b), 4 * g.real) / d
    u2 = sigma * complex(4 * g.imag, q - 4) / d
    xi = math.atan2(sigma * (q + 4), sigma * 2 * (a - b))
    if xi == -0.0 or xi >= math.pi:
        xi = 0.0
    return UnitaryForm(xi, u1, u2)


def to_transfer(p: GpiParams) -> TransferForm:
    """Convert to the transfer form (chi, a, b, c, d), chi in [0, pi).

    The transfer matrix is -P / (q - 4 + 4 i Im gamma) with the real
    P = [[q + 4 - 4 Re gamma, 4 beta], [4 alpha, q + 4 + 4 Re gamma]].
    The unimodular phase e^{i chi} is factored out of it; the leftover sign
    of the phase reduction is absorbed into the real entries, so the free
    interaction comes out as chi = 0 with the identity matrix.  Raises
    SeparatedInteraction exactly when ``is_separated(p)``.
    """
    if is_separated(p):
        raise SeparatedInteraction(
            "transfer matrix does not exist: inside and outside decouple"
        )
    q = p.coupling_product
    den = complex(q - 4, 4 * p.gamma.imag)
    scale = 1.0 / abs(den)          # |Lambda entries| / |P entries|
    phi = cmath.phase(-1.0 / den)   # overall phase of Lambda, in (-pi, pi]
    sign = 1.0
    chi = phi
    if chi < 0.0:
        chi += math.pi
        sign = -1.0
    if chi >= math.pi:
        chi -= math.pi
        sign = -sign
    if chi == -0.0:
        chi = 0.0
    m = sign * scale
    a = m * (q + 4 - 4 * p.gamma.real)
    b = m * 4 * p.beta
    c = m * 4 * p.alpha
    d = m * (q + 4 + 4 * p.gamma.real)
    return TransferForm(chi, a, b, c, d)


def classify_unitary(u: UnitaryForm) -> GpiClass:
    """Classify from the U matrix alone.

    delta and intermediate interactions are exactly those with
    det(U + I) = 0 (so -1 is an eigenvalue of U); among them the delta
    family is invariant under conjugation by the first Pauli matrix,
    sigma1 U^T sigma1 = U.  Matrix criteria carry rounding, hence _MATRIX_TOL.
    """
    mat = u.matrix()
    det_u_plus_i = np.linalg.det(mat + np.eye(2))
    if abs(det_u_plus_i) > _MATRIX_TOL:
        return GpiClass.DELTA_PRIME
    sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = sigma1 @ mat.T @ sigma1
    if np.abs(swapped - mat).max() <= _MATRIX_TOL:
        return GpiClass.DELTA
    return GpiClass.INTERMEDIATE


def canonical_real_gamma(p: GpiParams) -> GpiParams:
    """A unitarily equivalent interaction with Im gamma = 0.

    Multiplying the wavefunction by a constant phase inside the sphere
    rotates the overall phase of the transfer matrix while keeping its real
    part fixed; every equivalence class therefore contains a representative
    with a real transfer matrix, i.e. with real gamma.  Algebraically the
    representative is a common rescaling (c alpha, c beta, c Re gamma):
    the pure delta family with Im gamma != 0 reduces to
    alpha' = 4 alpha / ((Im gamma)^2 + 4).

    The modulus |u2| is an invariant of the equivalence and is preserved
    exactly.
    """
    if p.gamma.imag == 0.0:
        return p
    q = p.coupling_product
    den = complex(q - 4, 4 * p.gamma.imag)  # never 0 here since Im gamma != 0
    w = 1.0 / abs(den)
    for s in (1.0, -1.0):
        trace = s * w * 2 * (q + 4)
        if abs(trace + 2.0) > 1e-9:
            c = s * w * 16.0 / (trace + 2.0)
            return GpiParams(c * p.alpha, c * p.beta, c * p.gamma.real)
    raise WinterresError("no real-transfer representative found")  # unreachable


def from_scale_invariant(h: float, phi: float) -> GpiParams:
    """Interaction for the scale-invariant two-parameter subfamily.

    gamma = (h - 1/h + 2 i sin phi) / (h + 1/h + 2 cos phi) with
    alpha = beta = 0; h > 0.  Free quantum motion on a regular metric tree
    with branching number N is the case phi = 0, h = sqrt(N).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"h must be positive, got {h!r}")
    den = h + 1.0 / h + 2.0 * math.cos(phi)
    if abs(den) < 1e-12:
        raise DegenerateDenominator("h + 1/h + 2 cos phi = 0 (h = 1, phi = pi)")
    gamma = complex(h - 1.0 / h, 2.0 * math.sin(phi)) / den
    return GpiParams(0.0, 0.0, gamma)


def boundary_residual(form: UnitaryForm | TransferForm | GpiParams,
                      data: BoundaryData) -> float:
    """Norm of the boundary-condition defect of ``data`` under ``form``.

    Zero exactly when the data satisfies the respective condition; used as
    the conversion-consistency oracle between the three encodings.
    """
    fp, fm = data.f_plus, data.f_minus
    dp, dm = data.fp_plus, data.fp_minus
    if isinstance(form, GpiParams):
        a, b, g = form.alpha, form.beta, form.gamma
        r1 = (dp - dm) - 0.5 * a * (fp + fm) - 0.5 * g * (dp + dm)
        r2 = (fp - fm) + 0.5 * g.conjugate() * (fp + fm) - 0.5 * b * (dp + dm)
        return math.hypot(abs(r1), abs(r2))
    if isinstance(form, UnitaryForm):
        mat = form.matrix()
        fvec = np.array([fp, fm])
        dvec = np.array([dp, -dm])  # outward convention on the interior side
        res = (mat - np.eye(2)) @ fvec + 1j * (mat + np.eye(2)) @ dvec
        return float(np.linalg.norm(res))
    if isinstance(form, TransferForm):
        res = np.array([fp, dp]) - form.matrix() @ np.array([fm, dm])
        return float(np.linalg.norm(res))
    raise TypeError(f"unsupported boundary form {type(form).__name__}")
