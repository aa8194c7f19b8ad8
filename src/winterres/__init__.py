"""Resonances of a quantum particle coupled to a sphere by a point interaction.

The library computes the poles of the resolvent for the four-parameter
family of spherical generalized point interactions: classification of the
coupling, the Krein-type denominator whose zeros are the resonances, an
exhaustive fourth-quadrant pole search, and closed-form high-energy
predictors for each interaction class.
"""

from .asymptotics import (AmbiguousIndex, AsymptoticPrediction, Resonance,
                          ZeroCoupling, compare, index_poles, predict)
from .errors import WinterresError
from .gpi import (BoundaryData, DegenerateDenominator, GpiClass, GpiParams,
                  SeparatedInteraction, TransferForm, UnitaryForm,
                  boundary_residual, canonical_real_gamma, classify,
                  classify_unitary, from_scale_invariant, is_separated,
                  to_transfer, to_unitary)
from .krein import (PhiBoundaryValues, det_lambda, det_lambda_balanced,
                    phi_boundary, real_axis_roots)
from .polefinder import (BoundaryZero, ClusteredZeros, NonConvergence,
                         SearchRegion, count_zeros, default_im_min, find_poles,
                         refine)
from .report import RunConfig, parse_complex, write_csv, write_pole_svg
from .riccati import (Channel, OriginSingularity, ValueAndDerivative,
                      riccati_s, riccati_xi)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousIndex", "AsymptoticPrediction", "BoundaryData", "BoundaryZero",
    "Channel", "ClusteredZeros", "DegenerateDenominator", "GpiClass",
    "GpiParams", "NonConvergence", "OriginSingularity",
    "PhiBoundaryValues", "Resonance", "RunConfig", "SearchRegion",
    "SeparatedInteraction", "TransferForm", "UnitaryForm",
    "ValueAndDerivative", "WinterresError", "ZeroCoupling",
    "boundary_residual", "canonical_real_gamma", "classify",
    "classify_unitary", "compare", "count_zeros", "default_im_min",
    "det_lambda", "det_lambda_balanced", "find_poles", "from_scale_invariant",
    "index_poles", "is_separated", "parse_complex", "phi_boundary", "predict",
    "real_axis_roots", "refine", "riccati_s", "riccati_xi", "to_transfer",
    "to_unitary", "write_csv", "write_pole_svg",
]
