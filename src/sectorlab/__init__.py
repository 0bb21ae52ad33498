"""Zero-sector reducing operators on real polynomials, at desk scale.

The package measures how diagonal coefficient multipliers and rotation
blends move polynomial zeros between sectors, discs and strips: a root
solver with multiplicity certificates, sector-disc geometry, the classical
multiplier families, ratio-profile diagnostics, and seeded verification
campaigns with replayable counterexample certificates.
"""

from .analysis import (Counterexample, PolyGenSpec, RnProfile,
                       VerificationReport, double_sector_demo,
                       draw_sector_spec, jsd_bracket,
                       jsd_modulus_identity_check,
                       rn_profile, search_counterexample, THEOREM_IDS,
                       three_term_transformed_roots, verify_theorem)
from .errors import (DegenerateLeadingError, DegenerateSequenceError,
                     DegreeZeroError, DomainError, EmptyDiscError,
                     HypothesisViolationError, InputError,
                     InvalidRootSpecError, NonConvergenceError,
                     NonpositiveRootPartError, NotInRightHalfPlaneError,
                     OffAxisError, SectorLabError, SignFlipError,
                     ZeroInteriorTermError, ZeroPolynomialError,
                     ZeroPolynomialResultError)
from .geometry import (Sector, SectorDisc, TangencyData,
                       disc_tangency_data, in_disc, in_double_sector,
                       in_sector, jensen_sector_disc,
                       min_enclosing_double_sector, min_enclosing_sector,
                       min_enclosing_strip, principal_arg, reference_angle)
from .operators import (BlendParams, CosineAffineSequence, CosineStepSequence,
                        ExplicitSequence, ExpPowerSequence, GaussSequence,
                        LaguerreQSequence, MultiplierSequence, apply_sequence,
                        apply_sequence_many, bc_strip_bound, cosine_affine_transform,
                        cosine_power_limit, exp_poly_principal_zeros,
                        parse_sequence_spec, predicted_sector,
                        predicted_sector_after_cosine_step,
                        predicted_sector_after_gauss,
                        predicted_strip_after_gauss, rotation_blend)
from .poly import (ComplexPolynomial, RealPolynomial, SectorRootSpec,
                   from_document, from_sector_roots, from_sector_roots_many,
                   to_document)
from .roots import (SolverConfig, ZeroEntry, ZeroSet, deflate_origin,
                    find_roots, find_roots_many)

__version__ = "0.1.0"

__all__ = [
    "BlendParams", "ComplexPolynomial", "CosineAffineSequence",
    "CosineStepSequence", "Counterexample", "DegenerateLeadingError",
    "DegenerateSequenceError", "DegreeZeroError", "DomainError",
    "EmptyDiscError", "ExplicitSequence", "ExpPowerSequence", "GaussSequence",
    "HypothesisViolationError", "InputError", "InvalidRootSpecError",
    "LaguerreQSequence", "MultiplierSequence", "NonConvergenceError",
    "NonpositiveRootPartError", "NotInRightHalfPlaneError", "OffAxisError",
    "PolyGenSpec", "RealPolynomial", "RnProfile", "Sector", "SectorDisc",
    "SectorLabError", "SectorRootSpec", "SignFlipError", "SolverConfig",
    "TangencyData", "THEOREM_IDS", "VerificationReport", "ZeroEntry",
    "ZeroInteriorTermError", "ZeroPolynomialError",
    "ZeroPolynomialResultError", "ZeroSet",
    "apply_sequence", "apply_sequence_many", "bc_strip_bound",
    "cosine_affine_transform", "cosine_power_limit", "deflate_origin",
    "disc_tangency_data", "double_sector_demo", "draw_sector_spec",
    "exp_poly_principal_zeros", "find_roots", "find_roots_many",
    "from_document",
    "from_sector_roots", "from_sector_roots_many", "in_disc", "in_double_sector", "in_sector",
    "jensen_sector_disc", "jsd_bracket", "jsd_modulus_identity_check",
    "min_enclosing_double_sector", "min_enclosing_sector",
    "min_enclosing_strip", "parse_sequence_spec",
    "predicted_sector", "predicted_sector_after_cosine_step",
    "predicted_sector_after_gauss",
    "predicted_strip_after_gauss", "principal_arg", "reference_angle",
    "rn_profile", "rotation_blend",
    "search_counterexample", "three_term_transformed_roots", "to_document",
    "verify_theorem",
]
