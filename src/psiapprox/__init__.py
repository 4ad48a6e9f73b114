"""Tapered trigonometric approximation of smooth periodic functions.

The package is organized around a decreasing coefficient profile psi:

  psi_core    profiles, halving points eta, gap/ratio characteristics
  series      dense trigonometric polynomials with exact FFT sampling
  kernels     residual kernels of the tapered partial sum, tail control
  approx_ops  the taper multiplier, synthesis, norms, duality extremals
  bounds      bracket constants, threshold formulas, certified reports
  cli         deterministic command-line front end
"""

from .errors import (CapabilityError, DegenerateGapError, DomainError,
                     InvalidPsiError, NumericError, PsiApproxError)
from .psi_core import (CharacteristicProfile, Lemma2Margins, MembershipReport,
                       PsiFunction, characteristics, eta_derivative,
                       eval_psi, eval_psi_prime, finite_difference_psi_prime,
                       guarded_eta_floor, lemma2_margins, membership_probe,
                       psi_inverse, validate_psi_samples)
from .series import FourierSeries
from .kernels import (EnvelopeReport, KernelEvaluator, TailBoundReport,
                      certified_tail_sum, dirichlet, envelope_check,
                      lemma1_check, tail_sum_bound_check, truncation_index)
from .approx_ops import (ExtremalFunction, NormValue, QuadratureSpec,
                         TaperCoefficients, apply_vn, duality_extremal_phi,
                         kernel_norm, lp_norm, residual_consistency, sup_norm,
                         synthesize_class_function, taper_coefficients)
from .bounds import (AsympRow, AsympScan, BoundReport,
                     ExpPowerCharacteristics, asymp_scan, cab_p_crossover,
                     conjugate_exponent, const_Ca, const_Cab, const_Cab_p,
                     const_Cab_star, exp_power_characteristics,
                     exp_power_thresholds, verify_sweep, verify_theorem1,
                     verify_theorem2)

__version__ = "0.1.0"

__all__ = [
    "PsiApproxError", "DomainError", "DegenerateGapError", "CapabilityError",
    "NumericError", "InvalidPsiError",
    "PsiFunction", "CharacteristicProfile", "Lemma2Margins",
    "MembershipReport", "characteristics", "eta_derivative", "eval_psi",
    "eval_psi_prime", "finite_difference_psi_prime", "guarded_eta_floor",
    "lemma2_margins", "membership_probe", "psi_inverse",
    "validate_psi_samples",
    "FourierSeries",
    "KernelEvaluator", "EnvelopeReport", "TailBoundReport", "dirichlet",
    "truncation_index", "certified_tail_sum",
    "lemma1_check", "envelope_check", "tail_sum_bound_check",
    "TaperCoefficients", "QuadratureSpec", "NormValue", "ExtremalFunction",
    "taper_coefficients", "apply_vn",
    "synthesize_class_function", "residual_consistency", "lp_norm",
    "sup_norm", "kernel_norm", "duality_extremal_phi",
    "BoundReport", "AsympRow", "AsympScan", "ExpPowerCharacteristics",
    "conjugate_exponent", "const_Ca", "const_Cab", "const_Cab_p",
    "const_Cab_star", "cab_p_crossover", "exp_power_thresholds",
    "exp_power_characteristics", "verify_theorem1", "verify_theorem2",
    "verify_sweep", "asymp_scan", "__version__",
]
