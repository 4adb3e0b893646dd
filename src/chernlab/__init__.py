"""chernlab: exact computer algebra for Hilbert-Samuel functions and Chern
numbers of parameter ideals in quotients by intersections of Cohen-Macaulay
ideals, over prime fields."""

from .core import (PRIME_LIMIT, ContextMismatchError, ParseError, Polynomial,
                   RingContext, binomial, is_prime, parse_polynomial)
from .graded import (CokernelModule, annihilates, diagonal_cokernel,
                     power_colength, power_colengths)
from .groebner import (GroebnerBasis, buchberger, normal_form, s_polynomial,
                       standard_monomials)
from .hilbert import (CmResult, FitInstabilityError, HilbertDataset,
                      InconsistentDataError, chern_sign, cm_test,
                      fit_coefficients, hilbert_polynomial_value,
                      hilbert_samuel, hilbert_samuel_values, tangent_cone)
from .ideals import (HilbertSeries, Ideal, NotFiniteLengthError, ideal_intersect,
                     ideal_power, ideal_product, ideal_sum, intersect_all,
                     is_mprimary, krull_dimension, monomial_hilbert_series,
                     quotient_hilbert_series, quotient_length)
from .resolutions import (ENResolutionData, KoszulData, en_betti, en_matrix,
                          koszul_complex, koszul_composes_to_zero,
                          maximal_minors, tor1_closed_form, tor1_via_lengths)
from .verifier import (ProblemInstance, check_hypotheses, e0_additivity_check,
                       negativity_check, run_verification,
                       tor1_consistency_check, verify_coefficient_collapse,
                       verify_torsion_polynomial)

__version__ = "0.1.0"
