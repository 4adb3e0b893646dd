"""chernlab: exact computer algebra for Hilbert-Samuel functions and Chern
numbers of parameter ideals in quotients by intersections of Cohen-Macaulay
ideals, over prime fields."""

import importlib.util
import sys

_HOME = {name: module for module, names in {
    "core": "DEGREE_LIMIT POWER_PRODUCT_LIMIT PRIME_LIMIT ContextMismatchError "
            "HypothesisError ParseError Polynomial RingContext binomial "
            "is_prime parse_polynomial",
    "graded": "annihilates diagonal_cokernel gr_series power_colength",
    "groebner": "GroebnerBasis buchberger normal_form s_polynomial "
                "standard_monomials",
    "hilbert": "FitInstabilityError chern_sign fit_coefficients "
               "hilbert_polynomial_value hilbert_samuel "
               "hilbert_samuel_values multiplicity rees_series tangent_cone",
    "ideals": "HilbertSeries Ideal NotFiniteLengthError ideal_intersect "
              "ideal_power ideal_product ideal_sum krull_dimension "
              "monomial_hilbert_series quotient_hilbert_series "
              "quotient_length",
    "instance": "ProblemInstance check_hypotheses",
    "resolutions": "en_betti tor1_via_lengths",
    "verifier": "e0_additivity_check negativity_check run_verification "
                "tor1_consistency_check torsion_series "
                "verify_coefficient_collapse verify_torsion_polynomial",
}.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: import a name's module on first use
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


# Only some subcommands use these: each sits in sys.modules at once, where
# code may look it up, but is compiled and run when an attribute is read.
for _name in ("graded", "resolutions", "verifier"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
