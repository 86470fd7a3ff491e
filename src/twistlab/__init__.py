"""twistlab: exact-symbolic and high-precision laboratory for linear twists
of degree-2 L-functions.

The package verifies, at desk scale against the square of the Riemann zeta
function, the polynomial apparatus and the twist transformation formula for
degree-2 functional equations: expansion-coefficient identities, structure
laws of the transformation polynomials, additive/multiplicative twist
conversions, Laurent-coefficient laws at s = 1, Euler-factor reconstruction,
and left-half-plane growth certificates.
"""

import importlib

from .exactpoly import GaussianRational, Polynomial
from .bernoulli import bernoulli_number, bernoulli_polynomial
from .euler import LocalFactor, degree_bound, solve_local_factor
from .funceq import FunctionalEquationDatum, GammaFactor, QParam, factor, load_datum, zeta2_datum

#: The analytic layer's exports, by module.  They load, and mpmath with them,
#: on first use (PEP 562), so the exact layer imports without mpmath.
_ANALYTIC = {
    "special": ("DirichletCharacter", "PoleError", "characters_mod", "dirichlet_l", "gauss_sum",
                "hurwitz_zeta"),
    "twist": ("DivisorStream", "divisor_stream", "twist_direct", "zeta2_twist_oracle"),
    "transform": ("LaurentExpansion", "growth_certificate", "laurent_extract",
                  "transformation_main_term"),
}


def __getattr__(name):
    for module, names in _ANALYTIC.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "GaussianRational", "Polynomial", "bernoulli_number", "bernoulli_polynomial",
    "FunctionalEquationDatum", "GammaFactor", "QParam", "factor", "load_datum", "zeta2_datum",
    "LocalFactor", "degree_bound", "solve_local_factor",
    *(name for names in _ANALYTIC.values() for name in names),
    "__version__",
]
