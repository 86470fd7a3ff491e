"""twistlab: exact-symbolic and high-precision laboratory for linear twists
of degree-2 L-functions.

The package verifies, at desk scale against the square of the Riemann zeta
function, the polynomial apparatus and the twist transformation formula for
degree-2 functional equations: expansion-coefficient identities, structure
laws of the transformation polynomials, additive/multiplicative twist
conversions, Laurent-coefficient laws at s = 1, Euler-factor reconstruction,
and left-half-plane growth certificates.
"""

from .exactpoly import GaussianRational, Polynomial
from .bernoulli import bernoulli_number, bernoulli_polynomial
from .funceq import (
    FunctionalEquationDatum,
    GammaFactor,
    QParam,
    factor,
    load_datum,
    zeta2_datum,
)
from .special import (
    DirichletCharacter,
    PoleError,
    characters_mod,
    dirichlet_l,
    gauss_sum,
    hurwitz_zeta,
)
from .twist import (
    DivisorStream,
    divisor_stream,
    twist_direct,
    zeta2_twist_oracle,
)
from .transform import (
    LaurentExpansion,
    LocalFactor,
    degree_bound,
    growth_certificate,
    laurent_extract,
    solve_local_factor,
    transformation_main_term,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "Polynomial",
    "bernoulli_number",
    "bernoulli_polynomial",
    "FunctionalEquationDatum",
    "GammaFactor",
    "QParam",
    "factor",
    "load_datum",
    "zeta2_datum",
    "DirichletCharacter",
    "PoleError",
    "characters_mod",
    "dirichlet_l",
    "gauss_sum",
    "hurwitz_zeta",
    "DivisorStream",
    "divisor_stream",
    "twist_direct",
    "zeta2_twist_oracle",
    "LaurentExpansion",
    "LocalFactor",
    "degree_bound",
    "growth_certificate",
    "laurent_extract",
    "solve_local_factor",
    "transformation_main_term",
    "__version__",
]
