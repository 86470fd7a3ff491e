"""Functional-equation data for Dirichlet series and the invariants derived
from it that the transformation polynomials read: degree, xi-invariant and
H-invariants.

The reference instance is the square of the Riemann zeta function
(r = 2, lambda_j = 1/2, mu_j = 0, Q = pi^-1, omega = 1, double pole at s = 1),
the unique known degree-2, conductor-1 example with a pole.

A datum is immutable after construction and safe to share across workers.
Every lambda_j is rational, every mu_j and omega Gaussian-rational, and the
invariants are exact: this module does no floating-point arithmetic.  The
transformation formula's main term is zeta(s)^2's (see ``transform``), so no
command reads a datum's conductor, shifted root number or lambda-invariant;
the tests compute them (``tests/paper_checks.py``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import bernoulli
from .exactpoly import GaussianRational, as_fraction


class DatumError(ValueError):
    """Invalid functional-equation data or an unsupported operation on it."""


def _parse_complex(text: str) -> GaussianRational:
    """Parse 're' or 're,im' with rational or decimal parts."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) == 1:
        return GaussianRational(as_fraction(parts[0]), 0)
    if len(parts) == 2:
        return GaussianRational(as_fraction(parts[0]), as_fraction(parts[1]))
    raise DatumError(f"cannot parse complex value {text!r}")


class QParam(namedtuple("QParam", "coef pi_exp")):
    """The scale parameter Q, kept symbolic as coef * pi^pi_exp."""

    __slots__ = ()

    def __new__(cls, coef, pi_exp=Fraction(0)):
        if coef <= 0:
            raise DatumError("Q must be positive")
        return super().__new__(cls, coef, pi_exp)

    @classmethod
    def parse(cls, text: str) -> "QParam":
        text = str(text).strip()
        if text.startswith("pi^"):
            return cls(Fraction(1), as_fraction(text[3:]))
        if text == "pi":
            return cls(Fraction(1), Fraction(1))
        return cls(as_fraction(text), Fraction(0))


class GammaFactor(namedtuple("GammaFactor", "lam mu")):
    """One Gamma(lambda*s + mu) factor; lambda > 0 and Re(mu) >= 0."""

    __slots__ = ()

    def __new__(cls, lam, mu):
        if not isinstance(lam, Fraction):
            raise DatumError(f"lambda must be a Fraction, got {lam!r}")
        if not isinstance(mu, GaussianRational):
            raise DatumError(f"mu must be a GaussianRational, got {mu!r}")
        if lam <= 0:
            raise DatumError("lambda must be positive")
        if mu.re < 0:
            raise DatumError("Re(mu) must be nonnegative")
        return super().__new__(cls, lam, mu)


def factor(lam, mu=0) -> GammaFactor:
    """Convenience constructor accepting ints/strings for both fields."""
    if isinstance(mu, str):
        mu = _parse_complex(mu)
    elif isinstance(mu, (int, Fraction)):
        mu = GaussianRational(mu, 0)
    if isinstance(lam, (int, str)):
        lam = as_fraction(lam)
    return GammaFactor(lam, mu)


class FunctionalEquationDatum(namedtuple("FunctionalEquationDatum",
                                         "q_param omega factors pole_order label")):
    """The tuple (Q, omega, {(lambda_j, mu_j)}) plus the known pole order."""

    def __new__(cls, q_param, omega, factors, pole_order=0, label=""):
        if type(pole_order) is not int or pole_order < 0:
            raise DatumError(f"pole_order must be a nonnegative integer, got {pole_order!r}")
        factors = tuple(factors)
        if not isinstance(omega, GaussianRational):
            raise DatumError(f"omega must be a GaussianRational, got {omega!r}")
        if omega.norm() != 1:
            raise DatumError("|omega| must equal 1")
        return super().__new__(cls, q_param, omega, factors, pole_order, label)

    _hash = cached_property(tuple.__hash__)  # once: the exact layer's lru_caches key on a datum

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value=None):  # frozen: no field, nor the hash, changes
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # rebuilt from its fields: a str's hash is salted per process
        return type(self), tuple(self)

    # -- invariants ----------------------------------------------------------

    def degree(self) -> Fraction:
        """2 * sum of the lambda_j."""
        return 2 * sum((f.lam for f in self.factors), start=Fraction(0))

    def xi_invariant(self) -> GaussianRational:
        """2 * sum (mu_j - 1/2); real part eta, imaginary part theta."""
        total = GaussianRational(0, 0)
        for f in self.factors:
            total = total + (f.mu - Fraction(1, 2))
        return 2 * total

    @property
    def theta(self) -> Fraction:
        return self.xi_invariant().im

    def h_invariant(self, n: int) -> GaussianRational:
        """2 * sum B_n(mu_j) / lambda_j^(n-1); H(0) is the degree, H(1) = xi."""
        if n < 0:
            raise DatumError("H-invariant index must be nonnegative")
        poly = bernoulli.bernoulli_polynomial(n)
        total = GaussianRational(0, 0)
        for f in self.factors:
            total = total + poly(f.mu) / f.lam ** (n - 1)
        return 2 * total


def zeta2_datum() -> FunctionalEquationDatum:
    """The datum of zeta(s)^2: r=2, lambda=1/2, mu=0, Q=pi^-1, omega=1, m=2."""
    return FunctionalEquationDatum(
        q_param=QParam(Fraction(1), Fraction(-1)),
        omega=GaussianRational(1, 0),
        factors=(factor(Fraction(1, 2)), factor(Fraction(1, 2))),
        pole_order=2,
        label="zeta2",
    )


BUILTIN_INSTANCES = {"zeta2": zeta2_datum}
DATUM_KEYS = ("Q", "omega", "factors", "pole_order", "label")
FACTOR_KEYS = ("lambda", "mu")


def _check_keys(entry: dict, known: tuple, where: str) -> None:
    unknown = [key for key in entry if key not in known]
    if unknown:
        raise DatumError(f"{where} has unknown keys {unknown}, known: {list(known)}")


def load_datum(source) -> FunctionalEquationDatum:
    """Build a datum from a dict, a JSON file path, or a builtin name.

    Keys: ``Q`` (decimal/rational string or ``pi^<rational>``), ``omega``
    ("re" or "re,im"), ``factors`` (list of {"lambda": str, "mu": str}),
    ``pole_order`` (a JSON integer) and ``label``; any other key, here or in a
    factor, is an error.
    """
    if isinstance(source, str) and source in BUILTIN_INSTANCES:
        return BUILTIN_INSTANCES[source]()
    if isinstance(source, (str, Path)):
        import json

        data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise DatumError(f"datum config malformed: expected a JSON object, got {data!r}")
    _check_keys(data, DATUM_KEYS, "datum config")
    try:
        for f in data["factors"]:
            if isinstance(f, dict):  # any other entry is malformed below
                _check_keys(f, FACTOR_KEYS, "datum config factor")
        factors = tuple(
            factor(as_fraction(f["lambda"]), _parse_complex(f.get("mu", "0")))
            for f in data["factors"]
        )
        return FunctionalEquationDatum(
            q_param=QParam.parse(data["Q"]),
            omega=_parse_complex(data.get("omega", "1")),
            factors=factors,
            pole_order=data.get("pole_order", 0),
            label=str(data.get("label", "")),
        )
    except KeyError as exc:
        raise DatumError(f"datum config missing field {exc}") from exc
    except (TypeError, ZeroDivisionError) as exc:  # a float lambda, a "1/0"
        raise DatumError(f"datum config malformed: {type(exc).__name__}: {exc}") from exc
