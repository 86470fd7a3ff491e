"""Functional-equation data for Dirichlet series and the invariants derived
from it: degree, conductor, xi-invariant, H-invariants, shifted root number
and the lambda-invariant.

The reference instance is the square of the Riemann zeta function
(r = 2, lambda_j = 1/2, mu_j = 0, Q = pi^-1, omega = 1, double pole at s = 1),
the unique known degree-2, conductor-1 example with a pole.

A datum is immutable after construction and safe to share across workers.
Every lambda_j is rational, every mu_j and omega Gaussian-rational, and the
invariants are exact.  Two values can be transcendental: the conductor when
the powers of pi or the lambda_j^(2 lambda_j) do not cancel, and the shifted
root number when theta != 0 or some mu_j is not real.  Those are computed at
the ambient mpmath precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp

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


@dataclass(frozen=True)
class QParam:
    """The scale parameter Q, kept symbolic as coef * pi^pi_exp."""

    coef: Fraction
    pi_exp: Fraction = Fraction(0)

    def __post_init__(self):
        if self.coef <= 0:
            raise DatumError("Q must be positive")

    @classmethod
    def parse(cls, text: str) -> "QParam":
        text = str(text).strip()
        if text.startswith("pi^"):
            return cls(Fraction(1), as_fraction(text[3:]))
        if text == "pi":
            return cls(Fraction(1), Fraction(1))
        return cls(as_fraction(text), Fraction(0))

    def to_mpf(self) -> mp.mpf:
        v = mp.mpmathify(self.coef)
        if self.pi_exp:
            v = v * mp.pi ** mp.mpmathify(self.pi_exp)
        return v

    def __str__(self):
        if self.pi_exp:
            base = f"pi^{self.pi_exp}"
            return base if self.coef == 1 else f"{self.coef}*{base}"
        return str(self.coef)


@dataclass(frozen=True)
class GammaFactor:
    """One Gamma(lambda*s + mu) factor; lambda > 0 and Re(mu) >= 0."""

    lam: Fraction
    mu: GaussianRational

    def __post_init__(self):
        if not isinstance(self.lam, Fraction):
            raise DatumError(f"lambda must be a Fraction, got {self.lam!r}")
        if not isinstance(self.mu, GaussianRational):
            raise DatumError(f"mu must be a GaussianRational, got {self.mu!r}")
        if self.lam <= 0:
            raise DatumError("lambda must be positive")
        if self.mu.re < 0:
            raise DatumError("Re(mu) must be nonnegative")


def factor(lam, mu=0) -> GammaFactor:
    """Convenience constructor accepting ints/strings for both fields."""
    if isinstance(mu, str):
        mu = _parse_complex(mu)
    elif isinstance(mu, (int, Fraction)):
        mu = GaussianRational(mu, 0)
    if isinstance(lam, (int, str)):
        lam = as_fraction(lam)
    return GammaFactor(lam, mu)


@dataclass(frozen=True)
class FunctionalEquationDatum:
    """The tuple (Q, omega, {(lambda_j, mu_j)}) plus the known pole order."""

    q_param: QParam
    omega: GaussianRational
    factors: tuple[GammaFactor, ...]
    pole_order: int = 0
    label: str = ""

    def __post_init__(self):
        if type(self.pole_order) is not int or self.pole_order < 0:
            raise DatumError(f"pole_order must be a nonnegative integer, got {self.pole_order!r}")
        object.__setattr__(self, "factors", tuple(self.factors))
        if not isinstance(self.omega, GaussianRational):
            raise DatumError(f"omega must be a GaussianRational, got {self.omega!r}")
        if self.omega.norm() != 1:
            raise DatumError("|omega| must equal 1")

    @property
    def r(self) -> int:
        return len(self.factors)

    # -- invariants ----------------------------------------------------------

    def degree(self) -> Fraction:
        """2 * sum of the lambda_j."""
        return 2 * sum((f.lam for f in self.factors), start=Fraction(0))

    def conductor(self):
        """(2 pi)^degree * Q^2 * prod lambda_j^(2 lambda_j).

        Returns an exact Fraction when the pi-powers cancel and every
        2*lambda_j is an integer; otherwise an mpf at the ambient precision.
        """
        d = self.degree()
        if (
            d.denominator == 1
            and d + 2 * self.q_param.pi_exp == 0
            and all((2 * f.lam).denominator == 1 for f in self.factors)
        ):
            value = Fraction(2) ** int(d) * self.q_param.coef**2
            for f in self.factors:
                value *= f.lam ** int(2 * f.lam)
            return value
        v = (2 * mp.pi) ** mp.mpmathify(d) * self.q_param.to_mpf() ** 2
        for f in self.factors:
            lam = mp.mpmathify(f.lam)
            v *= lam ** (2 * lam)
        return v

    def xi_invariant(self) -> GaussianRational:
        """2 * sum (mu_j - 1/2); real part eta, imaginary part theta."""
        total = GaussianRational(0, 0)
        for f in self.factors:
            total = total + (f.mu - Fraction(1, 2))
        return 2 * total

    @property
    def eta(self) -> Fraction:
        return self.xi_invariant().re

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

    def root_number_star(self):
        """omega * exp(-i pi (eta+1)/2) * (q/(2 pi)^2)^(i theta/2)
        * prod lambda_j^(-2 i Im mu_j); requires degree 2.

        Principal branches are used for the two non-elementary powers; they
        only matter when theta != 0 or some mu_j is non-real, and then the
        value is an mpc at the ambient precision.
        """
        if self.degree() != 2:
            raise DatumError("shifted root number needs a degree-2 datum")
        xi = self.xi_invariant()
        eta, theta = xi.re, xi.im
        if theta == 0 and all(f.mu.im == 0 for f in self.factors) and (eta + 1).denominator == 1:
            # exp(-i pi (eta+1)/2) = (-i)^(eta+1)
            return self.omega * GaussianRational(0, -1) ** (int(eta + 1) % 4)
        value = self.omega.to_mpc() * mp.exp(-1j * mp.pi * (mp.mpmathify(eta) + 1) / 2)
        if theta != 0:
            q_f = mp.mpmathify(self.conductor())
            value *= mp.exp(1j * (mp.mpmathify(theta) / 2) * mp.log(q_f / (2 * mp.pi) ** 2))
        for f in self.factors:
            if f.mu.im != 0:
                value *= mp.exp(-2j * mp.mpmathify(f.mu.im) * mp.log(mp.mpmathify(f.lam)))
        return value

    def lambda_invariant(self):
        """-i * root_number_star; equals 1 for the zeta^2 datum."""
        w = self.root_number_star()
        if isinstance(w, GaussianRational):
            return GaussianRational(0, -1) * w
        return -1j * w


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
