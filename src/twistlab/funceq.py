"""Functional-equation data for Dirichlet series and the invariants derived
from it: degree, conductor, xi-invariant, H-invariants, shifted root number
and the tau-invariant.

The reference instance is the square of the Riemann zeta function
(r = 2, lambda_j = 1/2, mu_j = 0, Q = pi^-1, omega = 1, double pole at s = 1),
the unique known degree-2, conductor-1 example with a pole.

A datum is immutable after construction and safe to share across workers.
Invariants are computed exactly whenever every lambda_j is rational and every
mu_j is Gaussian-rational; otherwise they fall back to mpmath arithmetic at
the datum's configured binary precision (default 256 bits).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from . import bernoulli
from .exactpoly import GaussianRational, as_fraction, scalar_is_exact, scalar_to_mpc

DEFAULT_DATUM_PRECISION = 256


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
    """The scale parameter Q, kept symbolic as coef * pi^pi_exp when possible.

    A purely numeric Q is stored with pi_exp = None and coef holding the
    literal value; conductor exactness is then unavailable.
    """

    coef: Fraction
    pi_exp: Fraction | None = Fraction(0)

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

    @property
    def is_symbolic(self) -> bool:
        return self.pi_exp is not None

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
        if not (scalar_is_exact(self.lam) or isinstance(self.lam, mp.mpf)):
            raise DatumError(f"unsupported lambda type: {self.lam!r}")
        if self.lam <= 0:
            raise DatumError("lambda must be positive")
        mu_re = self.mu.re if isinstance(self.mu, GaussianRational) else mp.re(self.mu)
        if mu_re < 0:
            raise DatumError("Re(mu) must be nonnegative")

    @property
    def is_exact(self) -> bool:
        return isinstance(self.lam, (int, Fraction)) and isinstance(
            self.mu, GaussianRational
        )

    @property
    def mu_im(self):
        return self.mu.im if isinstance(self.mu, GaussianRational) else mp.im(self.mu)


def factor(lam, mu=0) -> GammaFactor:
    """Convenience constructor accepting rationals/strings for both fields."""
    if not isinstance(mu, GaussianRational):
        mu = GaussianRational(mu, 0) if not isinstance(mu, str) else _parse_complex(mu)
    if not isinstance(lam, mp.mpf):
        lam = as_fraction(lam)
    return GammaFactor(lam, mu)


@dataclass(frozen=True)
class FunctionalEquationDatum:
    """The tuple (Q, omega, {(lambda_j, mu_j)}) plus the known pole order."""

    q_param: QParam
    omega: GaussianRational
    factors: tuple[GammaFactor, ...]
    pole_order: int = 0
    precision: int = DEFAULT_DATUM_PRECISION
    label: str = ""

    def __post_init__(self):
        if self.pole_order < 0:
            raise DatumError("pole order must be nonnegative")
        if self.precision < 53:
            raise DatumError("precision below double precision is not supported")
        object.__setattr__(self, "factors", tuple(self.factors))
        if isinstance(self.omega, GaussianRational):
            if self.omega.norm() != 1:
                raise DatumError("|omega| must equal 1")
        else:
            with mp.workprec(self.precision):
                if abs(abs(mp.mpc(self.omega)) - 1) > mp.mpf(2) ** (-self.precision // 2):
                    raise DatumError("|omega| must equal 1 to working precision")

    # -- exactness ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return (
            isinstance(self.omega, GaussianRational)
            and all(f.is_exact for f in self.factors)
        )

    @property
    def r(self) -> int:
        return len(self.factors)

    # -- invariants ----------------------------------------------------------

    def degree(self):
        """2 * sum of the lambda_j; exact when all lambda_j are rational."""
        total = sum((f.lam for f in self.factors), start=Fraction(0))
        return 2 * total

    def conductor(self):
        """(2 pi)^degree * Q^2 * prod lambda_j^(2 lambda_j).

        Returns an exact Fraction when the pi-powers cancel and every
        2*lambda_j is an integer; otherwise an mpf at the datum precision.
        """
        d = self.degree()
        exact_ok = (
            isinstance(d, Fraction)
            and d.denominator == 1
            and self.q_param.is_symbolic
            and d + 2 * self.q_param.pi_exp == 0
            and all(
                isinstance(f.lam, Fraction) and (2 * f.lam).denominator == 1
                for f in self.factors
            )
        )
        if exact_ok:
            value = Fraction(2) ** int(d) * self.q_param.coef**2
            for f in self.factors:
                value *= Fraction(f.lam) ** int(2 * f.lam)
            return value
        with mp.workprec(self.precision):
            v = (2 * mp.pi) ** mp.mpmathify(d) * self.q_param.to_mpf() ** 2
            for f in self.factors:
                lam = mp.mpmathify(f.lam)
                v *= lam ** (2 * lam)
            return v

    def xi_invariant(self):
        """2 * sum (mu_j - 1/2); real part eta, imaginary part theta."""
        if self.is_exact:
            total = GaussianRational(0, 0)
            for f in self.factors:
                total = total + (f.mu - Fraction(1, 2))
            return 2 * total
        with mp.workprec(self.precision):
            return 2 * mp.fsum(scalar_to_mpc(f.mu) - mp.mpf(1) / 2 for f in self.factors)

    @property
    def eta(self):
        xi = self.xi_invariant()
        return xi.re if isinstance(xi, GaussianRational) else mp.re(xi)

    @property
    def theta(self):
        xi = self.xi_invariant()
        return xi.im if isinstance(xi, GaussianRational) else mp.im(xi)

    def h_invariant(self, n: int):
        """2 * sum B_n(mu_j) / lambda_j^(n-1); H(0) is the degree, H(1) = xi."""
        if n < 0:
            raise DatumError("H-invariant index must be nonnegative")
        poly = bernoulli.bernoulli_polynomial(n)
        if self.is_exact:
            total = GaussianRational(0, 0)
            for f in self.factors:
                total = total + poly(f.mu) / Fraction(f.lam) ** (n - 1)
            return 2 * total
        with mp.workprec(self.precision):
            return 2 * mp.fsum(
                poly.eval_mpc(scalar_to_mpc(f.mu)) / mp.mpmathify(f.lam) ** (n - 1)
                for f in self.factors
            )

    def root_number_star(self):
        """omega * exp(-i pi (eta+1)/2) * (q/(2 pi)^2)^(i theta/2)
        * prod lambda_j^(-2 i Im mu_j); requires degree 2.

        Principal branches are used for the two non-elementary powers; they
        only matter when theta != 0 or some mu_j is non-real.
        """
        d = self.degree()
        if isinstance(d, Fraction):
            if d != 2:
                raise DatumError("shifted root number needs a degree-2 datum")
        elif abs(d - 2) > mp.mpf(2) ** (-40):
            raise DatumError("shifted root number needs a degree-2 datum")
        if self.is_exact:
            xi = self.xi_invariant()
            eta, theta = xi.re, xi.im
            if (
                theta == 0
                and all(f.mu_im == 0 for f in self.factors)
                and (eta + 1).denominator == 1
            ):
                # exp(-i pi (eta+1)/2) = (-i)^(eta+1)
                k = int(eta + 1) % 4
                unit = (GaussianRational(0, -1)) ** k
                return self.omega * unit
        with mp.workprec(self.precision):
            eta = mp.mpmathify(self.eta)
            theta = mp.mpmathify(self.theta)
            value = scalar_to_mpc(self.omega) * mp.exp(-1j * mp.pi * (eta + 1) / 2)
            q_f = mp.mpmathify(self.conductor())
            if theta != 0:
                value *= mp.exp(1j * (theta / 2) * mp.log(q_f / (2 * mp.pi) ** 2))
            for f in self.factors:
                mu_im = mp.mpmathify(f.mu_im)
                if mu_im != 0:
                    value *= mp.exp(-2j * mu_im * mp.log(mp.mpmathify(f.lam)))
            return value

    def lambda_invariant(self):
        """-i * root_number_star; equals 1 for the zeta^2 datum."""
        w = self.root_number_star()
        if isinstance(w, GaussianRational):
            return GaussianRational(0, -1) * w
        return -1j * w

    def tau_invariant(self):
        """max_j |Im(mu_j) / lambda_j|; rejects an empty factor list."""
        if not self.factors:
            raise DatumError("tau-invariant needs at least one Gamma factor")
        if self.is_exact:
            return max(abs(Fraction(f.mu.im) / Fraction(f.lam)) for f in self.factors)
        with mp.workprec(self.precision):
            return max(
                abs(mp.mpmathify(f.mu_im) / mp.mpmathify(f.lam)) for f in self.factors
            )


def zeta2_datum(precision: int = DEFAULT_DATUM_PRECISION) -> FunctionalEquationDatum:
    """The datum of zeta(s)^2: r=2, lambda=1/2, mu=0, Q=pi^-1, omega=1, m=2."""
    return FunctionalEquationDatum(
        q_param=QParam(Fraction(1), Fraction(-1)),
        omega=GaussianRational(1, 0),
        factors=(factor(Fraction(1, 2)), factor(Fraction(1, 2))),
        pole_order=2,
        precision=precision,
        label="zeta2",
    )


BUILTIN_INSTANCES = {"zeta2": zeta2_datum}


def load_datum(source, precision: int | None = None) -> FunctionalEquationDatum:
    """Build a datum from a dict, a JSON file path, or a builtin name.

    Expected keys: ``Q`` (decimal/rational string or ``pi^<rational>``),
    ``omega`` ("re" or "re,im"), ``factors`` (list of {"lambda": str,
    "mu": str}), ``pole_order`` (int), optional ``label``/``precision``.
    """
    if isinstance(source, str) and source in BUILTIN_INSTANCES:
        return BUILTIN_INSTANCES[source](precision or DEFAULT_DATUM_PRECISION)
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    elif isinstance(source, dict):
        data = source
    else:
        raise DatumError(f"cannot load datum from {source!r}")
    try:
        factors = tuple(
            factor(as_fraction(f["lambda"]), _parse_complex(f.get("mu", "0")))
            for f in data["factors"]
        )
        return FunctionalEquationDatum(
            q_param=QParam.parse(data["Q"]),
            omega=_parse_complex(data.get("omega", "1")),
            factors=factors,
            pole_order=int(data.get("pole_order", 0)),
            precision=int(data.get("precision", precision or DEFAULT_DATUM_PRECISION)),
            label=str(data.get("label", "")),
        )
    except KeyError as exc:
        raise DatumError(f"datum config missing field {exc}") from exc
    except TypeError as exc:
        raise DatumError(f"datum config malformed: {exc}") from exc
