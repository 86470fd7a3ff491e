"""Assertion records and report rendering shared by the verification chain
and the CLI.

A report is an ordered list of records, one per checked assertion, each
carrying the measured quantity and the target/bound it was held against.
Rendering is deterministic: identical inputs yield byte-identical text.
Numbers print as ``mp.nstr`` prints them; this module imports no mpmath.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path


def nstr(x, n: int, prec: int = 128) -> str:
    """``mp.nstr(x, n)`` of a real ``x`` at ``prec`` bits, byte for byte, for n >= 1.

    An mpmath number prints through its own context.  An exact int, Fraction
    or Decimal is rounded to nearest at ``prec`` bits, ties to even, as
    mp.mpf rounds it, and goes through mpmath's ``to_digits_exp`` and
    ``to_str`` on that value.  Past 10^+-1000 a Decimal prints its own digits
    (its coefficient rounded so), which mpmath finds by a division at about
    3.3 n + 20 bits; its parse there is not correctly rounded, so an exact
    decimal tie such as 8.885e1000001 may print one unit apart.
    """
    if hasattr(x, "_mpf_"):
        return x.context.nstr(x, n)
    if not x:
        return "0.0"
    sign, shift = "-" if x < 0 else "", 0
    if isinstance(x, Decimal) and abs(x.adjusted()) > 1000:  # x = coefficient 10^shift
        _, coefficient, shift = x.as_tuple()
        x = int("".join(map(str, coefficient)))
    # to_digits_exp at n + 3 digits: cut |x| to a fixed point, then to decimal
    num, den = abs(Fraction(x)).as_integer_ratio()
    e = num.bit_length() - den.bit_length()
    e += num << max(-e, 0) >= den << max(e, 0)  # 2^(e-1) <= |x| < 2^e
    m = round(Fraction(num << max(prec - e, 0), den << max(e - prec, 0)))  # ties to even
    num, den = m << max(e - prec, 0), 1 << max(prec - e, 0)
    e += m >> prec  # rounded up to 2^e
    fixprec = max(int((n + 3) * math.log(10, 2)) + 10 - e, 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    digits = str(((num << fixprec) // den * 10 ** fixdps) >> fixprec)
    exponent = len(digits) - fixdps - 1 + shift
    # to_str: round half up on the next digit, then fixed point strictly
    # between 10^min(-n//3, -5) and 10^n
    head, digits = digits[:n], str(int(digits[:n]) + (digits[n:n + 1] >= "5"))
    exponent += len(digits) > len(head)
    digits, split = digits[:n], 1
    if min(-(n // 3), -5) < exponent < n:
        digits = "0" * -exponent + digits + "0" * (exponent + 1 - n)
        split, exponent = max(exponent, 0) + 1, 0
    return (f"{sign}{digits[:split]}.{digits[split:].rstrip('0') or '0'}"
            + (f"e{exponent:+d}" if exponent else ""))


@dataclass
class CheckRecord:
    name: str
    claim: str
    measured: str
    target: str
    passed: bool

    def row(self) -> list[str]:
        return [
            self.name,
            self.claim,
            self.measured,
            self.target,
            "PASS" if self.passed else "FAIL",
        ]


@dataclass
class Report:
    title: str
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, name, claim, measured, target, passed) -> CheckRecord:
        rec = CheckRecord(name, claim, str(measured), str(target), bool(passed))
        self.records.append(rec)
        return rec

    def add_bound(self, name, claim, measured, bound, prec: int = 128) -> CheckRecord:
        """A record of the real ``measured`` held to ``measured <= bound``,
        each an mpmath number or an exact rational (int, Fraction, Decimal),
        which prints as mpmath prints it at ``prec`` bits; an mpmath bound
        compares with mpmath numbers only."""
        if hasattr(bound, "_mpf_"):
            measured = bound.context.mpmathify(measured)
        return self.add(name, claim, nstr(measured, 6, prec), f"<= {nstr(bound, 3, prec)}",
                        measured <= bound)

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(not r.passed for r in self.records)

    def render_text(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        width = max((len(r.name) for r in self.records), default=0)
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.name.ljust(width)}  measured={r.measured}"
                f"  target={r.target}  ({r.claim})"
            )
        lines.append(
            f"-- {len(self.records)} checks, {self.n_failed} failed --"
        )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        write_rows_csv(path, ["name", "claim", "measured", "target", "status"],
                       (r.row() for r in self.records))


def write_rows_csv(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(list(row))
