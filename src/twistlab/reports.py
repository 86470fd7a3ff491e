"""Assertion records and report rendering shared by the verification chain
and the CLI.

A report is an ordered list of records, one per checked assertion, each
carrying the measured quantity and the target/bound it was held against.
Rendering is deterministic: identical inputs yield byte-identical text.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp


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

    def add_bound(self, name, claim, measured, bound) -> CheckRecord:
        """A record of the number ``measured`` (an mpmath number or an exact
        rational) held to ``measured <= bound``."""
        measured = mp.mpmathify(measured)
        return self.add(
            name, claim, mp.nstr(measured, 6), f"<= {mp.nstr(bound, 3)}", measured <= bound
        )

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
