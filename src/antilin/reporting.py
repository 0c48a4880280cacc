"""Machine-readable verification reports.

A report echoes the command, carries the sha256 digest of the canonical
input bytes, a list of named check records (residual, tolerance, pass),
the environment (package version and tolerance settings in effect), and an
informational summary map for findings that are not pass/fail checks (for
example whether the inspected operator is normal).

Emission is deterministic: records are sorted by name, JSON is canonical
(sorted keys, %.17g floats) and CSV rows follow the same order, so identical
inputs and seeds always produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .io import canonical_json

CSV_HEADER = "check,residual,tolerance,pass"


@dataclass(frozen=True)
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass
class Report:
    command: str
    input_digest: str
    checks: List[CheckRecord] = field(default_factory=list)
    environment: Dict[str, object] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, residual: float, tolerance: float) -> CheckRecord:
        residual, tolerance = float(residual), float(tolerance)
        rec = CheckRecord(name, residual, tolerance, residual <= tolerance)
        self.checks.append(rec)
        return rec

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> List[CheckRecord]:
        return sorted(self.checks, key=lambda c: c.name)


def emit_json(report: Report) -> str:
    payload = {
        "command": report.command,
        "input_digest": report.input_digest,
        "checks": [
            {
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in report.sorted_checks()
        ],
        "environment": report.environment,
        "summary": report.summary,
        "overall_pass": report.overall_pass,
    }
    return canonical_json(payload) + "\n"


def emit_csv(report: Report) -> str:
    lines = [CSV_HEADER]
    for c in report.sorted_checks():
        lines.append(
            f"{c.name},{c.residual:.17g},{c.tolerance:.17g},"
            f"{'true' if c.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"
