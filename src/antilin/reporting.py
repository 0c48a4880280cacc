"""Machine-readable verification reports.

A report echoes the command, carries the sha256 digest of the canonical
input bytes, a list of named check records (residual, tolerance, pass),
the environment (package version and tolerance settings in effect), and an
informational summary map for findings that are not pass/fail checks (for
example whether the inspected operator is normal).

Each check's bound is declared once, in :data:`CHECK_BOUNDS`: a key of the
tolerance table and the degree ``k`` of the norm the residual scales with,
or :data:`EXACT` for a count or a flag that must be 0.  One formula,
:func:`scaled_bound`, turns a base tolerance, ``k`` and the norm into the
bound, here and in the normality predicates of ``structure``.

Emission is deterministic: records are sorted by name, JSON is canonical
(sorted keys, %.17g floats) and CSV rows follow the same order, so identical
inputs and seeds always produce identical bytes.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, NamedTuple, Optional

from .io import canonical_json

CSV_HEADER = "check,residual,tolerance,pass"

# base tolerance of each key; ``--tol`` replaces every value
BASE_TOLERANCES = {
    "pairing": 1e-10,
    "psd": 1e-10,
    "polar_reconstruction": 1e-9,
    "projector": 1e-8,
    "identity": 1e-8,
    "power": 1e-10,
    "membership": 1e-8,
    "witness": 1e-8,
    "convexity": 1e-7,
}

EXACT = None   # the bound is 0.0 under every tolerance table

# check name (or the pattern of a family) -> (tolerance key, degree k) or
# EXACT; the norm a degree k >= 1 scales with is ||T|| unless noted
CHECK_BOUNDS = {
    # inspect
    "adjoint_biduality": EXACT,
    "adjoint_pairing": ("pairing", 1),
    "gram_left_psd": ("psd", 2),
    "gram_right_psd": ("psd", 2),
    "polar_reconstruction": ("polar_reconstruction", 1),
    "polar_partial_isometry": ("projector", 0),
    "polar_initial_space": ("projector", 0),
    "polar_final_space": ("projector", 0),
    "mp_left_projector": ("identity", 0),
    "mp_oracle_agreement": ("identity", 1),   # norm ||T+||
    "mp_right_projector": ("identity", 0),
    "normality_criteria_agree": EXACT,
    # identities
    "mp_dagger_adjoint_swap": ("identity", 0),
    "mp_double_dagger": ("identity", 0),
    "mp_gram_right_dagger": ("identity", 0),
    "mp_gram_left_dagger": ("identity", 0),
    "mp_modulus_dagger_left": ("identity", 0),
    "mp_modulus_dagger_right": ("identity", 0),
    "mp_dagger_polar_form": ("identity", 0),
    "mp_projector_range_consistency": EXACT,
    "c_normal_agrees_is_normal": EXACT,
    "modulus_conjugation_swap": ("identity", 1),
    "polar_commutation": ("polar_reconstruction", 1),
    "power_commutation_n2": ("power", 4),
    "power_commutation_n3": ("power", 6),
    # spectrum
    "crosscheck_disagreements": EXACT,
    "eig_conjugation_closure": ("identity", 0),
    # numrange
    "disk_extremal_value": ("witness", 0),
    "disk_upper_bound": ("witness", 0),
    "disk_lower_bound": ("witness", 0),
    "witness_zero": ("witness", 0),
    "witness_target": ("witness", 0),
    "convexity_witness": ("convexity", 0),
    "circle_modulus_spread": ("witness", 0),
    "circle_zero_gap": ("witness", 0),
    # block: one factorization check per selector and shift
    "factorization_*_mu*": ("identity", 1),   # norm ||realify(blk)||
    "scan_disagreements": EXACT,
    "rank_link_primal": EXACT,
    "rank_link_dual": EXACT,
    # extension
    "span_oracle_agreement": EXACT,
    "span_stabilized_before_cap": EXACT,
}


def scaled_bound(base: float, k: int, norm: float = 0.0) -> float:
    """The bound of a residual of degree ``k`` in ``norm``: ``base`` for
    ``k = 0``, else ``base * (1 + norm**k)``."""
    return base if k == 0 else base * (1 + norm**k)


def bound_entry(name: str):
    """The one :data:`CHECK_BOUNDS` entry that check ``name`` matches."""
    if name not in CHECK_BOUNDS:
        (name,) = [p for p in CHECK_BOUNDS if fnmatchcase(name, p)]
    return CHECK_BOUNDS[name]


class CheckRecord(NamedTuple):
    name: str
    residual: float
    tolerance: float
    passed: bool


class Report:
    """The checks a subcommand records, with its environment and summary."""

    def __init__(
        self,
        command: str,
        input_digest: str,
        checks: Optional[List[CheckRecord]] = None,
        environment: Optional[Dict[str, object]] = None,
        summary: Optional[Dict[str, object]] = None,
    ):
        self.command = command
        self.input_digest = input_digest
        self.checks = [] if checks is None else checks
        self.environment = {} if environment is None else environment
        self.summary = {} if summary is None else summary

    def add(self, name: str, residual: float, norm: float = 0.0) -> CheckRecord:
        """Record check ``name``: its tolerance is the bound of its
        :data:`CHECK_BOUNDS` entry at ``norm`` under the tolerance table in
        ``environment["tolerances"]``."""
        entry = bound_entry(name)
        tolerance = 0.0 if entry is EXACT else scaled_bound(
            self.environment["tolerances"][entry[0]], entry[1], norm
        )
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
