"""Finding and report types shared by both analysis levels.

Every check in :mod:`repro.verify` — the Level-1 program verifier and
the Level-2 repo contract linter — reports through the same structure:
a flat list of :class:`Finding` records, each naming the rule that
fired, where, and why.  A clean subject yields an empty list; the CLI
turns any error-severity finding into a non-zero exit status, which is
what the CI ``static-analysis`` job and ``verify --winner`` key off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "VerifyReport"]

#: Finding severities, in increasing order of badness.  ``warning``
#: findings are reported but do not fail a verification run; ``error``
#: findings do.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: Stable rule identifier.  ``P1xx`` structural program
            checks, ``P2xx`` schedule-ordering checks, ``P3xx``
            dependency-graph checks, ``P4xx`` static memory checks,
            ``L1xx``-``L4xx`` repo lint rules.
        location: Where the violation sits — ``rank 2/compute[17]`` for
            program findings, ``path:line`` for lint findings.
        message: Human-readable explanation, specific enough to act on.
        severity: ``"error"`` (fails verification) or ``"warning"``.
    """

    rule: str
    location: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def format(self) -> str:
        return f"{self.rule} [{self.severity}] {self.location}: {self.message}"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one verification run (any subset of checks).

    Attributes:
        subject: What was verified (a program description or a repo
            root), for the report header.
        findings: Every rule violation, in discovery order.
    """

    subject: str
    findings: tuple[Finding, ...] = field(default_factory=tuple)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def ok(self) -> bool:
        """True when no error-severity finding fired."""
        return not self.errors

    def format(self) -> str:
        lines = [f"verify: {self.subject}"]
        if not self.findings:
            lines.append("  clean — no findings")
        for finding in self.findings:
            lines.append("  " + finding.format())
        return "\n".join(lines)
