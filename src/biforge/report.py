"""Machine-readable verification reports."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """One named residual check.

    ``passed`` is residual <= tolerance for upper-bound checks; witness
    checks (e.g. "the tension does not vanish") pass when the residual
    meets or exceeds the tolerance, which ``lower_bound`` marks.
    """

    name: str
    max_residual: float
    tolerance: float
    lower_bound: bool = False

    @property
    def passed(self) -> bool:
        if self.lower_bound:
            return self.max_residual >= self.tolerance
        return self.max_residual <= self.tolerance

    @classmethod
    def upper(cls, name: str, residual: float, tolerance: float) -> "CheckResult":
        return cls(name, float(residual), float(tolerance))

    @classmethod
    def lower(cls, name: str, residual: float, tolerance: float) -> "CheckResult":
        return cls(name, float(residual), float(tolerance), True)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "lower_bound": self.lower_bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    group: dict
    points: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "group": self.group,
            "points": self.points,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = [f"subject: {self.subject}   group: {self.group}   points: {self.points}"]
        for c in self.checks:
            bound = ">=" if c.lower_bound else "<="
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"  [{status}] {c.name}: residual {c.max_residual:.3e} ({bound} {c.tolerance:.1e})"
            )
        lines.append(f"verdict: {'pass' if self.verdict else 'FAIL'}")
        return lines
