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

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the report's
        document from a fixed template, as the indented (pure-Python)
        encoder lays it out; each scalar goes through the C encoder."""
        dumps = json.dumps
        checks = ",\n".join(
            f'    {{\n      "lower_bound": {dumps(c.lower_bound)},\n'
            f'      "max_residual": {dumps(c.max_residual)},\n'
            f'      "name": {dumps(c.name)},\n'
            f'      "pass": {dumps(c.passed)},\n'
            f'      "tolerance": {dumps(c.tolerance)}\n    }}'
            for c in self.checks
        )
        group = ",\n".join(f"    {dumps(key)}: {dumps(self.group[key])}" for key in sorted(self.group))
        return (
            f'{{\n  "checks": {_block(checks, "[]")},\n  "group": {_block(group, "{}")},\n'
            f'  "points": {dumps(self.points)},\n  "seed": {dumps(self.seed)},\n'
            f'  "subject": {dumps(self.subject)},\n  "verdict": {dumps(self.verdict)}\n}}'
        )

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


def _block(items: str, empty: str) -> str:
    """The list or object ``empty`` holding the lines ``items`` at depth 1."""
    return f"{empty[0]}\n{items}\n  {empty[1]}" if items else empty
