"""Structured verification reports shared by the identity suites.

Every check produces rows of structured data (never raw text) so the
CLI can emit them as JSON/CSV/LaTeX and so that failures carry both
sides of the comparison.  Theorem-level and conjecture-level checks are
kept in distinct categories: a conjecture failure must be reported but
is a soft failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "PASS"
FAIL = "FAIL"

THEOREM = "THEOREM"
CONJECTURE = "CONJECTURE"
CONJECTURE_CONSISTENCY = "CONJECTURE-CONSISTENCY"

SOFT_CATEGORIES = (CONJECTURE, CONJECTURE_CONSISTENCY)


@dataclass(frozen=True)
class Entry:
    """One checked case: identifying data, status and optional detail."""

    case: dict
    status: str
    category: str
    details: dict = field(default_factory=dict)

    def to_json(self):
        doc = {"case": self.case, "status": self.status, "category": self.category}
        if self.details:
            doc["details"] = self.details
        return doc


@dataclass
class Report:
    """A named batch of entries with deterministic order."""

    name: str
    params: dict
    entries: list

    def passed(self):
        return all(e.status == PASS for e in self.entries)

    def theorem_failures(self):
        return [
            e for e in self.entries if e.category == THEOREM and e.status != PASS
        ]

    def conjecture_failures(self):
        return [
            e
            for e in self.entries
            if e.category in SOFT_CATEGORIES and e.status != PASS
        ]

    def to_json(self):
        return {
            "suite": self.name,
            "params": self.params,
            "checks": len(self.entries),
            "status": PASS if self.passed() else FAIL,
            "entries": [e.to_json() for e in self.entries],
        }
