"""Structured verification reports shared by the identity suites.

Every check produces rows of structured data (never raw text) so the
CLI can emit them as JSON/CSV/LaTeX and so that failures carry both
sides of the comparison.  Theorem-level and conjecture-level checks are
kept in distinct categories: a conjecture failure must be reported but
is a soft failure.  An Entry and a Report are plain slotted classes
that only carry their fields to the renderer; they define no equality.
"""

PASS = "PASS"
FAIL = "FAIL"

THEOREM = "THEOREM"
CONJECTURE = "CONJECTURE"
CONJECTURE_CONSISTENCY = "CONJECTURE-CONSISTENCY"

SOFT_CATEGORIES = (CONJECTURE, CONJECTURE_CONSISTENCY)


class Entry:
    """One checked case: identifying data, status and optional detail."""

    __slots__ = ("case", "status", "category", "details")

    def __init__(self, case, status, category, details=None):
        self.case = case
        self.status = status
        self.category = category
        self.details = {} if details is None else details

    def to_json(self):
        doc = {"case": self.case, "status": self.status, "category": self.category}
        if self.details:
            doc["details"] = self.details
        return doc


class Report:
    """A named batch of entries with deterministic order."""

    __slots__ = ("name", "params", "entries")

    def __init__(self, name, params, entries):
        self.name = name
        self.params = params
        self.entries = entries

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
