"""Structured check results shared by every verifier in the package.

A check either passes outright, is refuted with a witness, is consistent up
to the finite bound or window it was run at, or could not be run because a
hypothesis failed on the given data.  Reports nest: a top-level check owns
one clause report per sub-statement, and the worst clause verdict wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class Verdict(str, Enum):
    PASS = "pass"
    REFUTED = "refuted"
    CONSISTENT = "consistent-up-to-bound"
    HYPOTHESIS_FAILURE = "hypothesis-failure"


# CLI exit codes of verdicts; the CLI adds 4 (input error), 5 (budget exceeded)
# and 6 (internal check failed) for errors raised before a report exists.
EXIT_CODES = {
    Verdict.PASS: 0,
    Verdict.REFUTED: 1,
    Verdict.CONSISTENT: 2,
    Verdict.HYPOTHESIS_FAILURE: 3,
}

# Severity order used when folding clause verdicts into a parent verdict.
_SEVERITY = [
    Verdict.REFUTED,
    Verdict.HYPOTHESIS_FAILURE,
    Verdict.CONSISTENT,
    Verdict.PASS,
]


@dataclass
class CheckReport:
    name: str
    verdict: Verdict
    detail: str = ""
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    hypotheses: list[dict[str, Any]] = field(default_factory=list)
    clauses: list["CheckReport"] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    @property
    def ok(self) -> bool:
        return self.verdict in (Verdict.PASS, Verdict.CONSISTENT)

    @classmethod
    def combine(cls, name: str, clauses: list["CheckReport"], detail: str = "",
                meta: dict | None = None) -> "CheckReport":
        """Fold clause reports into a parent whose verdict is the worst clause's."""
        verdict = Verdict.PASS
        for candidate in _SEVERITY:
            if any(c.verdict is candidate for c in clauses):
                verdict = candidate
                break
        return cls(name=name, verdict=verdict, detail=detail, clauses=list(clauses),
                   meta=dict(meta or {}))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "verdict": self.verdict.value,
            "detail": self.detail,
            "witnesses": self.witnesses,
            "hypotheses": self.hypotheses,
            "clauses": [c.to_dict() for c in self.clauses],
            "meta": self.meta,
        }

    def rows(self, indent: int = 0) -> list[tuple[str, str, str]]:
        """Flatten the report tree into (name, verdict, detail) table rows."""
        out = [("  " * indent + self.name, self.verdict.value, self.detail)]
        for clause in self.clauses:
            out.extend(clause.rows(indent + 1))
        return out


class MoritaLabError(Exception):
    """Base class for every error raised by this package."""


class InputError(MoritaLabError):
    """A name, argument or setting given by the user is malformed or does
    not fit the workspace; the command line exits 4."""


class ValidationError(MoritaLabError):
    """A constructed object violates its defining equations."""

    def __init__(self, message: str, report: CheckReport | None = None):
        super().__init__(message)
        self.report = report


class AlgebraMismatchError(MoritaLabError):
    """Two objects were combined over different algebras or sides."""


class BudgetExceededError(MoritaLabError):
    """An exhaustive scan would exceed the candidate budget, or a hom system
    its fixed cap (``algebra.HOM_SYSTEM_CAP``)."""


class WindowConstructionError(MoritaLabError):
    """A resolution window could not be built, e.g. no projective coresolution."""


class InternalCheckError(MoritaLabError):
    """Two independent routes that must agree returned different answers."""
