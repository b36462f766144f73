"""Finding and evidence records — the units the knowledge base manages."""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import KnowledgeBaseError


class FindingKind(str, Enum):
    """Where a finding came from — one per DD-DGMS feature."""

    AGGREGATE = "aggregate"          # OLAP/reporting outcome
    TREND = "trend"                  # temporal pattern
    PREDICTION = "prediction"        # validated predictive relationship
    OPTIMIZATION = "optimization"    # optimisation outcome
    ASSOCIATION = "association"      # mined rule / interaction
    FEEDBACK = "feedback"            # clinician-entered judgement


@dataclass(frozen=True)
class Evidence:
    """One piece of support for a finding."""

    source: str                       # e.g. "bench_fig5", "OLAP query", author
    description: str
    weight: float = 1.0               # relative strength (sample size proxy)
    recorded: _dt.date | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise KnowledgeBaseError("evidence weight must be positive")


@dataclass
class Finding:
    """A candidate piece of clinical knowledge with its evidence trail."""

    key: str                          # stable identifier, e.g. "fig5.gender_age"
    kind: FindingKind
    statement: str                    # the human-readable claim
    evidence: list[Evidence] = field(default_factory=list)
    status: str = "candidate"         # candidate | promoted | retired
    tags: frozenset[str] = frozenset()

    def total_weight(self) -> float:
        """Accumulated evidence weight."""
        return sum(e.weight for e in self.evidence)

    def check_open(self) -> None:
        """Raise when the finding is retired and so takes no more evidence."""
        if self.status == "retired":
            raise KnowledgeBaseError(
                f"finding {self.key!r} is retired; reopen it before adding "
                "evidence"
            )

    def add_evidence(self, evidence: Evidence) -> None:
        """Attach more support."""
        self.check_open()
        self.evidence.append(evidence)

    def describe(self) -> str:
        """One line: status, weight, statement."""
        return (
            f"[{self.status}/{self.kind.value} w={self.total_weight():g}] "
            f"{self.statement}"
        )
