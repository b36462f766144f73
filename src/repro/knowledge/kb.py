"""The knowledge base: accumulation, promotion, querying.

Every change to a base is a :class:`KnowledgeEvent` — a finding recorded
with its evidence, promoted, or retired.  A mutator validates, hands the
events to the owner's journal (if any), then applies them through
:meth:`KnowledgeBase.apply`, which is also how a journal is replayed.
:data:`EVENTS_TABLE` / :data:`EVENTS_SCHEMA` and :func:`event_row` /
:func:`events_from_rows` map events to and from the rows of the
operational-store table a durable system journals them in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable

from repro.errors import KnowledgeBaseError, PromotionError
from repro.knowledge.findings import Evidence, Finding, FindingKind

#: the operational-store table a journaled base keeps its events in
EVENTS_TABLE = "knowledge_events"

#: one row per event; ``event_id`` is the commit order replay follows
EVENTS_SCHEMA = {
    "event_id": "int",
    "op": "str",
    "key": "str",
    "kind": "str",
    "statement": "str",
    "source": "str",
    "description": "str",
    "weight": "float",
    "recorded": "date",
    "tags": "str",
    "reason": "str",
}


@dataclass(frozen=True)
class KnowledgeEvent:
    """One change to a base: ``op`` is ``record``, ``promote`` or ``retire``.

    A ``record`` carries the finding's kind, statement, tags and one piece
    of evidence; a ``retire`` carries its reason; a ``promote`` only the key.
    """

    op: str
    key: str
    kind: FindingKind | None = None
    statement: str | None = None
    evidence: Evidence | None = None
    tags: frozenset[str] = frozenset()
    reason: str | None = None


def event_row(event: KnowledgeEvent, event_id: int) -> dict[str, object]:
    """The :data:`EVENTS_SCHEMA` row of ``event``."""
    row: dict[str, object] = dict.fromkeys(EVENTS_SCHEMA)
    row.update(event_id=event_id, op=event.op, key=event.key, reason=event.reason)
    if event.op == "record":
        evidence = event.evidence
        row.update(
            kind=FindingKind(event.kind).value,
            statement=event.statement,
            source=evidence.source,
            description=evidence.description,
            weight=evidence.weight,
            recorded=evidence.recorded,
            tags=json.dumps(sorted(event.tags)),
        )
    return row


def events_from_rows(rows: Iterable[dict]) -> list[KnowledgeEvent]:
    """Events of :func:`event_row` rows, in ``event_id`` order."""
    events = []
    for row in sorted(rows, key=itemgetter("event_id")):
        if row["op"] == "record":
            events.append(
                KnowledgeEvent(
                    "record",
                    row["key"],
                    kind=FindingKind(row["kind"]),
                    statement=row["statement"],
                    evidence=Evidence(
                        source=row["source"],
                        description=row["description"],
                        weight=row["weight"],
                        recorded=row["recorded"],
                    ),
                    tags=frozenset(json.loads(row["tags"])),
                )
            )
        else:
            events.append(KnowledgeEvent(row["op"], row["key"], reason=row["reason"]))
    return events


class KnowledgeBase:
    """Findings keyed by stable identifiers, with a promotion threshold.

    A finding stays a *candidate* (warehouse-resident, in the paper's
    terms) until its accumulated evidence weight reaches
    ``promotion_threshold``; ``promote_ready()`` then moves it into the
    knowledge base proper.  Promotion is explicit rather than automatic so
    a curator (the clinical scientist) stays in the loop.

    ``journal`` receives the events of every mutation after validation
    and before they apply; it must make them durable or raise, and a
    raise leaves the base unchanged.
    """

    def __init__(
        self,
        promotion_threshold: float = 3.0,
        *,
        journal: Callable[[list[KnowledgeEvent]], None] | None = None,
    ):
        if promotion_threshold <= 0:
            raise KnowledgeBaseError("promotion threshold must be positive")
        self.promotion_threshold = promotion_threshold
        self.journal = journal
        self._findings: dict[str, Finding] = {}

    # ------------------------------------------------------------------

    def record(
        self,
        key: str,
        kind: FindingKind,
        statement: str,
        evidence: Evidence,
        tags: Iterable[str] = (),
    ) -> Finding:
        """Record (or reinforce) a finding.

        A new key creates a candidate finding; an existing key accumulates
        the evidence.  Re-recording with a different statement raises —
        the same key must mean the same claim.
        """
        existing = self._findings.get(key)
        if existing is not None:
            if existing.statement != statement:
                raise KnowledgeBaseError(
                    f"finding {key!r} already exists with a different "
                    f"statement: {existing.statement!r}"
                )
            existing.check_open()
        event = KnowledgeEvent(
            "record", key, kind=kind, statement=statement,
            evidence=evidence, tags=frozenset(tags),
        )
        return self._commit([event])[0]

    def apply(self, event: KnowledgeEvent) -> Finding:
        """Apply one event: the path of every mutator and of a replay.

        An event is a fact the mutator already validated, so nothing is
        checked again — a replayed promotion stands whatever the
        threshold now is.
        """
        if event.op == "record":
            finding = self._findings.get(event.key)
            if finding is None:
                finding = self._findings[event.key] = Finding(
                    key=event.key,
                    kind=event.kind,
                    statement=event.statement,
                    tags=event.tags,
                )
            finding.add_evidence(event.evidence)
            return finding
        finding = self.get(event.key)
        if event.op == "promote":
            finding.status = "promoted"
        elif event.op == "retire":
            finding.add_evidence(
                Evidence(
                    source="curator",
                    description=f"retired: {event.reason}",
                    weight=1e-9,
                )
            )
            finding.status = "retired"
        else:
            raise KnowledgeBaseError(f"unknown knowledge event {event.op!r}")
        return finding

    def _commit(self, events: list[KnowledgeEvent]) -> list[Finding]:
        if self.journal is not None:
            self.journal(events)
        return [self.apply(event) for event in events]

    def get(self, key: str) -> Finding:
        """Fetch one finding."""
        try:
            return self._findings[key]
        except KeyError:
            raise KnowledgeBaseError(f"no finding with key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._findings

    def __len__(self) -> int:
        return len(self._findings)

    # ------------------------------------------------------------------

    def ready_for_promotion(self) -> list[Finding]:
        """Candidates whose evidence weight reached the threshold."""
        return [
            f
            for f in self._findings.values()
            if f.status == "candidate"
            and f.total_weight() >= self.promotion_threshold
        ]

    def promote(self, key: str) -> Finding:
        """Promote one finding; raises when evidence is insufficient."""
        finding = self.get(key)
        if finding.status == "promoted":
            return finding
        if finding.total_weight() < self.promotion_threshold:
            raise PromotionError(
                f"finding {key!r} has weight {finding.total_weight():g} "
                f"< threshold {self.promotion_threshold:g}"
            )
        return self._commit([KnowledgeEvent("promote", key)])[0]

    def promote_ready(self) -> list[Finding]:
        """Promote everything that qualifies; returns what was promoted."""
        ready = self.ready_for_promotion()
        if not ready:
            return []
        return self._commit([KnowledgeEvent("promote", f.key) for f in ready])

    def retire(self, key: str, reason: str) -> Finding:
        """Retire a finding (superseded or contradicted)."""
        self.get(key).check_open()
        return self._commit([KnowledgeEvent("retire", key, reason=reason)])[0]

    # ------------------------------------------------------------------

    def candidates(self) -> list[Finding]:
        """All candidate findings, heaviest evidence first."""
        return self._by_status("candidate")

    def promoted(self) -> list[Finding]:
        """All promoted findings, heaviest evidence first."""
        return self._by_status("promoted")

    def by_tag(self, tag: str) -> list[Finding]:
        """Findings carrying a tag (any status)."""
        return sorted(
            (f for f in self._findings.values() if tag in f.tags),
            key=lambda f: -f.total_weight(),
        )

    def by_kind(self, kind: FindingKind) -> list[Finding]:
        """Findings of one kind (any status)."""
        return sorted(
            (f for f in self._findings.values() if f.kind is kind),
            key=lambda f: -f.total_weight(),
        )

    def _by_status(self, status: str) -> list[Finding]:
        return sorted(
            (f for f in self._findings.values() if f.status == status),
            key=lambda f: -f.total_weight(),
        )

    def describe(self) -> str:
        """Terminal dump of the whole base."""
        lines = [
            f"KnowledgeBase: {len(self)} findings "
            f"({len(self.promoted())} promoted, threshold "
            f"{self.promotion_threshold:g})"
        ]
        for finding in sorted(
            self._findings.values(), key=lambda f: (f.status, -f.total_weight())
        ):
            lines.append("  " + finding.describe())
        return "\n".join(lines)
