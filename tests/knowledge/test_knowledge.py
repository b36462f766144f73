"""Tests for findings, the knowledge base, ontology and guidelines."""

import datetime as dt

import pytest

from repro.errors import KnowledgeBaseError, PromotionError
from repro.knowledge.findings import Evidence, Finding, FindingKind
from repro.knowledge.guidelines import draft_guidelines
from repro.knowledge.kb import (
    KnowledgeBase,
    KnowledgeEvent,
    event_row,
    events_from_rows,
)
from repro.knowledge.ontology import Concept, Ontology, ontology_from_schema
from repro.discri.schemes import FBG_SCHEME
from repro.tabular import Table
from repro.warehouse.attribute import Hierarchy
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import FactTable, Measure
from repro.warehouse.star import StarSchema


class TestFindings:
    def test_weight_accumulates(self):
        finding = Finding("k", FindingKind.AGGREGATE, "s")
        finding.add_evidence(Evidence("a", "d", 1.5))
        finding.add_evidence(Evidence("b", "d", 2.0))
        assert finding.total_weight() == pytest.approx(3.5)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(KnowledgeBaseError):
            Evidence("a", "d", 0.0)

    def test_retired_rejects_evidence(self):
        finding = Finding("k", FindingKind.TREND, "s", status="retired")
        with pytest.raises(KnowledgeBaseError):
            finding.add_evidence(Evidence("a", "d"))


class TestKnowledgeBase:
    @pytest.fixture()
    def kb(self):
        return KnowledgeBase(promotion_threshold=2.0)

    def test_record_and_reinforce(self, kb):
        kb.record("f", FindingKind.AGGREGATE, "claim", Evidence("s1", "d", 1.0))
        finding = kb.record(
            "f", FindingKind.AGGREGATE, "claim", Evidence("s2", "d", 1.5)
        )
        assert finding.total_weight() == pytest.approx(2.5)
        assert len(kb) == 1

    def test_statement_conflict_rejected(self, kb):
        kb.record("f", FindingKind.AGGREGATE, "claim A", Evidence("s", "d"))
        with pytest.raises(KnowledgeBaseError, match="different"):
            kb.record("f", FindingKind.AGGREGATE, "claim B", Evidence("s", "d"))

    def test_promotion_threshold_enforced(self, kb):
        kb.record("weak", FindingKind.TREND, "c", Evidence("s", "d", 0.5))
        with pytest.raises(PromotionError):
            kb.promote("weak")

    def test_promote_ready(self, kb):
        kb.record("strong", FindingKind.TREND, "c", Evidence("s", "d", 3.0))
        kb.record("weak", FindingKind.TREND, "c2", Evidence("s", "d", 0.5))
        promoted = kb.promote_ready()
        assert [f.key for f in promoted] == ["strong"]
        assert kb.get("strong").status == "promoted"
        assert kb.get("weak").status == "candidate"

    def test_promote_idempotent(self, kb):
        kb.record("f", FindingKind.TREND, "c", Evidence("s", "d", 3.0))
        kb.promote("f")
        assert kb.promote("f").status == "promoted"

    def test_retire(self, kb):
        kb.record("f", FindingKind.TREND, "c", Evidence("s", "d", 3.0))
        kb.retire("f", "superseded")
        assert kb.get("f").status == "retired"

    def test_queries_by_tag_and_kind(self, kb):
        kb.record("a", FindingKind.TREND, "c", Evidence("s", "d", 1.0),
                  tags=["age"])
        kb.record("b", FindingKind.AGGREGATE, "c2", Evidence("s", "d", 2.0),
                  tags=["age", "gender"])
        assert [f.key for f in kb.by_tag("age")] == ["b", "a"]
        assert [f.key for f in kb.by_kind(FindingKind.TREND)] == ["a"]

    def test_missing_key(self, kb):
        with pytest.raises(KnowledgeBaseError):
            kb.get("ghost")

    def test_describe(self, kb):
        kb.record("f", FindingKind.TREND, "claim text", Evidence("s", "d"))
        assert "claim text" in kb.describe()


def _state(kb: KnowledgeBase) -> dict:
    """Everything a base knows, by key: kind, claim, tags, evidence, status."""
    return {
        key: (f.kind, f.statement, f.tags, tuple(f.evidence), f.status)
        for key, f in kb._findings.items()
    }


class TestJournal:
    """Every mutation is an event: validated, journaled, then applied."""

    @staticmethod
    def _journaled(journal):
        return KnowledgeBase(promotion_threshold=2.0, journal=journal)

    @staticmethod
    def _history(kb: KnowledgeBase) -> None:
        kb.record("a", FindingKind.TREND, "A", Evidence("s", "d", 1.5),
                  tags=["t1", "t2"])
        kb.record("b", FindingKind.AGGREGATE, "B",
                  Evidence("s", "d", 2.5, recorded=dt.date(2013, 4, 8)))
        kb.record("a", FindingKind.TREND, "A", Evidence("s2", "d2", 1.0))
        kb.promote_ready()
        kb.record("c", FindingKind.FEEDBACK, "C", Evidence("s", "d"))
        kb.retire("c", "contradicted")

    def test_one_journal_call_per_mutation_in_order(self):
        calls: list[list[KnowledgeEvent]] = []
        kb = self._journaled(calls.append)
        self._history(kb)
        assert [[(e.op, e.key) for e in call] for call in calls] == [
            [("record", "a")],
            [("record", "b")],
            [("record", "a")],
            [("promote", "a"), ("promote", "b")],
            [("record", "c")],
            [("retire", "c")],
        ]

    def test_rows_replay_to_the_same_base(self):
        calls: list[list[KnowledgeEvent]] = []
        kb = self._journaled(calls.append)
        self._history(kb)
        events = [e for call in calls for e in call]
        rows = [event_row(e, i) for i, e in enumerate(events, start=1)]
        # a replayed promotion is a fact: a higher threshold does not undo it
        replayed = KnowledgeBase(promotion_threshold=99.0)
        for event in events_from_rows(reversed(rows)):
            replayed.apply(event)
        assert _state(replayed) == _state(kb)
        assert sorted(f.key for f in replayed.promoted()) == ["a", "b"]

    def test_a_failing_journal_leaves_the_base_unchanged(self):
        ok = [True]

        def journal(events):
            if not ok[0]:
                raise OSError("disk full")

        kb = self._journaled(journal)
        kb.record("a", FindingKind.TREND, "A", Evidence("s", "d", 2.0))
        kb.record("b", FindingKind.TREND, "B", Evidence("s", "d", 1.0))
        before = _state(kb)
        ok[0] = False
        for mutate in (
            lambda: kb.record("new", FindingKind.TREND, "N", Evidence("s", "d")),
            lambda: kb.record("b", FindingKind.TREND, "B", Evidence("s", "d")),
            lambda: kb.promote("a"),
            kb.promote_ready,
            lambda: kb.retire("b", "superseded"),
        ):
            with pytest.raises(OSError):
                mutate()
            assert _state(kb) == before

    def test_rejected_and_no_op_mutations_journal_nothing(self):
        calls: list = []
        kb = self._journaled(calls.append)
        kb.record("a", FindingKind.TREND, "A", Evidence("s", "d", 0.5))
        kb.record("p", FindingKind.TREND, "P", Evidence("s", "d", 2.0))
        kb.promote("p")
        kb.retire("a", "superseded")
        journaled = len(calls)
        with pytest.raises(KnowledgeBaseError):
            kb.record("a", FindingKind.TREND, "A", Evidence("s", "d"))
        with pytest.raises(KnowledgeBaseError):
            kb.record("p", FindingKind.TREND, "other claim", Evidence("s", "d"))
        with pytest.raises(KnowledgeBaseError):
            kb.retire("a", "again")
        kb.record("w", FindingKind.TREND, "W", Evidence("s", "d", 0.5))
        journaled += 1
        with pytest.raises(PromotionError):
            kb.promote("w")
        kb.promote("p")  # already promoted
        assert kb.promote_ready() == []
        assert len(calls) == journaled


class TestOntology:
    @pytest.fixture()
    def star(self):
        personal = Dimension(
            "personal",
            {"gender": "str", "band10": "str", "band5": "str"},
            hierarchies=[Hierarchy("age", ["band10", "band5"])],
        )
        bloods = Dimension("bloods", {"fbg_band": "str"})
        fact = FactTable("f", ["personal", "bloods"], [Measure.of("fbg")])
        return StarSchema("discri", fact, [personal, bloods])

    def test_generated_structure(self, star):
        ontology = ontology_from_schema(star, schemes={"fbg_band": FBG_SCHEME})
        assert "personal" in ontology.concepts_of_kind("dimension")
        assert "personal.gender" in ontology.concepts_of_kind("attribute")
        assert "bloods.fbg_band=Diabetic" in ontology.concepts_of_kind("value")

    def test_hierarchy_becomes_refinement_edge(self, star):
        ontology = ontology_from_schema(star)
        assert "personal.band5" in ontology.children(
            "personal.band10", relation="refined_by"
        )

    def test_consistent_dag(self, star):
        assert ontology_from_schema(star).is_consistent()

    def test_relate_unknown_concept(self):
        ontology = Ontology("o")
        ontology.add_concept(Concept("a", "dimension"))
        with pytest.raises(KnowledgeBaseError):
            ontology.relate("a", "ghost", "has_attribute")

    def test_to_text_tree(self, star):
        text = ontology_from_schema(star).to_text()
        assert "discri [root]" in text
        assert "personal [dimension]" in text


class TestGuidelines:
    def test_built_from_promoted_only(self):
        kb = KnowledgeBase(promotion_threshold=1.0)
        kb.record("a", FindingKind.AGGREGATE, "finding A",
                  Evidence("s", "d", 2.0), tags=["screen"])
        kb.record("b", FindingKind.AGGREGATE, "finding B",
                  Evidence("s", "d", 0.5), tags=["screen"])
        kb.promote("a")
        guidelines = draft_guidelines(
            kb, {"Screening": ("screen", "Do the thing")}
        )
        assert len(guidelines) == 1
        assert [f.key for f in guidelines[0].findings] == ["a"]
        assert "finding A" in guidelines[0].to_text()

    def test_unsupported_guideline_skipped(self):
        kb = KnowledgeBase()
        guidelines = draft_guidelines(kb, {"G": ("tag", "r")})
        assert guidelines == []

    def test_empty_groupings_rejected(self):
        with pytest.raises(KnowledgeBaseError):
            draft_guidelines(KnowledgeBase(), {})

    def test_sorted_by_evidence(self):
        kb = KnowledgeBase(promotion_threshold=1.0)
        kb.record("a", FindingKind.TREND, "A", Evidence("s", "d", 5.0), tags=["t1"])
        kb.record("b", FindingKind.TREND, "B", Evidence("s", "d", 2.0), tags=["t2"])
        kb.promote_ready()
        guidelines = draft_guidelines(
            kb, {"G1": ("t2", "r"), "G2": ("t1", "r")}
        )
        assert [g.title for g in guidelines] == ["G2", "G1"]
