"""Knowledge base (paper §IV, "Knowledge Base").

"Outcomes from all the above features are the building blocks of knowledge
... These outcomes are initially maintained within the warehouse and
transferred into a knowledge base when sufficient data-based evidence is
accumulated.  A mature knowledge base can be useful to address knowledge
management concerns such as ontology generation, training and guidelines
development."

* :mod:`repro.knowledge.findings` — typed finding records with evidence.
* :mod:`repro.knowledge.kb` — accumulation, the promotion threshold, and
  status lifecycle (candidate → promoted / retired).
* :mod:`repro.knowledge.ontology` — concept hierarchy generated from the
  warehouse's dimensions and discretisation schemes.
* :mod:`repro.knowledge.guidelines` — guideline drafting from promoted
  findings.
"""

from repro.knowledge.findings import Evidence, Finding, FindingKind
from repro.knowledge.kb import KnowledgeBase
from repro.knowledge.ontology import Concept, Ontology, ontology_from_schema
from repro.knowledge.guidelines import Guideline, draft_guidelines

__all__ = [
    "Evidence",
    "Finding",
    "FindingKind",
    "KnowledgeBase",
    "Concept",
    "Ontology",
    "ontology_from_schema",
    "Guideline",
    "draft_guidelines",
]
