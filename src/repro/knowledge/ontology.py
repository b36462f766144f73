"""Ontology generation from the dimensional model.

A mature knowledge base "can be useful to address knowledge management
concerns such as ontology generation" (paper §IV).  The warehouse already
encodes most of a domain ontology: dimensions are top concepts, their
attributes sub-concepts, hierarchy levels *is-refined-by* chains, and
discretisation schemes enumerate qualitative value concepts.  This module
extracts that structure into an explicit concept graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KnowledgeBaseError
from repro.etl.discretization import DiscretizationScheme
from repro.warehouse.star import StarSchema


@dataclass(frozen=True)
class Concept:
    """One node of the ontology."""

    name: str
    kind: str  # "dimension" | "attribute" | "value" | "root"

    def __str__(self) -> str:
        return f"{self.name} ({self.kind})"


@dataclass
class Ontology:
    """A directed concept graph with typed edges.

    Edge relations: ``has_attribute`` (dimension → attribute),
    ``refined_by`` (coarse level → finer level), ``has_value``
    (attribute → qualitative value).
    """

    name: str
    #: concept name -> kind, in insertion order
    kinds: dict[str, str] = field(default_factory=dict)
    #: parent -> {child: relation}
    edges: dict[str, dict[str, str]] = field(default_factory=dict)

    def add_concept(self, concept: Concept) -> None:
        """Insert a node (idempotent)."""
        self.kinds[concept.name] = concept.kind
        self.edges.setdefault(concept.name, {})

    def relate(self, parent: str, child: str, relation: str) -> None:
        """Insert a typed edge; both concepts must exist."""
        for node in (parent, child):
            if node not in self.kinds:
                raise KnowledgeBaseError(f"unknown concept {node!r}")
        self.edges[parent][child] = relation

    def children(self, concept: str, relation: str | None = None) -> list[str]:
        """Direct children, optionally filtered by relation."""
        return sorted(
            child
            for child, rel in self.edges.get(concept, {}).items()
            if relation is None or rel == relation
        )

    def concepts_of_kind(self, kind: str) -> list[str]:
        """All concept names of one kind."""
        return sorted(n for n, k in self.kinds.items() if k == kind)

    def is_consistent(self) -> bool:
        """No cycles — an ontology's refinement graph must be a DAG."""
        # iterative DFS: a child still on the stack closes a cycle
        done: set[str] = set()
        on_stack: set[str] = set()
        for start in self.edges:
            if start in done:
                continue
            on_stack.add(start)
            stack = [(start, iter(self.edges[start]))]
            while stack:
                node, pending = stack[-1]
                child = next(pending, None)
                if child is None:
                    stack.pop()
                    on_stack.discard(node)
                    done.add(node)
                elif child in on_stack:
                    return False
                elif child not in done:
                    on_stack.add(child)
                    stack.append((child, iter(self.edges[child])))
        return True

    def to_text(self) -> str:
        """Indented tree rendering from the root."""
        lines: list[str] = []

        def render(node: str, depth: int) -> None:
            lines.append("  " * depth + f"{node} [{self.kinds[node]}]")
            for child in self.children(node):
                render(child, depth + 1)

        children = {child for out in self.edges.values() for child in out}
        for root in sorted(n for n in self.kinds if n not in children):
            render(root, 0)
        return "\n".join(lines)


def ontology_from_schema(
    schema: StarSchema,
    schemes: dict[str, DiscretizationScheme] | None = None,
) -> Ontology:
    """Generate the concept graph from a star schema.

    ``schemes`` maps attribute names to their discretisation schemes so
    their bin labels become value concepts.
    """
    ontology = Ontology(schema.name)
    root = Concept(schema.name, "root")
    ontology.add_concept(root)
    schemes = schemes or {}
    for dim_name, dimension in schema.dimensions.items():
        dim_concept = Concept(dim_name, "dimension")
        ontology.add_concept(dim_concept)
        ontology.relate(schema.name, dim_name, "has_dimension")
        for attr in dimension.attributes:
            attr_name = f"{dim_name}.{attr}"
            ontology.add_concept(Concept(attr_name, "attribute"))
            ontology.relate(dim_name, attr_name, "has_attribute")
            scheme = schemes.get(attr)
            if scheme is not None:
                for label in scheme.labels:
                    value_name = f"{attr_name}={label}"
                    ontology.add_concept(Concept(value_name, "value"))
                    ontology.relate(attr_name, value_name, "has_value")
        for hierarchy in dimension.hierarchies.values():
            for coarse, fine in zip(hierarchy.levels, hierarchy.levels[1:]):
                ontology.relate(
                    f"{dim_name}.{coarse}", f"{dim_name}.{fine}", "refined_by"
                )
    return ontology
