"""Query plans and profiles: the EXPLAIN machinery.

EXPLAIN here is *measured*, not estimated: the query actually runs once
under a context-local recording tracer (so it works even when global
tracing is off), and the captured span tree — which stage took how long,
how many rows were scanned, whether the aggregate came from a lattice
node or a base fact scan — is re-shaped into a :class:`PlanNode` tree.
The result grid rides along in the :class:`ExplainReport`, so callers
can show the numbers next to the plan that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.sinks import RingBufferSink
from repro.obs.trace import Span, Tracer, activate


@dataclass
class PlanNode:
    """One stage of an executed query plan."""

    op: str
    duration_ms: float
    attrs: dict = field(default_factory=dict)
    children: list["PlanNode"] = field(default_factory=list)
    error: str | None = None

    @classmethod
    def from_span(cls, span: Span) -> "PlanNode":
        """Re-shape a finished span subtree into a plan tree."""
        return cls(
            op=span.name,
            duration_ms=round(span.duration_ms, 4),
            attrs=dict(span.attrs),
            children=[cls.from_span(c) for c in span.children],
            error=span.error,
        )

    def walk(self) -> Iterator["PlanNode"]:
        """This node then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, op: str) -> "PlanNode | None":
        """First node whose op equals ``op`` (depth-first), if any."""
        for node in self.walk():
            if node.op == op:
                return node
        return None

    def to_dict(self) -> dict:
        """JSON-ready rendering."""
        payload: dict[str, object] = {"op": self.op, "duration_ms": self.duration_ms}
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.error is not None:
            payload["error"] = self.error
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload

    def to_text(self, indent: int = 0, timings: bool = True) -> str:
        """Indented plan tree; ``timings=False`` gives a stable golden form."""
        pad = "  " * indent
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        line = f"{pad}-> {self.op}"
        if attrs:
            line += f" ({attrs})"
        if timings:
            line += f"  [{self.duration_ms:.3f} ms]"
        if self.error is not None:
            line += f"  !{self.error}"
        lines = [line]
        lines.extend(c.to_text(indent + 1, timings) for c in self.children)
        return "\n".join(lines)


@dataclass
class ExplainReport:
    """A measured plan plus the grid the measured run produced."""

    query: str
    plan: PlanNode
    result: object | None = None

    @property
    def total_ms(self) -> float:
        """End-to-end wall time of the profiled execution."""
        return self.plan.duration_ms

    def to_text(self, timings: bool = True) -> str:
        """Query, plan tree and totals as displayable text."""
        header = self.query
        if not header.lstrip().upper().startswith("EXPLAIN"):
            header = f"EXPLAIN {header}"
        lines = [header, self.plan.to_text(timings=timings)]
        if timings:
            lines.append(f"total: {self.total_ms:.3f} ms")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready rendering (plan only; the grid renders itself)."""
        return {"query": self.query, "plan": self.plan.to_dict()}

    def partition_stats(self) -> dict | None:
        """Partition-pruning summary from the base scan, if one ran.

        Returns ``{partitions_scanned, partitions_pruned, segments_total,
        partitions}`` where ``partitions`` lists per-partition detail
        (segment id, band/bucket key, estimated vs actual rows, ms) —
        ``None`` when the query answered without a partitioned base scan
        (lattice hit, cache hit, or no partitioned store attached).
        """
        import json

        for node in self.plan.walk():
            if node.op != "scan.base":
                continue
            attrs = node.attrs
            if "partitions_scanned" not in attrs:
                continue
            detail = attrs.get("partition_detail")
            return {
                "partitions_scanned": attrs["partitions_scanned"],
                "partitions_pruned": attrs["partitions_pruned"],
                "segments_total": attrs["segments_total"],
                "partitions": json.loads(detail) if detail else [],
            }
        return None

    def fallback_reasons(self) -> list[str]:
        """Every ``fallback_reason`` recorded in the plan, in plan order.

        Distinguishes *why* a stage fell back to the base scan:
        ``"epoch_mismatch"`` (staleness guard) or ``"no_covering_node"``
        (lattice coverage miss).
        """
        return [
            node.attrs["fallback_reason"]
            for node in self.plan.walk()
            if "fallback_reason" in node.attrs
        ]

    def __str__(self) -> str:
        return self.to_text()


def profile(root_name: str, fn: Callable[[], object], **attrs: object) -> tuple[object, PlanNode]:
    """Run ``fn`` once under a recording tracer; return (result, plan).

    The recording tracer is installed for the current context only, so a
    profiled run records its full span tree regardless of (and without
    disturbing) the global observability configuration.
    """
    ring = RingBufferSink(capacity=1)
    tracer = Tracer(sinks=[ring])
    with activate(tracer):
        with tracer.span(root_name, **attrs):
            result = fn()
    root = ring.last()
    assert root is not None  # the span above always lands in the ring
    return result, PlanNode.from_span(root)
