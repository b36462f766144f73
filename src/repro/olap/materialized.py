"""Materialised aggregate lattice over a cube.

OLAP engines trade storage for latency by precomputing aggregates at
chosen lattice nodes (level combinations) and answering coarser queries by
rolling the precomputed cells up instead of re-scanning facts.  This
module implements that classic design over :class:`~repro.olap.cube.Cube`:

* :meth:`MaterializedCube.materialize` precomputes, per node, the cell
  table with SUM/COUNT/MIN/MAX per measure plus the record count — one
  node after another in the calling thread, with a cancellation
  checkpoint between nodes, swapped in only once all of them are built;
* :meth:`MaterializedCube.aggregate` answers a query from the smallest
  covering node (:meth:`repro.planner.QueryPlanner.choose_route`) — means
  are recomposed as Σsum/Σcount, so non-additive measures still roll up
  correctly — and falls back to the base cube when no node covers the
  request (or for ``nunique``, which is not decomposable);
* :attr:`MaterializedCube.stats` records hits/fallbacks so benches can
  show the trade-off.

This is the "cube materialisation vs lazy aggregation" ablation of
DESIGN.md §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import obs
from repro.errors import OLAPError
from repro.olap.aggregates import validate_aggregation
from repro.olap.cube import AggregatePlan, Cube, CubeState
from repro.planner.router import QueryPlanner
from repro.serving.resilience import checkpoint
from repro.storage import faults
from repro.tabular.expressions import Expression
from repro.tabular.table import Table


@dataclass
class LatticeStats:
    """Hit accounting for one materialised cube."""

    exact_hits: int = 0
    rollup_hits: int = 0
    fallbacks: int = 0

    @property
    def total(self) -> int:
        """All queries answered."""
        return self.exact_hits + self.rollup_hits + self.fallbacks

    def summary(self) -> str:
        """One line: hits vs fallbacks."""
        return (
            f"{self.exact_hits} exact, {self.rollup_hits} rolled up, "
            f"{self.fallbacks} fell back to base ({self.total} total)"
        )


@dataclass
class _Node:
    levels: tuple[str, ...]
    table: Table
    #: columns: per measure m -> (m__sum, m__count, m__min, m__max)
    measures: tuple[str, ...]


class MaterializedCube:
    """A cube wrapper answering aggregations from precomputed nodes."""

    RECORDS = Cube.RECORDS

    def __init__(self, cube: Cube):
        self.cube = cube
        self._nodes: list[_Node] = []
        self.stats = LatticeStats()
        #: the epoch the nodes were computed from (None until materialised)
        self._pinned_state: CubeState | None = None

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------

    def materialize(
        self,
        level_groups: Sequence[Sequence[str]],
        measures: Sequence[str] | None = None,
    ) -> "MaterializedCube":
        """Precompute the given lattice nodes.

        ``measures`` defaults to every fact measure.  Each node stores,
        per cell, the record count and per-measure sum/count/min/max —
        the decomposable statistics any supported aggregation recomposes
        from.

        Nodes are built into a local list and swapped in only once every
        one succeeded, so a build that raises (an expired deadline, an
        injected scan fault) leaves the lattice exactly as it was.
        """
        measure_names = list(measures or self.cube.schema.fact.measures)
        for name in measure_names:
            self.cube.schema.fact.measure(name)  # validate
        aggregations: dict[str, tuple[str, str]] = {
            "__records": (self.RECORDS, "size")
        }
        for name in measure_names:
            aggregations[f"{name}__sum"] = (name, "sum")
            aggregations[f"{name}__count"] = (name, "count")
            aggregations[f"{name}__min"] = (name, "min")
            aggregations[f"{name}__max"] = (name, "max")
        # pin one epoch: every node describes the same committed flat view
        state = self.cube._current_state()
        with obs.span("lattice.materialize", nodes=len(level_groups)) as sp:
            qualified_groups: list[tuple[str, ...]] = []
            for group in level_groups:
                qualified = tuple(
                    self.cube.check_level(level, state) for level in group
                )
                if not qualified:
                    raise OLAPError("cannot materialise an empty level group")
                qualified_groups.append(qualified)

            built: list[_Node] = []
            for qualified in qualified_groups:
                checkpoint()
                plan = self.cube._plan(state, qualified, aggregations, force=True)
                table = self.cube._scan_base(plan, state)
                built.append(_Node(qualified, table, tuple(measure_names)))

            if self._pinned_state is not None and state is not self._pinned_state:
                # the cube moved on since the last materialisation: nodes
                # built from the older epoch would silently mix stale cells
                # into the fresh lattice, so they are dropped, not extended
                obs.count("olap.lattice.stale_nodes_dropped", len(self._nodes))
                nodes = built
            else:
                nodes = self._nodes + built
            # smaller nodes first so lookups prefer the cheapest superset
            # (stable sort over the deterministic input order)
            nodes.sort(key=lambda node: node.table.num_rows)
            self._nodes = nodes
            self._pinned_state = state
            sp.set(cells=self.storage_cells())
        obs.set_gauge("olap.lattice.cells", self.storage_cells())
        return self

    def fresh_for_state(self, state: CubeState) -> bool:
        """True if the nodes describe exactly this epoch.

        Epoch states are immutable once published, so identity comparison
        is an exact staleness test: a lattice only answers for the epoch
        it was materialised from (or delta-folded / retagged to).
        """
        return bool(self._nodes) and state is self._pinned_state

    def fresh_for(self, flat: Table) -> bool:
        """True if the nodes were computed from exactly this flat view.

        Identity test against the pinned epoch's flat view, without
        forcing a lazily-extended epoch to materialise its concatenation.
        """
        return (
            bool(self._nodes)
            and self._pinned_state is not None
            and self._pinned_state.flat_is(flat)
        )

    def is_fresh(self) -> bool:
        """True while the nodes still describe the cube's current epoch.

        A stale lattice silently stops answering and the cube falls back
        to base scans until re-materialised (or delta-folded forward).
        """
        return self.fresh_for_state(self.cube._current_state())

    def snapshot(self) -> dict:
        """JSON-ready node + hit accounting (``stats`` command, health)."""
        pinned = self._pinned_state
        return {
            "nodes": len(self._nodes),
            "epoch": pinned.epoch if pinned is not None else None,
            "fresh": self.is_fresh(),
            "exact_hits": self.stats.exact_hits,
            "rollup_hits": self.stats.rollup_hits,
            "fallbacks": self.stats.fallbacks,
        }

    def fold_delta(
        self, new_state: CubeState, delta_flat: Table
    ) -> "MaterializedCube":
        """A new lattice for ``new_state`` by folding appended rows in.

        ``delta_flat`` must contain exactly the rows appended between the
        pinned epoch and ``new_state`` (same flat-view schema).  Each node
        aggregates only the delta at its grain and merges the cells into
        its existing table — O(delta + cells) instead of O(history).  The
        old lattice is left untouched, still answering for readers pinned
        to the old epoch; the returned lattice carries fresh stats.

        Only valid for pure appends — the min/max recheck rule: deletes or
        updates could retire a current extremum invisibly, so those paths
        must full-rebuild instead (see :mod:`repro.olap.delta`).
        """
        from repro.olap.delta import delta_node_table, merge_node_tables

        folded = MaterializedCube(self.cube)
        with obs.span(
            "lattice.delta_fold",
            nodes=len(self._nodes),
            delta_rows=delta_flat.num_rows,
        ) as sp:
            nodes: list[_Node] = []
            for node in self._nodes:
                if delta_flat.num_rows == 0:
                    table = node.table
                else:
                    delta = delta_node_table(
                        delta_flat, node.levels, node.measures
                    )
                    table = merge_node_tables(
                        node.table, delta, node.levels, node.measures
                    )
                nodes.append(_Node(node.levels, table, node.measures))
            # same ordering invariant as materialize(): smallest node first
            nodes.sort(key=lambda node: node.table.num_rows)
            folded._nodes = nodes
            folded._pinned_state = new_state
            sp.set(cells=folded.storage_cells())
        obs.set_gauge("olap.lattice.cells", folded.storage_cells())
        return folded

    def retag(self, new_state: CubeState) -> "MaterializedCube":
        """A new lattice serving the same node tables for ``new_state``.

        Valid only when the new epoch's flat view carries identical rows
        for every materialised level and measure — e.g. after a feedback
        fold, which appends a dimension *column* but leaves every existing
        cell untouched.  Queries over the new dimension are simply not
        covered and fall back to the base scan.
        """
        retagged = MaterializedCube(self.cube)
        retagged._nodes = list(self._nodes)
        retagged._pinned_state = new_state
        return retagged

    @property
    def pinned_epoch(self) -> int | None:
        """Epoch id the nodes answer for (None before materialisation)."""
        return self._pinned_state.epoch if self._pinned_state is not None else None

    @property
    def nodes(self) -> list[tuple[tuple[str, ...], int]]:
        """(levels, cell count) per materialised node."""
        return [(node.levels, node.table.num_rows) for node in self._nodes]

    def storage_cells(self) -> int:
        """Total precomputed cells (the storage cost of the lattice)."""
        return sum(node.table.num_rows for node in self._nodes)

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------

    def aggregate(
        self,
        levels: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]] | None = None,
        filters: Expression | None = None,
        force: bool = False,
        *,
        state: CubeState | None = None,
    ) -> Table:
        """Answer like :meth:`Cube.aggregate`, preferring the lattice.

        The direct-call form of :meth:`answer` (no cache).  ``state``
        pins the epoch to answer for (callers holding a snapshot pass
        theirs; ``None`` uses the cube's current epoch).
        """
        if state is None:
            state = self.cube._current_state()
        plan = self.cube._plan(state, levels, aggregations, filters, force)
        return self.answer(plan, state)

    def answer(self, plan: AggregatePlan, state: CubeState) -> Table:
        """The read pipeline's lattice rung: epoch guard → route → execute.

        Filtered queries stay on the materialised path when every filter
        column is one of the node's levels — the predicate then selects
        whole cells, which aggregate identically to the facts behind them.
        Anything else (``nunique``, level-valued targets, filters on
        non-materialised columns) is handed back to the base scan, as is
        a request for an epoch these cells do not describe.  Every
        hand-back names its ``fallback_reason`` on the ``lattice.lookup``
        span.
        """
        with obs.span("lattice.lookup", levels=",".join(plan.levels)) as sp:
            if state is not self._pinned_state:
                # Epoch guard: a reader holding an older (or newer)
                # snapshot must not be answered from this epoch's cells —
                # scan its own pinned flat view instead.
                obs.count("olap.lattice.epoch_mismatch")
                node, reason = None, "epoch_mismatch"
            else:
                # chaos boundary: this fire is *inside* the lattice tier,
                # so an injected error here trips the lattice breaker in
                # the caller and degrades the query to the base-scan rung
                faults.fire("serving.scan")
                checkpoint()
                # _nodes is kept smallest-first, so the candidates are too
                candidates = QueryPlanner.classify(
                    self._nodes, plan.levels, plan.aggregations,
                    plan.filters, self.RECORDS,
                    self.cube.schema.fact.measures,
                )
                decision = self.cube.runtime.planner.choose_route(candidates)
                node = (
                    candidates[decision.node_index]
                    if decision.kind == "node"
                    else None
                )
                reason = decision.fallback_reason
            if node is None:
                self.stats.fallbacks += 1
                obs.count("olap.lattice.fallback")
                sp.set(outcome="fallback", fallback_reason=reason)
                return self.cube._scan_base(plan, state)
            if set(node.levels) == set(plan.levels):
                self.stats.exact_hits += 1
                obs.count("olap.lattice.exact_hit")
                sp.set(outcome="exact")
            else:
                self.stats.rollup_hits += 1
                obs.count("olap.lattice.rollup_hit")
                sp.set(outcome="rollup")
            sp.set(node=",".join(node.levels), node_cells=node.table.num_rows)
            return self._answer_from_node(
                node, list(plan.levels), plan.aggregations, plan.filters,
                plan.force,
            )

    def _answer_from_node(
        self,
        node: _Node,
        levels: list[str],
        aggregations: Mapping[str, tuple[str, str]],
        filters: Expression | None,
        force: bool,
    ) -> Table:
        plans: dict[str, tuple[str, str]] = {}
        for out_name, (target, func) in aggregations.items():
            if target == self.RECORDS:
                plans[out_name] = ("__records", "sum")
                continue
            measure = self.cube.schema.fact.measure(target)
            validate_aggregation(measure, func, force)
            if func == "sum":
                plans[out_name] = (f"{target}__sum", "sum")
            elif func == "count":
                plans[out_name] = (f"{target}__count", "sum")
            elif func == "size":
                # `size` counts fact rows, nulls included; `{measure}__count`
                # drops nulls, so recompose from the record count instead
                plans[out_name] = ("__records", "sum")
            elif func == "min":
                plans[out_name] = (f"{target}__min", "min")
            elif func == "max":
                plans[out_name] = (f"{target}__max", "max")
            elif func == "mean":
                plans[out_name] = ("__mean__", target)  # recomposed below
            else:
                raise OLAPError(
                    f"aggregation {func!r} cannot be answered from the lattice"
                )

        direct = {
            out: spec for out, spec in plans.items() if spec[0] != "__mean__"
        }
        means = {
            out: spec[1] for out, spec in plans.items() if spec[0] == "__mean__"
        }
        request: dict[str, tuple[str, str]] = dict(direct)
        for out, target in means.items():
            request[f"__{out}__sum"] = (f"{target}__sum", "sum")
            request[f"__{out}__count"] = (f"{target}__count", "sum")

        cells = node.table if filters is None else node.table.filter(filters)
        result = cells.groupby(*levels).agg(**request)
        if not levels and cells.num_rows == 0:
            result = self._empty_grand_total(result, request)

        if means:
            for out in means:
                sums = result.column(f"__{out}__sum").to_list()
                counts = result.column(f"__{out}__count").to_list()
                values = [
                    (s / c if (s is not None and c) else None)
                    for s, c in zip(sums, counts)
                ]
                result = result.with_column(out, values, dtype="float")
                result = result.drop(f"__{out}__sum", f"__{out}__count")
        ordered = levels + [out for out in aggregations]
        result = result.select([c for c in ordered if c in result.column_names])
        return result.sort_by(*levels) if levels else result

    @staticmethod
    def _empty_grand_total(
        result: Table, request: dict[str, tuple[str, str]]
    ) -> Table:
        """The grand total of a slice a filter emptied.

        The base cube's grand total over zero fact rows yields 0 for the
        counting aggregates (``size``/``count``) and null for value
        aggregates; the lattice sums ``__records``/``__count`` cells, and
        a sum over no cells is null, so those outputs are reset to 0.
        """
        for out, (source, func) in request.items():
            if func == "sum" and (
                source == "__records" or source.endswith("__count")
            ):
                result = result.with_column(
                    out, [0], dtype=result.schema[out]
                )
        return result
