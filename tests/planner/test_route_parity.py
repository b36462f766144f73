"""Oracle-backed route parity: every lattice route ≡ the base scan.

A covered query is answered from the smallest covering node — as an
exact hit, or as a partial rollup of a finer node.  Either answer must
be **byte-identical** to the base-scan oracle.  Hypothesis drives random
tables, grouping sets (the empty one, a grand total, included),
aggregation mixes and predicates through both.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.olap.materialized import MaterializedCube
from repro.tabular.expressions import col

from tests.planner._star import LEVELS, base_scan, build_cube

#: output name -> (target, func); ``v`` is non-additive so no sum
AGG_CHOICES = {
    "n": ("records", "size"),
    "total": ("m", "sum"),
    "m_count": ("m", "count"),
    "m_min": ("m", "min"),
    "m_max": ("m", "max"),
    "v_mean": ("v", "mean"),
    "v_count": ("v", "count"),
}


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    rows = [
        {
            "a": draw(st.sampled_from(["a0", "a1", "a2", "a3"])),
            "b": draw(st.sampled_from(["b0", "b1", "b2"])),
            "c": draw(st.integers(0, 4)),
            "m": draw(st.integers(-9, 99)),
            # 1/32 binary grid: dyadic floats sum exactly in any order,
            # so a rolled-up Σsum/Σcount mean is byte-equal to the base
            # scan's (same convention as tests/dgms/test_incremental.py)
            "v": draw(
                st.one_of(
                    st.none(),
                    st.integers(-1600, 1600).map(lambda x: x / 32.0),
                )
            ),
        }
        for _ in range(n)
    ]
    levels = draw(
        st.lists(st.sampled_from(LEVELS), unique=True, max_size=3)
    )
    names = draw(
        st.lists(
            st.sampled_from(sorted(AGG_CHOICES)),
            unique=True, min_size=1, max_size=3,
        )
    )
    aggregations = {name: AGG_CHOICES[name] for name in names}
    predicate = draw(
        st.sampled_from(
            [
                None,
                ("d1.a", draw(st.sampled_from(["a0", "a1", "a2", "a3"]))),
                ("d2.c", draw(st.integers(0, 4))),
            ]
        )
    )
    return rows, levels, aggregations, predicate


def _filters(predicate):
    if predicate is None:
        return None
    column, value = predicate
    return col(column).eq(value)


def _run_route(rows, levels, aggregations, predicate):
    """Build a lattice-routed cube, answer, and return (result, oracle, lattice)."""
    cube = build_cube(rows)
    lattice = MaterializedCube(cube).materialize([list(LEVELS)])
    cube.attach_lattice(lattice)
    routed = cube.aggregate(levels, aggregations, filters=_filters(predicate))
    oracle = base_scan(
        cube, levels, aggregations, filters=_filters(predicate)
    )
    return routed, oracle, lattice


@given(cases())
@settings(max_examples=30, deadline=None)
def test_node_route_matches_base_oracle(case):
    """Node answers (exact hits and partial rollups) are byte-identical."""
    rows, levels, aggregations, predicate = case
    routed, oracle, lattice = _run_route(rows, levels, aggregations, predicate)
    assert routed.equals(oracle)
    # the full-grain node covers every case: the lattice answered it
    assert lattice.stats.exact_hits + lattice.stats.rollup_hits == 1


@given(cases())
@settings(max_examples=20, deadline=None)
def test_partial_rollup_from_coarser_node(case):
    """A query answered by rolling up a strictly finer node stays exact."""
    rows, levels, aggregations, predicate = case
    # force the rollup case: materialize only the full-grain node and
    # query a strict subset of its levels
    sub_levels = levels[:-1] if len(levels) > 1 else levels
    cube = build_cube(rows)
    lattice = MaterializedCube(cube).materialize([list(LEVELS)])
    cube.attach_lattice(lattice)
    routed = cube.aggregate(sub_levels, aggregations, filters=_filters(predicate))
    oracle = base_scan(
        cube, sub_levels, aggregations, filters=_filters(predicate)
    )
    assert routed.equals(oracle)
