"""The benchmark's pinned surface still exists, by name, where it looks.

``benchmarks/e2e/tracing.py:install`` wraps public callables of every
``repro`` layer by ``cls.__dict__[attr]`` — a method that a refactor
renames, or re-homes into a base class or mixin, raises ``KeyError``
there.  Without this test that is only discovered as a failed benchmark
run; here it fails in tier-1, in milliseconds.
"""

from __future__ import annotations

from benchmarks.e2e.tracing import Tracer, install


def test_every_traced_callable_is_wrappable_and_restorable():
    from repro.olap.cube import Cube

    original = Cube.__dict__["aggregate"]
    instrumentation = install(Tracer())
    try:
        assert Cube.__dict__["aggregate"] is not original
    finally:
        instrumentation.remove()
    assert Cube.__dict__["aggregate"] is original
