"""Tests for the fault-injection layer itself."""

import ast
from pathlib import Path

import pytest

import repro

from repro.errors import InjectedFault, StorageError
from repro.storage import faults
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash, plan_from_env

# synthetic points used throughout this module (arm-time validation would
# otherwise reject them as typos)
for _point in ("p", "q", "x", "other"):
    faults.register_point(_point)


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.uninstall()


class TestModes:
    def test_error_fires_on_nth_hit_only(self):
        plan = faults.install(FaultPlan([FaultRule("p", mode="error", nth=3)]))
        assert faults.before_write("p", b"a") == b"a"
        assert faults.before_write("p", b"b") == b"b"
        with pytest.raises(InjectedFault):
            faults.before_write("p", b"c")
        # after the nth hit the point behaves normally again
        assert faults.before_write("p", b"d") == b"d"
        assert plan.hits("p") == 4

    def test_kill_raises_simulated_crash(self):
        faults.install(FaultPlan([FaultRule("p", mode="kill")]))
        with pytest.raises(SimulatedCrash) as info:
            faults.before_write("p", b"data")
        assert info.value.point == "p"

    def test_kill_is_not_an_ordinary_exception(self):
        faults.install(FaultPlan([FaultRule("p", mode="kill")]))
        with pytest.raises(SimulatedCrash):
            try:
                faults.before_write("p", b"data")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("SimulatedCrash must escape `except Exception`")

    def test_short_truncates_then_crashes(self):
        faults.install(FaultPlan([FaultRule("p", mode="short", keep_fraction=0.5)]))
        data = faults.before_write("p", b"0123456789")
        assert data == b"01234"
        with pytest.raises(SimulatedCrash):
            faults.after_write("p")
        # the pending crash is delivered exactly once
        faults.after_write("p")

    def test_flip_corrupts_silently(self):
        faults.install(FaultPlan([FaultRule("p", mode="flip")]))
        data = faults.before_write("p", b"\x00\x00\x00\x00")
        assert data != b"\x00\x00\x00\x00"
        assert len(data) == 4
        faults.after_write("p")  # no crash

    def test_unmatched_points_pass_through(self):
        faults.install(FaultPlan([FaultRule("other", mode="kill")]))
        assert faults.before_write("p", b"x") == b"x"

    def test_no_plan_is_a_noop(self):
        assert faults.before_write("anything", b"x") == b"x"
        faults.after_write("anything")
        faults.fire("anything")

    def test_injected_context_manager_disarms(self):
        with faults.injected([FaultRule("p", mode="error")]):
            assert faults.active() is not None
        assert faults.active() is None

    def test_bad_mode_rejected(self):
        with pytest.raises(StorageError, match="unknown fault mode"):
            FaultRule("p", mode="explode")

    def test_bad_nth_rejected(self):
        with pytest.raises(StorageError, match="nth"):
            FaultRule("p", nth=-1)

    def test_nth_zero_fires_on_every_hit(self):
        rule = FaultRule("p", nth=0)
        assert all(rule.matches("p", count) for count in (1, 2, 7))

    def test_every_hit_parses_from_env(self):
        plan = plan_from_env("p:error@0,q:slow@*")
        assert plan.rules == [
            FaultRule("p", mode="error", nth=0),
            FaultRule("q", mode="slow", nth=0),
        ]


class TestEnvParsing:
    def test_empty_is_none(self):
        assert plan_from_env("") is None
        assert plan_from_env("   ") is None

    def test_single_rule_defaults(self):
        plan = plan_from_env("wal.commit")
        assert plan.rules == [FaultRule("wal.commit", mode="error", nth=1)]

    def test_full_grammar(self):
        plan = plan_from_env("wal.commit:kill@2, snapshot.manifest:short ;p:flip@5")
        assert plan.rules == [
            FaultRule("wal.commit", mode="kill", nth=2),
            FaultRule("snapshot.manifest", mode="short", nth=1),
            FaultRule("p", mode="flip", nth=5),
        ]

    def test_bad_nth_rejected(self):
        with pytest.raises(StorageError, match="occurrence"):
            plan_from_env("p:kill@soon")

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "x:error@7")
        plan = plan_from_env()
        assert plan.rules == [FaultRule("x", mode="error", nth=7)]


class TestIngestFaultModes:
    def test_transient_raises_typed_error(self):
        from repro.errors import TransientIngestError

        faults.install(FaultPlan([FaultRule("p", mode="transient")]))
        with pytest.raises(TransientIngestError, match="transient"):
            faults.fire("p")
        faults.fire("p")  # only the nth hit fires

    def test_permanent_raises_typed_error(self):
        from repro.errors import PermanentIngestError

        faults.install(FaultPlan([FaultRule("p", mode="permanent")]))
        with pytest.raises(PermanentIngestError, match="permanent"):
            faults.fire("p")

    def test_env_grammar_accepts_new_modes(self):
        plan = plan_from_env("ingest.oltp:transient@2,ingest.lattice:permanent")
        assert plan.rules == [
            FaultRule("ingest.oltp", mode="transient", nth=2),
            FaultRule("ingest.lattice", mode="permanent", nth=1),
        ]


class TestArmTimeValidation:
    def test_install_rejects_unknown_point(self):
        plan = FaultPlan([FaultRule("wal.comit", mode="kill")])  # typo'd
        with pytest.raises(StorageError, match="unknown fault point"):
            faults.install(plan)
        # nothing was armed: a subsequent fire is a no-op
        faults.fire("wal.commit")

    def test_plan_from_env_rejects_unknown_point(self):
        with pytest.raises(StorageError, match="unknown fault point"):
            plan_from_env("storage.compactoin:kill@1")

    def test_error_names_the_offender_and_the_remedy(self):
        with pytest.raises(StorageError) as info:
            faults.validate_points(["definitely.not.a.point"])
        message = str(info.value)
        assert "definitely.not.a.point" in message
        assert "register_point" in message

    def test_register_point_legalises_a_new_boundary(self):
        name = faults.register_point("test.custom.boundary")
        assert name in faults.known_points()
        faults.install(FaultPlan([FaultRule(name, mode="error", nth=1)]))
        with pytest.raises(InjectedFault):
            faults.fire(name)

    def test_register_point_rejects_empty(self):
        with pytest.raises(StorageError, match="empty"):
            faults.register_point("   ")

    def test_known_points_cover_rename_halves(self):
        points = faults.known_points()
        assert "wal.commit" in points
        assert "snapshot.manifest" in points
        assert "snapshot.manifest.rename" in points


def test_every_core_point_is_fired_somewhere():
    """A registered point no module names can never fire: a rule armed at
    it would stay silently green.  Every core point except the derived
    ``.rename`` halves must appear as a string literal in a ``repro``
    module other than the registry itself."""
    package = Path(repro.__file__).parent
    registry = package / "storage" / "faults.py"
    literals: set[str] = set()
    for path in package.rglob("*.py"):
        if path == registry:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
    derived = {p + ".rename" for p in faults._ATOMIC_WRITE_POINTS}
    assert sorted(faults.CORE_POINTS - derived - literals) == []
