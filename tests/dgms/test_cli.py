"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.tabular.csvio import read_csv


@pytest.fixture()
def cohort_csv(tmp_path):
    path = tmp_path / "cohort.csv"
    exit_code = main(
        ["generate", "--patients", "40", "--seed", "9", "--out", str(path)]
    )
    assert exit_code == 0
    return path


class TestGenerate:
    def test_writes_csv(self, cohort_csv, capsys):
        assert cohort_csv.exists()
        table = read_csv(cohort_csv)
        assert table.column("patient_id").n_unique() == 40
        assert "fbg" in table.column_names

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--patients", "20", "--seed", "4", "--out", str(a)])
        main(["generate", "--patients", "20", "--seed", "4", "--out", str(b)])
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")


class TestReport:
    def test_from_csv(self, cohort_csv, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--cohort", str(cohort_csv),
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "# DiScRi trial report" in text
        assert "attendances" in text

    def test_simulated_inline(self, tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", "--patients", "30", "--seed", "2",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestMdx:
    def test_query_prints_grid(self, cohort_csv, capsys):
        assert main([
            "mdx", "--cohort", str(cohort_csv),
            "SELECT [personal].[gender].MEMBERS ON COLUMNS, "
            "[conditions].[age_band].MEMBERS ON ROWS FROM discri",
            "--totals",
        ]) == 0
        output = capsys.readouterr().out
        assert "TOTAL" in output
        assert "conditions.age_band" in output


class TestFigures:
    def test_prints_all_three(self, cohort_csv, capsys):
        assert main(["figures", "--cohort", str(cohort_csv)]) == 0
        output = capsys.readouterr().out
        assert "Fig 4" in output and "Fig 5" in output and "Fig 6" in output


class TestDictionary:
    def test_plain(self, tmp_path):
        out = tmp_path / "dict.md"
        assert main(["dictionary", "--out", str(out)]) == 0
        assert "# DiScRi data dictionary" in out.read_text(encoding="utf-8")

    def test_with_stats(self, cohort_csv, tmp_path):
        out = tmp_path / "dict.md"
        assert main(["dictionary", "--cohort", str(cohort_csv),
                     "--with-stats", "--out", str(out)]) == 0
        assert "| nulls | distinct |" in out.read_text(encoding="utf-8")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            main(["generate"])


class TestQuarantineRedrive:
    @pytest.fixture()
    def durable_root(self, tmp_path):
        """A durable system with one unrepairable row dead-lettered."""
        from repro.dgms.system import DDDGMS
        from repro.discri.generator import DiScRiGenerator, offset_identifiers
        from repro.tabular.table import Table

        source = DiScRiGenerator(n_patients=12, seed=5).generate()
        root = tmp_path / "sys"
        system = DDDGMS(source, durable_root=root)
        batch = offset_identifiers(
            DiScRiGenerator(n_patients=3, seed=77).generate(),
            patient_offset=1000, visit_offset=100000,
        )
        rows = batch.to_rows()
        rows[0]["visit_date"] = None  # derive step fails on .year
        system.ingest_visits(
            Table.from_rows(rows, schema=dict(source.schema)), batch="y2"
        )
        return root

    @pytest.fixture()
    def restored_obs(self):
        """``stats`` reconfigures the process-wide obs switch; put it back
        (set up before ``capsys`` so the restore sees the real stderr)."""
        from repro import obs

        yield
        obs.disable()
        obs.metrics().reset()
        obs.slow_log().clear()
        obs.configure_from_env()

    def test_stats_reports_the_checkpoint_state(
        self, restored_obs, durable_root, capsys
    ):
        assert main(["stats", "--durable", str(durable_root)]) == 0
        out = capsys.readouterr().out
        section = out.split("== checkpoint ==")[1].split("==")[0]
        reported = dict(line.split() for line in section.strip().splitlines())
        assert reported["generation"] == "1"
        assert int(reported["wal_bytes"]) == (durable_root / "wal.log").stat().st_size
        assert 0 < int(reported["wal_bytes"]) < int(reported["snapshot_bytes"])

    def test_requeued_rows_exit_nonzero(self, durable_root, capsys):
        # no --set repair: the row fails again and re-quarantines
        assert main(["quarantine", "redrive", "--root", str(durable_root)]) == 3
        out = capsys.readouterr().out
        assert "re-quarantined" in out
        assert "1 rows remain quarantined" in out

    def test_successful_repair_exits_zero(self, durable_root, capsys):
        assert main([
            "quarantine", "redrive", "--root", str(durable_root),
            "--set", "visit_date=2009-05-01",
        ]) == 0
        assert "0 rows remain quarantined" in capsys.readouterr().out
