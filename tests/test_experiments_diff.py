"""Artifact diffing: ``SweepResult.diff``, ``diff_table`` and the CLI ``diff``.

Covers the "paper vs measured" path: two artifacts of the same grid (possibly
different seeds) pair point-by-point on their parameters and render
side-by-side columns with relative deltas.  Also pins the checked-in golden
artifact (``tests/data/golden-queueing-smoke.jsonl``) that CI diffs against a
fresh run, and checks that every sweep golden is a complete canonical
artifact that ``diff`` reads.
"""

import glob
import json
import os

import pytest

from repro.analysis.tables import diff_table
from repro.exceptions import ConfigurationError
from repro.experiments import (
    JSONL_SCHEMA,
    ParameterGrid,
    Scenario,
    SweepResult,
    SweepRunner,
    get_scenario,
)
from repro.experiments.artifact import canonical_json
from repro.experiments.cli import main as cli_main

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden-queueing-smoke.jsonl")
#: Every checked-in sweep golden (the serve report golden is a ``.json``).
SWEEP_GOLDENS = sorted(glob.glob(os.path.join(DATA, "golden-*.jsonl")))


def tiny_scenario(loads, seed=7) -> Scenario:
    return Scenario(
        name="diff-tiny",
        entry_point="queueing_paired",
        description="tiny diffable sweep",
        base_params={"distribution": "exponential", "copies": 2, "num_requests": 400},
        grid=ParameterGrid({"load": list(loads)}),
        seed=seed,
    )


class TestSweepDiff:
    def test_pairs_by_params_across_different_seeds(self):
        a = SweepRunner().run(tiny_scenario([0.1, 0.2], seed=1))
        b = SweepRunner().run(tiny_scenario([0.1, 0.2], seed=2))
        diff = a.diff(b, labels=("paper", "measured"))
        assert len(diff.pairs) == 2 and not diff.only_base and not diff.only_other
        # Different seeds -> different samples -> the sides genuinely differ.
        assert diff.pairs[0][0].summary["mean"] != diff.pairs[0][1].summary["mean"]
        text = diff.to_table().to_text()
        assert "mean [paper]" in text and "mean [measured]" in text and "Δ%" in text

    def test_unmatched_points_are_collected_not_fatal(self):
        a = SweepRunner().run(tiny_scenario([0.1, 0.2]))
        b = SweepRunner().run(tiny_scenario([0.2, 0.3]))
        diff = a.diff(b)
        assert [p.params["load"] for p, _ in diff.pairs] == [0.2]
        assert [p.params["load"] for p in diff.only_base] == [0.1]
        assert [p.params["load"] for p in diff.only_other] == [0.3]

    def test_disjoint_grids_refuse_to_render(self):
        a = SweepRunner().run(tiny_scenario([0.1]))
        b = SweepRunner().run(tiny_scenario([0.3]))
        with pytest.raises(ConfigurationError, match="no matching points"):
            a.diff(b).to_table()

    def test_custom_columns_and_keys(self):
        a = SweepRunner().run(tiny_scenario([0.1], seed=1))
        b = SweepRunner().run(tiny_scenario([0.1], seed=2))
        table = a.diff(b).to_table(columns=["benefit"], key_columns=["load", "copies"])
        assert table.columns == ["load", "copies", "benefit [a]", "benefit [b]", "benefit Δ%"]
        assert len(table.rows) == 1

    def test_unresolvable_columns_render_blank(self):
        a = SweepRunner().run(tiny_scenario([0.1]))
        table = a.diff(a).to_table(columns=["no_such_metric"])
        assert table.rows[0]["no_such_metric [a]"] is None
        assert table.rows[0]["no_such_metric Δ%"] is None

    def test_identical_artifacts_diff_to_zero_deltas(self):
        a = SweepRunner().run(tiny_scenario([0.1, 0.2]))
        table = a.diff(a).to_table()
        assert all(row["mean Δ%"] == 0.0 for row in table.rows)


class TestDiffTable:
    ROWS = [({"load": 0.1}, {"mean": 2.0}, {"mean": 2.5})]

    def test_delta_percent_and_layout(self):
        table = diff_table("t", ["load"], self.ROWS, ["mean"], labels=("paper", "measured"))
        row = table.rows[0]
        assert row["mean [paper]"] == 2.0 and row["mean [measured]"] == 2.5
        assert row["mean Δ%"] == pytest.approx(25.0)

    def test_delta_undefined_for_zero_or_non_numeric_reference(self):
        rows = [
            ({"load": 0.1}, {"mean": 0.0, "tag": "x"}, {"mean": 2.0, "tag": "y"}),
        ]
        table = diff_table("t", ["load"], rows, ["mean", "tag"])
        assert table.rows[0]["mean Δ%"] is None
        assert table.rows[0]["tag Δ%"] is None

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="value column"):
            diff_table("t", ["load"], self.ROWS, [])
        with pytest.raises(ConfigurationError, match="distinct labels"):
            diff_table("t", ["load"], self.ROWS, ["mean"], labels=("x", "x"))


class TestGoldenArtifact:
    """The checked-in golden artifact stays loadable and reproducible."""

    def test_golden_loads_and_matches_a_fresh_run(self, tmp_path):
        golden = SweepResult.from_jsonl(GOLDEN)
        assert golden.scenario == "queueing-smoke"
        out = tmp_path / "fresh.jsonl"
        fresh = SweepRunner(workers=1).run(
            get_scenario("queueing-smoke"), overrides={"num_requests": 400}, out=str(out)
        )
        # Same seed, same params -> byte-identical artifact; this is the
        # determinism contract the golden file pins across changes.
        assert fresh == golden
        assert out.read_bytes() == open(GOLDEN, "rb").read()

    def test_golden_diffs_against_a_reseeded_run(self, tmp_path):
        fresh = SweepRunner(workers=1).run(
            get_scenario("queueing-smoke"), overrides={"num_requests": 400}, seed=9
        )
        diff = SweepResult.from_jsonl(GOLDEN).diff(fresh, labels=("paper", "measured"))
        assert len(diff.pairs) == 2
        assert "mean Δ%" in diff.to_table().to_text()

    @pytest.mark.parametrize("path", SWEEP_GOLDENS, ids=os.path.basename)
    def test_golden_is_a_complete_canonical_artifact(self, path, capsys):
        with open(path) as handle:
            lines = handle.read().splitlines(keepends=True)
        header, *points = [json.loads(line) for line in lines]
        assert header["kind"] == "header" and header["schema"] == JSONL_SCHEMA
        assert "shard" not in header
        assert [p["kind"] for p in points] == ["point"] * header["num_points"]
        assert [p["index"] for p in points] == list(range(header["num_points"]))
        for line in lines:
            assert canonical_json(json.loads(line)) == line
        assert SweepResult.from_jsonl(path).scenario == header["scenario"]
        # The golden-diff CI smoke's zero-threshold gate, on every substrate's
        # default diff columns.
        assert cli_main(["diff", path, path, "--fail-threshold", "0"]) == 0


class TestDiffCli:
    def _write_artifacts(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        SweepRunner().run(tiny_scenario([0.1, 0.2], seed=1), out=a)
        SweepRunner().run(tiny_scenario([0.1, 0.2], seed=2), out=b)
        return a, b

    def test_diff_renders_both_sides(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path)
        assert cli_main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "mean [paper]" in out and "mean [measured]" in out

    def test_diff_mixes_json_and_jsonl(self, tmp_path, capsys):
        # --out streams one layout whatever the name ends in, so a .json and
        # a .jsonl run of the same sweep hold the same bytes and diff clean.
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.jsonl")
        SweepRunner().run(tiny_scenario([0.1, 0.2], seed=1), out=a)
        SweepRunner().run(tiny_scenario([0.1, 0.2], seed=1), out=b)
        assert open(a, "rb").read() == open(b, "rb").read()
        assert cli_main(["diff", a, b, "--fail-threshold", "0"]) == 0
        assert "mean [paper]" in capsys.readouterr().out

    def test_diff_custom_columns_keys_labels(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path)
        code = cli_main([
            "diff", a, b,
            "--columns", "benefit,p99", "--keys", "load", "--labels", "old,new",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "benefit [old]" in out and "p99 [new]" in out

    def test_diff_reports_unmatched_counts(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        SweepRunner().run(tiny_scenario([0.1, 0.2]), out=a)
        SweepRunner().run(tiny_scenario([0.2, 0.3]), out=b)
        assert cli_main(["diff", a, b]) == 0
        assert "unmatched points: 1 only in paper, 1 only in measured" in capsys.readouterr().out

    def test_diff_bad_labels_rejected(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path)
        assert cli_main(["diff", a, b, "--labels", "solo"]) == 2
        assert "--labels" in capsys.readouterr().err

    def test_diff_incomplete_jsonl_rejected(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path)
        with open(b) as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(b, "w") as handle:
            handle.writelines(lines[:-1])
        assert cli_main(["diff", a, b]) == 2
        assert "incomplete" in capsys.readouterr().err

    def test_diff_names_a_json_document_of_another_layout(self, tmp_path, capsys):
        """A serve report is valid JSON, not a damaged artifact."""
        a, _b = self._write_artifacts(tmp_path)
        report = os.path.join(DATA, "golden-serve-race.json")
        assert cli_main(["diff", a, report]) == 2
        err = capsys.readouterr().err
        assert "not a repro.experiments.sweep-stream/1 artifact" in err
        assert "corrupted" not in err

    def test_from_jsonl_names_a_whole_file_sweep_artifact(self, tmp_path):
        """The pre-stream whole-file layout: one indented JSON document."""
        path = str(tmp_path / "sweep.json")
        with open(path, "w") as handle:
            json.dump({"schema": "repro.experiments.sweep/1", "points": []}, handle, indent=2)
        with pytest.raises(ConfigurationError) as excinfo:
            SweepResult.from_jsonl(path)
        message = str(excinfo.value)
        assert "schema 'repro.experiments.sweep/1'" in message
        assert "not a repro.experiments.sweep-stream/1 artifact" in message
        assert "corrupted" not in message


class TestFailThreshold:
    """``diff --fail-threshold`` turns the comparison into a CI gate."""

    def _write_artifacts(self, tmp_path, seed_b=1):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        SweepRunner().run(tiny_scenario([0.1, 0.2], seed=1), out=a)
        SweepRunner().run(tiny_scenario([0.1, 0.2], seed=seed_b), out=b)
        return a, b

    def test_identical_artifacts_pass_zero_threshold(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path, seed_b=1)
        assert cli_main(["diff", a, b, "--fail-threshold", "0"]) == 0
        out = capsys.readouterr().out
        assert "deltas within 0%" in out

    def test_vacuous_comparison_fails_the_gate(self, tmp_path, capsys):
        # A typo'd --columns name compares nothing — that must fail loudly,
        # not read as a green gate.
        a, b = self._write_artifacts(tmp_path, seed_b=1)
        code = cli_main(["diff", a, b, "--columns", "maen", "--fail-threshold", "0"])
        assert code == 1
        assert "no numeric value pairs were compared" in capsys.readouterr().err

    def test_reseeded_artifacts_fail_tight_threshold(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path, seed_b=2)
        assert cli_main(["diff", a, b, "--fail-threshold", "0.01"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "largest delta" in err

    def test_loose_threshold_tolerates_noise(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path, seed_b=2)
        assert cli_main(["diff", a, b, "--fail-threshold", "1000"]) == 0

    def test_unmatched_points_fail_the_gate(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        SweepRunner().run(tiny_scenario([0.1, 0.2]), out=a)
        SweepRunner().run(tiny_scenario([0.2, 0.3]), out=b)
        assert cli_main(["diff", a, b, "--fail-threshold", "1000"]) == 1
        assert "unmatched point(s)" in capsys.readouterr().err

    def test_negative_threshold_rejected(self, tmp_path, capsys):
        a, b = self._write_artifacts(tmp_path)
        assert cli_main(["diff", a, b, "--fail-threshold", "-1"]) == 2
        assert "--fail-threshold" in capsys.readouterr().err

    def test_max_relative_delta_api(self, tmp_path):
        a, b = self._write_artifacts(tmp_path, seed_b=2)
        diff = SweepResult.from_jsonl(a).diff(SweepResult.from_jsonl(b))
        assert diff.max_relative_delta() > 0.0
        assert SweepResult.from_jsonl(a).diff(SweepResult.from_jsonl(a)).max_relative_delta() == 0.0
