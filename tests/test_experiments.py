"""Tests for the scenario-sweep subsystem (`repro.experiments`)."""

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ADAPTERS,
    JSONL_SCHEMA,
    ParameterGrid,
    Scenario,
    SweepResult,
    SweepRunner,
    get_scenario,
    point_key,
    point_seed,
    register_scenario,
    resolve_adapter,
    scenario_names,
)
from repro.experiments.artifact import canonical_json
from repro.experiments.cli import main as cli_main


def tiny_scenario(**base_overrides) -> Scenario:
    """A fast paired-queueing scenario used throughout these tests."""
    base = {"distribution": "exponential", "copies": 2, "num_requests": 600}
    base.update(base_overrides)
    return Scenario(
        name="test-tiny",
        entry_point="queueing_paired",
        description="tiny test sweep",
        base_params=base,
        grid=ParameterGrid({"load": [0.1, 0.3]}),
        seed=7,
    )


class TestParameterGrid:
    def test_expansion_order_is_row_major(self):
        grid = ParameterGrid({"a": [1, 2], "b": ["x", "y"]})
        assert list(grid) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert len(grid) == 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid({})
        with pytest.raises(ConfigurationError):
            ParameterGrid({"a": []})

    def test_axes_returns_a_copy(self):
        grid = ParameterGrid({"a": [1]})
        grid.axes["a"].append(2)
        assert len(grid) == 1


class TestScenario:
    def test_points_merge_base_params_under_grid(self):
        scenario = tiny_scenario()
        points = list(scenario.points())
        assert len(points) == scenario.num_points() == 2
        assert points[0]["load"] == 0.1 and points[0]["copies"] == 2

    def test_grid_axis_overrides_base_param(self):
        scenario = Scenario(
            name="s", entry_point="queueing",
            base_params={"load": 0.9},
            grid=ParameterGrid({"load": [0.1]}),
        )
        assert list(scenario.points()) == [{"load": 0.1}]

    def test_with_overrides_merges_and_reseeds(self):
        scenario = tiny_scenario().with_overrides({"num_requests": 50}, seed=9)
        assert scenario.base_params["num_requests"] == 50
        assert scenario.base_params["distribution"] == "exponential"
        assert scenario.seed == 9

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="", entry_point="queueing", grid=ParameterGrid({"load": [0.1]}))


class TestPointSeeds:
    def test_seed_depends_only_on_scenario_and_params(self):
        params = {"load": 0.1, "copies": 2}
        assert point_seed(7, "s", params) == point_seed(7, "s", dict(reversed(list(params.items()))))
        assert point_seed(7, "s", params) != point_seed(8, "s", params)
        assert point_seed(7, "s", params) != point_seed(7, "t", params)
        assert point_seed(7, "s", params) != point_seed(7, "s", {"load": 0.2, "copies": 2})

    def test_point_key_is_order_insensitive(self):
        assert point_key({"a": 1, "b": 2}) == point_key({"b": 2, "a": 1})


class TestAdapters:
    def test_registry_covers_all_substrates(self):
        assert {
            "queueing", "queueing_paired", "database", "memcached",
            "fattree", "dns", "handshake",
        } <= set(ADAPTERS)

    def test_resolve_unknown_adapter_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_adapter("nope")

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            ADAPTERS["queueing"]({"distribution": "cauchy", "load": 0.1}, seed=0)

    def test_queueing_adapter_shape(self):
        out = ADAPTERS["queueing"](
            {"load": 0.2, "copies": 2, "num_requests": 500}, seed=3
        )
        assert out["summary"]["count"] == 450  # 10% warmup discarded
        assert out["metrics"]["requests"] == 500
        assert out["metrics"]["copies_launched"] == 1000
        assert out["scalars"]["mean"] > 0

    def test_paired_adapter_uses_common_random_numbers(self):
        out = ADAPTERS["queueing_paired"](
            {"distribution": "exponential", "load": 0.1, "copies": 2, "num_requests": 2_000},
            seed=5,
        )
        scalars = out["scalars"]
        assert scalars["benefit"] == pytest.approx(
            scalars["mean_baseline"] - scalars["mean_replicated"]
        )
        assert scalars["replication_helps"] is True


class TestSweepRunner:
    def test_results_in_grid_order_with_derived_seeds(self):
        result = SweepRunner(workers=1).run(tiny_scenario())
        assert [p.index for p in result.points] == [0, 1]
        assert [p.params["load"] for p in result.points] == [0.1, 0.3]
        for point in result.points:
            assert point.seed == point_seed(7, "test-tiny", point.params)
            assert point.ok and point.summary["count"] > 0

    def test_parallel_matches_serial_bit_for_bit(self):
        scenario = tiny_scenario()
        serial = SweepRunner(workers=1).run(scenario)
        parallel = SweepRunner(workers=4).run(scenario)
        assert serial == parallel

    def test_infeasible_points_are_recorded_not_fatal(self):
        scenario = Scenario(
            name="test-saturated",
            entry_point="queueing",
            base_params={"num_requests": 200},
            grid=ParameterGrid({"load": [0.1, 0.6], "copies": [2]}),
        )
        result = SweepRunner(workers=1).run(scenario)
        assert [p.status for p in result.points] == ["ok", "infeasible"]
        assert "CapacityError" in result.points[1].error
        assert result.ok_points() == [result.points[0]]

    def test_overrides_apply_without_mutating_scenario(self):
        scenario = tiny_scenario()
        result = SweepRunner(workers=1).run(scenario, overrides={"num_requests": 100})
        assert scenario.base_params["num_requests"] == 600
        assert result.base_params["num_requests"] == 100
        assert all(p.params["num_requests"] == 100 for p in result.points)

    def test_override_of_swept_parameter_rejected(self):
        # The grid axis would silently win, so the runner refuses rather than
        # writing an artifact whose base_params claim a value no point used.
        with pytest.raises(ConfigurationError, match="swept parameter"):
            SweepRunner(workers=1).run(tiny_scenario(), overrides={"load": 0.9})

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(workers=0)

    def test_unknown_entry_point_fails_before_spawning(self):
        scenario = Scenario(
            name="bad", entry_point="nope", grid=ParameterGrid({"load": [0.1, 0.2]})
        )
        with pytest.raises(ConfigurationError):
            SweepRunner(workers=2).run(scenario)


class TestSweepResult:
    @pytest.fixture(scope="class")
    def result(self):
        return SweepRunner(workers=1).run(tiny_scenario())

    def test_json_roundtrip(self, result, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        SweepRunner(workers=1).run(tiny_scenario(), out=path)
        text = open(path).read()
        # Every line re-encodes to itself, so loading and re-writing a
        # record can never move a byte of the artifact.
        for line in text.splitlines(keepends=True):
            assert canonical_json(json.loads(line)) == line
        assert SweepResult.from_jsonl(path) == result

    def test_json_is_canonical(self, result, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        SweepRunner(workers=1).run(tiny_scenario(), out=path)
        header, *points = [json.loads(line) for line in open(path)]
        assert header["schema"] == JSONL_SCHEMA == "repro.experiments.sweep-stream/1"
        assert header["num_points"] == len(result.points)
        assert [p["index"] for p in points] == [0, 1]

    def test_csv_has_one_row_per_point(self, result):
        lines = result.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(result.points)
        header = lines[0].split(",")
        assert {"index", "seed", "status", "load", "benefit"} <= set(header)

    def test_select_and_column(self, result):
        assert len(result.select(load=0.1)) == 1
        benefits = result.column("benefit")
        assert len(benefits) == 2 and all(isinstance(b, float) for b in benefits)

    def test_to_table_feeds_analysis_tables(self, result):
        table = result.to_table(["load", "benefit", "p99"], title="t")
        text = table.to_text()
        assert "load" in text and "benefit" in text
        assert len(table.rows) == 2

    def test_value_lookup_error_names_the_point(self, result):
        with pytest.raises(ConfigurationError, match="no value"):
            result.points[0].value("nonexistent")

    def test_file_roundtrip(self, result, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        SweepRunner(workers=1).run(tiny_scenario(), out=path)
        assert SweepResult.from_jsonl(path) == result
        csv_path = str(tmp_path / "sweep.csv")
        result.to_csv(csv_path)
        assert open(csv_path).readline().startswith("index,")


class TestTiers:
    def test_unknown_tier_rejected_on_scenario_and_lookup(self):
        with pytest.raises(ConfigurationError, match="tier"):
            Scenario(
                name="s", entry_point="queueing", tier="gigantic",
                grid=ParameterGrid({"load": [0.1]}),
            )
        with pytest.raises(ConfigurationError, match="tier"):
            scenario_names(tier="gigantic")

    def test_tier_filtering_partitions_the_catalogue(self):
        from repro.experiments import all_scenarios

        smoke = scenario_names(tier="smoke")
        paper = scenario_names(tier="paper")
        standard = scenario_names(tier="standard")
        assert "queueing-smoke" in smoke
        assert sorted(smoke + paper + standard) == scenario_names()
        assert all(s.tier == "paper" for s in all_scenarios(tier="paper"))

    def test_paper_tier_matches_the_paper_scale(self):
        fattree = get_scenario("paper-fattree-k6")
        assert fattree.tier == "paper" and fattree.base_params["k"] == 6
        assert fattree.grid.axes["replication"] == [False, True]

        dns = get_scenario("paper-dns-matrix")
        assert dns.base_params["num_vantage_points"] == 15
        assert dns.base_params["num_servers"] == 10
        assert dns.grid.axes["copies"] == list(range(1, 11))

        ec2 = get_scenario("paper-database-ec2")
        assert ec2.base_params["variant"] == "ec2"
        assert ec2.grid.axes["copies"] == [1, 2]

    def test_every_database_variant_has_a_standard_scenario(self):
        for variant in (
            "base", "small-files", "pareto-files", "small-cache",
            "ec2", "large-files", "all-cached",
        ):
            scenario = get_scenario(f"database-{variant}")
            assert scenario.entry_point == "database"
            assert scenario.base_params["variant"] == variant.replace("-", "_")

    def test_figure_4_and_13_scenarios_registered(self):
        overhead = get_scenario("queueing-overhead")
        assert "client_overhead" in overhead.grid.axes
        stub = get_scenario("memcached-stub")
        assert stub.grid.axes["stub"] == [False, True]


class TestRegistry:
    def test_at_least_six_substrate_scenarios_registered(self):
        names = scenario_names()
        assert len(names) >= 6
        entry_points = {get_scenario(name).entry_point for name in names}
        assert {
            "queueing", "queueing_paired", "database", "memcached",
            "fattree", "dns", "handshake",
        } <= entry_points

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected_unless_replace(self):
        scenario = get_scenario("queueing-smoke")
        with pytest.raises(ConfigurationError):
            register_scenario(scenario)
        assert register_scenario(scenario, replace=True) is scenario


class TestDeterminismAcrossWorkerCounts:
    """The acceptance contract: identical artifacts for any worker count."""

    def test_smoke_scenario_json_identical_for_1_and_4_workers(self, tmp_path):
        overrides = {"num_requests": 400}
        one = SweepRunner(workers=1).run(get_scenario("queueing-smoke"), overrides=overrides)
        four = SweepRunner(workers=4).run(get_scenario("queueing-smoke"), overrides=overrides)
        assert one == four
        assert one.to_csv() == four.to_csv()

    def test_cli_run_writes_identical_artifacts(self, tmp_path, capsys):
        paths = []
        for workers in (1, 2):
            path = str(tmp_path / f"w{workers}.jsonl")
            code = cli_main([
                "run", "queueing-smoke",
                "--workers", str(workers),
                "--out", path,
                "--set", "num_requests=300",
                "--quiet",
            ])
            assert code == 0
            paths.append(path)
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()


class TestCli:
    def test_list_shows_scenarios(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "queueing-smoke" in out and "database-base" in out
        assert "paper-fattree-k6" in out and "tier" in out

    def test_list_filters_by_tier(self, capsys):
        assert cli_main(["list", "--tier", "paper"]) == 0
        out = capsys.readouterr().out
        assert "paper-dns-matrix" in out and "queueing-smoke" not in out

    def test_show_describes_scenario(self, capsys):
        assert cli_main(["show", "queueing-smoke"]) == 0
        out = capsys.readouterr().out
        assert "queueing_paired" in out and "load" in out

    def test_run_prints_table_and_reports_errors(self, capsys):
        assert cli_main(["run", "queueing-smoke", "--set", "num_requests=300"]) == 0
        out = capsys.readouterr().out
        assert "queueing-smoke" in out and "ok" in out
        assert cli_main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_rejects_malformed_set(self, capsys):
        assert cli_main(["run", "queueing-smoke", "--set", "oops"]) == 2
