"""Sharded sweeps and artifact merging.

The contract under test: splitting a sweep into N shards (``--shard I/N``,
a deterministic partition of the grid by each point's derived seed), running
the shards on separate "machines" (separate runner invocations), and merging
the shard artifacts produces a file **byte-identical** to the single-machine
``--workers 1`` run — for any shard count, any merge order, overlapping
inputs deduplicated, and with hard errors for conflicting records, mismatched
headers and missing points.
"""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    ParameterGrid,
    Scenario,
    SweepResult,
    SweepRunner,
    load_partial,
    merge_artifacts,
    parse_shard,
    point_seed,
    shard_of,
)
from repro.experiments.cli import main as cli_main

LOADS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]


def scenario(seed: int = 7, name: str = "shard-tiny") -> Scenario:
    return Scenario(
        name=name,
        entry_point="queueing_paired",
        description="tiny sharded sweep",
        base_params={"distribution": "exponential", "copies": 2, "num_requests": 300},
        grid=ParameterGrid({"load": LOADS}),
        seed=seed,
    )


def run_shards(tmp_path, count, prefix="shard", scn=None):
    """Run every shard of ``scn`` to its own artifact; return the paths."""
    scn = scn or scenario()
    paths = []
    for index in range(1, count + 1):
        path = str(tmp_path / f"{prefix}{index}of{count}.jsonl")
        SweepRunner(workers=1).run(scn, out=path, shard=(index, count))
        paths.append(path)
    return paths


@pytest.fixture()
def single(tmp_path):
    """The single-machine reference artifact: (path, bytes)."""
    path = str(tmp_path / "single.jsonl")
    SweepRunner(workers=1).run(scenario(), out=path)
    with open(path, "rb") as handle:
        return path, handle.read()


class TestPartition:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
    def test_shards_partition_the_grid(self, count):
        scn = scenario()
        seeds = [
            point_seed(scn.seed, scn.name, params) for params in scn.points()
        ]
        assignment = [shard_of(seed, count) for seed in seeds]
        assert all(1 <= shard <= count for shard in assignment)
        # Disjoint and complete by construction: every point lands in
        # exactly one shard.
        per_shard = [assignment.count(i) for i in range(1, count + 1)]
        assert sum(per_shard) == len(seeds)

    def test_shard_run_executes_only_its_points(self, tmp_path):
        scn = scenario()
        result = SweepRunner(workers=1).run(scn, shard=(1, 3))
        seeds = {p.seed for p in result.points}
        expected = {
            seed
            for seed in (
                point_seed(scn.seed, scn.name, params) for params in scn.points()
            )
            if shard_of(seed, 3) == 1
        }
        assert seeds == expected
        # Global grid indices survive into the shard's results.
        for point in result.points:
            assert point.params["load"] == LOADS[point.index]

    def test_shard_header_stanza(self, tmp_path):
        paths = run_shards(tmp_path, 3)
        total = 0
        for index, path in enumerate(paths, start=1):
            header, points = load_partial(path)
            assert header["num_points"] == len(LOADS)  # sweep identity
            assert header["shard"]["index"] == index
            assert header["shard"]["count"] == 3
            assert header["shard"]["num_points"] == len(points)
            total += len(points)
        assert total == len(LOADS)

    def test_shard_1_of_1_is_unsharded(self, tmp_path, single):
        _path, data = single
        path = str(tmp_path / "one.jsonl")
        SweepRunner(workers=1).run(scenario(), out=path, shard=(1, 1))
        assert open(path, "rb").read() == data

    @pytest.mark.parametrize("bad", [(0, 3), (4, 3), (1, 0), (-1, 2)])
    def test_invalid_shard_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="shard"):
            SweepRunner(workers=1).run(scenario(), shard=bad)

    def test_parse_shard(self):
        assert parse_shard("2/3") == (2, 3)
        assert parse_shard("1/1") is None  # normalises to unsharded
        for bad in ("2of3", "0/3", "4/3", "a/b", "2/"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)


class TestMerge:
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_merge_is_byte_identical_to_single_run(self, tmp_path, single, count):
        _path, data = single
        paths = run_shards(tmp_path, count)
        out = str(tmp_path / f"merged{count}.jsonl")
        summary = merge_artifacts(out, paths)
        assert open(out, "rb").read() == data
        assert summary["points"] == len(LOADS)
        assert summary["duplicates"] == 0

    def test_merge_order_does_not_matter(self, tmp_path, single):
        _path, data = single
        paths = run_shards(tmp_path, 3)
        out = str(tmp_path / "merged-reversed.jsonl")
        merge_artifacts(out, list(reversed(paths)))
        assert open(out, "rb").read() == data

    def test_merge_single_full_artifact_is_exact_rewrite(self, tmp_path, single):
        path, data = single
        out = str(tmp_path / "rewritten.jsonl")
        merge_artifacts(out, [path])
        assert open(out, "rb").read() == data

    def test_merged_artifact_loads_transparently(self, tmp_path, single):
        path, _data = single
        paths = run_shards(tmp_path, 3)
        out = str(tmp_path / "merged.jsonl")
        merge_artifacts(out, paths)
        result = SweepResult.from_jsonl(out)
        assert [p.params["load"] for p in result.points] == LOADS
        assert result == SweepResult.from_jsonl(path)

    def test_overlapping_inputs_deduplicate(self, tmp_path, single):
        path, data = single
        shard_paths = run_shards(tmp_path, 2)
        # The full artifact overlaps both shards completely.
        out = str(tmp_path / "overlap.jsonl")
        summary = merge_artifacts(out, shard_paths + [path])
        assert open(out, "rb").read() == data
        assert summary["duplicates"] == len(LOADS)

    def test_conflicting_record_for_same_seed_is_a_hard_error(self, tmp_path):
        paths = run_shards(tmp_path, 2)
        # Tamper one measured value in a duplicated copy of shard 1: same
        # seed, different bytes -> the merge must refuse to pick a winner.
        lines = open(paths[0]).read().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["scalars"] = dict(record["scalars"], tampered=1.0)
        tampered = str(tmp_path / "tampered.jsonl")
        with open(tampered, "w") as handle:
            handle.write(lines[0])
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(ConfigurationError, match="conflicting records"):
            merge_artifacts(str(tmp_path / "x.jsonl"), paths + [tampered])

    def test_missing_shard_reports_missing_indices(self, tmp_path):
        paths = run_shards(tmp_path, 3)
        missing_indices = [
            p["index"] for p in _points_of(paths[1])
        ]
        with pytest.raises(ConfigurationError) as excinfo:
            merge_artifacts(str(tmp_path / "x.jsonl"), [paths[0], paths[2]])
        message = str(excinfo.value)
        assert "missing grid index" in message
        for index in missing_indices:
            assert str(index) in message
        assert "--resume" in message

    def test_truncated_shard_tail_is_tolerated_then_reported_missing(self, tmp_path):
        paths = run_shards(tmp_path, 2)
        victim = max(paths, key=lambda p: len(_points_of(p)))
        data = open(victim, "rb").read()
        with open(victim, "wb") as handle:
            handle.write(data[: len(data) - 3])  # kill mid-final-line
        with pytest.raises(ConfigurationError, match="missing grid index"):
            merge_artifacts(str(tmp_path / "x.jsonl"), paths)

    def test_truncated_tail_covered_by_overlap_still_merges(self, tmp_path, single):
        path, data = single
        truncated = str(tmp_path / "truncated.jsonl")
        with open(truncated, "wb") as handle:
            handle.write(data[: len(data) - 3])
        out = str(tmp_path / "healed.jsonl")
        merge_artifacts(out, [truncated, path])
        assert open(out, "rb").read() == data

    def test_header_mismatch_names_the_field(self, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        SweepRunner(workers=1).run(scenario(seed=1), out=a, shard=(1, 2))
        SweepRunner(workers=1).run(scenario(seed=2), out=b, shard=(2, 2))
        with pytest.raises(ConfigurationError, match="seed"):
            merge_artifacts(str(tmp_path / "x.jsonl"), [a, b])

    def test_merge_needs_inputs_and_existing_files(self, tmp_path):
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_artifacts(str(tmp_path / "x.jsonl"), [])
        with pytest.raises(ConfigurationError, match="missing or empty"):
            merge_artifacts(str(tmp_path / "x.jsonl"), [str(tmp_path / "nope.jsonl")])

    def test_empty_shards_merge_fine(self, tmp_path):
        # 3 shards over a 2-point grid: at least one shard is empty, and the
        # merge must still reassemble the full artifact.
        scn = Scenario(
            name="shard-mini",
            entry_point="queueing_paired",
            base_params={"distribution": "exponential", "copies": 2, "num_requests": 200},
            grid=ParameterGrid({"load": [0.1, 0.2]}),
            seed=3,
        )
        reference = str(tmp_path / "mini-single.jsonl")
        SweepRunner(workers=1).run(scn, out=reference)
        paths = run_shards(tmp_path, 3, prefix="mini", scn=scn)
        sizes = sorted(len(_points_of(p)) for p in paths)
        assert sizes[0] == 0 and sum(sizes) == 2
        out = str(tmp_path / "mini-merged.jsonl")
        merge_artifacts(out, paths)
        assert open(out, "rb").read() == open(reference, "rb").read()


def _points_of(path):
    _header, points = load_partial(path)
    return sorted(points.values(), key=lambda record: record["index"])


class TestShardResume:
    def test_killed_shard_resumes_to_identical_bytes(self, tmp_path):
        scn = scenario()
        reference = str(tmp_path / "ref.jsonl")
        SweepRunner(workers=1).run(scn, out=reference, shard=(1, 2))
        data = open(reference, "rb").read()
        resumed = str(tmp_path / "resumed.jsonl")
        with open(resumed, "wb") as handle:
            handle.write(data[: len(data) // 2])
        SweepRunner(workers=1).run(scn, out=resumed, resume=True, shard=(1, 2))
        assert open(resumed, "rb").read() == data

    def test_resume_under_a_different_shard_spec_is_rejected(self, tmp_path):
        scn = scenario()
        path = str(tmp_path / "s1.jsonl")
        SweepRunner(workers=1).run(scn, out=path, shard=(1, 2))
        with pytest.raises(ConfigurationError, match="shard"):
            SweepRunner(workers=1).run(scn, out=path, resume=True, shard=(2, 2))
        with pytest.raises(ConfigurationError, match="shard"):
            SweepRunner(workers=1).run(scn, out=path, resume=True)

    def test_from_jsonl_rejects_a_shard_artifact_with_guidance(self, tmp_path):
        path = run_shards(tmp_path, 2)[0]
        with pytest.raises(ConfigurationError, match="merge"):
            SweepResult.from_jsonl(path)


class TestShardCli:
    def _register(self):
        import dataclasses

        from repro.experiments import register_scenario

        register_scenario(
            dataclasses.replace(scenario(), name="shard-cli"), replace=True
        )

    def test_cli_shard_merge_round_trip(self, tmp_path, capsys):
        self._register()
        base = ["run", "shard-cli", "--quiet"]
        single_path = str(tmp_path / "single.jsonl")
        assert cli_main(base + ["--out", single_path]) == 0
        shard_paths = []
        for index in (1, 2, 3):
            path = str(tmp_path / f"s{index}.jsonl")
            assert cli_main(base + ["--out", path, "--shard", f"{index}/3"]) == 0
            shard_paths.append(path)
        merged = str(tmp_path / "merged.jsonl")
        assert cli_main(["merge", merged] + shard_paths) == 0
        assert "byte" in capsys.readouterr().out  # states the guarantee
        assert open(merged, "rb").read() == open(single_path, "rb").read()

    def test_cli_rejects_bad_shard_specs(self, capsys):
        assert cli_main(["run", "queueing-smoke", "--shard", "5/3", "--quiet"]) == 2
        assert "shard" in capsys.readouterr().err
        assert cli_main(["run", "queueing-smoke", "--shard", "nope", "--quiet"]) == 2

    def test_cli_merge_missing_points_fails(self, tmp_path, capsys):
        self._register()
        path = str(tmp_path / "only1.jsonl")
        assert cli_main(["run", "shard-cli", "--quiet", "--out", path, "--shard", "1/3"]) == 0
        assert cli_main(["merge", str(tmp_path / "m.jsonl"), path]) == 2
        assert "missing grid index" in capsys.readouterr().err
