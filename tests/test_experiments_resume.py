"""Resume semantics of the streamed (JSONL) sweep artifact.

The contract under test: a sweep streamed to ``--out``, killed at any byte,
and finished with ``--resume`` — possibly with a different worker count or
chunk size — produces an artifact **byte-identical** to an uninterrupted
run, and re-executes only the points the partial artifact was missing.
"""

import dataclasses
import json

import pytest

import repro.experiments.runner as runner_module
from repro.exceptions import ConfigurationError
from repro.experiments import (
    JSONL_SCHEMA,
    ParameterGrid,
    Scenario,
    SweepResult,
    SweepRunner,
    load_partial,
    load_timing,
    register_scenario,
    timing_sidecar_path,
)
from repro.experiments.artifact import ArtifactWriter, JsonlWriter
from repro.experiments.cli import main as cli_main
from repro.experiments.timing import TimingWriter

LOADS = [0.05, 0.1, 0.15, 0.2]


def tiny_scenario(seed: int = 7) -> Scenario:
    return Scenario(
        name="resume-tiny",
        entry_point="queueing_paired",
        description="tiny resumable sweep",
        base_params={"distribution": "exponential", "copies": 2, "num_requests": 400},
        grid=ParameterGrid({"load": LOADS}),
        seed=seed,
    )


@pytest.fixture()
def full_artifact(tmp_path):
    """An uninterrupted streamed run: (path of a pristine copy, its bytes)."""
    path = str(tmp_path / "full.jsonl")
    SweepRunner(workers=1).run(tiny_scenario(), out=path)
    with open(path, "rb") as handle:
        return path, handle.read()


class TestStreaming:
    def test_artifact_is_header_plus_points_in_grid_order(self, full_artifact):
        _path, data = full_artifact
        lines = data.decode().splitlines()
        assert len(lines) == 1 + len(LOADS)
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema"] == "repro.experiments.sweep-stream/1"
        assert header["num_points"] == len(LOADS)
        indices = [json.loads(line)["index"] for line in lines[1:]]
        assert indices == list(range(len(LOADS)))

    def test_from_jsonl_loads_what_the_run_returned(self, full_artifact):
        path, _data = full_artifact
        result = SweepResult.from_jsonl(path)
        assert result == SweepRunner(workers=1).run(tiny_scenario())
        assert [p.params["load"] for p in result.points] == LOADS

    def test_chunk_size_never_changes_bytes(self, tmp_path, full_artifact, monkeypatch):
        _path, data = full_artifact
        for chunk_size in (1, 3):
            monkeypatch.setattr(runner_module, "DEFAULT_CHUNK_SIZE", chunk_size)
            path = str(tmp_path / f"chunk{chunk_size}.jsonl")
            SweepRunner(workers=1).run(tiny_scenario(), out=path)
            assert open(path, "rb").read() == data

    def test_progress_reports_cached_prefix_then_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "DEFAULT_CHUNK_SIZE", 2)
        calls = []
        SweepRunner(workers=1).run(
            tiny_scenario(),
            out=str(tmp_path / "p.jsonl"),
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(0, 4), (2, 4), (4, 4)]

    def test_chunk_size_is_floored_at_the_worker_count(self, tmp_path, full_artifact, monkeypatch):
        _path, data = full_artifact
        monkeypatch.setattr(runner_module, "DEFAULT_CHUNK_SIZE", 1)
        calls = []
        path = str(tmp_path / "w2.jsonl")
        SweepRunner(workers=2).run(
            tiny_scenario(),
            out=path,
            progress=lambda done, total: calls.append((done, total)),
        )
        # Chunks of max(1, workers) = 2 points: no chunk leaves a worker idle.
        assert calls == [(0, 4), (2, 4), (4, 4)]
        assert open(path, "rb").read() == data


class TestJsonlWriter:
    """The one line writer under the artifact and its timing sidecar."""

    def test_header_then_one_flushed_line_per_write(self, tmp_path):
        path = str(tmp_path / "lines.jsonl")
        writer = JsonlWriter(path, {"kind": "header", "n": 1})
        # Readable before close: a kill loses at most the line in flight.
        assert open(path).read() == '{"kind":"header","n":1}\n'
        writer.write({"b": [1, 2], "a": 0.5})
        assert open(path).read().splitlines()[1] == '{"a":0.5,"b":[1,2]}'
        writer.close()

    def test_opening_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_text("stale\nlines\n")
        JsonlWriter(str(path), {"kind": "header"}).close()
        assert path.read_text() == '{"kind":"header"}\n'

    def test_close_is_idempotent_and_write_after_close_raises(self, tmp_path):
        writer = JsonlWriter(str(tmp_path / "lines.jsonl"), {"kind": "header"})
        writer.close()
        writer.close()
        with pytest.raises(ConfigurationError, match="closed"):
            writer.write({"kind": "point"})

    def test_artifact_and_timing_writers_write_through_it(self, tmp_path):
        artifact = str(tmp_path / "a.jsonl")
        point = {"index": 0, "seed": 5, "params": {"load": 0.1}, "status": "ok"}
        writer = ArtifactWriter(artifact, {"kind": "header", "schema": JSONL_SCHEMA})
        writer.append_point(point)
        timing = TimingWriter(timing_sidecar_path(artifact), {"kind": "timing-header"})
        timing.append(point, 0.25)
        lines = [json.loads(line) for line in open(artifact)]
        assert lines[1] == dict(point, kind="point")
        assert json.loads(open(timing_sidecar_path(artifact)).read().splitlines()[1]) == {
            "kind": "timing", "index": 0, "seed": 5, "params": {"load": 0.1},
            "status": "ok", "elapsed_s": 0.25,
        }
        writer.close()
        timing.close()


class TestResume:
    @pytest.mark.parametrize("cut", ["after_header", "mid_point_line", "two_points"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_killed_run_resumes_to_identical_bytes(self, tmp_path, full_artifact, cut, workers):
        _path, data = full_artifact
        lines = data.decode().splitlines(keepends=True)
        if cut == "after_header":
            partial = lines[0]
        elif cut == "mid_point_line":
            partial = lines[0] + lines[1] + lines[2][: len(lines[2]) // 2]
        else:
            partial = lines[0] + lines[1] + lines[2]
        path = str(tmp_path / "resumed.jsonl")
        with open(path, "w") as handle:
            handle.write(partial)
        SweepRunner(workers=workers).run(tiny_scenario(), out=path, resume=True)
        assert open(path, "rb").read() == data

    def test_resume_executes_only_missing_points(self, tmp_path, full_artifact, monkeypatch):
        _path, data = full_artifact
        lines = data.decode().splitlines(keepends=True)
        path = str(tmp_path / "resumed.jsonl")
        with open(path, "w") as handle:
            handle.write("".join(lines[:3]))  # header + 2 completed points
        executed = []
        real = runner_module._execute_point

        def counting(work):
            executed.append(work[3])
            return real(work)

        monkeypatch.setattr(runner_module, "_execute_point", counting)
        SweepRunner(workers=1).run(tiny_scenario(), out=path, resume=True)
        assert executed == [2, 3]
        assert open(path, "rb").read() == data

    def test_resume_of_complete_artifact_executes_nothing(self, full_artifact, monkeypatch):
        path, data = full_artifact

        def boom(_work):
            raise AssertionError("no point should execute")

        monkeypatch.setattr(runner_module, "_execute_point", boom)
        result = SweepRunner(workers=1).run(tiny_scenario(), out=path, resume=True)
        assert open(path, "rb").read() == data
        assert all(p.ok for p in result.points)

    def test_resume_missing_file_is_a_fresh_run(self, tmp_path, full_artifact):
        _path, data = full_artifact
        path = str(tmp_path / "never-written.jsonl")
        SweepRunner(workers=1).run(tiny_scenario(), out=path, resume=True)
        assert open(path, "rb").read() == data

    def test_resume_requires_an_output_path(self):
        with pytest.raises(ConfigurationError, match="resume"):
            SweepRunner(workers=1).run(tiny_scenario(), resume=True)

    def test_cli_resume_without_out_is_a_usage_error(self, capsys):
        assert cli_main(["run", "queueing-smoke", "--resume", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "--resume" in err and "--out" in err
        assert "out=..." not in err

    def test_resume_rejects_an_artifact_of_a_different_sweep(self, tmp_path):
        path = str(tmp_path / "seed1.jsonl")
        SweepRunner(workers=1).run(tiny_scenario(seed=1), out=path)
        with pytest.raises(ConfigurationError, match="cannot resume"):
            SweepRunner(workers=1).run(tiny_scenario(seed=2), out=path, resume=True)

    def test_foreign_point_records_rejected_on_load(self, tmp_path, full_artifact):
        # `cat a.jsonl b.jsonl` style merges are not a valid artifact: surplus
        # records whose indices don't match the header must not load.
        _path, data = full_artifact
        lines = data.decode().splitlines(keepends=True)
        foreign = json.loads(lines[1])
        foreign["seed"] += 1
        foreign["index"] = 9
        path = str(tmp_path / "cat.jsonl")
        with open(path, "w") as handle:
            handle.write("".join(lines))
            handle.write(json.dumps(foreign, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(ConfigurationError, match="concatenated or"):
            SweepResult.from_jsonl(path)

    def test_corrupt_middle_line_is_rejected_not_guessed(self, tmp_path, full_artifact):
        _path, data = full_artifact
        lines = data.decode().splitlines(keepends=True)
        path = str(tmp_path / "corrupt.jsonl")
        with open(path, "w") as handle:
            handle.write(lines[0] + "{not json}\n" + lines[2])
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_partial(path)

    def test_unterminated_final_line_is_discarded_and_resumed(self, tmp_path, full_artifact):
        # A kill can land exactly between a record's JSON and its newline; the
        # unterminated line is treated as in-flight, discarded, and re-executed.
        _path, data = full_artifact
        path = str(tmp_path / "noeol.jsonl")
        with open(path, "wb") as handle:
            handle.write(data.rstrip(b"\n"))
        _header, points = load_partial(path)
        assert len(points) == len(LOADS) - 1
        SweepRunner(workers=1).run(tiny_scenario(), out=path, resume=True)
        assert open(path, "rb").read() == data


class TestResumeCli:
    @staticmethod
    def _register():
        """Register the tiny scenario under a CLI-visible name."""
        register_scenario(
            dataclasses.replace(tiny_scenario(), name="resume-cli"), replace=True
        )

    def test_cli_kill_and_resume_round_trip(self, tmp_path):
        args = ["run", "resume-cli", "--set", "num_requests=400"]
        self._register()
        full = str(tmp_path / "full.jsonl")
        assert cli_main(args + ["--out", full, "--quiet"]) == 0
        reference = open(full, "rb").read()

        resumed = str(tmp_path / "resumed.jsonl")
        with open(resumed, "wb") as handle:
            handle.write(reference[: len(reference) // 2])
        assert cli_main(args + ["--out", resumed, "--resume", "--workers", "2", "--quiet"]) == 0
        assert open(resumed, "rb").read() == reference

    @pytest.mark.parametrize("name", ["run", "run.json", "run.out", "run.jsonl"])
    def test_cli_out_streams_artifact_and_sidecar_whatever_the_suffix(self, tmp_path, name):
        self._register()
        out = str(tmp_path / name)
        assert cli_main(["run", "resume-cli", "--out", out, "--quiet"]) == 0
        assert SweepResult.from_jsonl(out) == SweepRunner(workers=1).run(
            dataclasses.replace(tiny_scenario(), name="resume-cli")
        )
        header, records = load_timing(timing_sidecar_path(out))
        assert header["artifact"] == name
        assert [r["index"] for r in records] == list(range(len(LOADS)))

    def test_cli_streams_resumes_and_shards_any_out_path(self, tmp_path):
        # --out streams the JSONL artifact whatever the path ends in, so
        # --resume and --shard/merge work on a .json name too.
        args = ["run", "resume-cli", "--set", "num_requests=400", "--quiet"]
        self._register()
        full = str(tmp_path / "full.json")
        assert cli_main(args + ["--out", full]) == 0
        reference = open(full, "rb").read()
        header = json.loads(reference.splitlines()[0])
        assert header["schema"] == "repro.experiments.sweep-stream/1"

        resumed = str(tmp_path / "resumed.json")
        with open(resumed, "wb") as handle:
            handle.write(reference[: len(reference) // 2])
        assert cli_main(args + ["--out", resumed, "--resume"]) == 0
        assert open(resumed, "rb").read() == reference

        shards = [str(tmp_path / f"shard{index}.json") for index in (1, 2)]
        for index, path in enumerate(shards, start=1):
            assert cli_main(args + ["--out", path, "--shard", f"{index}/2"]) == 0
        merged = str(tmp_path / "merged.json")
        assert cli_main(["merge", merged] + shards[::-1]) == 0
        assert open(merged, "rb").read() == reference
