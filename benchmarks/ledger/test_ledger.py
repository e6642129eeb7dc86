"""Quick-mode checks of the ledger benchmark; no timing assertions.

Two quick runs of every workload (one traced at seed 0, one plain at
seed 1) and two synthetic comparisons, all in tiny sizes.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    runs = {}
    for label, extra in (("traced", ["--seed", "0", "--trace"]), ("plain", ["--seed", "1"])):
        path = str(out / f"{label}.json")
        completed = _script("run.py", "--quick", "--seconds", "0", "--repeats", "1",
                            "--out", path, *extra)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        with open(path, encoding="utf-8") as handle:
            runs[label] = (completed.stdout, json.load(handle), path)
    return runs


def test_every_declared_metric_is_printed_with_its_unit(quick_runs):
    for label, declared in (("plain", "end_to_end"), ("traced", "per_layer")):
        stdout, _results, _path = quick_runs[label]
        lines = stdout.splitlines()
        final = json.loads(lines[-1])
        assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
        for metric in BENCHMARK[declared]:
            name, unit = metric["name"], metric["unit"]
            for workload in WORKLOADS:
                assert final["metrics"][f"{workload}/{name}"]["unit"] == unit
            rows = [line.split() for line in lines if line.split()[:1] == [name]]
            assert len(rows) == len(WORKLOADS) and all(row[1] == unit for row in rows)


def test_traced_run_reproduces_untraced_digests(quick_runs):
    _stdout, results, path = quick_runs["traced"]
    for name, result in results["runs"][0]["workloads"].items():
        # Every traced run was checked against the untraced warm-up.
        assert result["runs"]["traced"] >= 1 and result["correct"], (name, result["errors"])
    with open(path + ".trace.jsonl", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {span["workload"] for span in spans} == set(WORKLOADS)


def test_changing_the_seed_changes_the_digests(quick_runs):
    seed0 = quick_runs["traced"][1]["runs"][0]["workloads"]
    seed1 = quick_runs["plain"][1]["runs"][0]["workloads"]
    for name in WORKLOADS:
        if seed0[name]["digests"]:
            assert seed0[name]["digests"] != seed1[name]["digests"], name


def _synthetic(scale=1.0):
    """Ten runs of every workload with tightly spread end-to-end values."""
    runs = []
    for seed in range(10):
        metrics = {
            metric["name"]: {"value": (100.0 + seed % 3) * (scale if metric["name"]
                             == "throughput_per_s" else 1.0), "q1": 0, "q3": 0, "n": 1}
            for metric in BENCHMARK["end_to_end"]
        }
        runs.append({"seed": seed, "workloads": {
            name: {"metrics": copy.deepcopy(metrics)} for name in WORKLOADS}})
    return {"runs": runs}


def test_compare_passes_identical_sets_and_flags_a_drop(tmp_path):
    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}["throughput_per_s"]
    base, drop = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_synthetic()))
    drop.write_text(json.dumps(_synthetic(scale=1.0 - 1.5 * bound)))
    same = _script("compare.py", str(base), str(base))
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "unresolved" not in same.stdout
    flagged = _script("compare.py", str(base), str(drop))
    assert flagged.returncode == 1
    rows = [line.split() for line in flagged.stdout.splitlines()[1:]]
    assert {row[0] for row in rows if row[-1] == "worse"} == set(WORKLOADS)
    assert all(row[1] == "throughput_per_s" for row in rows if row[-1] == "worse")


def test_compare_pairs_applies_the_nine_in_ten_rule(tmp_path):
    files = []
    for index in range(10):
        for label, scale in (("p", 1.0), ("c", 1.5)):
            path = tmp_path / f"{label}{index}.json"
            data = _synthetic(scale)
            data["runs"] = data["runs"][index:index + 1]
            path.write_text(json.dumps(data))
            files.append(str(path))
    completed = _script("compare.py", "--pairs", *files)
    assert completed.returncode == 0, completed.stdout
    rows = [line.split() for line in completed.stdout.splitlines()[1:]]
    assert {row[-1] for row in rows if row[1] == "throughput_per_s"} == {"gain"}
    assert {row[-1] for row in rows if row[1] != "throughput_per_s"} == {"no-gain"}
