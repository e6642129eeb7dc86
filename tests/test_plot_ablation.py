"""scripts/plot_ablation.py — the hedging-ablation frontier tables.

Run as a subprocess exactly the way EXPERIMENTS.md documents it, against a
small policy-axis artifact produced in-test.
"""

import os
import subprocess
import sys

import pytest

from repro.experiments import SweepRunner, get_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "plot_ablation.py")


def run_script(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, SCRIPT, *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


@pytest.fixture(scope="module")
def ablation_artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ablation") / "ablation.jsonl")
    SweepRunner(workers=1).run(
        get_scenario("standard-queueing-policy-ablation"),
        overrides={"num_requests": 500},
        out=path,
    )
    return path


def test_frontier_table_and_summary(ablation_artifact):
    proc = run_script(ablation_artifact)
    assert proc.returncode == 0, proc.stderr
    assert "mean frontier vs load" in proc.stdout
    # Every policy of the scenario appears, and each load has a starred
    # frontier winner plus a summary line.
    for policy in ("none", "k2", "hedge:500ms", "hedge:p95"):
        assert policy in proc.stdout
    assert proc.stdout.count("frontier@load=") == 2
    assert "*" in proc.stdout


def test_metric_selection(ablation_artifact):
    proc = run_script(ablation_artifact, "--metric", "p99", "--metric2", "")
    assert proc.returncode == 0, proc.stderr
    assert "p99 frontier vs load" in proc.stdout


def test_unknown_x_axis_fails_with_message(ablation_artifact):
    proc = run_script(ablation_artifact, "--x", "bogus")
    assert proc.returncode != 0
    assert "bogus" in proc.stderr


def test_missing_artifact_fails_cleanly():
    proc = run_script("does-not-exist.json")
    assert proc.returncode != 0
    assert "cannot load" in proc.stderr


def test_png_gate_without_matplotlib(ablation_artifact, tmp_path):
    """--png either renders (matplotlib present) or names the dependency."""
    png = str(tmp_path / "frontier.png")
    proc = run_script(ablation_artifact, "--png", png)
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        assert proc.returncode != 0
        assert "matplotlib" in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(png)
