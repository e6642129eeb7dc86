"""Tests of the determinism linter (repro.lint)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import flags
from repro.exceptions import ConfigurationError
from repro.lint import (
    META_RULE,
    RULE_IDS,
    Finding,
    lint_paths,
    lint_source,
    load_baseline,
    parse_pragmas,
    save_baseline,
    split_by_baseline,
)
from repro.lint.api import collect_files
from repro.lint.cli import main
from repro.lint.context import ModuleContext, normalize_module_path
from repro.lint.rules.det003_wallclock import ALLOWLIST, WALLCLOCK_CALLS

REPO_ROOT = Path(__file__).resolve().parents[1]

#: A module path inside no special scope (not sanctioned, not experiments/).
PLAIN = "repro/metrics/example.py"


@pytest.fixture(autouse=True)
def _hermetic_repro_env(monkeypatch):
    """Strip undeclared REPRO_* variables so reject_unknown_flags is quiet."""
    for name in list(os.environ):
        if name.startswith(flags.FLAG_PREFIX) and name not in flags.REGISTRY:
            monkeypatch.delenv(name)


def fired(source: str, module: str = PLAIN):
    """Rule ids of the active findings for ``source``."""
    return [finding.rule for finding in lint_source(source, module).findings]


# --------------------------------------------------------------------------- #
# DET001 — seedless generator construction
# --------------------------------------------------------------------------- #


class TestDet001SeedlessRng:
    def test_bare_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert fired(src) == ["DET001"]

    def test_explicit_none_seed_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert fired(src) == ["DET001"]

    def test_seedless_seedsequence_fires(self):
        src = "from numpy.random import SeedSequence\nss = SeedSequence()\n"
        assert fired(src) == ["DET001"]

    def test_seedless_substream_fires(self):
        src = (
            "from repro.sim.rng import substream\n"
            "rng = substream(None, 'exploration')\n"
        )
        assert fired(src) == ["DET001"]

    def test_seeded_construction_is_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(12345)\n"
        assert fired(src) == []

    def test_sanctioned_module_is_exempt(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert fired(src, module="repro/sim/rng.py") == []

    def test_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro: allow[DET001] exploratory notebook helper\n"
        )
        result = lint_source(src, PLAIN)
        assert result.findings == []
        assert [f.rule for f, _reason in result.suppressed] == ["DET001"]
        assert result.suppressed[0][1] == "exploratory notebook helper"


# --------------------------------------------------------------------------- #
# DET002 — global RNG state
# --------------------------------------------------------------------------- #


class TestDet002GlobalRng:
    def test_stdlib_random_fires(self):
        src = "import random\nx = random.random()\n"
        assert fired(src) == ["DET002"]

    def test_stdlib_random_alias_fires(self):
        src = "import random as rnd\nrnd.shuffle([1, 2])\n"
        assert fired(src) == ["DET002"]

    def test_legacy_numpy_global_draw_fires(self):
        src = "import numpy as np\nx = np.random.normal(0.0, 1.0)\n"
        assert fired(src) == ["DET002"]

    def test_generator_constructors_are_clean(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "state = np.random.PCG64(7)\n"
        )
        assert fired(src) == []

    def test_draws_on_explicit_generator_are_clean(self):
        src = "def f(rng):\n    return rng.normal(0.0, 1.0)\n"
        assert fired(src) == []


# --------------------------------------------------------------------------- #
# DET003 — wall-clock reads
# --------------------------------------------------------------------------- #


class TestDet003WallClock:
    def test_time_time_fires(self):
        src = "import time\ndef f():\n    return time.time()\n"
        assert fired(src) == ["DET003"]

    def test_from_import_perf_counter_fires(self):
        src = "from time import perf_counter\ndef f():\n    return perf_counter()\n"
        assert fired(src) == ["DET003"]

    def test_datetime_now_fires(self):
        src = "import datetime\ndef f():\n    return datetime.datetime.now()\n"
        assert fired(src) == ["DET003"]

    def test_allowlisted_runner_scope_is_clean(self):
        src = (
            "import time\n"
            "def _execute_point(point):\n"
            "    t0 = time.perf_counter()\n"
            "    return t0\n"
        )
        assert fired(src, module="repro/experiments/runner.py") == []

    def test_allowlist_is_scope_specific(self):
        src = "import time\ndef other():\n    return time.perf_counter()\n"
        assert fired(src, module="repro/experiments/runner.py") == ["DET003"]

    @pytest.mark.parametrize("module,prefix", [entry[:2] for entry in ALLOWLIST])
    def test_every_allowlist_entry_covers_a_wall_clock_call(self, module, prefix):
        """A stale entry would silently sanction a later read in its scope."""
        ctx = ModuleContext((REPO_ROOT / "src" / module).read_text(), module)
        assert any(
            name in WALLCLOCK_CALLS and ctx.qualname(call).startswith(prefix)
            for call, name in ctx.calls()
        )

    def test_pragma_suppresses(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  "
            "# repro: allow[DET003] debug log only, never serialized\n"
        )
        result = lint_source(src, PLAIN)
        assert result.findings == []
        assert len(result.suppressed) == 1


# --------------------------------------------------------------------------- #
# DET004 — unordered iteration in experiments/
# --------------------------------------------------------------------------- #


class TestDet004UnorderedIteration:
    EXP = "repro/experiments/example.py"

    def test_for_over_set_literal_fires(self):
        src = "for name in {'a', 'b'}:\n    print(name)\n"
        assert fired(src, module=self.EXP) == ["DET004"]

    def test_list_of_set_call_fires(self):
        src = "def f(xs):\n    return list(set(xs))\n"
        assert fired(src, module=self.EXP) == ["DET004"]

    def test_comprehension_over_set_algebra_fires(self):
        src = "def f(a, b):\n    return [x for x in set(a) | set(b)]\n"
        assert fired(src, module=self.EXP) == ["DET004"]

    def test_join_of_set_fires(self):
        src = "def f(names, sep):\n    return sep.join({n for n in names})\n"
        assert fired(src, module=self.EXP) == ["DET004"]

    def test_sorted_wrapper_is_clean(self):
        src = "def f(xs):\n    return [x for x in sorted(set(xs))]\n"
        assert fired(src, module=self.EXP) == []

    def test_order_insensitive_consumers_are_clean(self):
        src = "def f(xs):\n    return sum(set(xs)) + len({1, 2}) + max(set(xs))\n"
        assert fired(src, module=self.EXP) == []

    def test_outside_experiments_scope_is_clean(self):
        src = "for name in {'a', 'b'}:\n    print(name)\n"
        assert fired(src, module=PLAIN) == []


# --------------------------------------------------------------------------- #
# DET005 — hidden randomness in public functions
# --------------------------------------------------------------------------- #


class TestDet005HiddenDefault:
    def test_public_function_with_literal_seed_fires(self):
        src = (
            "import numpy as np\n"
            "def sample(n):\n"
            "    rng = np.random.default_rng(0)\n"
            "    return rng.random(n)\n"
        )
        assert fired(src) == ["DET005"]

    def test_rng_parameter_is_clean(self):
        src = (
            "import numpy as np\n"
            "def sample(n, rng=None):\n"
            "    rng = rng if rng is not None else np.random.default_rng(0)\n"
            "    return rng.random(n)\n"
        )
        assert fired(src) == []

    def test_seed_parameter_on_enclosing_function_is_clean(self):
        src = (
            "import numpy as np\n"
            "def outer(seed):\n"
            "    def inner():\n"
            "        return np.random.default_rng(0)\n"
            "    return inner\n"
        )
        assert fired(src) == []

    def test_private_helper_is_clean(self):
        src = (
            "import numpy as np\n"
            "def _bootstrap(n):\n"
            "    return np.random.default_rng(0).random(n)\n"
        )
        assert fired(src) == []

    def test_caller_controlled_seed_expression_is_clean(self):
        src = (
            "from repro.sim.rng import substream\n"
            "def run(config):\n"
            "    rng = substream(config.seed, 'arrivals')\n"
            "    return rng\n"
        )
        assert fired(src) == []

    def test_statically_fixed_substream_fires(self):
        src = (
            "from repro.sim.rng import substream\n"
            "def run():\n"
            "    return substream(0, 'arrivals')\n"
        )
        assert fired(src) == ["DET005"]


# --------------------------------------------------------------------------- #
# DET006 — json sort_keys
# --------------------------------------------------------------------------- #


class TestDet006JsonSortKeys:
    def test_dumps_without_sort_keys_fires(self):
        src = "import json\ndef f(d):\n    return json.dumps(d)\n"
        assert fired(src) == ["DET006"]

    def test_dump_without_sort_keys_fires(self):
        src = "import json\ndef f(d, fh):\n    json.dump(d, fh)\n"
        assert fired(src) == ["DET006"]

    def test_sort_keys_false_fires(self):
        src = "import json\ndef f(d):\n    return json.dumps(d, sort_keys=False)\n"
        assert fired(src) == ["DET006"]

    def test_sort_keys_true_is_clean(self):
        src = "import json\ndef f(d):\n    return json.dumps(d, sort_keys=True)\n"
        assert fired(src) == []

    def test_pragma_suppresses(self):
        src = (
            "import json\n"
            "def show(d):\n"
            "    return json.dumps(d, indent=2)  "
            "# repro: allow[DET006] terminal display only\n"
        )
        assert fired(src) == []


# --------------------------------------------------------------------------- #
# DET007 — flag registry boundary
# --------------------------------------------------------------------------- #


class TestDet007FlagRegistry:
    def test_environ_get_of_repro_var_fires(self):
        src = "import os\nmode = os.environ.get('REPRO_CKERNELS', '1')\n"
        assert fired(src) == ["DET007"]

    def test_getenv_fires(self):
        src = "import os\nmode = os.getenv('REPRO_CKERNELS')\n"
        assert fired(src) == ["DET007"]

    def test_environ_subscript_fires(self):
        src = "import os\nmode = os.environ['REPRO_CKERNELS']\n"
        assert fired(src) == ["DET007"]

    def test_name_via_module_constant_fires(self):
        src = (
            "import os\n"
            "FLAG = 'REPRO_CKERNELS'\n"
            "mode = os.environ.get(FLAG)\n"
        )
        assert fired(src) == ["DET007"]

    def test_non_repro_env_read_is_clean(self):
        src = "import os\nhome = os.environ.get('HOME', '/root')\n"
        assert fired(src) == []

    def test_flags_module_itself_may_read_environ(self):
        src = "import os\nvalue = os.environ.get('REPRO_CKERNELS', '1')\n"
        assert fired(src, module="repro/flags.py") == []

    def test_declare_with_literal_name_and_help_is_clean(self):
        src = (
            "FLAG = declare('REPRO_GOOD', default='a', choices=('a',),"
            " help='does a thing')\n"
        )
        assert fired(src, module="repro/flags.py") == []

    def test_declare_with_non_literal_name_fires(self):
        src = "name = 'REPRO_X'\nFLAG = declare(name, default='a', help='h')\n"
        assert fired(src, module="repro/flags.py") == ["DET007"]

    def test_declare_without_help_fires(self):
        src = "FLAG = declare('REPRO_X', default='a', choices=('a',))\n"
        assert fired(src, module="repro/flags.py") == ["DET007"]


# --------------------------------------------------------------------------- #
# Pragmas
# --------------------------------------------------------------------------- #


class TestPragmas:
    KNOWN = RULE_IDS - {META_RULE}

    def test_parse_valid_pragma(self):
        src = "x = 1  # repro: allow[DET001] exploratory only\n"
        pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert errors == []
        assert pragmas[1].rules == frozenset({"DET001"})
        assert pragmas[1].reason == "exploratory only"

    def test_multi_rule_pragma(self):
        src = "x = 1  # repro: allow[DET001, DET003] both justified here\n"
        pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert errors == []
        assert pragmas[1].rules == frozenset({"DET001", "DET003"})

    def test_missing_reason_is_det000(self):
        src = "x = 1  # repro: allow[DET001]\n"
        pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert pragmas == {}
        assert [e.rule for e in errors] == [META_RULE]
        assert "reason" in errors[0].message

    def test_unknown_rule_is_det000(self):
        src = "x = 1  # repro: allow[DET999] because\n"
        _pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert [e.rule for e in errors] == [META_RULE]
        assert "DET999" in errors[0].message

    def test_malformed_marker_is_det000(self):
        src = "x = 1  # repro: suppress everything please\n"
        _pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert [e.rule for e in errors] == [META_RULE]

    def test_empty_rule_list_is_det000(self):
        src = "x = 1  # repro: allow[] because\n"
        _pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert [e.rule for e in errors] == [META_RULE]

    def test_pragma_inside_string_literal_is_ignored(self):
        src = 'text = "# repro: allow[DET001] not a pragma"\n'
        pragmas, errors = parse_pragmas(src, PLAIN, self.KNOWN)
        assert pragmas == {}
        assert errors == []

    def test_pragma_only_covers_its_own_line(self):
        src = (
            "import numpy as np\n"
            "# repro: allow[DET001] wrong line\n"
            "rng = np.random.default_rng()\n"
        )
        assert fired(src) == ["DET001"]

    def test_pragma_does_not_suppress_other_rules(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: allow[DET006] wrong rule\n"
        )
        assert fired(src) == ["DET003"]

    def test_unparsable_file_is_det000(self):
        result = lint_source("def broken(:\n", PLAIN)
        assert [f.rule for f in result.findings] == [META_RULE]


# --------------------------------------------------------------------------- #
# Baseline round-trip
# --------------------------------------------------------------------------- #


def _finding(module=PLAIN, rule="DET006", code="x = json.dumps(d)", line=3):
    return Finding(
        module=module, line=line, col=0, rule=rule, message="msg", code=code
    )


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [_finding(), _finding(rule="DET003", code="t = time.time()")]
        save_baseline(str(path), findings)
        loaded = load_baseline(str(path))
        new, baselined, stale = split_by_baseline(findings, loaded)
        assert new == []
        assert len(baselined) == 2
        assert stale == []

    def test_save_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        findings = [_finding(), _finding(rule="DET003")]
        save_baseline(str(a), findings)
        save_baseline(str(b), list(reversed(findings)))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == {}

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_baseline(str(path))

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"version": 9, "entries": []}))
        with pytest.raises(ConfigurationError, match="version"):
            load_baseline(str(path))

    def test_new_finding_not_covered(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), [_finding()])
        other = _finding(rule="DET001", code="rng = np.random.default_rng()")
        new, baselined, stale = split_by_baseline([other], load_baseline(str(path)))
        assert new == [other]
        assert baselined == []
        assert [entry["rule"] for entry in stale] == ["DET006"]

    def test_line_number_drift_keeps_match(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), [_finding(line=3)])
        drifted = _finding(line=57)
        new, baselined, _stale = split_by_baseline([drifted], load_baseline(str(path)))
        assert new == []
        assert baselined == [drifted]

    def test_edited_line_resurfaces(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(str(path), [_finding(code="x = json.dumps(d)")])
        edited = _finding(code="x = json.dumps(d, indent=2)")
        new, _baselined, _stale = split_by_baseline([edited], load_baseline(str(path)))
        assert new == [edited]


# --------------------------------------------------------------------------- #
# File collection & module normalization
# --------------------------------------------------------------------------- #


class TestCollection:
    def test_normalize_module_path_anchors_at_repro(self):
        assert normalize_module_path("src/repro/wan/loss.py") == "repro/wan/loss.py"
        assert (
            normalize_module_path("/tmp/copy/src/repro/flags.py") == "repro/flags.py"
        )

    def test_normalize_module_path_outside_package(self):
        assert normalize_module_path("scripts/check.py") == "scripts/check.py"

    def test_collect_files_sorted_and_filtered(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        hidden = tmp_path / ".hidden"
        hidden.mkdir()
        (hidden / "c.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "d.py").write_text("x = 1\n")
        names = [os.path.basename(p) for p in collect_files([str(tmp_path)])]
        assert names == ["a.py", "b.py"]


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


CLEAN_SOURCE = "import json\n\n\ndef dump(d):\n    return json.dumps(d, sort_keys=True)\n"
DIRTY_SOURCE = "import json\n\n\ndef dump(d):\n    return json.dumps(d)\n"


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN_SOURCE)
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_finding_exits_one(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(DIRTY_SOURCE)
        assert main([str(tmp_path)]) == 1
        assert "DET006" in capsys.readouterr().out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(DIRTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--baseline", str(baseline), "--update-baseline"]) == 0
        assert baseline.exists()
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_stale_baseline_entry_warns(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(DIRTY_SOURCE)
        baseline = tmp_path / "baseline.json"
        main([str(tmp_path), "--baseline", str(baseline), "--update-baseline"])
        (tmp_path / "mod.py").write_text(CLEAN_SOURCE)
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(DIRTY_SOURCE)
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["DET006"]
        assert payload["files"] == 1

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN_SOURCE)
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main([str(tmp_path), "--baseline", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_repro_flag_exits_two(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "mod.py").write_text(CLEAN_SOURCE)
        monkeypatch.setenv("REPRO_TYPO", "1")
        assert main([str(tmp_path)]) == 2
        assert "REPRO_TYPO" in capsys.readouterr().err

    def test_rules_listing(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(RULE_IDS - {META_RULE}):
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        (tmp_path / "mod.py").write_text(DIRTY_SOURCE)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env = {
            k: v
            for k, v in env.items()
            if not (k.startswith(flags.FLAG_PREFIX) and k not in flags.REGISTRY)
        }
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "DET006" in proc.stdout


# --------------------------------------------------------------------------- #
# Self-check: the shipped tree is clean against the shipped baseline
# --------------------------------------------------------------------------- #


class TestSelfCheck:
    def test_src_is_clean_against_shipped_baseline(self):
        result = lint_paths([str(REPO_ROOT / "src")])
        baseline = load_baseline(str(REPO_ROOT / "lint-baseline.json"))
        new, _baselined, stale = split_by_baseline(result.findings, baseline)
        assert new == [], "\n".join(f.render() for f in new)
        assert stale == [], f"stale baseline entries: {stale}"

    def test_shipped_baseline_is_empty(self):
        baseline = load_baseline(str(REPO_ROOT / "lint-baseline.json"))
        assert sum(baseline.values()) == 0
