"""Tests of the central REPRO_* flag registry (repro.flags)."""

import pytest

from repro import flags
from repro.exceptions import ConfigurationError


class TestFlagRead:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_CKERNELS", raising=False)
        assert flags.CKERNELS.read() == "1"

    def test_environment_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_CKERNELS", "0")
        assert flags.CKERNELS.read() == "0"

    def test_invalid_environment_value_names_the_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CKERNELS", "bogus")
        with pytest.raises(ConfigurationError, match="REPRO_CKERNELS"):
            flags.CKERNELS.read()


class TestDeclare:
    def test_successful_declaration_registers(self):
        flag = flags.declare(
            "REPRO_TEST_ONLY", default="x", choices=("x", "y"), help="test flag"
        )
        try:
            assert flags.REGISTRY["REPRO_TEST_ONLY"] is flag
            assert flag.read() == "x"
        finally:
            del flags.REGISTRY["REPRO_TEST_ONLY"]

    def test_rejects_name_without_prefix(self):
        with pytest.raises(ConfigurationError, match="REPRO_"):
            flags.declare("OTHER_FLAG", default="x", choices=("x",), help="h")

    def test_rejects_duplicate_name(self):
        with pytest.raises(ConfigurationError, match="already declared"):
            flags.declare("REPRO_CKERNELS", default="1", choices=("1",), help="dup")

    def test_rejects_default_outside_choices(self):
        with pytest.raises(ConfigurationError, match="not among"):
            flags.declare("REPRO_BAD", default="z", choices=("x", "y"), help="h")

    def test_rejects_empty_help(self):
        with pytest.raises(ConfigurationError, match="help"):
            flags.declare("REPRO_BAD", default="x", choices=("x",), help="  ")


class TestRegistry:
    def test_known_flags_are_declared(self):
        assert set(flags.REGISTRY) == {"REPRO_CKERNELS"}

    def test_every_flag_has_help_and_valid_default(self):
        for flag in flags.REGISTRY.values():
            assert flag.help.strip()
            assert flag.default in flag.choices


class TestUnknownFlags:
    def test_unknown_flags_reports_undeclared_repro_vars(self):
        environ = {"REPRO_CKERNELS": "0", "REPRO_TYPO": "1", "PATH": "/bin"}
        assert flags.unknown_flags(environ) == ["REPRO_TYPO"]

    def test_reject_unknown_flags_raises_with_names(self):
        environ = {"REPRO_CKERNEL": "0"}
        with pytest.raises(ConfigurationError, match=r"\['REPRO_CKERNEL'\]"):
            flags.reject_unknown_flags(environ)

    def test_reject_unknown_flags_passes_clean_environ(self):
        flags.reject_unknown_flags({"REPRO_CKERNELS": "0", "HOME": "/root"})

    def test_reject_unknown_flags_reads_os_environ(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFINITELY_NOT_A_FLAG", "1")
        with pytest.raises(ConfigurationError, match="REPRO_DEFINITELY_NOT_A_FLAG"):
            flags.reject_unknown_flags()


class TestConsumersHonourRegistry:
    """The migrated call sites resolve through the declared flags."""

    def test_ckernels_env_var_is_declared(self):
        from repro.cluster._ckernels import CKERNELS_ENV_VAR

        assert CKERNELS_ENV_VAR == flags.CKERNELS.name
