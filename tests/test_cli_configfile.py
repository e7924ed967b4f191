"""Tests for the CLI --config-file option."""

import json

import pytest

from repro.cli import main
from tests.old_formats import REMOVED_CONFIG_FIELDS


class TestConfigFile:
    def test_file_values_override_flags(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "prefetcher": "sequential-local",
            "num_sms": 2,
        }))
        code = main(["run", "pathfinder", "--scale", "0.1",
                     "--config-file", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "prefetcher=sequential-local" in out

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(SystemExit):
            main(["run", "pathfinder", "--scale", "0.1",
                  "--config-file", str(path)])

    def test_invalid_field_surfaces_config_error(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"num_sms": 0}))
        with pytest.raises(ConfigurationError):
            main(["run", "pathfinder", "--scale", "0.1",
                  "--config-file", str(path)])
        # An unknown field, such as a removed one, is named.
        for name in ("no_such_knob", *REMOVED_CONFIG_FIELDS):
            path.write_text(json.dumps({"num_sms": 2, name: 1}))
            with pytest.raises(ConfigurationError,
                               match=f"unknown SimulatorConfig fields: "
                                     f"{name}$"):
                main(["run", "pathfinder", "--scale", "0.1",
                      "--config-file", str(path)])

    def test_combines_with_oversubscription_flag(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eviction": "tbn"}))
        code = main(["run", "hotspot", "--scale", "0.1",
                     "--oversubscription", "110",
                     "--keep-prefetching",
                     "--config-file", str(path)])
        assert code == 0
        assert "eviction=tbn" in capsys.readouterr().out
