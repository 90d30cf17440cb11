import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["replay_catalog", "rediscover_bases"])
def test_catalog_script_verifies_every_fixture(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--horizon", "20"])
    assert _load(name).main() == 0
    assert "23/23" in capsys.readouterr().out
