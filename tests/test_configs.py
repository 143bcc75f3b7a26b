"""Every bundled config runs to exit code 0 under its own subcommand,
without a ``sanovdual`` warning, and writes its JSON files in the one
format: ``json.dumps(..., indent=2, sort_keys=True)`` and a newline."""

import json
import logging
from pathlib import Path

import pytest

from sanovdual.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Config file names start with the subcommand they run, except the
# martingale experiment, which is a `tailbound` experiment.
SUBCOMMAND = {
    "azuma": "tailbound",
    "cramer": "cramer",
    "rho": "rho",
    "saa": "saa",
    "sanov": "sanov",
    "superhedge": "superhedge",
    "tailbound": "tailbound",
    "transport": "transport",
}


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_bundled_config_runs(tmp_path, caplog, config):
    command = SUBCOMMAND[config.name.split("_")[0]]
    with caplog.at_level(logging.WARNING, logger="sanovdual"):
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    warned = [r.getMessage() for r in caplog.records
              if r.name.startswith("sanovdual")]
    assert not warned
    for path in sorted((tmp_path / "out").glob("*.json")):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n", path.name
