"""The README examples run as written."""

import json
import pathlib
import re

import pytest

from adiaframe.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README, re.S)


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index):
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_json_config_runs_through_main(tmp_path, capsys):
    assert len(JSON_BLOCKS) == 1
    path = tmp_path / "scenario.json"
    path.write_text(JSON_BLOCKS[0])
    out = tmp_path / "results"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"]
    assert report["config_sha256"] == (
        "d021f1c12acf8645d6f7bbe0546e1623fc7d8adb74c4fb08bd371ac74bda0953")
