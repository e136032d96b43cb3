"""Byte stability as a test: each case of golden/cases.json, run in-process
through ``cli.main`` on the committed inputs, prints its committed stdout
exactly.  ``golden/regenerate.py`` rewrites the inputs and the goldens."""

import json
from pathlib import Path

import pytest

from quasimetric.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_stdout_is_the_golden_bytes(case, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == (GOLDEN / f"{case['name']}.out").read_bytes().decode()
