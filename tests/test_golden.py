"""Byte stability as a test: each case of golden/cases.json, run in-process
through ``cli.main`` on the committed inputs, prints its committed stdout
exactly, and the files a case writes hash to its committed sha256 lines.
``golden/regenerate.py`` rewrites the inputs and the goldens."""

import hashlib
import json
from pathlib import Path

import pytest

from quasimetric.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_stdout_is_the_golden_bytes(case, monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(GOLDEN)
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]) == case["exit"]
    out = capsys.readouterr().out.replace(str(tmp_path), "{tmp}")
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes().decode()
    if "outputs" in case:
        written = "".join(f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}\n"
                          for name in case["outputs"])
        assert written == (GOLDEN / f"{case['name']}.sha256").read_bytes().decode()
