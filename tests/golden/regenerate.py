"""Rewrite the golden inputs and stdout files that tests/test_golden.py compares.

Run from anywhere: ``python tests/golden/regenerate.py``.  It imports the
package from ``src/`` next to ``tests/``, writes the inputs into this
directory (the spaces by ``quasimetric gen``, the labels by ``save_labels``,
the classifier by ``quasimetric train --output``), then runs each case of
``cases.json`` in-process and writes its stdout to ``<name>.out``.

A case's ``old_argv``, where present, is the invocation whose stdout the
golden first held, before its options were folded into the inputs that
decide them; ``argv`` must print the same bytes.  A regenerated golden
changes what the test accepts, so every changed file belongs in the change
log with its reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from quasimetric.classifier import save_labels  # noqa: E402
from quasimetric.cli import main  # noqa: E402

INPUTS = [
    ["gen", "--kind", "random-bounded", "--n", "40", "--seed", "3", "--output", "ring.txt"],
    ["gen", "--kind", "cycle", "--n", "12", "--out-format", "edges", "--output", "cycle.txt"],
    ["train", "--input", "ring.txt", "--labels", "labels.txt", "--output", "clf.json"],
]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def regenerate() -> None:
    os.chdir(HERE)
    # Blocks of ten points on the 40-point ring: the classes interleave.
    save_labels("labels.txt", {i: 1 if i // 10 % 2 == 0 else -1 for i in range(40)})
    for argv in INPUTS:
        code, _ = run(argv)
        if code != 0:
            raise SystemExit(f"input step {argv} exited {code}")
    for case in json.loads((HERE / "cases.json").read_text()):
        code, out = run(case["argv"])
        if code != case["exit"]:
            raise SystemExit(f"{case['name']} exited {code}, expected {case['exit']}")
        with open(HERE / f"{case['name']}.out", "w", encoding="utf-8", newline="") as fh:
            fh.write(out)


if __name__ == "__main__":
    regenerate()
