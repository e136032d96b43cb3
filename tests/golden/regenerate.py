"""Rewrite the golden inputs and stdout files that tests/test_golden.py compares.

Run from anywhere: ``python tests/golden/regenerate.py``.  It imports the
package from ``src/`` next to ``tests/``, writes the inputs into this
directory (the spaces by ``quasimetric gen``, the labels by ``save_labels``,
the classifier by ``quasimetric train --output``, and from ``ring.txt`` a
copy with one planted triangle violation and a query file), then runs each
case of ``cases.json`` in-process and writes its stdout to ``<name>.out``.

A case that writes files names them in ``outputs``: its ``argv`` writes them
into a fresh temporary directory, spelled ``{tmp}``, which is also how the
stdout golden spells that directory, and ``<name>.sha256`` holds one
``<sha256>  <file>`` line per output.  The written files are not kept.

A case's ``old_argv``, where present, is the invocation whose stdout the
golden first held, before its options were folded into the inputs that
decide them; ``argv`` must print the same bytes.  A regenerated golden
changes what the test accepts, so every changed file belongs in the change
log with its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from quasimetric.classifier import save_labels  # noqa: E402
from quasimetric.cli import main  # noqa: E402
from quasimetric.space import format_value, load_matrix, save_matrix  # noqa: E402

INPUTS = [
    ["gen", "--kind", "random-bounded", "--n", "40", "--seed", "3", "--output", "ring.txt"],
    ["gen", "--kind", "cycle", "--n", "12", "--out-format", "edges", "--output", "cycle.txt"],
    ["gen", "--kind", "line", "--output", "line.txt"],
    ["train", "--input", "ring.txt", "--labels", "labels.txt", "--output", "clf.json"],
]

# Points whose columns of ring.txt make the query file: the OUTER rule of
# clf.json reads each query's to side, so its from side is "-".
QUERY_POINTS = [7, 0, 39, 12]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def digests(directory: Path, names: list[str]) -> str:
    """``<sha256>  <name>`` lines, as ``sha256sum`` prints them."""
    return "".join(f"{hashlib.sha256((directory / name).read_bytes()).hexdigest()}  {name}\n"
                   for name in names)


def write(name: str, text: str) -> None:
    with open(HERE / name, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def regenerate() -> None:
    os.chdir(HERE)
    # Blocks of ten points on the 40-point ring: the classes interleave.
    save_labels("labels.txt", {i: 1 if i // 10 % 2 == 0 else -1 for i in range(40)})
    for argv in INPUTS:
        code, _ = run(argv)
        if code != 0:
            raise SystemExit(f"input step {argv} exited {code}")
    ring = load_matrix("ring.txt").dist
    planted = ring.copy()
    planted[0, 1] = ring[0, 2] + ring[2, 1] + 1.0
    save_matrix("planted.txt", planted, header=["ring.txt with d(0, 1) > d(0, 2) + d(2, 1)"])
    write("queries.txt", f"{len(QUERY_POINTS)}\n" + "".join(
        "-\n" + " ".join(map(format_value, ring[:, p])) + "\n" for p in QUERY_POINTS))
    for case in json.loads((HERE / "cases.json").read_text()):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run([arg.replace("{tmp}", tmp) for arg in case["argv"]])
            if code != case["exit"]:
                raise SystemExit(f"{case['name']} exited {code}, expected {case['exit']}")
            write(f"{case['name']}.out", out.replace(tmp, "{tmp}"))
            if "outputs" in case:
                write(f"{case['name']}.sha256", digests(Path(tmp), case["outputs"]))


if __name__ == "__main__":
    regenerate()
