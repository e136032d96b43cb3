"""Seeded end-to-end benchmark of the quasimetric CLI.

    python3 perfbench/run.py --workload classify --seed 7 --seconds 40 --trace 0

Run from the root of a checkout.  The untraced run (``--trace 0``) sets the
workload up several times, then runs the workload's three CLI commands as
child processes, each after a fixed reference child, one at a time (a closed
loop), until ``--seconds`` is spent, checks every output, and reports each
time in reference seconds (see CALIBRATION).  The traced run (``--trace 1``) runs each command once
as a child and once in-process through ``quasimetric.cli.main`` with every
public package function wrapped (see tracing.py), and reports per-layer
seconds and the paper's cost counters.  The last line of stdout is one JSON
object; a fuller record, with the sha256 of every child's stdout and, when
traced, every span, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 120
STARTUP_REPEATS = 3
# End-to-end metric names are shared by all workloads; each workload's three
# commands fill cmd1_s..cmd3_s in order (see README.md for the mapping).
SLOTS = ("cmd1_s", "cmd2_s", "cmd3_s")
# One BLAS/OpenMP thread, here and in every child: the load is one process
# at a time, and idle worker threads spinning on a small shared host only
# add noise (and CPU time) to the figures.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fixed reference child, run just before every command: the
# same kinds of work as the CLI (start-up, numpy and scipy imports, text
# formatting and parsing, numpy array passes), but none of the package's
# code, so no change to the package moves it.  A shared host's speed drifts
# by up to 1.8x over seconds to minutes; timing each command against the
# reference child run just before it cancels most of that drift (see
# README.md).
CALIBRATION = """
import numpy as np
import scipy.sparse.csgraph
m = np.random.default_rng(0).uniform(0.0, 100.0, (200, 200))
text = "\\n".join(" ".join(format(float(v), ".17g") for v in row) for row in m)
d = np.array([float(t) for t in text.split()]).reshape(m.shape)
for k in range(200):
    np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
"""
# The reference child's wall time on a quiet 2-vCPU Xeon host (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1): end-to-end times are reported in
# seconds at that speed.
REFERENCE_S = 0.33


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QUASIMETRIC_TOLERANCE", None)
    return env


# Runs each CLI child for the benchmark: one JSON job per stdin line, one
# JSON result per stdout line.  It is started before numpy is imported and
# imports only the standard library, so it stays small (see Spawner).
SPAWNER = """
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["stdout"], "wb") as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"],
                                stdout=out, stderr=err)
        killer = threading.Timer(job["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
                      "maxrss_kb": usage.ru_maxrss}), flush=True)
"""


class Spawner:
    """Runs CLI children from a small helper process and reports on each.

    On Linux a child's ``ru_maxrss`` counts the resident size of the process
    that forked it, so a child forked by the benchmark itself (numpy, scipy
    and the workload's arrays loaded) would report at least the benchmark's
    size.  The helper is forked while the benchmark is still small.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER], text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the helper ends after its current child
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path) -> dict:
        """Run one child to completion; wall time, exit code, peak RSS and stdout."""
        out_path = cwd / ".stdout"
        job = {"argv": [sys.executable, *argv], "cwd": str(cwd), "env": child_env(),
               "stdout": str(out_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the spawner process ended with code {self.proc.wait()}")
        done = json.loads(reply)
        stdout = out_path.read_bytes()
        return {"exit": done["exit"], "wall_s": done["wall_s"],
                "maxrss_mb": done["maxrss_kb"] / 1024.0,
                "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                "stdout": stdout.decode("utf-8", errors="replace")}


def cli_argv(command) -> list[str]:
    return ["-m", "quasimetric.cli", *command.argv]


def judge(command, rec: dict) -> list[str]:
    """Problems with one run of a command: wrong exit code or wrong output."""
    if rec["exit"] != command.expected_exit:
        return [f"exit {rec['exit']}, expected {command.expected_exit}"]
    try:
        return command.check(rec["stdout"])
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


def time_setups(workload) -> list[float]:
    """Set the workload up (same seed, same files) at least twice, and up to
    eight times while the set-ups take under a second in all.

    A run calls this before and after its commands, so the set-up samples
    come from both ends of the run instead of one burst at its start.
    """
    times: list[float] = []
    while len(times) < 2 or (len(times) < 8 and sum(times) < 1.0):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def untraced(workload, seconds: float, spawner: Spawner) -> tuple[dict, dict]:
    commands = workload.commands()
    setups = time_setups(workload)
    spawner.run(["-c", "import quasimetric.cli"], workload.dir)  # warm the file cache
    iterations, failures, wrong = [], 0, 0
    start = time.perf_counter()
    while True:
        runs = []
        for command in commands:
            reference = spawner.run(["-c", CALIBRATION], workload.dir)
            if reference["exit"] != 0:
                raise RuntimeError(f"the reference child exited {reference['exit']}")
            rec = spawner.run(cli_argv(command), workload.dir)
            rec["reference_s"] = reference["wall_s"]
            rec["problems"] = judge(command, rec)
            failures += bool(rec["problems"])
            wrong += bool(rec["problems"]) and rec["exit"] == command.expected_exit
            del rec["stdout"]
            runs.append({"command": command.metric, "argv": command.argv, **rec})
        iterations.append(runs)
        elapsed = time.perf_counter() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    setups += time_setups(workload)  # the files are rewritten as they were
    # Medians over the run: a shared host slows down for a few seconds at a
    # time, and a median ignores those bursts where a mean would not.
    named = {"setup_s": statistics.median(setups)}
    for i, command in enumerate(commands):
        named[command.metric] = statistics.median(it[i]["wall_s"] for it in iterations)
    named["total_s"] = statistics.median(sum(r["wall_s"] for r in it) for it in iterations)
    named["peak_rss_mb"] = max(r["maxrss_mb"] for it in iterations for r in it)
    named["reference_s"] = statistics.median(r["reference_s"] for it in iterations for r in it)

    # End-to-end times in reference seconds: each command's wall time over
    # that of the reference child run just before it, times REFERENCE_S.
    def scaled(run: dict) -> float:
        return run["wall_s"] / run["reference_s"] * REFERENCE_S

    metrics = {"setup_s": named["setup_s"] / named["reference_s"] * REFERENCE_S,
               "total_s": statistics.median(sum(scaled(r) for r in it) for it in iterations),
               "peak_rss_mb": named["peak_rss_mb"]}
    for i, slot in enumerate(SLOTS):
        metrics[slot] = statistics.median(scaled(it[i]) for it in iterations)
    attempted = len(iterations) * len(commands)
    record = {"setup_runs_s": setups, "iterations": iterations, "named": named,
              "attempted": attempted, "failed": failures, "wrong": wrong}
    return metrics, record


def in_process(main, argv: list[str], cwd: Path) -> tuple[int, bytes]:
    """Call cli.main(argv) in this process with stdout captured; (exit, stdout)."""
    buf, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        os.chdir(previous)
    return code, buf.getvalue().encode("utf-8")


def traced(workload, spawner: Spawner) -> tuple[dict, dict]:
    import quasimetric
    import tracing
    from quasimetric import cli

    startups = [spawner.run(["-c", "import quasimetric.cli"], workload.dir)["wall_s"]
                for _ in range(STARTUP_REPEATS)]
    startup = statistics.median(startups)
    recorder = tracing.Recorder()
    commands = workload.commands()
    accounting, mains = [], []
    with tracing.patched(quasimetric, recorder) as sites:
        with recorder.root("setup", "setup"):
            workload.setup()
    for command in commands:
        rec = spawner.run(cli_argv(command), workload.dir)
        problems = judge(command, rec)
        with tracing.patched(quasimetric, recorder):
            with recorder.root(command.metric, "cli.main") as main_span:
                code, stdout = in_process(cli.main, command.argv, workload.dir)
        mains.append(main_span)
        if hashlib.sha256(stdout).hexdigest() != rec["stdout_sha256"] or code != rec["exit"]:
            problems.append("traced in-process stdout or exit differs from the child's")
        breaches = tracing.cost_breaches(recorder, command.metric)
        spans_s = sum(s.seconds for s in tracing.top_level(recorder, main_span))
        accounting.append({
            "command": command.metric, "argv": command.argv, "exit": rec["exit"],
            "stdout_sha256": rec["stdout_sha256"], "problems": problems + breaches,
            "wrong_output": bool(breaches) or (bool(problems)
                                               and rec["exit"] == command.expected_exit),
            "wall_s": rec["wall_s"], "startup_s": startup,
            "main_traced_s": main_span.seconds, "top_level_spans_s": spans_s,
            "unattributed_s": main_span.seconds - spans_s,
            "overhead_s": startup + main_span.seconds - rec["wall_s"]})
    metrics = {"cli.startup_s": startup, **tracing.layer_metrics(recorder, mains),
               "trace.overhead_s": sum(a["overhead_s"] for a in accounting),
               "k": workload.facts.get("k", 0),
               "holdout_error": workload.facts.get("holdout_error", 0.0)}
    record = {"startup_runs_s": startups, "binding_sites": sites,
              "accounting": accounting, "spans": recorder.to_list(),
              "attempted": len(commands),
              "failed": sum(bool(a["problems"]) for a in accounting),
              "wrong": sum(a["wrong_output"] for a in accounting)}
    return metrics, record


OTHER_UNITS = {"cover.s_per_call": "s", "holdout_error": "fraction",
               "error_rate": "fraction", "cover.budget_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in OTHER_UNITS:
        return OTHER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["classify", "constants", "audit"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quasimetric" / "cli.py").is_file():
        sys.stderr.write(f"error: no quasimetric sources under {ROOT / 'src'}\n")
        return 2
    os.environ.update(ONE_THREAD)  # before numpy is imported
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Spawner() as spawner:  # before numpy is imported, too
            sys.path.insert(0, str(ROOT / "src"))
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed, work)
            if args.trace:
                metrics, record = traced(workload, spawner)
            else:
                metrics, record = untraced(workload, args.seconds, spawner)
        workload.probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = {**workload.facts, **record.get("named", {}),
             "error_rate": record["failed"] / record["attempted"]}
    for name, value in facts.items():
        print(f"{args.workload:10s} {name:22s} {value:14.6f} {unit_of(name)}")
    if args.trace:
        for a in record["accounting"]:
            print(f"{a['command']:22s} wall {a['wall_s']:.4f} = startup {a['startup_s']:.4f}"
                  f" + spans {a['top_level_spans_s']:.4f}"
                  f" + unattributed {a['unattributed_s']:.4f}"
                  f" - overhead {a['overhead_s']:.4f}")
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "facts": facts,
        "metrics": metrics, **record}, indent=1) + "\n")
    print(json.dumps({
        "correct": record["wrong"] == 0, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
