#!/usr/bin/env python3
"""Run pseudolab stages one at a time, each in its own process, and print each
one's wall time and peak resident set.

    python scripts/stage_peaks.py --config run/config.json featurize index
    python scripts/stage_peaks.py --config run/config.json --input run/test.txt predict

`predict` scores the sentences of the file `--input` names, one per line.

Each stage runs with --force as a child process (`python -m pseudolab.cli`,
with this checkout's src/ first on PYTHONPATH). The child is reaped with
os.wait4, whose resource usage covers that child and the workers it forked
but no other stage, so `maxrss_mb` is the stage's own peak (the largest of
its processes). One JSON line per stage:
stage, seconds, maxrss_mb (ru_maxrss / 1024) and exit. A stage's log goes to
stderr. The script stops at the first stage that fails and exits 1.

With --repeats N (N > 1) the stages run in order N times, and after the N
runs' lines comes one summary line per stage: its runs, and the median,
minimum and maximum of its seconds and of its maxrss_mb.

    python scripts/stage_peaks.py --config run/config.json --repeats 5 pseudolabel evaluate
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_stage(stage: str, config: str, input_path: str | None) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), *([path] if path else [])]))
    argv = [sys.executable, "-m", "pseudolab.cli", stage, "--config", config, "--force"]
    if stage == "predict":
        argv += ["--input", input_path]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)  # stderr shows the stage's log
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait for it
    return {
        "stage": stage,
        "seconds": round(seconds, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "exit": proc.returncode,
    }


def summary(stage: str, records: list[dict]) -> dict:
    """One stage's runs: the median, minimum and maximum of each measure."""
    line = {"stage": stage, "runs": len(records)}
    for measure in ("seconds", "maxrss_mb"):
        values = [r[measure] for r in records]
        line[measure] = {
            "median": round(statistics.median(values), 3), "min": min(values), "max": max(values)
        }
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--input", help="the sentences predict scores, one per line")
    parser.add_argument("--repeats", type=int, default=1, help="runs of the stages (default 1)")
    parser.add_argument("stages", nargs="+", metavar="stage")
    args = parser.parse_args()
    if "predict" in args.stages and args.input is None:
        parser.error("predict needs --input")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    records: dict[str, list[dict]] = {stage: [] for stage in args.stages}
    for _ in range(args.repeats):
        for stage in args.stages:
            record = run_stage(stage, args.config, args.input)
            print(json.dumps(record), flush=True)
            if record["exit"] != 0:
                return 1
            records[stage].append(record)
    if args.repeats > 1:
        for stage, runs in records.items():
            print(json.dumps(summary(stage, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
