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

With --label L the script also writes BENCH_L.json at the root of this
checkout: each stage's runs with the median, quartiles, minimum and maximum
of its seconds and maxrss_mb; the corpus size (the sentences of the run's
store.jsonl); the machine (core count, Python and numpy versions, the BLAS
thread variables and the SIMD extensions numpy dispatches to); and the line
count of each src/pseudolab/*.py file.

    python scripts/stage_peaks.py --config run/config.json --repeats 5 --label main-5k \
        ingest featurize index train-baseline pseudolabel train-ensemble evaluate
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"
)


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


def summary(stage: str, records: list[dict], quartiles: bool = False) -> dict:
    """One stage's runs: the median, minimum and maximum of each measure, and
    with `quartiles` its first and third quartiles (q1, q3)."""
    line = {"stage": stage, "runs": len(records)}
    for measure in ("seconds", "maxrss_mb"):
        values = [r[measure] for r in records]
        stats = {"median": round(statistics.median(values), 3)}
        if quartiles:
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            stats.update(q1=round(q1, 3), q3=round(q3, 3))
        line[measure] = {**stats, "min": min(values), "max": max(values)}
    return line


def environment() -> dict:
    """The machine the stages ran on, as far as it moves their times and bits."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = umath.__cpu_features__
    simd = [*umath.__cpu_baseline__, *(f for f in umath.__cpu_dispatch__ if found.get(f))]
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "simd": " ".join(simd),
    }


def source_lines() -> dict[str, int]:
    """`wc -l` of each src/pseudolab/*.py file, and their total."""
    lines = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((SRC / "pseudolab").glob("*.py"))
    }
    return {**lines, "total": sum(lines.values())}


def corpus_sentences(config: str) -> int | None:
    """The sentences of the run's store.jsonl, or None if there is none."""
    output_dir = json.loads(Path(config).read_text(encoding="utf-8"))["output_dir"]
    store = Path(output_dir) / "store.jsonl"
    if not store.is_file():
        return None
    with open(store, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def write_bench(label: str, config: str, records: dict[str, list[dict]], repeats: int) -> Path:
    path = ROOT / f"BENCH_{label}.json"
    bench = {
        "label": label,
        "repeats": repeats,
        "corpus_sentences": corpus_sentences(config),
        "stages": [summary(stage, runs, quartiles=True) for stage, runs in records.items()],
        "environment": environment(),
        "source_lines": source_lines(),
    }
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--input", help="the sentences predict scores, one per line")
    parser.add_argument("--repeats", type=int, default=1, help="runs of the stages (default 1)")
    parser.add_argument("--label", help="write BENCH_<label>.json at the checkout's root")
    parser.add_argument("stages", nargs="+", metavar="stage")
    args = parser.parse_args()
    if "predict" in args.stages and args.input is None:
        parser.error("predict needs --input")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.label is not None and not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
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
    if args.label is not None:
        print(f"wrote {write_bench(args.label, args.config, records, args.repeats)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
