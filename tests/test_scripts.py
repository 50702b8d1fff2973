"""Smoke tests of the scripts in scripts/: each runs as a subprocess, as from a shell."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from pseudolab.pipeline import SETTINGS

ROOT = Path(__file__).resolve().parents[1]

FLOAT = r"\d+\.\d{3}"


def _run(script: str, *args: str, env: dict[str, str] | None = None) -> list[str]:
    """Run a script (or `-m module`) with the package on its path; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {}))
    target = [script] if script == "-m" else [str(ROOT / "scripts" / script)]
    result = subprocess.run(
        [sys.executable, *target, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_compare_settings_prints_one_row_per_setting():
    lines = _run("compare_settings.py", "--n-corpus", "300", "--n-train", "40", "--k", "50")
    assert re.fullmatch(r"context built in \d+\.\ds", lines[0]), lines[0]
    assert lines[1].split() == ["Setting", "1", "2", "3", "4", "5", "mean"]
    rows = [line.split() for line in lines[2 : 2 + len(SETTINGS)]]
    assert [row[0] for row in rows] == list(SETTINGS)
    for row in rows:
        assert all(re.fullmatch(FLOAT, cell) for cell in row[1:]), row
    summaries = [line for line in lines if ": raw " in line]
    assert [line.split(":")[0] for line in summaries] == list(SETTINGS)
    for line in summaries:
        assert re.fullmatch(rf"\w+: raw {FLOAT}  mapped {FLOAT}", line), line
    assert re.fullmatch(r"total \d+\.\ds", lines[-1]), lines[-1]


def test_artifact_digests_of_a_pipeline_run(tmp_path):
    _run("make_fixture.py", str(tmp_path), "--n-corpus", "300", "--n-train", "20",
         "--n-test", "5", "--k", "20")
    _run("run_pipeline.py", "--config", str(tmp_path / "config.json"))
    out = tmp_path / "out"
    lines = _run("artifact_digests.py", str(out))

    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert [line.split("  ", 1)[1] for line in lines] == files
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64}  \S+", line), line
    digests = dict(reversed(line.split("  ", 1)) for line in lines)
    for name in ("store.jsonl", "bundle/manifest.json", "eval_report.txt"):
        assert digests[name] == hashlib.sha256((out / name).read_bytes()).hexdigest()

    # the run manifest's timings do not enter its digest
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for info in manifest["stages"].values():
        info["wall_seconds"] += 1.0
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert _run("artifact_digests.py", str(out)) == lines


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """All seven stages and predict, on 1 and on 2 OpenBLAS threads, write the same bytes."""
    runs = {}
    for threads in ("1", "2"):
        env = {"OPENBLAS_NUM_THREADS": threads}
        fixture = tmp_path / f"threads_{threads}"
        _run("make_fixture.py", str(fixture), "--n-corpus", "600", "--n-train", "60",
             "--n-test", "20", "--k", "100", env=env)
        config = str(fixture / "config.json")
        _run("run_pipeline.py", "--config", config, env=env)
        texts = fixture / "input.txt"
        texts.write_text(
            "".join(p.read_text(encoding="utf-8") for p in sorted(fixture.glob("corpus/*"))),
            encoding="utf-8",
        )
        _run("-m", "pseudolab.cli", "predict", "--config", config, "--input", str(texts), env=env)
        lines = _run("artifact_digests.py", str(fixture / "out"), "--portable")
        runs[threads] = {path: digest for digest, path in (line.split("  ", 1) for line in lines)}
    assert "predictions.tsv" in runs["1"] and "manifest.json" in runs["1"]
    differing = sorted(p for p in runs["1"].keys() | runs["2"].keys()
                       if runs["1"].get(p) != runs["2"].get(p))
    assert differing == []


def test_stage_peaks_prints_one_record_per_stage(tmp_path):
    _run("make_fixture.py", str(tmp_path), "--n-corpus", "80", "--n-train", "10",
         "--n-test", "5", "--k", "10")
    config = str(tmp_path / "config.json")
    sentences = tmp_path / "sentences.txt"
    sentences.write_text(
        "Ein kurzer Satz.\nNoch ein Satz, etwas laenger als der erste.\n", encoding="utf-8"
    )
    stages = ["ingest", "featurize", "index", "train-baseline", "pseudolabel", "train-ensemble",
              "predict"]
    records = [
        json.loads(line)
        for line in _run("stage_peaks.py", "--config", config, "--input", str(sentences), *stages)
    ]
    assert [r["stage"] for r in records] == stages
    for record in records:
        assert set(record) == {"stage", "seconds", "maxrss_mb", "exit"}
        assert record["exit"] == 0 and record["seconds"] > 0 and record["maxrss_mb"] > 1
    assert (tmp_path / "out" / "index.bin").exists()
    predictions = (tmp_path / "out" / "predictions.tsv").read_text(encoding="utf-8")
    assert len(predictions.splitlines()) == 2

    # a failing stage ends the run: its record is the last line, and the script exits 1
    (tmp_path / "out" / "corpus_vectors.npy").unlink()
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "--config", config,
         "index", "train-baseline"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stderr
    (line,) = result.stdout.splitlines()
    assert json.loads(line)["stage"] == "index" and json.loads(line)["exit"] == 2
