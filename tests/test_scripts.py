"""Smoke tests of the scripts in scripts/: each runs as a subprocess, as from a shell."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from pseudolab.pipeline import SETTINGS
from test_golden_digests import environment

ROOT = Path(__file__).resolve().parents[1]

FLOAT = r"\d+\.\d{3}"


def _run(
    script: str, *args: str, env: dict[str, str] | None = None, cwd: Path | None = None
) -> list[str]:
    """Run a script (or `-m module`) with the package on its path; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **(env or {}))
    target = [script] if script == "-m" else [str(ROOT / "scripts" / script)]
    result = subprocess.run(
        [sys.executable, *target, *args],
        env=env, capture_output=True, text=True, timeout=300, cwd=cwd,
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


def test_fixture_made_in_a_relative_directory_runs_from_another(tmp_path):
    """make_fixture.py writes absolute paths into config.json, so ingest finds
    the corpus from inside the fixture as well as from where it was made."""
    _run("make_fixture.py", "fx", "--n-corpus", "80", "--n-train", "10", "--n-test", "5",
         "--k", "10", cwd=tmp_path)
    config = json.loads((tmp_path / "fx" / "config.json").read_text(encoding="utf-8"))
    paths = [entry["path"] for entry in config["corpora"]]
    paths += [config[key] for key in ("labeled_train", "labeled_test", "output_dir")]
    assert all(Path(path).is_absolute() for path in paths), paths
    _run("-m", "pseudolab.cli", "ingest", "--config", "config.json", cwd=tmp_path / "fx")
    assert (tmp_path / "fx" / "out" / "store.jsonl").is_file()


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
    (tmp_path / "out" / "feature_stats.json").unlink()
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_peaks.py"), "--config", config,
         "index", "train-baseline"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stderr
    (line,) = result.stdout.splitlines()
    assert json.loads(line)["stage"] == "index" and json.loads(line)["exit"] == 2


def test_stage_peaks_repeats_the_stages_and_summarizes_each(tmp_path):
    _run("make_fixture.py", str(tmp_path), "--n-corpus", "600", "--n-train", "60",
         "--n-test", "20", "--k", "100")
    stages = ["ingest", "featurize", "index", "train-baseline", "pseudolabel"]
    lines = [
        json.loads(line)
        for line in _run("stage_peaks.py", "--config", str(tmp_path / "config.json"),
                         "--repeats", "2", *stages)
    ]
    runs, summaries = lines[: 2 * len(stages)], lines[2 * len(stages) :]
    assert [r["stage"] for r in runs] == stages * 2
    assert all(r["exit"] == 0 for r in runs)
    assert [s["stage"] for s in summaries] == stages
    for stage, line in zip(stages, summaries):
        assert set(line) == {"stage", "runs", "seconds", "maxrss_mb"} and line["runs"] == 2
        for measure in ("seconds", "maxrss_mb"):
            values = sorted(r[measure] for r in runs if r["stage"] == stage)
            assert line[measure] == {
                "median": round(sum(values) / 2, 3), "min": values[0], "max": values[1]
            }, (stage, measure)


def test_stage_peaks_writes_a_bench_file_of_every_stage(tmp_path):
    """--label writes BENCH_<label>.json at the root of the script's checkout;
    a copy of the script whose src/ links to this one writes it under tmp_path."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "stage_peaks.py", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    fixture = tmp_path / "fixture"
    _run("make_fixture.py", str(fixture), "--n-corpus", "600", "--n-train", "60",
         "--n-test", "20", "--k", "100")
    stages = ["ingest", "featurize", "index"]
    result = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "stage_peaks.py"), "--config",
         str(fixture / "config.json"), "--repeats", "3", "--label", "t-600", *stages],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    runs, summaries = lines[: 3 * len(stages)], lines[3 * len(stages) :]
    assert [s["stage"] for s in summaries] == stages  # the lines of --repeats, as before
    assert not list(ROOT.glob("BENCH_t-600.json"))
    bench = json.loads((tmp_path / "BENCH_t-600.json").read_text(encoding="utf-8"))

    assert set(bench) == {"label", "repeats", "corpus_sentences", "stages", "environment",
                          "source_lines"}
    assert (bench["label"], bench["repeats"], bench["corpus_sentences"]) == ("t-600", 3, 600)
    assert [s["stage"] for s in bench["stages"]] == stages
    for line, printed in zip(bench["stages"], summaries):
        assert set(line) == {"stage", "runs", "seconds", "maxrss_mb"} and line["runs"] == 3
        for measure in ("seconds", "maxrss_mb"):
            low, mid, high = sorted(r[measure] for r in runs if r["stage"] == line["stage"])
            assert line[measure] == {
                "median": mid, "q1": round((low + mid) / 2, 3), "q3": round((mid + high) / 2, 3),
                "min": low, "max": high,
            }, (line["stage"], measure)
            assert printed[measure] == {"median": mid, "min": low, "max": high}

    env = bench["environment"]
    assert set(env) == {"cpus", "usable_cpus", "python", "numpy", "blas_threads", "simd"}
    assert env["cpus"] == os.cpu_count() and 1 <= env["usable_cpus"] <= env["cpus"]
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))
    assert env["numpy"] == np.__version__
    assert env["blas_threads"] == {
        name: os.environ.get(name)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS")
    }
    assert env["simd"] == environment()["simd"]

    sources = sorted((ROOT / "src" / "pseudolab").glob("*.py"))
    wc = {p.name: len(p.read_text(encoding="utf-8").splitlines()) for p in sources}
    assert bench["source_lines"] == {**wc, "total": sum(wc.values())}
