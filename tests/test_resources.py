"""Resource limits: a stage that runs out of memory, in this process or in a
forked task, ends in one line naming the stage and exit 1, never in an exit-3
traceback or a hang."""

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from pseudolab import cli, fixtures, parallel, pipeline

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 600-sentence run through pseudolabel with two featurizers; its config path."""
    directory = tmp_path_factory.mktemp("resources")
    dataset = fixtures.make_synthetic_dataset(n_corpus=600, n_train=40, n_test=10, seed=4)
    fixtures.write_labeled_tsv(dataset.labeled_train, directory / "train.tsv")
    config_path = directory / "config.json"
    config_path.write_text(json.dumps({
        "corpora": fixtures.write_corpus_files(dataset.store, directory / "corpus"),
        "labeled_train": str(directory / "train.tsv"),
        "output_dir": str(directory / "out"),
        "retrieval": {"hashed_dim": 128, "ngram_min": 3, "ngram_max": 4},
        "archetypes": [
            {"name": "a", "hashed_dim": 128, "ngram_min": 3, "ngram_max": 5},
            {"name": "b", "hashed_dim": 64, "ngram_min": 2, "ngram_max": 4},
        ],
        "k": 15,
        "seeds": [1],
        "hyper_pseudo": {"max_epochs": 2},
        "hyper_fine": {"max_epochs": 2},
    }), encoding="utf-8")
    for stage in ("ingest", "featurize", "index", "train-baseline", "pseudolabel"):
        assert cli.main([stage, "--config", str(config_path)]) == 0, stage
    return config_path


def _allocate_too_much(*args, **kwargs):
    return np.empty(2**57)  # 1 EiB: numpy raises its MemoryError


def _error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if not line.startswith("[")]


OUT_OF_MEMORY = r"error: {} ran out of memory: Unable to allocate 1\.00 EiB for an array .*"


def test_a_stage_that_runs_out_of_memory_is_named(trained, monkeypatch, capsys):
    monkeypatch.setattr(cli, "train_gate_model", _allocate_too_much)
    capsys.readouterr()
    assert cli.main(["train-baseline", "--config", str(trained)]) == 1
    (line,) = _error_lines(capsys)
    assert re.fullmatch(OUT_OF_MEMORY.format("train-baseline"), line), line
    assert not (trained.parent / "out" / ".lock").exists()


def test_a_forked_task_that_runs_out_of_memory_is_named(trained, monkeypatch, tmp_path, capsys):
    """The MemoryError of archetype 'b''s task, raised in a forked child, is
    raised again in the parent and named there."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    pid_file = tmp_path / "pid"
    real = pipeline.train_stage_models

    def failing(ctx, corpus_features, pset, cfg, where):
        if list(corpus_features) == ["b"]:
            pid_file.write_text(str(os.getpid()), encoding="utf-8")
            _allocate_too_much()
        return real(ctx, corpus_features, pset, cfg, where)

    monkeypatch.setattr(pipeline, "train_stage_models", failing)
    capsys.readouterr()
    assert cli.main(["train-ensemble", "--config", str(trained), "--force"]) == 1
    (line,) = _error_lines(capsys)
    assert re.fullmatch(OUT_OF_MEMORY.format("train-ensemble"), line), line
    assert int(pid_file.read_text(encoding="utf-8")) != os.getpid()


# Runs train-ensemble once unlimited, which loads every module the stage
# imports, then caps this process's address space at its size now plus
# argv[2] MB and runs the stage again: the limit then binds on the stage's own
# allocations, in this process and in the children it forks.
LIMITED_RUN = textwrap.dedent(
    """
    import resource
    import sys
    from pathlib import Path
    from pseudolab import cli

    argv = ["train-ensemble", "--config", sys.argv[1], "--force"]
    assert cli.main(argv) == 0
    size_kb = int(Path("/proc/self/status").read_text().split("VmSize:")[1].split()[0])
    limit = size_kb * 1024 + int(sys.argv[2]) * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.exit(cli.main(argv))
    """
)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_train_ensemble_under_an_address_space_limit_ends_named(trained):
    """Under limits from no headroom to plenty, each run ends within 60 s with
    exit 0 or the one out-of-memory line. The limit is set in the child only;
    a child that does not end is killed with its process group."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    codes = {}
    for headroom_mb in (0, 1, 2, 4, 8, 16, 256):
        proc = subprocess.Popen(
            [sys.executable, "-c", LIMITED_RUN, str(trained), str(headroom_mb)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"train-ensemble with {headroom_mb} MB of headroom ran past 60 s")
        errors = [line for line in err.splitlines() if not line.startswith("[")]
        where = (headroom_mb, proc.returncode, errors[-3:])
        if proc.returncode != 0:
            assert proc.returncode == 1 and len(errors) == 1, where
            assert errors[0].startswith("error: train-ensemble ran out of memory: "), where
        codes[headroom_mb] = proc.returncode
    assert codes[0] == 1 and codes[256] == 0, codes
